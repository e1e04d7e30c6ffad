"""Batch classification over graph6 corpora, witness filtering, reporting.

One record is produced per orbit of base vertices under the full
automorphism group (base vertices in one orbit yield isomorphic algebras,
so one representative suffices).  Each record comes from one
``chain_with_algebras`` call over the requested levels: its dims and
certified flags are the chain's, a level the chain left None (a search
budget miss) makes the record ``stabilizer-budget-exceeded``, and a level
whose flag says it equals the level below takes that level's Wedderburn
type instead of decomposing again.  Scans are deterministic for any worker
count: workers map over whole graphs and results are merged in input
order, with records sorted by base representative inside each graph.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

# build_T is not called here, the chain builds every level; the name stays
# importable because bench/tracing.py wraps terw.pipeline.build_T as a span site
from .algebras import build_T, chain_with_algebras  # noqa: F401
from .errors import BudgetExceededError, CertificationError, DecompositionError, Graph6Error
from .graphs import Graph, iter_graph6_lines, parse_graph6, write_graph6
from .groups import DEFAULT_NODE_BUDGET, automorphism_group, vertex_orbits
from .structure import WedderburnType, wedderburn_decompose

STATUS_OK = "ok"
STATUS_BUDGET = "stabilizer-budget-exceeded"
STATUS_DECOMPOSE = "decompose-failed"

FILTERS = ("all", "t1-ne-t2", "t2-ne-t3", "t3-ne-t4")

DEFAULT_TIME_BUDGET = 60.0


@dataclass(frozen=True)
class ScanRecord:
    """Classification row for one (graph, base-vertex-orbit)."""

    graph6: str
    n: int
    base: int
    orbit_size: int
    dims: tuple[Optional[int], ...]
    eq_flags: tuple[Optional[bool], ...]
    types: Optional[tuple[Optional[WedderburnType], ...]]
    status: str

    def validate(self) -> None:
        known = [d for d in self.dims if d is not None]
        if any(a > b for a, b in zip(known, known[1:])):
            raise CertificationError("dims must be nondecreasing")
        for lvl in range(4):
            lo, hi = self.dims[lvl], self.dims[lvl + 1]
            if lo is not None and hi is not None and self.eq_flags[lvl] != (lo == hi):
                raise CertificationError("flags inconsistent with dims")


@dataclass
class ScanStats:
    graphs: int = 0
    skipped_disconnected: int = 0
    records: int = 0
    statuses: dict = field(default_factory=dict)


def classify_graph(
    graph: Graph,
    *,
    levels: Sequence[int] = (0, 1, 2, 3, 4),
    bases: Optional[Sequence[int]] = None,
    decompose: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = DEFAULT_TIME_BUDGET,
    graph6: Optional[str] = None,
) -> list[ScanRecord]:
    """Classification records, one per base-vertex orbit (or per given base).

    bases=None dedups base vertices by automorphism orbit; an explicit list
    skips the dedup.
    """
    if not graph.is_connected():
        raise ValueError("classification needs a connected graph")
    levels = sorted(set(levels))
    if any(l not in range(5) for l in levels):
        raise ValueError("levels must be within 0..4")
    g6 = graph6 if graph6 is not None else write_graph6(graph).decode("ascii")
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def remaining() -> Optional[float]:
        return None if deadline is None else max(deadline - time.monotonic(), 0.01)

    if bases is None:
        try:
            aut = automorphism_group(graph, node_budget=node_budget, time_budget=remaining())
        except BudgetExceededError:
            nones = (None,) * 5
            return [ScanRecord(g6, graph.n, 0, 0, nones, (None,) * 4, None, STATUS_BUDGET)]
        orbit_cells = vertex_orbits(aut).cells
        targets = [(cell[0], len(cell)) for cell in orbit_cells]
    else:
        targets = [(b, 1) for b in bases]
    targets.sort()

    records = []
    for base, orbit_size in targets:
        records.append(
            _classify_base(
                graph, base, orbit_size, g6, levels, decompose, node_budget, remaining()
            )
        )
    return records


def _classify_base(graph, base, orbit_size, g6, levels, decompose, node_budget, time_budget):
    report, algs = chain_with_algebras(
        graph, base, levels=levels, node_budget=node_budget, time_budget=time_budget
    )
    status = STATUS_BUDGET if any(report.dims[lvl] is None for lvl in levels) else STATUS_OK
    types: list[Optional[WedderburnType]] = [None] * 5
    if decompose and status == STATUS_OK:
        for lvl in levels:
            if lvl > 0 and report.equal_next[lvl - 1]:
                # certified containment and equal dims: the same span, so the same
                # normal-form rows and the same seeded type (or the same failure)
                types[lvl] = types[lvl - 1]
                continue
            try:
                types[lvl] = wedderburn_decompose(algs[lvl]).type
            except DecompositionError:
                status = STATUS_DECOMPOSE
    rec = ScanRecord(
        graph6=g6, n=graph.n, base=base, orbit_size=orbit_size,
        dims=report.dims, eq_flags=report.equal_next,
        types=tuple(types) if decompose else None, status=status,
    )
    rec.validate()
    return rec


def _matches_filter(rec: ScanRecord, filt: str) -> bool:
    if filt == "all":
        return True
    idx = {"t1-ne-t2": 1, "t2-ne-t3": 2, "t3-ne-t4": 3}[filt]
    return rec.eq_flags[idx] is False


def _scan_line(
    payload: tuple[int, bytes], *, decompose: bool, node_budget: int, time_budget: Optional[float]
) -> tuple[int, Optional[list[ScanRecord]]]:
    """Classify one corpus line; None marks a skipped disconnected graph."""
    lineno, line = payload
    try:
        graph = parse_graph6(line)
    except Graph6Error as exc:
        raise Graph6Error(f"line {lineno}: {exc}") from None
    if not graph.is_connected():
        return lineno, None
    records = classify_graph(
        graph, decompose=decompose, node_budget=node_budget, time_budget=time_budget,
        graph6=line.decode("ascii"),
    )
    return lineno, records


def scan_corpus(
    source,
    *,
    filter: str = "all",
    jobs: Optional[int] = None,
    decompose: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = DEFAULT_TIME_BUDGET,
    stats: Optional[ScanStats] = None,
) -> Iterator[ScanRecord]:
    """Stream classification records for a graph6 corpus.

    source is a path or an iterable of lines.  Output order is input order
    then base representative, independent of the worker count.  Disconnected
    graphs are skipped and counted in stats; a malformed line aborts the scan
    with a Graph6Error that names its line number.
    """
    if filter not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}")
    jobs = resolve_jobs(jobs)
    stats = stats if stats is not None else ScanStats()
    scan_line = functools.partial(
        _scan_line, decompose=decompose, node_budget=node_budget, time_budget=time_budget
    )

    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            entries = list(iter_graph6_lines(fh))
    else:
        entries = list(iter_graph6_lines(source))

    if jobs <= 1:
        yield from _emit_scan(map(scan_line, entries), filter, stats)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from _emit_scan(pool.map(scan_line, entries, chunksize=16), filter, stats)


def _emit_scan(results, filt, stats) -> Iterator[ScanRecord]:
    for _, records in results:
        stats.graphs += 1
        if records is None:
            stats.skipped_disconnected += 1
            continue
        for rec in records:
            stats.statuses[rec.status] = stats.statuses.get(rec.status, 0) + 1
            if _matches_filter(rec, filt):
                stats.records += 1
                yield rec


def resolve_jobs(jobs: Optional[int]) -> int:
    """--jobs flag, else TERW_JOBS, else the logical CPU count."""
    if jobs is not None:
        return max(1, jobs)
    env = os.environ.get("TERW_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

_CSV_FIELDS = (
    ["graph6", "n", "base", "orbit_size"]
    + [f"d{i}" for i in range(5)]
    + [f"t{i}_eq_t{i + 1}" for i in range(4)]
    + [f"type{i}" for i in range(5)]
    + ["status"]
)


def _record_json(rec: ScanRecord) -> dict:
    out = {
        "graph6": rec.graph6,
        "n": rec.n,
        "base": rec.base,
        "orbit_size": rec.orbit_size,
        "dims": list(rec.dims),
        "eq_flags": list(rec.eq_flags),
        "types": None if rec.types is None else [t.render() if t else None for t in rec.types],
        "status": rec.status,
    }
    return out


def _types_cell(rec: ScanRecord) -> str:
    if rec.types is None:
        return ""
    parts = [f"T{i}={t.render()}" for i, t in enumerate(rec.types) if t is not None]
    return " ".join(parts)


def emit_report(records: Iterable[ScanRecord], format: str = "jsonl") -> bytes:
    """Render records as jsonl (canonical), csv, or an aligned table."""
    records = list(records)
    if format == "jsonl":
        return b"".join(
            json.dumps(_record_json(r), separators=(",", ":")).encode() + b"\n" for r in records
        )
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_CSV_FIELDS)
        for r in records:
            row = [r.graph6, r.n, r.base, r.orbit_size]
            row += ["" if d is None else d for d in r.dims]
            row += ["" if f is None else int(f) for f in r.eq_flags]
            if r.types is None:
                row += [""] * 5
            else:
                row += ["" if t is None else t.render() for t in r.types]
            row.append(r.status)
            w.writerow(row)
        return buf.getvalue().encode()
    if format == "table":
        headers = ["graph6", "n", "base", "orbit", "d0", "d1", "d2", "d3", "d4", "flags", "types", "status"]
        rows = []
        for r in records:
            flags = "".join("." if f is None else ("=" if f else "<") for f in r.eq_flags)
            rows.append(
                [r.graph6, str(r.n), str(r.base), str(r.orbit_size)]
                + ["" if d is None else str(d) for d in r.dims]
                + [flags, _types_cell(r), r.status]
            )
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("format must be jsonl, csv, or table")
