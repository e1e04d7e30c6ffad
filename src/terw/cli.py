"""Command-line interface.

Subcommands:
  compute    classify one graph (or every graph in a file) at chosen levels
  generate   emit a named family member as graph6
  scan       batch-classify a graph6 corpus with witness filtering
  decompose  print the Wedderburn type of one algebra

Exit codes: 0 success, 1 usage error, 2 input error, 3 budget exceeded.
The worker count for scans comes from --jobs, else TERW_JOBS, else the CPU
count; a --jobs or TERW_JOBS that is not an integer > 0 is a usage error,
and so is a scan whose --out is its corpus file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from .algebras import build_T
from .errors import BudgetExceededError, Graph6Error
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    gen_cycle,
    gen_delta,
    gen_paley,
    gen_path,
    gen_star,
    iter_graph6_lines,
    parse_graph6,
    write_graph6,
)
from .pipeline import (
    DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET, FILTERS, STATUS_BUDGET, ScanStats, classify_graph,
    emit_report, resolve_jobs, scan_corpus,
)
from .structure import wedderburn_decompose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_levels(spec: str) -> list[int]:
    """--levels argument, e.g. '0-4' or '2,3'; a bad spec is a usage error."""
    out: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.update(range(int(lo), int(hi) + 1))
        elif part:
            out.add(int(part))
    if not out or any(l not in range(5) for l in out):
        raise argparse.ArgumentTypeError(f"bad level spec {spec!r}; expected levels within 0..4")
    return sorted(out)


def _parse_vertex(spec: str) -> int:
    """--base argument: a vertex index >= 0; anything else is a usage error."""
    if not spec.isdigit():
        raise argparse.ArgumentTypeError(f"bad base {spec!r}; expected a vertex index >= 0")
    return int(spec)


def _parse_base(spec: str) -> Optional[int]:
    """--base argument of compute: 'all' (None) or a vertex index >= 0."""
    return None if spec == "all" else _parse_vertex(spec)


def _positive(cast):
    """argparse type for a budget or a worker count: a cast value > 0;
    anything else is a usage error."""

    def parse(spec: str):
        try:
            value = cast(spec)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(f"bad value {spec!r}; expected {cast.__name__} > 0")
        return value

    return parse


def _load_graphs(spec: str) -> list[tuple[Optional[int], str, Graph]]:
    """--graph argument: a literal graph6 value, or @file with one per line.

    Each graph comes with its line number in the file (None for a literal).
    A bare '@' is the graph6 of the one-vertex graph, not a file.
    """
    if spec == "@" or not spec.startswith("@"):
        return [(None, spec.strip().removeprefix(GRAPH6_HEADER.decode()), parse_graph6(spec))]
    out = []
    with open(spec[1:], "rb") as fh:
        for lineno, line in iter_graph6_lines(fh):
            try:
                graph = parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from None
            out.append((lineno, line.decode("ascii"), graph))
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="terw", description="nested matrix algebras of a pointed graph")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="classify a graph")
    c.add_argument("--graph", required=True, help="graph6 value or @file")
    c.add_argument("--base", type=_parse_base, default="all",
                   help="base vertex (0-based) or 'all' for one per orbit")
    c.add_argument("--levels", type=_parse_levels, default="0-4", help="levels to build, e.g. 0-4 or 2,3")
    c.add_argument("--decompose", action="store_true", help="also report Wedderburn types")
    c.add_argument("--format", choices=("jsonl", "csv", "table"), default="table")

    g = sub.add_parser("generate", help="emit a family member as graph6")
    g.add_argument("family", choices=("path", "star", "cycle", "paley", "delta"))
    g.add_argument("params", nargs="+", type=int, help="n, or p [a] for paley")
    g.add_argument("--base", type=int, default=None,
                   help="1-based family label; prints its 0-based vertex index too")

    s = sub.add_parser("scan", help="classify every graph in a graph6 file")
    s.add_argument("corpus", help="graph6 file, one graph per line")
    s.add_argument("--filter", choices=FILTERS, default="all")
    s.add_argument("--jobs", type=_positive(int), default=None,
                   help="worker processes (default TERW_JOBS, else the CPU count)")
    s.add_argument("--out", default=None, help="output file, not the corpus (default stdout)")
    s.add_argument("--decompose", action="store_true", help="also report Wedderburn types")
    s.add_argument("--node-budget", type=_positive(int), default=DEFAULT_NODE_BUDGET,
                   help="node cap of each search (default %(default)s)")
    s.add_argument("--time-budget", type=_positive(float), default=DEFAULT_TIME_BUDGET,
                   help="per-graph seconds cap (default %(default)s)")

    d = sub.add_parser("decompose", help="Wedderburn type of one algebra")
    d.add_argument("--graph", required=True, help="graph6 value")
    d.add_argument("--base", required=True, type=_parse_vertex, help="base vertex (0-based)")
    d.add_argument("--level", required=True, type=int, choices=range(5))
    return p


def _cmd_compute(args) -> int:
    records = []
    bases = None if args.base is None else [args.base]
    for lineno, g6, graph in _load_graphs(args.graph):
        try:
            records.extend(
                classify_graph(graph, levels=args.levels, bases=bases, decompose=args.decompose, graph6=g6)
            )
        except ValueError as exc:
            if lineno is None:
                raise
            raise ValueError(f"line {lineno}: {exc}") from None
    sys.stdout.buffer.write(emit_report(records, args.format))
    if any(rec.status == STATUS_BUDGET for rec in records):
        return EXIT_BUDGET
    return EXIT_OK


_FAMILIES = {"path": gen_path, "star": gen_star, "cycle": gen_cycle, "delta": gen_delta}


def _cmd_generate(args) -> int:
    if args.family == "paley":
        if len(args.params) not in (1, 2):
            raise ValueError("paley takes p [a]")
        graph, _ = gen_paley(*args.params)
    else:
        if len(args.params) != 1:
            raise ValueError(f"{args.family} takes a single vertex count")
        graph = _FAMILIES[args.family](args.params[0])
    g6 = write_graph6(graph).decode("ascii")
    if args.base is not None:
        if not 1 <= args.base <= graph.n:
            raise ValueError(f"label {args.base} out of range 1..{graph.n}")
        print(f"{g6}\tbase={args.base - 1}")
    else:
        print(g6)
    return EXIT_OK


def _cmd_scan(args) -> int:
    stats = ScanStats()
    # the corpus is opened before --out is truncated, so a missing corpus leaves an old output
    with open(args.corpus, "rb") as corpus:
        records = scan_corpus(
            corpus, filter=args.filter, jobs=args.jobs, decompose=args.decompose,
            node_budget=args.node_budget, time_budget=args.time_budget, stats=stats,
        )
        # each record is written as the scan yields it, so a bad line or a crash
        # keeps the graphs already classified
        with open(args.out, "wb") if args.out else contextlib.nullcontext(sys.stdout.buffer) as out:
            for rec in records:
                out.write(emit_report([rec], "jsonl"))
                out.flush()
    print(
        f"scanned {stats.graphs} graphs, skipped {stats.skipped_disconnected} disconnected, "
        f"emitted {stats.records} records",
        file=sys.stderr,
    )
    if stats.statuses.get(STATUS_BUDGET):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_decompose(args) -> int:
    graph = parse_graph6(args.graph)
    alg = build_T(args.level, graph, args.base)
    dec = wedderburn_decompose(alg)
    blocks = " ".join(f"({n},{m})" for n, m in dec.type.blocks)
    print(f"dim={alg.dim} type={dec.type.render()} blocks={blocks}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "scan":
            try:
                args.jobs = resolve_jobs(args.jobs)
            except ValueError as exc:
                parser.error(str(exc))
            # a missing corpus is an input error below, a missing --out a new file
            with contextlib.suppress(OSError):
                if args.out and os.path.samefile(args.corpus, args.out):
                    parser.error("--out is the corpus file")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
    except BudgetExceededError as exc:
        print(f"terw: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Graph6Error, ValueError, OSError) as exc:
        print(f"terw: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
