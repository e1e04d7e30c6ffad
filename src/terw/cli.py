"""Command-line interface.

Subcommands:
  compute    classify one graph (or every graph in a file) at chosen levels
  generate   emit a named family member as graph6
  scan       batch-classify a graph6 corpus with witness filtering
  decompose  print the Wedderburn type of one algebra

Exit codes: 0 success, 1 usage error, 2 input error, 3 budget exceeded.
The worker count for scans comes from --jobs, else TERW_JOBS, else the CPU
count.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .algebras import build_T
from .errors import BudgetExceededError, Graph6Error
from .graphs import (
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
    FILTERS, STATUS_BUDGET, ScanStats, classify_graph, emit_report, resolve_jobs, scan_corpus,
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


def _load_graphs(spec: str) -> list[tuple[str, Graph]]:
    """--graph argument: a literal graph6 value, or @file with one per line."""
    if not spec.startswith("@"):
        return [(spec, parse_graph6(spec))]
    out = []
    with open(spec[1:], "rb") as fh:
        for lineno, line in iter_graph6_lines(fh):
            try:
                graph = parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from None
            out.append((line.decode("ascii"), graph))
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
    s.add_argument("--jobs", type=int, default=None)
    s.add_argument("--out", default=None, help="output file (default stdout)")
    s.add_argument("--node-budget", type=int, default=None, help="stabilizer search node cap")
    s.add_argument("--time-budget", type=float, default=None, help="per-graph seconds cap")

    d = sub.add_parser("decompose", help="Wedderburn type of one algebra")
    d.add_argument("--graph", required=True, help="graph6 value")
    d.add_argument("--base", required=True, type=_parse_vertex, help="base vertex (0-based)")
    d.add_argument("--level", required=True, type=int, choices=range(5))
    return p


def _cmd_compute(args) -> int:
    records = []
    for g6, graph in _load_graphs(args.graph):
        bases = None if args.base is None else [args.base]
        records.extend(
            classify_graph(
                graph,
                levels=args.levels,
                bases=bases,
                decompose=args.decompose,
                graph6=g6,
            )
        )
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
    extra = {}
    if args.node_budget is not None:
        extra["node_budget"] = args.node_budget
    if args.time_budget is not None:
        extra["time_budget"] = args.time_budget
    records = scan_corpus(
        args.corpus, filter=args.filter, jobs=resolve_jobs(args.jobs), stats=stats, **extra
    )
    payload = emit_report(records, "jsonl")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
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
