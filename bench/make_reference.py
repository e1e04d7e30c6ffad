"""Regenerate the committed reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Writes, under bench/reference/:

  scan_n7.jsonl       canonical scan JSONL of every connected graph on at
                      most 7 vertices (filter "all", no decomposition)
  decompose_n6.jsonl  the same with decompose=True, for n <= 6
  paley.json          dims and Wedderburn types of levels 0-4 of the Paley
                      graphs of the ladder, base vertex 0
  n7_cost.json        per-graph scan time in ms of each 7-vertex graph, used
                      only to stratify the seeded sample (a cost rank, never
                      a correctness reference); written only when missing,
                      because it fixes which graphs each seed samples

Each graph is scanned on its own, which gives the same records as one scan
of the whole corpus because records depend only on their own graph.  The
n <= 7 part takes a few minutes at one worker.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpusgen import corpus_lines  # noqa: E402

from terw import build_T, emit_report, gen_paley, paley_stabilizer_generators, scan_corpus, wedderburn_decompose  # noqa: E402

import checks  # noqa: E402  (bench/ is on sys.path as the script directory)
import workloads  # noqa: E402


def scan_reference(lines, decompose):
    out, cost = [], {}
    for line in lines:
        t0 = time.perf_counter()
        out.append(emit_report(scan_corpus([line], jobs=1, decompose=decompose), "jsonl"))
        cost[line.decode()] = round((time.perf_counter() - t0) * 1000, 1)
    return b"".join(out), cost


def paley_reference():
    table = {}
    for q in workloads.PALEY_LADDER:
        p, a = checks.prime_power(q)
        graph, pc = gen_paley(p, a)
        stab = paley_stabilizer_generators(pc)
        rows = []
        for level in range(5):
            alg = build_T(level, graph, 0, stab=stab)
            wtype = wedderburn_decompose(alg).type
            rows.append({"dim": alg.dim, "type": wtype.render(), "blocks": wtype.blocks})
        table[str(q)] = rows
    return table


def main() -> None:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    table = paley_reference()
    (out / "paley.json").write_text(
        "{\n" + ",\n".join(f" {json.dumps(q)}: {json.dumps(rows)}" for q, rows in table.items()) + "\n}\n"
    )
    data, _ = scan_reference(corpus_lines(6), decompose=True)
    (out / "decompose_n6.jsonl").write_bytes(data)
    data, cost = scan_reference(corpus_lines(7), decompose=False)
    (out / "scan_n7.jsonl").write_bytes(data)
    if not (out / "n7_cost.json").exists():
        n7 = {g6: ms for g6, ms in cost.items() if g6[0] == chr(63 + 7)}
        (out / "n7_cost.json").write_text(json.dumps(n7, indent=0) + "\n")


if __name__ == "__main__":
    main()
