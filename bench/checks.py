"""Reference outputs and the checks that count failed graphs and algebras.

Scan output is compared line for line with the committed canonical JSONL:
for every graph of a pass, the records emitted for it must be byte-equal
to the reference records of that graph6 line, and have status ``ok``.
Paley algebras are compared with the committed table and with the closed
formulas of the acceptance suite (tests/test_acceptance.py, criteria 6
and 7).
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"

# T2 = T3 dims of Paley graphs on prime fields, base vertex 0
PRIME_T2_DIMS = {5: 13, 13: 21, 17: 25, 29: 37, 37: 41, 41: 49, 53: 61, 61: 65}
# (T4, T2) dims of Paley graphs on prime-power fields, keyed by (p, a)
PRIME_POWER_DIMS = {(3, 2): (15, 15), (5, 2): (33, 25), (7, 2): (59, 35), (3, 4): (51, 33)}


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with p prime and p**a == q."""
    for p in range(2, q + 1):
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, a
    raise ValueError("not a prime power")


def load_scan_reference(name: str) -> dict[str, list[bytes]]:
    """graph6 -> its reference JSONL lines, in emitted order."""
    out: dict[str, list[bytes]] = defaultdict(list)
    for line in (REFERENCE / name).read_bytes().splitlines():
        out[json.loads(line)["graph6"]].append(line)
    return dict(out)


def load_paley_reference() -> dict[int, list[tuple[int, tuple]]]:
    """q -> per level (dim, Wedderburn blocks as (size, multiplicity) pairs)."""
    table = json.loads((REFERENCE / "paley.json").read_text())
    return {
        int(q): [(row["dim"], tuple(map(tuple, row["blocks"]))) for row in rows]
        for q, rows in table.items()
    }


def check_scan(jsonl: bytes, graphs, reference) -> tuple[int, list[str]]:
    """(attempted, failed graph6 lines) for the scan output of a pass.

    A graph fails when its records differ from the reference, any of them
    has a status other than ok, or it is missing; a graph that was not
    asked for but appears in the output counts as a failure too.
    """
    got: dict[str, list[bytes]] = defaultdict(list)
    for line in jsonl.splitlines():
        got[json.loads(line)["graph6"]].append(line)
    failed = []
    for g6 in graphs:
        lines = got.pop(g6, None)
        if lines is None or lines != reference.get(g6):
            failed.append(g6)
        elif any(json.loads(line)["status"] != "ok" for line in lines):
            failed.append(g6)
    failed.extend(got)
    return len(graphs), failed


def formula_errors(q: int, p: int, a: int, level: int, dim: int, blocks) -> list[str]:
    """Mismatches against the acceptance suite's closed Paley formulas."""
    errs = []
    if a == 1:
        if level == 1 and (dim, tuple(b[0] for b in blocks)) != (11, (3, 1, 1)):
            errs.append(f"T1 of Paley({q}) is {dim} {blocks}, want 11 M3+C+C")
        if level == 4:
            want = ((3, 1),) + ((2, 1),) * ((p - 3) // 2)
            if dim != 2 * p + 3 or blocks != want:
                errs.append(f"T4 of Paley({q}) is {dim}, want 2p+3 = {2 * p + 3}")
        if level in (2, 3) and p in PRIME_T2_DIMS and dim != PRIME_T2_DIMS[p]:
            errs.append(f"T{level} of Paley({q}) is {dim}, want {PRIME_T2_DIMS[p]}")
    elif (p, a) in PRIME_POWER_DIMS:
        d4, d2 = PRIME_POWER_DIMS[(p, a)]
        want = {4: d4, 2: d2}.get(level)
        if want is not None and dim != want:
            errs.append(f"T{level} of Paley({q}) is {dim}, want {want}")
    return errs


def check_paley(results, reference) -> tuple[int, list[str]]:
    """(attempted, failures) for [(q, level, dim, blocks or None on error)]."""
    failed = []
    for q, level, dim, blocks in results:
        if blocks is None:
            failed.append(f"Paley({q}) T{level} raised")
            continue
        errs = formula_errors(q, *prime_power(q), level, dim, blocks)
        if (dim, blocks) != reference[q][level]:
            errs.append(f"Paley({q}) T{level} is {dim} {blocks}, reference {reference[q][level]}")
        if errs:
            failed.append("; ".join(errs))
    return len(results), failed
