"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected values are the
published dimension and decomposition formulas for paths, stars, cycles,
Paley graphs, and the kite-with-tail family, plus exhaustive small-graph
scans; every timing budget is asserted.
"""

import json
import math
import pathlib
import time

from oracles import (
    brute_automorphisms,
    commutator_center,
    exact_wedderburn_type,
    find_isomorphism,
    group_order,
    is_strongly_regular,
    spectrum_summary,
)
from test_algebras import kite_apex_span_matrices
from terw.graphs import (
    gen_cycle,
    gen_delta,
    gen_paley,
    gen_path,
    gen_star,
    parse_graph6,
)
from terw.groups import automorphism_group, orbitals, paley_stabilizer_generators, stabilizer
from terw.algebras import build_T, chain_with_algebras, corner, is_commutative
from terw.linalg import SpanBasis
from terw.pipeline import emit_report, scan_corpus
from terw.structure import wedderburn_decompose


def _report(number: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_path_level1_dimensions():
    t0 = time.monotonic()
    for n in range(2, 13):
        path = gen_path(n)
        for m in range(1, n + 1):
            t = (n * math.gcd(m, n + 1)) // (n + 1)
            assert build_T(1, path, m - 1).dim == (n - t) ** 2 + t, (n, m)
    _report(1, "path level-1 dimension formula", t0, 5.0)


def test_criterion_02_central_path():
    t0 = time.monotonic()
    for m in range(2, 9):
        n = 2 * m - 1
        path = gen_path(n)
        base = m - 1
        dims = [build_T(lvl, path, base).dim for lvl in (2, 3, 4)]
        want = 2 * m * m - 2 * m + 1  # equals (n^2+1)/2
        assert dims == [want] * 3, (m, dims)
        dec = wedderburn_decompose(build_T(2, path, base))
        assert dec.type.block_sizes() == (m, m - 1)
        dec4 = wedderburn_decompose(build_T(4, path, base))
        assert dec4.type.block_sizes() == (m, m - 1)
    _report(2, "central-base odd path", t0, 10.0)


def test_criterion_03_off_center_path_full_algebra():
    t0 = time.monotonic()
    for n in range(2, 11):
        path = gen_path(n)
        for m in range(1, n + 1):
            if 2 * m - 1 >= n:
                continue
            dims = [build_T(lvl, path, m - 1).dim for lvl in (2, 3, 4)]
            assert dims == [n * n] * 3, (n, m, dims)
    _report(3, "off-center path gives the full matrix algebra", t0, 5.0)


def test_criterion_04_stars():
    t0 = time.monotonic()
    for n in range(4, 13):
        star = gen_star(n)
        dims_center = [build_T(lvl, star, 0).dim for lvl in (1, 2, 3, 4)]
        assert dims_center == [5, 5, 5, 5], (n, dims_center)
        assert wedderburn_decompose(build_T(1, star, 0)).type.render() == "M2+C"
        dims_leaf = [build_T(lvl, star, 1).dim for lvl in (1, 2, 3, 4)]
        assert dims_leaf == [10, 10, 10, 10], (n, dims_leaf)
        assert wedderburn_decompose(build_T(1, star, 1)).type.render() == "M3+C"
    _report(4, "stars at the center and at a leaf", t0, 5.0)


def test_criterion_05_cycles():
    t0 = time.monotonic()
    for n in range(3, 15):
        cyc = gen_cycle(n)
        d = n // 2
        dims = [build_T(lvl, cyc, 0).dim for lvl in (2, 3, 4)]
        sizes = (d + 1, d - 1) if n % 2 == 0 else (d + 1, d)
        want = sizes[0] ** 2 + sizes[1] ** 2
        assert dims == [want] * 3, (n, dims)
        dec2 = wedderburn_decompose(build_T(2, cyc, 0))
        assert dec2.type.block_sizes() == sizes, (n, dec2.type)
        dec1 = wedderburn_decompose(build_T(1, cyc, 0))
        t = d - 1 if n % 2 == 0 else d
        assert dec1.type.block_sizes() == (d + 1,) + (1,) * t, (n, dec1.type)
    _report(5, "cycles: chain collapse and both decompositions", t0, 30.0)


PRIME_T2_DIMS = {5: 13, 13: 21, 17: 25, 29: 37, 37: 41, 41: 49, 53: 61, 61: 65}


def test_criterion_06_paley_primes():
    t0 = time.monotonic()
    for p in (5, 13, 17, 29, 37, 41, 53, 61):
        graph, pc = gen_paley(p)
        stab_group = paley_stabilizer_generators(pc)
        t1 = build_T(1, graph, 0, stab=stab_group)
        assert t1.dim == 11
        assert wedderburn_decompose(t1).type.render() == "M3+C+C"
        t4 = build_T(4, graph, 0, stab=stab_group)
        assert t4.dim == 2 * p + 3
        dec4 = wedderburn_decompose(t4)
        assert dec4.type.blocks == ((3, 1),) + ((2, 1),) * ((p - 3) // 2)
        t2 = build_T(2, graph, 0, stab=stab_group)
        t3 = build_T(3, graph, 0, stab=stab_group)
        assert t2.dim == t3.dim == PRIME_T2_DIMS[p], (p, t2.dim, t3.dim)
        if p >= 7:
            assert t1.dim < t2.dim < t4.dim  # strict chain
        if p == 13:
            for m in t1.basis.matrices():
                assert t2.contains(m)
            for m in t3.basis.matrices():
                assert t4.contains(m)
    _report(6, "Paley graphs on prime fields", t0, 180.0)


def test_criterion_07_paley_prime_powers():
    t0 = time.monotonic()
    table = {(3, 2): (15, 15), (5, 2): (33, 25), (7, 2): (59, 35), (3, 4): (51, 33)}
    for (p, a), (d4, d2) in table.items():
        graph, pc = gen_paley(p, a)
        stab_group = paley_stabilizer_generators(pc)
        assert build_T(4, graph, 0, stab=stab_group).dim == d4, (p, a)
        assert build_T(2, graph, 0, stab=stab_group).dim == d2, (p, a)
    _report(7, "Paley graphs on prime-power fields", t0, 300.0)


def test_criterion_08_kite_with_tail_family():
    t0 = time.monotonic()
    d5 = gen_delta(5)
    t2 = build_T(2, d5, 4)
    t3 = build_T(3, d5, 4)
    assert (t2.dim, t3.dim) == (11, 13)
    assert wedderburn_decompose(t2).type.render() == "M3+C+C"
    assert wedderburn_decompose(t3).type.render() == "M3+M2"

    mats = kite_apex_span_matrices()
    fix2, fix3 = SpanBasis(5), SpanBasis(5)
    for m in mats[:11]:
        fix2.insert(m)
    for m in mats:
        fix3.insert(m)
    assert fix2.dim == 11 and all(t2.contains(m) for m in mats[:11])
    assert all(fix2.contains(m) for m in t2.basis.matrices())
    assert fix3.dim == 13 and all(t3.contains(m) for m in mats)
    assert all(fix3.contains(m) for m in t3.basis.matrices())

    for n in range(5, 11):
        g = gen_delta(n)
        rep, algs = chain_with_algebras(g, n - 1)
        assert rep.dims[1] == rep.dims[2] == n * n - 4 * n + 6, (n, rep.dims)
        assert rep.dims[3] == rep.dims[4] == n * n - 4 * n + 8, (n, rep.dims)
        assert rep.equal_next == (False, True, False, True)
        assert wedderburn_decompose(algs[2]).type.block_sizes() == (n - 2, 1, 1)
        assert wedderburn_decompose(algs[4]).type.block_sizes() == (n - 2, 2)
    _report(8, "kite-with-tail family", t0, 60.0)


def test_criterion_09_srg_corner_bounds():
    t0 = time.monotonic()
    cases = [(5, 1), (13, 1), (17, 1), (29, 1), (37, 1), (41, 1), (53, 1), (61, 1),
             (3, 2), (5, 2), (7, 2), (3, 4)]
    for p, a in cases:
        graph, pc = gen_paley(p, a)
        assert is_strongly_regular(graph) is not None
        t2 = build_T(2, graph, 0, stab=paley_stabilizer_generators(pc))
        assert t2.dim <= 2 * graph.n + 3
        assert t2.dim <= graph.n + 8  # sharper bound specific to this family
        for cell in t2.cells[1:]:
            assert is_commutative(corner(t2, cell))
    _report(9, "strongly regular corner commutativity and dimension bound", t0, 300.0)


def test_criterion_10_exhaustive_scan(corpus_file_n7):
    t0 = time.monotonic()
    out1 = emit_report(scan_corpus(corpus_file_n7, filter="all", jobs=1), "jsonl")
    out8 = emit_report(scan_corpus(corpus_file_n7, filter="all", jobs=8), "jsonl")
    assert out1 == out8, "scan output must not depend on the worker count"
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference" / "scan_n7.jsonl"
    assert out1 == reference.read_bytes(), "scan output must match the committed n <= 7 reference"

    rows = [json.loads(line) for line in out1.splitlines()]
    assert all(r["status"] == "ok" for r in rows)
    t3_ne_t4 = [r for r in rows if r["eq_flags"][3] is False]
    assert t3_ne_t4 == [], "no witnesses for the level-3/4 gap up to 7 vertices"

    witnesses = [r for r in rows if r["n"] == 5 and r["eq_flags"][2] is False]
    assert witnesses, "level-2/3 witnesses must exist at n=5"
    d5 = gen_delta(5)
    matched = []
    for rec in witnesses:
        graph = parse_graph6(rec["graph6"])
        iso = find_isomorphism(d5, graph)
        if iso is not None:
            matched.append((rec, iso))
    assert matched, "some witness must be isomorphic to the 5-vertex kite-with-apex graph"
    rec, iso = matched[0]
    assert rec["base"] == iso[4], "witness base must be the image of the apex-opposite label"
    assert rec["dims"][2] == 11 and rec["dims"][3] == 13
    _report(10, "exhaustive scan of all connected graphs up to 7 vertices", t0, 900.0)


def test_criterion_11_property_suites(corpus):
    t0 = time.monotonic()
    family_cases = (
        [(gen_path(n), 0) for n in (4, 7, 10)]
        + [(gen_path(9), 4), (gen_star(6), 0), (gen_star(6), 1), (gen_star(9), 1)]
        + [(gen_cycle(n), 0) for n in (5, 8, 11)]
        + [(gen_delta(n), n - 1) for n in (5, 6, 8)]
        + [(gen_paley(5)[0], 0), (gen_paley(13)[0], 0), (gen_paley(3, 2)[0], 0)]
    )
    corpus_cases = []
    for n in range(2, 7):
        for g in corpus[n]:
            aut = automorphism_group(g)
            from terw.groups import vertex_orbits

            for cell in vertex_orbits(aut).cells:
                corpus_cases.append((g, cell[0]))

    seen_dims = 0
    for g, base in corpus_cases + family_cases:
        rep, algs = chain_with_algebras(g, base)
        d = rep.dims
        assert all(a <= b for a, b in zip(d, d[1:]))
        assert d[4] <= g.n * g.n
        # exact spectral count drives the adjacency algebra dimension
        assert d[0] == spectrum_summary(g).distinct_count
        # centralizer dimension equals the orbital count
        st = stabilizer(g, base)
        assert d[4] == orbitals(st).count
        # full-algebra collapse happens exactly for trivial stabilizers
        trivial = group_order(st) == 1
        assert (d[3] == g.n**2) == trivial
        assert (d[4] == g.n**2) == trivial
        seen_dims += 1

    # Wedderburn invariants and seed invariance over the small corpus
    for n in range(2, 7):
        for g in corpus[n][:: 2 if n == 6 else 1]:
            for base in {0, g.n // 2}:
                for lvl in (0, 1, 2, 3, 4):
                    alg = build_T(lvl, g, base)
                    dec = wedderburn_decompose(alg, seed=0)
                    assert dec.type.algebra_dim() == alg.dim
                    assert dec.type.standard_dim() == g.n
                    assert dec.type.num_blocks == commutator_center(alg.basis).dim
                    assert wedderburn_decompose(alg, seed=1).type == dec.type

    # exact-arithmetic oracle agreement on the 5-vertex corpus
    for g in corpus[5]:
        for lvl in (0, 2, 4):
            alg = build_T(lvl, g, 0)
            dec = wedderburn_decompose(alg)
            oracle = exact_wedderburn_type(
                alg.basis.matrices(), commutator_center(alg.basis).matrices()
            )
            assert dec.type.blocks == oracle

    # search-based group orders match brute force through n = 7
    for n in range(2, 8):
        for g in corpus[n]:
            assert group_order(automorphism_group(g)) == len(brute_automorphisms(g))

    print(f"\n  property suite covered {seen_dims} (graph, base) chain reports")
    _report(11, "property suites over the small corpus and families", t0, 600.0)
