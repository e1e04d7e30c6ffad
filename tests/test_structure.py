import itertools
import json
import pathlib
import random

import numpy as np
import pytest

from oracles import (
    block_of_idempotent,
    commutator_center,
    exact_wedderburn_type,
    is_thin,
    sympy_center_dim,
)
from terw.errors import DecompositionError
from terw.graphs import gen_cycle, gen_delta, gen_paley, gen_path, gen_star
from terw.groups import paley_stabilizer_generators
from terw.algebras import build_T, chain_with_algebras, idempotent_for_set
from terw.linalg import RowSpace, SpanBasis, algebra_closure, center_basis
from terw.structure import WedderburnType, wedderburn_decompose


def E(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


def _rotation(k):
    return np.roll(np.eye(k, dtype=np.int64), 1, axis=1)


def _block_diag(a, b):
    m = np.zeros((len(a) + len(b),) * 2, dtype=np.int64)
    m[: len(a), : len(a)] = a
    m[len(a) :, len(a) :] = b
    return m


def _regular_s3(which):
    """Left-regular permutation matrix of (0 1) (which=0) or (0 1 2) (which=1)."""
    elems = list(itertools.permutations(range(3)))
    g = [(1, 0, 2), (1, 2, 0)][which]
    m = np.zeros((6, 6), dtype=np.int64)
    for i, h in enumerate(elems):
        m[elems.index(tuple(g[x] for x in h)), i] = 1
    return m


class TestWedderburnType:
    def test_render(self):
        t = WedderburnType.from_pairs([(1, 1), (3, 1), (1, 1)])
        assert t.render() == "M3+C+C"
        assert t.blocks == ((3, 1), (1, 1), (1, 1))

    def test_invariant_helpers(self):
        t = WedderburnType.from_pairs([(4, 1), (2, 1)])
        assert t.algebra_dim() == 20
        assert t.standard_dim() == 6
        assert t.block_sizes() == (4, 2)


class TestDecompose:
    def test_full_matrix_algebra_m2(self):
        alg = algebra_closure([E(2, 0, 1), E(2, 1, 0)])
        assert alg.dim == 4
        dec = wedderburn_decompose(alg)
        assert dec.type.blocks == ((2, 1),)

    def test_c6_level4(self):
        dec = wedderburn_decompose(build_T(4, gen_cycle(6), 0))
        assert dec.type.blocks == ((4, 1), (2, 1))
        assert dec.type.render() == "M4+M2"

    def test_delta5_level2(self):
        dec = wedderburn_decompose(build_T(2, gen_delta(5), 4))
        assert dec.type.render() == "M3+C+C"

    def test_paley13_level4(self):
        g, pc = gen_paley(13)
        t4 = build_T(4, g, 0, stab=paley_stabilizer_generators(pc))
        dec = wedderburn_decompose(t4)
        assert dec.type.blocks == ((3, 1),) + ((2, 1),) * 5

    def test_commutative_blocks_all_size_one(self):
        for g in [gen_path(6), gen_cycle(7), gen_star(5)]:
            t0 = build_T(0, g, 0)
            dec = wedderburn_decompose(t0)
            assert all(s == 1 for s, _ in dec.type.blocks)
            assert dec.type.num_blocks == t0.dim

    @pytest.mark.parametrize("k", range(3, 9))
    def test_cyclic_rotation_algebra(self, k):
        # regular representation of C_k: k 1-dim blocks whose central
        # idempotents come in up to three complex-conjugate pairs, which a
        # split on the symmetric part of the central element alone merges
        dec = wedderburn_decompose(algebra_closure([_rotation(k)]))
        assert dec.type.blocks == ((1, 1),) * k

    def test_rejects_span_not_closed_under_transpose(self):
        # I and a nilpotent N span an algebra that is not semisimple, yet
        # z + z^T has two eigenvalues; only the exact transpose check stops
        # it from passing as C+C
        alg = algebra_closure([[[1, 1], [0, 1]]])
        assert alg.dim == 2
        with pytest.raises(ValueError, match="transpose"):
            wedderburn_decompose(alg)

    def test_algebra_basis_skips_the_transpose_reduction(self, monkeypatch):
        # every level is transpose-closed by construction, so only a bare
        # SpanBasis is reduced against its own transpose
        g, pc = gen_paley(13)
        stab = paley_stabilizer_generators(pc)
        reduce_block = RowSpace.reduce_block
        transposed = []

        def spy(self, block):
            if isinstance(self, SpanBasis) and np.shape(block) == self.rows.shape:
                flip = np.arange(self.width).reshape(self.side, self.side).T.reshape(-1)
                transposed.append(np.array_equal(block, self.rows[:, flip]))
            return reduce_block(self, block)

        monkeypatch.setattr(RowSpace, "reduce_block", spy)
        for level in range(5):
            alg = build_T(level, g, 0, stab=stab)
            transposed.clear()
            wedderburn_decompose(alg)
            assert not any(transposed), level
            wedderburn_decompose(alg.basis)
            assert any(transposed), level

    def test_seed_invariance(self):
        alg = build_T(3, gen_delta(5), 4)
        assert wedderburn_decompose(alg, seed=0).type == wedderburn_decompose(alg, seed=1).type

    def test_seed_of_successful_retry_recorded(self, monkeypatch):
        from terw import structure

        cluster = structure._clusters
        calls = []

        def fail_once(values, count):
            calls.append(count)
            return None if len(calls) == 1 else cluster(values, count)

        monkeypatch.setattr(structure, "_clusters", fail_once)
        dec = wedderburn_decompose(build_T(2, gen_delta(5), 4), seed=0)
        assert len(calls) == 2
        assert dec.seed == 7919
        assert dec.type.render() == "M3+C+C"

    def test_non_square_trace_retries_with_next_seed(self, monkeypatch):
        from terw import structure

        traces = structure._block_traces
        calls = []

        def off_once(frame, evecs, clusters):
            calls.append(1)
            out = traces(frame, evecs, clusters)
            return [out[0] + 0.5] + out[1:] if len(calls) == 1 else out

        monkeypatch.setattr(structure, "_block_traces", off_once)
        dec = wedderburn_decompose(build_T(2, gen_delta(5), 4), seed=0)
        assert len(calls) == 2
        assert dec.seed == 7919
        assert dec.type.render() == "M3+C+C"

    def test_non_square_trace_every_attempt_raises(self, monkeypatch):
        from terw import structure

        monkeypatch.setattr(structure, "_block_traces", lambda f, v, clusters: [2.0] * len(clusters))
        with pytest.raises(DecompositionError, match="block trace 2 is not within"):
            wedderburn_decompose(build_T(2, gen_delta(5), 4))

    def test_paley29_level4_formula(self):
        # T4 of Paley(p) at a base vertex is M3 + ((p-3)/2) x M2, dim 2p + 3
        g, pc = gen_paley(29)
        t4 = build_T(4, g, 0, stab=paley_stabilizer_generators(pc))
        assert t4.dim == 2 * 29 + 3
        assert wedderburn_decompose(t4).type.blocks == ((3, 1),) + ((2, 1),) * 13

    def test_transposed_basis_same_type(self):
        alg = build_T(2, gen_delta(6), 5)
        flipped = SpanBasis(alg.n)
        for m in alg.basis.matrices():
            flipped.insert(m.T.copy())
        assert wedderburn_decompose(alg).type == wedderburn_decompose(flipped).type

    def test_star_types(self):
        assert wedderburn_decompose(build_T(1, gen_star(7), 0)).type.render() == "M2+C"
        assert wedderburn_decompose(build_T(1, gen_star(7), 1)).type.render() == "M3+C"


class TestExactOracle:
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_kite_apex_all_levels(self, level):
        alg = build_T(level, gen_delta(5), 4)
        dec = wedderburn_decompose(alg)
        oracle = exact_wedderburn_type(
            alg.basis.matrices(), commutator_center(alg.basis).matrices()
        )
        assert dec.type.blocks == oracle

    def test_corpus6_sample_all_levels(self, corpus):
        for g in random.Random(0).sample(corpus[6], 20):
            for level in range(5):
                alg = build_T(level, g, 0)
                oracle = exact_wedderburn_type(
                    alg.basis.matrices(), commutator_center(alg.basis).matrices()
                )
                assert wedderburn_decompose(alg).type.blocks == oracle

    def test_cyclic_algebra_oracle(self):
        p = np.zeros((3, 3), dtype=np.int64)
        p[0, 1] = p[1, 2] = p[2, 0] = 1
        alg = algebra_closure([p])
        oracle = exact_wedderburn_type(alg.matrices(), commutator_center(alg).matrices())
        assert oracle == ((1, 1),) * 3

    @pytest.mark.parametrize(
        "gens, blocks",
        [
            # C3 on two regular orbits: complex central idempotents, multiplicity 2
            ([_block_diag(_rotation(3), _rotation(3))], ((1, 2),) * 3),
            # regular representation of S3 from a transposition and a 3-cycle
            ([_regular_s3(0), _regular_s3(1)], ((2, 2), (1, 1), (1, 1))),
        ],
    )
    def test_multiplicities_match_oracle(self, gens, blocks):
        alg = algebra_closure(gens)
        oracle = exact_wedderburn_type(alg.matrices(), commutator_center(alg).matrices())
        assert oracle == blocks
        assert wedderburn_decompose(alg).type.blocks == blocks

    def test_center_dim_matches_sympy(self):
        for g, b in [(gen_path(4), 1), (gen_cycle(5), 0), (gen_star(5), 1)]:
            for lvl in (1, 2, 4):
                alg = build_T(lvl, g, b)
                want = sympy_center_dim(alg.basis.matrices())
                assert center_basis(alg.basis).dim == want
                assert center_basis(alg.basis, alg.generator_matrices).dim == want


def test_block_traces_far_inside_tolerance(corpus, monkeypatch):
    # the split's margin: every tr(P_i M) lies within 1e-9 of s_i^2, relative,
    # at least 1000 times inside _TRACE_TOL
    from terw import structure

    traces = structure._block_traces
    seen = []

    def record(frame, evecs, clusters):
        out = traces(frame, evecs, clusters)
        seen.extend(out)
        return out

    monkeypatch.setattr(structure, "_block_traces", record)
    algs = [build_T(level, g, 0) for g in random.Random(0).sample(corpus[6], 20) for level in range(5)]
    for q in (13, 29):
        g, pc = gen_paley(q)
        algs += [build_T(level, g, 0, stab=paley_stabilizer_generators(pc)) for level in range(5)]
    blocks = sum(wedderburn_decompose(alg).type.num_blocks for alg in algs)
    assert len(seen) == blocks
    worst = max(abs(t - round(t**0.5) ** 2) / round(t**0.5) ** 2 for t in seen)
    assert worst <= 1e-9
    assert structure._TRACE_TOL >= 1e-6


class TestBlockOfIdempotent:
    def test_base_idempotent_lands_in_largest_block(self):
        t2 = build_T(2, gen_delta(5), 4)
        dec = wedderburn_decompose(t2)
        hits = block_of_idempotent(dec, t2, idempotent_for_set(5, [4]))
        assert hits == (0,)
        assert dec.type.blocks[0] == (3, 1)

    def test_identity_hits_all_blocks(self):
        t2 = build_T(2, gen_delta(5), 4)
        dec = wedderburn_decompose(t2)
        assert block_of_idempotent(dec, t2, np.eye(5, dtype=np.int64)) == (0, 1, 2)

    def test_c6_base_idempotent_in_principal_block(self):
        t1 = build_T(1, gen_cycle(6), 0)
        dec = wedderburn_decompose(t1)
        hits = block_of_idempotent(dec, t1, idempotent_for_set(6, [0]))
        assert len(hits) == 1
        assert dec.type.blocks[hits[0]][0] == 4  # eccentricity + 1

    def test_rejects_non_idempotent(self):
        t2 = build_T(2, gen_delta(5), 4)
        dec = wedderburn_decompose(t2)
        with pytest.raises(ValueError):
            block_of_idempotent(dec, t2, gen_delta(5).adjacency_matrix())

    def test_rejects_non_member(self):
        t0 = build_T(0, gen_delta(5), 4)
        dec = wedderburn_decompose(t0)
        with pytest.raises(ValueError):
            block_of_idempotent(dec, t0, idempotent_for_set(5, [0]))


class TestThinness:
    def test_strongly_regular_is_thin(self):
        g, _ = gen_paley(13)
        assert is_thin(build_T(2, g, 0)) is True

    def test_triangle_thin(self):
        assert is_thin(build_T(2, gen_cycle(3), 0)) is True

    def test_c8_thin(self):
        assert is_thin(build_T(2, gen_cycle(8), 0)) is True

    def test_needs_level2(self):
        with pytest.raises(ValueError):
            is_thin(build_T(1, gen_cycle(5), 0))


def test_invariants_enforced_on_failure():
    # a span that is not an algebra must be rejected, not silently decomposed
    b = SpanBasis(3)
    b.insert(np.eye(3, dtype=np.int64))
    b.insert(E(3, 0, 1) + E(3, 1, 2))
    with pytest.raises((DecompositionError, ValueError)):
        wedderburn_decompose(b)


@pytest.mark.parametrize("q", [13, 29, 61, 81])
def test_paley_table_matches_bench_reference(q):
    """Levels 0-4 of Paley(q) at base 0, built and split as the benchmark's
    paley-ladder does, against its reference table (read only); levels 0-3
    built from scratch with the analytic group equal the chain's."""
    table = pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference" / "paley.json"
    want = json.loads(table.read_text())[str(q)]
    graph, pc = gen_paley(*{81: (3, 4)}.get(q, (q,)))
    stab = paley_stabilizer_generators(pc)
    algs = [build_T(level, graph, 0, stab=stab) for level in range(5)]
    assert [alg.dim for alg in algs] == [row["dim"] for row in want]
    _, chain = chain_with_algebras(graph, 0, stab=stab)
    for alg, link in zip(algs[:4], chain):
        assert alg.basis.pivots == link.basis.pivots, alg.level
        assert alg.basis.rows.dtype == link.basis.rows.dtype, alg.level
        assert np.array_equal(alg.basis.rows, link.basis.rows), alg.level
    for seed in (0, 1, 7):
        got = [[list(b) for b in wedderburn_decompose(alg, seed=seed).type.blocks] for alg in algs]
        assert got == [row["blocks"] for row in want], seed


def test_cell_frame_matches_the_qr_frame():
    # T4's disjoint cells, scaled, are an orthonormal basis; the same span
    # without its cells takes the QR route, and both split the same way
    graph, pc = gen_paley(13)
    t4 = build_T(4, graph, 0, stab=paley_stabilizer_generators(pc))
    plain = SpanBasis(13)
    plain.rows, plain._piv = t4.basis.rows, t4.basis._piv
    for seed in (0, 1, 7):
        assert wedderburn_decompose(t4, seed=seed).type == wedderburn_decompose(plain, seed=seed).type
