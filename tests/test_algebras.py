import os
import pathlib
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terw
from terw import algebras, groups
from terw.graphs import Graph, gen_cycle, gen_delta, gen_paley, gen_path, gen_star
from terw.groups import (
    OrbitPartition,
    Perm,
    PermGroup,
    automorphism_group,
    paley_stabilizer_generators,
    vertex_orbits,
)
from terw.algebras import build_T, chain_with_algebras, idempotent_for_set, witness
from terw.errors import BudgetExceededError, CertificationError
from terw.linalg import RowSpace, SpanBasis, algebra_closure, exact_matmul

from oracles import (
    cell_idempotents_certified,
    corner,
    is_commutative,
    is_multiplicatively_closed,
    level_from_identity,
    pendant_reduction_check,
    principal_row_dim,
    rowwise_closure,
)


def _mat(rows):
    return np.array(rows, dtype=np.int64)


def kite_apex_span_matrices():
    """Hand-built spanning matrices for the 5-vertex kite-with-apex graph.

    The first eleven span the distance-partition algebra at the apex's
    antipode (vertex label 5, index 4); all thirteen span the orbit
    algebra.  Indices here are 0-based translations of the 1-based labels.
    """
    z4 = np.zeros((4, 4), dtype=np.int64)

    def embed(block4, col=None, row=None, corner=0):
        m = np.zeros((5, 5), dtype=np.int64)
        m[:4, :4] = block4
        if col is not None:
            m[:4, 4] = col
        if row is not None:
            m[4, :4] = row
        m[4, 4] = corner
        return m

    b1 = embed(z4, corner=1)
    b2 = embed(z4, col=[1, 1, 1, 1])
    b3 = embed(z4, col=[0, 1, 1, 0])
    b4 = b2.T.copy()
    b5 = b3.T.copy()
    b6 = embed(np.eye(4, dtype=np.int64))
    b7 = embed(_mat([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]))
    b8 = embed(_mat([[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0]]))
    b9 = embed(_mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))
    b10 = embed(_mat([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]))
    b11 = embed(_mat([[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]]))
    b12 = embed(np.diag([0, 1, 1, 0]).astype(np.int64))
    b13 = embed(_mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]))
    return [b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13]


class TestIdempotents:
    def test_single_vertex(self):
        e = idempotent_for_set(4, [2])
        assert e[2, 2] == 1 and e.sum() == 1

    def test_full_set_is_identity(self):
        assert np.array_equal(idempotent_for_set(3, range(3)), np.eye(3))

    def test_delta5_first_shell(self):
        e = idempotent_for_set(5, [0, 1, 2, 3])
        assert np.array_equal(np.diag(e), [1, 1, 1, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            idempotent_for_set(3, [3])


class TestBuildT:
    def test_path5_adjacency_algebra(self):
        assert build_T(0, gen_path(5), 0).dim == 5

    def test_level0_ignores_base(self):
        dims = {build_T(0, gen_delta(5), b).dim for b in range(5)}
        assert len(dims) == 1

    def test_paley13_level1(self):
        g, _ = gen_paley(13)
        assert build_T(1, g, 0).dim == 11

    def test_delta5_levels_2_and_3(self):
        d5 = gen_delta(5)
        assert build_T(2, d5, 4).dim == 11
        assert build_T(3, d5, 4).dim == 13

    def test_paley13_level4(self):
        g, pc = gen_paley(13)
        assert build_T(4, g, 0, stab=paley_stabilizer_generators(pc)).dim == 29

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            build_T(0, Graph(3, [(0, 1)]), 0)

    def test_rejects_bad_level_and_base(self):
        with pytest.raises(ValueError):
            build_T(5, gen_path(3), 0)
        with pytest.raises(ValueError):
            build_T(0, gen_path(3), 7)


class TestKiteApexFixtures:
    def test_level2_span_equality(self):
        mats = kite_apex_span_matrices()
        t2 = build_T(2, gen_delta(5), 4)
        fixture = SpanBasis(5)
        for m in mats[:11]:
            fixture.insert(m)
        assert fixture.dim == 11 == t2.dim
        assert all(t2.contains(m) for m in mats[:11])
        assert all(fixture.contains(m) for m in t2.basis.matrices())

    def test_level3_span_equality(self):
        mats = kite_apex_span_matrices()
        t3 = build_T(3, gen_delta(5), 4)
        fixture = SpanBasis(5)
        for m in mats:
            fixture.insert(m)
        assert fixture.dim == 13 == t3.dim
        assert all(t3.contains(m) for m in mats)
        assert all(fixture.contains(m) for m in t3.basis.matrices())

    def test_diagonal_pair_matrix_outside_level2(self):
        mats = kite_apex_span_matrices()
        t2 = build_T(2, gen_delta(5), 4)
        assert not t2.contains(mats[11])  # twelfth spanning matrix
        assert not t2.contains(mats[12])


class TestChainReport:
    def test_delta5_chain(self):
        rep, algs = chain_with_algebras(gen_delta(5), 4)
        assert rep.dims == (5, 11, 11, 13, 13)
        assert rep.equal_next == (False, True, False, True)
        assert {lvl for lvl in range(4) if witness(algs[lvl], algs[lvl + 1]) is not None} == {0, 2}

    def test_paley13_chain(self):
        g, pc = gen_paley(13)
        rep, _ = chain_with_algebras(g, 0, stab=paley_stabilizer_generators(pc))
        assert rep.dims == (3, 11, 21, 21, 29)
        assert rep.equal_next == (False, False, True, False)

    def test_triangle_chain(self):
        rep, _ = chain_with_algebras(gen_cycle(3), 0)
        assert rep.dims == (2, 5, 5, 5, 5)
        assert rep.equal_next == (False, True, True, True)
        assert rep.dims[4] < 9

    def test_witness_outside_smaller_algebra(self):
        _, algs = chain_with_algebras(gen_delta(5), 4)
        w = witness(algs[2], algs[3])
        assert not algs[2].contains(w)
        assert algs[3].contains(w)

    def test_witness_on_every_step_up_to_6(self, corpus):
        # None on an equal step; on a strict step the first basis row of the
        # larger algebra with a nonzero residue against the smaller one
        for n in range(1, 7):
            for g in corpus[n]:
                for base in _orbit_representatives(g):
                    rep, algs = chain_with_algebras(g, base)
                    for lvl, equal in enumerate(rep.equal_next):
                        w, small, big = witness(algs[lvl], algs[lvl + 1]), algs[lvl].basis, algs[lvl + 1].basis
                        if equal:
                            assert w is None, (n, base, lvl)
                            continue
                        first = int(np.argmax(np.any(small.reduce_block(big.rows), axis=1)))
                        assert w.tolist() == big.rows[first].reshape(n, n).tolist(), (n, base, lvl)
                        assert not small.contains(w) and big.contains(w)

    def test_stabilizer_searched_per_level_unless_given(self, monkeypatch):
        calls = []
        search = algebras.stabilizer

        def counted(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(algebras, "stabilizer", counted)
        rep, _ = chain_with_algebras(gen_delta(5), 4)
        assert calls == [4, 4]
        given = search(gen_delta(5), 4)
        assert chain_with_algebras(gen_delta(5), 4, stab=given)[0].dims == rep.dims
        assert calls == [4, 4]

    def test_level3_takes_level4_search(self, monkeypatch):
        # build_T asks for the stabilizer at levels 4 and 3; the memo searches once
        searches = []
        search = groups._run_search
        monkeypatch.setattr(groups, "_run_search", lambda *a: searches.append(a[0]) or search(*a))
        rep, _ = chain_with_algebras(gen_delta(5), 4)
        assert len(searches) == 1
        assert rep.dims == (5, 11, 11, 13, 13)

    def test_searches_share_one_deadline(self, monkeypatch):
        deadlines = []
        search = algebras.stabilizer

        def spy(*args, **kwargs):
            deadlines.append(kwargs["deadline"])
            return search(*args, **kwargs)

        monkeypatch.setattr(algebras, "stabilizer", spy)
        deadline = time.monotonic() + 60.0
        chain_with_algebras(gen_delta(5), 4, deadline=deadline)
        assert deadlines == [deadline, deadline]


def _orbit_representatives(graph):
    return [cell[0] for cell in vertex_orbits(automorphism_group(graph)).cells]


def _certificate_cases(corpus):
    """Every base-orbit representative of every connected graph with n <= 5,
    and of a fixed-seed sample of 20 graphs with n = 6."""
    graphs = [g for n in range(1, 6) for g in corpus[n]]
    graphs += random.Random(0).sample(corpus[6], 20)
    return [(g, base) for g in graphs for base in _orbit_representatives(g)]


class TestCertificatesAgainstElimination:
    """The partition certificates agree with the exact elimination checks."""

    def test_level4_closed_and_each_level_inside_the_next(self, corpus):
        for g, base in _certificate_cases(corpus):
            _, algs = chain_with_algebras(g, base)
            assert is_multiplicatively_closed(algs[4].basis), (g.n, base)
            for small, big in zip(algs, algs[1:]):
                assert all(big.contains(m) for m in small.basis.matrices()), (g.n, base, small.level)


def _random_connected_graph(n, rnd):
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rnd.random() < 0.3}
    return Graph(n, sorted(edges))


def _cells_of(labels):
    return tuple(tuple(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels))


def _perturbed(cells, n, rnd):
    """The cells as they are, with two merged, with one vertex split off, or
    a random partition."""
    labels = algebras._vertex_labels(n, cells)
    mode = rnd.randrange(4)
    if mode == 1:
        labels[labels == rnd.randrange(len(cells))] = rnd.randrange(len(cells))
    elif mode == 2:
        labels[rnd.randrange(n)] = len(cells)
    elif mode == 3:
        labels = np.array([rnd.randrange(n) for _ in range(n)])
    return _cells_of(labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_partition_certificate_matches_matrix_oracle(n, rnd):
    """The vertex-label certificates fail exactly when the idempotents fail
    the matrix oracle: level 3 on a perturbed stabilizer orbit partition,
    and cells with holes (as level 1's {x0}) against either partition."""
    graph, base = _random_connected_graph(n, rnd), rnd.randrange(n)
    t2, t4 = build_T(2, graph, base), build_T(4, graph, base)
    orbits = _perturbed(_cells_of(t4.cell_labels[:: n + 1]), n, rnd)
    if not cell_idempotents_certified(n, t2.cells, next_cells=orbits):
        expected = "a cell of the level below is not a union of this level's cells"
    elif not cell_idempotents_certified(n, orbits, orbital_labels=t4.cell_labels):
        expected = "a cell is not a union of stabilizer orbits"
    else:
        expected = None
    with mock.patch.object(algebras, "vertex_orbits", lambda group, base=None: OrbitPartition(orbits)):
        try:
            build_T(3, graph, base, below=t2, within=t4)
            raised = None
        except CertificationError as err:
            raised = str(err)
    assert raised == expected

    coarse = np.array([rnd.randrange(-1, 3) for _ in range(n)])
    if rnd.random() < 0.5:
        for cell in orbits:
            coarse[list(cell)] = coarse[cell[0]]
    holes = [tuple(np.flatnonzero(coarse == k).tolist()) for k in range(3) if (coarse == k).any()]
    for fine, oracle in [
        (algebras._vertex_labels(n, orbits), cell_idempotents_certified(n, holes, next_cells=orbits)),
        (t4.cell_labels[:: n + 1], cell_idempotents_certified(n, holes, orbital_labels=t4.cell_labels)),
    ]:
        assert algebras._constant_on_cells(algebras._vertex_labels(n, holes), fine) == oracle, (holes, fine)


def _assert_same_basis(basis, oracle, label):
    assert basis.pivots == oracle.pivots, label
    assert basis.rows.tolist() == [r.tolist() for r in oracle.rows], label


class TestClosureAgainstRowwiseOracle:
    """Layered block closure gives the row-at-a-time closure's basis, entry
    for entry, on levels 0-3."""

    @staticmethod
    def _check(graph, base, stab=None):
        for lvl in range(4):
            alg = build_T(lvl, graph, base, stab=stab)
            a = graph.adjacency_matrix()
            if lvl == 0:
                gens = [a]
            elif lvl == 1:
                gens = [a, idempotent_for_set(graph.n, [base])]
            else:
                gens = [a] + [idempotent_for_set(graph.n, c) for c in alg.cells]
            _assert_same_basis(alg.basis, rowwise_closure(gens), (graph.n, base, lvl))

    def test_small_graphs(self, corpus):
        for g, base in _certificate_cases(corpus):
            self._check(g, base)

    @pytest.mark.parametrize("q", [13, 29])
    def test_paley(self, q):
        g, pc = gen_paley(q)
        self._check(g, 0, stab=paley_stabilizer_generators(pc))

    def test_object_dtype_batch(self, monkeypatch):
        # entries past 2**30 keep the first layers' rows large, so their
        # products need Python integers; the closure is all of M4, whose
        # normal form (the matrix units) fits in int64 again
        big = 2**30 + np.random.default_rng(5).integers(0, 100, size=(4, 4))
        gens = [big, idempotent_for_set(4, [0])]
        dtypes = []

        def spy(a, b):
            out = exact_matmul(a, b)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(terw.linalg, "exact_matmul", spy)
        basis = algebra_closure(gens)
        assert object in dtypes
        assert basis.dim == 16 and basis.rows.dtype == np.int64
        _assert_same_basis(basis, rowwise_closure(gens), "object batch")


def _assert_cell_route_matches(gens, below, t4, label):
    """The closure inside T4 (a CellSpan, so on its cell coordinates) equals
    the closure inside the same span without cells (on n² entries)."""
    n = t4.side
    plain = SpanBasis(n)
    plain.rows, plain._piv = t4.rows, t4._piv
    cell = algebra_closure(gens, side=n, below=below, within=t4)
    wide = algebra_closure(gens, side=n, below=below, within=plain)
    assert (cell is t4) == (wide is plain), label
    assert cell.pivots == wide.pivots, label
    assert cell.rows.dtype == wide.rows.dtype, label
    assert cell.rows.tolist() == wide.rows.tolist(), label


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_cell_route_matches_the_n2_closure(n, rnd):
    """Levels 1-3 closed from I and from the level below, and A with a random
    element of T4 (entries up to 2**40 when n <= 5, so rows go to object dtype)."""
    graph, base = _random_connected_graph(n, rnd), rnd.randrange(n)
    _, algs = chain_with_algebras(graph, base)
    t4 = algs[4].basis
    for level in (1, 2, 3):
        gens = list(algs[level].generator_matrices)
        _assert_cell_route_matches(gens, None, t4, (n, base, level, "from I"))
        _assert_cell_route_matches(gens, algs[level - 1].basis, t4, (n, base, level, "seeded"))
    top = 2**40 if n <= 5 else 3
    x = sum(rnd.randint(-top, top) * m for m in t4.matrices())
    _assert_cell_route_matches([graph.adjacency_matrix(), x], None, t4, (n, base, "random element"))


def test_cell_route_matches_the_n2_closure_on_paley13():
    g, pc = gen_paley(13)
    _, algs = chain_with_algebras(g, 0, stab=paley_stabilizer_generators(pc))
    for level in (1, 2, 3):
        gens = list(algs[level].generator_matrices)
        _assert_cell_route_matches(gens, None, algs[4].basis, (13, level, "from I"))
        _assert_cell_route_matches(gens, algs[level - 1].basis, algs[4].basis, (13, level, "seeded"))


class TestAdjacencyAlgebraMemo:
    """T0 is closed once per graph and shared, read-only, by every base."""

    def test_level0_equals_a_fresh_closure_at_every_base(self, corpus):
        for n in range(1, 7):
            for g in corpus[n]:
                fresh = algebra_closure([g.adjacency_matrix()])
                for base in range(n):
                    basis = build_T(0, g, base).basis
                    assert basis.pivots == fresh.pivots, (n, base)
                    assert basis.rows.tolist() == fresh.rows.tolist(), (n, base)

    def test_level0_rows_are_read_only(self):
        basis = build_T(0, gen_delta(5), 0).basis
        with pytest.raises(ValueError):
            basis.rows[0, 0] = 7
        with pytest.raises(ValueError):
            basis._piv[0] = 1

    def test_every_base_leaves_the_first_t0_unchanged(self, corpus):
        for g in corpus[6][:40]:
            first = build_T(0, g, 0).basis
            rows = first.rows.copy()
            for base in range(g.n):
                algs = chain_with_algebras(g, base)[1]
                # a T0 below T4 wraps the one kept rows array; one equal to T4 is T4
                assert algs[0].basis is algs[4].basis or algs[0].basis.rows is first.rows, (g, base)
            assert first.rows.tolist() == rows.tolist()


class TestSeededChain:
    """T4 comes first, levels 1-3 of the chain extend the level below and
    stop at dim T4; each equals the closure of its generators from span{I}
    row for row (inside T4 with a given group), T4 the elimination of its
    orbital matrices, and equal levels share one basis object."""

    @staticmethod
    def _check(graph, base, levels=algebras.LEVELS, stab=None):
        report, algs = chain_with_algebras(graph, base, levels=levels, stab=stab)
        within = algs[4].basis if stab is not None else None
        built = {}
        for lvl in levels:
            oracle, cells = level_from_identity(graph, base, lvl, stab=stab, within=within)
            alg, label = algs[lvl], (graph.n, base, lvl)
            assert alg.basis.pivots == oracle.pivots, label
            assert alg.basis.rows.dtype == oracle.rows.dtype, label
            assert alg.basis.rows.tolist() == oracle.rows.tolist(), label
            assert alg.cells == cells, label
            built[lvl] = oracle
        witnesses = {}
        for lvl in range(4):
            if lvl in built and lvl + 1 in built and built[lvl].dim < built[lvl + 1].dim:
                rows = built[lvl + 1].rows
                witnesses[lvl] = rows[int(np.argmax(np.any(built[lvl].reduce_block(rows), axis=1)))]
        found = {lvl: witness(algs[lvl], algs[lvl + 1]) for lvl in range(4) if lvl in built and lvl + 1 in built}
        found = {lvl: w for lvl, w in found.items() if w is not None}
        assert sorted(found) == sorted(witnesses), (graph.n, base)
        for lvl, w in witnesses.items():
            assert found[lvl].reshape(-1).tolist() == w.tolist(), (graph.n, base, lvl)
        for lvl in range(1, 5):
            if algs[lvl - 1] is not None and algs[lvl] is not None:
                assert (algs[lvl].basis is algs[lvl - 1].basis) == report.equal_next[lvl - 1]
        return algs

    def test_connected_graphs_up_to_6(self, corpus):
        for n in range(1, 7):
            for g in corpus[n]:
                for base in _orbit_representatives(g):
                    self._check(g, base)

    @pytest.mark.parametrize("q", [13, 29])
    def test_paley(self, q):
        g, pc = gen_paley(q)
        self._check(g, 0, stab=paley_stabilizer_generators(pc))

    @pytest.mark.parametrize("levels", [(1, 3), (2, 3), (0, 2), (0, 4), (1, 4), (3, 4), (1, 2, 4)])
    def test_subset_levels(self, levels):
        for graph, base in [(gen_delta(5), 4), (gen_delta(6), 4), (gen_path(5), 1), (gen_star(5), 1)]:
            self._check(graph, base, levels=levels)

    def test_equal_levels_share_one_basis(self):
        g, pc = gen_paley(13)
        algs = self._check(g, 0, stab=paley_stabilizer_generators(pc))
        assert algs[2].dim == algs[3].dim == 21
        assert algs[2].basis is algs[3].basis
        assert algs[1].basis is not algs[2].basis
        algs = self._check(gen_cycle(3), 0)
        assert algs[1].basis is algs[2].basis is algs[3].basis is algs[4].basis

    def test_t1_of_a_cyclic_base_vertex_skips_t0(self, monkeypatch):
        # the end of a path is a cyclic vector of A: U is the whole space, so
        # T1 = U⊗U = M_n and T0's rows are not inserted, with or without T4
        g = gen_path(5)
        t0, t4 = build_T(0, g, 0), build_T(4, g, 0)
        oracle, _ = level_from_identity(g, 0, 1)
        blocks = []
        insert_block = RowSpace.insert_block

        def spy(self, block):
            blocks.append(len(block))
            return insert_block(self, block)

        monkeypatch.setattr(RowSpace, "insert_block", spy)
        free = build_T(1, g, 0, below=t0)
        capped = build_T(1, g, 0, below=t0, within=t4)
        monkeypatch.undo()
        assert blocks == [5, 5]  # the module U's rows, once per build
        assert free.dim == 25 and free.basis.rows.tolist() == oracle.rows.tolist()
        assert capped.basis is t4.basis

    def test_below_must_be_the_level_below(self):
        g = gen_delta(5)
        t1 = build_T(1, g, 4)
        for level, base in [(3, 4), (2, 3), (1, 4), (0, 4)]:
            with pytest.raises(ValueError):
                build_T(level, g, base, below=t1)
        with pytest.raises(ValueError):
            build_T(4, g, 4, below=build_T(3, g, 4))

    @pytest.mark.parametrize("levels", [algebras.LEVELS, (2, 3)])
    def test_seeded_level_is_certified(self, monkeypatch, levels):
        # Delta(5) based at 4 has distance cells {4} and {0, 1, 2, 3}: one
        # fake orbit meets both, so T2 need not lie in the level-3 closure
        monkeypatch.setattr(
            algebras, "vertex_orbits", lambda group, base=None: OrbitPartition(((0, 4), (1, 2, 3)))
        )
        with pytest.raises(CertificationError, match="a cell of the level below is not a union of this level's cells"):
            chain_with_algebras(gen_delta(5), 4, levels=levels)

    def test_level_inside_T4_is_certified(self, monkeypatch):
        # swapping 0 and 1 fixes the base 4 of Delta(5) but is no
        # automorphism: T4's cells are read off its orbitals unchecked, and
        # the check of A on them, once per base in build_T(4), sees it
        monkeypatch.setattr(algebras, "stabilizer", lambda *a, **k: PermGroup(5, (Perm((1, 0, 2, 3, 4)),)))
        message = "A is not constant on an orbital cell; a stabilizer generator is not an automorphism"
        for levels in [(0, 4), (4,)]:
            with pytest.raises(CertificationError, match=message):
                chain_with_algebras(gen_delta(5), 4, levels=levels)
        with pytest.raises(CertificationError, match=message):
            build_T(4, gen_delta(5), 4)

    def test_level_cells_inside_T4_are_certified(self, monkeypatch):
        # T4 from the true stabilizer of Delta(5) at 4, but a level-3 orbit
        # {0, 1} that is no union of its orbits: T3 need not lie in T4
        g = gen_delta(5)
        t4 = build_T(4, g, 4)
        monkeypatch.setattr(algebras, "vertex_orbits", lambda group, base=None: OrbitPartition(((4,), (0, 1), (2, 3))))
        with pytest.raises(CertificationError, match="a cell is not a union of stabilizer orbits"):
            build_T(3, g, 4, within=t4)

    def test_given_stabilizer_must_be_automorphisms(self):
        # swapping 0 and 1 fixes the base 4 of Delta(5) but is no
        # automorphism; its orbits would give T3 and T4 dims 25 and 17,
        # where the true stabilizer gives 13 and 13
        swap = PermGroup(5, (Perm((1, 0, 2, 3, 4)),))
        # from scratch, levels 1 and 2 are built inside the T4 of a given group, so they check it too
        for level in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="a stabilizer generator is not an automorphism of the graph"):
                build_T(level, gen_delta(5), 4, stab=swap)
        with pytest.raises(ValueError, match="not an automorphism of the graph"):
            chain_with_algebras(gen_delta(5), 4, levels=(3,), stab=swap)
        assert build_T(3, gen_delta(5), 4).dim == build_T(4, gen_delta(5), 4).dim == 13

    def test_given_stabilizer_must_fix_the_base(self):
        # a rotation of C5 moves the base 0; its orbitals would give T3 and
        # T4 dims 3 and 5, where the stabilizer {1, reflection} gives 13, 13
        rotation = PermGroup(5, (Perm((1, 2, 3, 4, 0)),))
        for level in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="moves the base vertex 0"):
                build_T(level, gen_cycle(5), 0, stab=rotation)
        with pytest.raises(ValueError, match="moves the base vertex 0"):
            chain_with_algebras(gen_cycle(5), 0, levels=(3, 4), stab=rotation)
        reflection = PermGroup(5, (Perm((0, 4, 3, 2, 1)),))
        report, _ = chain_with_algebras(gen_cycle(5), 0, levels=(3, 4), stab=reflection)
        assert report.dims[3:] == (13, 13)

    def test_chain_reads_the_graph_once(self, monkeypatch):
        # one connectivity check and one read of A per chain (level 4, the first build), and one
        # read of A per graph for the kept T0; levels 1-3 take A from the level below
        calls = {"adjacency_matrix": 0, "is_connected": 0}
        for name in calls:
            read = getattr(Graph, name)
            monkeypatch.setattr(Graph, name, lambda g, _r=read, _n=name: calls.update({_n: calls[_n] + 1}) or _r(g))
        g = gen_delta(6)
        for base in range(g.n):
            chain_with_algebras(g, base)
        assert calls == {"adjacency_matrix": g.n + 1, "is_connected": g.n}

    def test_within_must_be_T4(self):
        g = gen_delta(5)
        t4, t1 = build_T(4, g, 4), build_T(1, g, 4)
        for level, base, within in [(0, 3, t4), (4, 4, t4), (2, 4, t1)]:
            with pytest.raises(ValueError):
                build_T(level, g, base, within=within)


def _chain_cases(corpus=None):
    """(graph, base, stab): every base-orbit representative with n <= 6 when
    the corpus is given, else a few hand-picked ones, and Paley(13) at 0
    with its analytic stabilizer."""
    if corpus is None:
        cases = [(gen_delta(5), 4), (gen_delta(6), 4), (gen_path(5), 1), (gen_star(5), 1), (gen_cycle(6), 0)]
    else:
        cases = [(g, base) for n in range(1, 7) for g in corpus[n] for base in _orbit_representatives(g)]
    paley, pc = gen_paley(13)
    return [(g, base, None) for g, base in cases] + [(paley, 0, paley_stabilizer_generators(pc))]


def _assert_same_level(alg, ref, label):
    assert alg.basis.pivots == ref.basis.pivots, label
    assert alg.basis.rows.dtype == ref.basis.rows.dtype, label
    assert alg.basis.rows.tolist() == ref.basis.rows.tolist(), label
    assert alg.cells == ref.cells, label


class TestOneConstructionPerLevel:
    """build_T from scratch and a chain over any levels run the same steps."""

    def test_from_scratch_equals_the_full_chain(self, corpus):
        for g, base, stab in _chain_cases(corpus):
            _, chain = chain_with_algebras(g, base, stab=stab)
            for lvl in algebras.LEVELS:
                _assert_same_level(build_T(lvl, g, base, stab=stab), chain[lvl], (g.n, base, lvl))

    @pytest.mark.parametrize("levels", [(1,), (2,), (3,), (2, 3), (1, 2, 3, 4)])
    def test_requested_levels_equal_the_full_chain(self, levels):
        for g, base, stab in _chain_cases():
            full_report, full = chain_with_algebras(g, base, stab=stab)
            report, algs = chain_with_algebras(g, base, levels=levels, stab=stab)
            for lvl in algebras.LEVELS:
                label = (g.n, base, lvl)
                if lvl in levels:
                    _assert_same_level(algs[lvl], full[lvl], label)
                    assert report.dims[lvl] == full_report.dims[lvl], label
                else:
                    assert algs[lvl] is None and report.dims[lvl] is None, label

    def test_levels_1_to_3_build_on_the_level_below(self, monkeypatch):
        # no closure from span{I} above level 0, and T4 read off orbitals only at level 4
        levels, closures, orbital_reads = [], [], []
        build, closure, orbital_span = algebras.build_T, algebras.algebra_closure, algebras._orbital_span

        def spy_build(level, *args, **kwargs):
            levels.append(level)
            try:
                return build(level, *args, **kwargs)
            finally:
                levels.pop()

        def spy_closure(*args, below=None, **kwargs):
            closures.append((levels[-1], below is None))
            return closure(*args, below=below, **kwargs)

        def spy_orbital_span(*args, **kwargs):
            orbital_reads.append(levels[-1])
            return orbital_span(*args, **kwargs)

        monkeypatch.setattr(algebras, "build_T", spy_build)
        monkeypatch.setattr(algebras, "algebra_closure", spy_closure)
        monkeypatch.setattr(algebras, "_orbital_span", spy_orbital_span)
        for g, base, stab in _chain_cases():
            for lvl in algebras.LEVELS:
                algebras._adjacency_algebra.cache_clear()
                algebras.build_T(lvl, g, base, stab=stab)
            for chain_levels in [algebras.LEVELS, (1,), (2, 3), (1, 2, 3, 4)]:
                algebras._adjacency_algebra.cache_clear()
                chain_with_algebras(g, base, levels=chain_levels, stab=stab)
        assert {lvl for lvl, fresh in closures if fresh} == {0}
        assert {lvl for lvl, fresh in closures if not fresh} == {2, 3}
        assert set(orbital_reads) == {4}

    def test_from_scratch_search_miss_raises(self):
        # two search nodes are too few for the stabilizer of Delta(6) at 4; levels 1-2
        # search nothing without a given group, so they are still built
        g = gen_delta(6)
        for level in (3, 4):
            with pytest.raises(BudgetExceededError):
                build_T(level, g, 4, node_budget=2)
        _, chain = chain_with_algebras(g, 4)
        for level in (1, 2):
            _assert_same_level(build_T(level, g, 4, node_budget=2), chain[level], level)


_UNDER_O = """
from terw import algebras
from terw.algebras import chain_with_algebras
from terw.errors import CertificationError
from terw.graphs import gen_cycle, gen_delta
from terw.groups import OrbitPartition, Perm, PermGroup
from terw.linalg import SpanBasis, center_basis


def raises(fn, exc=CertificationError):
    try:
        fn()
    except exc:
        return True
    return False


def unclosed_center():
    # I, E01, E12 passes a spot check of four products; E01 @ E12 escapes
    span = SpanBasis(3)
    for mat in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]]):
        span.insert(mat)
    center_basis(span)


def with_bad_stabilizer():
    # swapping 0 and 1 fixes the base 4 of Delta(5) but is no automorphism
    search = algebras.stabilizer
    algebras.stabilizer = lambda *a, **k: PermGroup(5, (Perm((1, 0, 2, 3, 4)),))
    try:
        chain_with_algebras(gen_delta(5), 4, levels=(0, 4))
    finally:
        algebras.stabilizer = search


def rotation_stabilizer():
    # a rotation of C5 moves the base 0: refused before any certificate
    chain_with_algebras(gen_cycle(5), 0, stab=PermGroup(5, (Perm((1, 2, 3, 4, 0)),)))


def with_bad_orbits(levels):
    # an orbit meeting both distance cells of Delta(5) based at 4
    orbits = algebras.vertex_orbits
    algebras.vertex_orbits = lambda group, base=None: OrbitPartition(((0, 4), (1, 2, 3)))
    try:
        chain_with_algebras(gen_delta(5), 4, levels=levels)
    finally:
        algebras.vertex_orbits = orbits


def given_non_automorphism():
    # a given stabilizer of non-automorphisms: refused before any certificate
    chain_with_algebras(gen_delta(5), 4, stab=PermGroup(5, (Perm((1, 0, 2, 3, 4)),)))


cases = [
    lambda: with_bad_orbits(algebras.LEVELS),
    lambda: with_bad_orbits((2, 3)),
    with_bad_stabilizer,
]
value_cases = (given_non_automorphism, rotation_stabilizer, unclosed_center)
print(__debug__, [raises(case) for case in cases] + [raises(fn, ValueError) for fn in value_cases])
"""


def test_checks_run_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(terw.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "[True,", "True,", "True,", "True,", "True,", "True]"]


class TestCorner:
    def test_base_corner_of_level1_is_scalar(self):
        for g, b in [(gen_path(5), 2), (gen_star(5), 1), (gen_delta(5), 4)]:
            t1 = build_T(1, g, b)
            assert corner(t1, [b]).dim == 1

    def test_kite_apex_corner_dim(self):
        # project the eleven spanning matrices to the first shell and reduce:
        # five die (anything touching row/column of the base) and six survive
        mats = kite_apex_span_matrices()
        e = idempotent_for_set(5, [0, 1, 2, 3])
        projected = [e @ m @ e for m in mats[:11]]
        oracle = SpanBasis(5)
        for m in projected:
            oracle.insert(m)
        t2 = build_T(2, gen_delta(5), 4)
        got = corner(t2, [0, 1, 2, 3])
        assert got.dim == oracle.dim == 6
        assert all(got.contains(m) for m in oracle.matrices())

    def test_paley13_first_shell_corner_commutative(self):
        g, _ = gen_paley(13)
        t2 = build_T(2, g, 0)
        assert is_commutative(corner(t2, t2.cells[1]))


class TestCommutativity:
    def test_adjacency_algebra_commutative(self):
        assert is_commutative(build_T(0, gen_cycle(6), 0))

    def test_star_level1_not_commutative(self):
        assert not is_commutative(build_T(1, gen_star(4), 0))

    def test_scalars_commutative(self):
        b = SpanBasis(3)
        b.insert(np.eye(3, dtype=np.int64))
        assert is_commutative(b)


class TestPrincipalRowDim:
    def test_c6_level1(self):
        t1 = build_T(1, gen_cycle(6), 0)
        assert principal_row_dim(t1) == 4  # eccentricity + 1

    def test_p2(self):
        assert principal_row_dim(build_T(1, gen_path(2), 0)) == 2

    def test_delta5_level2(self):
        assert principal_row_dim(build_T(2, gen_delta(5), 4)) == 3

    def test_lower_bound_over_family(self):
        from terw.graphs import bfs_distance_partition

        for g, b in [(gen_path(7), 2), (gen_star(6), 1), (gen_cycle(9), 0), (gen_delta(7), 6)]:
            t1 = build_T(1, g, b)
            ecc = bfs_distance_partition(g, b).eccentricity
            assert principal_row_dim(t1) >= ecc + 1


class TestPendantReduction:
    def test_delta6(self):
        assert pendant_reduction_check(gen_delta(6), 5, 2)

    def test_delta_family_level3(self):
        assert pendant_reduction_check(gen_delta(6), 5, 3)
        assert pendant_reduction_check(gen_delta(7), 6, 3)

    def test_paths(self):
        assert pendant_reduction_check(gen_path(3), 0, 2)
        assert pendant_reduction_check(gen_path(2), 0, 2)

    def test_rejects_non_pendant(self):
        with pytest.raises(ValueError):
            pendant_reduction_check(gen_cycle(5), 0, 2)


class TestStructuralInvariants:
    @staticmethod
    def _bases(corpus):
        """Every level of each graph from the chain, and levels 0-3 closed
        from span{I} (inside T4 with a given group).

        The builders do not check these facts, which hold by construction,
        and the decomposition trusts them, so the tests check the chain and
        the closure from the identity, on a few 5-vertex graphs and on
        Paley(13) with its analytic stabilizer.
        """
        paley, pc = gen_paley(13)
        cases = [(g, None) for g in corpus[5][:10]] + [(paley, paley_stabilizer_generators(pc))]
        for g, stab in cases:
            algs = chain_with_algebras(g, 0, stab=stab)[1]
            within = algs[4].basis if stab is not None else None
            for alg in algs:
                yield g, alg.basis
            for lvl in range(4):
                yield g, level_from_identity(g, 0, lvl, stab=stab, within=within)[0]

    def test_transpose_closure_explicit(self, corpus):
        for _, basis in self._bases(corpus):
            for m in basis.matrices():
                assert basis.contains(m.T.copy())

    def test_identity_membership(self, corpus):
        for g, basis in self._bases(corpus):
            assert basis.contains(np.eye(g.n, dtype=np.int64))

    def test_level0_dim_equals_distinct_eigenvalues(self, corpus):
        from oracles import spectrum_summary

        for g in corpus[6][:25]:
            assert build_T(0, g, 0).dim == spectrum_summary(g).distinct_count
