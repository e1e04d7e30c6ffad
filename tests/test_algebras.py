import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import terw
from terw import algebras
from terw.graphs import Graph, gen_cycle, gen_delta, gen_paley, gen_path, gen_star
from terw.groups import (
    OrbitalPartition,
    OrbitPartition,
    Perm,
    PermGroup,
    automorphism_group,
    paley_stabilizer_generators,
    vertex_orbits,
)
from terw.algebras import (
    build_T,
    chain_with_algebras,
    corner,
    idempotent_for_set,
    is_commutative,
    pendant_reduction_check,
    principal_row_dim,
)
from terw.errors import CertificationError
from terw.linalg import SpanBasis, algebra_closure, exact_matmul

from oracles import is_multiplicatively_closed, rowwise_closure


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
        rep, _ = chain_with_algebras(gen_delta(5), 4)
        assert rep.dims == (5, 11, 11, 13, 13)
        assert rep.equal_next == (False, True, False, True)
        assert set(rep.witnesses) == {0, 2}

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
        rep, algs = chain_with_algebras(gen_delta(5), 4)
        w = rep.witnesses[2]
        assert not algs[2].contains(w)
        assert algs[3].contains(w)

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

    def test_searches_share_one_deadline(self, monkeypatch):
        budgets = []
        search = algebras.stabilizer

        def slow(*args, **kwargs):
            budgets.append(kwargs["time_budget"])
            time.sleep(0.3)
            return search(*args, **kwargs)

        monkeypatch.setattr(algebras, "stabilizer", slow)
        chain_with_algebras(gen_delta(5), 4, time_budget=1.0)
        assert len(budgets) == 2
        assert budgets[1] <= budgets[0] - 0.3


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


class TestSeededChain:
    """T4 comes first, levels 1-3 of the chain extend the level below and
    stop at dim T4; each equals build_T from scratch row for row, and equal
    levels share one basis object."""

    @staticmethod
    def _check(graph, base, levels=algebras.LEVELS, stab=None):
        report, algs = chain_with_algebras(graph, base, levels=levels, stab=stab)
        built = {}
        for lvl in levels:
            oracle = build_T(lvl, graph, base, stab=stab)
            alg, label = algs[lvl], (graph.n, base, lvl)
            assert alg.basis.pivots == oracle.basis.pivots, label
            assert alg.basis.rows.dtype == oracle.basis.rows.dtype, label
            assert alg.basis.rows.tolist() == oracle.basis.rows.tolist(), label
            assert (alg.generators, alg.cells) == (oracle.generators, oracle.cells), label
            built[lvl] = oracle.basis
        witnesses = {}
        for lvl in range(4):
            if lvl in built and lvl + 1 in built and built[lvl].dim < built[lvl + 1].dim:
                rows = built[lvl + 1].rows
                witnesses[lvl] = rows[int(np.argmax(np.any(built[lvl].reduce_block(rows), axis=1)))]
        assert sorted(report.witnesses) == sorted(witnesses), (graph.n, base)
        for lvl, w in witnesses.items():
            assert report.witnesses[lvl].reshape(-1).tolist() == w.tolist(), (graph.n, base, lvl)
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
        with pytest.raises(CertificationError, match="meets two distance cells"):
            chain_with_algebras(gen_delta(5), 4, levels=levels)

    def test_level_inside_T4_is_certified(self, monkeypatch):
        # swapping 0 and 1 fixes the base 4 of Delta(5) but is no
        # automorphism: its orbitals pass T4's own certificate, and only the
        # containment check of level 0 sees that A is not constant on them
        monkeypatch.setattr(algebras, "stabilizer", lambda *a, **k: PermGroup(5, (Perm((1, 0, 2, 3, 4)),)))
        with pytest.raises(CertificationError, match="A is not constant on an orbital cell"):
            chain_with_algebras(gen_delta(5), 4, levels=(0, 4))

    def test_within_must_be_T4(self):
        g = gen_delta(5)
        t4, t1 = build_T(4, g, 4), build_T(1, g, 4)
        for level, base, within in [(0, 3, t4), (4, 4, t4), (2, 4, t1)]:
            with pytest.raises(ValueError):
                build_T(level, g, base, within=within)


# partitions of the pairs of 3 points that are not the orbitals of the group
# swapping 1 and 2, each breaking one fact of the level-4 certificate
_TAMPERED_ORBITALS = {
    "split": [[(0, 0)], [(0, 1)], [(0, 2)], [(1, 0), (2, 0)], [(1, 1), (2, 2)], [(1, 2), (2, 1)]],
    "diagonal": [[(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2)], [(1, 0), (2, 0)], [(1, 1), (2, 2)]],
    "transpose": [[(0, 0)], [(0, 1), (0, 2), (1, 2), (2, 1)], [(1, 0), (2, 0)], [(1, 1), (2, 2)]],
}


@pytest.mark.parametrize("tamper", sorted(_TAMPERED_ORBITALS))
def test_level4_certificate_rejects_tampered_orbitals(monkeypatch, tamper):
    cells = tuple(tuple(c) for c in _TAMPERED_ORBITALS[tamper])
    monkeypatch.setattr(algebras, "orbitals", lambda group: OrbitalPartition(3, cells))
    with pytest.raises(CertificationError):
        build_T(4, gen_cycle(3), 0, stab=PermGroup(3, (Perm((0, 2, 1)),)))


_UNDER_O = """
from terw import algebras
from terw.algebras import chain_with_algebras
from terw.errors import CertificationError
from terw.graphs import gen_cycle, gen_delta
from terw.groups import OrbitPartition, Perm, PermGroup
from terw.linalg import SpanBasis, center_basis
from terw.pipeline import ScanRecord


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


def with_bad_orbits(levels):
    # an orbit meeting both distance cells of Delta(5) based at 4
    orbits = algebras.vertex_orbits
    algebras.vertex_orbits = lambda group, base=None: OrbitPartition(((0, 4), (1, 2, 3)))
    try:
        chain_with_algebras(gen_delta(5), 4, levels=levels)
    finally:
        algebras.vertex_orbits = orbits


cases = [
    lambda: ScanRecord("Bw", 3, 0, 3, (1, 2, 2, 2, 2), (True, True, True, True), None, "ok").validate(),
    lambda: chain_with_algebras(gen_delta(5), 4, stab=PermGroup(5, (Perm((1, 0, 2, 3, 4)),))),
    lambda: chain_with_algebras(gen_cycle(5), 0, stab=PermGroup(5, (Perm((1, 2, 3, 4, 0)),))),
    lambda: with_bad_orbits(algebras.LEVELS),
    lambda: with_bad_orbits((2, 3)),
    with_bad_stabilizer,
]
print(__debug__, [raises(case) for case in cases] + [raises(unclosed_center, ValueError)])
"""


def test_checks_run_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(terw.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "[True,", "True,", "True,", "True,", "True,", "True,", "True]"]


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
    def test_transpose_closure_explicit(self, corpus):
        for g in corpus[5][:10]:
            for lvl in range(5):
                alg = build_T(lvl, g, 0)
                for m in alg.basis.matrices():
                    assert alg.contains(m.T.copy())

    def test_identity_membership(self, corpus):
        for g in corpus[5][:10]:
            for lvl in range(5):
                alg = build_T(lvl, g, 0)
                assert alg.contains(np.eye(g.n, dtype=np.int64))

    def test_level0_dim_equals_distinct_eigenvalues(self, corpus):
        from oracles import spectrum_summary

        for g in corpus[6][:25]:
            assert build_T(0, g, 0).dim == spectrum_summary(g).distinct_count
