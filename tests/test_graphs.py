import numpy as np
import pytest

from oracles import (
    ToleranceError,
    brute_srg_params,
    charpoly_exact,
    degree_sequence,
    distinct_eigenvalue_count,
    is_distance_regular,
    is_strongly_regular,
    spectrum_summary,
)
from terw.graphs import (
    Graph,
    bfs_distance_partition,
    gen_cycle,
    gen_delta,
    gen_paley,
    gen_path,
    gen_star,
)


class TestFamilies:
    def test_path_small(self):
        p2 = gen_path(2)
        assert p2.num_edges() == 1
        p5 = gen_path(5)
        assert p5.num_edges() == 4
        assert bfs_distance_partition(p5, 0).eccentricity == 4

    def test_path_distance_cells(self):
        dp = bfs_distance_partition(gen_path(9), 4)
        assert [len(c) for c in dp.cells] == [1, 2, 2, 2, 2]

    def test_path_rejects_n1(self):
        with pytest.raises(ValueError):
            gen_path(1)

    def test_star(self):
        s4 = gen_star(4)
        assert sorted(degree_sequence(s4), reverse=True) == [3, 1, 1, 1]
        assert gen_star(2).num_edges() == 1
        assert spectrum_summary(gen_star(6)).multiplicities == (1, 4, 1)

    def test_cycle(self):
        assert gen_cycle(3) == Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert bfs_distance_partition(gen_cycle(6), 0).eccentricity == 3
        with pytest.raises(ValueError):
            gen_cycle(2)

    def test_cycle5_equals_paley5_on_field_labels(self):
        # adjacency by nonzero-square differences on GF(5) is the 5-cycle
        g, pc = gen_paley(5)
        elem_edges = {
            frozenset((pc.order[i][0], pc.order[j][0]))
            for i, j in g.edges()
        }
        want = {frozenset((x, (x + 1) % 5)) for x in range(5)}
        assert elem_edges == want

    def test_delta5_adjacency_matrix(self):
        want = np.array(
            [
                [0, 1, 0, 0, 1],
                [1, 0, 1, 0, 1],
                [0, 1, 0, 1, 1],
                [0, 0, 1, 0, 1],
                [1, 1, 1, 1, 0],
            ]
        )
        assert np.array_equal(gen_delta(5).adjacency_matrix(), want)
        assert degree_sequence(gen_delta(5)) == [2, 3, 3, 2, 4]

    def test_delta_tail(self):
        d6 = gen_delta(6)
        assert d6.degree(5) == 1
        assert d6.has_edge(4, 5)
        with pytest.raises(ValueError):
            gen_delta(4)

    def test_delta5_distance_partition(self):
        dp = bfs_distance_partition(gen_delta(5), 4)
        assert dp.cells == ((4,), (0, 1, 2, 3))


class TestPaley:
    def test_paley13_is_srg(self):
        g, _ = gen_paley(13)
        p = is_strongly_regular(g)
        assert (p.n, p.k, p.lam, p.mu) == (13, 6, 2, 3)
        assert brute_srg_params(g) == (13, 6, 2, 3)

    def test_paley9(self):
        g, pc = gen_paley(3, 2)
        assert g.n == 9
        assert set(degree_sequence(g)) == {4}
        p = is_strongly_regular(g)
        assert (p.n, p.k, p.lam, p.mu) == (9, 4, 1, 2)
        assert len(pc.squares) == 4

    def test_paley_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_paley(4)  # not prime
        with pytest.raises(ValueError):
            gen_paley(7)  # 7 % 4 == 3

    def test_paley_regular_and_self_paired(self):
        for p, a in [(5, 1), (13, 1), (3, 2)]:
            g, pc = gen_paley(p, a)
            q = p**a
            assert set(degree_sequence(g)) == {(q - 1) // 2}
            f = pc.gf()
            for s in pc.squares:
                assert f.sub(f.zero(), s) in pc.squares

    def test_paley_vertex_order(self):
        _, pc = gen_paley(5)
        # 0 first, then even powers of xi=2 (1, 4), then odd powers (2, 3)
        assert [e[0] for e in pc.order] == [0, 1, 4, 2, 3]


class TestDetectors:
    def test_p4_not_srg(self):
        assert is_strongly_regular(gen_path(4)) is None

    def test_complete_graph_not_primitive(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_strongly_regular(k4) is None

    def test_srg_identity_holds(self, corpus):
        for g in corpus[6]:
            params = is_strongly_regular(g)
            if params is not None:
                assert params.feasible()
                assert brute_srg_params(g) == (params.n, params.k, params.lam, params.mu)

    def test_c6_distance_regular(self):
        inum = is_distance_regular(gen_cycle(6))
        assert inum is not None
        assert inum.p(1, 1, 0) == 2

    def test_k3_distance_regular(self):
        assert is_distance_regular(gen_cycle(3)) is not None

    def test_delta5_not_distance_regular(self):
        assert is_distance_regular(gen_delta(5)) is None


class TestSpectrum:
    def test_charpoly_path2(self):
        assert charpoly_exact(gen_path(2).adjacency_matrix()) == [1, 0, -1]

    def test_charpoly_matches_numpy_roots(self):
        g = gen_cycle(7)
        coeffs = charpoly_exact(g.adjacency_matrix())
        numeric = np.poly(g.adjacency_matrix().astype(float))
        assert np.allclose(np.array(coeffs, dtype=float), numeric, atol=1e-6)

    def test_star_multiplicities(self):
        assert spectrum_summary(gen_star(6)) == (3, (1, 4, 1))

    def test_paley13_multiplicities(self):
        s = spectrum_summary(gen_paley(13)[0])
        assert s.distinct_count == 3
        assert sorted(s.multiplicities) == [1, 6, 6]

    def test_k2(self):
        assert spectrum_summary(gen_path(2)) == (2, (1, 1))

    def test_distinct_count_at_least_diameter_plus_one(self, corpus):
        for g in corpus[5] + corpus[6]:
            ecc = bfs_distance_partition(g, 0).eccentricity
            diam = max(
                bfs_distance_partition(g, v).eccentricity for v in range(g.n)
            )
            t = distinct_eigenvalue_count(g)
            assert t >= diam + 1
            assert t >= ecc + 1

    def test_families_distinct_count_bound(self):
        for g in [gen_path(9), gen_star(8), gen_cycle(11), gen_delta(8), gen_paley(13)[0]]:
            diam = max(bfs_distance_partition(g, v).eccentricity for v in range(g.n))
            assert distinct_eigenvalue_count(g) >= diam + 1


def test_bfs_partition_properties(corpus):
    for g in corpus[6][:40]:
        dp = bfs_distance_partition(g, 0)
        seen = [v for cell in dp.cells for v in cell]
        assert sorted(seen) == list(range(g.n))
        assert all(cell for cell in dp.cells)
        for k in range(1, len(dp.cells)):
            prev = set(dp.cells[k - 1])
            for v in dp.cells[k]:
                assert any(u in prev for u in g.neighbors(v))


def test_bfs_partition_rejects_disconnected():
    with pytest.raises(ValueError):
        bfs_distance_partition(Graph(4, [(0, 1)]), 0)


def test_spectrum_tolerance_mismatch_detected(monkeypatch):
    # an absurd clustering gap merges distinct eigenvalues; the exact
    # squarefree count must catch it instead of silently under-reporting
    import oracles

    monkeypatch.setattr(oracles, "EIG_CLUSTER_TOL", 1e9)
    with pytest.raises(ToleranceError):
        spectrum_summary(gen_path(3))
