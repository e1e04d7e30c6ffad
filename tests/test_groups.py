import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_automorphisms,
    brute_stabilizer_orbits,
    group_order,
    is_trivial_group,
    paley_automorphism_group,
    perm_compose,
    perm_cycles,
    perm_inverse,
)
from terw import groups
from terw.errors import BudgetExceededError
from terw.graphs import bfs_distance_partition, gen_cycle, gen_delta, gen_paley, gen_path, gen_star
from terw.groups import (
    Perm,
    PermGroup,
    automorphism_group,
    is_automorphism,
    orbital_matrices,
    orbitals,
    paley_stabilizer_generators,
    point_orbit,
    stabilizer,
    vertex_orbits,
)


class TestPerm:
    def test_compose_and_inverse(self):
        p = Perm((1, 2, 0))
        q = Perm((0, 2, 1))
        assert perm_compose(p, q).images == (1, 0, 2)
        assert perm_compose(p, perm_inverse(p)).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_cycles(self):
        assert perm_cycles(Perm((3, 2, 1, 0, 4))) == [(0, 3), (1, 2)]


class TestAutomorphismSearch:
    def test_c6_order_12(self):
        g = gen_cycle(6)
        group = automorphism_group(g)
        assert group_order(group) == 12
        assert len(brute_automorphisms(g)) == 12

    def test_delta5_order_2_with_known_generator(self):
        group = automorphism_group(gen_delta(5))
        assert group_order(group) == 2
        nonid = [g for g in group.gens if not g.is_identity()]
        assert len(nonid) == 1
        assert nonid[0].images == (3, 2, 1, 0, 4)

    def test_delta_n_order_2(self):
        for n in range(5, 9):
            assert group_order(automorphism_group(gen_delta(n))) == 2

    def test_star_order(self):
        assert group_order(automorphism_group(gen_star(5))) == 24

    def test_generators_preserve_adjacency(self):
        for g in [gen_cycle(7), gen_star(6), gen_delta(6)]:
            for perm in automorphism_group(g).gens:
                assert is_automorphism(g, perm)

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            automorphism_group(gen_star(12), node_budget=3)

    def test_brute_force_equivalence_small(self, corpus):
        for g in corpus[5]:
            assert group_order(automorphism_group(g)) == len(brute_automorphisms(g))


class TestStabilizer:
    def test_path9_center(self):
        st = stabilizer(gen_path(9), 4)
        assert group_order(st) == 2
        gen = [g for g in st.gens if not g.is_identity()][0]
        assert perm_cycles(gen) == [(0, 8), (1, 7), (2, 6), (3, 5)]

    def test_path9_off_center_trivial(self):
        assert group_order(stabilizer(gen_path(9), 1)) == 1
        assert is_trivial_group(stabilizer(gen_path(9), 1))

    def test_delta5_base5(self):
        assert group_order(stabilizer(gen_delta(5), 4)) == 2

    def test_star_leaf_stabilizer_order(self):
        # leaves minus one permute freely
        assert group_order(stabilizer(gen_star(7), 1)) == 120

    def test_matches_brute_orbits(self, corpus):
        for g in corpus[5]:
            for base in range(g.n):
                st = stabilizer(g, base)
                got = sorted(vertex_orbits(st).cells)
                want = sorted(brute_stabilizer_orbits(g, base))
                assert got == want

    def test_budget_miss_is_not_kept(self):
        # a miss raises again on a repeat, and an unbudgeted call then searches in full
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                stabilizer(gen_star(7), 1, node_budget=2)
        assert group_order(stabilizer(gen_star(7), 1)) == 120

    def test_repeat_call_returns_the_kept_group(self, monkeypatch):
        runs = []
        run = groups._run_search
        monkeypatch.setattr(groups, "_run_search", lambda *a: runs.append(a[0]) or run(*a))
        first = stabilizer(gen_delta(5), 4)
        assert stabilizer(gen_delta(5), 4) is first
        assert len(runs) == 1
        # another base or budget is another search
        stabilizer(gen_delta(5), 3)
        stabilizer(gen_delta(5), 4, node_budget=10**6)
        assert len(runs) == 3


class TestOrbits:
    def test_star_center_orbits(self):
        st = stabilizer(gen_star(6), 0)
        assert vertex_orbits(st, base=0).cells == ((0,), (1, 2, 3, 4, 5))

    def test_trivial_group_singletons(self):
        g = PermGroup(n=4, gens=())
        assert vertex_orbits(g).cells == ((0,), (1,), (2,), (3,))

    def test_c6_base_orbits(self):
        st = stabilizer(gen_cycle(6), 0)
        assert vertex_orbits(st, base=0).cells == ((0,), (1, 5), (2, 4), (3,))

    def test_orbits_refine_distance_partition(self, corpus):
        for g in corpus[6][:30]:
            for base in range(g.n):
                st = stabilizer(g, base)
                cells = vertex_orbits(st, base=base).cells
                dp = bfs_distance_partition(g, base)
                dist = {}
                for k, cell in enumerate(dp.cells):
                    for v in cell:
                        dist[v] = k
                for cell in cells:
                    assert len({dist[v] for v in cell}) == 1


class TestOrbitals:
    def test_star_center_five_orbitals(self):
        st = stabilizer(gen_star(6), 0)
        assert orbitals(st).count == 5

    def test_star_leaf_ten_orbitals(self):
        st = stabilizer(gen_star(6), 1)
        assert orbitals(st).count == 10

    def test_trivial_group_all_pairs(self):
        part = orbitals(PermGroup(n=3, gens=()))
        assert part.count == 9

    def test_orbital_matrices_sum_to_all_ones(self):
        st = stabilizer(gen_cycle(6), 0)
        mats = orbital_matrices(orbitals(st))
        assert (sum(mats) == 1).all()

    def test_paley13_orbital_count(self):
        _, pc = gen_paley(13)
        st = paley_stabilizer_generators(pc)
        assert len(orbital_matrices(orbitals(st))) == 29

    def test_paley9_orbital_count(self):
        _, pc = gen_paley(3, 2)
        assert orbitals(paley_stabilizer_generators(pc)).count == 15

    def test_orbital_count_is_span_dimension(self, corpus):
        from terw.linalg import SpanBasis

        for g in corpus[5][:10]:
            st = stabilizer(g, 0)
            mats = orbital_matrices(orbitals(st))
            span = SpanBasis(g.n)
            for m in mats:
                span.insert(m)
            assert span.dim == len(mats)


@st.composite
def perm_groups(draw):
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n=n, gens=tuple(Perm(tuple(g)) for g in gens))


def _bfs_orbits(points, images):
    """Orbits by point_orbit BFS, in order of their smallest point."""
    seen, cells = set(), []
    for p in range(points):
        if p not in seen:
            cells.append(tuple(sorted(point_orbit((p,), images))))
            seen.update(cells[-1])
    return cells


@settings(max_examples=300, deadline=None)
@given(perm_groups(), st.data())
def test_orbit_labels_match_bfs(group, data):
    n, images = group.n, [g.images for g in group.gens]
    cells = _bfs_orbits(n, images)
    assert vertex_orbits(group).cells == tuple(cells)
    base = data.draw(st.integers(0, n - 1))
    assert vertex_orbits(group, base=base).cells == tuple(sorted(cells, key=lambda c: (base not in c, c[0])))

    labels = orbitals(group).labels
    want = np.empty(n * n, dtype=np.int64)
    pair_images = [[img[c // n] * n + img[c % n] for c in range(n * n)] for img in images]
    for k, cell in enumerate(_bfs_orbits(n * n, pair_images)):
        want[list(cell)] = k
    assert labels.tolist() == want.tolist()

    # the commutant facts: every generator maps each cell onto itself, the
    # diagonal pairs form whole cells, and the transpose of a cell is a cell
    for img in images:
        img = np.asarray(img)
        assert np.array_equal(labels[(img[:, None] * n + img[None, :]).reshape(-1)], labels)
    assert np.count_nonzero(np.isin(labels, labels[:: n + 1])) == n
    transposed = labels.reshape(n, n).T.reshape(-1)
    assert all(len(set(transposed[labels == k].tolist())) == 1 for k in range(orbitals(group).count))


class TestPaleyGroups:
    def test_paley13_stabilizer_order(self):
        _, pc = gen_paley(13)
        assert group_order(paley_stabilizer_generators(pc)) == 6

    def test_paley9_stabilizer_order(self):
        _, pc = gen_paley(3, 2)
        assert group_order(paley_stabilizer_generators(pc)) == 8

    def test_paley5_stabilizer_order(self):
        _, pc = gen_paley(5)
        assert group_order(paley_stabilizer_generators(pc)) == 2

    def test_analytic_matches_search(self):
        for p, a in [(5, 1), (13, 1), (3, 2)]:
            g, pc = gen_paley(p, a)
            assert group_order(paley_stabilizer_generators(pc)) == group_order(stabilizer(g, 0))

    def test_full_group_transitive(self):
        g, pc = gen_paley(3, 2)
        aut = paley_automorphism_group(pc)
        assert vertex_orbits(aut).cells == (tuple(range(9)),)

    def test_origin_tags(self):
        _, pc = gen_paley(5)
        assert paley_stabilizer_generators(pc).origin == "analytic-family"
        assert stabilizer(gen_path(4), 0).origin == "computed-by-search"


def test_same_orbit_bases_agree(corpus):
    """Bases in one automorphism orbit produce identical classification rows."""
    from terw.pipeline import classify_graph

    for g in corpus[5][:8]:
        aut = automorphism_group(g)
        cells = vertex_orbits(aut).cells
        for cell in cells:
            if len(cell) < 2:
                continue
            recs = classify_graph(g, bases=list(cell[:2]), decompose=True)
            a, b = recs
            assert a.dims == b.dims
            assert a.types == b.types
