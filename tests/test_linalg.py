import math
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terw import linalg
from terw.graphs import Graph, gen_cycle, gen_delta, gen_path, write_graph6
from terw.linalg import (
    RowSpace,
    SpanBasis,
    algebra_closure,
    cell_span,
    center_basis,
    exact_matmul,
    outer_square,
)

from oracles import (
    commutator_center,
    distinct_eigenvalue_count,
    is_multiplicatively_closed,
    row_space_rank,
    rowwise_closure,
)


def E(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


def test_insert_rejects_duplicates():
    b = SpanBasis(3)
    ins = b.insert(np.eye(3, dtype=np.int64)) is not None
    assert ins
    ins = b.insert(np.eye(3, dtype=np.int64)) is not None
    assert not ins
    assert b.dim == 1


def test_insert_matrix_units():
    b = SpanBasis(3)
    b.insert(E(3, 0, 1))
    b.insert(E(3, 1, 0))
    assert b.dim == 2


def test_j_dependent_on_i_and_a_for_triangle():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    b = SpanBasis(3)
    b.insert(k3.adjacency_matrix())
    b.insert(np.eye(3, dtype=np.int64))
    ins = b.insert(np.ones((3, 3), dtype=np.int64)) is not None
    assert not ins
    assert b.dim == 2


def test_contains_membership():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    b = SpanBasis(3)
    b.insert(np.eye(3, dtype=np.int64))
    b.insert(k3.adjacency_matrix())
    assert b.contains(np.ones((3, 3), dtype=np.int64))
    assert not b.contains(E(3, 0, 0))


def test_contains_rational_combination():
    # span holds 2I and 3*E01; membership must see I + E01/3 style rationals
    b = SpanBasis(2)
    b.insert(2 * np.eye(2, dtype=np.int64))
    b.insert(3 * E(2, 0, 1))
    assert b.contains(np.eye(2, dtype=np.int64) + E(2, 0, 1))


def test_dim_mismatch_errors():
    b = SpanBasis(3)
    with pytest.raises(ValueError):
        b.insert(np.eye(4, dtype=np.int64))
    with pytest.raises(TypeError):
        b.insert(np.full((3, 3), 0.5))


def test_closure_single_edge():
    p2 = Graph(2, [(0, 1)])
    assert algebra_closure([p2.adjacency_matrix()]).dim == 2


def test_closure_identity_only():
    assert algebra_closure([np.eye(4, dtype=np.int64)]).dim == 1


def test_closure_delta5_terwilliger_dim():
    d5 = gen_delta(5)
    e0 = np.diag([0, 0, 0, 0, 1]).astype(np.int64)
    e1 = np.diag([1, 1, 1, 1, 0]).astype(np.int64)
    assert algebra_closure([d5.adjacency_matrix(), e0, e1]).dim == 11


def test_closure_is_multiplicatively_closed():
    d5 = gen_delta(5)
    e0 = np.diag([0, 0, 0, 0, 1]).astype(np.int64)
    b = algebra_closure([d5.adjacency_matrix(), e0])
    assert is_multiplicatively_closed(b)


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(4))))
def test_closure_dim_independent_of_generator_order(order):
    n = 4
    rng = np.random.default_rng(7)
    gens = [rng.integers(-2, 3, size=(n, n)).astype(np.int64) for _ in range(4)]
    base_dim = algebra_closure(gens).dim
    assert algebra_closure([gens[i] for i in order]).dim == base_dim


def test_closure_products_stay_in_span_random():
    rng = np.random.default_rng(3)
    gens = [rng.integers(-1, 2, size=(5, 5)).astype(np.int64) for _ in range(2)]
    b = algebra_closure(gens)
    mats = b.matrices()
    idx = rng.integers(0, len(mats), size=(20, 2))
    assert is_multiplicatively_closed(b, [tuple(p) for p in idx])


def test_reduction_is_deterministic():
    d5 = gen_delta(5)
    e0 = np.diag([0, 0, 0, 0, 1]).astype(np.int64)
    b1 = algebra_closure([d5.adjacency_matrix(), e0])
    b2 = algebra_closure([d5.adjacency_matrix(), e0])
    assert b1.pivots == b2.pivots
    for r1, r2 in zip(b1.rows, b2.rows):
        assert np.array_equal(r1, r2)


@st.composite
def _nested_generators(draw):
    """Symmetric integer generators G and G' = G + extra, entries 0/1 or up
    to 2**40 in size, so that some closures need object-dtype rows."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, 1), st.integers(-(2**40), 2**40))

    def sym():
        m = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
        return np.triu(m) + np.triu(m, 1).T

    small = [sym() for _ in range(draw(st.integers(1, 2)))]
    extra = [sym() for _ in range(draw(st.integers(0, 2)))]
    return small, small + extra


@settings(max_examples=60, deadline=None)
@given(_nested_generators())
# a generic 3x3 symmetric matrix: the powers of A reach about 2**80
@example(([np.array([[2**40, 3, 1], [3, -(2**39), 7], [1, 7, 5]], dtype=np.int64)],) * 2)
def test_seeded_closure_matches_closure_from_identity(case):
    small, big = case
    below = algebra_closure(small)
    seeded = algebra_closure(big, below=below)
    oracle = algebra_closure(big)
    assert seeded.pivots == oracle.pivots
    assert seeded.rows.dtype == oracle.rows.dtype
    assert seeded.rows.tolist() == oracle.rows.tolist()
    # no generator outside the seed: the seed itself comes back
    assert (seeded is below) == (seeded.dim == below.dim)
    # a cap at the closure's own span returns that span object; a cap at all
    # of M_n changes nothing unless the closure is M_n
    assert algebra_closure(big, below=below, within=oracle) is oracle
    n = oracle.side
    full = SpanBasis(n)
    full.insert_block(np.eye(n * n, dtype=np.int64))
    capped = algebra_closure(big, below=below, within=full)
    assert capped.rows.dtype == oracle.rows.dtype
    assert capped.rows.tolist() == oracle.rows.tolist()
    assert (capped is full) == (oracle.dim == n * n)


def test_seeded_closure_of_object_rows():
    a = np.array([[2**40, 3, 1], [3, -(2**39), 7], [1, 7, 5]], dtype=np.int64)
    below = algebra_closure([a])
    assert below.rows.dtype == object
    e0 = np.diag([1, 0, 0]).astype(np.int64)
    seeded = algebra_closure([a, e0], below=below)
    assert seeded.dim == 9 and seeded.rows.dtype == np.int64
    assert seeded.rows.tolist() == algebra_closure([a, e0]).rows.tolist()
    with pytest.raises(ValueError):
        algebra_closure([e0], below=SpanBasis(4))


@pytest.mark.parametrize("units", [[(1, 1)], [(1, 1), (0, 1)], [(0, 1), (1, 0), (1, 1)]])
def test_insert_into_a_seeded_basis_leaves_the_seed_rows(units):
    # a seeded closure's basis starts on below's very rows array; clearing the
    # new pivot columns from the old rows must not write through to the seed
    seed = SpanBasis(2)
    seed.insert(np.eye(2, dtype=np.int64))
    rows = seed.rows.copy()
    grown = SpanBasis(2)
    grown.rows, grown._piv = seed.rows, seed._piv
    block = np.stack([E(2, i, j).reshape(-1) for i, j in units])
    grown.insert_block(block)
    assert seed.rows.tolist() == rows.tolist() and seed.pivots == [0]
    oracle = SpanBasis(2)
    oracle.insert_block(np.concatenate([np.eye(2, dtype=np.int64).reshape(1, -1), block]))
    assert grown.pivots == oracle.pivots and grown.rows.tolist() == oracle.rows.tolist()
    # and through the closure, with object rows in the seed
    a = np.array([[2**40, 3, 1], [3, -(2**39), 7], [1, 7, 5]], dtype=np.int64)
    below = algebra_closure([a])
    rows = below.rows.copy()
    algebra_closure([a, np.diag([1, 0, 0]).astype(np.int64)], below=below)
    assert below.rows.tolist() == rows.tolist()


def _assert_same_as_rowwise(basis, oracle):
    assert basis.pivots == oracle.pivots
    assert basis.rows.tolist() == [r.tolist() for r in oracle.rows]
    assert (basis.rows.dtype == object) == any(r.dtype == object for r in oracle.rows)


@st.composite
def _symmetric_01(draw):
    n = draw(st.integers(1, 9))
    m = np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
    return np.triu(m, 1) + np.triu(m, 1).T


@settings(max_examples=60, deadline=None)
@given(_symmetric_01())
def test_power_block_closure_matches_rowwise(a):
    _assert_same_as_rowwise(algebra_closure([a]), rowwise_closure([a]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.one_of(st.integers(2**8, 2**12), st.integers(-(2**12), -(2**8)), st.integers(-(2**40), 2**40)),
            min_size=n * n,
            max_size=n * n,
        ).map(lambda xs: np.array(xs, dtype=np.int64).reshape(n, n))
    )
)
def test_power_block_past_the_bound_matches_rowwise(a):
    oracle = rowwise_closure([a])
    closure = algebra_closure([a])
    _assert_same_as_rowwise(closure, oracle)
    assert algebra_closure([a], within=closure) is closure


def test_power_block_hands_over_to_the_layer_loop(monkeypatch):
    # A^2 stays below 2**20 but A^3 passes it: the block holds A and A^2,
    # and the layers add A^3 (<A> has dim 4, distinct eigenvalues)
    a = np.array([[300, 1, 0, 2], [1, 250, 3, 0], [0, 3, 200, 1], [2, 0, 1, 150]], dtype=np.int64)
    assert np.abs(a @ a).max() < 2**20 < np.abs(a @ a @ a).max()
    blocks = []
    insert_block = RowSpace.insert_block

    def spy(self, block):
        blocks.append(len(block))
        return insert_block(self, block)

    monkeypatch.setattr(RowSpace, "insert_block", spy)
    closure = algebra_closure([a])
    monkeypatch.undo()
    assert blocks[:2] == [1, 2] and len(blocks) > 2
    assert closure.dim == 4
    _assert_same_as_rowwise(closure, rowwise_closure([a]))


def test_power_block_within():
    # the 7-cycle: <A> is the span of its 4 distance matrices (a
    # distance-regular graph), the whole of a within of that dimension
    c7 = gen_cycle(7)
    a = c7.adjacency_matrix()
    dist = np.array([[min((i - j) % 7, (j - i) % 7) for j in range(7)] for i in range(7)])
    bose_mesner = cell_span(7, dist.reshape(-1))
    assert algebra_closure([a], within=bose_mesner) is bose_mesner
    # a larger within changes nothing: the path on 5 vertices has a cyclic
    # vector, so <A> has dim 5 inside M_5
    p5 = gen_path(5).adjacency_matrix()
    full = SpanBasis(5)
    full.insert_block(np.eye(25, dtype=np.int64))
    capped = algebra_closure([p5], within=full)
    assert capped is not full and capped.dim == 5
    _assert_same_as_rowwise(capped, rowwise_closure([p5]))
    # a within reached by the identity alone
    one = SpanBasis(1)
    one.insert(np.eye(1, dtype=np.int64))
    assert algebra_closure([np.zeros((1, 1), dtype=np.int64)], within=one) is one


def test_adjacency_algebra_dim_is_distinct_eigenvalue_count(corpus):
    from terw.algebras import build_T

    for n in range(1, 8):
        for g in corpus[n]:
            assert build_T(0, g, 0).dim == distinct_eigenvalue_count(g), write_graph6(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))))
def test_cell_span_is_the_normal_form(case):
    n, raw = case
    # cells 0, 1, ... numbered backwards, so they need not come in order of
    # their first entry
    labels = np.unique(raw, return_inverse=True)[1].astype(np.int64)
    labels = labels.max() - labels
    oracle = SpanBasis(n)
    oracle.insert_block((labels[None, :] == np.arange(labels.max() + 1)[:, None]).astype(np.int64))
    span = cell_span(n, labels)
    assert span.pivots == oracle.pivots
    assert span.rows.dtype == oracle.rows.dtype
    assert span.rows.tolist() == oracle.rows.tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)), min_size=n, max_size=n),
            min_size=1,
            max_size=n,
        )
    )
)
def test_outer_square_is_the_normal_form(vectors):
    u = np.array(vectors, dtype=np.int64)
    n = u.shape[1]
    module = RowSpace(n)
    module.insert_block(u)
    oracle = SpanBasis(n)
    outer = exact_matmul(u[:, None, :, None], u[None, :, None, :])
    oracle.insert_block(outer.reshape(-1, n * n))
    square = outer_square(module)
    assert square.dim == module.dim**2 == oracle.dim
    assert square.pivots == oracle.pivots
    assert square.rows.dtype == oracle.rows.dtype
    assert square.rows.tolist() == oracle.rows.tolist()


def test_big_integer_entries_stay_exact():
    big = 10**25
    b = SpanBasis(2)
    m = np.array([[big, 1], [0, big]], dtype=object)
    b.insert(m)
    assert b.contains(np.array([[7 * big, 7], [0, 7 * big]], dtype=object))
    assert not b.contains(np.array([[big, 0], [0, big]], dtype=object))


def test_exact_matmul_overflow_fallback():
    a = np.full((2, 2), 2**40, dtype=np.int64)
    prod = exact_matmul(a, a)
    assert prod.dtype == object
    assert prod[0, 0] == 2 * 2**80


def test_center_of_full_matrix_algebra_is_scalars():
    gens = [E(3, 0, 1), E(3, 1, 2), E(3, 2, 0)]
    b = algebra_closure(gens)
    assert b.dim == 9
    c = center_basis(b)
    assert c.dim == 1
    assert c.contains(np.eye(3, dtype=np.int64))


def test_center_delta5_levels():
    d5 = gen_delta(5)
    a = d5.adjacency_matrix()
    e0 = np.diag([0, 0, 0, 0, 1]).astype(np.int64)
    e1 = np.diag([1, 1, 1, 1, 0]).astype(np.int64)
    t2 = algebra_closure([a, e0, e1])
    assert center_basis(t2).dim == 3


def test_center_c6_centralizer_has_two_blocks():
    from terw.algebras import build_T
    from terw.graphs import gen_cycle

    t4 = build_T(4, gen_cycle(6), 0)
    assert center_basis(t4.basis).dim == 2


def test_center_elements_commute_with_all():
    d5 = gen_delta(5)
    e0 = np.diag([0, 0, 0, 0, 1]).astype(np.int64)
    b = algebra_closure([d5.adjacency_matrix(), e0])
    mats = b.matrices()
    for z in center_basis(b).matrices():
        for m in mats:
            assert not np.any(exact_matmul(z, m) - exact_matmul(m, z))


def test_center_rejects_non_closed_span():
    b = SpanBasis(3)
    b.insert(np.eye(3, dtype=np.int64))
    b.insert(E(3, 0, 1) + E(3, 1, 2))  # square escapes the span
    with pytest.raises(ValueError):
        center_basis(b)


def test_center_checks_every_product_of_a_bare_span():
    # I, E01, E12: the products of the pairs (0,0), (0,2), (2,0) and (1,1) of
    # basis rows stay in the span, but E01 @ E12 = E02 does not
    b = SpanBasis(3)
    b.insert_block(np.stack([np.eye(3, dtype=np.int64), E(3, 0, 1), E(3, 1, 2)]).reshape(3, 9))
    mats = b.matrices()
    assert all(b.contains(exact_matmul(mats[i], mats[j])) for i, j in [(0, 0), (0, 2), (2, 0), (1, 1)])
    with pytest.raises(ValueError, match="not multiplicatively closed"):
        center_basis(b)


def _assert_same_center(got, want):
    assert got.pivots == want.pivots
    assert got.rows.dtype == want.rows.dtype
    assert got.rows.tolist() == want.rows.tolist()


def _chain_algebras(graph, base, stab=None):
    from terw.algebras import chain_with_algebras

    _, algs = chain_with_algebras(graph, base, stab=stab)
    return algs


class TestCenterFromGenerators:
    """center_basis with the algebra's generators against the full-commutator oracle."""

    def test_every_base_orbit_of_the_n6_corpus(self, corpus):
        from terw.groups import automorphism_group, vertex_orbits

        shared = 0
        for n in range(1, 7):
            for g in corpus[n]:
                for cell in vertex_orbits(automorphism_group(g)).cells:
                    algs = _chain_algebras(g, cell[0])
                    shared += sum(a.basis is b.basis for a, b in zip(algs, algs[1:]))
                    for alg in algs:
                        _assert_same_center(
                            center_basis(alg.basis, alg.generator_matrices), commutator_center(alg.basis)
                        )
                    # T0 is commutative: A moves no candidate and the basis is its own center
                    t0 = center_basis(algs[0].basis, algs[0].generator_matrices)
                    assert t0.pivots == algs[0].basis.pivots
                    assert t0.rows.tolist() == algs[0].basis.rows.tolist()
        assert shared > 0  # levels that share one basis object are covered

    @pytest.mark.parametrize("q", [13, 29])
    def test_paley(self, q):
        from terw.graphs import gen_paley
        from terw.groups import paley_stabilizer_generators

        graph, pc = gen_paley(q)
        for alg in _chain_algebras(graph, 0, stab=paley_stabilizer_generators(pc)):
            want = commutator_center(alg.basis)
            _assert_same_center(center_basis(alg.basis, alg.generator_matrices), want)
            _assert_same_center(center_basis(alg.basis), want)


@st.composite
def _symmetric_generators(draw):
    n = draw(st.integers(1, 5))
    big = draw(st.booleans())
    entry = st.integers(-(2**40), 2**40) if big else st.integers(0, 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            m = np.diag(draw(st.lists(entry, min_size=n, max_size=n)))
        else:
            vals = draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
            m = np.zeros((n, n), dtype=object)
            m[np.triu_indices(n)] = vals
            m = m + np.triu(m, 1).T
        gens.append(np.array(m, dtype=object if big else np.int64))
    return gens


@settings(max_examples=60, deadline=None)
@given(_symmetric_generators())
def test_center_from_generators_matches_oracle(gens):
    basis = algebra_closure(gens)
    want = commutator_center(basis)
    _assert_same_center(center_basis(basis, gens), want)
    _assert_same_center(center_basis(basis), want)


@settings(max_examples=60, deadline=None)
@given(_symmetric_generators())
def test_sparse_commutator_readout_matches_dense(gens):
    # with the size guard at 0 every generator of at most n nonzero entries,
    # as the matrix units of a full matrix algebra's basis, is read sparsely
    basis = algebra_closure(gens)
    dense = center_basis(basis)
    with mock.patch.object(linalg, "_SPARSE_READ_MIN", 0):
        _assert_same_center(center_basis(basis), dense)
        _assert_same_center(center_basis(basis, gens), dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**61), 2**61)), min_size=n * n, max_size=n * n), max_size=4),
    st.lists(st.tuples(st.integers(0, n * n - 1), st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))), max_size=n),
    st.lists(st.integers(0, n * n - 1), min_size=1, max_size=n * n),
)))
def test_pivot_commutators_read_sparse_and_dense_alike(case):
    # the readout of [z, g] at chosen pairs, from g's nonzero entries or from
    # every product, against the full commutator in Python integers
    n, cands, entries, pairs = case
    cands = np.array(cands, dtype=object).reshape(-1, n, n)
    if all(abs(x) < 2**62 for x in cands.reshape(-1)):
        cands = cands.astype(np.int64)
    g = np.zeros(n * n, dtype=np.int64)
    for at, x in entries:
        g[at] = x
    g = g.reshape(n, n)
    r, c = np.divmod(np.array(pairs), n)
    full = np.array([z @ g.astype(object) - g.astype(object) @ z for z in cands.astype(object)]).reshape(-1, n, n)
    want = full[:, r, c].tolist() if len(cands) else []
    bound = linalg._maxabs(cands)
    dense = linalg._pivot_commutators(cands, bound, g, r, c, (cands[:, r, :], cands[:, :, c]))
    sparse = linalg._pivot_commutators(cands, bound, g, r, c)
    assert dense.tolist() == sparse.tolist() == want
    assert dense.dtype == sparse.dtype


def test_row_space_rank():
    rows = [np.array([1, 2, 3]), np.array([2, 4, 6]), np.array([0, 1, 1])]
    assert row_space_rank(rows) == 2


# ---------------------------------------------------------------------------
# the block kernel against sympy's rref
# ---------------------------------------------------------------------------

_NEAR_LIMIT = st.integers(2**62 - 16, 2**62 + 16)
_ENTRY = st.one_of(
    st.integers(-3, 3),
    _NEAR_LIMIT,
    _NEAR_LIMIT.map(lambda x: -x),
    st.integers(2**63, 2**70),
)


@st.composite
def _blocks(draw):
    """An integer block with dependent rows, entries near and past int64,
    its rows in a random order and split into random batches."""
    width = draw(st.integers(1, 6))
    # all-small rows meet large basis rows: the bound must see the C @ R term
    row = st.one_of(
        st.lists(st.integers(-3, 3), min_size=width, max_size=width),
        st.lists(_ENTRY, min_size=width, max_size=width),
    )
    gens = draw(st.lists(row, min_size=1, max_size=4))
    rows = list(gens)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(gens[i], gens[j])])
    order = draw(st.permutations(range(len(rows))))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(rows) - 1, 1)), max_size=len(rows) - 1)))
    extra = draw(row)
    return width, rows, order, cuts, extra


def _as_block(rows):
    fits = all(-(2**63) <= x < 2**63 for r in rows for x in r)
    return np.array(rows, dtype=np.int64 if fits else object).reshape(len(rows), -1)


def _sympy_normal_form(rows):
    """Pivots and rows of sympy's rref, each row scaled to a primitive
    integer row with a positive pivot."""
    rref, pivots = sympy.Matrix(rows).rref()
    out = []
    for i in range(len(pivots)):
        r = list(rref.row(i))
        den = math.lcm(*(sympy.fraction(x)[1] for x in r))
        ints = [int(x * den) for x in r]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return list(pivots), out


@settings(max_examples=300, deadline=None)
@given(_blocks())
# a small row against an int64 basis row near 2**62: C @ R overflows int64
@example((3, [[1, 2**62 - 5, 2**62 - 7], [3, 0, 1]], [0, 1], [1], [0, 0, 1]))
# an int64 block holding -2**63, which int64 arithmetic cannot negate
@example((2, [[-2, 0], [2**62 - 1, 0], [-(2**63), 1]], [2, 1, 0], [1], [0, 0]))
# one-row inserts: the second goes in before every pivot, the third between
# two pivots, in a column where the first basis row is nonzero
@example((4, [[0, 0, 1, 1], [1, 1, 0, 0], [0, 2, 0, 3]], [0, 1, 2], [1, 2], [1, 0, 0, 0]))
# the third row of the second block vanishes during its echelon, and the
# basis row must lose the block's first pivot column
@example((3, [[1, 1, 0], [0, 1, 1], [0, 1, 2], [0, 2, 3]], [0, 1, 2, 3], [1], [1, 0, 1]))
# the block's echelon passes the int64 bound (3 * r2 - (2**61 + 1) * r1)
# while the basis row stays small
@example((3, [[1, 1, 1], [0, 3, 1], [0, 2**61 + 1, 2**61]], [0, 1, 2], [1], [0, 1, 1]))
def test_block_kernel_matches_sympy_rref(case):
    width, rows, order, cuts, extra = case
    want_piv, want_rows = _sympy_normal_form(rows)
    sp = RowSpace(width)
    shuffled = [rows[i] for i in order]
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        sp.insert_block(_as_block(shuffled[lo:hi]))
    assert sp.pivots == want_piv
    assert sp.rows.tolist() == want_rows
    assert sp.dim == len(want_piv)
    if all(abs(x) < 2**62 for r in want_rows for x in r):
        assert sp.rows.dtype == np.int64
    assert all(sp.contains(_as_block([r])[0]) for r in rows)
    in_span = sympy.Matrix(rows + [extra]).rank() == len(want_piv)
    assert sp.contains(_as_block([extra])[0]) == in_span
    residual = sp.reduce_block(_as_block([extra]))
    assert not np.any(residual[:, sp.pivots])
