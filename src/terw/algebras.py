"""Builders for the five nested algebras of a pointed graph.

Levels, for a connected graph with base vertex x0:

  0  unital algebra generated by the adjacency matrix A
  1  generated by A and the base-vertex idempotent
  2  generated by A and the diagonal idempotents of the distance partition
  3  generated by A and the idempotents of the stabilizer's vertex orbits
  4  span of the 0/1 orbital matrices of the stabilizer (the centralizer
     algebra); read off its cells, whose indicators sorted by smallest pair
     code already are the reduced echelon basis

Every level is a unital algebra closed under transpose and contains the
previous one.  Each fact is certified on construction from facts about the
partitions {x0}, distance cells, stabilizer orbits and orbitals, at cost
O(n^2 |gens|) and without elimination:

  * levels 0-3 are transpose-closed because every generator is symmetric
    (the transpose of a word is the reversed word); the identity is checked
    by one reduction, unless the level shares the basis object of the level
    below or of T4, certified unital already;
  * level 4 is the commutant of the stabilizer, hence a unital
    transpose-closed algebra: its cells partition the vertex pairs, each is
    one generator orbit (``orbitals``), every stabilizer generator maps each
    cell onto itself, the diagonal pairs form whole cells and the transpose
    of a cell is a cell;
  * T_k lies in the algebra T_{k+1} once T_k's generators do: A generates
    levels 0-3, distance cell 0 is {x0}, and each stabilizer orbit lies
    inside one distance cell;
  * T_k (k <= 3) lies in T4 once A and each idempotent generator of T_k
    are constant on every orbital cell; for T3 this is the step to T4.

A failed certificate raises CertificationError.

Containment also makes the chain incremental.  ``chain_with_algebras``
builds T4 first (its stabilizer search comes before level 3's), then
levels 0-3 in ascending order:

  * T1 is T0 + U⊗U, with U = span{A^i e_x0} = T0 e_x0 the base vertex's
    cyclic module, and needs no closure.  T0 + U⊗U holds A and
    E_x0 = e_x0 e_x0^T; each u v^T = A^i E_x0 A^j is a word; and the sum is
    closed under products, as B u v^T = (Bu) v^T and u v^T B = u (Bv)^T for
    B in the symmetric algebra T0, and u v^T u' v'^T = (v^T u') u v'^T.  The
    outer products of U's echelon rows are U⊗U's echelon basis, so T1 costs
    one block insert of T0's rows (``outer_square``);
  * levels 2-3 are generated by T_{k-1} and their own generators, so they
    extend the basis of the level below (``algebra_closure(...,
    below=...)``); a level equal to the one below costs one reduction and
    shares its basis object;
  * every closure of levels 0-3 stops once it reaches dim T4 (``within``):
    a subspace of T4 of that dimension is T4, so that level takes T4's
    basis object, and equal levels share one object all the way up.

A level built this way is returned only after the certificates of its step
and of its containment in T4 have passed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, bfs_distance_partition
# orbital_matrices is not called here, level 4 is read off its cell labels;
# the name stays importable because bench/tracing.py wraps
# terw.algebras.orbital_matrices as a span site
from .groups import DEFAULT_NODE_BUDGET, PermGroup, orbital_matrices, orbitals, stabilizer, vertex_orbits  # noqa: F401
from .linalg import RowSpace, SpanBasis, algebra_closure, cell_span, exact_matmul, outer_square

LEVELS = (0, 1, 2, 3, 4)


def idempotent_for_set(n: int, vertices) -> np.ndarray:
    """Diagonal 0/1 matrix supported on the given vertex set."""
    e = np.zeros((n, n), dtype=np.int64)
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        e[v, v] = 1
    return e


@dataclass
class AlgebraBasis:
    """Exact basis of one of the five algebras, tagged with its provenance."""

    level: int
    base: int
    n: int
    basis: SpanBasis
    generators: tuple[str, ...]
    # the (k, n, n) stack of a generating set of the algebra: the named
    # generators at levels 0-3, the basis itself at level 4
    generator_matrices: np.ndarray
    # distance cells (level 2), orbit cells (level 3), or orbital cells as
    # pair codes x*n+y (level 4)
    cells: Optional[tuple[tuple[int, ...], ...]] = None
    # level 4: the orbital cell index of each pair code x*n+y
    cell_labels: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def contains(self, mat) -> bool:
        return self.basis.contains(mat)


def _certify_unital_and_selfadjoint(basis: SpanBasis, gens: list[np.ndarray], known_unital: bool) -> None:
    for g in gens:
        if not np.array_equal(g, g.T):
            raise CertificationError("a generator is not symmetric, so transpose closure fails")
    if not known_unital and not basis.contains(np.eye(basis.side, dtype=np.int64)):
        raise CertificationError("algebra misses the identity")


def _cell_labels(n: int, cells) -> np.ndarray:
    """Cell index of each pair code x*n+y; the cells must partition the pairs."""
    sizes = [len(cell) for cell in cells]
    codes = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int64, count=sum(sizes))
    if np.bincount(codes, minlength=n * n).max() > 1:
        raise CertificationError("orbital cells overlap")
    labels = np.full(n * n, -1, dtype=np.int64)
    labels[codes] = np.repeat(np.arange(len(cells)), sizes)
    if np.any(labels < 0):
        raise CertificationError("orbital cells miss a vertex pair")
    return labels


def _constant_on_cells(mats: np.ndarray, labels: np.ndarray) -> bool:
    """A matrix, or each matrix of a stack, is constant on every cell."""
    flat = mats.reshape(-1, labels.size)
    first = np.empty((len(flat), int(labels.max()) + 1), dtype=flat.dtype)
    first[:, labels] = flat
    return np.array_equal(first[:, labels], flat)


def _certify_commutant(group: PermGroup, labels: np.ndarray) -> None:
    n = group.n
    for g in group.gens:
        img = np.asarray(g.images, dtype=np.int64)
        if not np.array_equal(labels[(img[:, None] * n + img[None, :]).reshape(-1)], labels):
            raise CertificationError("a stabilizer generator moves an orbital cell")
    if np.count_nonzero(np.isin(labels, labels[:: n + 1])) != n:
        raise CertificationError("diagonal pairs do not form whole orbital cells")
    if not _constant_on_cells(labels.reshape(n, n).T, labels):
        raise CertificationError("the transpose of an orbital cell is not a cell")


def build_T(
    level: int,
    graph: Graph,
    base: int,
    *,
    stab: Optional[PermGroup] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
    below: Optional[AlgebraBasis] = None,
    within: Optional[AlgebraBasis] = None,
) -> AlgebraBasis:
    """Exact basis of the level-0..4 algebra of (graph, base).

    Level 0 ignores the base vertex (the adjacency algebra does not depend
    on it) but records it.  Levels 3 and 4 need the base-vertex stabilizer:
    pass one in (e.g. an analytic Paley group) or it is found by search.
    Level 4 is read off its orbital cells, which already are the normal
    form.

    ``below`` is the level-(level-1) algebra of the same (graph, base),
    given to levels 1-3.  Level 1 is then T0 + U⊗U with U the cyclic module T0 e_x0, built
    without a closure; levels 2-3 extend below's basis instead of closing
    from the identity; a level equal to ``below`` returns its very basis
    object.  The containment of ``below`` is certified (``_certify_step``)
    before the algebra is returned.

    ``within`` is the level-4 algebra of the same (graph, base), given to
    levels 0-3.  Their closure stops once it reaches dim T4, a level equal
    to T4 returns T4's basis object, and after ``_certify_step`` every
    generator is certified constant on T4's orbital cells, so the level
    lies inside T4.  Without ``below`` and ``within`` every level is built
    from scratch.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    if below is not None and (level == 4 or (below.level, below.base, below.n) != (level - 1, base, graph.n)):
        raise ValueError("below must be the algebra one level down of the same graph and base, given to levels 1-3")
    if within is not None and (level == 4 or (within.level, within.base, within.n) != (4, base, graph.n)):
        raise ValueError("within must be the level-4 algebra of the same graph and base, given to levels 0-3")
    if not graph.is_connected():
        raise ValueError("algebra builders need a connected graph")
    n = graph.n
    a = graph.adjacency_matrix()
    cells = labels = None
    if level >= 3:
        group = stab if stab is not None else stabilizer(
            graph, base, node_budget=node_budget, time_budget=time_budget
        )
        if group.n != n:
            raise ValueError(f"stabilizer acts on {group.n} points, the graph has {n}")
    if level == 0:
        gens = [a]
        names = ("A",)
    elif level == 1:
        gens = [a, idempotent_for_set(n, [base])]
        names = ("A", f"E[{{{base}}}]")
    elif level == 2:
        dp = bfs_distance_partition(graph, base)
        cells = dp.cells
        gens = [a] + [idempotent_for_set(n, c) for c in cells]
        names = ("A",) + tuple(f"E[X{k}]" for k in range(len(cells)))
    elif level == 3:
        cells = vertex_orbits(group, base=base).cells
        gens = [a] + [idempotent_for_set(n, c) for c in cells]
        names = ("A",) + tuple(f"E[Y{k}]" for k in range(len(cells)))
    else:
        cells = tuple(tuple(x * n + y for x, y in cell) for cell in orbitals(group).cells)
        labels = _cell_labels(n, cells)
        _certify_commutant(group, labels)
        basis = cell_span(n, labels)
        # a basis generates its own span
        gens = basis.rows.reshape(-1, n, n)
        names = tuple(f"A[orbital {i}]" for i in range(len(cells)))
    if level == 1 and below is not None:
        # T1 = T0 + U⊗U, U = T0 e_x0 (see the module docstring)
        module = RowSpace(n)
        module.insert_block(below.basis.rows.reshape(-1, n, n)[:, :, base])
        basis = outer_square(module)
        basis.insert_block(below.basis.rows)
        if basis.dim == below.dim:
            basis = below.basis
        elif within is not None and basis.dim == within.dim:
            basis = within.basis
    elif level < 4:
        basis = algebra_closure(
            gens,
            side=n,
            below=None if below is None else below.basis,
            within=None if within is None else within.basis,
        )
    if level < 4:
        # a basis object shared with below or T4 was certified unital there
        shared = any(alg is not None and basis is alg.basis for alg in (below, within))
        _certify_unital_and_selfadjoint(basis, gens, known_unital=shared)
    alg = AlgebraBasis(
        level=level,
        base=base,
        n=n,
        basis=basis,
        generators=names,
        generator_matrices=np.asarray(gens),
        cells=cells,
        cell_labels=labels,
    )
    if below is not None:
        _certify_step(graph, below, alg)
    if within is not None:
        _certify_within(alg, within)
    return alg


@dataclass(frozen=True)
class ChainReport:
    """Dimensions and equality flags along the chain of the five algebras.

    A level that was not built (not requested, or cut off by a search budget
    miss) has dim None, and the flags beside it are None.
    """

    dims: tuple[Optional[int], ...]
    equal_next: tuple[Optional[bool], ...]
    # for each strict step, a basis matrix of the larger algebra outside the
    # smaller one (rows are vectorized matrices)
    witnesses: dict[int, np.ndarray]


def _certify_step(graph: Graph, small: AlgebraBasis, big: AlgebraBasis) -> None:
    """T_k lies in T_{k+1} for k < 3: every generator of T_k lies in T_{k+1}.

    Step 3 is ``_certify_within``.
    """
    n, step = graph.n, small.level
    if small.generators[0] != "A" or big.generators[0] != "A":
        raise CertificationError("A must generate levels 0-3")
    if step == 1 and big.cells[0] != (big.base,):
        raise CertificationError("distance cell 0 is not the base vertex")
    if step == 2:
        dist_cell = {v: k for k, cell in enumerate(small.cells) for v in cell}
        if sorted(v for cell in big.cells for v in cell) != list(range(n)):
            raise CertificationError("stabilizer orbits do not partition the vertices")
        if any(len({dist_cell[v] for v in cell}) != 1 for cell in big.cells):
            raise CertificationError("a stabilizer orbit meets two distance cells")


def _certify_within(small: AlgebraBasis, t4: AlgebraBasis) -> None:
    """T_k lies in T4: every generator of T_k is constant on T4's orbital cells."""
    gens = small.generator_matrices
    if not _constant_on_cells(gens[0], t4.cell_labels):
        raise CertificationError("A is not constant on an orbital cell; a stabilizer generator is not an automorphism")
    if not _constant_on_cells(gens[1:], t4.cell_labels):
        raise CertificationError("an idempotent generator is not constant on an orbital cell")


def chain_with_algebras(
    graph: Graph,
    base: int,
    *,
    levels: Sequence[int] = LEVELS,
    stab: Optional[PermGroup] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
) -> tuple[ChainReport, list[Optional[AlgebraBasis]]]:
    """Dims of the requested levels, adjacency equality flags, and the algebras.

    Level 4 is built first with ``build_T``, then levels 0-3 in ascending
    order, each passed the level below as ``below`` when that level was
    built and T4 as ``within`` when it was: level 1 is T0 + U⊗U, levels 2-3
    extend the basis below, and every closure stops at dim T4, so equal
    levels share one ``SpanBasis`` all the way up to T4's.  ``build_T``
    certifies the containment of ``below`` and of T4 from partition facts
    (see the module docstring) before it returns, so every flag between
    adjacent built levels is certified.  Without a given stabilizer, level
    4 and then level 3 each search it under the node budget and what is
    left of time_budget, which covers the whole chain.  A
    BudgetExceededError from either search leaves levels 3 and 4 None in
    the dims and the returned list, as are the levels not requested; levels
    0-2 are still built, without the cap when level 4 missed.  For each
    strict step the first basis matrix of the larger algebra outside the
    smaller one is kept as a witness.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    algs: list[Optional[AlgebraBasis]] = [None] * len(LEVELS)
    wanted = sorted(set(levels), key=lambda lvl: (lvl < 4, lvl))
    top = len(LEVELS)
    for lvl in wanted:
        if lvl >= top:
            continue
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.01)
        # T4 comes first, so it gets neither below nor within
        below = algs[lvl - 1] if lvl > 0 else None
        try:
            algs[lvl] = build_T(
                lvl, graph, base, stab=stab, node_budget=node_budget, time_budget=remaining,
                below=below, within=algs[4],
            )
        except BudgetExceededError:
            # only levels 3 and 4 search, so a miss ends the chain above level 2
            top = 3
            algs[top:] = [None] * (len(LEVELS) - top)
    flags: list[Optional[bool]] = [None] * 4
    witnesses: dict[int, np.ndarray] = {}
    for lvl in range(4):
        small, big = algs[lvl], algs[lvl + 1]
        if small is None or big is None:
            continue
        flags[lvl] = small.dim == big.dim
        if not flags[lvl]:
            outside = np.any(small.basis.reduce_block(big.basis.rows), axis=1)
            witnesses[lvl] = big.basis.rows[int(np.argmax(outside))].reshape(graph.n, graph.n)
    dims = tuple(None if alg is None else alg.dim for alg in algs)
    return ChainReport(dims=dims, equal_next=tuple(flags), witnesses=witnesses), algs


def corner(algebra: AlgebraBasis | SpanBasis, vertices) -> SpanBasis:
    """Basis of E_Y * A * E_Y: every basis element compressed to the subset."""
    basis = algebra.basis if isinstance(algebra, AlgebraBasis) else algebra
    n = basis.side
    e = idempotent_for_set(n, vertices)
    out = SpanBasis(n)
    out.insert_block(exact_matmul(exact_matmul(e, basis.rows.reshape(-1, n, n)), e).reshape(basis.dim, n * n))
    return out


def is_commutative(basis: SpanBasis | AlgebraBasis) -> bool:
    """All pairwise commutators of basis elements vanish (exact)."""
    if isinstance(basis, AlgebraBasis):
        basis = basis.basis
    mats = basis.matrices()
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.any(exact_matmul(mats[i], mats[j]) - exact_matmul(mats[j], mats[i])):
                return False
    return True


def principal_row_dim(algebra: AlgebraBasis, base: Optional[int] = None) -> int:
    """Rank of the base-vertex row space {row x0 of B : B in basis}.

    This is the dimension of the module generated by the base idempotent.
    """
    if base is None:
        base = algebra.base
    if algebra.level < 1:
        raise ValueError("needs a level >= 1 algebra")
    return linalg.row_space_rank(algebra.basis.rows.reshape(algebra.dim, algebra.n, algebra.n)[:, base])


def _delete_vertex(graph: Graph, v: int) -> tuple[Graph, list[int]]:
    """Graph minus one vertex; returns it plus the old->new index map."""
    keep = [u for u in range(graph.n) if u != v]
    newidx = {u: i for i, u in enumerate(keep)}
    edges = [(newidx[a], newidx[b]) for a, b in graph.edges() if v not in (a, b)]
    return Graph(graph.n - 1, edges), keep


def pendant_reduction_check(graph: Graph, pendant: int, level: int = 2, **kwargs) -> bool:
    """Compressing away a pendant base vertex matches the smaller graph's algebra.

    For a degree-one base vertex x0 with neighbor x1, the compression of the
    level-2 or level-3 algebra to the other vertices equals the same algebra
    of the vertex-deleted graph based at x1, both as exact spans and in
    Wedderburn type up to the block of the neighbor idempotent growing by
    one.
    """
    if level not in (2, 3):
        raise ValueError("reduction applies to levels 2 and 3")
    if graph.degree(pendant) != 1:
        raise ValueError(f"vertex {pendant} is not pendant")
    x1 = graph.neighbors(pendant)[0]
    big = build_T(level, graph, pendant, **kwargs)
    small_graph, keep = _delete_vertex(graph, pendant)
    x1_small = keep.index(x1)
    small = build_T(level, small_graph, x1_small, **kwargs)
    compressed = corner(big, [u for u in range(graph.n) if u != pendant])
    # embed the smaller algebra's basis into the big matrix space
    embedded = SpanBasis(graph.n)
    for m in small.basis.matrices():
        full = np.zeros((graph.n, graph.n), dtype=m.dtype)
        for i, u in enumerate(keep):
            for j, w in enumerate(keep):
                full[u, w] = m[i, j]
        embedded.insert(full)
    if embedded.dim != compressed.dim:
        return False
    if not all(compressed.contains(m) for m in embedded.matrices()):
        return False
    # type bookkeeping: the block housing the neighbor idempotent grows by one
    from .structure import block_of_idempotent, wedderburn_decompose

    dec_small = wedderburn_decompose(small)
    dec_big = wedderburn_decompose(big)
    e_x1 = idempotent_for_set(small_graph.n, [x1_small])
    (blk,) = block_of_idempotent(dec_small, small, e_x1)
    grown = [n for n, _ in dec_small.type.blocks]
    grown[blk] += 1
    sizes_big = sorted(n for n, _ in dec_big.type.blocks)
    return sorted(grown) == sizes_big
