"""Builders for the five nested algebras of a pointed graph.

Levels, for a connected graph with base vertex x0:

  0  unital algebra generated by the adjacency matrix A
  1  generated by A and the base-vertex idempotent
  2  generated by A and the diagonal idempotents of the distance partition
  3  generated by A and the idempotents of the stabilizer's vertex orbits
  4  span of the 0/1 orbital matrices of the stabilizer (the centralizer
     algebra); built directly as a span

Every level is a unital algebra closed under transpose and contains the
previous one.  Each fact is certified on construction from facts about the
partitions {x0}, distance cells, stabilizer orbits and orbitals, at cost
O(n^2 |gens|) and without elimination:

  * levels 0-3 are transpose-closed because every generator is symmetric
    (the transpose of a word is the reversed word); the identity is checked
    by one reduction;
  * level 4 is the commutant of the stabilizer, hence a unital
    transpose-closed algebra: its cells partition the vertex pairs, each is
    one generator orbit (``orbitals``), every stabilizer generator maps each
    cell onto itself, the diagonal pairs form whole cells and the transpose
    of a cell is a cell;
  * T_k lies in the algebra T_{k+1} once T_k's generators do: A generates
    levels 0-3, distance cell 0 is {x0}, each stabilizer orbit lies inside
    one distance cell, and A and every orbit idempotent are constant on each
    orbital cell.

A failed certificate raises CertificationError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, bfs_distance_partition
from .groups import DEFAULT_NODE_BUDGET, PermGroup, orbital_matrices, orbitals, stabilizer, vertex_orbits
from .linalg import SpanBasis, algebra_closure, exact_matmul

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
    # distance cells (level 2), orbit cells (level 3), or orbital cells as
    # pair codes x*n+y (level 4)
    cells: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def contains(self, mat) -> bool:
        return self.basis.contains(mat)


def _certify_unital_and_selfadjoint(basis: SpanBasis, gens: list[np.ndarray]) -> None:
    for g in gens:
        if not np.array_equal(g, g.T):
            raise CertificationError("a generator is not symmetric, so transpose closure fails")
    if not basis.contains(np.eye(basis.side, dtype=np.int64)):
        raise CertificationError("algebra misses the identity")


def _cell_labels(n: int, cells) -> np.ndarray:
    """Cell index of each pair code x*n+y; the cells must partition the pairs."""
    labels = np.full(n * n, -1, dtype=np.int64)
    for cid, cell in enumerate(cells):
        idx = np.asarray(cell, dtype=np.int64)
        if np.any(labels[idx] >= 0):
            raise CertificationError("orbital cells overlap")
        labels[idx] = cid
    if np.any(labels < 0):
        raise CertificationError("orbital cells miss a vertex pair")
    return labels


def _constant_on_cells(mat: np.ndarray, labels: np.ndarray) -> bool:
    flat = mat.reshape(-1)
    first = np.empty(int(labels.max()) + 1, dtype=flat.dtype)
    first[labels] = flat
    return np.array_equal(first[labels], flat)


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
) -> AlgebraBasis:
    """Exact basis of the level-0..4 algebra of (graph, base).

    Level 0 ignores the base vertex (the adjacency algebra does not depend
    on it) but records it.  Levels 3 and 4 need the base-vertex stabilizer:
    pass one in (e.g. an analytic Paley group) or it is found by search.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    if not graph.is_connected():
        raise ValueError("algebra builders need a connected graph")
    n = graph.n
    a = graph.adjacency_matrix()
    cells = None
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
        orbs = orbitals(group)
        cells = tuple(tuple(x * n + y for x, y in cell) for cell in orbs.cells)
        _certify_commutant(group, _cell_labels(n, cells))
        basis = SpanBasis(n)
        for m in orbital_matrices(orbs):
            basis.insert(m)
        return AlgebraBasis(
            level=4, base=base, n=n, basis=basis,
            generators=tuple(f"A[orbital {i}]" for i in range(len(cells))), cells=cells,
        )

    basis = algebra_closure(gens, side=n)
    _certify_unital_and_selfadjoint(basis, gens)
    return AlgebraBasis(level=level, base=base, n=n, basis=basis, generators=names, cells=cells)


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
    """T_k lies in T_{k+1}: every generator of T_k lies in the algebra T_{k+1}."""
    n, step = graph.n, small.level
    if any(alg.generators[0] != "A" for alg in (small, big) if alg.level < 4):
        raise CertificationError("A must generate levels 0-3")
    if step == 1 and big.cells[0] != (big.base,):
        raise CertificationError("distance cell 0 is not the base vertex")
    if step == 2:
        dist_cell = {v: k for k, cell in enumerate(small.cells) for v in cell}
        if sorted(v for cell in big.cells for v in cell) != list(range(n)):
            raise CertificationError("stabilizer orbits do not partition the vertices")
        if any(len({dist_cell[v] for v in cell}) != 1 for cell in big.cells):
            raise CertificationError("a stabilizer orbit meets two distance cells")
    if step == 3:
        labels = _cell_labels(n, big.cells)
        if not _constant_on_cells(graph.adjacency_matrix(), labels):
            raise CertificationError("A is not constant on an orbital cell; a stabilizer generator is not an automorphism")
        if not all(_constant_on_cells(idempotent_for_set(n, cell), labels) for cell in small.cells):
            raise CertificationError("an orbit idempotent is not constant on an orbital cell")


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

    The levels are built in ascending order with ``build_T``.  Without a
    given stabilizer, levels 3 and 4 each search it under the node budget
    and what is left of time_budget, which covers the whole chain.  A
    BudgetExceededError from a search ends the chain: that level and every
    level above it stay None in the dims and the returned list, as do the
    levels not requested.  For each pair of adjacent built levels,
    containment is certified from partition facts (see the module
    docstring) before its flag is set, and for each strict step the first
    basis matrix of the larger algebra outside the smaller one is kept as a
    witness.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    algs: list[Optional[AlgebraBasis]] = [None] * len(LEVELS)
    for lvl in sorted(set(levels)):
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.01)
        try:
            algs[lvl] = build_T(lvl, graph, base, stab=stab, node_budget=node_budget, time_budget=remaining)
        except BudgetExceededError:
            break
    flags: list[Optional[bool]] = [None] * 4
    witnesses: dict[int, np.ndarray] = {}
    for lvl in range(4):
        small, big = algs[lvl], algs[lvl + 1]
        if small is None or big is None:
            continue
        _certify_step(graph, small, big)
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
