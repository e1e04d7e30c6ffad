"""Builders for the five nested algebras of a pointed graph.

Levels, for a connected graph with base vertex x0:

  0  unital algebra generated by the adjacency matrix A
  1  generated by A and the base-vertex idempotent
  2  generated by A and the diagonal idempotents of the distance partition
  3  generated by A and the idempotents of the stabilizer's vertex orbits
  4  span of the 0/1 orbital matrices of the stabilizer (the centralizer
     algebra); read off its orbital labels, whose cell indicators sorted by
     smallest pair code already are the reduced echelon basis

Every level is a unital algebra closed under transpose and contains the
previous one.  Each fact either holds by construction or is certified on
construction from facts about partitions, without elimination: one check of
A on T4's orbital cells per base, and otherwise checks on vertex labels:

  * levels 0-3 are transpose-closed because every generator is symmetric
    (the transpose of a word is the reversed word): A comes from a ``Graph``,
    whose constructors force symmetry, and the idempotents are diagonal.
    Each holds the identity: T0's closure starts from span{I}, T1 takes in
    T0's rows or is U⊗U = M_n, levels 2-3 extend the level below, and a
    level that reaches dim T4 takes T4's basis, which holds I as the sum of
    its diagonal cells.  Neither fact is re-checked;
  * level 4 is a unital transpose-closed algebra by construction, the
    commutant of the stabilizer: its cells are the orbits of a group of
    bijections on the vertex pairs (``orbitals``), so they partition the
    pairs, every generator maps each cell onto itself, a diagonal pair's
    orbit is diagonal (so I is a sum of cells), and transposing commutes
    with the diagonal action (so the transpose of a cell is a cell);
  * A lies in T4 once it is constant on every orbital cell, which
    ``build_T`` checks where it reads the cells, at level 4
    (``_orbital_span``).  A stabilizer passed in must consist of
    automorphisms that fix x0 (else ValueError), so the check certifies the
    search;
  * level k <= 3 is generated by A and the idempotents of its vertex cells:
    none at level 0, {x0} at level 1, the distance cells at level 2 and the
    stabilizer orbits at level 3.  The idempotent of a union of cells is the
    sum of theirs, so T_k lies in T_{k+1} once each cell of T_k is a union
    of cells of T_{k+1}.  An orbital cell is all diagonal or all off the
    diagonal, so a diagonal matrix is constant on every orbital cell, and
    lies in T4, exactly when it is constant on the diagonal cells, the
    stabilizer orbits: T_k lies in T4 once each of its cells is a union of
    stabilizer orbits.  Both are checked on length-n vertex labels, before
    the closure, which runs inside T4 and needs its generators there.

A failed certificate raises CertificationError.

Each level has one construction, as in the paper: the level below plus the
idempotents of a finer vertex partition.  T4 comes first when level 3 needs
its group or a stabilizer is given (level 3 then takes the group of T4's
search: ``stabilizer`` keeps its last result).  Then ``_steps`` builds
levels 0..k in ascending order, each on the level below and inside T4 when
T4 is at hand; ``chain_with_algebras`` and a ``build_T`` from scratch run
these same steps:

  * T0 = <A> is span{I, A, ..., A^(k-1)}, k the number of distinct
    eigenvalues of A, so its closure inserts A's powers as one block after
    I (``algebra_closure`` with one generator).  It does not depend on the
    base vertex, so it is closed in full once per graph
    (``_adjacency_algebra`` keeps the last graph's, read-only) and each base
    wraps the kept rows; a T0 of dim T4 takes T4's basis object;
  * T1 is T0 + U⊗U, with U = span{A^i e_x0} = T0 e_x0 the base vertex's
    cyclic module, and needs no closure.  T0 + U⊗U holds A and
    E_x0 = e_x0 e_x0^T; each u v^T = A^i E_x0 A^j is a word; and the sum is
    closed under products, as B u v^T = (Bu) v^T and u v^T B = u (Bv)^T for
    B in the symmetric algebra T0, and u v^T u' v'^T = (v^T u') u v'^T.  The
    outer products of U's echelon rows are U⊗U's echelon basis, so T1 costs
    one block insert of T0's rows (``outer_square``).  Even that insert is
    skipped when U⊗U already has dim T4: U⊗U ⊆ T1 ⊆ T4, so then T1 = T4
    (certified inside T4 afterwards like every level).  Without T4 it is
    skipped when dim U = n, as U⊗U is then M_n, which holds T0.  Either case
    means U is the whole space, as U⊗U holds I only then;
  * levels 2-3 are generated by T_{k-1} and their own generators, so they
    extend the basis of the level below (``algebra_closure(...,
    below=...)``); a level equal to the one below costs one reduction and
    shares its basis object;
  * inside T4 (``within``) the closure of levels 2-3 runs on T4's d4 cell
    coordinates instead of the n² entries, to the same normal form
    (``linalg``), and every level stops once it reaches dim T4: a subspace
    of T4 of that dimension is T4, so that level takes T4's basis object,
    and equal levels share one object all the way up;
  * only the first build, with neither ``below`` nor ``within``, checks
    that the graph is connected, and A is read once per chain: by T4, by
    levels 1-3 from the level below, by level 0 from T0's memo.

A level is returned only after the certificates of its containment of the
level below and in T4 have passed.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, bfs_distance_partition
# orbital_matrices is not called here, level 4 is read off its cell labels;
# the name stays importable because bench/tracing.py wraps
# terw.algebras.orbital_matrices as a span site
from .groups import DEFAULT_NODE_BUDGET, PermGroup, orbital_matrices, orbitals, stabilizer, vertex_orbits  # noqa: F401
from .linalg import CellSpan, RowSpace, SpanBasis, algebra_closure, cell_span, outer_square

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
    # levels 0-3: the vertex cells whose idempotents generate the algebra
    # with A, () at level 0, ((base,),) at level 1, the distance cells at
    # level 2 and the orbit cells at level 3; None at level 4, whose
    # partition is cell_labels
    cells: Optional[tuple[tuple[int, ...], ...]] = None
    # the cell index of each vertex at levels 1-3 (-1 outside the cells), of
    # each pair code x*n+y (its orbital) at level 4; None at level 0
    cell_labels: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def contains(self, mat) -> bool:
        return self.basis.contains(mat)


@functools.lru_cache(maxsize=1)
def _adjacency_algebra(graph: Graph) -> tuple[np.ndarray, SpanBasis]:
    """A and the basis of T0 = <A>, with read-only arrays.

    T0 does not depend on the base vertex, and a scan builds the chains of
    one graph's bases in a row, so the last graph's A and T0 are kept and
    every later base wraps the same arrays in its own (shallow) copy of the
    ``SpanBasis``.  Nothing writes them: a basis that grows replaces its
    rows array.
    """
    a = graph.adjacency_matrix()
    basis = algebra_closure([a], side=graph.n)
    for arr in (a, basis.rows, basis._piv):
        arr.setflags(write=False)
    return a, basis


def _orbital_span(a: np.ndarray, group: PermGroup, given: bool) -> CellSpan:
    """T4 of a stabilizer, read off its orbital labels once A is certified on them.

    The cells need no check: the orbits of a group of bijections partition
    the pairs, every generator preserves them, a diagonal pair's orbit is
    diagonal, and transposing commutes with the diagonal action.  A is
    constant on the orbitals of <gens> exactly when every generator is an
    automorphism: a ValueError for a given group, a CertificationError for
    a searched one.
    """
    labels = orbitals(group).labels
    if not _constant_on_cells(a, labels):
        if given:
            raise ValueError("a stabilizer generator is not an automorphism of the graph")
        raise CertificationError("A is not constant on an orbital cell; a stabilizer generator is not an automorphism")
    return cell_span(group.n, labels)


def _constant_on_cells(mats: np.ndarray, labels: np.ndarray) -> bool:
    """A matrix, or each matrix of a stack, is constant on every cell."""
    flat = mats.reshape(-1, labels.size)
    first = np.empty((len(flat), int(labels.max()) + 1), dtype=flat.dtype)
    first[:, labels] = flat
    return np.array_equal(first[:, labels], flat)


def _vertex_labels(n: int, cells) -> np.ndarray:
    """Each vertex's cell index, -1 outside the cells."""
    labels = np.full(n, -1, dtype=np.intp)
    for k, cell in enumerate(cells):
        labels[list(cell)] = k
    return labels


def _steps(graph: Graph, base: int, top: int, within: Optional[AlgebraBasis], **search) -> list[AlgebraBasis]:
    """Levels 0..top of (graph, base), each built on the level below, inside T4 when given."""
    algs: list[AlgebraBasis] = []
    for lvl in range(top + 1):
        algs.append(build_T(lvl, graph, base, below=algs[-1] if algs else None, within=within, **search))
    return algs


def build_T(
    level: int,
    graph: Graph,
    base: int,
    *,
    stab: Optional[PermGroup] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
    below: Optional[AlgebraBasis] = None,
    within: Optional[AlgebraBasis] = None,
) -> AlgebraBasis:
    """Exact basis of the level-0..4 algebra of (graph, base).

    Each level is built one way: level 0 is the graph's one kept T0 (it
    ignores the base vertex but records it), read-only; level 4 is read off
    the orbital labels of the base-vertex stabilizer, whose cells already
    are the normal form, once A is certified constant on them; levels 1-3
    are one step on ``below``, the level-(level-1) algebra of the same
    (graph, base), inside ``within``, its level-4 algebra, when that is
    given (see the module docstring).  Levels 0-3 are generated by A and
    the idempotents of their vertex cells (``AlgebraBasis.cells``).

    Levels 3 and 4 need the stabilizer: pass one in (e.g. an analytic Paley
    group) or it is found by search, which keeps its last group, so level 3
    after level 4 with the same arguments searches no more; a search past
    node_budget nodes or the deadline (a ``time.monotonic()`` instant) is a
    BudgetExceededError.  A given generator that moves the base vertex or
    is no automorphism is a ValueError (a searched group that fails the
    check of A on its orbitals is a CertificationError).

    A missing input is built first, as the chain builds it: T4 when
    ``within`` is missing at level 3, or at levels 1-2 with a given
    stabilizer, then levels 0..level-1 (``_steps``) when ``below`` is
    missing.  A level
    equal to the one below returns below's very basis object, and one equal
    to T4 returns T4's.  Before a level is returned, each of below's cells
    is certified a union of this level's cells, and each of this level's a
    union of stabilizer orbits, T4's diagonal cells (A was certified when
    T4 was built).  The first build of a chain, with neither ``below`` nor
    ``within``, checks that the graph is connected.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    if below is not None and (level == 4 or (below.level, below.base, below.n) != (level - 1, base, graph.n)):
        raise ValueError("below must be the algebra one level down of the same graph and base, given to levels 1-3")
    if within is not None and (level == 4 or (within.level, within.base, within.n) != (4, base, graph.n)):
        raise ValueError("within must be the level-4 algebra of the same graph and base, given to levels 0-3")
    if level in (1, 2, 3):
        if within is None and (level == 3 or stab is not None):
            within = build_T(4, graph, base, stab=stab, node_budget=node_budget, deadline=deadline)
        if below is None:
            below = _steps(graph, base, level - 1, within, stab=stab, node_budget=node_budget, deadline=deadline)[-1]
    # a chain checks the graph and reads A once: levels 1-3 take A from below, level 0 from T0's memo
    if below is None and within is None and not graph.is_connected():
        raise ValueError("algebra builders need a connected graph")
    n = graph.n
    if below is not None:
        a = below.generator_matrices[0]
    elif level == 0:
        a = _adjacency_algebra(graph)[0]
    else:
        a = graph.adjacency_matrix()
    if level >= 3:
        group = stab if stab is not None else stabilizer(graph, base, node_budget=node_budget, deadline=deadline)
        # a searched group fixes the base by construction; a given one need not
        if group.n != n:
            raise ValueError(f"stabilizer acts on {group.n} points, the graph has {n}")
        if any(g(base) != base for g in group.gens):
            raise ValueError(f"a stabilizer generator moves the base vertex {base}")
    if level == 4:
        container = _orbital_span(a, group, given=stab is not None)
        basis, cells, labels = container, None, container.cells
        # a basis generates its own span
        gens = basis.rows.reshape(-1, n, n)
        names = tuple(f"A[orbital {i}]" for i in range(basis.dim))
    else:
        container = None if within is None else within.basis
        cells = ()
        if level == 1:
            cells = ((base,),)
        elif level == 2:
            cells = bfs_distance_partition(graph, base).cells
        elif level == 3:
            cells = vertex_orbits(group, base=base).cells
        gens = [a] + [idempotent_for_set(n, c) for c in cells]
        tags = [f"{{{base}}}"] if level == 1 else [f"{'XY'[level - 2]}{k}" for k in range(len(cells))]
        names = ("A",) + tuple(f"E[{tag}]" for tag in tags)
        labels = _vertex_labels(n, cells) if cells else None
    # A generates levels 0-3 and lies in T4, so only the cells' idempotents need a certificate:
    # each cell is a union of finer cells when its labels are constant on every finer cell.
    # Both run before the closure, which runs inside T4 and needs its generators there.
    if cells:
        if below is not None and below.cells and not _constant_on_cells(below.cell_labels, labels):
            raise CertificationError("a cell of the level below is not a union of this level's cells")
        if container is not None and not _constant_on_cells(labels, container.cells[:: n + 1]):
            raise CertificationError("a cell is not a union of stabilizer orbits")
    if level == 0:
        # one T0 per graph (_adjacency_algebra); T0 ⊆ T4, so equal dims make it T4
        basis = copy.copy(_adjacency_algebra(graph)[1])
        if within is not None and basis.dim == within.dim:
            basis = within.basis
    elif level == 1:
        # T1 = T0 + U⊗U, U = T0 e_x0 (see the module docstring)
        module = RowSpace(n)
        module.insert_block(below.basis.rows.reshape(-1, n, n)[:, :, base])
        basis = outer_square(module)
        # U⊗U ⊆ T1 ⊆ T4 (or M_n without T4): U⊗U of that dimension already is T1
        if basis.dim < (n * n if within is None else within.dim):
            basis.insert_block(below.basis.rows)
        if basis.dim == below.dim:
            basis = below.basis
        elif within is not None and basis.dim == within.dim:
            basis = within.basis
    elif level < 4:
        # a closure that adds nothing returns below's basis object, one that reaches dim T4 T4's
        basis = algebra_closure(gens, side=n, below=below.basis, within=container)
    # levels 0-3 are unital and transpose-closed by construction (see the module docstring)
    return AlgebraBasis(
        level=level,
        base=base,
        n=n,
        basis=basis,
        generators=names,
        generator_matrices=np.asarray(gens),
        cells=cells,
        cell_labels=labels,
    )


def equal_flags(dims: Sequence[Optional[int]]) -> tuple[Optional[bool], ...]:
    """Whether each level equals the next, None beside a level not built; adjacent
    built levels are certified nested, so equal dims mean equal algebras."""
    return tuple(None if lo is None or hi is None else lo == hi for lo, hi in zip(dims, dims[1:]))


def witness(small: AlgebraBasis, big: AlgebraBasis) -> Optional[np.ndarray]:
    """The first basis matrix of ``big`` outside ``small``, None when there
    is none (for adjacent levels of a chain: when they are equal)."""
    outside = np.any(small.basis.reduce_block(big.basis.rows), axis=1)
    if not outside.any():
        return None
    return big.basis.rows[int(np.argmax(outside))].reshape(big.n, big.n)


@dataclass(frozen=True)
class ChainReport:
    """Dimensions along the chain of the five algebras.

    A level that was not built (not requested, or cut off by a search budget
    miss) has dim None, and the flags beside it are None.
    """

    dims: tuple[Optional[int], ...]

    @property
    def equal_next(self) -> tuple[Optional[bool], ...]:
        return equal_flags(self.dims)


def chain_with_algebras(
    graph: Graph,
    base: int,
    *,
    levels: Sequence[int] = LEVELS,
    stab: Optional[PermGroup] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
) -> tuple[ChainReport, list[Optional[AlgebraBasis]]]:
    """Dims of the requested levels, and the algebras.

    T4 is built first with ``build_T`` when level 3 or 4 is requested or a
    stabilizer is given, then every level from 0 up to the highest
    requested one below 4, each one step on the level below and inside T4
    when it was built (``_steps``, the steps of a ``build_T`` from
    scratch): level 1 is T0 + U⊗U, levels 2-3 extend the basis below, and
    every level stops at dim T4, so equal levels share one ``SpanBasis``
    all the way up to T4's.  ``build_T`` certifies the containment of the
    level below and of T4 from partition facts (see the module docstring)
    before it returns, so every flag between adjacent built levels is
    certified.  Without a given stabilizer, T4 searches it under the node
    budget and the one ``time.monotonic()`` deadline, and level 3 asks
    again with the same arguments and gets the kept group without a search.
    A BudgetExceededError from T4's search leaves levels 3 and 4 None, and
    levels 0-2 are built without T4.  Only the requested levels are
    reported: the others are None in the dims and the returned list.
    ``witness`` gives, on request, a matrix of a strict step's larger
    algebra outside the smaller one.
    """
    wanted = set(levels)
    search = dict(stab=stab, node_budget=node_budget, deadline=deadline)
    top = max((lvl for lvl in wanted if lvl < 4), default=-1)
    t4 = None
    if stab is not None or wanted & {3, 4}:
        try:
            t4 = build_T(4, graph, base, **search)
        except BudgetExceededError:
            # level 3 needs the group that search missed, so a miss ends the chain above level 2
            top = min(top, 2)
    built = _steps(graph, base, top, t4, **search) + [None] * (3 - top) + [t4]
    algs = [alg if lvl in wanted else None for lvl, alg in enumerate(built)]
    return ChainReport(dims=tuple(None if alg is None else alg.dim for alg in algs)), algs
