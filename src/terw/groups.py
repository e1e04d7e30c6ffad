"""Automorphism groups, base-vertex stabilizers, orbits, and orbitals.

The search is an equitable-partition-refinement backtracking over pairs of
ordered partitions.  The left partition follows one fixed individualization
path; the right partition ranges over the candidates, so the leaves
enumerate automorphisms.  Discovered automorphisms prune the remaining
candidates along the leftmost path, and off the leftmost path a single
witness per subtree suffices, which keeps star-like graphs with huge
stabilizers tractable.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, PaleyConstruction

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class Perm:
    """Permutation of 0..n-1 stored by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images must be a bijection on 0..n-1")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


def is_automorphism(graph: Graph, perm: Perm) -> bool:
    """Exhaustive edge/non-edge preservation check."""
    if perm.n != graph.n:
        return False
    img = perm.images
    for v in range(graph.n):
        mapped = 0
        b = graph.bits(v)
        while b:
            low = b & -b
            mapped |= 1 << img[low.bit_length() - 1]
            b ^= low
        if mapped != graph.bits(img[v]):
            return False
    return True


@dataclass(frozen=True)
class PermGroup:
    """Permutation group given by a generator list (identity = empty product)."""

    n: int
    gens: tuple[Perm, ...]
    origin: str = "computed-by-search"

    def __post_init__(self):
        for g in self.gens:
            if g.n != self.n:
                raise ValueError("generator degree mismatch")


def point_orbit(points: Iterable[int], images: Sequence[Sequence[int]]) -> set[int]:
    """Orbit of a set of points under the maps given by their image tables."""
    orbit = set(points)
    queue = deque(orbit)
    while queue:
        u = queue.popleft()
        for img in images:
            w = img[u]
            if w not in orbit:
                orbit.add(w)
                queue.append(w)
    return orbit


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits; for a stabilizer the base's cell is listed first."""

    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OrbitalPartition:
    """Orbits on ordered pairs under the diagonal action."""

    n: int
    cells: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.cells)


def vertex_orbits(group: PermGroup, base: Optional[int] = None) -> OrbitPartition:
    """Orbit cells of the generator action on points, smallest member first.

    With base given, the base's cell is moved to the front (the convention
    for stabilizer orbit idempotents).
    """
    n = group.n
    images = [g.images for g in group.gens]
    seen = [False] * n
    cells = []
    for v in range(n):
        if seen[v]:
            continue
        orbit = sorted(point_orbit((v,), images))
        for u in orbit:
            seen[u] = True
        cells.append(tuple(orbit))
    if base is not None:
        cells.sort(key=lambda c: (base not in c, c[0]))
    return OrbitPartition(cells=tuple(cells))


def orbitals(group: PermGroup) -> OrbitalPartition:
    """Orbits of ordered vertex pairs under the diagonal generator action.

    A pair (x, y) is handled as its code x*n + y.
    """
    n = group.n
    pair_images = [
        [img[x] * n + img[y] for x in range(n) for y in range(n)]
        for img in (g.images for g in group.gens)
    ]
    seen = [False] * (n * n)
    cells = []
    for start in range(n * n):
        if seen[start]:
            continue
        members = sorted(point_orbit((start,), pair_images))
        for c in members:
            seen[c] = True
        cells.append(tuple(divmod(c, n) for c in members))
    return OrbitalPartition(n=n, cells=tuple(cells))


def orbital_matrices(partition: OrbitalPartition) -> list[np.ndarray]:
    """0/1 indicator matrix of each orbital; the list sums to the all-ones matrix."""
    out = []
    for cell in partition.cells:
        m = np.zeros((partition.n, partition.n), dtype=np.int64)
        for x, y in cell:
            m[x, y] = 1
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# equitable refinement + backtracking search
# ---------------------------------------------------------------------------

def _refine(bits: Sequence[int], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement of an ordered partition (iterate to fixpoint).

    Cells split by neighbor counts toward every cell; pieces are ordered by
    count, so the refined cell order is isomorphism-equivariant.
    """
    cells = list(cells)
    changed = True
    while changed:
        changed = False
        for wi in range(len(cells)):
            wmask = 0
            for v in cells[wi]:
                wmask |= 1 << v
            new_cells: list[tuple[int, ...]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((bits[v] & wmask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for count in sorted(groups):
                        new_cells.append(tuple(groups[count]))
            cells = new_cells
            if changed:
                break
    return cells


def _individualize(cells: list[tuple[int, ...]], ci: int, v: int) -> list[tuple[int, ...]]:
    out = list(cells)
    rest = tuple(u for u in cells[ci] if u != v)
    out[ci : ci + 1] = [(v,), rest]
    return out


@dataclass
class _SearchState:
    graph: Graph
    node_budget: int
    deadline: Optional[float]
    nodes: int = 0
    gens: list[Perm] = field(default_factory=list)
    base_path: list[int] = field(default_factory=list)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(f"search exceeded {self.node_budget} nodes")
        if self.deadline is not None and self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceededError("search exceeded its time budget")


def _search(state: _SearchState, left: list[tuple[int, ...]], right: list[tuple[int, ...]], on_leftmost: bool) -> bool:
    state.tick()
    graph = state.graph
    target = -1
    best = 1
    for i, cell in enumerate(left):
        if len(cell) > best:
            target = i
            best = len(cell)
    if target < 0:
        # both partitions discrete: positional map is the candidate bijection
        images = [0] * graph.n
        for (lv,), (rv,) in zip(left, right):
            images[lv] = rv
        perm = Perm(tuple(images))
        if perm.is_identity():
            return False
        if is_automorphism(graph, perm):
            state.gens.append(perm)
            return True
        return False

    v = left[target][0]
    left2 = _refine(graph._bits, _individualize(left, target, v))
    shape = [len(c) for c in left2]
    found = False
    tried: list[int] = []
    candidates = list(right[target])
    if on_leftmost and v in candidates:
        candidates.remove(v)
        candidates.insert(0, v)
    for u in candidates:
        if on_leftmost and tried:
            fixing = [g.images for g in state.gens if all(g(b) == b for b in state.base_path)]
            if u in point_orbit(tried, fixing):
                continue
        right2 = _refine(graph._bits, _individualize(right, target, u))
        if [len(c) for c in right2] != shape:
            continue
        deeper_leftmost = on_leftmost and u == v
        if deeper_leftmost:
            state.base_path.append(v)
        res = _search(state, left2, right2, deeper_leftmost)
        if deeper_leftmost:
            state.base_path.pop()
        found = found or res
        if not on_leftmost and res:
            return True
        if on_leftmost:
            tried.append(u)
    return found


def _run_search(graph: Graph, init_cells: list[tuple[int, ...]], node_budget: int, time_budget: Optional[float], origin: str) -> PermGroup:
    deadline = None if time_budget is None else time.monotonic() + time_budget
    state = _SearchState(graph=graph, node_budget=node_budget, deadline=deadline)
    cells = _refine(graph._bits, init_cells)
    _search(state, cells, cells, True)
    if not all(is_automorphism(graph, g) for g in state.gens):
        raise CertificationError("search returned a permutation that is not an automorphism")
    return PermGroup(n=graph.n, gens=tuple(state.gens), origin=origin)


def automorphism_group(
    graph: Graph,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
) -> PermGroup:
    """Generating set of the full automorphism group, by backtracking search."""
    return _run_search(graph, [tuple(range(graph.n))], node_budget, time_budget, "computed-by-search")


def stabilizer(
    graph: Graph,
    base: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
) -> PermGroup:
    """Generating set of the stabilizer of the base vertex.

    Runs the same backtracking with the base individualized up front rather
    than filtering the full group.
    """
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    if graph.n == 1:
        return PermGroup(n=1, gens=(), origin="computed-by-search")
    init = [(base,), tuple(v for v in range(graph.n) if v != base)]
    return _run_search(graph, init, node_budget, time_budget, "computed-by-search")


# ---------------------------------------------------------------------------
# analytic generators for Paley graphs
# ---------------------------------------------------------------------------

def _perm_from_field_map(pc: PaleyConstruction, fn) -> Perm:
    return Perm(tuple(pc.index[fn(x)] for x in pc.order))


def paley_stabilizer_generators(pc: PaleyConstruction) -> PermGroup:
    """Stabilizer of the zero vertex of a Paley graph, analytically.

    Generated by multiplication by xi^2 and the Frobenius x -> x^p; this
    avoids backtracking on strongly regular inputs.  Both generators are
    verified to preserve adjacency.
    """
    f = pc.gf()
    xi2 = f.mul(pc.xi, pc.xi)
    sigma = _perm_from_field_map(pc, lambda x: f.mul(x, xi2))
    frob = _perm_from_field_map(pc, lambda x: f.pow(x, pc.p))
    gens = [g for g in (sigma, frob) if not g.is_identity()]
    graph = pc.graph()
    if not all(is_automorphism(graph, g) for g in gens):
        raise CertificationError("analytic generator is not an automorphism")
    return PermGroup(n=pc.q, gens=tuple(gens), origin="analytic-family")
