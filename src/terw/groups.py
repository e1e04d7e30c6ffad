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

import functools
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


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """Orbit index of each point under the maps of a (k, m) image table.

    Orbits are numbered 0, 1, ... by their smallest point.  Min-label
    propagation with pointer jumping: each round gives every point the
    smallest label among itself and its images, then the label of that
    label.  Labels only fall and always name a point of the same orbit, so
    the loop ends; once nothing moves, no map lowers a label, so each label
    is constant along every cycle of every map, hence is the orbit's
    smallest point.
    """
    lab = np.arange(images.shape[1])
    while True:
        new = np.minimum(lab, lab[images].min(0, initial=lab.size))
        new = new[new]
        if np.array_equal(new, lab):
            return np.unique(lab, return_inverse=True)[1]
        lab = new


def _image_table(group: PermGroup) -> np.ndarray:
    return np.array([g.images for g in group.gens], dtype=np.intp).reshape(len(group.gens), group.n)


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits; for a stabilizer the base's cell is listed first."""

    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OrbitalPartition:
    """Orbits on ordered pairs under the diagonal action: ``labels[x*n+y]``
    is the orbital of the pair (x, y), numbered by smallest pair code."""

    n: int
    labels: np.ndarray

    @property
    def count(self) -> int:
        return int(self.labels.max(initial=-1)) + 1


def vertex_orbits(group: PermGroup, base: Optional[int] = None) -> OrbitPartition:
    """Orbit cells of the generator action on points, smallest member first.

    With base given, the base's cell is moved to the front (the convention
    for stabilizer orbit idempotents).
    """
    labels = _orbit_labels(_image_table(group))
    cells = [tuple(np.flatnonzero(labels == k).tolist()) for k in range(labels.max(initial=-1) + 1)]
    if base is not None:
        cells.sort(key=lambda c: (base not in c, c[0]))
    return OrbitPartition(cells=tuple(cells))


def orbitals(group: PermGroup) -> OrbitalPartition:
    """Orbits of ordered vertex pairs under the diagonal generator action.

    A pair (x, y) is handled as its code x*n + y.
    """
    n, img = group.n, _image_table(group)
    pair_images = (img[:, :, None] * n + img[:, None, :]).reshape(len(img), n * n)
    return OrbitalPartition(n=n, labels=_orbit_labels(pair_images))


def orbital_matrices(partition: OrbitalPartition) -> list[np.ndarray]:
    """0/1 indicator matrix of each orbital; the list sums to the all-ones matrix."""
    n = partition.n
    cells = partition.labels == np.arange(partition.count)[:, None]
    return list(cells.astype(np.int64).reshape(-1, n, n))


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


def _run_search(graph: Graph, init_cells: list[tuple[int, ...]], node_budget: int, deadline: Optional[float], origin: str) -> PermGroup:
    state = _SearchState(graph=graph, node_budget=node_budget, deadline=deadline)
    cells = _refine(graph._bits, init_cells)
    _search(state, cells, cells, True)
    # _search appends a permutation only after is_automorphism passed at its leaf
    return PermGroup(n=graph.n, gens=tuple(state.gens), origin=origin)


def automorphism_group(
    graph: Graph,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
) -> PermGroup:
    """Generating set of the full automorphism group, by backtracking search;
    BudgetExceededError past node_budget nodes or the ``time.monotonic()`` deadline."""
    return _run_search(graph, [tuple(range(graph.n))], node_budget, deadline, "computed-by-search")


@functools.lru_cache(maxsize=1)
def stabilizer(
    graph: Graph,
    base: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Optional[float] = None,
) -> PermGroup:
    """Generating set of the stabilizer of the base vertex.

    Runs the same backtracking with the base individualized up front rather
    than filtering the full group.  The last call's group is kept: a chain
    asks for the stabilizer at level 4 and again at level 3 with the same
    arguments, and the second call returns the first one's (frozen) group
    without a search.  A BudgetExceededError is not kept, so a repeated
    call searches again; once a search has succeeded, a repeat of it cannot
    miss its budget.
    """
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    if graph.n == 1:
        return PermGroup(n=1, gens=(), origin="computed-by-search")
    init = [(base,), tuple(v for v in range(graph.n) if v != base)]
    return _run_search(graph, init, node_budget, deadline, "computed-by-search")


# ---------------------------------------------------------------------------
# analytic generators for Paley graphs
# ---------------------------------------------------------------------------

def paley_stabilizer_generators(pc: PaleyConstruction) -> PermGroup:
    """Stabilizer of the zero vertex of a Paley graph, analytically.

    Generated by multiplication by xi^2 and the Frobenius x -> x^p, which
    act on the exponent e of xi^e as e -> e + 2 and e -> p*e (mod q - 1)
    and fix zero; vertex 1 + e // 2 holds xi^e for even e, vertex
    1 + (q - 1) / 2 + e // 2 for odd e (``PaleyConstruction.order``).  This
    avoids backtracking on strongly regular inputs.  Both generators are
    verified to preserve adjacency.
    """
    m = pc.q - 1
    exponents = [*range(0, m, 2), *range(1, m, 2)]

    def on_exponents(fn) -> Perm:
        images = (fn(e) % m for e in exponents)
        return Perm((0,) + tuple(1 + e // 2 + e % 2 * (m // 2) for e in images))

    sigma = on_exponents(lambda e: e + 2)
    frob = on_exponents(lambda e: pc.p * e)
    gens = [g for g in (sigma, frob) if not g.is_identity()]
    graph = pc.graph()
    if not all(is_automorphism(graph, g) for g in gens):
        raise CertificationError("analytic generator is not an automorphism")
    return PermGroup(n=pc.q, gens=tuple(gens), origin="analytic-family")
