"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route different from the
package's own: brute-force permutation filtering for automorphisms, a
string-of-bits graph6 encoder, common-neighbor counting for strong
regularity, products and memberships checked by exact elimination where
the package certifies closure and containment from partition facts, a
row-at-a-time elimination and closure where the package works a block of
rows at a time, and a fully exact Wedderburn type via minimal-polynomial
factorization with rational projector arithmetic (sympy).  It also holds
graph invariants that only the tests compare against: the exact
characteristic polynomial and spectrum summary, distance regularity, strong
regularity with its parameters, the complement and degree sequence, the
full Paley automorphism group, permutation products, inverses and cycles,
and group orders by orbit-stabilizer recursion, and the center of an
algebra from full commutators with every basis element, where the package
reads commutators with a generating set at the pivot entries.  Last, the
analysis helpers no runtime path calls: corner compressions, exact
commutativity, the rank of the base-vertex row space, the blocks an
idempotent meets, a thinness certificate, and the pendant-vertex reduction.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np
import sympy

from terw.algebras import AlgebraBasis, build_T, idempotent_for_set
from terw.errors import CertificationError
from terw.graphs import Graph, PaleyConstruction
from terw.groups import Perm, PermGroup, is_automorphism, paley_stabilizer_generators
from terw.linalg import RowSpace, SpanBasis, as_int_matrix, exact_matmul
from terw.structure import WedderburnDecomposition, wedderburn_decompose

# absolute gap below which two numerically computed adjacency eigenvalues
# are treated as equal; misclustering is caught by the exact distinct count
EIG_CLUSTER_TOL = 1e-7


class ToleranceError(RuntimeError):
    """A floating-point step disagreed with an exact cross-check."""


def brute_automorphisms(graph: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every permutation (n <= 8 or so)."""
    edges = graph.edges()
    out = []
    for p in itertools.permutations(range(graph.n)):
        if all(graph.has_edge(p[u], p[v]) for u, v in edges):
            out.append(p)
    return out


def brute_stabilizer_orbits(graph: Graph, base: int) -> list[tuple[int, ...]]:
    """Vertex orbits of the base stabilizer, computed from all automorphisms."""
    perms = [p for p in brute_automorphisms(graph) if p[base] == base]
    seen = set()
    cells = []
    for v in range(graph.n):
        if v in seen:
            continue
        orbit = sorted({p[v] for p in perms})
        seen.update(orbit)
        cells.append(tuple(orbit))
    return cells


def find_isomorphism(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """A vertex bijection carrying g1 onto g2, or None (brute force)."""
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return None
    if sorted(degree_sequence(g1)) != sorted(degree_sequence(g2)):
        return None
    edges = g1.edges()
    for p in itertools.permutations(range(g1.n)):
        if all(g2.has_edge(p[u], p[v]) for u, v in edges):
            return p
    return None


def hand_graph6(graph: Graph) -> bytes:
    """graph6 encoder written directly from the format definition.

    Builds the upper-triangle bit string column by column as text, pads to a
    multiple of six, and adds 63 to each 6-bit group; the size header is
    either one byte or the 126-prefixed 18-bit form.
    """
    n = graph.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if graph.has_edge(i, j) else "0"
    while len(bits) % 6:
        bits += "0"
    body = [int(bits[k : k + 6], 2) + 63 for k in range(0, len(bits), 6)]
    return bytes(head + body)


def is_multiplicatively_closed(basis: SpanBasis, pairs=None) -> bool:
    """Products of basis representatives stay in the span, by elimination.

    With pairs=None every ordered pair is checked.
    """
    mats = basis.matrices()
    d = len(mats)
    if pairs is None:
        pairs = ((i, j) for i in range(d) for j in range(d))
    return all(basis.contains(exact_matmul(mats[i], mats[j])) for i, j in pairs)


# ---------------------------------------------------------------------------
# row-at-a-time exact elimination and closure
# ---------------------------------------------------------------------------

_ROW_INT64_LIMIT = 2**62


def _row_maxabs(v: np.ndarray) -> int:
    return max(int(v.max()), -int(v.min())) if v.size else 0


def _row_object(v: np.ndarray) -> np.ndarray:
    return v if v.dtype == object else v.astype(object)


def _row_fit(v: np.ndarray) -> np.ndarray:
    if v.dtype == object and _row_maxabs(v) < _ROW_INT64_LIMIT:
        return v.astype(np.int64)
    return v


def _row_combine(p: int, v: np.ndarray, c: int, b: np.ndarray) -> np.ndarray:
    """Exact p*v - c*b."""
    if v.dtype != object and b.dtype != object:
        if abs(p) * _row_maxabs(v) + abs(c) * _row_maxabs(b) < _ROW_INT64_LIMIT:
            return p * v - c * b
    return _row_object(v) * p - _row_object(b) * c


def _row_primitive(v: np.ndarray) -> np.ndarray:
    """Divide by the content and make the leading nonzero entry positive."""
    g = 0
    for x in v.tolist():
        g = math.gcd(g, x)
    if g > 1:
        v = v // g
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return _row_fit(v)


class RowwiseSpan:
    """Reduced echelon basis kept as a list of primitive rows with positive
    pivots, changed one inserted vector at a time (the normal form of
    ``terw.linalg.RowSpace``, reached by a different route)."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, vec) -> np.ndarray:
        v = np.asarray(vec)
        v = v.copy() if v.dtype == object else v.astype(np.int64)
        for piv, row in zip(self.pivots, self.rows):
            c = int(v[piv])
            if c:
                v = _row_fit(_row_combine(int(row[piv]), v, c, row))
        return v

    def insert(self, vec) -> np.ndarray | None:
        v = self.reduce(vec)
        if not np.any(v):
            return None
        v = _row_primitive(v)
        piv = int(np.flatnonzero(v)[0])
        pv = int(v[piv])
        for i, row in enumerate(self.rows):
            c = int(row[piv])
            if c:
                self.rows[i] = _row_primitive(_row_combine(pv, row, c, v))
        pos = bisect_left(self.pivots, piv)
        self.pivots.insert(pos, piv)
        self.rows.insert(pos, v)
        return v


def rowwise_closure(generators, side: int | None = None) -> RowwiseSpan:
    """Unital algebra closure, one product at a time from a FIFO worklist:
    the identity and the generators, then each generator times each stored
    row, in order; products in Python integers."""
    gens = [as_int_matrix(g, side) for g in generators]
    side = side if side is not None else gens[0].shape[0]
    basis = RowwiseSpan(side * side)
    queue: deque[np.ndarray] = deque()
    for seed in [np.eye(side, dtype=np.int64)] + gens:
        row = basis.insert(seed.reshape(-1))
        if row is not None:
            queue.append(row.reshape(side, side).copy())
    while queue:
        m = queue.popleft()
        for g in gens:
            row = basis.insert(_row_fit(np.dot(_row_object(g), _row_object(m))).reshape(-1))
            if row is not None:
                queue.append(row.reshape(side, side).copy())
    return basis


def complement(graph: Graph) -> Graph:
    mask = (1 << graph.n) - 1
    return Graph.from_bits(~graph.bits(v) & mask & ~(1 << v) for v in range(graph.n))


def degree_sequence(graph: Graph) -> list[int]:
    return [graph.degree(v) for v in range(graph.n)]


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters."""

    n: int
    k: int
    lam: int
    mu: int

    def feasible(self) -> bool:
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu


def is_strongly_regular(graph: Graph) -> Optional[SrgParams]:
    """Parameters of a primitive strongly regular graph, or None.

    Primitive means both the graph and its complement are connected, which
    excludes complete and complete multipartite cases.
    """
    n = graph.n
    if not graph.is_connected() or not complement(graph).is_connected():
        return None
    degs = degree_sequence(graph)
    k = degs[0]
    if any(d != k for d in degs):
        return None
    lam = mu = None
    for u in range(n):
        bu = graph.bits(u)
        for v in range(u + 1, n):
            common = (bu & graph.bits(v)).bit_count()
            if graph.has_edge(u, v):
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        return None
    params = SrgParams(n=n, k=k, lam=lam, mu=mu)
    if not params.feasible():
        raise CertificationError(f"measured parameters {params} violate the feasibility identity")
    return params


def brute_srg_params(graph: Graph):
    """(n,k,lam,mu) by direct common-neighbor counting, or None."""
    n = graph.n
    if not graph.is_connected() or not complement(graph).is_connected():
        return None
    degs = {graph.degree(v) for v in range(n)}
    if len(degs) != 1:
        return None
    k = degs.pop()
    lams, mus = set(), set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            common = len(set(graph.neighbors(u)) & set(graph.neighbors(v)))
            (lams if graph.has_edge(u, v) else mus).add(common)
    if len(lams) == 1 and len(mus) == 1:
        return (n, k, lams.pop(), mus.pop())
    return None


# ---------------------------------------------------------------------------
# exact Wedderburn type via minimal-polynomial factorization
# ---------------------------------------------------------------------------

def exact_wedderburn_type(basis_mats: list[np.ndarray], center_mats: list[np.ndarray]) -> tuple[tuple[int, int], ...]:
    """Fully exact block type of a semisimple algebra with known center basis.

    A deterministic integer combination of the center basis is taken; its
    minimal polynomial must have degree equal to the center dimension (else
    the coefficients are varied).  The rational matrices projecting onto
    each irreducible factor's primary component are written down exactly via
    polynomial CRT, and block sizes and multiplicities come from exact ranks
    of the compressed algebra.  No floating point anywhere.
    """
    s = len(center_mats)
    n = basis_mats[0].shape[0]
    x = sympy.Symbol("x")
    z_mats = [sympy.Matrix([[int(e) for e in row] for row in m]) for m in center_mats]
    b_mats = [sympy.Matrix([[int(e) for e in row] for row in m]) for m in basis_mats]

    for trial in range(6):
        coeffs = [((17 * (t + 1) ** 2 + 31 * (trial + 1) * (t + 1) + 7) % 1009) + 1 for t in range(s)]
        z = sympy.zeros(n, n)
        for c, zm in zip(coeffs, z_mats):
            z += c * zm
        cp = sympy.Poly(z.charpoly(x).as_expr(), x)
        deriv = cp.diff(x)
        minpoly = sympy.quo(cp, sympy.gcd(cp, deriv))
        if sympy.degree(minpoly, x) != s:
            continue
        _, factors = sympy.factor_list(minpoly.as_expr(), x)
        blocks: list[tuple[int, int]] = []
        ok = True
        for f_expr, mult in factors:
            assert mult == 1, "minimal polynomial must be squarefree"
            f = sympy.Poly(f_expr, x)
            cof = sympy.quo(minpoly, f)
            u, _v, gcd = sympy.gcdex(cof.as_expr(), f.as_expr(), x)
            assert sympy.Poly(gcd, x).degree() == 0
            crt = sympy.Poly(sympy.expand(u * cof.as_expr() / gcd), x)
            proj = _poly_at_matrix(crt, z, n)
            assert proj * proj == proj, "primary projector must be idempotent"
            deg_f = int(sympy.degree(f, x))
            # multiplicity of f in the characteristic polynomial
            k = 0
            rem = cp
            while True:
                q, r = sympy.div(rem, f)
                if not r.is_zero:
                    break
                rem = q
                k += 1
            rank_proj = proj.rank()
            if rank_proj != deg_f * k:
                ok = False
                break
            stack = sympy.Matrix([list(proj * b * proj) for b in b_mats])
            big_n = stack.rank()
            if big_n % deg_f:
                ok = False
                break
            size_sq = big_n // deg_f
            size = math.isqrt(size_sq)
            if size * size != size_sq or k % size:
                ok = False
                break
            blocks.extend([(size, k // size)] * deg_f)
        if not ok:
            continue
        assert sum(sz * sz for sz, _ in blocks) == len(basis_mats)
        assert sum(sz * m for sz, m in blocks) == n
        assert len(blocks) == s
        return tuple(sorted(blocks, key=lambda b: (-b[0], -b[1])))
    raise AssertionError("no generic central element found")


def _poly_at_matrix(poly: sympy.Poly, z: sympy.Matrix, n: int) -> sympy.Matrix:
    out = sympy.zeros(n, n)
    for c in poly.all_coeffs():
        out = out * z + c * sympy.eye(n)
    return out


def commutator_center(basis: SpanBasis) -> SpanBasis:
    """Center of a closed span by full commutators with every basis element.

    Commutation is imposed one basis element at a time: the candidates'
    full n-by-n commutators are row-reduced beside an identity block, whose
    rows under a vanished left part give the null combinations.  The span
    must be multiplicatively closed; this is not checked.
    """
    n = basis.side
    mats = basis.rows.reshape(-1, n, n)
    cands = mats
    for b in mats:
        if not len(cands):
            break
        comms = (exact_matmul(cands, b) - exact_matmul(b, cands)).reshape(len(cands), n * n)
        if not np.any(comms):
            continue
        aug = RowSpace(n * n + len(cands))
        aug.insert_block(np.hstack([comms, np.eye(len(cands), dtype=np.int64)]))
        combos = aug.rows[np.array(aug.pivots, dtype=np.intp) >= n * n, n * n :]
        cands = exact_matmul(combos, cands.reshape(len(cands), n * n))
        content = np.gcd.reduce(cands, axis=1, initial=0)
        content[content == 0] = 1
        cands = (cands // content[:, None]).reshape(-1, n, n)
    center = SpanBasis(n)
    center.insert_block(cands.reshape(len(cands), n * n))
    return center


def sympy_center_dim(basis_mats: list[np.ndarray]) -> int:
    """Center dimension by a sympy rank computation on the commutator system."""
    d = len(basis_mats)
    n = basis_mats[0].shape[0]
    mats = [sympy.Matrix([[int(e) for e in row] for row in m]) for m in basis_mats]
    comms = [[mats[j] * bi - bi * mats[j] for j in range(d)] for bi in mats]
    system = sympy.Matrix(
        [[comms[i][j][r, c] for j in range(d)]
         for i in range(d) for r in range(n) for c in range(n)]
    )
    return d - system.rank()


def cell_idempotents_certified(n: int, cells, next_cells=None, orbital_labels=None) -> bool:
    """Matrix form of the containment certificates of a level's vertex cells.

    Each cell's n-by-n idempotent must be constant on every orbital cell
    (the pair codes x*n+y that share a value of ``orbital_labels``), and
    must lie, by elimination, in the span of the idempotents of
    ``next_cells``.  A level generated by A and its cell idempotents lies in
    the next level (or in T4, given A is in it) once both hold.
    """
    idems = [idempotent_for_set(n, c) for c in cells]
    if orbital_labels is not None:
        for e in idems:
            flat = e.reshape(-1)
            if any(len(set(flat[orbital_labels == k].tolist())) > 1 for k in set(orbital_labels.tolist())):
                return False
    if next_cells is not None:
        span = SpanBasis(n)
        for cell in next_cells:
            span.insert(idempotent_for_set(n, cell))
        if not all(span.contains(e) for e in idems):
            return False
    return True


# ---------------------------------------------------------------------------
# corners, commutativity, module ranks, thinness and the pendant reduction
# ---------------------------------------------------------------------------

def row_space_rank(rows) -> int:
    """Exact rank of a list of integer row vectors of one common length."""
    if not len(rows):
        return 0
    sp = RowSpace(len(rows[0]))
    sp.insert_block(np.stack(rows))
    return sp.dim


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
    return row_space_rank(algebra.basis.rows.reshape(algebra.dim, algebra.n, algebra.n)[:, base])


def block_of_idempotent(
    dec: WedderburnDecomposition,
    algebra: AlgebraBasis | SpanBasis,
    e: np.ndarray,
) -> tuple[int, ...]:
    """Indices of the blocks in which an idempotent has nonzero component.

    The idempotent must lie in the algebra and satisfy e*e = e exactly; a
    primitive idempotent yields a single index into dec.type.blocks.
    """
    basis = algebra.basis if isinstance(algebra, AlgebraBasis) else algebra
    e = np.asarray(e)
    if not basis.contains(e):
        raise ValueError("matrix is not in the algebra span")
    if np.any(exact_matmul(e, e) - e):
        raise ValueError("matrix is not idempotent")
    ef = e.astype(np.float64)
    norm = np.linalg.norm(ef)
    hits = []
    for i, proj in enumerate(dec.projectors):
        if np.linalg.norm(proj @ ef) > 1e-6 * max(norm, 1.0):
            hits.append(i)
    return tuple(hits)


def is_thin(algebra: AlgebraBasis) -> Optional[bool]:
    """Sufficient thinness certificate for a level-2 algebra.

    True when the compression to every distance cell is commutative (then
    each simple module meets each cell compression in dimension at most
    one); None means the certificate does not apply, not that the algebra
    fails to be thin.
    """
    if algebra.level != 2 or algebra.cells is None:
        raise ValueError("thinness check needs a level-2 algebra with its distance cells")
    for cell in algebra.cells[1:]:
        if not is_commutative(corner(algebra, cell)):
            return None
    return True


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
    dec_small = wedderburn_decompose(small)
    dec_big = wedderburn_decompose(big)
    e_x1 = idempotent_for_set(small_graph.n, [x1_small])
    (blk,) = block_of_idempotent(dec_small, small, e_x1)
    grown = [n for n, _ in dec_small.type.blocks]
    grown[blk] += 1
    sizes_big = sorted(n for n, _ in dec_big.type.blocks)
    return sorted(grown) == sizes_big


# ---------------------------------------------------------------------------
# permutations and the full Paley automorphism group
# ---------------------------------------------------------------------------

def perm_identity(n: int) -> Perm:
    return Perm(tuple(range(n)))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """The product p*q, with (p*q)(x) = p(q(x))."""
    return Perm(tuple(p.images[i] for i in q.images))


def perm_inverse(perm: Perm) -> Perm:
    inv = [0] * perm.n
    for i, j in enumerate(perm.images):
        inv[j] = i
    return Perm(tuple(inv))


def is_trivial_group(group: PermGroup) -> bool:
    return all(g.is_identity() for g in group.gens)


def group_order(group: PermGroup) -> int:
    """Group order by recursive orbit-stabilizer with coset representatives."""
    return _order_recursive([g for g in group.gens if not g.is_identity()], group.n)


def _order_recursive(gens: list[Perm], n: int) -> int:
    if not gens:
        return 1
    moved = min(v for g in gens for v in range(n) if g(v) != v)
    # transversal: orbit representatives as explicit permutations
    reps: dict[int, Perm] = {moved: perm_identity(n)}
    queue = deque([moved])
    while queue:
        u = queue.popleft()
        for g in gens:
            w = g(u)
            if w not in reps:
                reps[w] = perm_compose(g, reps[u])
                queue.append(w)
    schreier: dict[tuple[int, ...], Perm] = {}
    for u, rep in reps.items():
        for g in gens:
            s = perm_compose(perm_inverse(reps[g(u)]), perm_compose(g, rep))
            if not s.is_identity():
                schreier.setdefault(s.images, s)
    return len(reps) * _order_recursive(list(schreier.values()), n)


def perm_cycles(perm: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its smallest point."""
    seen = [False] * perm.n
    out = []
    for start in range(perm.n):
        if seen[start] or perm.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        v = perm.images[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = perm.images[v]
        out.append(tuple(cyc))
    return out


def paley_automorphism_group(pc: PaleyConstruction) -> PermGroup:
    """Full automorphism group: translations plus the zero stabilizer."""
    # x -> x + t^i for each basis element t^i, added on coefficient tuples mod p
    translations = [
        Perm(tuple(pc.index[tuple((c + (j == i)) % pc.p for j, c in enumerate(x))] for x in pc.order))
        for i in range(pc.a)
    ]
    stab = paley_stabilizer_generators(pc)
    graph = pc.graph()
    if not all(is_automorphism(graph, g) for g in translations):
        raise CertificationError("translation is not an automorphism")
    return PermGroup(n=pc.q, gens=tuple(translations) + stab.gens, origin="analytic-family")


# ---------------------------------------------------------------------------
# distance regularity
# ---------------------------------------------------------------------------

def distance_matrix(graph: Graph) -> list[list[int]]:
    """All-pairs distances by BFS from every vertex; -1 marks unreachable."""
    out = []
    for s in range(graph.n):
        dist = [-1] * graph.n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in graph.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        out.append(dist)
    return out


@dataclass(frozen=True)
class IntersectionNumbers:
    """Intersection numbers p[i][j][k] of a distance-regular graph."""

    diameter: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def p(self, i: int, j: int, k: int) -> int:
        return self.table[i][j][k]


def is_distance_regular(graph: Graph) -> Optional[IntersectionNumbers]:
    """Full intersection array if the graph is distance-regular, else None."""
    if not graph.is_connected():
        return None
    dm = distance_matrix(graph)
    n = graph.n
    diam = max(max(row) for row in dm)
    counts: list[list[list[Optional[int]]]] = [
        [[None] * (diam + 1) for _ in range(diam + 1)] for _ in range(diam + 1)
    ]
    for x in range(n):
        for y in range(n):
            k = dm[x][y]
            profile = [[0] * (diam + 1) for _ in range(diam + 1)]
            for z in range(n):
                profile[dm[x][z]][dm[z][y]] += 1
            for i in range(diam + 1):
                for j in range(diam + 1):
                    prev = counts[i][j][k]
                    if prev is None:
                        counts[i][j][k] = profile[i][j]
                    elif prev != profile[i][j]:
                        return None
    table = tuple(
        tuple(tuple(counts[i][j][k] or 0 for k in range(diam + 1)) for j in range(diam + 1))
        for i in range(diam + 1)
    )
    return IntersectionNumbers(diameter=diam, table=table)


# ---------------------------------------------------------------------------
# exact characteristic polynomial and the spectrum summary
# ---------------------------------------------------------------------------

def charpoly_exact(mat: np.ndarray) -> list[int]:
    """Integer coefficients of det(xI - A), leading first (Faddeev-LeVerrier).

    All intermediate divisions are exact over the integers; arithmetic runs
    in arbitrary precision.
    """
    a = np.asarray(mat, dtype=object)
    n = a.shape[0]
    coeffs = [1]
    m = np.eye(n, dtype=object)
    for k in range(1, n + 1):
        am = np.dot(a, m)
        tr = int(np.trace(am))
        q, r = divmod(-tr, k)
        if r:
            raise CertificationError("Faddeev-LeVerrier division must be exact")
        coeffs.append(q)
        m = am + q * np.eye(n, dtype=object)
    return coeffs


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        if a[0] == 0:
            a.pop(0)
            continue
        f = a[0] / b[0]
        for i in range(db + 1):
            a[i] -= f * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _poly_gcd_degree(p: list[int], q: list[int]) -> int:
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) - 1


def distinct_eigenvalue_count(graph: Graph) -> int:
    """Number of distinct adjacency eigenvalues, exactly (squarefree degree)."""
    p = charpoly_exact(graph.adjacency_matrix())
    return len(p) - 1 - _poly_gcd_degree(p, [int(c) for c in _poly_deriv([Fraction(c) for c in p])])


class SpectrumSummary(NamedTuple):
    distinct_count: int
    multiplicities: tuple[int, ...]


def spectrum_summary(graph: Graph) -> SpectrumSummary:
    """Distinct eigenvalue count (exact) and multiplicities (checked numerics).

    The count comes from the squarefree degree of the exact characteristic
    polynomial; multiplicities come from clustering numerically computed
    eigenvalues and must reproduce exactly that many clusters summing to n,
    otherwise a ToleranceError is raised.
    """
    t = distinct_eigenvalue_count(graph)
    evals = np.linalg.eigvalsh(graph.adjacency_matrix().astype(float))
    mults = []
    count = 1
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] > EIG_CLUSTER_TOL:
            mults.append(count)
            count = 1
        else:
            count += 1
    mults.append(count)
    if len(mults) != t:
        raise ToleranceError(
            f"eigenvalue clustering found {len(mults)} groups but the exact count is {t}"
        )
    if sum(mults) != graph.n:
        raise ToleranceError("cluster multiplicities do not sum to n")
    return SpectrumSummary(distinct_count=t, multiplicities=tuple(mults))
