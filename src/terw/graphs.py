"""Graph representation, graph6 I/O, family generators, and distance machinery.

Vertices are 0..n-1 internally.  The classical families (paths, stars,
cycles, Paley graphs, the kite-with-tail family) are published with 1-based
labels; the constructors map label i to index i-1 and say so in their
docstrings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CertificationError, Graph6Error

GRAPH6_HEADER = b">>graph6<<"
GRAPH6_MAX_N = 258048


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one bitmask per vertex.  Construction rejects
    loops and forces symmetry, so every instance is a simple graph.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self._bits = tuple(bits)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Graph":
        g = cls.__new__(cls)
        bits = tuple(bits)
        g.n = len(bits)
        g._bits = bits
        mask = (1 << g.n) - 1
        for v, b in enumerate(bits):
            if b & ~mask or b >> v & 1:
                raise ValueError("invalid adjacency bits")
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (bits[u] >> v & 1) != (bits[v] >> u & 1):
                    raise ValueError("adjacency must be symmetric")
        return g

    def bits(self, v: int) -> int:
        return self._bits[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._bits[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        b = self._bits[v]
        out = []
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out

    def degree(self, v: int) -> int:
        return self._bits[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u in range(self.n):
            for v in self.neighbors(u):
                a[u, v] = 1
        return a

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            b = frontier
            while b:
                low = b & -b
                nxt |= self._bits[low.bit_length() - 1]
                b ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def relabel(self, perm: list[int]) -> "Graph":
        """New graph with vertex v renamed perm[v]."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


# ---------------------------------------------------------------------------
# graph6 wire format (6 bits per byte, bias 63, big-endian groups)
# ---------------------------------------------------------------------------

def _read_number(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise Graph6Error("empty graph6 string")
    c = data[pos]
    if c != 126:
        if not 63 <= c <= 125:
            raise Graph6Error(f"byte {c} out of graph6 range")
        return c - 63, pos + 1
    # 126 prefix: 18-bit size in three bytes (63 <= n <= 258047)
    if pos + 1 < len(data) and data[pos + 1] == 126:
        raise Graph6Error("graphs with n >= 258048 are not supported")
    if pos + 4 > len(data):
        raise Graph6Error("truncated multi-byte length header")
    n = 0
    for c in data[pos + 1 : pos + 4]:
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} out of graph6 range")
        n = n << 6 | (c - 63)
    if n < 63:
        raise Graph6Error("non-canonical multi-byte length header")
    return n, pos + 4


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 value (an optional '>>graph6<<' prefix is skipped)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    n, pos = _read_number(data, 0)
    if n < 1:
        raise Graph6Error("graph6 value encodes an empty vertex set")
    if n >= GRAPH6_MAX_N:
        raise Graph6Error(f"vertex count {n} out of supported range")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise Graph6Error(f"expected {nbytes} adjacency bytes, got {len(body)}")
    acc = 0
    for c in body:
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} out of graph6 range")
        acc = acc << 6 | (c - 63)
    pad = nbytes * 6 - nbits
    if acc & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    acc >>= pad
    bits = [0] * n
    k = nbits
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if acc >> k & 1:
                bits[i] |= 1 << j
                bits[j] |= 1 << i
    return Graph.from_bits(bits)


def write_graph6(graph: Graph) -> bytes:
    """Encode a graph as graph6 bytes; inverse of parse_graph6."""
    n = graph.n
    if n >= GRAPH6_MAX_N:
        raise Graph6Error(f"vertex count {n} out of supported range")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = graph.bits(j)
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
    pad = (-nbits) % 6
    acc <<= pad
    nbits += pad
    body = bytes((acc >> k & 63) + 63 for k in range(nbits - 6, -1, -6))
    return head + body


def iter_graph6_lines(lines: Iterable[bytes | str]) -> Iterable[tuple[int, bytes]]:
    """Yield (line_number, payload) for each non-blank graph6 line.

    Blank lines and standalone '>>graph6<<' header lines are skipped; a
    header glued to the first value is handled by parse_graph6 itself.
    """
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, str):
            raw = raw.encode("ascii")
        s = raw.strip()
        if not s or s == GRAPH6_HEADER:
            continue
        yield lineno, s


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def gen_path(n: int) -> Graph:
    """Path on vertices 1..n (stored as 0..n-1), edges between consecutive labels."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_star(n: int) -> Graph:
    """Star K_{1,n-1}: center labeled 1 (index 0), leaves 2..n."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def gen_cycle(n: int) -> Graph:
    """Cycle on vertices 1..n (stored as 0..n-1)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_delta(n: int) -> Graph:
    """Kite-with-apex-and-tail graph on labels 1..n (stored as 0..n-1).

    Labels 1-2-3-4 form a path, label 5 is adjacent to all of 1..4, and
    5-6-...-n is a pendant tail (empty for n=5).  Base vertex n is the
    distinguished choice in the dimension formulas exercised by the tests.
    """
    if n < 5:
        raise ValueError("family needs n >= 5")
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(4, i) for i in range(4)]
    edges += [(i, i + 1) for i in range(4, n - 1)]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# finite fields and Paley graphs
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


class _GF:
    """Arithmetic in GF(p^a) as polynomial residues, coefficients ascending.

    The modulus is the lexicographically smallest monic irreducible of
    degree a, where polynomials are ordered by their degree-major integer
    encoding sum(c_i * p^i); elements use the same encoding for ordering.
    """

    def __init__(self, p: int, a: int):
        self.p = p
        self.a = a
        self.q = p**a
        self.modulus = self._find_modulus()

    def _poly_from_code(self, code: int, deg: int) -> tuple[int, ...]:
        cs = []
        for _ in range(deg):
            cs.append(code % self.p)
            code //= self.p
        return tuple(cs)

    def _find_modulus(self) -> tuple[int, ...]:
        # monic x^a + f(x), scanned in encoding order of f
        if self.a == 1:
            return (0, 1)
        for code in range(self.q):
            f = self._poly_from_code(code, self.a) + (1,)
            if self._is_irreducible(f):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _poly_mulmod(self, x, y, mod):
        p = self.p
        prod = [0] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        # reduce modulo the monic polynomial mod
        dm = len(mod) - 1
        for k in range(len(prod) - 1, dm - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for t in range(dm):
                    prod[k - dm + t] = (prod[k - dm + t] - c * mod[t]) % p
        return tuple(prod[:dm]) if dm > 0 else ()

    def _is_irreducible(self, f: tuple[int, ...]) -> bool:
        # trial division by all monic polynomials of degree 1..deg(f)//2
        deg = len(f) - 1
        for d in range(1, deg // 2 + 1):
            for code in range(self.p**d):
                g = self._poly_from_code(code, d) + (1,)
                if self._poly_divides(g, f):
                    return False
        return True

    def _poly_divides(self, g, f) -> bool:
        p = self.p
        rem = list(f)
        dg = len(g) - 1
        while len(rem) - 1 >= dg:
            c = rem[-1]
            if c:
                for t in range(dg + 1):
                    rem[len(rem) - 1 - dg + t] = (rem[len(rem) - 1 - dg + t] - c * g[t]) % p
            rem.pop()
        return not any(rem)

    # elements are coefficient tuples of length a
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.a

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.a - 1)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        r = self._poly_mulmod(x, y, self.modulus)
        return r + (0,) * (self.a - len(r))

    def pow(self, x, k: int):
        r = self.one()
        b = x
        while k:
            if k & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            k >>= 1
        return r

    def mult_order(self, x) -> int:
        if x == self.zero():
            return 0
        k = 1
        y = x
        while y != self.one():
            y = self.mul(y, x)
            k += 1
        return k

    def primitive_element(self) -> tuple[int, ...]:
        for code in range(1, self.q):
            x = self._poly_from_code(code, self.a)
            if self.mult_order(x) == self.q - 1:
                return x
        raise AssertionError("no primitive element found")


@dataclass(frozen=True)
class PaleyConstruction:
    """Record of the field data behind a Paley graph.

    ``order`` lists the field elements in vertex-index order: zero first,
    then the even powers of the primitive element xi starting at xi^0 = 1,
    then the odd powers.  This ordering makes the vertex permutation
    x -> x*xi^2 act as a block of two disjoint cycles on indices, which the
    analytic stabilizer generators rely on.
    """

    p: int
    a: int
    modulus_poly: tuple[int, ...]
    xi: tuple[int, ...]
    squares: frozenset[tuple[int, ...]]
    order: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(compare=False, hash=False)

    @property
    def q(self) -> int:
        return self.p**self.a

    def gf(self) -> _GF:
        f = _GF(self.p, self.a)
        if f.modulus != self.modulus_poly:
            raise CertificationError("field modulus differs from the construction's")
        return f

    def graph(self) -> Graph:
        """The Paley graph: vertices i < j adjacent iff order[i] - order[j] is a square."""
        f = self.gf()
        return Graph(self.q, [
            (i, j)
            for i in range(self.q)
            for j in range(i + 1, self.q)
            if f.sub(self.order[i], self.order[j]) in self.squares
        ])


def gen_paley(p: int, a: int = 1) -> tuple[Graph, PaleyConstruction]:
    """Paley graph on GF(p^a), p^a = 1 (mod 4): x ~ y iff x-y is a nonzero square.

    Vertex 0 is the field zero; vertices 1..(q-1)/2 are the even powers
    xi^0, xi^2, ... of the primitive element xi, and the rest are the odd
    powers, in exponent order.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 1:
        raise ValueError("exponent must be positive")
    q = p**a
    if q % 4 != 1:
        raise ValueError(f"p^a = {q} is not congruent to 1 mod 4")
    f = _GF(p, a)
    xi = f.primitive_element()
    k = (q - 1) // 2
    powers = [f.one()]
    for _ in range(q - 2):
        powers.append(f.mul(powers[-1], xi))
    order = [f.zero()] + [powers[2 * i] for i in range(k)] + [powers[2 * i + 1] for i in range(k)]
    squares = frozenset(powers[2 * i] for i in range(k))
    index = {x: i for i, x in enumerate(order)}
    pc = PaleyConstruction(
        p=p, a=a, modulus_poly=f.modulus, xi=xi,
        squares=squares, order=tuple(order), index=index,
    )
    return pc.graph(), pc


# ---------------------------------------------------------------------------
# distance machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistancePartition:
    """Cells of vertices at distance 0..D from the base vertex."""

    base: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def eccentricity(self) -> int:
        return len(self.cells) - 1


def bfs_distance_partition(graph: Graph, base: int) -> DistancePartition:
    """Distance cells around base, ordered by distance; rejects disconnected input."""
    if not 0 <= base < graph.n:
        raise ValueError(f"base vertex {base} out of range")
    dist = [-1] * graph.n
    dist[base] = 0
    q = deque([base])
    while q:
        u = q.popleft()
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    if min(dist) < 0:
        raise ValueError("graph is disconnected")
    d = max(dist)
    cells = [tuple(v for v in range(graph.n) if dist[v] == k) for k in range(d + 1)]
    return DistancePartition(base=base, cells=tuple(cells))
