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

from .errors import Graph6Error

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
        if not bits:
            raise ValueError("graph needs at least one vertex")
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
        # row u holds the bits of mask u, least significant first
        width = (self.n + 7) // 8
        raw = b"".join(b.to_bytes(width, "little") for b in self._bits)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(self.n, width), axis=1, bitorder="little")
        return bits[:, : self.n].astype(np.int64)

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

    A '>>graph6<<' header is cut off the payload, whether it stands alone
    on its line or is glued to the first value; blank lines and lines that
    held only the header are skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, str):
            raw = raw.encode("ascii")
        s = raw.strip().removeprefix(GRAPH6_HEADER)
        if s:
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


def _field(p: int, a: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """GF(p^a) as residues modulo a monic polynomial f of degree a: returns f
    and ``powers[e] = xi^e`` for e < q - 1, q = p^a.

    Polynomials and residues are coefficient tuples, lowest degree first,
    ordered by their code sum(c_i * p^i).  f is the first monic polynomial of
    degree a, in the code order of its lower coefficients, whose residues form
    a field, and xi the residue of smallest code with order q - 1.  One walk
    over the powers of each residue decides both: powers that first return
    to 1 after q - 1 steps are all q - 1 nonzero residues, so these are
    units and the ring is a field; powers that have not returned after
    q - 1 steps belong to no unit, so the ring is none.
    """
    q = p**a
    elems = [tuple(code // p**i % p for i in range(a)) for code in range(q)]
    one = elems[1]

    def mul(x, y):
        prod = [0] * (2 * a - 1)
        for i, c in enumerate(x):
            for j, d in enumerate(y):
                prod[i + j] += c * d
        for k in range(2 * a - 2, a - 1, -1):
            for t in range(a):
                prod[k - a + t] -= prod[k] * f[t]
        return tuple(c % p for c in prod[:a])

    # the loops return: a monic irreducible of degree a exists, and its field has a primitive element
    for f in (lower + (1,) for lower in elems):
        for xi in elems[1:]:
            powers = [one]
            while len(powers) < q and (x := mul(powers[-1], xi)) != one:
                powers.append(x)
            if len(powers) == q - 1:
                return f, powers
            if len(powers) == q:
                break


@dataclass(frozen=True)
class PaleyConstruction:
    """Record of the field data behind a Paley graph.

    Field elements are coefficient tuples modulo ``modulus_poly``, lowest
    degree first.  ``order`` lists them in vertex-index order: zero first,
    then the even powers xi^0 = 1, xi^2, ... of the primitive element xi,
    then the odd powers xi^1, xi^3, ...  So xi^e sits at vertex
    1 + e // 2 + (e % 2) * (q - 1) / 2, the squares are the even powers,
    and a field map that acts on exponents (x -> x*xi^2 as e -> e + 2, the
    Frobenius x -> x^p as e -> p*e, mod q - 1) is a vertex permutation
    read off without field arithmetic; the analytic stabilizer generators
    rely on this.
    """

    p: int
    a: int
    modulus_poly: tuple[int, ...]
    xi: tuple[int, ...]
    squares: frozenset[tuple[int, ...]]
    order: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(compare=False, hash=False)
    # the graph gen_paley built from this record
    _graph: Graph = field(compare=False, hash=False, repr=False)

    @property
    def q(self) -> int:
        return self.p**self.a

    def graph(self) -> Graph:
        """The Paley graph, the one ``gen_paley`` returned with this record."""
        return self._graph


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
    modulus, powers = _field(p, a)
    order = [(0,) * a] + powers[0::2] + powers[1::2]
    squares = frozenset(powers[0::2])
    # vertices i < j are adjacent iff order[i] - order[j], taken digit-wise mod p, is a square
    graph = Graph(q, [
        (i, j)
        for i in range(q)
        for j in range(i + 1, q)
        if tuple((x - y) % p for x, y in zip(order[i], order[j])) in squares
    ])
    pc = PaleyConstruction(
        p=p, a=a, modulus_poly=modulus, xi=powers[1], squares=squares, order=tuple(order),
        index={x: i for i, x in enumerate(order)}, _graph=graph,
    )
    return graph, pc


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
