"""Exact rational linear algebra on vectorized n-by-n integer matrices.

Spans are kept in reduced echelon form over the rationals.  Rows are stored
fraction-free: each stored row is a primitive integer vector (content 1,
positive pivot) representing the rational row obtained by dividing it by its
pivot entry.  All arithmetic is exact; no floating point enters this module.
A fast int64 path is used whenever a conservative bound rules out overflow,
with arbitrary-precision Python integers as the fallback.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Sequence

import numpy as np

_INT64_LIMIT = 2**62


def _maxabs(v: np.ndarray) -> int:
    if v.size == 0:
        return 0
    return max(int(v.max()), -int(v.min()))


def _as_object(v: np.ndarray) -> np.ndarray:
    return v if v.dtype == object else v.astype(object)


def _try_int64(v: np.ndarray) -> np.ndarray:
    """Downcast an object row back to int64 when every entry fits."""
    if v.dtype != object:
        return v
    if _maxabs(v) < _INT64_LIMIT:
        return v.astype(np.int64)
    return v


def _content(v: np.ndarray) -> int:
    if v.dtype == object:
        g = 0
        for x in v:
            g = math.gcd(g, int(x))
            if g == 1:
                break
        return g
    return int(np.gcd.reduce(np.abs(v)))


def row_combine(p: int, v: np.ndarray, c: int, b: np.ndarray) -> np.ndarray:
    """Exact p*v - c*b with automatic promotion out of int64."""
    if v.dtype != object and b.dtype != object:
        bound = abs(p) * _maxabs(v) + abs(c) * _maxabs(b)
        if bound < _INT64_LIMIT:
            return p * v - c * b
    return _as_object(v) * p - _as_object(b) * c


def make_primitive(v: np.ndarray) -> np.ndarray:
    """Divide by the content and make the leading nonzero entry positive."""
    g = _content(v)
    if g == 0:
        return v
    if g > 1:
        v = v // g
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return _try_int64(v)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product with an int64 fast path."""
    if a.dtype != object and b.dtype != object:
        bound = a.shape[1] * _maxabs(a) * _maxabs(b)
        if bound < _INT64_LIMIT:
            return a @ b
    return np.dot(_as_object(a), _as_object(b))


def as_int_matrix(mat, side: int | None = None) -> np.ndarray:
    """Validate and normalize an integer matrix argument."""
    m = np.asarray(mat)
    if m.dtype == object:
        pass
    elif not np.issubdtype(m.dtype, np.integer):
        if np.issubdtype(m.dtype, np.floating) and np.all(m == np.round(m)):
            m = m.astype(np.int64)
        else:
            raise TypeError("matrix entries must be integers")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if side is not None and m.shape[0] != side:
        raise ValueError(f"matrix side {m.shape[0]} does not match basis side {side}")
    return m


class RowSpace:
    """Reduced echelon basis of a rational row space of fixed width.

    Each stored row carries a cached bound on its largest absolute entry so
    that eliminations can pick the safe int64 path without rescanning.
    """

    __slots__ = ("width", "rows", "pivots", "row_max")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.row_max: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check(self, v: np.ndarray) -> np.ndarray:
        if v.ndim != 1 or v.shape[0] != self.width:
            raise ValueError("vector length does not match row-space width")
        if v.dtype != np.int64 and v.dtype != object and not np.issubdtype(v.dtype, np.integer):
            raise TypeError("rows must be integer vectors")
        return v

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Fully reduce a vector against the basis; returns the residual.

        Content is stripped only once entries grow past a threshold, which
        keeps the common small-entry case cheap without risking blowup.
        """
        v = self._check(np.asarray(vec)).copy()
        vmax = _maxabs(v)
        for i, piv in enumerate(self.pivots):
            c = v[piv]
            if not c:
                continue
            row = self.rows[i]
            p = int(row[piv])
            c = int(c)
            bound = p * vmax + abs(c) * self.row_max[i]
            if v.dtype != object and row.dtype != object and bound < _INT64_LIMIT:
                v = p * v
                v -= c * row
                vmax = bound
            else:
                v = _as_object(v) * p - _as_object(row) * c
                vmax = bound
            if vmax > 2**48:
                g = _content(v)
                if g > 1:
                    v = _try_int64(v // g)
                v = _try_int64(v)
                vmax = _maxabs(v)
        return v

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))

    def insert(self, vec: np.ndarray) -> np.ndarray | None:
        """Insert a vector; returns the stored residual row, or None if dependent."""
        v = self.reduce(vec)
        if not np.any(v):
            return None
        v = make_primitive(v)
        piv = int(np.flatnonzero(v)[0])
        pv = int(v[piv])
        vmax = _maxabs(v)
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                newrow = make_primitive(row_combine(pv, row, int(c), v))
                self.rows[i] = newrow
                self.row_max[i] = _maxabs(newrow)
        pos = bisect_left(self.pivots, piv)
        self.pivots.insert(pos, piv)
        self.rows.insert(pos, v)
        self.row_max.insert(pos, vmax)
        return v


class SpanBasis(RowSpace):
    """Row space of vectorized (row-major) n-by-n integer matrices.

    The reduced echelon normal form makes dimensions exact and bases built in
    the same insertion order identical entry for entry.
    """

    __slots__ = ("side",)

    def __init__(self, side: int):
        if side < 1:
            raise ValueError("side must be positive")
        super().__init__(side * side)
        self.side = side

    def _vec(self, mat) -> np.ndarray:
        if isinstance(mat, np.ndarray) and mat.ndim == 1:
            return self._check(mat)
        return as_int_matrix(mat, self.side).reshape(self.width)

    def reduce(self, mat) -> np.ndarray:
        return super().reduce(self._vec(mat))

    def insert(self, mat) -> np.ndarray | None:
        return super().insert(self._vec(mat))

    def contains(self, mat) -> bool:
        return not np.any(self.reduce(mat))

    def copy(self) -> "SpanBasis":
        dup = SpanBasis(self.side)
        dup.rows = [r.copy() for r in self.rows]
        dup.pivots = list(self.pivots)
        dup.row_max = list(self.row_max)
        return dup

    def matrices(self) -> list[np.ndarray]:
        n = self.side
        return [r.reshape(n, n) for r in self.rows]

    def __repr__(self) -> str:
        return f"SpanBasis(side={self.side}, dim={self.dim})"


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def algebra_closure(generators: Sequence, side: int | None = None) -> SpanBasis:
    """Basis of the smallest unital algebra containing the generators.

    Seeds the span with the identity and the generators, then repeatedly
    left-multiplies worklist representatives by each generator until no new
    element appears.  Every word in the generators is reachable from the
    identity this way, so the result is multiplicatively closed.  Insertion
    order is fixed (identity, generators in declared order, FIFO worklist),
    which makes the output basis reproducible.
    """
    gens = [as_int_matrix(g, side) for g in generators]
    if side is None:
        if not gens:
            raise ValueError("need side when no generators are given")
        side = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != side:
            raise ValueError("generators must share one matrix size")
    basis = SpanBasis(side)
    queue: deque[np.ndarray] = deque()
    for seed in [identity_matrix(side)] + gens:
        row = basis.insert(seed)
        if row is not None:
            queue.append(row.reshape(side, side).copy())
    while queue:
        m = queue.popleft()
        for g in gens:
            row = basis.insert(exact_matmul(g, m))
            if row is not None:
                queue.append(row.reshape(side, side).copy())
    return basis


def _left_nullspace_combos(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Integer vectors x with sum_t x[t]*rows[t] = 0.

    Row-reduces the block [rows | I]; reduced rows whose left block vanished
    carry a null combination in the right block.
    """
    d = len(rows)
    width = rows[0].shape[0]
    aug = RowSpace(width + d)
    for t, r in enumerate(rows):
        v = np.zeros(width + d, dtype=object)
        v[:width] = _as_object(r)
        v[width + t] = 1
        aug.insert(_try_int64(v))
    return [row[width:] for piv, row in zip(aug.pivots, aug.rows) if piv >= width]


def center_basis(basis: SpanBasis) -> SpanBasis:
    """Exact basis of the center of a multiplicatively closed span.

    The commuting conditions are imposed one basis element at a time via
    kernel intersections; elements whose conditions are already satisfied
    cost only an exact verification.  Candidates therefore commute with
    every basis element on return.  A closure spot-check guards against
    spans that are not algebras.
    """
    n = basis.side
    mats = basis.matrices()
    if not mats:
        raise ValueError("empty basis has no center")
    d = len(mats)
    for i, j in {(0, 0), (0, d - 1), (d - 1, 0), (d // 2, d // 2)}:
        if not basis.contains(exact_matmul(mats[i], mats[j])):
            raise ValueError("input span is not multiplicatively closed")
    cands: list[np.ndarray] = [m.copy() for m in mats]
    for b in mats:
        if not cands:
            break
        comms = [exact_matmul(z, b) - exact_matmul(b, z) for z in cands]
        if not any(np.any(c) for c in comms):
            continue
        combos = _left_nullspace_combos([c.reshape(n * n) for c in comms])
        new_cands = []
        for combo in combos:
            z = np.zeros(n * n, dtype=object)
            for t, coef in enumerate(combo):
                if coef:
                    z = z + _as_object(cands[t].reshape(n * n)) * int(coef)
            new_cands.append(_try_int64(z).reshape(n, n))
        cands = new_cands
    center = SpanBasis(n)
    for z in cands:
        center.insert(z)
    return center


def row_space_rank(rows: Sequence[np.ndarray]) -> int:
    """Exact rank of a list of integer row vectors of one common length."""
    rows = list(rows)
    if not rows:
        return 0
    sp = RowSpace(len(rows[0]))
    for r in rows:
        sp.insert(np.asarray(r))
    return sp.dim
