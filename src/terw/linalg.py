"""Exact rational linear algebra on vectorized n-by-n integer matrices.

A span is kept as its reduced row echelon form over the rationals, stored
fraction-free in one 2-D array: each row is a primitive integer vector
(content 1) whose pivot entry is positive, and every pivot column is zero
in all other rows.  That form is unique for a span, so bases built by any
route agree entry for entry.  The array is int64 while every entry is
below 2**62, and Python integers (object dtype) while any entry needs more.

One kernel does all elimination (fraction-free Gauss-Jordan, as in
Bareiss 1968), a block of rows at a time:

  * ``reduce_block(P)`` reduces every row of P against the basis in one
    step, ``L*P - (P[:, piv] * (L/p)) @ R`` with p the pivot values and L
    their lcm (1 in the common case).  A float64 bound on the result picks
    int64 arithmetic, else the same expression runs on object dtype.
  * ``insert_block(P)`` reduces P, brings the nonzero residuals (already
    zero in every old pivot column) to reduced echelon form among
    themselves, clears the new pivot columns from the old basis rows with
    the same one-step formula against the new rows, and merges the two
    sets of rows in pivot order.  The in-block echelon keeps a float bound
    per row, so its int64 overflow check needs no reductions.

``reduce``, ``contains`` and ``insert`` are their one-row case, and
``algebra_closure`` feeds them one layer of products at a time.  The
closure can start from ``below``, the basis of a unital algebra that lies
inside the result (the level below in a chain of algebras); then only the
generators outside it are multiplied by its rows, and when there are none
the result is ``below`` itself.  It can also stop at ``within``, a span
known to contain the result, as soon as it reaches within's dimension.

Two spans need no elimination at all, as their spanning rows already are
the normal form: ``cell_span``, the indicators of a partition of the
entries (an orbital algebra), and ``outer_square``, every u v^T with u and
v in one row space.

``center_basis`` imposes commutation with a generating set of the algebra
only, and reads each commutator at the d pivot entries of the basis: a
commutator of two elements of a closed span lies in the span, and an
element of the span is zero iff its pivot entries are.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_INT64_LIMIT = 2**62
_INT64_MIN = np.iinfo(np.int64).min
# float64 bounds round; this leaves a factor of four below int64 overflow
_BOUND_LIMIT = 2**61


def _maxabs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def _as_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def _fit(a: np.ndarray) -> np.ndarray:
    """int64 form of an object array whose entries all fit, else the array."""
    if a.dtype == object and _maxabs(a) < _INT64_LIMIT:
        return a.astype(np.int64)
    return a


def _primitive_rows(rows: np.ndarray) -> np.ndarray:
    """Each nonzero row divided by its content (the gcd of its entries)."""
    g = np.gcd.reduce(rows, axis=1, initial=0)
    if not (g > 1).any():
        return rows
    g[g == 0] = 1
    return _fit(rows // g[:, None])


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer (batched) matrix product, int64 when a bound allows."""
    if a.dtype != object and b.dtype != object:
        if a.shape[-1] * _maxabs(a) * _maxabs(b) < _INT64_LIMIT:
            return np.matmul(a, b)
    return np.matmul(_as_object(a), _as_object(b))


def _eliminate(p_blk: np.ndarray, lcm: int, c: np.ndarray, f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact lcm*p_blk - (c * f) @ r, the one elimination step.

    int64 when the float64 bound lcm*max|p_blk| + max_j sum_i |c_ji|*f_i*max|r_i|
    is below 2**61 (every row of r is nonzero), else the same on object dtype.
    """
    if all(x.dtype != object for x in (p_blk, c, f, r)) and lcm < _BOUND_LIMIT:
        weight = f * np.abs(r).max(axis=1).astype(np.float64)
        bound = lcm * _maxabs(p_blk) + float(np.max(np.abs(c).astype(np.float64) @ weight))
        if bound < _BOUND_LIMIT:
            return lcm * p_blk - (c * f) @ r
    return _fit(_as_object(p_blk) * lcm - (_as_object(c) * _as_object(f)) @ _as_object(r))


def _reduce_rows(p_blk: np.ndarray, r: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """p_blk reduced against echelon rows r with pivot columns piv.

    ``L*p_blk - (p_blk[:, piv] * (L/p)) @ r`` with p the pivot values and L
    their lcm (1 in the common case); p_blk itself when it is already zero
    in every pivot column.
    """
    c = p_blk[:, piv]
    if not c.any():
        return p_blk
    pv = r[np.arange(len(piv)), piv].tolist()
    lcm = math.lcm(*pv)
    f = np.array([lcm // x for x in pv], dtype=np.int64 if lcm < _BOUND_LIMIT else object)
    return _eliminate(p_blk, lcm, c, f, r)


def _exact_bounds(rows: np.ndarray) -> list[float]:
    """max |entry| of each row as a float, inf where it reaches 2**62."""
    m = np.abs(rows).max(axis=1).tolist()
    return [float(x) if x < _INT64_LIMIT else math.inf for x in m]


def _echelon(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced echelon form of nonzero rows among themselves.

    Returns primitive rows with positive pivots, in pivot order, and their
    pivot columns.  Each step takes the row of smallest leading entry as a
    pivot and clears its column from the rows that have it.  A float upper
    bound of each row's largest entry picks int64 or object arithmetic
    without a new reduction, a row that vanishes has gcd 0, and leading
    entries are found again only in the rows that changed.
    """
    g = np.gcd.reduce(s, axis=1, initial=0)
    if any(x != 1 for x in g.tolist()):
        s, g = s[g != 0], g[g != 0]
        s = s // g[:, None]
    lead = (s != 0).argmax(axis=1)
    if len(s) <= 1:
        return _fit(-s if len(s) and s[0, lead[0]] < 0 else s), lead
    bound = _exact_bounds(s)
    if s.dtype == object and max(bound) < _INT64_LIMIT:
        s = s.astype(np.int64)
    val = s[np.arange(len(s)), lead].tolist()
    lead = lead.tolist()
    todo, gone = set(range(len(s))), set()
    while todo:
        i = min(todo, key=lambda t: (abs(val[t]), lead[t]))
        todo.remove(i)
        col, a = lead[i], abs(val[i])
        if val[i] < 0:
            s[i] = -s[i]
        c = s[:, col].copy()
        c[i] = 0
        hit = c.nonzero()[0]
        if not len(hit):
            continue
        c = c[hit]
        hl = hit.tolist()
        if s.dtype != object:
            est = [a * bound[t] + abs(x) * bound[i] for t, x in zip(hl, c.tolist())]
            if max(est) >= _BOUND_LIMIT:
                for t, b in zip(hl + [i], _exact_bounds(s[hl + [i]])):
                    bound[t] = b
                est = [a * bound[t] + abs(x) * bound[i] for t, x in zip(hl, c.tolist())]
                if max(est) >= _BOUND_LIMIT:
                    s, c = s.astype(object), c.astype(object)
        upd = (s[hit] if a == 1 else a * s[hit]) - c[:, None] * s[i]
        g = np.gcd.reduce(upd, axis=1, initial=0)
        gl = g.tolist()
        if any(x != 1 for x in gl):
            gone.update(t for t, x in zip(hl, gl) if x == 0)
            g[g == 0] = 1
            upd //= g[:, None]
        s[hit] = upd
        if s.dtype != object:
            for t, e, x in zip(hl, est, gl):
                bound[t] = e / x if x else 0.0
        else:
            for t, b in zip(hl, _exact_bounds(upd)):
                bound[t] = b
            if max(bound) < _INT64_LIMIT:
                s = s.astype(np.int64)
        todo -= gone
        moved = [k for k, t in enumerate(hl) if t in todo]
        if moved:
            sub = upd if len(moved) == len(hl) else upd[moved]
            nl = (sub != 0).argmax(axis=1)
            for k, l, v in zip(moved, nl.tolist(), sub[np.arange(len(moved)), nl].tolist()):
                lead[hl[k]], val[hl[k]] = l, v
    keep = sorted(set(range(len(s))) - gone, key=lead.__getitem__)
    return _fit(s[keep]), np.array([lead[t] for t in keep], dtype=np.intp)


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
    """Reduced echelon basis of a rational row space of fixed width."""

    __slots__ = ("width", "rows", "_piv")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        # the dim-by-width basis rows in pivot order, and their pivot columns
        self.rows = np.zeros((0, width), dtype=np.int64)
        self._piv = np.zeros(0, dtype=np.intp)

    @property
    def dim(self) -> int:
        return len(self._piv)

    @property
    def pivots(self) -> list[int]:
        return self._piv.tolist()

    def _block(self, block) -> np.ndarray:
        b = np.asarray(block)
        if b.ndim != 2 or b.shape[1] != self.width:
            raise ValueError("vector length does not match row-space width")
        if b.dtype == object:
            return b
        if b.dtype != np.int64:
            if not np.issubdtype(b.dtype, np.integer):
                raise TypeError("rows must be integer vectors")
            b = b.astype(np.int64)
        # the bounds handle any other entry, but int64 cannot negate -2**63
        return b.astype(object) if b.size and b.min() == _INT64_MIN else b

    def reduce_block(self, block) -> np.ndarray:
        """Residuals of the rows of a block against the basis, in one step.

        Row j of the result is a positive multiple of row j of the block
        minus a combination of basis rows, and is zero in every pivot column;
        it is zero exactly when the row lies in the span.
        """
        p_blk = self._block(block)
        s = _reduce_rows(p_blk, self.rows, self._piv)
        return p_blk.copy() if s is p_blk else s

    def insert_block(self, block) -> np.ndarray:
        """Add every row of a block to the span; returns the new basis rows.

        The block is reduced against the basis, and its nonzero residuals,
        already zero in every old pivot column, are brought to reduced
        echelon form among themselves.  One reduction of the old basis rows
        against these new rows then clears the new pivot columns, and the
        two sets of rows are merged in pivot order.
        """
        new, npiv = _echelon(self.reduce_block(block))
        old, piv = self.rows, self._piv
        if not len(npiv):
            return new
        if len(npiv) == 1:
            i = int(piv.searchsorted(npiv[0]))
            rows = np.concatenate([old[:i], new, old[i:]])
            merged = np.concatenate([piv[:i], npiv, piv[i:]])
        else:
            # the new rows' places among the merged rows
            fresh = np.zeros(len(piv) + len(npiv), dtype=bool)
            fresh[piv.searchsorted(npiv) + np.arange(len(npiv))] = True
            rows = np.empty((len(fresh), self.width), dtype=np.result_type(old, new))
            rows[fresh], rows[~fresh] = new, old
            merged = np.empty(len(fresh), dtype=np.intp)
            merged[fresh], merged[~fresh] = npiv, piv
        hit = old[:, npiv].any(axis=1).nonzero()[0]
        if hit.size:
            upd = _primitive_rows(_reduce_rows(old[hit], new, npiv))
            if upd.dtype == object and rows.dtype != object:
                rows = rows.astype(object)
            rows[hit + npiv.searchsorted(piv[hit])] = upd
        self.rows, self._piv = _fit(rows), merged
        return new

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Residual of one vector against the basis (zero iff it is in the span)."""
        return self.reduce_block(np.asarray(vec)[None])[0]

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))

    def insert(self, vec: np.ndarray) -> np.ndarray | None:
        """Insert a vector; returns the stored row, or None if dependent."""
        new = self.insert_block(np.asarray(vec)[None])
        return new[0] if len(new) else None


class SpanBasis(RowSpace):
    """Row space of vectorized (row-major) n-by-n integer matrices.

    The reduced echelon normal form makes dimensions exact and makes the
    basis of a span the same entry for entry, whatever built it.
    """

    __slots__ = ("side",)

    def __init__(self, side: int):
        if side < 1:
            raise ValueError("side must be positive")
        super().__init__(side * side)
        self.side = side

    def _vec(self, mat) -> np.ndarray:
        if isinstance(mat, np.ndarray) and mat.ndim == 1:
            return mat
        return as_int_matrix(mat, self.side).reshape(self.width)

    def reduce(self, mat) -> np.ndarray:
        return super().reduce(self._vec(mat))

    def insert(self, mat) -> np.ndarray | None:
        return super().insert(self._vec(mat))

    def matrices(self) -> list[np.ndarray]:
        n = self.side
        return list(self.rows.reshape(-1, n, n))

    def __repr__(self) -> str:
        return f"SpanBasis(side={self.side}, dim={self.dim})"


def cell_span(side: int, labels: np.ndarray) -> SpanBasis:
    """Span of the 0/1 indicators of the cells of a partition of the entries.

    ``labels[i]`` is the cell index (0, 1, ...) of entry i of a vectorized
    side-by-side matrix.  Disjoint 0/1 rows sorted by their first entry
    already are the reduced echelon form, with those first entries as
    pivots, so no elimination runs.
    """
    first = np.unique(labels, return_index=True)[1]
    order = np.argsort(first)
    basis = SpanBasis(side)
    basis.rows = (labels[None, :] == order[:, None]).astype(np.int64)
    basis._piv = first[order].astype(np.intp)
    return basis


def outer_square(space: RowSpace) -> SpanBasis:
    """Span of every u v^T with u, v in a row space U of width n (U⊗U).

    The outer products of U's basis rows, in row-major order of (a, b),
    already are the reduced echelon form: u_a v_b^T has pivot p_a*n + p_b,
    its entry u_c[p_a]*u_d[p_b] there vanishes unless (c, d) = (a, b), the
    pivot entry is positive, and the content of an outer product is the
    product of the contents, 1.
    """
    n, u, piv = space.width, space.rows, space._piv
    basis = SpanBasis(n)
    basis.rows = _fit(exact_matmul(u[:, None, :, None], u[None, :, None, :]).reshape(-1, n * n))
    basis._piv = (piv[:, None] * n + piv[None, :]).reshape(-1)
    return basis


def algebra_closure(
    generators: Sequence,
    side: int | None = None,
    below: SpanBasis | None = None,
    within: SpanBasis | None = None,
) -> SpanBasis:
    """Basis of the smallest unital algebra containing the generators.

    The span starts from ``below``, the basis of a unital algebra that must
    lie inside the result (by default the span of I).  The generators are
    reduced against it once, and those outside it are multiplied by its
    rows; these products include the generators, as ``below`` holds I.
    Then every generator left-multiplies the newest layer of rows at once,
    the products added as one block, until a layer adds nothing.  The span
    holds I and is closed under left multiplication by the generators, so
    it holds every word; the echelon normal form makes the basis
    independent of the seed and the order of work.  When no generator lies
    outside ``below``, the result is ``below`` itself.

    ``within`` is the basis of a span that the caller knows (or certifies
    afterwards) to contain the result.  The closure then stops as soon as
    its span has within's dimension, and returns ``within`` itself: a
    subspace of equal dimension is the whole span.
    """
    gens = [as_int_matrix(g, side) for g in generators]
    if side is None:
        if below is None and not gens:
            raise ValueError("need side when no generators are given")
        side = below.side if below is not None else gens[0].shape[0]
    if any(g.shape[0] != side for g in gens):
        raise ValueError("generators must share one matrix size")
    if below is None:
        below = SpanBasis(side)
        below.insert(np.eye(side, dtype=np.int64))
    cap = None if within is None else within.dim
    if below.dim == cap:
        return within
    if not gens:
        return below
    g_stack = np.stack(gens)
    new = np.any(below.reduce_block(g_stack.reshape(len(gens), side * side)), axis=1)
    if not np.any(new):
        return below
    basis = SpanBasis(side)
    basis.rows, basis._piv = below.rows, below._piv
    prods = exact_matmul(g_stack[new][:, None], below.rows.reshape(1, -1, side, side))
    layer = basis.insert_block(prods.reshape(-1, side * side))
    g_stack = g_stack[:, None]
    while len(layer) and basis.dim != cap:
        prods = exact_matmul(g_stack, layer.reshape(1, -1, side, side))
        layer = basis.insert_block(prods.reshape(-1, side * side))
    return within if basis.dim == cap else basis


def _left_nullspace_combos(rows: np.ndarray) -> np.ndarray:
    """Integer vectors x, one per row, with x @ rows = 0, spanning all such x.

    Row-reduces the block [rows | I] as one block; reduced rows whose left
    part vanished carry a null combination in the right part.
    """
    d, width = rows.shape
    aug = RowSpace(width + d)
    aug.insert_block(np.hstack([rows, np.eye(d, dtype=np.int64)]))
    return aug.rows[aug._piv >= width, width:]


def _pivot_commutators(cands: np.ndarray, g: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact entries of z g - g z at the pivot pairs (r[p], c[p]), one row per z."""
    n = g.shape[0]
    if cands.dtype == object or g.dtype == object or n * _maxabs(cands) * _maxabs(g) >= _INT64_LIMIT:
        cands, g = _as_object(cands), _as_object(g)
    zg = np.einsum("mpk,kp->mp", cands[:, r, :], g[:, c])
    gz = np.einsum("pk,mkp->mp", g[r, :], cands[:, :, c])
    return _fit(zg - gz)


def center_basis(basis: SpanBasis, gens: Sequence | None = None) -> SpanBasis:
    """Exact basis of the center of a multiplicatively closed span.

    The center is the set of elements that commute with a generating set
    ``gens`` of the algebra, which must lie in the span; the caller vouches
    for both, as ``AlgebraBasis.generator_matrices`` does.  Without
    ``gens`` every product of two basis elements is first reduced against
    the span in one block (ValueError if one is outside), and the basis
    generates.

    Each [z, g] lies in the closed span, so it is read at the d pivot
    entries only.  A diagonal generator D gives [b, D] = (D_cc - D_rr) b for
    the basis row b with pivot (r, c), so diagonal generators only select
    basis rows; each other generator costs one elimination of the
    candidates' nonzero readouts.
    """
    n, d = basis.side, basis.dim
    if not d:
        raise ValueError("empty basis has no center")
    mats = basis.rows.reshape(d, n, n)
    if gens is None:
        prods = exact_matmul(mats[:, None], mats[None]).reshape(d * d, n * n)
        if np.any(basis.reduce_block(prods)):
            raise ValueError("input span is not multiplicatively closed")
        gens = mats
    gens = [as_int_matrix(g, n) for g in gens]
    r, c = np.divmod(basis._piv, n)
    diagonal = [np.count_nonzero(g) == np.count_nonzero(np.diagonal(g)) for g in gens]
    keep = np.ones(d, dtype=bool)
    for g, diag in zip(gens, diagonal):
        if diag:
            keep &= np.diagonal(g)[r] == np.diagonal(g)[c]
    cands = mats[keep]
    for g, diag in zip(gens, diagonal):
        if diag or not len(cands):
            continue
        read = _pivot_commutators(cands, g, r, c)
        hit = np.any(read != 0, axis=1)
        if not np.any(hit):
            continue
        read = read[hit]
        combos = _left_nullspace_combos(read[:, np.any(read != 0, axis=0)])
        moved = _primitive_rows(exact_matmul(combos, cands[hit].reshape(-1, n * n)))
        cands = _fit(np.concatenate([cands[~hit], moved.reshape(-1, n, n)]))
    center = SpanBasis(n)
    center.insert_block(cands.reshape(len(cands), n * n))
    return center


def row_space_rank(rows: Sequence[np.ndarray]) -> int:
    """Exact rank of a list of integer row vectors of one common length."""
    if not len(rows):
        return 0
    sp = RowSpace(len(rows[0]))
    sp.insert_block(np.stack(rows))
    return sp.dim
