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
One generator A closed from span{I} needs no layers: <A> is spanned by I
and the powers of A, which go in as one block while their entries stay
within 2**20 (at most n - 1 of them, by Cayley-Hamilton); past that bound
the layer loop continues from the block's new rows.

Two spans need no elimination at all, as their spanning rows already are
the normal form: ``cell_span``, the indicators of a partition of the
entries (an orbital algebra), and ``outer_square``, every u v^T with u and
v in one row space.

A closure inside a ``cell_span`` (a ``CellSpan``, which carries its
partition) runs on the span's cell coordinates, d = dim ``within`` of
them instead of n² entries.  Every element of the span is x[cells] for
the vector x of its entries at the pivots, and the cells are numbered by
their first entry, so the first nonzero entry of x[cells] is at the
pivot of the first k with x_k != 0, and x[cells] holds the same values
as x (the same content, the same sign at the leading entry).  So the
reduced echelon form in coordinates, spread over the cells
(``rows[:, cells]`` with pivots ``within._piv[piv]``), is the n² normal
form byte for byte.  A generator acts on the coordinates by one d-by-d
integer map, and the idempotent generators cut each product into its
pieces E_a X E_b, which keeps the elimination inside blocks of
coordinates (``_cell_product``).  Any closure inside a ``CellSpan`` takes
this route: on a sample of 7-vertex graphs, where d is close to n², it
costs the same as the n² route, and at Paley(61)'s T2 (d = 125 against
n² = 3,721) it is about fifty times faster.

``center_basis`` imposes commutation with a generating set of the algebra
only, and reads each commutator at the d pivot entries of the basis: a
commutator of two elements of a closed span lies in the span, and an
element of the span is zero iff its pivot entries are.  A generator with
at most n nonzero entries (an orbital cell) is read from those entries
alone once d*n reaches ``_SPARSE_READ_MIN``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_INT64_LIMIT = 2**62
_INT64_MIN = np.iinfo(np.int64).min
# float64 bounds round; this leaves a factor of four below int64 overflow
_BOUND_LIMIT = 2**61
# largest entry of a power that joins a closure's power block
_POWER_LIMIT = 2**20
# center_basis reads the commutators with a generator of at most n nonzero entries from those
# entries alone once d*n reaches this; below it, reading every product is faster
_SPARSE_READ_MIN = 2**10


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
    if m.dtype == np.int64 or m.dtype == object:
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
        two sets of rows are merged in pivot order.  The old rows array is
        never written: a seeded basis may share it with another.
        """
        new, npiv = _echelon(self.reduce_block(block))
        if not len(npiv):
            return new
        old, piv = self.rows, self._piv
        # each old and each new row's place in pivot order among the merged rows
        at_old = npiv.searchsorted(piv) + np.arange(len(piv))
        at_new = piv.searchsorted(npiv) + np.arange(len(npiv))
        rows = np.empty((len(piv) + len(npiv), self.width), dtype=np.result_type(old, new))
        rows[at_old], rows[at_new] = old, new
        merged = np.empty(len(rows), dtype=np.intp)
        merged[at_old], merged[at_new] = piv, npiv
        hit = old[:, npiv].any(axis=1).nonzero()[0]
        if hit.size:
            upd = _primitive_rows(_reduce_rows(old[hit], new, npiv))
            if upd.dtype == object and rows.dtype != object:
                rows = rows.astype(object)
            rows[at_old[hit]] = upd
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


class CellSpan(SpanBasis):
    """A ``cell_span``: a SpanBasis that also carries its partition.

    ``cells[i]`` is the index of the cell (the basis row) that holds entry
    i, so an element of the span with coordinates x (its entries at the
    pivots, one per cell) is the vector x[cells].
    """

    __slots__ = ("cells",)


def cell_span(side: int, labels: np.ndarray) -> CellSpan:
    """Span of the 0/1 indicators of the cells of a partition of the entries.

    ``labels[i]`` is the cell index (0, 1, ...) of entry i of a vectorized
    side-by-side matrix.  Disjoint 0/1 rows sorted by their first entry
    already are the reduced echelon form, with those first entries as
    pivots, so no elimination runs.
    """
    first = np.unique(labels, return_index=True)[1]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    basis = CellSpan(side)
    basis.cells = rank[labels]
    basis.rows = (basis.cells[None, :] == np.arange(len(order))[:, None]).astype(np.int64)
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


def _matrix_product(g_stack: np.ndarray, side: int):
    """Left multiplication by each generator of a (k, n, n) stack, on a block
    of vectorized rows: the (k * rows)-row block of products, generator by
    generator; ``use``, a boolean mask, picks a subset of the generators."""

    def times(layer: np.ndarray, use: np.ndarray | None = None) -> np.ndarray:
        g = g_stack if use is None else g_stack[use]
        prods = exact_matmul(g[:, None], layer.reshape(1, -1, side, side))
        return prods.reshape(-1, side * side)

    return times


def _cell_product(g_stack: np.ndarray, within: CellSpan):
    """``times`` and ``split`` for a closure on the cell coordinates of
    ``within``, of generators that lie in it.

    Coordinate k of an element X of the span is its entry at the pivot
    (r_k, c_k) of cell k.  G X lies in the span too, so G acts by the
    integer matrix M[k, j] = (G 1_j)[r_k, c_k], the sum of the n entries
    G[r_k, m] with (m, c_k) in cell j.

    The atoms of the 0/1 diagonal generators' vertex sets (the classes of
    vertices that lie in the same sets) give idempotents E_a of the algebra
    that sum to I.  ``split`` cuts each row X of a block into its nonzero
    pieces E_a X E_b, the coordinates k with r_k in a and c_k in b.  A span
    that holds the pieces of its rows is closed under left multiplication
    by every idempotent generator, a sum of E_a's, so ``times`` returns
    the pieces of the products with the other generators only.  Pieces
    keep the elimination inside blocks of coordinates, where entries stay
    smaller.
    """
    n, d = within.side, within.dim
    r, c = np.divmod(within._piv, n)
    flat = g_stack.reshape(len(g_stack), n * n)
    diag = flat[:, :: n + 1]
    # a 0/1 diagonal matrix, and only such a matrix, has as many nonzero entries as diagonal ones
    idem = np.count_nonzero(flat, axis=1) == np.count_nonzero(diag == 1, axis=1)
    first: dict[bytes, int] = {}
    atom = np.array([first.setdefault(v.tobytes(), len(first)) for v in (diag[idem] != 0).T])
    atoms = len(first)
    block = atom[r] * atoms + atom[c]
    g_rows = g_stack[~idem][:, r, :]
    if g_rows.dtype != object and n * _maxabs(g_rows) >= _INT64_LIMIT:
        g_rows = g_rows.astype(object)
    # maps[g, j, k] = M[k, j] of generator g, so that a block of coordinate rows times it is G X
    maps = np.zeros((len(g_rows), d, d), dtype=g_rows.dtype)
    col_cells = within.cells.reshape(n, n)[:, c].T  # the cell of (m, c_k) at [k, m]
    np.add.at(maps, (np.arange(len(g_rows))[:, None, None], col_cells, np.arange(d)[:, None]), g_rows)

    def split(rows: np.ndarray) -> np.ndarray:
        at, k = np.nonzero(rows)
        at, b = np.divmod(np.unique(at * atoms**2 + block[k]), atoms**2)
        return rows[at] * (block == b[:, None])

    def times(layer: np.ndarray, use: np.ndarray | None = None) -> np.ndarray:
        m = maps if use is None else maps[use[~idem]]
        return split(exact_matmul(layer, m).reshape(-1, d))

    return times, split


def _close_layers(basis: RowSpace, times, layer: np.ndarray, cap: int | None) -> RowSpace:
    """Every generator left-multiplies the newest layer of rows at once
    (``times``), the products added as one block, until a layer adds
    nothing or the span reaches dimension cap."""
    while len(layer) and basis.dim != cap:
        prods = times(layer)
        layer = basis.insert_block(prods[prods.any(axis=1)])
    return basis


def _power_closure(a: np.ndarray, basis: SpanBasis, within: SpanBasis | None) -> SpanBasis:
    """<a> from basis = span{I}, its powers as one block (see algebra_closure)."""
    side = basis.side
    powers = [a]
    while len(powers) < side - 1:
        nxt = exact_matmul(a, powers[-1])
        if nxt.dtype == object or _maxabs(nxt) > _POWER_LIMIT:
            break
        powers.append(nxt)
    layer = basis.insert_block(np.stack(powers).reshape(len(powers), side * side))
    # a dependent power makes every higher one dependent; dim <a> <= side
    if len(layer) < len(powers) or basis.dim == side:
        layer = layer[:0]
    cap = None if within is None else within.dim
    basis = _close_layers(basis, _matrix_product(a[None], side), layer, cap)
    return within if basis.dim == cap else basis


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

    One generator A closed from span{I} skips the layers: <A> is
    span{I, A, ..., A^(k-1)} with k the degree of A's minimal polynomial,
    so A and its powers go in as one block after I.  Powers join the block
    while their entries stay within _POWER_LIMIT (2**20), so that the
    block's echelon stays int64, and at most n - 1 of them (Cayley-Hamilton).
    A dependent power, or n - 1 independent ones, completes the span;
    otherwise the layer loop continues from the block's new rows.

    ``within`` is the basis of a span that the caller knows (or certifies
    afterwards) to contain the result.  The closure then stops as soon as
    its span has within's dimension, and returns ``within`` itself: a
    subspace of equal dimension is the whole span.  When ``within`` is a
    ``CellSpan`` the caller must know it before: the closure then runs on
    within's cell coordinates (see the module docstring), which need the
    generators, and ``below``, to lie in it, and the 0/1 diagonal
    generators act through the pieces of each product (``_cell_product``).
    """
    gens = [as_int_matrix(g, side) for g in generators]
    if side is None:
        if below is None and not gens:
            raise ValueError("need side when no generators are given")
        side = below.side if below is not None else gens[0].shape[0]
    if any(g.shape[0] != side for g in gens):
        raise ValueError("generators must share one matrix size")
    cap = None if within is None else within.dim
    cellwise = isinstance(within, CellSpan)
    if below is None:
        below = SpanBasis(side)
        below.insert(np.eye(side, dtype=np.int64))
        if len(gens) == 1 and below.dim != cap and not cellwise:
            return _power_closure(gens[0], below, within)
    if below.dim == cap:
        return within
    if not gens:
        return below
    g_stack = np.stack(gens)
    if cellwise:
        coords = within._piv
        basis = RowSpace(cap)
        basis.rows, basis._piv = np.ascontiguousarray(below.rows[:, coords]), coords.searchsorted(below._piv)
        times, split = _cell_product(g_stack, within)
    else:
        coords = slice(None)
        basis = SpanBasis(side)
        basis.rows, basis._piv = below.rows, below._piv
        times = _matrix_product(g_stack, side)
    new = np.any(basis.reduce_block(g_stack.reshape(len(gens), side * side)[:, coords]), axis=1)
    if not np.any(new):
        return below
    prods = times(basis.rows, new)
    if cellwise:
        # the idempotent generators act on below through the pieces of its rows
        prods = np.concatenate([split(basis.rows), prods])
    layer = basis.insert_block(prods[prods.any(axis=1)])
    basis = _close_layers(basis, times, layer, cap)
    if basis.dim == cap:
        return within
    if cellwise:
        # the echelon form in cell coordinates, spread over the cells, is the normal form
        span = SpanBasis(side)
        span.rows, span._piv = np.ascontiguousarray(basis.rows[:, within.cells]), within._piv[basis._piv]
        return span
    return basis


def _left_nullspace_combos(rows: np.ndarray) -> np.ndarray:
    """Integer vectors x, one per row, with x @ rows = 0, spanning all such x.

    Row-reduces the block [rows | I] as one block; reduced rows whose left
    part vanished carry a null combination in the right part.
    """
    d, width = rows.shape
    aug = RowSpace(width + d)
    aug.insert_block(np.hstack([rows, np.eye(d, dtype=np.int64)]))
    return aug.rows[aug._piv >= width, width:]


def _sum_by_pivot(vals: np.ndarray, p: np.ndarray, width: int) -> np.ndarray:
    """Columns of vals summed by their pivot index p (ascending), as (rows, width)."""
    out = np.zeros((len(vals), width), dtype=vals.dtype)
    if len(p):
        starts = np.flatnonzero(np.diff(p, prepend=-1))
        out[:, p[starts]] = np.add.reduceat(vals, starts, axis=1)
    return out


def _pivot_commutators(cands: np.ndarray, bound: int, g: np.ndarray, r: np.ndarray, c: np.ndarray, dense=None) -> np.ndarray:
    """Exact entries of z g - g z at the pivot pairs (r[p], c[p]), one row per z.

    ``bound`` is the largest |entry| of the candidates.  With ``dense``, the
    candidates' rows r and columns c as (m, d, n) and (m, n, d) stacks,
    every product is read.  Without, only nonzero entries of g are:
    (z g)[r_p, c_p] sums z[r_p, k] g[k, c_p] over the k with g[k, c_p] != 0,
    and (g z)[r_p, c_p] sums g[r_p, k] z[k, c_p] over the k with
    g[r_p, k] != 0.
    """
    n = g.shape[0]
    if cands.dtype == object or g.dtype == object or n * bound * _maxabs(g) >= _INT64_LIMIT:
        cands, g = _as_object(cands), _as_object(g)
        dense = None if dense is None else tuple(_as_object(x) for x in dense)
    if dense is not None:
        zg = np.einsum("mpk,kp->mp", dense[0], g[:, c])
        gz = np.einsum("pk,mkp->mp", g[r, :], dense[1])
    else:
        p, k = np.nonzero(g[:, c].T)
        zg = _sum_by_pivot(cands[:, r[p], k] * g[k, c[p]], p, len(r))
        p, k = np.nonzero(g[r, :])
        gz = _sum_by_pivot(cands[:, k, c[p]] * g[r[p], k], p, len(r))
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
    entries only: from every product, with the candidates' rows and
    columns at the pivots taken once per candidate set, or, for a
    generator of at most n nonzero entries once d*n reaches
    _SPARSE_READ_MIN, from its nonzero entries alone.  A diagonal
    generator D gives [b, D] = (D_cc - D_rr) b for
    the basis row b with pivot (r, c), so diagonal generators only select
    basis rows; each other generator costs one elimination of the
    candidates' nonzero readouts.  When no generator moves a candidate (at
    level 0 always, T0 being commutative), the candidates are a subset of
    the basis's reduced echelon rows, which already is the center's normal
    form, and no elimination runs.
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
    nonzero = [np.count_nonzero(g) for g in gens]
    diagonal = [k == np.count_nonzero(np.diagonal(g)) for g, k in zip(gens, nonzero)]
    keep = np.ones(d, dtype=bool)
    for g, diag in zip(gens, diagonal):
        if diag:
            keep &= np.diagonal(g)[r] == np.diagonal(g)[c]
    cands = mats[keep]
    moved_any = False
    bound, dense = _maxabs(cands), None
    for g, diag, k in zip(gens, diagonal, nonzero):
        if diag or not len(cands):
            continue
        if d * n < _SPARSE_READ_MIN or k > n:
            if dense is None:
                # most generators move no candidate: the entries they read are taken once per candidate set
                dense = (cands[:, r, :], cands[:, :, c])
            read = _pivot_commutators(cands, bound, g, r, c, dense)
        else:
            read = _pivot_commutators(cands, bound, g, r, c)
        hit = np.any(read != 0, axis=1)
        if not np.any(hit):
            continue
        moved_any, dense = True, None
        read = read[hit]
        combos = _left_nullspace_combos(read[:, np.any(read != 0, axis=0)])
        moved = _primitive_rows(exact_matmul(combos, cands[hit].reshape(-1, n * n)))
        cands = _fit(np.concatenate([cands[~hit], moved.reshape(-1, n, n)]))
        bound = _maxabs(cands)
    center = SpanBasis(n)
    if moved_any:
        center.insert_block(cands.reshape(len(cands), n * n))
    else:
        # a subset of reduced echelon rows is the normal form of its span
        center.rows, center._piv = _fit(basis.rows[keep]), basis._piv[keep]
    return center
