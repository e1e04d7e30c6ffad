"""Wedderburn decomposition of a self-adjoint algebra basis.

The pipeline is hybrid: everything countable (dimension, center, ranks of
integer row spaces, memberships) is exact, while the spectral splitting is
floating point.  The center of an ``AlgebraBasis`` comes from the
generator matrices it was built from; a bare ``SpanBasis`` is first
checked to be closed under products, and then its basis generates.  The
input must be closed under transpose, which every ``AlgebraBasis`` is by
construction (see ``terw.algebras``) and a bare ``SpanBasis`` is checked
to be exactly: then its central idempotents are Hermitian, so a Hermitian
central element splits the algebra by a symmetric eigensolver with
orthogonal projectors onto its eigenspaces, and each block size is the
square root of one trace.  Every floating-point conclusion must reconcile
with exact integer identities before a result is reported.  The eigenvalues are cut into exactly as many
runs as the center has dimensions, and the runs cover all of them, so
block count = center dimension and weighted block sizes = matrix side hold
by construction; sum of squared block sizes = algebra dimension is
checked, and a mismatch raises instead of returning silently.

The first two levels need no central element: ``spectral_types`` reads
T0's and T1's types off one ``eigh`` of A, reconciled with their exact dims
(None where a check fails, for the caller to decompose instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebras import AlgebraBasis
from .errors import DecompositionError
from .linalg import CellSpan, SpanBasis, center_basis

# relative gap for clustering eigenvalues (of the Hermitian central element, or of A),
# and the ratio by which the weights of the runs a base vertex sees must exceed the rest
_CLUSTER_REL_TOL = 1e-6
# a block trace must lie within this relative distance of a perfect square
_TRACE_TOL = 1e-6
_MAX_SEED_RETRIES = 3


@dataclass(frozen=True)
class WedderburnType:
    """Multiset of (block size, standard-module multiplicity) pairs.

    blocks are sorted descending, so types compare by equality.  For an
    algebra A of dimension d inside the n-by-n matrices containing the
    identity: sum of size^2 = d, sum of size*multiplicity = n, and the
    number of blocks equals the dimension of the center.
    """

    blocks: tuple[tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def algebra_dim(self) -> int:
        return sum(s * s for s, _ in self.blocks)

    def standard_dim(self) -> int:
        return sum(s * m for s, m in self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.blocks)

    def render(self) -> str:
        """Human-readable form: size-1 blocks print as C, e.g. 'M3+C+C'."""
        return "+".join("C" if s == 1 else f"M{s}" for s, _ in self.blocks)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "WedderburnType":
        return cls(blocks=tuple(sorted(pairs, key=lambda b: (-b[0], -b[1]))))


@dataclass
class WedderburnDecomposition:
    """A certified type together with the numeric central projectors.

    projectors[i] belongs to type.blocks[i]; center is the exact center
    basis of the input algebra; seed is the one that drew the central
    element of the attempt that succeeded.
    """

    type: WedderburnType
    projectors: list[np.ndarray]
    center: SpanBasis
    seed: int


def _clusters(values: np.ndarray, count: int) -> Optional[list[np.ndarray]]:
    """Index runs of ascending real values, cut at gaps above the tolerance.

    None unless there are exactly count runs.
    """
    cuts = np.flatnonzero(np.diff(values) > _CLUSTER_REL_TOL * (values[-1] - values[0])) + 1
    if len(cuts) + 1 != count:
        return None
    return np.split(np.arange(len(values)), cuts)


def spectral_types(
    spectrum: tuple[np.ndarray, np.ndarray], base: int, d0: Optional[int], d1: Optional[int]
) -> tuple[Optional[WedderburnType], Optional[WedderburnType]]:
    """Types of T0 = <A> and T1 = <A, E_x0> (x0 = base) read off ``eigh(A)``.

    T0 is commutative: one C block per distinct eigenvalue θ, with its
    multiplicity m_θ.  T1 = T0 + U⊗U = End(U) ⊕ T0|U^⊥ with U = T0 e_x0, spanned
    by the E_θ e_x0 of the k eigenvalues x0 sees (s_θ = 1, else 0): one M_k block
    with multiplicity 1, and a C block with multiplicity m_θ - s_θ where that is
    positive.  So d1 - d0 = k² - #{seen θ with m_θ = 1} lies in [k² - k, k²],
    which fixes k >= 1 from the exact dims, and the seen θ are the k runs that
    carry the largest weight Σ V[x0, i]² of e_x0.

    Each type is reconciled with the exact dims d0 and d1, or is None (the
    caller decomposes that level, as it must where d0 or d1 is None): the
    eigenvalues must fall into exactly d0 runs, else both are None; for T1,
    the k-th largest weight must exceed the next by 1/_CLUSTER_REL_TOL, and
    k² + #{θ : m_θ > s_θ} must equal d1.  No fixed threshold on the weights
    would do: a seen run can weigh less than 1e-6 (vertex 5 of FRS~W).
    """
    values, vectors = spectrum
    runs = None if d0 is None else _clusters(values, d0)
    if runs is None:
        return None, None
    mult = np.array([len(idx) for idx in runs])
    t0 = WedderburnType.from_pairs([(1, int(m)) for m in mult])
    # the one k >= 1 with d1 - d0 in [k² - k, k²]: the smallest with k² >= d1 - d0
    k = None if d1 is None else math.isqrt(max(d1 - d0, 1) - 1) + 1
    if k is None or k > d0:
        return t0, None
    weights = np.add.reduceat(vectors[base] ** 2, [idx[0] for idx in runs])
    ranked = np.argsort(-weights, kind="stable")
    if k < d0 and weights[ranked[k]] >= _CLUSTER_REL_TOL * weights[ranked[k - 1]]:
        return t0, None
    rest = mult.copy()
    rest[ranked[:k]] -= 1
    if k * k + np.count_nonzero(rest) != d1:
        return t0, None
    return t0, WedderburnType.from_pairs([(k, 1)] + [(1, int(r)) for r in rest if r])


def _float_stack(span: SpanBasis) -> np.ndarray:
    """Basis matrices as one (dim, n, n) float array, each scaled to peak 1."""
    f = span.rows.astype(np.float64)
    f /= np.abs(f).max(axis=1, keepdims=True)
    return f.reshape(-1, span.side, span.side)


def _block_traces(frame: np.ndarray, evecs: np.ndarray, clusters: list[np.ndarray]) -> list[float]:
    """tr(V^H M V) = tr(P M) for each cluster's eigenvectors V, P = V V^H."""
    diag = np.einsum("ij,ij->j", evecs.conj(), frame @ evecs).real
    return [float(diag[idx].sum()) for idx in clusters]


def wedderburn_decompose(
    algebra: AlgebraBasis | SpanBasis,
    *,
    seed: int = 0,
) -> WedderburnDecomposition:
    """Certified block decomposition of a transpose-closed algebra basis.

    Steps: for a bare span only, an exact transpose-closure check
    (ValueError otherwise); exact center of dimension s (``center_basis``
    with the algebra's generator matrices, or, for a bare span, after an
    exact closure check); central element z from seeded integer
    coefficients; eigh of the Hermitian central element z + z^T + i(z - z^T)
    (the real z + z^T when z is symmetric), whose eigenvalues must fall into
    exactly s runs (retrying with fresh seeds a few times); the orthogonal projector V V^H onto each
    run's eigenvectors V; block sizes from one trace tr(V^H M V) each, which
    must lie within _TRACE_TOL of a square s_i^2 (M as in the comment below);
    multiplicities from run lengths.  The squared sizes must sum to the
    dimension, or the call raises DecompositionError.
    """
    if isinstance(algebra, AlgebraBasis):
        basis, gens = algebra.basis, algebra.generator_matrices
    else:
        basis, gens = algebra, None
    n = basis.side
    d = basis.dim
    if d == 0:
        raise ValueError("cannot decompose the zero algebra")
    if gens is None:
        transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)
        if np.any(basis.reduce_block(basis.rows[:, transpose])):
            raise ValueError("the span is not closed under transpose")
    center = center_basis(basis, gens)
    s = center.dim
    if s == 0:
        raise DecompositionError("center has dimension zero; input is not a unital algebra")
    center_mats = _float_stack(center)
    # M = sum_j Q_j Q_j^T over any orthonormal basis Q_j of the algebra is
    # sum_i (s_i / m_i) P_i for blocks M_{s_i} (x) I_{m_i}, so tr(P_i M) = s_i^2;
    # disjoint cells are orthogonal, so scaled to unit length they are one, else one QR
    if isinstance(basis, CellSpan):
        q = basis.rows.T / np.sqrt(basis.rows.sum(axis=1))
    else:
        q = np.linalg.qr(_float_stack(basis).reshape(d, n * n).T)[0]
    frame = q.reshape(n, n * d) @ q.reshape(n, n * d).T  # row a holds Q_j[a, b] at b*d + j

    last_error = "no attempt"
    for attempt in range(_MAX_SEED_RETRIES):
        attempt_seed = seed + 7919 * attempt
        rng = np.random.default_rng(attempt_seed)
        coeffs = rng.integers(1, 1000, size=s)
        z = sum(int(c) * zm for c, zm in zip(coeffs, center_mats))
        # z = sum l_i e_i over Hermitian central idempotents e_i, so h is
        # sum 2(Re l_i - Im l_i) e_i: real eigenvalues that separate conjugate l_i
        h = z + z.T
        if not np.array_equal(z, z.T):
            h = h + 1j * (z - z.T)
        evals, evecs = np.linalg.eigh(h)
        clusters = _clusters(evals, s)
        if clusters is None:
            last_error = f"eigenvalues did not split into {s} clusters"
            continue
        pairs: list[tuple[int, int]] = []
        for idx, tr in zip(clusters, _block_traces(frame, evecs, clusters)):
            size = round(max(tr, 0.0) ** 0.5)
            if size < 1 or abs(tr - size * size) > _TRACE_TOL * size * size:
                last_error = f"block trace {tr:.12g} is not within {_TRACE_TOL:g} of a perfect square"
                break
            if len(idx) % size:
                last_error = f"cluster size {len(idx)} not divisible by block size {size}"
                break
            pairs.append((size, len(idx) // size))
        if len(pairs) < s:
            continue
        # the s runs cover all n eigenvalues, and each block's size * mult is
        # its run length (checked divisible), so block count = s and
        # weighted sizes = n hold here by construction
        wtype = WedderburnType.from_pairs(pairs)
        if wtype.algebra_dim() != d:
            last_error = f"sum of squared sizes {wtype.algebra_dim()} != dim {d}"
            continue
        order = sorted(range(len(pairs)), key=lambda i: (-pairs[i][0], -pairs[i][1]))
        projectors = [evecs[:, clusters[i]] @ evecs[:, clusters[i]].conj().T for i in order]
        return WedderburnDecomposition(type=wtype, projectors=projectors, center=center, seed=attempt_seed)
    raise DecompositionError(f"decomposition failed after {_MAX_SEED_RETRIES} attempts: {last_error}")
