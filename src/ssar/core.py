"""Dense linear-algebra primitives and instance-level complexity measures.

This module holds the numerical substrate for the rest of the package: the
``Dataset`` instance, which stacks its blocks once and factors the stack once
(``Dataset.svd``, read by the samplers, OPT and ``reduced_rank``), a thin SVD
with relative rank truncation, row leverage scores, the unlabeled-mass trace
``reduced_rank`` that governs label-query complexity, the regularized spectrum
sums ``statistical_dimension`` and ``effective_dimension``, and a symmetric
PSD matrix square root.  The other operations are pure functions.

``thin_svd`` factors an input on its range.  At a short side of at most
``SKETCH_MIN_SIDE`` (the Gram route) the range is spanned by the Gram
matrix's eigenvectors whose eigenvalues exceed ``GRAM_TRUST`` times the
largest, at full rank or below it, and the left factor formed from them is
made orthonormal by one CholeskyQR pass.  Above that side (the sketch) the
range comes from a Gaussian sketch of a fixed seed, so no n x d ``u`` is
formed for a rank-deficient input such as a kernel-ridge stack whose rank is
the effective dimension.  Range factors are accepted only if their residual
is below ``rank_tol * sigma_max``.  LAPACK's thin SVD factors everything
else: an input whose largest |entry| is beyond 1e100 or below 1e-100, where
a Gram matrix would overflow or turn denormal; range factors that miss that
residual; a Gram route whose Cholesky fails; and a sketch that gives up at
half the short side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NotPsdError
from .rngutil import make_rng

__all__ = [
    "Dataset",
    "SvdFactors",
    "as_matrix",
    "as_vector",
    "thin_svd",
    "leverage_scores",
    "reduced_rank",
    "statistical_dimension",
    "effective_dimension",
    "psd_sqrt",
]

DEFAULT_RANK_TOL = 1e-10

# Tolerances baked into the SvdFactors contract.
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
VALIDATE_BLOCK_BYTES = 1 << 20  # residual never forms more of the n x d reconstruction
# thin_svd trusts a Gram eigenvalue above this share of the largest one; eigh
# resolves them to about eps * theta_max, so this leaves a wide margin.
GRAM_TRUST = 1e-12
# The Gram path is taken only when the largest |entry| lies in this range, so
# that squaring it neither overflows nor makes the Gram entries denormal.
GRAM_SAFE_SCALE = (1e-100, 1e100)
# Above this short side the range comes from a sketch of SKETCH_START columns,
# doubled while short of the rank; at half the short side LAPACK takes over.
# The fixed seed keeps thin_svd a pure function of its input.
SKETCH_MIN_SIDE = 128
SKETCH_START = 64
SKETCH_SEED = 20110501
# psd_sqrt's tolerances, relative to the largest entry (asymmetry) or the
# largest eigenvalue (negative and zero modes).
PSD_ASYM_TOL = 1e-8
PSD_NEG_EIG_TOL = 1e-8
PSD_ZERO_TOL = 1e-12


def as_matrix(x, name: str = "matrix", allow_empty: bool = False) -> np.ndarray:
    """``x`` as a float64 2-D array, rejecting non-finite entries; a float64 array is not copied."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0 and not allow_empty:
        raise InvalidInputError(f"{name} must be non-empty")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector", allow_empty: bool = False) -> np.ndarray:
    """Coerce ``x`` to a read-only float64 1-D array, rejecting non-finite entries."""
    arr = np.array(x, dtype=float).reshape(-1)
    if arr.size == 0 and not allow_empty:
        raise InvalidInputError(f"{name} must be non-empty")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """A semi-supervised regression instance.

    ``x_unlabeled`` holds the rows whose labels must be bought one by one;
    ``x_labeled`` holds the rows whose labels ``y_labeled`` come for free.
    Row ``i`` of the stacked design refers to ``x_unlabeled[i]`` for
    ``i < n1`` and to ``x_labeled[i - n1]`` otherwise.

    The instance owns one read-only stacked design: the two blocks are views
    of it, and ``svd`` is its thin SVD, computed on first use and kept.
    """

    x_unlabeled: np.ndarray
    x_labeled: np.ndarray
    y_labeled: np.ndarray

    def __post_init__(self):
        x1 = as_matrix(self.x_unlabeled, "x_unlabeled")
        x2 = as_matrix(self.x_labeled, "x_labeled", allow_empty=True)
        y2 = as_vector(self.y_labeled, "y_labeled", allow_empty=True)
        if x2.shape[1] != x1.shape[1]:
            raise InvalidInputError(
                f"column mismatch: x_unlabeled has {x1.shape[1]}, x_labeled has {x2.shape[1]}"
            )
        if y2.shape[0] != x2.shape[0]:
            raise InvalidInputError(
                f"y_labeled has {y2.shape[0]} entries for {x2.shape[0]} labeled rows"
            )
        if x1.shape[0] + x2.shape[0] < x1.shape[1]:
            raise InvalidInputError("underconstrained instance: n1 + n2 must be at least d")
        # The one copy of the blocks; vstack keeps Fortran order when both blocks have it.
        stack = np.ascontiguousarray(np.vstack([x1, x2]))
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "x_unlabeled", stack[: x1.shape[0]])
        object.__setattr__(self, "x_labeled", stack[x1.shape[0]:])
        object.__setattr__(self, "y_labeled", y2)

    def __reduce__(self):
        # Rebuild from the blocks: pickled views would each be copied apart from the stack.
        return (Dataset, (self.x_unlabeled, self.x_labeled, self.y_labeled))

    @property
    def n1(self) -> int:
        return self.x_unlabeled.shape[0]

    @property
    def n2(self) -> int:
        return self.x_labeled.shape[0]

    @property
    def d(self) -> int:
        return self.x_unlabeled.shape[1]

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def stacked(self) -> np.ndarray:
        """All rows, unlabeled block first (read-only, not a copy)."""
        return self._stack

    @cached_property
    def svd(self) -> SvdFactors:
        """Thin SVD of the stacked design, computed on first use."""
        # The cache cannot go stale: the dataclass is frozen and its arrays are read-only.
        return thin_svd(self._stack)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U diag(sigma) V^T`` truncated at a relative rank tolerance.

    ``u`` is (n, r) and ``v`` is (d, r), both with orthonormal columns;
    ``sigma`` is strictly positive and non-increasing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank_tol: float

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[0]

    def validate(self, x: np.ndarray | None = None, residual: float | None = None) -> None:
        """Check orthonormality, ordering and, given ``x`` or its already
        computed ``residual(x)``, the reconstruction error."""
        u, s, v = self.u, self.sigma, self.v
        r = self.rank
        if u.shape != (self.n, r) or v.shape != (self.d, r):
            raise InvalidInputError("inconsistent factor shapes")
        if r == 0:
            raise InvalidInputError("factors have rank zero")
        if np.any(s <= 0) or np.any(np.diff(s) > 0):
            raise InvalidInputError("singular values must be positive and non-increasing")
        eye = np.eye(r)
        if np.max(np.abs(u.T @ u - eye)) > ORTHONORMALITY_TOL:
            raise InvalidInputError("left factor columns are not orthonormal")
        if np.max(np.abs(v.T @ v - eye)) > ORTHONORMALITY_TOL:
            raise InvalidInputError("right factor columns are not orthonormal")
        if x is not None:
            residual = self.residual(x)
        if residual is not None and residual > RECONSTRUCTION_TOL:
            raise InvalidInputError("factors do not reconstruct the input matrix")

    def residual(self, x) -> float:
        """Frobenius norm of ``x - U diag(sigma) V^T`` relative to that of ``x``.

        Both norms are summed in row blocks of at most 1 MB over entries
        divided by ``max |x|``, so that no square overflows or underflows at an
        extreme scale.  A zero ``x`` gives ``inf``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.d):
            raise InvalidInputError(f"factors are of a {self.n}x{self.d} matrix, not {x.shape}")
        scale = max(x.max(), -x.min()) or 1.0
        sigma = self.sigma / scale
        step = max(1, VALIDATE_BLOCK_BYTES // (8 * self.d))
        err = size = 0.0
        for i in range(0, self.n, step):
            block = x[i:i + step] / scale
            diff = (self.u[i:i + step] * sigma) @ self.v.T
            np.subtract(diff, block, out=diff)
            err += float(np.vdot(diff, diff))
            size += float(np.vdot(block, block))
        return math.sqrt(err / size) if size else math.inf


def thin_svd(x, rank_tol: float = DEFAULT_RANK_TOL) -> SvdFactors:
    """Thin SVD of ``x`` with singular values below ``rank_tol * sigma_max`` dropped.

    Work on ``t``, which is ``x`` or, if ``x`` is wide, its transpose, so that
    its short side is its d columns.  The range of ``t`` is found one of two
    ways, and the factors of ``t`` on it are its SVD in those coordinates:

    * Gram route (d <= ``SKETCH_MIN_SIDE``): the eigenpairs of ``t^T t`` with
      eigenvalues above ``GRAM_TRUST * theta_max``, ``W_k`` and ``theta_k``,
      give ``U0 = t W_k theta_k^{-1/2}``, orthonormal up to about
      ``eps / GRAM_TRUST``.  One CholeskyQR pass (Fukaya, Nakatsukasa,
      Yanagisawa and Yamamoto, 2014), ``U0^T U0 = R^T R``, and the k x k SVD
      ``R theta_k^{1/2} = Y Sigma Z^T`` give ``U = U0 R^{-1} Y``, formed in
      ``U0``'s memory, and ``V = W_k Z``.
    * Sketch (d above it): Halko, Martinsson and Tropp's range finder
      (SIAM Review 53(2), 2011, Alg. 4.1 with the growth of section 4.4).
      ``Q`` is an orthonormal basis of ``t Omega`` for a Gaussian d x k
      ``Omega`` of seed ``SKETCH_SEED``, and the SVD
      ``B = Q^T t = U_B Sigma V^T`` gives ``U = Q U_B``.  ``k`` starts at
      ``SKETCH_START`` and doubles while the smallest singular value of ``B``
      is above ``rank_tol * sigma_max``, that is while the sketch may not yet
      hold the range; once ``k`` would exceed d / 2, LAPACK decides.

    Range factors are accepted only if ``||x - U Sigma V^T||_F <= rank_tol *
    sigma_max``, which caps every dropped singular value at the truncation
    threshold, so the rank is the one the full SVD gives.  LAPACK's thin SVD
    is taken instead when that residual is missed, when the Gram route's
    Cholesky fails, when the sketch gives up, and for an ``x`` whose largest
    |entry| lies outside ``GRAM_SAFE_SCALE``.  Every result is validated,
    with the residual computed once.

    Parameters
    ----------
    x : array_like, shape (n, d)
        Design matrix.  All entries must be finite; a float64 array is not copied.
    rank_tol : float
        Relative truncation threshold, required in (0, 1e-3].

    Returns
    -------
    SvdFactors
    """
    if not (0.0 < rank_tol <= 1e-3):
        raise InvalidInputError(f"rank_tol must lie in (0, 1e-3], got {rank_tol}")
    arr = as_matrix(x, "x")
    found = _range_factors(arr, rank_tol)  # its range basis is freed on return
    if found is None:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
        factors = _truncated(u, s, vt.T, rank_tol)
        residual = factors.residual(arr)
    else:
        factors, residual = found
    factors.validate(residual=residual)
    return factors


def _range_factors(arr: np.ndarray, rank_tol: float) -> tuple[SvdFactors, float] | None:
    """Factors of ``arr`` on its Gram range or its sketched range, with their
    relative residual; None where LAPACK decides (see ``thin_svd``)."""
    lo, hi = GRAM_SAFE_SCALE
    if not lo < max(arr.max(), -arr.min()) < hi:
        return None
    wide = arr.shape[0] < arr.shape[1]
    tall = arr.T if wide else arr
    d = tall.shape[1]
    if d <= SKETCH_MIN_SIDE:
        theta, w = np.linalg.eigh(tall.T @ tall)
        k = np.count_nonzero(theta > GRAM_TRUST * theta[-1])  # theta ascends
        if k == 0:
            return None
        factors = _gram_factors(tall, theta[-k:], w[:, -k:], rank_tol)
        if factors is None:
            return None
        norm = math.sqrt(theta.sum())  # theta sums to ||tall||_F^2
    else:
        k = SKETCH_START
        while True:
            if 2 * k > d:
                return None
            omega = make_rng(SKETCH_SEED).standard_normal((d, k))
            q = np.linalg.qr(tall @ omega)[0]
            # The SVD of B^T = tall^T Q, the orientation LAPACK takes faster.
            v, s, u_bt = np.linalg.svd(tall.T @ q, full_matrices=False)
            if s[-1] <= rank_tol * s[0]:
                break
            k *= 2
        factors = _truncated(q @ u_bt.T, s, v, rank_tol)
        norm = float(np.linalg.norm(tall))
    residual = factors.residual(tall)
    if residual * norm > rank_tol * factors.sigma[0]:
        return None
    if wide:
        factors = SvdFactors(u=factors.v, sigma=factors.sigma, v=factors.u,
                             rank_tol=factors.rank_tol)
    return factors, residual


def _gram_factors(tall: np.ndarray, theta: np.ndarray, w: np.ndarray,
                  rank_tol: float) -> SvdFactors | None:
    """Factors of ``tall`` on the span of its Gram eigenvectors ``w`` (eigenvalues
    ``theta``) by one CholeskyQR pass; None if the Cholesky fails."""
    root = np.sqrt(theta)
    u = tall @ (w / root)  # U0, orthonormal up to eps * theta_max / theta_min
    try:
        r = np.linalg.cholesky(u.T @ u).T
    except np.linalg.LinAlgError:
        return None
    y, s, zt = np.linalg.svd(r * root)
    m = np.linalg.solve(r, y)
    # U = U0 R^-1 Y in place, a row block at a time, so no second n x k array is held.
    step = max(1, VALIDATE_BLOCK_BYTES // (8 * u.shape[1]))
    for i in range(0, u.shape[0], step):
        u[i:i + step] = u[i:i + step] @ m
    return _truncated(u, s, w @ zt.T, rank_tol)


def _truncated(u, s, v, rank_tol: float) -> SvdFactors:
    """The singular triplets above ``rank_tol * s[0]`` as contiguous factors."""
    r = np.count_nonzero(s > rank_tol * s[0])
    if r == 0:
        raise InvalidInputError("matrix has numerical rank zero")
    return SvdFactors(
        u=np.ascontiguousarray(u[:, :r]),
        sigma=np.ascontiguousarray(s[:r]),
        v=np.ascontiguousarray(v[:, :r]),
        rank_tol=float(rank_tol),
    )


def leverage_scores(svd: SvdFactors) -> np.ndarray:
    """Squared row norms of the left singular factor.

    Entries lie in [0, 1] and sum to the rank of the design matrix.
    """
    return np.einsum("ij,ij->i", svd.u, svd.u)


def reduced_rank(ds: Dataset) -> float:
    """Share of the stacked design's spectral mass carried by the unlabeled block.

    Defined as ``Tr((X1^T X1 + X2^T X2)^{-1} X1^T X1)``, which equals the sum
    of leverage scores of the unlabeled rows in the stacked design.  The value
    lies in [0, min(d, n1)] and upper-bounds how much label-querying an
    importance sampler must do relative to the labeled block.

    It is summed from the unlabeled rows' leverage scores in ``ds.svd``, so
    it is well defined even when the stacked Gram matrix is singular, where
    the trace formula is not.
    """
    return float(leverage_scores(ds.svd)[: ds.n1].sum())


def statistical_dimension(sigma, lam: float) -> float:
    """Regularized spectrum sum ``sum_i sigma_i^2 / (sigma_i^2 + lam)``.

    ``sigma`` are the singular values of the unlabeled design; at ``lam = 0``
    this is the rank.  Equals :func:`reduced_rank` of the instance obtained by
    stacking ``sqrt(lam) * I`` below the design with zero labels.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    s = as_vector(sigma, "sigma")
    if np.any(s <= 0):
        raise InvalidInputError("singular values must be positive")
    s2 = s * s
    return float(np.sum(s2 / (s2 + lam)))


def effective_dimension(eigs, lam: float) -> float:
    """Regularized eigenvalue sum ``sum_i e_i / (e_i + lam)`` over positive ``e_i``.

    ``eigs`` are eigenvalues of a PSD kernel matrix; nonpositive entries
    (numerically zero modes) contribute nothing and are ignored.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    e = as_vector(eigs, "eigs")
    e = e[e > 0]
    if e.size == 0:
        return 0.0
    return float(np.sum(e / (e + lam)))


def psd_sqrt(k) -> np.ndarray:
    """Symmetric PSD square root ``Z`` of a kernel matrix, ``Z @ Z = K``.

    Eigenvalues in ``[-PSD_NEG_EIG_TOL * ||K||_2, 0)`` are clamped to zero;
    anything lower raises :class:`NotPsdError`.  Asymmetry beyond
    ``PSD_ASYM_TOL`` relative to the largest entry is rejected.

    Eigenvalues within ``PSD_ZERO_TOL * ||K||_2`` of zero are treated as exact
    zero modes.  Keeping them would turn eigendecomposition round-off of
    order ``eps`` into spurious ``sqrt(eps)``-sized directions of ``Z``,
    inflating the numerical rank of anything built on top of the root.
    """
    arr = as_matrix(k, "k")
    n0, n1 = arr.shape
    if n0 != n1:
        raise InvalidInputError(f"kernel matrix must be square, got {arr.shape}")
    scale = max(float(np.max(np.abs(arr))), 1e-300)
    if np.max(np.abs(arr - arr.T)) > PSD_ASYM_TOL * scale:
        raise InvalidInputError("kernel matrix is not symmetric")
    sym = 0.5 * (arr + arr.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    top = max(float(eigvals[-1]), 0.0)
    if eigvals[0] < -PSD_NEG_EIG_TOL * max(top, 1e-300):
        raise NotPsdError(
            f"kernel matrix has eigenvalue {eigvals[0]:.3e}, below the PSD tolerance"
        )
    clamped = np.where(eigvals <= PSD_ZERO_TOL * top, 0.0, eigvals)
    root = (eigvecs * np.sqrt(clamped)) @ eigvecs.T
    return 0.5 * (root + root.T)
