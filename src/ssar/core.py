"""Dense linear-algebra primitives and instance-level complexity measures.

This module holds the numerical substrate for the rest of the package: the
``Dataset`` instance, which stacks its blocks once and factors the stack once
(``Dataset.svd``, read by the samplers, OPT and ``reduced_rank``) or keeps
factors handed to it once they pass ``thin_svd``'s test, a thin SVD
with relative rank truncation, row leverage scores, the unlabeled-mass trace
``reduced_rank`` that governs label-query complexity, the regularized spectrum
sums ``statistical_dimension`` and ``effective_dimension``, and
``psd_eigh``, the validated eigendecomposition of a PSD kernel matrix.  The
other operations are pure functions.

``thin_svd`` factors an input on its range, spanned by the Gram matrix's
eigenvectors whose eigenvalues exceed ``GRAM_TRUST`` times the largest (the
Gram route), at full rank or below it; the left factor formed from them is
made orthonormal by one CholeskyQR pass.  Range factors are accepted only if
their residual is below ``DEFAULT_RANK_TOL * sigma_max``.  LAPACK's thin SVD
factors everything else: an input whose largest |entry| is beyond 1e100 or
below 1e-100, where a Gram matrix would overflow or turn denormal; range
factors that miss that residual; and a Gram route whose Cholesky fails.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NotPsdError

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
    "psd_eigh",
]

# The relative rank truncation of every thin SVD: singular values at or below
# this share of the largest are dropped.
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
# psd_eigh's tolerances, relative to the largest entry (asymmetry) or the
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
    ``factors``, such as the ones stored with the instance, are handed to
    :func:`thin_svd`, which keeps them only if they factor the stack.
    """

    x_unlabeled: np.ndarray
    x_labeled: np.ndarray
    y_labeled: np.ndarray
    factors: InitVar[SvdFactors | None] = None

    def __post_init__(self, factors):
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
        object.__setattr__(self, "_candidate", factors)

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
        factors = thin_svd(self._stack, self._candidate)
        object.__setattr__(self, "_candidate", None)  # rejected factors are not held
        return factors


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U diag(sigma) V^T`` truncated at ``DEFAULT_RANK_TOL``.

    ``u`` is (n, r) and ``v`` is (d, r), both with orthonormal columns;
    ``sigma`` is strictly positive and non-increasing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[0]

    def validate(self, x: np.ndarray | None = None) -> None:
        """Check orthonormality, ordering and, given ``x``, the reconstruction
        error: the Frobenius norm of ``x - U diag(sigma) V^T`` relative to that
        of ``x`` (:meth:`_residual_and_norm`) must be at most ``RECONSTRUCTION_TOL``."""
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
        if x is not None and self._residual_and_norm(x)[0] > RECONSTRUCTION_TOL:
            raise InvalidInputError("factors do not reconstruct the input matrix")

    def _residual_and_norm(self, x) -> tuple[float, float]:
        """The Frobenius norm of ``x - U diag(sigma) V^T`` relative to that of
        ``x``, and the Frobenius norm of ``x``, from one pass over ``x``.

        Both norms are summed in row blocks of at most 1 MB over entries
        divided by ``max |x|``, so that no square overflows or underflows at an
        extreme scale.  A zero ``x`` gives a relative residual of ``inf``.
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
        return (math.sqrt(err / size) if size else math.inf), math.sqrt(size) * scale


def thin_svd(x, factors: SvdFactors | None = None) -> SvdFactors:
    """Thin SVD of ``x`` truncated at ``DEFAULT_RANK_TOL * sigma_max``.

    Work on ``t``, which is ``x`` or, if ``x`` is wide, its transpose, so that
    its short side is its d columns.  The eigenpairs of ``t^T t`` with
    eigenvalues above ``GRAM_TRUST * theta_max``, ``W_k`` and ``theta_k``,
    span the range of ``t`` and give ``U0 = t W_k theta_k^{-1/2}``,
    orthonormal up to about ``eps / GRAM_TRUST``.  One CholeskyQR pass
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014), ``U0^T U0 = R^T R``,
    and the k x k SVD ``R theta_k^{1/2} = Y Sigma Z^T`` give
    ``U = U0 R^{-1} Y``, formed in ``U0``'s memory, and ``V = W_k Z``.

    Every candidate, the given ``factors`` and then the range factors, goes
    through one test: it fits the shape of ``x``, every singular value lies
    above ``DEFAULT_RANK_TOL * sigma[0]``, ``||x - U Sigma V^T||_F <=
    DEFAULT_RANK_TOL * sigma[0]``, which caps every dropped singular value at
    the truncation threshold so that the rank is the one the full SVD gives,
    and ``validate`` passes; the residual bound implies its reconstruction
    check, so the residual is computed once.  LAPACK's thin SVD, validated,
    is taken when range factors fail the test, when the Cholesky fails, and
    for an ``x`` whose largest |entry| lies outside ``GRAM_SAFE_SCALE``.

    Given ``factors``, such as the ones stored with an instance, they are
    returned as they are if they pass.  Otherwise ``x`` is factored as above,
    so stale or foreign factors cost one residual check and change no result.

    Parameters
    ----------
    x : array_like, shape (n, d)
        Design matrix.  All entries must be finite; a float64 array is not copied.
    factors : SvdFactors, optional
        Candidate factors of ``x``.

    Returns
    -------
    SvdFactors
    """
    arr = as_matrix(x, "x")
    if factors is not None and _accepted(factors, arr):
        return factors
    factors = _range_factors(arr)  # its range basis is freed on return
    if factors is not None and _accepted(factors, arr):
        return factors
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    factors = _truncated(u, s, vt.T)
    factors.validate(arr)
    return factors


def _accepted(factors: SvdFactors, arr: np.ndarray) -> bool:
    """Whether candidate factors of ``arr`` pass the one test of every candidate
    (see ``thin_svd``): they fit ``arr``, keep no singular value at or below
    the truncation threshold, reconstruct ``arr`` to within it and validate.

    Every comparison is written so that a NaN anywhere in the factors fails it."""
    s = factors.sigma
    r = s.shape[0] if s.ndim == 1 else 0
    if (r == 0 or factors.u.shape != (arr.shape[0], r) or factors.v.shape != (arr.shape[1], r)
            or not np.all(s > DEFAULT_RANK_TOL * s[0])):
        return False
    residual, norm = factors._residual_and_norm(arr)
    if not residual * norm <= DEFAULT_RANK_TOL * s[0]:
        return False
    # With orthonormal factors ||U Sigma V^T||_F >= sigma[0], so the bound
    # above already holds the residual far below RECONSTRUCTION_TOL.
    try:
        factors.validate()
    except InvalidInputError:
        return False
    return True


def _range_factors(arr: np.ndarray) -> SvdFactors | None:
    """Candidate factors of ``arr`` on its Gram range; None where LAPACK
    decides (see ``thin_svd``)."""
    lo, hi = GRAM_SAFE_SCALE
    if not lo < max(arr.max(), -arr.min()) < hi:
        return None
    wide = arr.shape[0] < arr.shape[1]
    tall = arr.T if wide else arr
    theta, w = np.linalg.eigh(tall.T @ tall)
    k = np.count_nonzero(theta > GRAM_TRUST * theta[-1])  # theta ascends
    if k == 0:
        return None
    factors = _gram_factors(tall, theta[-k:], w[:, -k:])
    if factors is not None and wide:
        factors = SvdFactors(u=factors.v, sigma=factors.sigma, v=factors.u)
    return factors


def _gram_factors(tall: np.ndarray, theta: np.ndarray, w: np.ndarray) -> SvdFactors | None:
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
    return _truncated(u, s, w @ zt.T)


def _truncated(u, s, v) -> SvdFactors:
    """The singular triplets above ``DEFAULT_RANK_TOL * s[0]`` as contiguous factors."""
    r = np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
    if r == 0:
        raise InvalidInputError("matrix has numerical rank zero")
    return SvdFactors(
        u=np.ascontiguousarray(u[:, :r]),
        sigma=np.ascontiguousarray(s[:r]),
        v=np.ascontiguousarray(v[:, :r]),
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


def psd_eigh(k) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, clamped) and eigenvectors of a PSD kernel matrix.

    ``K = Q diag(e) Q^T`` up to the clamping: eigenvalues in
    ``[-PSD_NEG_EIG_TOL * ||K||_2, 0)`` are clamped to zero; anything lower
    raises :class:`NotPsdError`.  Asymmetry beyond ``PSD_ASYM_TOL`` relative
    to the largest entry is rejected.

    Eigenvalues within ``PSD_ZERO_TOL * ||K||_2`` of zero are treated as exact
    zero modes.  Keeping them would turn eigendecomposition round-off of
    order ``eps`` into spurious ``sqrt(eps)``-sized directions of the root
    ``Q diag(sqrt(e)) Q^T``, inflating the numerical rank of anything built
    on top of it.
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
    return np.where(eigvals <= PSD_ZERO_TOL * top, 0.0, eigvals), eigvecs
