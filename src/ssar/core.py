"""Dense linear-algebra primitives and instance-level complexity measures.

This module holds the numerical substrate for the rest of the package: the
``Dataset`` instance, one stacked design that it adopts without a copy, with
its blocks as views, checks for finite entries once and factors once
(``Dataset.svd``, read by the samplers, OPT and ``reduced_rank``) or keeps
factors handed to it once they pass ``thin_svd``'s test, a thin SVD with
relative rank truncation, row leverage scores, and the unlabeled-mass trace
``reduced_rank`` that governs label-query complexity; on the ridge and
kernel ridge reductions it is the statistical dimension and the effective
dimension.  The other operations are pure functions; a kernel's own checks
and eigendecomposition live with its reduction,
``ssar.regression.kernel_ridge_to_ssal``.

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
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Dataset",
    "SvdFactors",
    "as_matrix",
    "as_vector",
    "thin_svd",
    "leverage_scores",
    "reduced_rank",
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


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """``x`` as a float64 2-D array, rejecting non-finite entries; a float64 array is not copied."""
    arr = _matrix(x, name)
    _require_finite(arr, name)
    return arr


def _matrix(x, name: str) -> np.ndarray:
    """``x`` as a float64 2-D array, not scanned for non-finite entries; a float64 array is not copied."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise InvalidInputError(f"{name} must be a numeric array: {exc}") from None
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    """Raise unless every entry of the 2-D ``arr`` is finite.  The scan goes by
    row blocks of at most ``VALIDATE_BLOCK_BYTES``, so its mask stays small."""
    step = max(1, VALIDATE_BLOCK_BYTES // (8 * max(arr.shape[1], 1)))
    for i in range(0, arr.shape[0], step):
        if not np.isfinite(arr[i:i + step]).all():
            raise InvalidInputError(f"{name} contains non-finite entries")


def as_vector(x, name: str = "vector", allow_empty: bool = False) -> np.ndarray:
    """Coerce ``x`` to a read-only float64 1-D array, rejecting non-finite entries."""
    try:
        arr = np.array(x, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise InvalidInputError(f"{name} must be a numeric array: {exc}") from None
    if arr.size == 0 and not allow_empty:
        raise InvalidInputError(f"{name} must be non-empty")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class Dataset:
    """A semi-supervised regression instance: the stacked design ``stack``
    and the labels ``y_labeled`` of its rows after the first ``n1``.

    ``x_unlabeled = stack[:n1]``, a view, holds the rows whose labels must be
    bought one by one; ``x_labeled = stack[n1:]`` holds the labeled rows.
    ``stack`` must be a C-contiguous 2-D float64 array that owns its memory,
    not a view.  It is checked for finite entries once, here and not again
    when it is factored, marked read-only and kept, not copied: the caller
    hands it over and keeps no writable view of it.  ``svd`` is its thin SVD,
    computed on first use and kept.  ``factors``, such as the ones stored
    with the instance, are handed to :func:`thin_svd`, which keeps them only
    if they factor the stack.  No attribute can be set.
    """

    def __init__(self, stack: np.ndarray, n1: int, y_labeled,
                 factors: SvdFactors | None = None):
        # A view is refused: its base could still be written after the scan below.
        if not (isinstance(stack, np.ndarray) and stack.dtype == np.float64
                and stack.ndim == 2 and stack.flags.c_contiguous and stack.flags.owndata):
            raise InvalidInputError(
                "a stacked design must be a C-contiguous 2-D float64 array that owns its memory"
            )
        try:
            n1 = operator.index(n1)
        except TypeError:
            raise InvalidInputError(f"n1 must be an integer, got {type(n1).__name__}") from None
        n, d = stack.shape
        if not 1 <= n1 <= n or d == 0:
            raise InvalidInputError("x_unlabeled must be non-empty")
        y2 = as_vector(y_labeled, "y_labeled", allow_empty=True)
        if y2.shape[0] != n - n1:
            raise InvalidInputError(
                f"y_labeled has {y2.shape[0]} entries for {n - n1} labeled rows"
            )
        if n < d:
            raise InvalidInputError("underconstrained instance: n1 + n2 must be at least d")
        _require_finite(stack[:n1], "x_unlabeled")
        _require_finite(stack[n1:], "x_labeled")
        stack.setflags(write=False)
        self.__dict__.update(_stack=stack, x_unlabeled=stack[:n1], x_labeled=stack[n1:],
                             y_labeled=y2, _candidate=factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Dataset is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Dataset is read-only: cannot delete {name!r}")

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
        # The cache cannot go stale: the instance and its arrays are read-only.
        factors = thin_svd(self, self._candidate)
        self.__dict__["_candidate"] = None  # rejected factors are not held
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
    x : array_like, shape (n, d), or Dataset
        Design matrix.  All entries must be finite; a float64 array is not
        copied.  A ``Dataset`` stands for its stack, which its constructor
        checked for finite entries, so it is not scanned again.
    factors : SvdFactors, optional
        Candidate factors of ``x``.

    Returns
    -------
    SvdFactors
    """
    arr = x.stacked() if isinstance(x, Dataset) else as_matrix(x, "x")
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

    The reductions make it the regularized spectrum sum of the paper's
    bounds.  On ``ridge_to_ssal(x1, lam)`` it is the statistical dimension
    ``sd_lam = sum_i s_i^2 / (s_i^2 + lam)`` over the singular values ``s_i``
    of ``x1``.  On ``kernel_ridge_to_ssal`` it is the effective dimension
    ``d_lam = sum_i e_i / (e_i + lam)`` over the kernel's kept modes: the
    eigenvalues ``e_i`` above the reduction's zero-mode clamp whose
    ``sigma_i = sqrt(e_i (e_i + lam))`` the rank truncation keeps.
    """
    return float(leverage_scores(ds.svd)[: ds.n1].sum())
