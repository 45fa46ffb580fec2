"""Weighted least squares, the active-regression driver, and problem reductions.

The driver stacks the labeled block under the unlabeled block, runs a row
sampler on the combined design, buys labels only for sampled unlabeled rows
(each distinct row billed once), and solves the weighted least-squares problem
restricted to the sampled rows.  :func:`draw_samples` draws one run per seed
it is given: a config holds the sampler's parameters, never a seed.  Ridge
and kernel ridge regression reduce to the same driver by appending synthetic
pre-labeled rows that reproduce the regularizer exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .asura import AsuraConfig, AsuraTrace, SampleSet, asura_sample_batch
from .baselines import LeverageConfig, UniformConfig, leverage_sample, uniform_sample
from .core import ORTHONORMALITY_TOL, Dataset, _matrix, _truncated, as_matrix, as_vector
from .errors import (
    BarrierViolationError,
    InvalidInputError,
    NotPsdError,
    NumericalBreakdownError,
    SsarError,
    WellBalancedEventFailedError,
)
from .rngutil import derive_seed
from .verify import check_well_balanced

__all__ = [
    "LabelOracle",
    "RegressionSolution",
    "weighted_lsq",
    "draw_samples",
    "solve_sample",
    "ridge_to_ssal",
    "kernel_ridge_to_ssal",
]

RATIO_SLACK = 1e-9

# Attempts a retry draw gives each adaptive run to be well balanced.
MAX_RESTARTS = 10

# A kernel's tolerances, relative to its largest |entry| (asymmetry) or its
# largest eigenvalue (negative and zero modes).
PSD_ASYM_TOL = 1e-8
PSD_NEG_EIG_TOL = 1e-8
PSD_ZERO_TOL = 1e-12
# _symmetrize's tile side: its temporaries are tiles of 32 KB.  It is also the
# row-block height at which kernel_ridge_to_ssal subtracts a kernel's tolerated
# negative modes from K.
SYMMETRIZE_TILE = 64


class LabelOracle:
    """Pay-per-label access to the hidden labels of a stacked instance.

    Rows below ``n_unlabeled`` cost one query each the first time they are
    requested; repeated requests hit the cache.  Rows at or above
    ``n_unlabeled`` belong to the pre-labeled block and are always free.
    A single solve owns a single oracle; the class is not thread-safe.
    """

    def __init__(self, labels, n_unlabeled: int, allow_full_loss: bool = True):
        self._labels = as_vector(labels, "labels")
        if not (0 <= n_unlabeled <= self._labels.size):
            raise InvalidInputError("n_unlabeled out of range for the label vector")
        self.n_unlabeled = int(n_unlabeled)
        self.allow_full_loss = bool(allow_full_loss)
        self._queried: set[int] = set()

    @property
    def query_count(self) -> int:
        return len(self._queried)

    def label(self, index: int) -> float:
        i = int(index)
        if not (0 <= i < self._labels.size):
            raise InvalidInputError(f"row index {i} out of range")
        if i < self.n_unlabeled:
            self._queried.add(i)
        return float(self._labels[i])

    def full_labels(self) -> np.ndarray:
        """Entire label vector, for loss evaluation in test harnesses only."""
        if not self.allow_full_loss:
            raise InvalidInputError("oracle does not permit full-loss evaluation")
        return self._labels


@dataclass
class RegressionSolution:
    """Result of one active solve.

    ``queries`` bills each distinct unlabeled row once; ``queries_iteration_level``
    counts every sampler iteration that landed in the unlabeled block, repeats
    included.  ``loss``, ``opt`` and ``ratio`` are present only when the oracle
    permits full-loss evaluation.
    """

    beta_hat: np.ndarray
    loss: float | None
    opt: float | None
    ratio: float | None
    queries: int
    queries_iteration_level: int
    iterations: int
    sample: SampleSet | None = None
    trace: AsuraTrace | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.opt is not None and self.opt > 0 and self.ratio is not None:
            if self.ratio < 1.0 - RATIO_SLACK:
                raise NumericalBreakdownError(
                    f"approximation ratio {self.ratio} fell below 1"
                )


def weighted_lsq(points, weights, labels) -> np.ndarray:
    """Minimize ``sum_i w_i (beta^T x_i - y_i)^2``, minimum-norm on degeneracy.

    Solved by scaling rows and labels by ``sqrt(w_i)`` and taking the
    pseudo-inverse least-squares solution, so rank-deficient sampled systems
    still return a well-defined vector.
    """
    x = as_matrix(points, "points")
    w = as_vector(weights, "weights")
    y = as_vector(labels, "labels")
    if x.shape[0] != w.size or x.shape[0] != y.size:
        raise InvalidInputError("points, weights and labels must agree in length")
    if np.any(w <= 0):
        raise InvalidInputError("weights must be positive")
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)
    return beta


def _check_lambda(lam: float) -> None:
    """Raise :class:`InvalidInputError` unless the regularizer ``lam`` is finite and >= 0."""
    if not 0 <= lam < math.inf:  # a NaN fails the comparison
        raise InvalidInputError(f"lambda must be finite and nonnegative, got {lam}")


def ridge_to_ssal(x1, lam: float) -> Dataset:
    """Cast ridge regression on ``x1`` as a semi-supervised instance.

    Appends ``sqrt(lam) * I`` as the pre-labeled block with zero labels, so the
    stacked squared loss equals the ridge loss
    ``||X1 b - Y1||^2 + lam ||b||^2`` for every ``b``.  Both blocks are written
    straight into the instance's stack.
    """
    _check_lambda(lam)
    x1 = _matrix(x1, "x1")
    n, d = x1.shape
    stack = np.empty((n + d, d))
    stack[:n] = x1
    np.multiply(np.sqrt(lam), np.eye(d), out=stack[n:])
    return Dataset(stack, n, np.zeros(d))


def kernel_ridge_to_ssal(k, lam: float, eigenpairs=None) -> Dataset:
    """Cast kernel ridge regression with kernel matrix ``k`` as a semi-supervised instance.

    The unlabeled block is ``K`` itself (one queryable row per data point) and
    the pre-labeled block is ``sqrt(lam) * sqrt(K)`` with zero labels, so the
    stacked squared loss equals ``||K b - Y1||^2 + lam * b^T K b``.

    The kernel is given by exactly one of ``k`` and ``eigenpairs``.  The
    instance's stack is one new 2n x n array: ``K`` in the top half and the
    root, written in place, in the bottom half.  ``k`` must be square and
    finite; it is copied once into the top half and never written.  One tile
    pass over that copy measures its asymmetry and makes it symmetric,
    ``(K + K^T) * 0.5``: asymmetry beyond ``PSD_ASYM_TOL`` times the largest
    |entry| raises :class:`InvalidInputError`.  The top half is then
    eigendecomposed, and an eigenvalue below ``-PSD_NEG_EIG_TOL`` times the
    largest raises :class:`NotPsdError`.  The negative modes that tolerance
    lets through, those below ``-PSD_ZERO_TOL`` times the largest, are
    subtracted from the top half by row blocks, which is then made symmetric
    again: ``K`` and its root hold the same modes, and none of them becomes
    a direction of the unlabeled block alone.  ``eigenpairs``, such as the
    ones a generator draws ``K`` from, are ``(e, Q)`` with ``e`` of shape (r,),
    finite, nonnegative, ascending and not all zero, and ``Q`` of shape
    (n, r) with orthonormal columns (``ORTHONORMALITY_TOL``); pairs that fail
    these checks raise :class:`InvalidInputError`.  ``K = Q diag(e) Q^T`` is
    formed from them and made symmetric straight in the top half, so no other
    n x n array is held and ``K`` is not eigendecomposed.

    Both blocks and the stack's thin SVD come from the eigenpairs: over the
    modes above ``PSD_ZERO_TOL`` times the largest eigenvalue, in descending
    order, the root is ``Q diag(sqrt(e)) Q^T``, ``V = Q``,
    ``sigma = sqrt(e) sqrt(e + lam)`` and
    ``U = [Q sqrt(e); Q sqrt(lam)] / sqrt(e + lam)``.  Dropping the modes at
    or below that clamp keeps eigendecomposition round-off of order ``eps``
    from becoming spurious ``sqrt(eps)``-sized directions of the root.  The
    instance keeps those factors only if they pass ``thin_svd``'s test of the
    whole stack, which is checked for finite entries, ``K`` and the root,
    when the instance adopts it.
    """
    _check_lambda(lam)
    if (k is None) == (eigenpairs is None):
        raise InvalidInputError("a kernel needs exactly one of its matrix k and its eigenpairs")
    if k is None:
        try:
            e, q = (np.asarray(a, dtype=float) for a in eigenpairs)
        except (TypeError, ValueError) as exc:  # not a pair, or ragged or non-numeric
            raise InvalidInputError(f"eigenpairs must be a pair (e, Q) of arrays: {exc}") from None
        if q.ndim != 2 or q.size == 0 or e.shape != (q.shape[1],):
            raise InvalidInputError("a kernel given by eigenpairs (e, Q) needs Q of "
                                    "shape (n, r) and e of shape (r,), n, r >= 1")
        # Each comparison is written so that a NaN fails it.
        with np.errstate(over="ignore", invalid="ignore"):  # outside input may be huge
            if not (np.all(e >= 0) and np.all(np.diff(e) >= 0) and 0 < e[-1] < math.inf
                    and np.max(np.abs(q.T @ q - np.eye(e.size))) <= ORTHONORMALITY_TOL):
                raise InvalidInputError("eigenpairs (e, Q) need e finite, nonnegative, ascending "
                                        "and not all zero, and Q with orthonormal columns")
        n = q.shape[0]
        stack = np.empty((2 * n, n))
        np.matmul(q * e, q.T, out=stack[:n])
        _symmetrize(stack[:n])
    else:
        k = _matrix(k, "k")
        n = k.shape[0]
        if k.shape != (n, n):
            raise InvalidInputError(f"kernel matrix must be square, got {k.shape}")
        stack = np.empty((2 * n, n))
        top = stack[:n]
        top[...] = k
        # The largest and smallest entry: a NaN or an inf shows in them.
        hi, lo = top.max(), top.min()
        if not -math.inf < lo <= hi < math.inf:
            raise InvalidInputError("k contains non-finite entries")
        if _symmetrize(top) > PSD_ASYM_TOL * max(hi, -lo, 1e-300):
            raise InvalidInputError("kernel matrix is not symmetric")
        e, q = np.linalg.eigh(top)
        if e[0] < -PSD_NEG_EIG_TOL * max(e[-1], 1e-300):
            raise NotPsdError(f"kernel matrix has eigenvalue {e[0]:.3e}, below the PSD tolerance")
        # The tolerated negative modes leave K as they leave the root, a row block at a time.
        neg = np.flatnonzero(e < -PSD_ZERO_TOL * max(e[-1], 0))
        if neg.size:
            qn, t = q[:, neg], SYMMETRIZE_TILE
            for i in range(0, n, t):
                top[i:i + t] -= (qn[i:i + t] * e[neg]) @ qn.T
            _symmetrize(top)
    # The zero-mode clamp: K above keeps the modes at it, of either sign; the
    # root and the factors take the modes kept here, largest first.
    keep = np.flatnonzero(e > PSD_ZERO_TOL * max(e[-1], 0))[::-1]
    e, q = e[keep], q[:, keep]  # copies, so a full Q is freed here
    # The root from the kept pairs, made symmetric and scaled in its half of the stack.
    root = stack[n:]
    np.matmul(q * np.sqrt(e), q.T, out=root)
    _symmetrize(root)
    root *= np.sqrt(lam)
    factors = None
    if keep.size:
        q = np.ascontiguousarray(q)  # so that _truncated adopts it as V
        shift = np.sqrt(e + lam)
        u = np.empty((2 * n, keep.size))
        np.multiply(q, np.sqrt(e) / shift, out=u[:n])
        np.multiply(q, np.sqrt(lam) / shift, out=u[n:])
        factors = _truncated(u, np.sqrt(e) * shift, q)
    return Dataset(stack, n, np.zeros(n), factors=factors)


def _symmetrize(a: np.ndarray) -> float:
    """Set the square ``a`` to ``(a + a^T) * 0.5`` in place, a pair of
    ``SYMMETRIZE_TILE``-square tiles at a time, so that the temporaries are
    tiles, and return the largest |entry| of ``a - a^T`` before the change.
    Every entry gets the bits of the whole-matrix expression."""
    n, t = a.shape[0], SYMMETRIZE_TILE
    asym = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = a[i:i + t, j:j + t], a[j:j + t, i:i + t].T
            asym = max(asym, np.abs(upper - lower).max())
            tile = upper + lower
            tile *= 0.5
            a[i:i + t, j:j + t] = tile
            a[j:j + t, i:i + t] = tile.T
    return float(asym)


def draw_samples(
    ds: Dataset, cfg: AsuraConfig | LeverageConfig | UniformConfig, seeds: Sequence[int],
    retry: bool = False,
) -> list:
    """One slot per seed, the run of ``cfg``'s sampler on that seed.

    A slot holds the run's ``(SampleSet, trace)`` pair, or the
    :class:`~ssar.errors.SsarError` that ended the run; a negative seed, or
    a ``cfg`` that no sampler takes, raises.  The type of ``cfg`` chooses the
    sampler: ``AsuraConfig`` runs go through
    :func:`ssar.asura.asura_sample_batch`; leverage and uniform runs are
    drawn per seed, with trace None.  With ``retry``, attempt ``a > 1``
    redraws the adaptive runs that failed the well-balancedness check of
    :mod:`ssar.verify` (:func:`~ssar.verify.check_well_balanced`), in one
    batch, the run of seed ``s`` with ``derive_seed(s, a)``.  An error slot is
    final, and so is the error of a check that breaks down on an attempt; a
    run that fails ``MAX_RESTARTS`` attempts gets a
    :class:`WellBalancedEventFailedError` with their reports.
    """
    if isinstance(cfg, LeverageConfig):
        return [(leverage_sample(ds.svd, cfg, s), None) for s in seeds]
    if isinstance(cfg, UniformConfig):
        return [(uniform_sample(ds.n, cfg, s), None) for s in seeds]
    if not isinstance(cfg, AsuraConfig):
        raise InvalidInputError(f"no sampler takes a {type(cfg).__name__} config")
    if not retry:
        return asura_sample_batch(ds, cfg, seeds)
    drawn, reports, todo = [None] * len(seeds), [[] for _ in seeds], list(range(len(seeds)))
    for attempt in range(1, MAX_RESTARTS + 1):
        tried = [seeds[k] if attempt == 1 else derive_seed(seeds[k], attempt) for k in todo]
        for k, run in zip(todo, asura_sample_batch(ds, cfg, tried)):
            if not isinstance(run, SsarError):
                try:
                    reports[k].append(check_well_balanced(run[1], ds.svd))
                except (BarrierViolationError, NumericalBreakdownError) as exc:
                    run = exc  # the check's replay of this run broke down
            if isinstance(run, SsarError) or reports[k][-1].well_balanced:
                drawn[k] = run
        todo = [k for k in todo if drawn[k] is None]
        if not todo:
            break
    failed = f"no well-balanced run within {MAX_RESTARTS} attempts"
    return [WellBalancedEventFailedError(failed, rep) if run is None else run
            for run, rep in zip(drawn, reports)]


def solve_sample(ds: Dataset, oracle: LabelOracle, sample: SampleSet, trace) -> RegressionSolution:
    """Buy the labels of a drawn sample and solve the weighted problem on its rows.

    The weighted problem on the sampled rows is solved in the rank
    coordinates of ``ds.svd = U Sigma V^T``: ``weighted_lsq`` gets the m x r
    rows ``U_S Sigma`` and returns ``t``, and ``beta = V t`` is the
    minimum-norm solution of the problem in the ambient columns.  With
    full-loss access, ``loss`` and ``opt`` are the squared residuals of
    ``beta`` and of the least-squares fit; the ratio is taken on labels
    divided by a power of two near their largest |entry|, and an OPT below
    ``1e-12 * ||y||^2`` counts as 0 (ratio 1 if the loss is too, else inf).
    ``oracle`` must cover all ``ds.n`` rows with ``n_unlabeled == ds.n1``.
    """
    if oracle.n_unlabeled != ds.n1:
        raise InvalidInputError("oracle and dataset disagree on the unlabeled block size")
    stacked = ds.stacked()
    svd = ds.svd

    labels = np.array([oracle.label(i) for i in sample.indices])
    if sample.m > 0:
        # Solved for t = V^T beta: ||V t|| = ||t||, so the minimum-norm t
        # maps to the minimum-norm beta even where the sampled rows lose rank.
        rows = svd.u[sample.indices] * svd.sigma
        beta = svd.v @ weighted_lsq(rows, sample.weights, labels)
    else:
        beta = np.zeros(ds.d)

    loss = opt = ratio = None
    if oracle.allow_full_loss:
        y_full = oracle.full_labels()
        # Scored in units of a power of two near max|y|: the division is exact,
        # and no square overflows or underflows at an extreme label scale.
        top = max(y_full.max(), -y_full.min())
        scale = math.ldexp(1.0, math.frexp(top)[1]) if top else 1.0
        y_unit = y_full / scale
        resid = (stacked @ beta) / scale - y_unit
        loss_unit = float(resid @ resid)
        # The residual taken directly: ||y||^2 - ||U^T y||^2 cancels badly near 0.
        fit_resid = y_unit - svd.u @ (svd.u.T @ y_unit)
        opt_unit = float(fit_resid @ fit_resid)
        # An OPT at round-off level (a consistent system) makes loss / OPT
        # meaningless, so it is scored like OPT = 0.
        floor = 1e-12 * float(y_unit @ y_unit)
        if opt_unit > floor:
            ratio = loss_unit / opt_unit
        else:
            ratio = 1.0 if loss_unit <= floor else float("inf")
        loss = loss_unit * scale * scale
        opt = opt_unit * scale * scale

    return RegressionSolution(
        beta_hat=beta,
        loss=loss,
        opt=opt,
        ratio=ratio,
        queries=oracle.query_count,
        queries_iteration_level=int(np.count_nonzero(sample.indices < ds.n1)),
        iterations=sample.m,
        sample=sample,
        trace=trace,
    )
