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
from .core import Dataset, _truncated, as_matrix, as_vector, psd_eigh
from .errors import (
    BarrierViolationError,
    InvalidInputError,
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


def ridge_to_ssal(x1, lam: float) -> Dataset:
    """Cast ridge regression on ``x1`` as a semi-supervised instance.

    Appends ``sqrt(lam) * I`` as the pre-labeled block with zero labels, so the
    stacked squared loss equals the ridge loss
    ``||X1 b - Y1||^2 + lam ||b||^2`` for every ``b``.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    x1 = as_matrix(x1, "x1")
    d = x1.shape[1]
    x2 = np.sqrt(lam) * np.eye(d)
    return Dataset(x_unlabeled=x1, x_labeled=x2, y_labeled=np.zeros(d))


def kernel_ridge_to_ssal(k, lam: float) -> Dataset:
    """Cast kernel ridge regression with kernel matrix ``k`` as a semi-supervised instance.

    The unlabeled block is ``K`` itself (one queryable row per data point) and
    the pre-labeled block is ``sqrt(lam) * sqrt(K)`` with zero labels, so the
    stacked squared loss equals ``||K b - Y1||^2 + lam * b^T K b``.

    Both blocks and the stack's thin SVD come from one eigendecomposition
    ``K = Q diag(e) Q^T``: over the positive ``e`` in descending order,
    ``V = Q``, ``sigma = sqrt(e) sqrt(e + lam)`` and
    ``U = [Q sqrt(e); Q sqrt(lam)] / sqrt(e + lam)``.  The instance keeps
    those factors only if they pass ``thin_svd``'s test.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    e, q = psd_eigh(k)
    # The root Q diag(sqrt(e)) Q^T, made symmetric and scaled in its own memory.
    x2 = (q * np.sqrt(e)) @ q.T
    x2 += x2.T
    x2 *= 0.5
    x2 *= np.sqrt(lam)
    keep = np.flatnonzero(e)[::-1]  # the positive eigenvalues, largest first
    e, q = e[keep], q[:, keep]  # copies, so the full Q is freed here
    factors = None
    if keep.size:
        shift = np.sqrt(e + lam)
        u = np.concatenate([q * (np.sqrt(e) / shift), q * (np.sqrt(lam) / shift)])
        factors = _truncated(u, np.sqrt(e) * shift, q)
    return Dataset(x_unlabeled=k, x_labeled=x2, y_labeled=np.zeros(len(x2)), factors=factors)


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
