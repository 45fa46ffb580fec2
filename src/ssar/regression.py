"""Weighted least squares, the active-regression driver, and problem reductions.

The driver stacks the labeled block under the unlabeled block, runs a row
sampler on the combined design, buys labels only for sampled unlabeled rows
(each distinct row billed once), and solves the weighted least-squares problem
restricted to the sampled rows.  Ridge and kernel ridge regression reduce to
the same driver by appending synthetic pre-labeled rows that reproduce the
regularizer exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .asura import AsuraConfig, AsuraTrace, SampleSet, asura_sample_batch, check_well_balanced
from .baselines import LeverageConfig, UniformConfig, leverage_sample, uniform_sample
from .core import Dataset, as_matrix, as_vector, psd_sqrt
from .errors import InvalidInputError, NumericalBreakdownError, WellBalancedEventFailedError
from .rngutil import derive_seed

__all__ = [
    "LabelOracle",
    "RegressionSolution",
    "weighted_lsq",
    "draw_samples",
    "solve_sample",
    "solve_active",
    "ridge_to_ssal",
    "kernel_ridge_to_ssal",
]

RATIO_SLACK = 1e-9


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
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    root = psd_sqrt(k)
    return Dataset(x_unlabeled=k, x_labeled=np.sqrt(lam) * root, y_labeled=np.zeros(len(root)))


def draw_samples(
    ds: Dataset, cfg: AsuraConfig | LeverageConfig | UniformConfig, seeds: Sequence[int],
    retry: bool = False,
) -> list:
    """One ``(SampleSet, trace)`` slot per seed, drawn with ``replace(cfg, rng_seed=seed)``.

    The type of ``cfg`` chooses the sampler: ``AsuraConfig`` runs go through
    :func:`ssar.asura.asura_sample_batch`, which raises the lowest-indexed
    failing run's error; leverage and uniform runs are drawn per seed, with
    trace None.  With ``retry``, attempt ``a > 1`` redraws the adaptive runs
    that failed :func:`check_well_balanced`, in one batch, the run of seed
    ``s`` with ``derive_seed(s, a)``; a run that fails ``cfg.max_restarts``
    attempts gets a :class:`WellBalancedEventFailedError` with their reports.
    """
    if isinstance(cfg, LeverageConfig):
        return [(leverage_sample(ds.svd, replace(cfg, rng_seed=s)), None) for s in seeds]
    if isinstance(cfg, UniformConfig):
        return [(uniform_sample(ds.n, replace(cfg, rng_seed=s)), None) for s in seeds]
    if not isinstance(cfg, AsuraConfig):
        raise InvalidInputError(f"no sampler takes a {type(cfg).__name__} config")
    if not retry:
        return asura_sample_batch(ds, cfg, seeds)
    drawn, reports, todo = [None] * len(seeds), [[] for _ in seeds], list(range(len(seeds)))
    for attempt in range(1, cfg.max_restarts + 1):
        tried = [seeds[k] if attempt == 1 else derive_seed(seeds[k], attempt) for k in todo]
        for k, run in zip(todo, asura_sample_batch(ds, cfg, tried)):
            reports[k].append(check_well_balanced(run[1], ds.svd))
            if reports[k][-1].well_balanced:
                drawn[k] = run
        todo = [k for k in todo if drawn[k] is None]
        if not todo:
            break
    failed = f"no well-balanced run within {cfg.max_restarts} attempts"
    return [WellBalancedEventFailedError(failed, rep) if run is None else run
            for run, rep in zip(drawn, reports)]


def solve_active(
    ds: Dataset,
    oracle: LabelOracle,
    cfg: AsuraConfig | LeverageConfig | UniformConfig,
    retry: bool = False,
) -> RegressionSolution:
    """Sample rows with ``cfg.rng_seed``, buy the needed labels, and solve.

    :func:`draw_samples` of one seed, then :func:`solve_sample`; with
    ``retry``, a run that is never well balanced raises its
    :class:`WellBalancedEventFailedError`.
    """
    # A non-config has no seed; draw_samples rejects it by its type.
    (drawn,) = draw_samples(ds, cfg, [getattr(cfg, "rng_seed", 0)], retry)
    if isinstance(drawn, WellBalancedEventFailedError):
        raise drawn
    return solve_sample(ds, oracle, *drawn)


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
