"""Weighted least squares, the active-regression driver, and problem reductions.

The driver stacks the labeled block under the unlabeled block, runs a row
sampler on the combined design, buys labels only for sampled unlabeled rows
(each distinct row billed once), and solves the weighted least-squares problem
restricted to the sampled rows.  Ridge and kernel ridge regression reduce to
the same driver by appending synthetic pre-labeled rows that reproduce the
regularizer exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asura import AsuraConfig, AsuraTrace, SampleSet, asura_sample, sample_with_retry
from .baselines import LeverageConfig, UniformConfig, leverage_sample, uniform_sample
from .core import Dataset, as_matrix, as_vector, psd_sqrt
from .errors import InvalidInputError, NumericalBreakdownError

__all__ = [
    "LabelOracle",
    "RegressionSolution",
    "weighted_lsq",
    "exact_solution",
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


def exact_solution(ds: Dataset, full_labels) -> tuple[np.ndarray, float]:
    """Minimum-norm ``lstsq`` solution on the full instance and its loss; the reference for OPT."""
    y = as_vector(full_labels, "full_labels")
    x = ds.stacked()
    if y.size != x.shape[0]:
        raise InvalidInputError(f"expected {x.shape[0]} labels, got {y.size}")
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = x @ beta - y
    return beta, float(resid @ resid)


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
    k_arr = as_matrix(k, "k")
    n = k_arr.shape[0]
    return Dataset(
        x_unlabeled=k_arr,
        x_labeled=np.sqrt(lam) * root,
        y_labeled=np.zeros(n),
    )


def solve_active(
    ds: Dataset,
    oracle: LabelOracle,
    cfg: AsuraConfig | LeverageConfig | UniformConfig,
    retry: bool = False,
) -> RegressionSolution:
    """Sample rows of the stacked design, buy the needed labels, and solve.

    Parameters
    ----------
    ds : Dataset
    oracle : LabelOracle
        Must cover all ``ds.n`` stacked rows with ``n_unlabeled == ds.n1``.
    cfg : AsuraConfig, LeverageConfig or UniformConfig
        Its type chooses the sampler: the adaptive sampler, leverage-score
        sampling or uniform sampling.
    retry : bool
        For the adaptive sampler, rerun until the well-balancedness check
        passes (at most ``cfg.max_restarts`` attempts).
    """
    if oracle.n_unlabeled != ds.n1:
        raise InvalidInputError("oracle and dataset disagree on the unlabeled block size")
    stacked = ds.stacked()
    svd = ds.svd

    trace = None
    if isinstance(cfg, AsuraConfig):
        if retry:
            sample, trace, _ = sample_with_retry(ds, cfg)
        else:
            sample, trace = asura_sample(ds, cfg)
    elif isinstance(cfg, LeverageConfig):
        sample = leverage_sample(svd, cfg)
    elif isinstance(cfg, UniformConfig):
        sample = uniform_sample(ds.n, cfg)
    else:
        raise InvalidInputError(f"no sampler takes a {type(cfg).__name__} config")

    labels = np.array([oracle.label(i) for i in sample.indices])
    if sample.m > 0:
        beta = weighted_lsq(stacked[sample.indices], sample.weights, labels)
    else:
        beta = np.zeros(ds.d)

    loss = opt = ratio = None
    if oracle.allow_full_loss:
        y_full = oracle.full_labels()
        resid = stacked @ beta - y_full
        loss = float(resid @ resid)
        # The residual taken directly: ||y||^2 - ||U^T y||^2 cancels badly near 0.
        fit_resid = y_full - svd.u @ (svd.u.T @ y_full)
        opt = float(fit_resid @ fit_resid)
        # An OPT at round-off level (a consistent system) makes loss / OPT
        # meaningless, so it is scored like OPT = 0.
        floor = 1e-12 * max(float(y_full @ y_full), 1.0)
        if opt > floor:
            ratio = loss / opt
        else:
            ratio = 1.0 if loss <= floor else float("inf")

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
