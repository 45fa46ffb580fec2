"""Non-adaptive sampling baselines: leverage-score and uniform row sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asura import SampleSet
from .core import SvdFactors, leverage_scores
from .errors import InvalidInputError
from .rngutil import make_rng

__all__ = ["LeverageConfig", "UniformConfig", "leverage_sample", "uniform_sample"]


@dataclass(frozen=True)
class LeverageConfig:
    """Parameters for independent leverage-score row sampling.

    The expected sample size target is
    ``ceil(oversample_c * d * max(1, ln(d)) / epsilon)`` where ``d`` is the
    factor rank; the floor on the log keeps ranks 1 and 2 from getting an
    empty or tiny target.
    """

    epsilon: float
    oversample_c: float = 15.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (math.isfinite(self.oversample_c) and self.oversample_c > 0):
            raise InvalidInputError("oversample_c must be finite and positive")

    def target_m(self, rank: int) -> int:
        if rank < 1:
            raise InvalidInputError(f"rank must be at least 1, got {rank}")
        return math.ceil(self.oversample_c * rank * max(1.0, math.log(rank)) / self.epsilon)


@dataclass(frozen=True)
class UniformConfig:
    """Parameters for the uniform-sampling control baseline."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError("m must be at least 1")


def leverage_sample(svd: SvdFactors, cfg: LeverageConfig, seed: int) -> SampleSet:
    """Independent Bernoulli row sampling proportional to leverage scores.

    Row ``x`` is included with probability ``min(1, (m/d) ||U(x)||^2)`` and,
    when included, carries loss weight ``1 / p(x)`` so that the weighted
    squared loss is unbiased for the full loss.  Coefficients are unset: this
    is not a sequential procedure.
    """
    rank = svd.rank
    m = cfg.target_m(rank)
    probs = np.minimum(1.0, (m / rank) * leverage_scores(svd))
    rng = make_rng(seed)
    included = rng.random(svd.n) < probs
    indices = np.flatnonzero(included)
    weights = 1.0 / probs[indices]
    return SampleSet(indices=indices, weights=weights)


def uniform_sample(n_rows: int, cfg: UniformConfig, seed: int) -> SampleSet:
    """Draw ``cfg.m`` rows uniformly with replacement, each with weight ``n_rows / cfg.m``."""
    if n_rows < 1:
        raise InvalidInputError("n_rows must be at least 1")
    rng = make_rng(seed)
    indices = rng.integers(0, n_rows, size=cfg.m)
    weights = np.full(cfg.m, n_rows / cfg.m)
    return SampleSet(indices=indices, weights=weights)
