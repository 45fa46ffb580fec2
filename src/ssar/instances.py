"""Synthetic instance generators.

Provides seeded Gaussian instances for general testing, the hard ridge
instance built from scaled standard-basis copies with heavy label noise
(whose exact ridge solution and optimal loss have closed forms), and low-rank
PSD kernel instances for kernel ridge regression.  The sign-vector packing
that sizes the hard instance family belongs to the lower-bound proof and is
checked in the tests (``tests/reference.py``), not built here.

Every generator is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import InvalidInputError
from .regression import kernel_ridge_to_ssal, ridge_to_ssal
from .rngutil import make_rng

__all__ = [
    "gen_random_instance",
    "gaussian_design",
    "LowerBoundSpec",
    "gen_lower_bound_instance",
    "gen_kernel_instance",
]


def gen_random_instance(
    n1: int, n2: int, d: int, noise_sigma: float, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Gaussian design with a hidden linear model.

    Rows are standard Gaussian scaled by ``1/sqrt(d)`` (unit expected row
    norm), the hidden coefficient vector is standard Gaussian, and labels add
    ``N(0, noise_sigma^2)`` noise.  Returns the dataset (labels revealed for
    the last ``n2`` rows) together with the full hidden label vector.
    """
    if n1 < 1 or n2 < 0 or d < 1 or n1 + n2 < d:
        raise InvalidInputError("need n1 >= 1, n2 >= 0 and n1 + n2 >= d")
    x, labels = gaussian_design(make_rng(seed), n1 + n2, d, d, noise_sigma)
    ds = Dataset(x, n1, labels[n1:])  # the drawn design is the stack
    return ds, labels


def gaussian_design(
    rng: np.random.Generator, n: int, d: int, row_scale: float, noise_sigma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian rows with labels from a hidden linear model.

    ``x`` is ``n x d`` standard Gaussian divided by ``sqrt(row_scale)``, and
    the labels are ``x beta`` for a standard Gaussian ``beta`` plus
    ``N(0, noise_sigma^2)`` noise.  Draws come from ``rng`` in the order
    ``x``, ``beta``, noise.  It is the stack of :func:`gen_random_instance`
    and the unlabeled block of the Gaussian ridge instances, which
    ``ridge_to_ssal(x, lam)`` makes.
    """
    if n < 1 or d < 1:
        raise InvalidInputError("need n >= 1 and d >= 1")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidInputError("noise_sigma must be finite and nonnegative")
    x = rng.standard_normal((n, d)) / math.sqrt(row_scale)
    labels = x @ rng.standard_normal(d)
    if noise_sigma > 0:
        labels = labels + noise_sigma * rng.standard_normal(n)
    return x, labels


def gen_kernel_instance(
    n: int,
    rank: int,
    lam: float,
    rng: np.random.Generator,
    eig_min: float = 0.25,
    eig_max: float = 4.0,
    noise_sigma: float = 1.0,
) -> tuple[Dataset, np.ndarray]:
    """Kernel ridge instance on a random low-rank PSD kernel.

    The kernel ``K = Q diag(eigs) Q^T`` has ``min(rank, n)`` eigenvalues
    spaced geometrically over ``[eig_min, eig_max]`` and a random orthonormal
    ``Q``; the labels are ``K beta + noise`` for a standard Gaussian ``beta``.
    Draws come from ``rng`` in the order ``Q``, ``beta``, noise.  The drawn
    ``(eigs, Q)`` go to :func:`~ssar.regression.kernel_ridge_to_ssal` as
    the kernel's eigenpairs, without ``K``: the reduction forms ``K`` from
    them in the top half of the instance's 2n x n stack and the root in the
    bottom half, so no other n x n array is held and ``K`` is never
    eigendecomposed.  Returns the kernel-ridge-reduced dataset and the full
    stacked label vector; the dataset's ``reduced_rank`` is the kernel's
    effective dimension ``d_lam``.
    """
    if n < 1 or rank < 1 or not (0 < eig_min <= eig_max < math.inf):
        raise InvalidInputError("kernel generator needs n, rank >= 1 and finite "
                                "0 < eig-min <= eig-max")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidInputError("noise_sigma must be finite and nonnegative")
    eigs = np.geomspace(eig_min, eig_max, min(rank, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, eigs.size)))
    ds = kernel_ridge_to_ssal(None, lam, eigenpairs=(eigs, q))
    y1 = ds.x_unlabeled @ rng.standard_normal(n) + noise_sigma * rng.standard_normal(n)
    return ds, np.concatenate([y1, np.zeros(n)])


@dataclass(frozen=True)
class LowerBoundSpec:
    """Parameters of the hard ridge instance family.

    The accuracy and regularization ranges match the regime in which the
    instance family is known to be hard: ``epsilon <= 1/100`` and
    ``lam in [1, 50]``.
    """

    d: int
    n_copies: int
    epsilon: float
    lam: float

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError("d must be at least 1")
        if self.n_copies < 1:
            raise InvalidInputError("n_copies must be at least 1")
        if not (0.0 < self.epsilon <= 0.01):
            raise InvalidInputError(f"epsilon must lie in (0, 1/100], got {self.epsilon}")
        if not (1.0 <= self.lam <= 50.0):
            raise InvalidInputError(f"lam must lie in [1, 50], got {self.lam}")


def gen_lower_bound_instance(
    spec: LowerBoundSpec, seed: int
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Hard ridge instance: basis-vector copies with heavy label noise.

    The unlabeled block holds ``n_copies`` copies of each scaled basis vector
    ``e_i / sqrt(n_copies)``, so its Gram matrix is exactly the identity.  The
    hidden target has coordinates ``+-(1 + lam)`` with signs drawn at random,
    and each row's label is ``(coordinate + noise) / sqrt(n_copies)`` with
    noise variance ``(1 + lam) / epsilon``.  As ``n_copies`` grows the exact
    ridge solution converges to the coordinatewise signs of the hidden target,
    with optimal loss approaching
    ``d * (lam * (1 + lam) + (1 + lam) / epsilon)``.

    Returns the ridge-reduced dataset, the full stacked label vector, and the
    hidden target.
    """
    d, n, lam = spec.d, spec.n_copies, spec.lam
    rng = make_rng(seed)
    signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
    beta_tilde = signs * (1.0 + lam)
    x1 = np.repeat(np.eye(d), n, axis=0) / math.sqrt(n)
    noise_std = math.sqrt((1.0 + lam) / spec.epsilon)
    zeta = rng.standard_normal(n * d) * noise_std
    y1 = (np.repeat(beta_tilde, n) + zeta) / math.sqrt(n)
    ds = ridge_to_ssal(x1, lam)
    full_labels = np.concatenate([y1, np.zeros(d)])
    return ds, full_labels, beta_tilde
