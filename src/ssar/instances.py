"""Synthetic instance generators.

Provides seeded Gaussian instances for general testing, the hard ridge
instance built from scaled standard-basis copies with heavy label noise
(whose exact ridge solution and optimal loss have closed forms), the greedy
sign-vector packing used to size that instance family, and low-rank PSD
kernel instances for kernel ridge regression.

Every generator is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import InvalidInputError, NumericalBreakdownError, ResourceLimitError
from .regression import kernel_ridge_to_ssal, ridge_to_ssal
from .rngutil import make_rng

__all__ = [
    "gen_random_instance",
    "LowerBoundSpec",
    "gen_lower_bound_instance",
    "PackingSet",
    "construct_packing",
    "gen_kernel_instance",
]

PACKING_MAX_D = 20


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
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidInputError("noise_sigma must be finite and nonnegative")
    rng = make_rng(seed)
    x = rng.standard_normal((n1 + n2, d)) / math.sqrt(d)
    beta0 = rng.standard_normal(d)
    labels = x @ beta0
    if noise_sigma > 0:
        labels = labels + noise_sigma * rng.standard_normal(n1 + n2)
    ds = Dataset(x_unlabeled=x[:n1], x_labeled=x[n1:], y_labeled=labels[n1:])
    return ds, labels


def gen_kernel_instance(
    n: int,
    rank: int,
    lam: float,
    rng: np.random.Generator,
    eig_min: float = 0.25,
    eig_max: float = 4.0,
    noise_sigma: float = 1.0,
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Kernel ridge instance on a random low-rank PSD kernel.

    The kernel ``K = Q diag(eigs) Q^T`` has ``min(rank, n)`` eigenvalues
    spaced geometrically over ``[eig_min, eig_max]`` and a random orthonormal
    ``Q``; the labels are ``K beta + noise`` for a standard Gaussian ``beta``.
    Draws come from ``rng`` in the order ``Q``, ``beta``, noise.  Returns the
    kernel-ridge-reduced dataset, the full stacked label vector, and the
    kernel's nonzero eigenvalues.
    """
    if n < 1 or rank < 1 or not (0 < eig_min <= eig_max):
        raise InvalidInputError("kernel generator needs n, rank >= 1 and 0 < eig-min <= eig-max")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidInputError("noise_sigma must be finite and nonnegative")
    eigs = np.geomspace(eig_min, eig_max, min(rank, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, eigs.size)))
    k = (q * eigs) @ q.T
    k = 0.5 * (k + k.T)
    ds = kernel_ridge_to_ssal(k, lam)
    y1 = k @ rng.standard_normal(n) + noise_sigma * rng.standard_normal(n)
    return ds, np.concatenate([y1, np.zeros(n)]), eigs


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
    rng_seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError("d must be at least 1")
        if self.n_copies < 1:
            raise InvalidInputError("n_copies must be at least 1")
        if not (0.0 < self.epsilon <= 0.01):
            raise InvalidInputError(f"epsilon must lie in (0, 1/100], got {self.epsilon}")
        if not (1.0 <= self.lam <= 50.0):
            raise InvalidInputError(f"lam must lie in [1, 50], got {self.lam}")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be a nonnegative integer")


def gen_lower_bound_instance(
    spec: LowerBoundSpec,
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
    rng = make_rng(spec.rng_seed)
    signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
    beta_tilde = signs * (1.0 + lam)
    x1 = np.repeat(np.eye(d), n, axis=0) / math.sqrt(n)
    noise_std = math.sqrt((1.0 + lam) / spec.epsilon)
    zeta = rng.standard_normal(n * d) * noise_std
    y1 = (np.repeat(beta_tilde, n) + zeta) / math.sqrt(n)
    ds = ridge_to_ssal(x1, lam)
    full_labels = np.concatenate([y1, np.zeros(d)])
    return ds, full_labels, beta_tilde


@dataclass
class PackingSet:
    """A maximal set of pairwise well-separated sign vectors.

    ``members`` is an (n_members, d) array with entries in {-1, +1};
    ``separation`` is the squared-distance threshold below which vectors were
    merged during construction, measured through the basis-copy design (where
    the squared distance between sign vectors is four times their Hamming
    distance).
    """

    members: np.ndarray
    separation: float

    @property
    def size(self) -> int:
        return self.members.shape[0]


def packing_threshold(d: int, epsilon: float, lam: float) -> float:
    """Squared-distance merge threshold of the packing construction."""
    return 0.002 * d * (epsilon * lam * (1.0 + lam) + 1.0 + lam)


def packing_cardinality_bound(d: int, lam: float) -> float:
    """Guaranteed lower bound on the packing size."""
    return 2.0 ** ((1.0 - 0.011 * (1.0 + lam)) * d - 1.0)


def _sign_hypercube(d: int) -> np.ndarray:
    """All sign vectors of length ``d`` in lexicographic order (+1 before -1)."""
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def _greedy_pack(cube: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy packing over sign vectors at a squared-distance threshold.

    Keeps the first surviving vector, discards every remaining vector whose
    squared distance (four times the Hamming distance) is at most the
    threshold, and repeats.
    """
    d = cube.shape[1]
    # Squared distance 4h <= threshold means inner product >= d - threshold/2.
    dot_cut = d - threshold / 2.0
    alive = np.ones(cube.shape[0], dtype=bool)
    kept: list[int] = []
    cube16 = cube.astype(np.int16)
    while alive.any():
        i = int(np.argmax(alive))
        kept.append(i)
        dots = cube16[alive] @ cube16[i]
        drop = np.flatnonzero(alive)[dots >= dot_cut]
        alive[drop] = False
    return cube[np.asarray(kept, dtype=np.int64)]


def construct_packing(d: int, epsilon: float, lam: float) -> PackingSet:
    """Greedy maximal packing of the sign hypercube at the instance threshold.

    Iterates the hypercube in lexicographic order; each surviving vector is
    kept and every remaining vector within the squared-distance threshold is
    discarded.  Verifies the pairwise-separation and cardinality guarantees
    before returning.
    """
    if d < 1:
        raise InvalidInputError("d must be at least 1")
    if d > PACKING_MAX_D:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to d <= {PACKING_MAX_D}, got {d}"
        )
    if not (0.0 < epsilon <= 0.01):
        raise InvalidInputError(f"epsilon must lie in (0, 1/100], got {epsilon}")
    if not (1.0 <= lam <= 50.0):
        raise InvalidInputError(f"lam must lie in [1, 50], got {lam}")

    threshold = packing_threshold(d, epsilon, lam)
    cube = _sign_hypercube(d)

    if threshold < 4.0:
        # Distinct sign vectors are at squared distance >= 4, so every pick
        # removes only itself and the packing is the whole hypercube.
        members = cube
    else:
        members = _greedy_pack(cube, threshold)

    n_members = members.shape[0]
    bound = packing_cardinality_bound(d, lam)
    if n_members < bound:
        raise NumericalBreakdownError(
            f"packing size {n_members} fell below its guaranteed bound {bound:.3f}"
        )
    if n_members <= 4096 and n_members > 1:
        m16 = members.astype(np.int16)
        dots = m16 @ m16.T
        np.fill_diagonal(dots, -d)
        min_sq_dist = 2.0 * (d - int(dots.max()))
        if min_sq_dist < threshold:
            raise NumericalBreakdownError(
                f"pairwise separation {min_sq_dist} fell below threshold {threshold}"
            )
    return PackingSet(members=members, separation=threshold)
