"""Test-side references: independent cross-checks and proof machinery.

Nothing here is reached from the ``ssar`` command line, so none of it lives in
the library.  Each function is a second route to a quantity the library
computes, or a construction from the analysis that the tests check:

* ``sampling_distribution`` and ``_draw_index`` score every row of a barrier
  state and draw from the full-row distribution, the reference for the
  sampler's two-level block draw;
* ``reduced_rank_inverse`` evaluates the unlabeled-mass trace formula
  directly, against the leverage-score route of ``ssar.core.reduced_rank``;
* ``statistical_dimension`` and ``effective_dimension`` are the closed forms
  ``sd_lambda`` and ``d_lambda`` that ``ssar.core.reduced_rank`` equals on
  the ridge and kernel ridge reductions, from the design's singular values
  or the kernel's eigenvalues;
* ``exact_solution`` is the minimum-norm ``lstsq`` fit of a full instance,
  the reference for OPT;
* ``kernel_eigh`` eigendecomposes a kernel's symmetric part on its own, the
  route that ``ssar.regression.kernel_ridge_to_ssal`` folded into the
  instance's stack;
* ``solve_active`` draws one seed's run and solves it, the one-seed reference
  for ``run``'s batch draw and the shorthand of the tests that solve once;
* ``check_query_bound`` tests a batch's mean label queries against the
  ``4 R / gamma^2`` bound with standard-error slack;
* ``containment_violations_eigvalsh`` counts containment's violations with
  one stacked ``eigvalsh`` per chunk of ``ssar.verify._replay``, the route
  that the two Choleskys of ``ssar.asura._contained`` replaced;
* ``step_violations_eigvalsh`` counts the step checks' violations with one
  stacked ``eigvalsh`` per replay chunk, the route that the rank-one step
  checks of ``ssar.verify`` replaced;
* ``construct_packing`` builds the greedy sign-vector packing that sizes the
  hard ridge instance family of the lower bound.

The sampler and its primitives (``_barrier_weights``,
``_normalize_probabilities``, ``EIG_TOL``) come from ``ssar.asura``; the
replay of a run's matrices and the report types come from ``ssar.verify``,
which holds every check of a finished run.

The two exception classes subclass :class:`ssar.errors.SsarError`, like every
library error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ssar.asura import (
    EIG_TOL,
    AsuraConfig,
    AsuraTrace,
    _barrier_weights,
    _normalize_probabilities,
)
from ssar.baselines import LeverageConfig, UniformConfig
from ssar.core import DEFAULT_RANK_TOL, Dataset, SvdFactors, as_vector, reduced_rank
from ssar.errors import (
    InsufficientSampleError,
    InvalidInputError,
    NumericalBreakdownError,
    SsarError,
)
from ssar.regression import (
    PSD_ZERO_TOL,
    LabelOracle,
    RegressionSolution,
    draw_samples,
    solve_sample,
)
from ssar.verify import SE_MULTIPLIER, LemmaReport, _replay, query_bound


class SingularMatrixError(SsarError):
    """A matrix required to be invertible is numerically rank deficient."""


class ResourceLimitError(SsarError):
    """The request would exhaust the configured compute budget (e.g. exhaustive enumeration)."""


# ---------------------------------------------------------------- sampler


def _draw_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """Draw one index from a probability vector via its cumulative sums.

    This is the full-row reference draw; the sampler's block draw consumes the
    same single uniform and lands on the same index.
    """
    pick = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return min(pick, p.size - 1)


def sampling_distribution(svd: SvdFactors, a: np.ndarray, u: float, l: float) -> np.ndarray:
    """Row-sampling distribution of the barrier state ``(a, u, l)``.

    Row ``x`` gets mass ``U(x)^T (M / phi) U(x)`` for the mixture of
    ``ssar.asura._barrier_weights``, which raises on a touched barrier.  This
    scores every row and is the reference for the sampler's block draw.
    """
    if a.shape[0] != svd.rank:
        raise InvalidInputError("state dimension does not match factor rank")
    mix, _ = _barrier_weights(a, u, l)
    p_raw = np.einsum("ij,ij->i", svd.u @ mix, svd.u)
    return _normalize_probabilities(p_raw)


# ---------------------------------------------------------------- measures


def reduced_rank_inverse(ds: Dataset) -> float:
    """``Tr((X1^T X1 + X2^T X2)^{-1} X1^T X1)`` by the trace formula itself.

    An independent cross-check of :func:`ssar.core.reduced_rank`; raises
    :class:`SingularMatrixError` when the stacked Gram matrix is rank
    deficient, where only the leverage-score route is defined.
    """
    x1, x2 = ds.x_unlabeled, ds.x_labeled
    g1 = x1.T @ x1
    gram = g1 + x2.T @ x2
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= (DEFAULT_RANK_TOL ** 2) * max(eigs[-1], 0.0) or eigs[-1] <= 0.0:
        raise SingularMatrixError(
            "stacked Gram matrix is numerically singular; use ssar.core.reduced_rank"
        )
    return float(np.trace(np.linalg.solve(gram, g1)))


def statistical_dimension(sigma, lam: float) -> float:
    """Regularized spectrum sum ``sum_i sigma_i^2 / (sigma_i^2 + lam)``, the
    closed form of :func:`ssar.core.reduced_rank` on ``ridge_to_ssal(x1, lam)``.

    ``sigma`` are the singular values of ``x1``; at ``lam = 0`` this is the rank.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    s = as_vector(sigma, "sigma")
    if np.any(s <= 0):
        raise InvalidInputError("singular values must be positive")
    s2 = s * s
    return float(np.sum(s2 / (s2 + lam)))


def effective_dimension(eigs, lam: float) -> float:
    """Regularized eigenvalue sum ``sum_i e_i / (e_i + lam)`` over positive
    ``e_i``, the closed form of :func:`ssar.core.reduced_rank` on
    ``kernel_ridge_to_ssal`` of a kernel with eigenvalues ``eigs``.

    Nonpositive entries (numerically zero modes) contribute nothing.
    """
    if lam < 0:
        raise InvalidInputError(f"lam must be nonnegative, got {lam}")
    e = as_vector(eigs, "eigs")
    e = e[e > 0]
    if e.size == 0:
        return 0.0
    return float(np.sum(e / (e + lam)))


def exact_solution(ds: Dataset, full_labels) -> tuple[np.ndarray, float]:
    """Minimum-norm ``lstsq`` solution on the full instance and its loss; the reference for OPT."""
    y = as_vector(full_labels, "full_labels")
    x = ds.stacked()
    if y.size != x.shape[0]:
        raise InvalidInputError(f"expected {x.shape[0]} labels, got {y.size}")
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = x @ beta - y
    return beta, float(resid @ resid)


def kernel_eigh(k) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of ``0.5 * (k + k^T)``, from
    a fresh copy, with the eigenvalues at or below ``PSD_ZERO_TOL`` times the
    largest set to zero."""
    e, q = np.linalg.eigh(0.5 * (k + k.T))
    return np.where(e <= PSD_ZERO_TOL * max(e[-1], 0.0), 0.0, e), q


def solve_active(
    ds: Dataset,
    oracle: LabelOracle,
    cfg: AsuraConfig | LeverageConfig | UniformConfig,
    seed: int = 0,
    retry: bool = False,
) -> RegressionSolution:
    """Sample rows with ``seed``, buy the needed labels, and solve.

    :func:`draw_samples` of one seed, then :func:`solve_sample`; a run that
    ends in an error slot raises its error (with ``retry``, a run that is
    never well balanced raises its :class:`WellBalancedEventFailedError`).
    """
    (drawn,) = draw_samples(ds, cfg, [seed], retry)
    if isinstance(drawn, SsarError):
        raise drawn
    return solve_sample(ds, oracle, *drawn)


def check_query_bound(batch, ds: Dataset, gamma: float) -> LemmaReport:
    """Mean iteration-level unlabeled-sample count against ``4 R / gamma^2 + 3 SE``.

    ``batch`` is a sequence of solve results exposing
    ``queries_iteration_level``; ``R`` is the instance's unlabeled-mass trace.
    """
    counts = np.array([float(r.queries_iteration_level) for r in batch])
    if counts.size < 2:
        raise InsufficientSampleError("query-bound check needs at least 2 runs")
    bound = query_bound(reduced_rank(ds), gamma)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(counts.size)
    margin = mean - (bound + SE_MULTIPLIER * se)
    return LemmaReport(
        lemma_id="unlabeled-query-bound",
        runs_checked=int(counts.size),
        violations=int(margin > 0),
        worst_margin=margin,
        statistic=mean,
    )


def containment_violations_eigvalsh(trace: AsuraTrace, svd: SvdFactors) -> int:
    """Violations of ``barrier-containment``, by eigenvalue.

    ``A_j`` violates the check where ``max(l_j - theta_min(A_j), theta_max(A_j) - u_j)``
    exceeds ``EIG_TOL``.
    """
    m, viol = trace.m, 0
    for j0, mats in _replay(trace, svd.u):
        # Chunks share their edge matrix; only the last chunk checks A_m.
        held = mats if j0 + len(mats) - 1 == m else mats[:-1]
        theta = np.linalg.eigvalsh(held)
        k = len(held)
        over = np.maximum(trace.l[j0:j0 + k] - theta[:, 0], theta[:, -1] - trace.u[j0:j0 + k])
        viol += int(np.count_nonzero(over > EIG_TOL))
    return viol


def step_violations_eigvalsh(trace: AsuraTrace, svd: SvdFactors) -> tuple[int, int]:
    """Violations of ``step-upper`` and ``step-lower``, by eigenvalue.

    A step violates its check where ``lambda_max(A_{j+1} - A_j - B_j)``
    exceeds ``EIG_TOL``, with ``B_j = gamma (u_j I - A_j)`` and
    ``B_j = 2 gamma (A_j - l_{j+1} I)``.
    """
    gamma, eye = trace.gamma, np.eye(trace.rank)
    up = low = 0
    for j0, mats in _replay(trace, svd.u):
        j1 = j0 + len(mats) - 1
        a, step = mats[:-1], mats[1:] - mats[:-1]
        upper = gamma * (trace.u[j0:j1, None, None] * eye - a)
        lower = 2.0 * gamma * (a - trace.l[j0 + 1:j1 + 1, None, None] * eye)
        up += int(np.count_nonzero(np.linalg.eigvalsh(step - upper)[:, -1] > EIG_TOL))
        low += int(np.count_nonzero(np.linalg.eigvalsh(step - lower)[:, -1] > EIG_TOL))
    return up, low


# ---------------------------------------------------------------- packing

PACKING_MAX_D = 20


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
