"""Adaptive barrier-potential row sampling with a budgeted stopping rule.

The sampler maintains a running d x d matrix ``A`` squeezed between two moving
scalar barriers ``l`` and ``u``.  Each iteration samples one row of the left
singular factor with probability proportional to how much it would push ``A``
toward a barrier, adds the rescaled rank-one update, and advances the barriers
asymmetrically.

The draw is two-level.  The rows are split once per run into contiguous blocks
of about ``sqrt(n)`` rows (at least ``2d``), with a block edge at the end of the
unlabeled block, and each block's Gram matrix is stored.  An iteration reads
every block's mass off the Gram stack, picks a block by inverse CDF, and scores
only that block's rows to pick the row, using the same single uniform.  This
is the same distribution and the same random stream as scoring every row, at
``O((n / B + B) d^2 + d^3)`` per iteration instead of ``O(n d^2)`` for blocks
of ``B`` rows.

The loop charges every iteration's potential against a fixed budget, which
caps the iteration count with probability one and, after normalizing the
accumulated weights by the final barrier midpoint, leaves the weighted Gram
matrix of the sampled rows spectrally close to the identity.

The sampler takes the instance and returns one :class:`AsuraTrace` per run.
The trace, together with ``U``, determines every quantity the analysis
checks: the running matrices ``A_j``, the weights, the midpoint-normalized
coefficients and the unlabeled-block series.  :func:`check_well_balanced`
and :mod:`ssar.verify` read them from the trace and the factors alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .core import Dataset, SvdFactors, leverage_scores
from .errors import (
    BarrierViolationError,
    InvalidInputError,
    NumericalBreakdownError,
    WellBalancedEventFailedError,
)
from .rngutil import derive_seed, make_rng

__all__ = [
    "AsuraConfig",
    "AsuraTrace",
    "SampleSet",
    "WellBalancedReport",
    "sampling_distribution",
    "asura_sample",
    "check_well_balanced",
    "sample_with_retry",
]

# Sampling masses below this are a numerical breakdown; smaller negatives are
# round-off and are clamped to zero.
P_ERROR_FLOOR = -1e-8

# Eigenvalue tolerance for barrier-containment assertions.
EIG_TOL = 1e-9

# Well-balancedness thresholds: spectral window of the reweighted Gram matrix,
# the coefficient-sum bound, and the per-iteration coefficient-conditioning
# bound (as a multiple of gamma^2).
SPECTRAL_LO = 0.75
SPECTRAL_HI = 1.25
ALPHA_SUM_BOUND = 1024.0
KD_BOUND_COEFF = 512.0
# Round-off allowance on the bound relation between the two conditioning
# routes: the sweep is at most half the closed form, with equality at
# iteration 0.  The two are not expected to agree elsewhere.
KD_AGREEMENT_TOL = 1e-6

# The barrier-step containment arguments, and so the matrix checks of a run,
# require gamma <= 1/4.
GAMMA_ASSERT_MAX = 0.25

# Bytes of stacked running matrices (plus any per-matrix work the caller
# declares) that one replay chunk may hold.
REPLAY_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class AsuraConfig:
    """Run parameters for the adaptive sampler.

    ``gamma = sqrt(epsilon) / c0`` controls the barrier speed.  The default
    ``c0 = 2`` is a practical choice; the spectral guarantees only carry their
    full constants for much larger ``c0`` (slower, tighter runs).  The
    sampler runs for any ``gamma < 1/2``; the matrix checks of
    :func:`check_well_balanced` and :func:`ssar.verify.check_hard_lemmas`
    need ``gamma <= 1/4``.
    """

    epsilon: float
    c0: float = 2.0
    rng_seed: int = 0
    max_restarts: int = 10

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (math.isfinite(self.c0) and self.c0 > 0):
            raise InvalidInputError(f"c0 must be finite and positive, got {self.c0}")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be a nonnegative integer")
        if self.max_restarts < 1:
            raise InvalidInputError("max_restarts must be at least 1")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.epsilon) / self.c0


@dataclass
class AsuraTrace:
    """The record of one sampler run.

    ``u`` and ``l`` have length ``m + 1`` (initial through final barrier
    values); the remaining per-iteration arrays have length ``m``.
    ``px1_sum`` is the sampling mass on the ``n_unlabeled`` leading rows and
    ``phi_d`` the matching block-weighted potential.  No matrix is stored:
    with the factor ``U``, the trace determines every running matrix (see
    :func:`_replay`), and the weights and coefficients derive from it.
    """

    gamma: float
    rank: int
    n_rows: int
    n_unlabeled: int
    phi_id: np.ndarray
    u: np.ndarray
    l: np.ndarray
    sampled_index: np.ndarray
    p_j: np.ndarray
    px1_sum: np.ndarray
    phi_d: np.ndarray

    @property
    def m(self) -> int:
        return self.phi_id.shape[0]

    @property
    def w_prime(self) -> np.ndarray:
        """Update weights ``w'_j = gamma / (phi_j p_j)`` of the rank-one steps."""
        return self.gamma / (self.phi_id * self.p_j)

    @property
    def u_final(self) -> float:
        return float(self.u[-1])

    @property
    def l_final(self) -> float:
        return float(self.l[-1])

    @property
    def mid(self) -> float:
        """Final barrier midpoint, which normalizes the weights and coefficients."""
        return 0.5 * (self.u_final + self.l_final)

    @property
    def alpha(self) -> np.ndarray:
        """Midpoint-normalized coefficients ``alpha_j = (gamma / phi_j) / mid``."""
        return (self.gamma / self.phi_id) / self.mid


@dataclass
class SampleSet:
    """Sampled row indices with their loss weights.

    ``weights`` multiply squared residuals directly.  For the adaptive
    sampler they are ``trace.w_prime / trace.mid`` of its run's trace.
    """

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indices.shape != self.weights.shape:
            raise InvalidInputError("indices and weights must have equal length")
        if self.weights.size and np.any(self.weights <= 0):
            raise InvalidInputError("weights must be positive")

    @property
    def m(self) -> int:
        return self.indices.shape[0]


def _barrier_weights(a: np.ndarray, u: float | np.ndarray, l: float | np.ndarray,
                     j: int | None = None):
    """Eigenvectors ``q`` of the running matrix and its barrier weights.

    ``b = 1/(u - theta) + 1/(theta - l)`` over the eigenvalues ``theta`` of
    ``a``; the barrier potential is ``b.sum()``.  ``a`` is one ``(r, r)``
    state with float barriers, or a ``(k, r, r)`` stack with ``(k,)``
    barrier arrays, giving ``(k, r, r)`` and ``(k, r)`` results.  Touching a
    barrier raises rather than dividing by a vanishing gap; ``j`` is the
    iteration of the first state, and the error names the first touched one.
    """
    theta, q = np.linalg.eigh(a)
    if theta.ndim > 1:
        u, l = u[:, None], l[:, None]
    gap_u = u - theta
    gap_l = theta - l
    if gap_u.min() <= 0.0 or gap_l.min() <= 0.0:
        k = int(np.argmax(np.minimum(gap_u, gap_l).min(axis=-1) <= 0.0))
        eigs = np.atleast_2d(theta)[k]
        where = "" if j is None else f" at iteration {j + k}"
        raise BarrierViolationError(
            f"barrier touched{where}: "
            f"eigenvalues span [{eigs.min():.6g}, {eigs.max():.6g}] "
            f"against window [{np.ravel(l)[k]:.6g}, {np.ravel(u)[k]:.6g}]"
        )
    return q, 1.0 / gap_u + 1.0 / gap_l


def _draw_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """Draw one index from a probability vector via its cumulative sums.

    This is the full-row reference draw; the sampler's block draw consumes the
    same single uniform and lands on the same index.
    """
    pick = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return min(pick, p.size - 1)


def _row_blocks(u_mat: np.ndarray, split: int) -> tuple[list[int], np.ndarray]:
    """Contiguous row blocks with an edge at ``split``, and their flattened Grams.

    Returns the block edges (first row of each block, then ``n``) and the
    ``(n_blocks, r * r)`` stack of ``U_k^T U_k``.  Blocks hold
    ``max(ceil(sqrt(n)), 2 r)`` rows: ``sqrt(n)`` balances the block-mass and
    in-block scoring work, and the ``2 r`` floor keeps the stack at most about
    half the size of ``u_mat``.
    """
    n, r = u_mat.shape
    size = max(math.isqrt(n - 1) + 1, 2 * r)
    edges = [*range(0, split, size), *range(split, n, size), n]
    grams = np.empty((len(edges) - 1, r, r))
    for k, (s, e) in enumerate(zip(edges[:-1], edges[1:])):
        np.matmul(u_mat[s:e].T, u_mat[s:e], out=grams[k])
    return edges, grams.reshape(-1, r * r)


def _last_positive(mass) -> int:
    """Index of the last positive entry: where a draw lands when round-off
    leaves the cumulative sum short of the target."""
    for i in range(len(mass) - 1, -1, -1):
        if mass[i] > 0.0:
            return i
    raise NumericalBreakdownError("sampled a zero-probability row")


def _normalize_probabilities(p_raw: np.ndarray) -> np.ndarray:
    """Clamp round-off negatives and renormalize to probability vectors along the last axis."""
    low = float(p_raw.min()) if p_raw.size else 0.0
    if low < P_ERROR_FLOOR:
        raise NumericalBreakdownError(
            f"sampling probability {low:.3e} fell below the breakdown threshold"
        )
    if low < 0.0:
        p_raw = np.where(p_raw < 0.0, 0.0, p_raw)
    total = p_raw.sum(axis=-1, keepdims=True)
    if not (np.all(np.isfinite(total)) and np.all(total > 0.0)):
        raise NumericalBreakdownError("sampling probabilities do not sum to a positive value")
    return p_raw / total


def sampling_distribution(svd: SvdFactors, a: np.ndarray, u: float, l: float) -> np.ndarray:
    """Row-sampling distribution of the barrier state ``(a, u, l)``.

    Row ``x`` gets mass proportional to
    ``U(x)^T [(uI - A)^{-1} + (A - lI)^{-1}] U(x)``.  This scores every row
    and is the reference for the sampler's block draw.
    """
    if a.shape[0] != svd.rank:
        raise InvalidInputError("state dimension does not match factor rank")
    q, b = _barrier_weights(a, u, l)
    g = svd.u @ q
    p_raw = (g * g) @ (b / b.sum())
    return _normalize_probabilities(p_raw)


def asura_sample(ds: Dataset, cfg: AsuraConfig) -> tuple[SampleSet, AsuraTrace]:
    """Run the adaptive sampler on the rows of ``ds.svd.u``.

    The trace records, per iteration, the sampling mass on the ``ds.n1``
    unlabeled rows and the matching block-weighted potential.  The sample is
    the trace's picks with weights ``trace.w_prime / trace.mid``.

    Returns
    -------
    (SampleSet, AsuraTrace)
    """
    u_mat = ds.svd.u
    n, r = u_mat.shape
    n1 = ds.n1
    gamma = cfg.gamma
    if gamma >= 0.5:
        raise InvalidInputError(
            f"gamma={gamma:.4g} breaks the barrier update (needs gamma < 1/2); raise c0"
        )

    cap = math.ceil(2.0 * r / gamma**2)
    budget = 8.0 * r / gamma
    rng = make_rng(cfg.rng_seed)

    edges, grams = _row_blocks(u_mat, n1)
    n_blocks_unlabeled = edges.index(n1)

    a = np.zeros((r, r))
    u = 2.0 * r / gamma
    l = -u
    phi_cum = 0.0

    phis: list[float] = []
    us: list[float] = [u]
    ls: list[float] = [l]
    picks: list[int] = []
    pjs: list[float] = []
    px1s: list[float] = []
    phids: list[float] = []

    j = 0
    while (u - l) + phi_cum < budget:
        if j >= cap:
            raise NumericalBreakdownError(
                f"stopping rule failed to fire within the {cap}-iteration cap"
            )
        q, b = _barrier_weights(a, u, l, j)
        phi = float(b.sum())

        # Row x has mass U(x)^T M U(x); a block's mass is <G_k, M>.  The block
        # level runs on Python lists, which beat numpy calls at this length.
        mix = (q * (b / phi)) @ q.T
        mass = (grams @ mix.ravel()).tolist()
        low = min(mass)
        if low < P_ERROR_FLOOR:
            raise NumericalBreakdownError(
                f"block sampling mass {low:.3e} fell below the breakdown threshold"
            )
        if low < 0.0:
            mass = [max(x, 0.0) for x in mass]
        cum = list(accumulate(mass))
        total = cum[-1]
        if not math.isfinite(total) or total <= 0.0:
            raise NumericalBreakdownError("sampling probabilities do not sum to a positive value")

        target = rng.random() * total
        k = bisect_right(cum, target)
        if k == len(cum):
            k = _last_positive(mass)
        start = edges[k]
        rows = u_mat[start : edges[k + 1]]
        score = np.maximum(np.einsum("ij,ij->i", rows @ mix, rows), 0.0)
        offset = cum[k - 1] if k else 0.0
        i = int(np.searchsorted(np.cumsum(score), target - offset, side="right"))
        if i == score.size:
            i = _last_positive(score)
        pick = start + i
        p_pick = float(score[i]) / total
        if p_pick <= 0.0:
            raise NumericalBreakdownError("sampled a zero-probability row")
        w_prime = gamma / (phi * p_pick)

        mass_unlabeled = cum[n_blocks_unlabeled - 1]
        px1s.append(mass_unlabeled / total)
        phids.append(phi * mass_unlabeled)

        phis.append(phi)
        picks.append(pick)
        pjs.append(p_pick)

        row = u_mat[pick]
        a = a + w_prime * np.outer(row, row)
        u += gamma / ((1.0 - 2.0 * gamma) * phi)
        l += gamma / ((1.0 + 2.0 * gamma) * phi)
        phi_cum += phi
        j += 1
        us.append(u)
        ls.append(l)

    theta = np.linalg.eigvalsh(a)
    if theta.min() < l - EIG_TOL or theta.max() > u + EIG_TOL:
        raise BarrierViolationError("final matrix left the barrier window")

    trace = AsuraTrace(
        gamma=gamma,
        rank=r,
        n_rows=n,
        n_unlabeled=n1,
        phi_id=np.asarray(phis),
        u=np.asarray(us),
        l=np.asarray(ls),
        sampled_index=np.asarray(picks, dtype=np.int64),
        p_j=np.asarray(pjs),
        px1_sum=np.asarray(px1s),
        phi_d=np.asarray(phids),
    )
    return SampleSet(trace.sampled_index, trace.w_prime / trace.mid), trace


def _replay(trace: AsuraTrace, u_mat: np.ndarray, extra_bytes: int = 0):
    """The running matrices ``A_0 .. A_m`` of a traced run, in stacked chunks.

    Yields ``(j0, mats)`` with ``mats[k] = A_{j0 + k}``; consecutive chunks
    share one matrix (the last of a chunk is the first of the next) and the
    last chunk ends at ``A_m``.  Each chunk is one cumulative sum of the
    updates ``w'_j U(x_j) U(x_j)^T`` seeded with the previous chunk's last
    matrix, which adds in the sampler's order and so reproduces its matrices
    bit for bit.  A chunk holds at most ``REPLAY_CHUNK_BYTES`` of matrices plus
    ``extra_bytes`` per matrix of the caller's own work.
    """
    r, m = trace.rank, trace.m
    steps = max(1, REPLAY_CHUNK_BYTES // (8 * r * r + extra_bytes) - 1)
    rows = u_mat[trace.sampled_index]
    w = trace.w_prime
    last = np.zeros((r, r))
    for j0 in range(0, max(m, 1), steps):
        j1 = min(j0 + steps, m)
        mats = np.empty((j1 - j0 + 1, r, r))
        mats[0] = last
        sel = rows[j0:j1]
        np.multiply(w[j0:j1, None, None], sel[:, :, None] * sel[:, None, :], out=mats[1:])
        np.cumsum(mats, axis=0, out=mats)
        last = mats[-1].copy()
        yield j0, mats


@dataclass
class WellBalancedReport:
    """Outcome of the post-run well-balancedness check.

    The conditioning value ``alpha_j * K_j`` is evaluated two ways per
    iteration.  ``kd_closed`` is the closed-form upper bound
    ``gamma * (u_j - l_j) / (u_m + l_m)`` read off the trace.  ``kd_brute`` is
    a sweep ``alpha_j * max_x ||U(x)||^2 / p_x`` over the rows with
    ``U(x) != 0`` at the recorded state: for the uniform base distribution
    on ``n`` rows, ``K_j = sup_x (D(x) / D_j(x)) sup_h |h(x)|^2 / ||h||_D^2``
    comes to ``max_x ||U(x)||^2 / p_x``.

    Since ``p_x >= lambda_min(B_j) ||U(x)||^2 / phi_j`` and
    ``lambda_min(B_j) >= 4 / (u_j - l_j)`` for the barrier matrix ``B_j``, the
    sweep is at most half the closed form at every iteration, with equality
    at iteration 0 where ``A = 0``.  ``kd_max_abs_diff`` is the worst breach
    of that relation: the sweep's largest excess over half the closed form,
    or its distance from half the closed form at iteration 0, whichever is
    larger (0 when the relation holds exactly).  ``kd_agree`` says the breach
    is within ``KD_AGREEMENT_TOL``.
    """

    min_eig: float
    max_eig: float
    spectral_ok: bool
    alpha_sum: float
    alpha_ok: bool
    kd_closed: np.ndarray
    kd_brute: np.ndarray
    kd_max_closed: float
    kd_max_brute: float
    kd_max_abs_diff: float
    kd_agree: bool
    kd_ok: bool
    gamma: float
    well_balanced: bool


def _gamma_guard(gamma: float) -> None:
    if gamma > GAMMA_ASSERT_MAX + 1e-12:
        raise InvalidInputError(
            f"gamma={gamma:.4g} exceeds {GAMMA_ASSERT_MAX}, where the matrix checks "
            "of a run hold; raise c0"
        )


def check_well_balanced(trace: AsuraTrace, svd: SvdFactors) -> WellBalancedReport:
    """Check the three well-balancedness conditions on a completed run.

    (i) the eigenvalues of the reweighted Gram matrix of the sampled rows lie
    in [3/4, 5/4]; (ii) the coefficients sum to at most 1024; (iii) every
    iteration's coefficient-conditioning product ``alpha_j K_j`` is at most
    ``512 gamma^2``, where ``K_j = max_x ||U(x)||^2 / p_x`` over the rows
    with ``U(x) != 0``.  Condition (iii) is checked on both the closed-form
    bound and a brute-force sweep over the running matrices replayed from the
    trace, one barrier step per chunk; :func:`sampling_distribution` is its
    per-iteration reference.  See :class:`WellBalancedReport` for how the two
    relate.  Needs ``gamma <= 1/4``; a larger ``gamma`` raises
    :class:`InvalidInputError`.

    Everything is read from the trace and the run's factors ``svd``: the
    sampled rows, their weights ``trace.w_prime / trace.mid`` and the
    coefficients ``trace.alpha``.
    """
    if trace.n_rows != svd.n or trace.rank != svd.rank:
        raise InvalidInputError("factors do not match the traced run")
    gamma = trace.gamma
    _gamma_guard(gamma)
    u_mat = svd.u

    sel = u_mat[trace.sampled_index]
    gram = (sel * (trace.w_prime / trace.mid)[:, None]).T @ sel
    eigs = np.linalg.eigvalsh(gram)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    spectral_ok = SPECTRAL_LO <= min_eig and max_eig <= SPECTRAL_HI

    alpha = trace.alpha
    alpha_sum = float(alpha.sum())
    alpha_ok = alpha_sum <= ALPHA_SUM_BOUND

    denom = trace.u_final + trace.l_final
    kd_closed = gamma * (trace.u[:-1] - trace.l[:-1]) / denom

    # Rows with U(x) = 0 carry no function mass and have p_x = 0; K is a sup
    # over rows where some function is nonzero, so they are left out.
    lev = leverage_scores(svd)
    live = lev > 0.0
    u_live, lev = u_mat[live], lev[live]
    kd_brute = np.empty(trace.m)
    for j0, mats in _replay(trace, u_mat, extra_bytes=8 * u_live.size):
        j1 = j0 + len(mats) - 1
        q, b = _barrier_weights(mats[:-1], trace.u[j0:j1], trace.l[j0:j1], j0)
        g = u_live @ q
        np.square(g, out=g)
        mix = b / b.sum(axis=1, keepdims=True)
        p = _normalize_probabilities((g @ mix[:, :, None])[..., 0])
        kd_brute[j0:j1] = alpha[j0:j1] * np.max(lev / p, axis=1)

    kd_max_closed = float(kd_closed.max()) if trace.m else 0.0
    kd_max_brute = float(kd_brute.max()) if trace.m else 0.0
    kd_max_abs_diff = 0.0
    if trace.m:
        half = 0.5 * kd_closed
        kd_max_abs_diff = max(float(np.max(kd_brute - half)), abs(float(kd_brute[0] - half[0])))
    kd_agree = kd_max_abs_diff <= KD_AGREEMENT_TOL
    kd_bound = KD_BOUND_COEFF * gamma**2
    kd_ok = kd_max_closed <= kd_bound and kd_max_brute <= kd_bound

    return WellBalancedReport(
        min_eig=min_eig,
        max_eig=max_eig,
        spectral_ok=spectral_ok,
        alpha_sum=alpha_sum,
        alpha_ok=alpha_ok,
        kd_closed=kd_closed,
        kd_brute=kd_brute,
        kd_max_closed=kd_max_closed,
        kd_max_brute=kd_max_brute,
        kd_max_abs_diff=kd_max_abs_diff,
        kd_agree=kd_agree,
        kd_ok=kd_ok,
        gamma=gamma,
        well_balanced=spectral_ok and alpha_ok and kd_ok,
    )


def sample_with_retry(ds: Dataset, cfg: AsuraConfig) -> tuple[SampleSet, AsuraTrace, int]:
    """Rerun the sampler with derived seeds until a run passes the balance check.

    The first attempt uses ``cfg.rng_seed`` directly, so a run that passes on
    attempt 1 is identical to a plain :func:`asura_sample` call.  Raises
    :class:`WellBalancedEventFailedError` carrying every per-attempt report if
    ``cfg.max_restarts`` attempts all fail.
    """
    reports = []
    for attempt in range(1, cfg.max_restarts + 1):
        seed = cfg.rng_seed if attempt == 1 else derive_seed(cfg.rng_seed, attempt)
        attempt_cfg = replace(cfg, rng_seed=seed)
        sample, trace = asura_sample(ds, attempt_cfg)
        report = check_well_balanced(trace, ds.svd)
        if report.well_balanced:
            return sample, trace, attempt
        reports.append(report)
    raise WellBalancedEventFailedError(
        f"no well-balanced run within {cfg.max_restarts} attempts", reports
    )
