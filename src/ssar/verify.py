"""Executable checks of finished sampler runs: the well-balancedness event and the lemmas.

The sampler (:mod:`ssar.asura`) evaluates none of them.  The matrix checks,
which need ``gamma <= 1/4``, rebuild a run's running matrices from its trace
and factors (:func:`_replay`).  :func:`check_well_balanced` checks the
well-balancedness event: the spectral window of the reweighted Gram matrix,
the coefficient sum and the conditioning ``alpha_j K_j`` of every iteration.

Hard checks are probability-one statements about a single run (iteration cap,
potential floor, barrier containment, rank-one step domination, final gap
bound) and must show zero violations.  Statistical checks aggregate batches of
independent runs: a lower tail bound on the final upper barrier, the
supermartingale property of the potentials, and the identity tying the
sampling mass on the unlabeled block to a potential ratio.  Statistical checks
carry explicit slack (a 0.05 frequency allowance and three standard errors)
because a finite batch cannot certify an exact inequality between
expectations.  ``query_bound`` is the mean label-query bound that ``sweep``
reports against.

Every check reads its run constants (``gamma``, the rank) and series from
the traces; the matrix checks also take the run's factors.  A report's
``statistic`` is the checked quantity at its worst and ``worst_margin`` its
excess over the bound.  ``barrier-containment`` is decided by two stacked
Choleskys per chunk (:func:`ssar.asura._contained`); only a chunk that fails
them takes ``eigvalsh``, and its largest excess ``max(l_j - theta_min(A_j),
theta_max(A_j) - u_j)`` is the statistic, the margin that minus ``EIG_TOL``,
both -inf on a run whose chunks all factor.  For ``step-upper`` and
``step-lower`` they are the largest ``q_j = w'_j U(x_j)^T (B_j + tau I)^{-1}
U(x_j)`` and ``q_j - 1``, with ``B_j`` the check's right-hand side and
``tau = EIG_TOL``; both are inf where the chunk holding ``j`` has a
``B_j + tau I`` that is not positive definite or a ``q_j >= 1``.

The supermartingale check compares iterations ``j`` and ``j + 1`` only over
runs still active at ``j + 1``, which conditions on survival; treat it as an
approximation of the unconditional statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asura import EIG_TOL, AsuraTrace, _barrier_weights, _contained, _normalize_probabilities
from .core import SvdFactors, leverage_scores
from .errors import InsufficientSampleError, InvalidInputError

__all__ = [
    "LemmaReport",
    "WellBalancedReport",
    "HARD_LEMMA_IDS",
    "check_well_balanced",
    "check_hard_lemmas",
    "check_statistical_lemmas",
    "query_bound",
    "merge_hard_reports",
]

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

MASS_IDENTITY_TOL = 1e-10
FREQUENCY_SLACK = 0.05
SE_MULTIPLIER = 3.0

# The statistical checks are calibrated for batches of at least this many runs.
MIN_STATISTICAL_RUNS = 2000
# Quantile levels of the final-barrier lower-tail check.
TAIL_P_GRID = (0.25, 0.5)

HARD_LEMMA_IDS = (
    "iteration-cap",
    "potential-floor",
    "gap-bound",
    "barrier-containment",
    "step-upper",
    "step-lower",
)


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


def _gamma_guard(gamma: float) -> None:
    if gamma > GAMMA_ASSERT_MAX + 1e-12:
        raise InvalidInputError(
            f"gamma={gamma:.4g} exceeds {GAMMA_ASSERT_MAX}, where the matrix checks "
            "of a run hold; raise c0"
        )


def _check_run_and_factors(trace: AsuraTrace, svd: SvdFactors) -> None:
    """The input check of the matrix checks of a run: ``svd`` must be the
    factors of the traced run's instance, and ``gamma <= 1/4``."""
    if trace.n_rows != svd.n or trace.rank != svd.rank:
        raise InvalidInputError("factors do not match the traced run")
    _gamma_guard(trace.gamma)


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


def check_well_balanced(trace: AsuraTrace, svd: SvdFactors) -> WellBalancedReport:
    """Check the three well-balancedness conditions on a completed run.

    (i) the eigenvalues of the reweighted Gram matrix of the sampled rows lie
    in [3/4, 5/4]; (ii) the coefficients sum to at most 1024; (iii) every
    iteration's coefficient-conditioning product ``alpha_j K_j`` is at most
    ``512 gamma^2``, where ``K_j = max_x ||U(x)||^2 / p_x`` over the rows
    with ``U(x) != 0``.  Condition (iii) is checked on both the closed-form
    bound and a brute-force sweep over the running matrices replayed from the
    trace: one barrier step per chunk gives each state's Cholesky-checked
    mixture ``M / phi`` (:func:`_barrier_weights`) and ``p_x = U(x)^T (M / phi)
    U(x)``.  See :class:`WellBalancedReport` for how the two relate.  The
    per-iteration reference for ``p_x``, which scores every row of one state,
    is the test-side ``sampling_distribution`` (``tests/reference.py``).  Needs
    ``gamma <= 1/4``; a larger ``gamma`` raises :class:`InvalidInputError`.

    Everything is read from the trace and the run's factors ``svd``: the
    sampled rows, their weights ``trace.w_prime / trace.mid`` and the
    coefficients ``trace.alpha``.
    """
    _check_run_and_factors(trace, svd)
    gamma = trace.gamma
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
        mix, _ = _barrier_weights(mats[:-1], trace.u[j0:j1], trace.l[j0:j1], j0)
        p = _normalize_probabilities(np.einsum("kij,ij->ki", u_live @ mix, u_live))
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


@dataclass
class LemmaReport:
    """Verdict of one check.

    ``worst_margin`` is the worst observed slack, oriented so that positive
    values mean the bound was exceeded by that amount; a check passes
    exactly when it counts no violation.
    """

    lemma_id: str
    runs_checked: int
    violations: int
    worst_margin: float
    statistic: float

    @property
    def verdict(self) -> bool:
        return self.violations == 0


def _scalar_hard_reports(trace: AsuraTrace) -> list[LemmaReport]:
    gamma, d = trace.gamma, trace.rank
    cap = trace.cap
    m = trace.m
    reports = [
        LemmaReport(
            lemma_id="iteration-cap",
            runs_checked=1,
            violations=int(m > cap),
            worst_margin=float(m - cap),
            statistic=float(m),
        )
    ]

    floor = 0.5 * gamma
    min_phi = float(trace.phi_id.min()) if m else float("inf")
    viol = int(np.count_nonzero(trace.phi_id < floor))
    reports.append(
        LemmaReport(
            lemma_id="potential-floor",
            runs_checked=1,
            violations=viol,
            worst_margin=floor - min_phi,
            statistic=min_phi,
        )
    )

    gap = trace.u_final - trace.l_final
    bound = 9.0 * d / gamma
    reports.append(
        LemmaReport(
            lemma_id="gap-bound",
            runs_checked=1,
            violations=int(gap > bound),
            worst_margin=gap - bound,
            statistic=gap,
        )
    )
    return reports


def _step_q(b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``q_j = s_j^T (B_j + tau I)^{-1} s_j`` for a stack, with ``tau = EIG_TOL``.

    One stacked Cholesky of the bordered matrices ``[[B_j + tau I, s_j],
    [s_j^T, 1]]`` gives it: the last row of each factor is
    ``((L_j^{-1} s_j)^T, sqrt(1 - q_j))``.  The factor exists exactly when
    ``B_j + tau I`` is positive definite and ``q_j < 1``, so a stack with any
    other matrix raises :class:`numpy.linalg.LinAlgError`.
    """
    k, r = s.shape
    border = np.empty((k, r + 1, r + 1))
    border[:, :r, :r] = b
    np.einsum("kii->ki", border)[:, :r] += EIG_TOL
    border[:, :r, r] = s
    border[:, r, :r] = s
    border[:, r, r] = 1.0
    last = np.linalg.cholesky(border)[:, r, :r]
    return np.einsum("ki,ki->k", last, last)


def _matrix_hard_reports(trace: AsuraTrace, svd: SvdFactors) -> list[LemmaReport]:
    """Containment and step checks on the running matrices replayed from the trace.

    Containment takes one :func:`_contained` per chunk, and each step check
    one :func:`_step_q` with ``s_j = sqrt(w'_j) U(x_j)``.  A chunk whose
    factorization fails counts that check's violations by eigenvalue:
    ``max(l_j - theta_min(A_j), theta_max(A_j) - u_j) > EIG_TOL``, or
    ``lambda_max(A_{j+1} - A_j - B_j) > EIG_TOL`` with the same ``B_j``.
    """
    gamma, m, r = trace.gamma, trace.m, trace.rank
    eye = np.eye(r)
    s = np.sqrt(trace.w_prime)[:, None] * svd.u[trace.sampled_index]
    ids = ("barrier-containment", "step-upper", "step-lower")
    viol, worst = [0, 0, 0], [-math.inf] * 3
    # Beside each step's matrix sit its bordered matrix and that one's factor.
    for j0, mats in _replay(trace, svd.u, extra_bytes=16 * (r + 1) ** 2):
        j1 = j0 + len(mats) - 1
        # Chunks share their edge matrix; only the last chunk checks A_m.
        held = mats if j1 == m else mats[:-1]
        k = len(held)
        if not _contained(held, trace.u[j0:j0 + k], trace.l[j0:j0 + k]):
            theta = np.linalg.eigvalsh(held)
            over = np.maximum(trace.l[j0:j0 + k] - theta[:, 0], theta[:, -1] - trace.u[j0:j0 + k])
            worst[0] = max(worst[0], float(over.max()))
            viol[0] += int(np.count_nonzero(over > EIG_TOL))

        a = mats[:-1]
        upper = trace.u[j0:j1, None, None] * eye - a
        upper *= gamma
        lower = a - trace.l[j0 + 1:j1 + 1, None, None] * eye
        lower *= 2.0 * gamma
        for i, b in enumerate((upper, lower), 1):
            try:
                q = _step_q(b, s[j0:j1])
                worst[i] = max(worst[i], float(q.max(initial=-np.inf)))
            except np.linalg.LinAlgError:
                lam = np.linalg.eigvalsh(np.subtract(mats[1:] - a, b, out=b))[:, -1]
                viol[i] += int(np.count_nonzero(lam > EIG_TOL))
                worst[i] = math.inf

    return [LemmaReport(lemma_id, 1, v, w - bound, w)
            for lemma_id, v, w, bound in zip(ids, viol, worst, (EIG_TOL, 1.0, 1.0))]


def check_hard_lemmas(trace: AsuraTrace, svd: SvdFactors | None = None) -> list[LemmaReport]:
    """Run the probability-one checks against one trace.

    The scalar checks (iteration cap, potential floor, final gap) read only
    the trace, with ``gamma`` and the rank taken from it.  Given the run's
    factors, the containment and step checks also run, on the running
    matrices replayed from the trace: two stacked Choleskys per chunk for
    containment and one bordered Cholesky (:func:`_step_q`) per step check,
    with ``eigvalsh`` only on a chunk that fails them.  Their statistics are
    as the module docstring states.  The matrix checks need
    ``gamma <= 1/4``; a larger ``gamma`` raises :class:`InvalidInputError`.
    """
    reports = _scalar_hard_reports(trace)
    if svd is None:
        return reports
    _check_run_and_factors(trace, svd)
    reports.extend(_matrix_hard_reports(trace, svd))
    return reports


def merge_hard_reports(per_run: Sequence[Sequence[LemmaReport]]) -> list[LemmaReport]:
    """Aggregate per-run hard-check reports into one report per lemma id.

    Each merged ``statistic`` and ``worst_margin`` is the worst run's: the
    largest, except ``potential-floor``'s statistic, the smallest ``phi_j``.
    """
    merged: dict[str, LemmaReport] = {}
    for reports in per_run:
        for rep in reports:
            prev = merged.get(rep.lemma_id)
            if prev is None:
                merged[rep.lemma_id] = LemmaReport(
                    rep.lemma_id, 1, rep.violations, rep.worst_margin, rep.statistic
                )
            else:
                prev.runs_checked += 1
                prev.violations += rep.violations
                prev.worst_margin = max(prev.worst_margin, rep.worst_margin)
                worst = min if rep.lemma_id == "potential-floor" else max
                prev.statistic = worst(prev.statistic, rep.statistic)
    return list(merged.values())


def _martingale_report(series: list[np.ndarray], lemma_id: str) -> LemmaReport:
    """One-sided drift test: per-iteration mean increment at most 3 SE above zero.

    Iteration levels reached by fewer than two runs are skipped (no standard
    error is defined there); ``violations`` counts offending levels.
    """
    max_m = max(s.shape[0] for s in series)
    worst = -float("inf")
    worst_stat = -float("inf")
    violations = 0
    for j in range(max_m - 1):
        diffs = np.array([s[j + 1] - s[j] for s in series if s.shape[0] > j + 1])
        if diffs.size < 2:
            continue
        mean = float(diffs.mean())
        se = float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
        if se == 0.0:
            margin = mean
            stat = math.inf if mean > 0 else 0.0
        else:
            margin = mean - SE_MULTIPLIER * se
            stat = mean / se
        worst = max(worst, margin)
        worst_stat = max(worst_stat, stat)
        if margin > 0:
            violations += 1
    return LemmaReport(
        lemma_id=lemma_id,
        runs_checked=len(series),
        violations=violations,
        worst_margin=worst,
        statistic=worst_stat,
    )


def check_statistical_lemmas(batch: Sequence[AsuraTrace]) -> list[LemmaReport]:
    """Batch-level checks: final-barrier lower tail, potential drift, mass identity.

    Requires at least ``MIN_STATISTICAL_RUNS`` runs, read at call time.
    ``gamma`` and the rank ``d`` come from the traces, so the batch must hold
    runs of one ``gamma`` and one rank; a mixed batch raises
    :class:`InvalidInputError`.
    """
    if len(batch) < MIN_STATISTICAL_RUNS:
        raise InsufficientSampleError(
            f"statistical checks need at least {MIN_STATISTICAL_RUNS} runs, got {len(batch)}"
        )
    if len({(t.gamma, t.rank) for t in batch}) > 1:
        raise InvalidInputError("statistical batch mixes runs of different gamma or rank")
    gamma, d = batch[0].gamma, batch[0].rank
    reports = []

    u_final = np.array([t.u_final for t in batch])
    for p in TAIL_P_GRID:
        threshold = p * p * d / (8.0 * gamma**2)
        freq = float(np.mean(u_final >= threshold))
        required = 1.0 - p - FREQUENCY_SLACK
        reports.append(
            LemmaReport(
                lemma_id=f"final-barrier-tail-p{p:g}",
                runs_checked=len(batch),
                violations=int(freq < required),
                worst_margin=required - freq,
                statistic=freq,
            )
        )

    reports.append(_martingale_report([t.phi_id for t in batch], "potential-drift-identity"))
    reports.append(_martingale_report([t.phi_d for t in batch], "potential-drift-unlabeled"))

    worst_dev = 0.0
    viol = 0
    for t in batch:
        dev = np.abs(t.px1_sum - t.phi_d / t.phi_id)
        if dev.size:
            worst_dev = max(worst_dev, float(dev.max()))
            viol += int(np.count_nonzero(dev > MASS_IDENTITY_TOL))
    reports.append(
        LemmaReport(
            lemma_id="unlabeled-mass-identity",
            runs_checked=len(batch),
            violations=viol,
            worst_margin=worst_dev - MASS_IDENTITY_TOL,
            statistic=worst_dev,
        )
    )
    return reports


def query_bound(r_x: float, gamma: float) -> float:
    """The mean unlabeled-query bound ``4 r_x / gamma^2`` for an instance with trace ``r_x``."""
    return 4.0 * r_x / gamma**2

