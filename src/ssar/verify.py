"""Executable checks for the sampler's structural and statistical guarantees.

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
excess over the bound.  For ``barrier-containment`` the statistic is the
largest eigenvalue excess over the barriers, ``max(l_j - theta_min(A_j),
theta_max(A_j) - u_j)``, and the margin is that minus ``EIG_TOL``.  For
``step-upper`` and ``step-lower`` they are the largest
``q_j = w'_j U(x_j)^T (B_j + tau I)^{-1} U(x_j)`` and ``q_j - 1``, with
``B_j`` the check's right-hand side and ``tau = EIG_TOL``; both are inf
where the chunk holding ``j`` has a ``B_j + tau I`` that is not positive
definite or a ``q_j >= 1``.

The supermartingale check compares iterations ``j`` and ``j + 1`` only over
runs still active at ``j + 1``, which conditions on survival; treat it as an
approximation of the unconditional statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asura import EIG_TOL, AsuraTrace, _gamma_guard, _replay
from .core import SvdFactors
from .errors import InsufficientSampleError, InvalidInputError

__all__ = [
    "LemmaReport",
    "HARD_LEMMA_IDS",
    "check_hard_lemmas",
    "check_statistical_lemmas",
    "query_bound",
    "merge_hard_reports",
]

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


@dataclass
class LemmaReport:
    """Verdict of one check.

    ``worst_margin`` is the worst observed slack, oriented so that positive
    values mean the bound was exceeded by that amount; hard checks pass only
    with ``violations == 0``.
    """

    lemma_id: str
    runs_checked: int
    violations: int
    worst_margin: float
    statistic: float
    verdict: bool


def _scalar_hard_reports(trace: AsuraTrace) -> list[LemmaReport]:
    gamma, d = trace.gamma, trace.rank
    cap = math.ceil(2.0 * d / gamma**2)
    m = trace.m
    reports = [
        LemmaReport(
            lemma_id="iteration-cap",
            runs_checked=1,
            violations=int(m > cap),
            worst_margin=float(m - cap),
            statistic=float(m),
            verdict=m <= cap,
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
            verdict=viol == 0,
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
            verdict=gap <= bound,
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

    Containment takes one stacked ``eigvalsh`` per chunk, and each step check
    one :func:`_step_q` with ``s_j = sqrt(w'_j) U(x_j)``.  A chunk whose
    bordered factorization fails counts that check's violations by eigenvalue,
    ``lambda_max(A_{j+1} - A_j - B_j) > EIG_TOL``, with the same ``B_j``.
    """
    gamma, m, r = trace.gamma, trace.m, trace.rank
    eye = np.eye(r)
    s = np.sqrt(trace.w_prime)[:, None] * svd.u[trace.sampled_index]
    contain_viol, contain_worst = 0, -float("inf")
    step_viol, step_worst = [0, 0], [-float("inf")] * 2
    # Beside each step's matrix sit its bordered matrix and that one's factor.
    for j0, mats in _replay(trace, svd.u, extra_bytes=16 * (r + 1) ** 2):
        j1 = j0 + len(mats) - 1
        # Chunks share their edge matrix; only the last chunk checks A_m.
        held = mats if j1 == m else mats[:-1]
        theta = np.linalg.eigvalsh(held)
        k = len(held)
        over = np.maximum(trace.l[j0:j0 + k] - theta[:, 0], theta[:, -1] - trace.u[j0:j0 + k])
        contain_worst = max(contain_worst, float(over.max()))
        contain_viol += int(np.count_nonzero(over > EIG_TOL))

        a = mats[:-1]
        upper = trace.u[j0:j1, None, None] * eye - a
        upper *= gamma
        lower = a - trace.l[j0 + 1:j1 + 1, None, None] * eye
        lower *= 2.0 * gamma
        for i, b in enumerate((upper, lower)):
            try:
                q = _step_q(b, s[j0:j1])
                step_worst[i] = max(step_worst[i], float(q.max(initial=-np.inf)))
            except np.linalg.LinAlgError:
                lam = np.linalg.eigvalsh(np.subtract(mats[1:] - a, b, out=b))[:, -1]
                step_viol[i] += int(np.count_nonzero(lam > EIG_TOL))
                step_worst[i] = float("inf")

    return [
        LemmaReport("barrier-containment", 1, contain_viol, contain_worst - EIG_TOL,
                    contain_worst, contain_viol == 0),
        *(LemmaReport(lemma_id, 1, viol, q - 1.0, q, viol == 0)
          for lemma_id, viol, q in zip(("step-upper", "step-lower"), step_viol, step_worst)),
    ]


def check_hard_lemmas(trace: AsuraTrace, svd: SvdFactors | None = None) -> list[LemmaReport]:
    """Run the probability-one checks against one trace.

    The scalar checks (iteration cap, potential floor, final gap) read only
    the trace, with ``gamma`` and the rank taken from it.  Given the run's
    factors, the containment and step checks also run, on the running
    matrices replayed from the trace.  Containment takes one stacked
    eigenvalue call per chunk; its ``statistic`` is the largest eigenvalue
    excess over the barriers and its ``worst_margin`` that minus ``EIG_TOL``.
    Each step check takes one stacked bordered Cholesky per chunk
    (:func:`_step_q`); its ``statistic`` is the largest ``q_j`` and its
    ``worst_margin`` ``q_j - 1``, both inf when a chunk cannot be factored
    and its violations are counted by eigenvalue instead.  The matrix checks
    need ``gamma <= 1/4``; a larger ``gamma`` raises
    :class:`InvalidInputError`.
    """
    reports = _scalar_hard_reports(trace)
    if svd is None:
        return reports
    if trace.n_rows != svd.n or trace.rank != svd.rank:
        raise InvalidInputError("factors do not match the traced run")
    _gamma_guard(trace.gamma)
    reports.extend(_matrix_hard_reports(trace, svd))
    return reports


def merge_hard_reports(per_run: Sequence[Sequence[LemmaReport]]) -> list[LemmaReport]:
    """Aggregate per-run hard-check reports into one report per lemma id."""
    merged: dict[str, LemmaReport] = {}
    for reports in per_run:
        for rep in reports:
            prev = merged.get(rep.lemma_id)
            if prev is None:
                merged[rep.lemma_id] = LemmaReport(
                    rep.lemma_id, 1, rep.violations, rep.worst_margin,
                    rep.statistic, rep.verdict,
                )
            else:
                prev.runs_checked += 1
                prev.violations += rep.violations
                prev.worst_margin = max(prev.worst_margin, rep.worst_margin)
                prev.statistic = max(prev.statistic, rep.statistic)
                prev.verdict = prev.verdict and rep.verdict
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
        verdict=violations == 0,
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
                verdict=freq >= required,
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
            verdict=viol == 0,
        )
    )
    return reports


def query_bound(r_x: float, gamma: float) -> float:
    """The mean unlabeled-query bound ``4 r_x / gamma^2`` for an instance with trace ``r_x``."""
    return 4.0 * r_x / gamma**2

