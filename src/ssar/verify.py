"""Executable checks for the sampler's structural and statistical guarantees.

Hard checks are probability-one statements about a single run (iteration cap,
potential floor, barrier containment, rank-one step domination, final gap
bound) and must show zero violations.  Statistical checks aggregate batches of
independent runs: a lower tail bound on the final upper barrier, the
supermartingale property of the potentials, the identity tying the sampling
mass on the unlabeled block to a potential ratio, and the mean label-query
bound.  Statistical checks carry explicit slack (a 0.05 frequency allowance
and three standard errors) because a finite batch cannot certify an exact
inequality between expectations.

The supermartingale check compares iterations ``j`` and ``j + 1`` only over
runs still active at ``j + 1``, which conditions on survival; treat it as an
approximation of the unconditional statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .asura import AsuraConfig, AsuraTrace, EIG_TOL, SampleSet, asura_sample
from .core import Dataset, SvdFactors, reduced_rank
from .errors import InsufficientSampleError, InsufficientTraceError
from .rngutil import derive_seed

__all__ = [
    "LemmaReport",
    "HARD_LEMMA_IDS",
    "check_hard_lemmas",
    "check_statistical_lemmas",
    "check_query_bound",
    "run_sampler_batch",
    "merge_hard_reports",
]

MASS_IDENTITY_TOL = 1e-10
FREQUENCY_SLACK = 0.05
SE_MULTIPLIER = 3.0

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


def _scalar_hard_reports(trace: AsuraTrace, gamma: float, d: int) -> list[LemmaReport]:
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


def _matrix_hard_reports(trace: AsuraTrace, gamma: float) -> list[LemmaReport]:
    mats = trace.a_mats
    m = trace.m
    eye = np.eye(trace.rank)

    contain_viol = 0
    contain_worst = -float("inf")
    for j in range(m + 1):
        theta = np.linalg.eigvalsh(mats[j])
        over = max(float(trace.l[j] - theta[0]), float(theta[-1] - trace.u[j]))
        contain_worst = max(contain_worst, over)
        if over > EIG_TOL:
            contain_viol += 1

    up_viol = low_viol = 0
    up_worst = low_worst = -float("inf")
    for j in range(m):
        step = mats[j + 1] - mats[j]
        lam_up = float(
            np.linalg.eigvalsh(step - gamma * (trace.u[j] * eye - mats[j]))[-1]
        )
        lam_low = float(
            np.linalg.eigvalsh(step - 2.0 * gamma * (mats[j] - trace.l[j + 1] * eye))[-1]
        )
        up_worst = max(up_worst, lam_up)
        low_worst = max(low_worst, lam_low)
        if lam_up > EIG_TOL:
            up_viol += 1
        if lam_low > EIG_TOL:
            low_viol += 1

    return [
        LemmaReport("barrier-containment", 1, contain_viol, contain_worst - EIG_TOL,
                    contain_worst, contain_viol == 0),
        LemmaReport("step-upper", 1, up_viol, up_worst - EIG_TOL, up_worst, up_viol == 0),
        LemmaReport("step-lower", 1, low_viol, low_worst - EIG_TOL, low_worst, low_viol == 0),
    ]


def check_hard_lemmas(
    trace: AsuraTrace,
    gamma: float,
    d: int,
    scalar_only: bool = False,
) -> list[LemmaReport]:
    """Run every probability-one check against one trace.

    Scalar checks (iteration cap, potential floor, final gap) need only the
    per-iteration scalars; the containment and step checks need the captured
    matrices and raise :class:`InsufficientTraceError` without them unless
    ``scalar_only`` is set.
    """
    reports = _scalar_hard_reports(trace, gamma, d)
    if scalar_only:
        return reports
    if trace.a_mats is None:
        raise InsufficientTraceError(
            "trace lacks per-iteration matrices; rerun with matrix capture or "
            "pass scalar_only=True"
        )
    reports.extend(_matrix_hard_reports(trace, gamma))
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


def check_statistical_lemmas(
    batch: Sequence[AsuraTrace],
    gamma: float,
    d: int,
    p_grid: Sequence[float] = (0.25, 0.5),
    min_batch: int = 2000,
) -> list[LemmaReport]:
    """Batch-level checks: final-barrier lower tail, potential drift, mass identity.

    Requires at least ``min_batch`` runs (the statistical tests are calibrated
    for batches of 2000 or more).  The drift checks need the per-iteration
    potentials recorded at sample time; the unlabeled-block variants need the
    run to have been told the unlabeled row count.
    """
    if len(batch) < min_batch:
        raise InsufficientSampleError(
            f"statistical checks need at least {min_batch} runs, got {len(batch)}"
        )
    reports = []

    u_final = np.array([t.u_final for t in batch])
    for p in p_grid:
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

    if any(t.phi_d is None for t in batch):
        raise InsufficientTraceError(
            "batch contains runs without unlabeled-block potentials; "
            "pass n_unlabeled when sampling"
        )
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


def check_query_bound(batch, ds: Dataset, gamma: float) -> LemmaReport:
    """Mean iteration-level unlabeled-sample count against ``4 R / gamma^2 + 3 SE``.

    ``batch`` is a sequence of solve results exposing
    ``queries_iteration_level``; ``R`` is the instance's unlabeled-mass trace.
    """
    counts = np.array([float(r.queries_iteration_level) for r in batch])
    if counts.size < 2:
        raise InsufficientSampleError("query-bound check needs at least 2 runs")
    r_x = reduced_rank(ds)
    bound = 4.0 * r_x / gamma**2
    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(counts.size)
    margin = mean - (bound + SE_MULTIPLIER * se)
    return LemmaReport(
        lemma_id="unlabeled-query-bound",
        runs_checked=int(counts.size),
        violations=int(margin > 0),
        worst_margin=margin,
        statistic=mean,
        verdict=margin <= 0,
    )


def run_sampler_batch(
    svd: SvdFactors,
    cfg: AsuraConfig,
    n_runs: int,
    n_unlabeled: int | None = None,
    capture_matrices: bool | None = None,
) -> list[tuple[SampleSet, AsuraTrace]]:
    """Run ``n_runs`` independent sampler runs with per-trial derived seeds."""
    out = []
    for k in range(n_runs):
        seed = derive_seed(cfg.rng_seed, k)
        run_cfg = replace(cfg, rng_seed=seed)
        out.append(
            asura_sample(
                svd, run_cfg, n_unlabeled=n_unlabeled, capture_matrices=capture_matrices
            )
        )
    return out
