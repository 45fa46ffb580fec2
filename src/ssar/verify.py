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

Every check reads its run constants (``gamma``, the rank) and series from
the traces; the matrix checks also take the run's factors.

The supermartingale check compares iterations ``j`` and ``j + 1`` only over
runs still active at ``j + 1``, which conditions on survival; treat it as an
approximation of the unconditional statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .asura import (
    EIG_TOL,
    AsuraConfig,
    AsuraTrace,
    SampleSet,
    _gamma_guard,
    _replay,
    asura_sample,
)
from .core import Dataset, SvdFactors, reduced_rank
from .errors import InsufficientSampleError, InvalidInputError
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


def _matrix_hard_reports(trace: AsuraTrace, svd: SvdFactors) -> list[LemmaReport]:
    """Containment and step checks on the running matrices replayed from the trace."""
    gamma, m = trace.gamma, trace.m
    eye = np.eye(trace.rank)
    contain_viol = up_viol = low_viol = 0
    contain_worst = up_worst = low_worst = -float("inf")
    for j0, mats in _replay(trace, svd.u):
        j1 = j0 + len(mats) - 1
        # Chunks share their edge matrix; only the last chunk checks A_m.
        held = mats if j1 == m else mats[:-1]
        theta = np.linalg.eigvalsh(held)
        k = len(held)
        over = np.maximum(trace.l[j0:j0 + k] - theta[:, 0], theta[:, -1] - trace.u[j0:j0 + k])
        contain_worst = max(contain_worst, float(over.max()))
        contain_viol += int(np.count_nonzero(over > EIG_TOL))

        a, step = mats[:-1], mats[1:] - mats[:-1]
        shifted = trace.u[j0:j1, None, None] * eye - a
        shifted *= gamma
        lam_up = np.linalg.eigvalsh(np.subtract(step, shifted, out=shifted))[:, -1]
        shifted = a - trace.l[j0 + 1:j1 + 1, None, None] * eye
        shifted *= 2.0 * gamma
        lam_low = np.linalg.eigvalsh(np.subtract(step, shifted, out=shifted))[:, -1]
        up_worst = max(up_worst, float(lam_up.max(initial=-np.inf)))
        low_worst = max(low_worst, float(lam_low.max(initial=-np.inf)))
        up_viol += int(np.count_nonzero(lam_up > EIG_TOL))
        low_viol += int(np.count_nonzero(lam_low > EIG_TOL))

    return [
        LemmaReport("barrier-containment", 1, contain_viol, contain_worst - EIG_TOL,
                    contain_worst, contain_viol == 0),
        LemmaReport("step-upper", 1, up_viol, up_worst - EIG_TOL, up_worst, up_viol == 0),
        LemmaReport("step-lower", 1, low_viol, low_worst - EIG_TOL, low_worst, low_viol == 0),
    ]


def check_hard_lemmas(trace: AsuraTrace, svd: SvdFactors | None = None) -> list[LemmaReport]:
    """Run the probability-one checks against one trace.

    The scalar checks (iteration cap, potential floor, final gap) read only
    the trace, with ``gamma`` and the rank taken from it.  Given the run's
    factors, the containment and step checks also run, on the running
    matrices replayed from the trace with one stacked eigenvalue call per
    chunk and check.  They need ``gamma <= 1/4``; a larger ``gamma`` raises
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
    ds: Dataset, cfg: AsuraConfig, n_runs: int
) -> list[tuple[SampleSet, AsuraTrace]]:
    """Run ``n_runs`` independent sampler runs on ``ds`` with per-trial derived seeds."""
    out = []
    for k in range(n_runs):
        seed = derive_seed(cfg.rng_seed, k)
        run_cfg = replace(cfg, rng_seed=seed)
        out.append(asura_sample(ds, run_cfg))
    return out
