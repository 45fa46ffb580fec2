"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a ``[criterion-NN] PASS/FAIL`` line with its measured
statistics (run with ``pytest -s`` to see them live) and then asserts the
criterion at its stated tolerance.  Heavy run batches are shared through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from ssar.asura import AsuraConfig, asura_sample_batch
from ssar.baselines import LeverageConfig, leverage_sample
from ssar.core import (
    Dataset,
    effective_dimension,
    leverage_scores,
    reduced_rank,
    statistical_dimension,
    thin_svd,
)
from ssar.instances import (
    LowerBoundSpec,
    gaussian_design,
    gen_kernel_instance,
    gen_lower_bound_instance,
    gen_random_instance,
)
from ssar.regression import (
    LabelOracle,
    draw_samples,
    kernel_ridge_to_ssal,
    ridge_to_ssal,
    solve_sample,
)
from ssar.rngutil import derive_seed, make_rng
from ssar.verify import (
    _replay,
    check_hard_lemmas,
    check_statistical_lemmas,
    check_well_balanced,
    merge_hard_reports,
)

from reference import (
    check_query_bound,
    construct_packing,
    exact_solution,
    packing_threshold,
    reduced_rank_inverse,
)

BASE_SEED = 20250808


def _verdict(cid: int, ok: bool, detail: str) -> None:
    print(f"[criterion-{cid:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


# ------------------------------------------------------------------ shared

@pytest.fixture(scope="module")
def hard_grid():
    """504 asserted runs over d x epsilon, with hard checks and the mass identity."""
    cells = {}
    mass_worst = 0.0
    iterations = 0
    hard_elapsed = 0.0
    for d in (4, 8, 16):
        ds, _ = gen_random_instance(3 * d, d, d, 1.0, derive_seed(BASE_SEED, 3, d))
        svd = ds.svd
        u1 = svd.u[: ds.n1]
        d_mat = u1.T @ u1
        eye = np.eye(svd.rank)
        for eps in (0.25, 0.1):
            cfg = AsuraConfig(epsilon=eps, c0=2.0)
            cell_seed = derive_seed(BASE_SEED, 3, d, int(1000 * eps))
            t0 = time.perf_counter()
            runs = draw_samples(ds, cfg, [derive_seed(cell_seed, k) for k in range(84)])
            per_run = [check_hard_lemmas(t, svd) for _, t in runs]
            hard_elapsed += time.perf_counter() - t0
            cells[(d, eps)] = merge_hard_reports(per_run)
            # Independent route for the per-iteration mass identity: explicit
            # inverses of the replayed matrices against the row sums recorded
            # by the sampler itself.
            for _, t in runs:
                for j0, mats in _replay(t, svd.u):
                    j1 = j0 + len(mats) - 1
                    a = mats[:-1]
                    b = np.linalg.inv(t.u[j0:j1, None, None] * eye - a) + np.linalg.inv(
                        a - t.l[j0:j1, None, None] * eye
                    )
                    ratio = np.trace(d_mat @ b, axis1=1, axis2=2) / np.trace(b, axis1=1, axis2=2)
                    dev = np.abs(t.px1_sum[j0:j1] - ratio)
                    mass_worst = max(mass_worst, float(dev.max(initial=0.0)))
                iterations += t.m
    return {
        "cells": cells,
        "runs": 504,
        "hard_elapsed": hard_elapsed,
        "mass_worst": mass_worst,
        "iterations": iterations,
    }


@pytest.fixture(scope="module")
def statistical_batch():
    """2000 runs at d=8, epsilon=0.25, c0=2 on a fixed Gaussian instance."""
    ds, _ = gen_random_instance(60, 20, 8, 1.0, derive_seed(BASE_SEED, 5))
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    t0 = time.perf_counter()
    seeds = [derive_seed(derive_seed(BASE_SEED, 5, 1), k) for k in range(2000)]
    traces = [t for _, t in draw_samples(ds, cfg, seeds)]
    return {
        "traces": traces,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------- criteria

def test_criterion_01_reduction_loss_identities():
    rng = make_rng(derive_seed(BASE_SEED, 1))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        n1 = int(rng.integers(d, d + 9))
        x1 = rng.standard_normal((n1, d))
        y1 = rng.standard_normal(n1)
        beta = rng.standard_normal(d)
        lam = 0.0 if rng.random() < 0.2 else float(10 * rng.random())
        ds = ridge_to_ssal(x1, lam)
        stacked = ds.stacked() @ beta - np.concatenate([y1, np.zeros(d)])
        lhs = float(stacked @ stacked)
        rhs = float(((x1 @ beta - y1) ** 2).sum() + lam * beta @ beta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        b = rng.standard_normal((n, n))
        k = b.T @ b
        y1 = rng.standard_normal(n)
        beta = rng.standard_normal(n)
        lam = 0.0 if rng.random() < 0.2 else float(5 * rng.random())
        ds = kernel_ridge_to_ssal(k, lam)
        stacked = ds.stacked() @ beta - np.concatenate([y1, np.zeros(n)])
        lhs = float(stacked @ stacked)
        rhs = float(((k @ beta - y1) ** 2).sum() + lam * beta @ k @ beta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(1, ok, f"2000 identity pairs, worst rel dev {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_unlabeled_mass_consistency():
    rng = make_rng(derive_seed(BASE_SEED, 2))
    worst_random = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        n2 = int(rng.integers(0, 11))
        n1 = int(rng.integers(max(1, d - n2), 25))
        x = rng.standard_normal((n1 + n2, d))
        ds = Dataset(x_unlabeled=x[:n1], x_labeled=x[n1:], y_labeled=np.zeros(n2))
        u, _, _ = np.linalg.svd(ds.stacked(), full_matrices=False)
        oracle = float((u[:n1] ** 2).sum())
        rr = reduced_rank(ds)
        worst_random = max(worst_random, abs(rr - oracle))
        worst_random = max(worst_random, abs(rr - reduced_rank_inverse(ds)))
    worst_ridge = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        x1 = rng.standard_normal((int(rng.integers(d, 20)), d))
        lam = 0.0 if rng.random() < 0.2 else float(8 * rng.random())
        sigma = np.linalg.svd(x1, compute_uv=False)
        worst_ridge = max(
            worst_ridge,
            abs(reduced_rank(ridge_to_ssal(x1, lam)) - statistical_dimension(sigma, lam)),
        )
    worst_kernel = 0.0
    for i in range(100):
        n = int(rng.integers(3, 9))
        if i % 2 == 0:
            b = rng.standard_normal((n, n))
            k = b.T @ b + 0.05 * np.eye(n)
        else:
            r = int(rng.integers(1, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, r)))
            k = (q * (0.5 + rng.random(r))) @ q.T
            k = 0.5 * (k + k.T)
        lam = float(0.2 + 3 * rng.random())
        eigs = np.linalg.eigvalsh(k)
        worst_kernel = max(
            worst_kernel,
            abs(reduced_rank(kernel_ridge_to_ssal(k, lam)) - effective_dimension(eigs, lam)),
        )
    ok = worst_random <= 1e-8 and worst_ridge <= 1e-8 and worst_kernel <= 1e-12
    _verdict(2, ok, f"worst devs: random {worst_random:.3e}, ridge {worst_ridge:.3e}, "
                    f"kernel {worst_kernel:.3e}")
    assert worst_random <= 1e-8
    assert worst_ridge <= 1e-8
    assert worst_kernel <= 1e-12


def test_criterion_03_hard_lemmas_zero_violations(hard_grid):
    total_violations = 0
    for (d, eps), merged in hard_grid["cells"].items():
        for rep in merged:
            total_violations += rep.violations
    elapsed = hard_grid["hard_elapsed"]
    ok = total_violations == 0 and elapsed < 300.0
    _verdict(3, ok, f"{hard_grid['runs']} runs over d x epsilon grid, "
                    f"{total_violations} violations, {elapsed:.1f}s")
    assert total_violations == 0
    assert elapsed < 300.0


def test_criterion_04_unlabeled_mass_identity_every_iteration(hard_grid):
    worst = hard_grid["mass_worst"]
    ok = worst <= 1e-10
    _verdict(4, ok, f"identity checked at {hard_grid['iterations']} iterations, "
                    f"worst dev {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_statistical_lemmas(statistical_batch):
    reports = check_statistical_lemmas(statistical_batch["traces"])
    elapsed = statistical_batch["elapsed"]
    failed = [r.lemma_id for r in reports if not r.verdict]
    ok = not failed and elapsed < 900.0
    detail = ", ".join(
        f"{r.lemma_id}={'ok' if r.verdict else 'FAIL'}" for r in reports
    )
    _verdict(5, ok, f"2000 runs in {elapsed:.1f}s; {detail}")
    assert not failed
    assert elapsed < 900.0


def test_criterion_06_query_bound_and_monotonicity():
    rng = make_rng(derive_seed(BASE_SEED, 6))
    d, n1, trials = 10, 2000, 500
    x1, y1 = gaussian_design(rng, n1, d, n1)
    sigma = np.linalg.svd(x1, compute_uv=False)
    eps = 0.25
    means, details = [], []
    for lam in (0.0, 1.0, 4.0, 16.0):
        ds = ridge_to_ssal(x1, lam)
        full = np.concatenate([y1, np.zeros(d)])
        cfg = AsuraConfig(epsilon=eps, c0=2.0)
        seeds = [derive_seed(BASE_SEED, 6, int(lam), k) for k in range(trials)]
        sols = [solve_sample(ds, LabelOracle(full, n1), *drawn)
                for drawn in draw_samples(ds, cfg, seeds)]
        report = check_query_bound(sols, ds, math.sqrt(eps) / 2.0)
        sd = statistical_dimension(sigma, lam)
        means.append(report.statistic)
        details.append(f"lam={lam:g}: mean {report.statistic:.2f} "
                       f"(bound {4 * sd / (eps / 4):.1f}, {'ok' if report.verdict else 'FAIL'})")
        assert report.verdict, f"query bound failed at lam={lam}"
    monotone = all(a > b for a, b in zip(means, means[1:]))

    # Kernel instance: low-rank PSD kernel on 300 points, drawn from the same rng.
    n = 300
    ds_k, full_k, _ = gen_kernel_instance(n, 8, 1.0, rng)
    seeds = [derive_seed(BASE_SEED, 6, 99, j) for j in range(200)]
    sols_k = [solve_sample(ds_k, LabelOracle(full_k, n), *drawn)
              for drawn in draw_samples(ds_k, AsuraConfig(epsilon=eps, c0=2.0), seeds)]
    report_k = check_query_bound(sols_k, ds_k, math.sqrt(eps) / 2.0)
    d_lam = effective_dimension(np.linalg.eigvalsh(ds_k.x_unlabeled), 1.0)
    details.append(f"kernel: mean {report_k.statistic:.2f} "
                   f"(d_lambda {d_lam:.2f}, {'ok' if report_k.verdict else 'FAIL'})")

    ok = monotone and report_k.verdict
    _verdict(6, ok, f"monotone={monotone}; " + "; ".join(details))
    assert monotone, f"means not strictly decreasing: {means}"
    assert report_k.verdict


def test_criterion_07_end_to_end_approximation():
    rng = make_rng(derive_seed(BASE_SEED, 7))
    d, n1, eps, lam = 10, 2000, 0.1, 1.0
    x1 = rng.standard_normal((n1, d)) / math.sqrt(d)
    y1 = x1 @ rng.standard_normal(d) + rng.standard_normal(n1)
    ds = ridge_to_ssal(x1, lam)
    full = np.concatenate([y1, np.zeros(d)])

    def run_band(cfg, seeds):
        ratios = np.array([solve_sample(ds, LabelOracle(full, n1), *drawn).ratio
                           for drawn in draw_samples(ds, cfg, seeds)])
        return float(ratios.mean()), float(np.percentile(ratios, 90))

    mean_a, p90_a = run_band(
        AsuraConfig(epsilon=eps, c0=2.0),
        [derive_seed(BASE_SEED, 7, k) for k in range(50)],
    )
    mean_l, p90_l = run_band(
        LeverageConfig(epsilon=eps, oversample_c=15.0),
        [derive_seed(BASE_SEED, 7, 1, k) for k in range(50)],
    )
    ok = (mean_a <= 1 + 10 * eps and p90_a <= 1 + 20 * eps
          and mean_l <= 1 + 10 * eps and p90_l <= 1 + 20 * eps)
    _verdict(7, ok, f"adaptive: mean {mean_a:.4f}, p90 {p90_a:.4f}; "
                    f"leverage: mean {mean_l:.4f}, p90 {p90_l:.4f} "
                    f"(bounds {1 + 10 * eps:.1f}/{1 + 20 * eps:.1f})")
    assert mean_a <= 1 + 10 * eps and p90_a <= 1 + 20 * eps
    assert mean_l <= 1 + 10 * eps and p90_l <= 1 + 20 * eps


def test_criterion_08_leverage_expected_unlabeled_samples():
    ds, _ = gen_random_instance(400, 100, 6, 1.0, derive_seed(BASE_SEED, 8))
    svd = thin_svd(ds.stacked())
    cfg = LeverageConfig(epsilon=0.5, oversample_c=1.0)
    m = cfg.target_m(svd.rank)
    probs = np.minimum(1.0, (m / svd.rank) * leverage_scores(svd))
    assert probs.max() < 1.0, "instance must stay below the clamp"
    runs = 2000
    counts = np.array([
        int((leverage_sample(svd, cfg, derive_seed(BASE_SEED, 8, k)).indices < ds.n1).sum())
        for k in range(runs)
    ], dtype=float)
    expected = (m / svd.rank) * reduced_rank(ds)
    se = counts.std(ddof=1) / math.sqrt(runs)
    dev = abs(counts.mean() - expected)
    ok = dev <= 3 * se
    _verdict(8, ok, f"mean {counts.mean():.3f} vs expected {expected:.3f} "
                    f"(|dev| {dev:.3f} <= 3 SE = {3 * se:.3f})")
    assert dev <= 3 * se


def test_criterion_09_lower_bound_instance_and_packing():
    d, lam, eps, n = 8, 2.0, 0.01, 10**4
    devs = np.zeros((20, d))
    ratios = []
    sd_vals = []
    for seed in range(20):
        spec = LowerBoundSpec(d=d, n_copies=n, epsilon=eps, lam=lam)
        ds, full, beta_tilde = gen_lower_bound_instance(spec, derive_seed(BASE_SEED, 9, seed))
        beta_star, opt = exact_solution(ds, full)
        devs[seed] = np.abs(beta_star - np.sign(beta_tilde))
        ratios.append(opt / (d * (lam * (1 + lam) + (1 + lam) / eps)))
        sigma = np.linalg.svd(ds.x_unlabeled, compute_uv=False)
        sd_vals.append(statistical_dimension(sigma, lam))
    coord_dev = float(devs.mean(axis=0).max())
    mean_ratio = float(np.mean(ratios))
    sd_ok = all(_close(v, d / (1 + lam), 1e-12) for v in sd_vals)

    packing = construct_packing(10, 0.01, 1.0)
    bound = 2.0 ** ((1 - 0.022) * 10 - 1)
    threshold = packing_threshold(10, 0.01, 1.0)
    m16 = packing.members.astype(np.int16)
    dots = m16 @ m16.T
    np.fill_diagonal(dots, -10)
    min_sep = 2.0 * (10 - int(dots.max()))

    ok = (coord_dev <= 0.1 and 0.95 <= mean_ratio <= 1.05 and sd_ok
          and packing.size >= bound and min_sep >= threshold)
    _verdict(9, ok, f"coordinate dev {coord_dev:.4f} (seed-max {devs.max():.4f}), "
                    f"opt ratio {mean_ratio:.4f}, sd exact {sd_ok}, "
                    f"packing {packing.size} >= {bound:.1f}, "
                    f"min separation {min_sep:g} >= {threshold:.4f}")
    assert coord_dev <= 0.1
    assert 0.95 <= mean_ratio <= 1.05
    assert sd_ok
    assert packing.size >= bound
    assert min_sep >= threshold


def test_criterion_10_well_balancedness_at_practical_constants():
    # Two batches over the same instance and the same 200 derived seeds at
    # epsilon = 0.25.  "Practical constants" here means the README's reading
    # that c0 = 8 (gamma = 1/16) already lands runs in the spectral window,
    # against the analysis constants (512 gamma^2, 1024, 3456 gamma).
    #
    # At c0 = 2 (gamma = 1/4) the window [3/4, 5/4] is not promised: a run
    # makes about 66 draws in 8 dimensions, and the normalized spectrum is
    # too spread to fit within +-25% (median extreme eigenvalues 0.41 and
    # 1.16; a run lands inside 0 times in 200).  What is promised for
    # gamma <= 1/4 is asserted on every run there: the coefficient-sum bound,
    # the conditioning bound, and the relation between the two conditioning
    # routes.  The closed form rests on lambda_min(B_j) >= 2 / (u_j - l_j)
    # while in fact lambda_min(B_j) >= 4 / (u_j - l_j), so the brute-force
    # sweep is at most half the closed form, with equality at iteration 0
    # where A = 0.  The window fraction is asserted at c0 = 8.
    ds, _ = gen_random_instance(60, 20, 8, 1.0, derive_seed(BASE_SEED, 10))
    svd = ds.svd
    runs = 200
    tol = 1e-6

    seeds = [derive_seed(BASE_SEED, 10, k) for k in range(runs)]

    def batch(c0):
        cfg = AsuraConfig(epsilon=0.25, c0=c0)
        return [check_well_balanced(trace, svd)
                for _, trace in asura_sample_batch(ds, cfg, seeds)]

    fast = batch(2.0)
    slow = batch(8.0)
    fast_alpha = sum(r.alpha_ok for r in fast)
    fast_kd = sum(r.kd_ok for r in fast)
    worst_gap = max(r.kd_max_abs_diff for r in fast + slow)
    fraction = sum(r.well_balanced for r in slow) / runs
    ok = (fast_alpha == runs and fast_kd == runs and worst_gap <= tol
          and fraction >= 0.65)
    _verdict(10, ok, f"c0=2: alpha_ok {fast_alpha}/{runs}, kd_ok {fast_kd}/{runs}, "
                     f"in window {sum(r.spectral_ok for r in fast)}/{runs} (not "
                     f"promised); c0=8: balanced fraction {fraction:.3f} "
                     f"(need >= 0.65); worst breach of sweep <= closed/2 "
                     f"{worst_gap:.3e} (need <= 1e-6)")
    for k, report in enumerate(fast):
        assert report.alpha_ok, (k, report.alpha_sum)
        assert report.kd_ok, (k, report.kd_max_closed, report.kd_max_brute)
    for k, report in enumerate(fast + slow):
        half = report.kd_closed / 2
        assert np.all(report.kd_brute <= half + tol), (
            f"run {k}: brute-force conditioning exceeds half the closed form by "
            f"{float(np.max(report.kd_brute - half)):.3e}"
        )
        assert abs(report.kd_brute[0] - half[0]) <= tol, (
            f"run {k}: brute-force conditioning at iteration 0 is "
            f"{report.kd_brute[0]:.6g}, half the closed form is {half[0]:.6g}"
        )
    assert fraction >= 0.65, (
        f"well-balanced fraction {fraction:.3f} < 0.65 at c0=8 (gamma=1/16)"
    )
