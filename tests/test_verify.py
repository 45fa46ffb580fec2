import dataclasses

import numpy as np
import pytest

from ssar.asura import AsuraConfig, asura_sample
from ssar.core import Dataset, thin_svd
from ssar.errors import InsufficientSampleError, InsufficientTraceError
from ssar.regression import LabelOracle, solve_active
from ssar.verify import (
    HARD_LEMMA_IDS,
    check_hard_lemmas,
    check_query_bound,
    check_statistical_lemmas,
    merge_hard_reports,
    run_sampler_batch,
)

from conftest import gaussian_dataset


@pytest.fixture(scope="module")
def good_run():
    ds = gaussian_dataset(24, 8, 8, seed=5)
    svd = thin_svd(ds.stacked())
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=61)
    sample, trace = asura_sample(svd, cfg, n_unlabeled=ds.n1)
    return ds, svd, cfg, sample, trace


def test_hard_lemmas_pass_on_good_runs(good_run):
    ds, svd, cfg, _, trace = good_run
    reports = check_hard_lemmas(trace, cfg.gamma, svd.rank)
    assert {r.lemma_id for r in reports} == set(HARD_LEMMA_IDS)
    assert all(r.verdict for r in reports)
    assert all(r.violations == 0 for r in reports)


def test_hard_lemmas_need_matrices(good_run):
    ds, svd, cfg, _, _ = good_run
    _, bare = asura_sample(svd, cfg, capture_matrices=False)
    with pytest.raises(InsufficientTraceError):
        check_hard_lemmas(bare, cfg.gamma, svd.rank)
    scalar = check_hard_lemmas(bare, cfg.gamma, svd.rank, scalar_only=True)
    assert {r.lemma_id for r in scalar} == {
        "iteration-cap", "potential-floor", "gap-bound",
    }


def test_gap_lemma_fails_on_corrupted_trace(good_run):
    ds, svd, cfg, _, trace = good_run
    u = trace.u.copy()
    u[-1] = trace.l[-1] + 10 * svd.rank / cfg.gamma
    bad = dataclasses.replace(trace, u=u)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, cfg.gamma, svd.rank)}
    assert not reports["gap-bound"].verdict
    assert reports["gap-bound"].violations == 1


def test_potential_floor_fails_on_corrupted_trace(good_run):
    ds, svd, cfg, _, trace = good_run
    phi = trace.phi_id.copy()
    phi[3] = cfg.gamma / 4
    bad = dataclasses.replace(trace, phi_id=phi)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, cfg.gamma, svd.rank)}
    assert not reports["potential-floor"].verdict


def test_containment_and_steps_fail_on_corrupted_matrices(good_run):
    ds, svd, cfg, _, trace = good_run
    mats = trace.a_mats.copy()
    mats[-1] *= 50.0  # final matrix blows through the upper barrier
    bad = dataclasses.replace(trace, a_mats=mats)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, cfg.gamma, svd.rank)}
    assert not reports["barrier-containment"].verdict
    assert not reports["step-upper"].verdict


def test_merge_hard_reports_accumulates(good_run):
    ds, svd, cfg, _, trace = good_run
    per_run = [check_hard_lemmas(trace, cfg.gamma, svd.rank) for _ in range(3)]
    merged = merge_hard_reports(per_run)
    assert all(r.runs_checked == 3 for r in merged)
    assert all(r.verdict for r in merged)


def test_statistical_checks_reject_small_batches(good_run):
    ds, svd, cfg, _, trace = good_run
    with pytest.raises(InsufficientSampleError):
        check_statistical_lemmas([trace] * 10, cfg.gamma, svd.rank)


def test_statistical_checks_small_batch_override():
    ds = gaussian_dataset(24, 8, 8, seed=6)
    svd = thin_svd(ds.stacked())
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=7, assert_lemmas=False)
    batch = [t for _, t in run_sampler_batch(svd, cfg, 60, n_unlabeled=ds.n1)]
    reports = check_statistical_lemmas(batch, cfg.gamma, svd.rank, min_batch=50)
    by_id = {r.lemma_id: r for r in reports}
    assert by_id["unlabeled-mass-identity"].verdict
    assert by_id["final-barrier-tail-p0.25"].verdict
    assert by_id["final-barrier-tail-p0.5"].verdict


def test_statistical_checks_need_unlabeled_series():
    ds = gaussian_dataset(24, 8, 8, seed=8)
    svd = thin_svd(ds.stacked())
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=9, assert_lemmas=False)
    batch = [t for _, t in run_sampler_batch(svd, cfg, 5)]
    with pytest.raises(InsufficientTraceError):
        check_statistical_lemmas(batch, cfg.gamma, svd.rank, min_batch=5)


def test_drift_check_rejects_increasing_potentials():
    ds = gaussian_dataset(24, 8, 8, seed=10)
    svd = thin_svd(ds.stacked())
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=11, assert_lemmas=False)
    batch = [t for _, t in run_sampler_batch(svd, cfg, 50, n_unlabeled=ds.n1)]
    rigged = [
        dataclasses.replace(
            t,
            phi_id=t.phi_id + np.linspace(0.0, 5.0, t.m),
            phi_d=t.phi_d,
            px1_sum=t.px1_sum,
        )
        for t in batch
    ]
    # Keep the mass identity consistent with the rigged identity potentials.
    rigged = [
        dataclasses.replace(t, px1_sum=t.phi_d / t.phi_id) for t in rigged
    ]
    reports = {
        r.lemma_id: r
        for r in check_statistical_lemmas(rigged, cfg.gamma, svd.rank, min_batch=50)
    }
    assert not reports["potential-drift-identity"].verdict


def test_query_bound_forced_pass_without_labeled_block():
    # With no pre-labeled rows every iteration queries, yet the iteration cap
    # keeps the mean under half of the bound.
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal((30, 4))
    ds = Dataset(x_unlabeled=x1, x_labeled=np.zeros((0, 4)), y_labeled=np.zeros(0))
    labels = rng.standard_normal(30)
    sols = []
    for k in range(25):
        oracle = LabelOracle(labels, ds.n1)
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=100 + k, assert_lemmas=False)
        sols.append(solve_active(ds, oracle, cfg))
    report = check_query_bound(sols, ds, 0.25)
    assert report.verdict
    assert report.statistic <= 2 * 4 / 0.25**2


def test_query_bound_fails_on_inflated_counts(good_run):
    ds, svd, cfg, _, _ = good_run

    class Fake:
        def __init__(self, q):
            self.queries_iteration_level = q

    fake = [Fake(10_000 + k) for k in range(25)]
    report = check_query_bound(fake, ds, cfg.gamma)
    assert not report.verdict
