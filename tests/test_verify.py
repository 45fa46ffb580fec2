import dataclasses

import numpy as np
import pytest

from ssar.asura import EIG_TOL, AsuraConfig, _replay, asura_sample
from ssar.core import Dataset
from ssar.dataio import dump_trace, load_trace
from ssar.errors import InsufficientSampleError, InvalidInputError
from ssar.regression import LabelOracle, solve_active
from ssar import verify
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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=61)
    sample, trace = asura_sample(ds, cfg)
    return ds, ds.svd, cfg, sample, trace


def test_hard_lemmas_pass_on_good_runs(good_run):
    ds, svd, cfg, _, trace = good_run
    reports = check_hard_lemmas(trace, svd)
    assert {r.lemma_id for r in reports} == set(HARD_LEMMA_IDS)
    assert all(r.verdict for r in reports)
    assert all(r.violations == 0 for r in reports)


def test_hard_lemmas_need_matrices(good_run):
    # Without the factors no running matrix can be replayed: scalar checks only.
    ds, svd, cfg, _, trace = good_run
    scalar = check_hard_lemmas(trace)
    assert {r.lemma_id for r in scalar} == {
        "iteration-cap", "potential-floor", "gap-bound",
    }


def test_hard_lemmas_reject_factors_of_another_run(good_run):
    ds, svd, cfg, _, trace = good_run
    other = gaussian_dataset(24, 8, 7, seed=5).svd
    with pytest.raises(InvalidInputError):
        check_hard_lemmas(trace, other)


def test_hard_lemmas_on_a_loaded_dump_match_the_run(good_run, tmp_path):
    ds, svd, cfg, _, trace = good_run
    path = tmp_path / "trace.jsonl"
    dump_trace(path, trace)
    assert check_hard_lemmas(load_trace(path), svd) == check_hard_lemmas(trace, svd)


def test_gap_lemma_fails_on_corrupted_trace(good_run):
    ds, svd, cfg, _, trace = good_run
    u = trace.u.copy()
    u[-1] = trace.l[-1] + 10 * svd.rank / cfg.gamma
    bad = dataclasses.replace(trace, u=u)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}
    assert not reports["gap-bound"].verdict
    assert reports["gap-bound"].violations == 1


def test_potential_floor_fails_on_corrupted_trace(good_run):
    ds, svd, cfg, _, trace = good_run
    phi = trace.phi_id.copy()
    phi[3] = cfg.gamma / 4
    bad = dataclasses.replace(trace, phi_id=phi)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}
    assert not reports["potential-floor"].verdict


def test_containment_and_steps_fail_on_corrupted_matrices(good_run):
    ds, svd, cfg, _, trace = good_run
    p_j = trace.p_j.copy()
    p_j[-1] /= 50.0  # the last step is 50 times too large and blows through the upper barrier
    bad = dataclasses.replace(trace, p_j=p_j)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}
    assert not reports["barrier-containment"].verdict
    assert not reports["step-upper"].verdict


def test_matrix_checks_match_a_per_matrix_loop_across_chunks():
    # At rank 48 the replay spans chunks, and a corrupted step mid-run makes
    # every later matrix a violation: each A_j must be checked exactly once.
    ds = gaussian_dataset(48, 4, 48, seed=3)
    svd = ds.svd
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=3))
    p_j = trace.p_j.copy()
    p_j[trace.m // 2] /= 50.0
    bad = dataclasses.replace(trace, p_j=p_j)
    assert len(list(_replay(bad, svd.u))) >= 2

    mats = [np.zeros((48, 48))]
    for pick, w in zip(bad.sampled_index, bad.w_prime):
        mats.append(mats[-1] + w * np.outer(svd.u[pick], svd.u[pick]))
    eye, gamma = np.eye(48), bad.gamma
    theta = [np.linalg.eigvalsh(a) for a in mats]
    contain = [max(bad.l[j] - t[0], t[-1] - bad.u[j]) for j, t in enumerate(theta)]
    up = [np.linalg.eigvalsh(mats[j + 1] - mats[j] - gamma * (bad.u[j] * eye - mats[j]))[-1]
          for j in range(bad.m)]
    low = [np.linalg.eigvalsh(
               mats[j + 1] - mats[j] - 2.0 * gamma * (mats[j] - bad.l[j + 1] * eye))[-1]
           for j in range(bad.m)]

    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}
    for lemma_id, values in (("barrier-containment", contain), ("step-upper", up),
                             ("step-lower", low)):
        assert reports[lemma_id].violations == sum(v > EIG_TOL for v in values) > 0
        assert reports[lemma_id].statistic == max(values)


def test_merge_hard_reports_accumulates(good_run):
    ds, svd, cfg, _, trace = good_run
    per_run = [check_hard_lemmas(trace, svd) for _ in range(3)]
    merged = merge_hard_reports(per_run)
    assert all(r.runs_checked == 3 for r in merged)
    assert all(r.verdict for r in merged)


def test_statistical_checks_reject_small_batches(good_run):
    ds, svd, cfg, _, trace = good_run
    with pytest.raises(InsufficientSampleError):
        check_statistical_lemmas([trace] * 10)


def test_statistical_checks_small_batch_override(monkeypatch):
    monkeypatch.setattr(verify, "MIN_STATISTICAL_RUNS", 50)
    ds = gaussian_dataset(24, 8, 8, seed=6)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=7)
    batch = [t for _, t in run_sampler_batch(ds, cfg, 60)]
    reports = check_statistical_lemmas(batch)
    by_id = {r.lemma_id: r for r in reports}
    assert by_id["unlabeled-mass-identity"].verdict
    assert by_id["final-barrier-tail-p0.25"].verdict
    assert by_id["final-barrier-tail-p0.5"].verdict


def test_statistical_checks_reject_a_mixed_batch(good_run, monkeypatch):
    # gamma and the rank come from the traces, so a batch must agree on both.
    ds, svd, cfg, _, trace = good_run
    monkeypatch.setattr(verify, "MIN_STATISTICAL_RUNS", 2)
    other_gamma = dataclasses.replace(trace, gamma=trace.gamma / 2)
    other_rank = dataclasses.replace(trace, rank=trace.rank - 1)
    for mixed in ([trace, other_gamma], [trace, other_rank]):
        with pytest.raises(InvalidInputError):
            check_statistical_lemmas(mixed)
    assert check_statistical_lemmas([trace, trace])


def test_drift_check_rejects_increasing_potentials(monkeypatch):
    monkeypatch.setattr(verify, "MIN_STATISTICAL_RUNS", 50)
    ds = gaussian_dataset(24, 8, 8, seed=10)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=11)
    batch = [t for _, t in run_sampler_batch(ds, cfg, 50)]
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
        for r in check_statistical_lemmas(rigged)
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
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=100 + k)
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
