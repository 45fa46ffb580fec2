import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssar.asura import EIG_TOL, AsuraConfig, _contained, asura_sample
from ssar.core import Dataset
from ssar.dataio import dump_trace, load_trace
from ssar.errors import InsufficientSampleError, InvalidInputError
from ssar.regression import LabelOracle, draw_samples
from ssar.rngutil import derive_seed, make_rng
from ssar import cli, verify
from ssar.verify import (
    HARD_LEMMA_IDS,
    _replay,
    check_hard_lemmas,
    check_statistical_lemmas,
    check_well_balanced,
    merge_hard_reports,
)

from conftest import gaussian_dataset
from reference import (
    check_query_bound,
    containment_violations_eigvalsh,
    solve_active,
    step_violations_eigvalsh,
)


@pytest.fixture(scope="module")
def good_run():
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    sample, trace = asura_sample(ds, cfg, 61)
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


def test_well_balancedness_on_a_loaded_dump_matches_the_run(good_run, tmp_path):
    ds, svd, cfg, _, trace = good_run
    path = tmp_path / "trace.jsonl"
    dump_trace(path, trace)
    loaded = check_well_balanced(load_trace(path), svd)
    np.testing.assert_equal(dataclasses.asdict(loaded),
                            dataclasses.asdict(check_well_balanced(trace, svd)))


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


def _per_matrix_checks(trace, svd):
    """Each matrix check's values, one matrix at a time.

    Containment and the step checks' ``lambda_max(A_{j+1} - A_j - B_j)`` come
    from ``eigvalsh``; each step's ``q = w' v^T (B + tau I)^{-1} v`` comes from
    a solve, and is inf where ``B + tau I`` is not positive definite or
    ``q >= 1``, where the bordered factor does not exist.
    """
    r, gamma = svd.rank, trace.gamma
    eye = np.eye(r)
    mats = [np.zeros((r, r))]
    for pick, w in zip(trace.sampled_index, trace.w_prime):
        mats.append(mats[-1] + w * np.outer(svd.u[pick], svd.u[pick]))
    theta = [np.linalg.eigvalsh(a) for a in mats]
    values = {"barrier-containment": [max(trace.l[j] - t[0], t[-1] - trace.u[j])
                                      for j, t in enumerate(theta)]}
    qs = {}
    for lemma_id, barrier in (
        ("step-upper", lambda j: gamma * (trace.u[j] * eye - mats[j])),
        ("step-lower", lambda j: 2.0 * gamma * (mats[j] - trace.l[j + 1] * eye)),
    ):
        values[lemma_id], qs[lemma_id] = [], []
        for j, (pick, w) in enumerate(zip(trace.sampled_index, trace.w_prime)):
            b = barrier(j)
            values[lemma_id].append(np.linalg.eigvalsh(mats[j + 1] - mats[j] - b)[-1])
            s = math.sqrt(w) * svd.u[pick]
            shifted = b + EIG_TOL * eye
            q = s @ np.linalg.solve(shifted, s) if np.linalg.eigvalsh(shifted)[0] > 0 else math.inf
            qs[lemma_id].append(q if q < 1.0 else math.inf)
    return values, qs


def test_matrix_checks_match_a_per_matrix_loop_across_chunks():
    # At rank 48 the replay spans chunks, and a corrupted step mid-run makes
    # every later matrix a violation: each A_j must be checked exactly once.
    ds = gaussian_dataset(48, 4, 48, seed=3)
    svd = ds.svd
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), 3)
    p_j = trace.p_j.copy()
    p_j[trace.m // 2] /= 50.0
    bad = dataclasses.replace(trace, p_j=p_j)
    assert len(list(_replay(bad, svd.u))) >= 2

    values, qs = _per_matrix_checks(bad, svd)
    reports = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}
    for lemma_id in ("barrier-containment", "step-upper", "step-lower"):
        assert reports[lemma_id].violations == sum(v > EIG_TOL for v in values[lemma_id]) > 0
    assert reports["barrier-containment"].statistic == max(values["barrier-containment"])
    # A step check reports the largest q, inf once a chunk cannot be factored.
    for lemma_id in ("step-upper", "step-lower"):
        assert reports[lemma_id].statistic == max(qs[lemma_id]) == math.inf

    _, qs = _per_matrix_checks(trace, svd)
    reports = {r.lemma_id: r for r in check_hard_lemmas(trace, svd)}
    # Every chunk of a clean run factors, so containment takes no eigenvalues.
    clean = reports["barrier-containment"]
    assert clean.statistic == clean.worst_margin == -math.inf
    for lemma_id in ("step-upper", "step-lower"):
        assert reports[lemma_id].statistic == pytest.approx(max(qs[lemma_id]), rel=1e-9)
        assert reports[lemma_id].worst_margin == reports[lemma_id].statistic - 1.0 < 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matrix_checks_count_as_the_eigvalsh_route_on_the_default_grid(seed, monkeypatch, capsys):
    seen = []

    def checked(trace, svd=None):
        reports = check_hard_lemmas(trace, svd)
        counts = {r.lemma_id: r.violations for r in reports}
        seen.append(((counts["barrier-containment"], counts["step-upper"], counts["step-lower"]),
                     (containment_violations_eigvalsh(trace, svd),
                      *step_violations_eigvalsh(trace, svd))))
        return reports

    monkeypatch.setattr(cli, "check_hard_lemmas", checked)
    assert cli.main(["verify", "--seed", str(seed)]) == cli.EXIT_OK
    assert len(seen) == 3 * 2 * 30
    assert all(ours == eigvalsh_route for ours, eigvalsh_route in seen)


def test_hard_checks_take_no_eigenvalues_on_clean_default_grid_runs(monkeypatch):
    # The first runs of verify's default grid at its largest d and smallest epsilon.
    calls, verdicts = [], []

    def checked(trace, svd=None):
        with monkeypatch.context() as spy:
            for name in ("eigh", "eigvalsh"):
                spy.setattr(np.linalg, name, lambda *args, name=name, **kwargs: calls.append(name))
            reports = check_hard_lemmas(trace, svd)
        verdicts.append(all(r.verdict for r in reports))
        return reports

    monkeypatch.setattr(cli, "check_hard_lemmas", checked)
    argv = ["verify", "--seed", "1", "--d-grid", "16", "--eps-grid", "0.1", "--runs", "5"]
    assert cli.main(argv) == cli.EXIT_OK
    assert verdicts == [True] * 5 and calls == []


def _final_state(trace, svd):
    *_, (_, mats) = _replay(trace, svd.u)
    return mats[-1]


@pytest.mark.parametrize("side", ["top", "bottom"])
@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 - 1e-6])
def test_containment_decides_a_state_at_its_barrier_as_eigvalsh_does(side, factor):
    # Scaling every weight by c replays c A_j: the final state's top eigenvalue
    # goes to factor * u_m, or its bottom one to factor * l_m > 0.  It is caught
    # exactly when that end leaves the window by more than EIG_TOL.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    svd = ds.svd
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.1, c0=2.0), 61)
    u, l = trace.u_final, trace.l_final
    assert l * 1e-6 > EIG_TOL
    theta = np.linalg.eigvalsh(_final_state(trace, svd))
    c = factor * (u / theta[-1] if side == "top" else l / theta[0])
    scaled = dataclasses.replace(trace, p_j=trace.p_j / c)
    a = _final_state(scaled, svd)
    theta = np.linalg.eigvalsh(a)
    caught = (factor > 1.0) == (side == "top")
    assert bool(theta[0] < l - EIG_TOL or theta[-1] > u + EIG_TOL) is caught
    assert _contained(a, u, l) is not caught
    assert _contained(a[None], np.array([u]), np.array([l])) is not caught
    report = {r.lemma_id: r for r in check_hard_lemmas(scaled, svd)}["barrier-containment"]
    assert report.violations == containment_violations_eigvalsh(scaled, svd) >= caught


@pytest.mark.parametrize("lemma_id", ["step-upper", "step-lower"])
@pytest.mark.parametrize("factor,caught", [(1.0 + 1e-6, True), (1.0 - 1e-6, False)])
def test_step_checks_catch_a_step_just_over_its_barrier(good_run, lemma_id, factor, caught):
    # Scale the last pick's weight to the boundary w* of lambda_max(w v v^T - B) = tau,
    # times the factor; only A_m moves, and it feeds no later step.
    ds, svd, cfg, _, trace = good_run
    j, r = trace.m - 1, svd.rank
    eye = np.eye(r)
    a = sum(w * np.outer(svd.u[i], svd.u[i])
            for i, w in zip(trace.sampled_index[:j], trace.w_prime[:j]))
    if lemma_id == "step-upper":
        b = trace.gamma * (trace.u[j] * eye - a)
    else:
        b = 2.0 * trace.gamma * (a - trace.l[j + 1] * eye)
    v = svd.u[trace.sampled_index[j]]
    w_star = 1.0 / (v @ np.linalg.solve(b + EIG_TOL * eye, v))
    p_j = trace.p_j.copy()
    p_j[j] = trace.gamma / (trace.phi_id[j] * factor * w_star)
    bad = dataclasses.replace(trace, p_j=p_j)
    report = {r.lemma_id: r for r in check_hard_lemmas(bad, svd)}[lemma_id]
    assert report.violations == int(caught)
    assert report.verdict is not caught
    if not caught:
        assert report.statistic == pytest.approx(factor, rel=1e-8)


def test_rank_one_step_keeps_the_eigenvalue_tolerance():
    # lambda_max(s s^T - 0) = 9e-10 <= tau, so the step passes on a zero barrier.
    q = verify._step_q(np.zeros((1, 2, 2)), np.array([[3e-5, 0.0]]))
    assert q[0] == pytest.approx(0.9)


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 8), seed=st.integers(0, 2**31 - 1), ratio=st.floats(0.25, 4.0),
       log_scale=st.floats(-3.0, 3.0))
def test_rank_one_step_verdict_matches_eigvalsh(r, seed, ratio, log_scale):
    # For positive definite B, s s^T <= B + tau I holds exactly when the
    # bordered factor exists; the verdicts agree away from the boundary.
    rng = make_rng(seed)
    q_mat, _ = np.linalg.qr(rng.standard_normal((r, r)))
    b = 10.0**log_scale * (q_mat * 10.0 ** rng.uniform(-2.0, 2.0, r)) @ q_mat.T
    v = rng.standard_normal(r)
    s = math.sqrt(ratio / (v @ np.linalg.solve(b, v))) * v
    lam = np.linalg.eigvalsh(np.outer(s, s) - b)[-1]
    assume(abs(lam - EIG_TOL) > 1e-9 * max(np.linalg.norm(b, 2), s @ s))
    try:
        q = verify._step_q(b[None], s[None])[0]
    except np.linalg.LinAlgError:
        q = math.inf
    assert (q <= 1.0) == (lam <= EIG_TOL)


def test_merge_hard_reports_accumulates(good_run):
    ds, svd, cfg, _, trace = good_run
    per_run = [check_hard_lemmas(trace, svd) for _ in range(3)]
    merged = merge_hard_reports(per_run)
    assert all(r.runs_checked == 3 for r in merged)
    assert all(r.verdict for r in merged)


def test_merge_hard_reports_keeps_the_worst_runs_potential_floor(good_run):
    # The floor's statistic is the smallest phi_j, so the worst run has the
    # smallest; every other merged statistic and margin is the largest.
    ds, _, cfg, _, trace = good_run
    _, other = asura_sample(ds, cfg, 62)
    runs = [check_hard_lemmas(t) for t in (trace, other)]
    assert trace.phi_id.min() != other.phi_id.min()
    for order in (runs, runs[::-1]):
        merged = {r.lemma_id: r for r in merge_hard_reports(order)}
        for k, rep in enumerate(runs[0]):
            pair = [runs[0][k], runs[1][k]]
            worst = min if rep.lemma_id == "potential-floor" else max
            assert merged[rep.lemma_id].statistic == worst(r.statistic for r in pair)
            assert merged[rep.lemma_id].worst_margin == max(r.worst_margin for r in pair)
            assert merged[rep.lemma_id].runs_checked == 2
    assert merged["potential-floor"].statistic == min(trace.phi_id.min(), other.phi_id.min())


def test_statistical_checks_reject_small_batches(good_run):
    ds, svd, cfg, _, trace = good_run
    with pytest.raises(InsufficientSampleError):
        check_statistical_lemmas([trace] * 10)


def test_statistical_checks_small_batch_override(monkeypatch):
    monkeypatch.setattr(verify, "MIN_STATISTICAL_RUNS", 50)
    ds = gaussian_dataset(24, 8, 8, seed=6)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    batch = [t for _, t in draw_samples(ds, cfg, [derive_seed(7, k) for k in range(60)])]
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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    batch = [t for _, t in draw_samples(ds, cfg, [derive_seed(11, k) for k in range(50)])]
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
        cfg = AsuraConfig(epsilon=0.25, c0=2.0)
        sols.append(solve_active(ds, oracle, cfg, 100 + k))
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
