import numpy as np
import pytest
import scipy.stats

from ssar.asura import (
    AsuraConfig,
    _barrier_weights,
    _draw_index,
    _normalize_probabilities,
    asura_sample,
    check_well_balanced,
    sample_with_retry,
    sampling_distribution,
)
from ssar.core import SvdFactors, thin_svd
from ssar.errors import (
    BarrierViolationError,
    InsufficientTraceError,
    InvalidInputError,
    NumericalBreakdownError,
    WellBalancedEventFailedError,
)
from ssar.rngutil import derive_seed, make_rng

from conftest import gaussian_dataset


def _svd(n1=24, n2=8, d=8, seed=5):
    ds = gaussian_dataset(n1, n2, d, seed)
    return ds, thin_svd(ds.stacked())


def _initial(rank, gamma):
    """The sampler's starting state ``(A, u, l)``: ``A = 0`` and ``u = -l = 2 r / gamma``."""
    edge = 2.0 * rank / gamma
    return np.zeros((rank, rank)), edge, -edge


def _state(trace, j):
    """The barrier state ``(A, u, l)`` before iteration ``j`` of a captured run."""
    return trace.a_mats[j], float(trace.u[j]), float(trace.l[j])


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidInputError):
        AsuraConfig(epsilon=0.0)
    with pytest.raises(InvalidInputError):
        AsuraConfig(epsilon=1.0)
    with pytest.raises(InvalidInputError):
        AsuraConfig(epsilon=0.5, c0=0.0)
    with pytest.raises(InvalidInputError):
        AsuraConfig(epsilon=0.5, max_restarts=0)
    assert AsuraConfig(epsilon=0.25, c0=2.0).gamma == pytest.approx(0.25)


def test_gamma_cap_applies_only_with_assertions():
    _, svd = _svd()
    hot = AsuraConfig(epsilon=0.81, c0=2.0, rng_seed=1, assert_lemmas=True)  # gamma 0.45
    with pytest.raises(InvalidInputError):
        asura_sample(svd, hot)
    relaxed = AsuraConfig(epsilon=0.81, c0=2.0, rng_seed=1, assert_lemmas=False)
    sample, _ = asura_sample(svd, relaxed)
    assert sample.m >= 1


def test_gamma_half_breaks_barrier_update():
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.81, c0=1.5, rng_seed=1, assert_lemmas=False)  # gamma 0.6
    with pytest.raises(InvalidInputError):
        asura_sample(svd, cfg)


# ---------------------------------------------------------------- potential

def test_potential_initial_state_closed_forms():
    gamma = 0.2
    d = 6
    q, b = _barrier_weights(*_initial(d, gamma))
    assert b.sum() == pytest.approx(gamma, rel=1e-12)
    np.testing.assert_allclose(b, np.full(d, gamma / d), rtol=1e-12)
    np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-12)


def test_potential_scalar_case():
    _, b = _barrier_weights(np.array([[0.5]]), 1.0, 0.0)
    assert b.sum() == pytest.approx(4.0)


def test_potential_raises_when_barrier_touched():
    a = np.diag([2.0, 0.0])
    with pytest.raises(BarrierViolationError, match="at iteration 3"):
        _barrier_weights(a, 1.0, -1.0, 3)
    svd = thin_svd(np.eye(2))
    with pytest.raises(BarrierViolationError):
        sampling_distribution(svd, a, 1.0, -1.0)


# ------------------------------------------------------ distribution

def test_sampling_distribution_initial_identity_design():
    svd = thin_svd(np.eye(5))
    p = sampling_distribution(svd, *_initial(5, 0.25))
    np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-12)


def test_sampling_distribution_initial_state_is_normalized_leverage():
    _, svd = _svd()
    p = sampling_distribution(svd, *_initial(svd.rank, 0.25))
    lev = np.einsum("ij,ij->i", svd.u, svd.u)
    np.testing.assert_allclose(p, lev / svd.rank, atol=1e-12)
    assert abs(p.sum() - 1.0) <= 1e-10


def test_sampling_distribution_dimension_mismatch():
    _, svd = _svd()
    with pytest.raises(InvalidInputError):
        sampling_distribution(svd, *_initial(svd.rank + 1, 0.25))


def test_normalize_probabilities_contract():
    p = _normalize_probabilities(np.array([0.5, -1e-13, 0.5]))
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0)
    with pytest.raises(NumericalBreakdownError):
        _normalize_probabilities(np.array([0.5, -1e-7, 0.5]))


def test_drawn_rows_match_distribution_chi_square():
    ds, svd = _svd(n1=12, n2=4, d=4, seed=9)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=123)
    _, trace = asura_sample(svd, cfg)
    j = trace.m // 2
    p = sampling_distribution(svd, *_state(trace, j))
    rng = make_rng(777)
    n_draws = 100_000
    counts = np.bincount(
        [_draw_index(rng, p) for _ in range(n_draws)], minlength=p.size
    )
    keep = p > 0
    stat, pvalue = scipy.stats.chisquare(counts[keep], n_draws * p[keep] / p[keep].sum())
    assert pvalue > 0.001


# ---------------------------------------------------------------- sampler

def test_sampler_single_column_terminates_within_cap():
    svd = thin_svd(make_rng(2).standard_normal((10, 1)))
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=4)
    sample, trace = asura_sample(svd, cfg)
    assert trace.m <= int(np.ceil(2 * 1 / cfg.gamma**2))
    assert np.all(sample.weights > 0)


def test_sampler_is_deterministic_given_seed():
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=99)
    s1, t1 = asura_sample(svd, cfg)
    s2, t2 = asura_sample(svd, cfg)
    np.testing.assert_array_equal(s1.indices, s2.indices)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    np.testing.assert_array_equal(t1.phi_id, t2.phi_id)


def test_sampler_structural_bounds_over_seed_batch():
    ds, svd = _svd()
    d = svd.rank
    for k in range(25):
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=derive_seed(1000, k))
        sample, trace = asura_sample(svd, cfg, n_unlabeled=ds.n1)
        gamma = cfg.gamma
        assert trace.m <= int(np.ceil(2 * d / gamma**2))
        assert trace.u_final - trace.l_final <= 9 * d / gamma
        assert trace.phi_id.min() >= gamma / 2
        # Potential also dominates the instantaneous gap floor.
        gaps = trace.u[:-1] - trace.l[:-1]
        assert np.all(trace.phi_id >= 4 * d / gaps - 1e-12)
        mid = 0.5 * (trace.u_final + trace.l_final)
        np.testing.assert_allclose(sample.weights * mid, trace.w_prime, rtol=1e-12)
        np.testing.assert_allclose(
            sample.coefficients * mid, gamma / trace.phi_id, rtol=1e-12
        )


def test_final_barrier_always_clears_trivial_tail_threshold():
    # The initial barrier alone dominates p^2 d / (8 gamma^2) for any p < 1,
    # so the tail event holds on every run.
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=8)
    _, trace = asura_sample(svd, cfg)
    d, gamma = svd.rank, cfg.gamma
    for p in (0.25, 0.5, 0.9):
        assert trace.u_final >= p * p * d / (8 * gamma**2)


def test_unlabeled_mass_identity_against_inverse_oracle():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=21)
    _, trace = asura_sample(svd, cfg, n_unlabeled=ds.n1)
    eye = np.eye(svd.rank)
    u1 = svd.u[: ds.n1]
    d_mat = u1.T @ u1
    for j in (0, trace.m // 2, trace.m - 1):
        a, u, l = trace.a_mats[j], float(trace.u[j]), float(trace.l[j])
        b_mat = np.linalg.inv(u * eye - a) + np.linalg.inv(a - l * eye)
        oracle = float(np.trace(d_mat @ b_mat) / np.trace(b_mat))
        assert trace.px1_sum[j] == pytest.approx(oracle, abs=1e-10)
        # The recorded block potential matches the explicit-inverse route too.
        assert trace.phi_d[j] == pytest.approx(float(np.trace(d_mat @ b_mat)), rel=1e-10)


def test_zero_leverage_rows_are_never_sampled():
    x = np.vstack([np.zeros((4, 3)), np.eye(3)])
    svd = thin_svd(x)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=17)
    sample, _ = asura_sample(svd, cfg, n_unlabeled=4)
    assert np.all(sample.indices >= 4)


def _stream_cases():
    rng = make_rng(61)
    zero_rows = np.vstack([rng.standard_normal((6, 3)), np.zeros((5, 3)), np.eye(3)])
    return [
        pytest.param(rng.standard_normal((12, 4)), 0, id="n1-zero"),
        pytest.param(rng.standard_normal((16, 4)), 16, id="n2-zero"),
        pytest.param(rng.standard_normal((20, 1)), 15, id="rank-1"),
        pytest.param(zero_rows, 11, id="zero-rows"),
        pytest.param(rng.standard_normal((50, 4)), 45, id="n1-off-block-grid"),
        pytest.param(rng.standard_normal((500, 5)), 430, id="many-blocks"),
        pytest.param(rng.standard_normal((40, 6)), None, id="no-unlabeled-split"),
    ]


@pytest.mark.parametrize("x,n1", _stream_cases())
def test_block_draw_replays_full_row_stream(x, n1):
    # Replaying the run's uniforms against the full-row distribution at every
    # captured state reproduces each pick and its probability.
    svd = thin_svd(x)
    for seed in (3, 57, 911):
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=seed)
        _, trace = asura_sample(svd, cfg, n_unlabeled=n1, capture_matrices=True)
        rng = make_rng(seed)
        for j in range(trace.m):
            p = sampling_distribution(svd, *_state(trace, j))
            pick = _draw_index(rng, p)
            assert trace.sampled_index[j] == pick, (seed, j)
            assert trace.p_j[j] == pytest.approx(p[pick], rel=1e-12)
            if n1 is not None:
                assert trace.px1_sum[j] == pytest.approx(p[:n1].sum(), rel=1e-12, abs=1e-15)


# ------------------------------------------------------ well-balancedness

def test_check_well_balanced_rejects_mismatched_artifacts():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=31)
    s1, t1 = asura_sample(svd, cfg)
    s2, t2 = asura_sample(svd, AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=32))
    with pytest.raises(InvalidInputError):
        check_well_balanced(s1, t2, svd, 0.25)


def test_check_well_balanced_needs_matrices():
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=33)
    s, t = asura_sample(svd, cfg, capture_matrices=False)
    with pytest.raises(InsufficientTraceError):
        check_well_balanced(s, t, svd, 0.25)


def test_conditioning_closed_form_initial_iteration():
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=34)
    s, t = asura_sample(svd, cfg)
    rep = check_well_balanced(s, t, svd, 0.25)
    d = svd.rank
    expected0 = cfg.gamma * (4 * d / cfg.gamma) / (t.u_final + t.l_final)
    assert rep.kd_closed[0] == pytest.approx(expected0, rel=1e-12)
    assert rep.alpha_sum <= 1024.0


def test_conditioning_sweep_is_at_most_half_the_closed_form():
    # p_x >= lambda_min(B_j) ||U(x)||^2 / phi_j with lambda_min(B_j) >=
    # 4 / (u_j - l_j), while the closed form assumes only 2 / (u_j - l_j).
    # At iteration 0, A = 0 and B_0 is a multiple of the identity.
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=34)
    s, t = asura_sample(svd, cfg)
    rep = check_well_balanced(s, t, svd, 0.25)
    half = rep.kd_closed / 2
    assert np.all(rep.kd_brute <= half + 1e-12)
    assert rep.kd_brute[0] == pytest.approx(half[0], rel=1e-12)
    assert np.any(rep.kd_brute[1:] < half[1:] - 1e-6)
    assert rep.kd_agree and rep.kd_max_abs_diff <= 1e-12


def test_conditioning_sweep_skips_zero_rows():
    # Appending a zero row to X appends a zero row to U; it has p_x = 0 and
    # ||U(x)||^2 = 0 and is left out of the sweep rather than divided 0/0.
    _, svd = _svd()
    padded = SvdFactors(
        u=np.vstack([svd.u, np.zeros((1, svd.rank))]),
        sigma=svd.sigma,
        v=svd.v,
        rank_tol=svd.rank_tol,
    )
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=35)
    s, t = asura_sample(padded, cfg)
    rep = check_well_balanced(s, t, padded, 0.25)
    assert np.all(np.isfinite(rep.kd_brute))
    assert rep.kd_ok


def test_dominant_row_run_in_window_is_well_balanced():
    # A 1000 x 1 design whose row 0 carries almost all of the mass.  With D
    # uniform on n rows, K_j = max_x ||U(x)||^2 / p_x.  The dominant row has
    # p_x near 1 and the other rows share the rest in proportion to their
    # mass, so alpha_j K_j stays small; a sweep that scaled with n * p_x
    # instead would reject runs that are inside the window.
    x = make_rng(36).standard_normal((1000, 1))
    x[0] *= 1e3
    svd = thin_svd(x)
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=37)
    s, t = asura_sample(svd, cfg)
    rep = check_well_balanced(s, t, svd, 0.25)
    assert rep.spectral_ok
    assert rep.kd_max_brute <= rep.kd_max_closed / 2 + 1e-12
    assert rep.kd_ok
    assert rep.well_balanced
    _, _, attempts = sample_with_retry(svd, cfg)
    assert attempts == 1


def test_small_gamma_runs_are_well_balanced():
    # The spectral guarantee needs a small barrier speed; at gamma = 1/16 the
    # reweighted Gram matrix lands inside [3/4, 5/4] in essentially every run.
    ds, svd = _svd()
    ok = 0
    runs = 30
    for k in range(runs):
        cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=derive_seed(2000, k))
        s, t = asura_sample(svd, cfg)
        rep = check_well_balanced(s, t, svd, 0.25)
        ok += rep.well_balanced
    assert ok / runs >= 0.75


def test_condition_number_bound_in_small_gamma_regime():
    _, svd = _svd(n1=12, n2=4, d=4, seed=3)
    cfg = AsuraConfig(epsilon=0.25, c0=16.0, rng_seed=5)  # gamma = 1/32
    _, t = asura_sample(svd, cfg, capture_matrices=False)
    assert t.l_final > 0
    assert t.u_final / t.l_final <= 1 + 3456 * cfg.gamma


def test_sample_with_retry_first_attempt_matches_plain_run():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=41)
    sample, trace, attempts = sample_with_retry(svd, cfg)
    assert attempts == 1
    plain, _ = asura_sample(svd, cfg)
    np.testing.assert_array_equal(sample.indices, plain.indices)


def test_sample_with_retry_exhaustion_carries_reports():
    # At gamma = 1/4 the spectral window is essentially never met, so every
    # attempt fails and the error carries one report per attempt.
    _, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=43, max_restarts=3)
    with pytest.raises(WellBalancedEventFailedError) as err:
        sample_with_retry(svd, cfg)
    assert len(err.value.reports) == 3


def test_sample_with_retry_never_exhausts_in_guaranteed_regime():
    # Per-attempt failure probability is far below 1/4 at gamma = 1/16, so
    # ten restarts are never exhausted across seeded instances.
    for k in range(20):
        ds = gaussian_dataset(12, 4, 4, seed=3000 + k)
        svd = thin_svd(ds.stacked())
        cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=derive_seed(4000, k), max_restarts=10)
        _, _, attempts = sample_with_retry(svd, cfg)
        assert attempts <= 10
