import numpy as np
import pytest
import scipy.stats

from ssar.asura import (
    AsuraConfig,
    _barrier_weights,
    _draw_index,
    _normalize_probabilities,
    _replay,
    asura_sample,
    check_well_balanced,
    sample_with_retry,
    sampling_distribution,
)
from ssar.core import Dataset, thin_svd
from ssar.errors import (
    BarrierViolationError,
    InvalidInputError,
    NumericalBreakdownError,
    WellBalancedEventFailedError,
)
from ssar.rngutil import derive_seed, make_rng
from ssar.verify import check_hard_lemmas

from conftest import gaussian_dataset


def _svd(n1=24, n2=8, d=8, seed=5):
    ds = gaussian_dataset(n1, n2, d, seed)
    return ds, ds.svd


def _dataset(x, n1=None):
    """The instance whose first ``n1`` rows of ``x`` (default: all) are unlabeled."""
    n1 = len(x) if n1 is None else n1
    return Dataset(x_unlabeled=x[:n1], x_labeled=x[n1:], y_labeled=np.zeros(len(x) - n1))


def _initial(rank, gamma):
    """The sampler's starting state ``(A, u, l)``: ``A = 0`` and ``u = -l = 2 r / gamma``."""
    edge = 2.0 * rank / gamma
    return np.zeros((rank, rank)), edge, -edge


def _matrices(trace, svd):
    """The running matrices ``A_0 .. A_m`` of a run, replayed from its trace."""
    chunks = [mats for _, mats in _replay(trace, svd.u)]
    return np.concatenate([c[:-1] for c in chunks] + [chunks[-1][-1:]])


def _state(trace, mats, j):
    """The barrier state ``(A, u, l)`` before iteration ``j`` of a run."""
    return mats[j], float(trace.u[j]), float(trace.l[j])


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
    # The sampler runs at any gamma < 1/2 on either side of rank 64; gamma <= 1/4
    # is asserted only by the matrix checks, whose arguments need it.
    hot = AsuraConfig(epsilon=0.81, c0=2.0, rng_seed=1)  # gamma 0.45
    for d in (8, 65):
        ds, svd = _svd(n1=2 * d, n2=d, d=d)
        sample, trace = asura_sample(ds, hot)
        assert sample.m >= 1 and svd.rank == d
        assert len(check_hard_lemmas(trace)) == 3
        with pytest.raises(InvalidInputError):
            check_hard_lemmas(trace, svd)
        with pytest.raises(InvalidInputError):
            check_well_balanced(trace, svd)


def test_gamma_half_breaks_barrier_update():
    ds, _ = _svd()
    cfg = AsuraConfig(epsilon=0.81, c0=1.5, rng_seed=1)  # gamma 0.6
    with pytest.raises(InvalidInputError):
        asura_sample(ds, cfg)


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
    # On a stack, the error names the first touched state's iteration.
    ok = np.diag([0.5, 0.0])
    with pytest.raises(BarrierViolationError, match="at iteration 4"):
        _barrier_weights(np.stack([ok, a, a]), np.ones(3), -np.ones(3), 3)


def test_barrier_weights_on_a_stack_match_each_state():
    ds, svd = _svd()
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=7))
    mats = _matrices(trace, svd)[:-1]
    q_stack, b_stack = _barrier_weights(mats, trace.u[:-1], trace.l[:-1])
    assert q_stack.shape == mats.shape and b_stack.shape == (trace.m, svd.rank)
    for j in range(trace.m):
        q, b = _barrier_weights(*_state(trace, mats, j))
        np.testing.assert_array_equal(b_stack[j], b)
        np.testing.assert_array_equal(np.abs(q_stack[j]), np.abs(q))


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
    _, trace = asura_sample(ds, cfg)
    j = trace.m // 2
    p = sampling_distribution(svd, *_state(trace, _matrices(trace, svd), j))
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
    ds = _dataset(make_rng(2).standard_normal((10, 1)))
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=4)
    sample, trace = asura_sample(ds, cfg)
    assert trace.m <= int(np.ceil(2 * 1 / cfg.gamma**2))
    assert np.all(sample.weights > 0)


def test_sampler_is_deterministic_given_seed():
    ds, _ = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=99)
    s1, t1 = asura_sample(ds, cfg)
    s2, t2 = asura_sample(ds, cfg)
    np.testing.assert_array_equal(s1.indices, s2.indices)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    np.testing.assert_array_equal(t1.phi_id, t2.phi_id)


def test_sampler_structural_bounds_over_seed_batch():
    ds, svd = _svd()
    d = svd.rank
    for k in range(25):
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=derive_seed(1000, k))
        sample, trace = asura_sample(ds, cfg)
        gamma = cfg.gamma
        assert trace.m <= int(np.ceil(2 * d / gamma**2))
        assert trace.u_final - trace.l_final <= 9 * d / gamma
        assert trace.phi_id.min() >= gamma / 2
        # Potential also dominates the instantaneous gap floor.
        gaps = trace.u[:-1] - trace.l[:-1]
        assert np.all(trace.phi_id >= 4 * d / gaps - 1e-12)
        mid = 0.5 * (trace.u_final + trace.l_final)
        assert trace.mid == mid
        np.testing.assert_allclose(sample.weights * mid, trace.w_prime, rtol=1e-12)
        np.testing.assert_allclose(trace.alpha * mid, gamma / trace.phi_id, rtol=1e-12)


def test_sample_is_derived_from_the_trace():
    ds, _ = _svd()
    for seed in (1, 2, 3):
        sample, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=seed))
        np.testing.assert_array_equal(sample.indices, trace.sampled_index)
        np.testing.assert_array_equal(sample.weights, trace.w_prime / trace.mid)


def test_final_barrier_always_clears_trivial_tail_threshold():
    # The initial barrier alone dominates p^2 d / (8 gamma^2) for any p < 1,
    # so the tail event holds on every run.
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=8)
    _, trace = asura_sample(ds, cfg)
    d, gamma = svd.rank, cfg.gamma
    for p in (0.25, 0.5, 0.9):
        assert trace.u_final >= p * p * d / (8 * gamma**2)


def test_unlabeled_mass_identity_against_inverse_oracle():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=21)
    _, trace = asura_sample(ds, cfg)
    eye = np.eye(svd.rank)
    u1 = svd.u[: ds.n1]
    d_mat = u1.T @ u1
    mats = _matrices(trace, svd)
    for j in (0, trace.m // 2, trace.m - 1):
        a, u, l = _state(trace, mats, j)
        b_mat = np.linalg.inv(u * eye - a) + np.linalg.inv(a - l * eye)
        oracle = float(np.trace(d_mat @ b_mat) / np.trace(b_mat))
        assert trace.px1_sum[j] == pytest.approx(oracle, abs=1e-10)
        # The recorded block potential matches the explicit-inverse route too.
        assert trace.phi_d[j] == pytest.approx(float(np.trace(d_mat @ b_mat)), rel=1e-10)


def test_zero_leverage_rows_are_never_sampled():
    x = np.vstack([np.zeros((4, 3)), np.eye(3)])
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=17)
    sample, _ = asura_sample(_dataset(x, 4), cfg)
    assert np.all(sample.indices >= 4)


def _stream_cases():
    rng = make_rng(61)
    zero_rows = np.vstack([rng.standard_normal((6, 3)), np.zeros((5, 3)), np.eye(3)])
    return [
        pytest.param(rng.standard_normal((16, 4)), 16, id="n2-zero"),
        pytest.param(rng.standard_normal((20, 1)), 15, id="rank-1"),
        pytest.param(zero_rows, 11, id="zero-rows"),
        pytest.param(rng.standard_normal((50, 4)), 45, id="n1-off-block-grid"),
        pytest.param(rng.standard_normal((500, 5)), 430, id="many-blocks"),
    ]


@pytest.mark.parametrize("x,n1", _stream_cases())
def test_block_draw_replays_full_row_stream(x, n1):
    # Replaying the run's uniforms against the full-row distribution at every
    # replayed state reproduces each pick and its probability.
    ds = _dataset(x, n1)
    svd = ds.svd
    for seed in (3, 57, 911):
        cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=seed)
        _, trace = asura_sample(ds, cfg)
        mats = _matrices(trace, svd)
        rng = make_rng(seed)
        for j in range(trace.m):
            p = sampling_distribution(svd, *_state(trace, mats, j))
            pick = _draw_index(rng, p)
            assert trace.sampled_index[j] == pick, (seed, j)
            assert trace.p_j[j] == pytest.approx(p[pick], rel=1e-12)
            assert trace.px1_sum[j] == pytest.approx(p[:n1].sum(), rel=1e-12, abs=1e-15)


# ------------------------------------------------------ well-balancedness

def test_check_well_balanced_rejects_mismatched_artifacts():
    ds, _ = _svd()
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=31))
    for other in (_svd(d=7)[1], _svd(n1=20)[1]):
        with pytest.raises(InvalidInputError):
            check_well_balanced(trace, other)


def test_conditioning_closed_form_initial_iteration():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=34)
    _, t = asura_sample(ds, cfg)
    rep = check_well_balanced(t, svd)
    d = svd.rank
    expected0 = cfg.gamma * (4 * d / cfg.gamma) / (t.u_final + t.l_final)
    assert rep.kd_closed[0] == pytest.approx(expected0, rel=1e-12)
    assert rep.alpha_sum <= 1024.0


def test_conditioning_sweep_is_at_most_half_the_closed_form():
    # p_x >= lambda_min(B_j) ||U(x)||^2 / phi_j with lambda_min(B_j) >=
    # 4 / (u_j - l_j), while the closed form assumes only 2 / (u_j - l_j).
    # At iteration 0, A = 0 and B_0 is a multiple of the identity.
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=34)
    _, t = asura_sample(ds, cfg)
    rep = check_well_balanced(t, svd)
    half = rep.kd_closed / 2
    assert np.all(rep.kd_brute <= half + 1e-12)
    assert rep.kd_brute[0] == pytest.approx(half[0], rel=1e-12)
    assert np.any(rep.kd_brute[1:] < half[1:] - 1e-6)
    assert rep.kd_agree and rep.kd_max_abs_diff <= 1e-12


def test_conditioning_sweep_skips_zero_rows():
    # Appending a zero row to X appends a zero row to U; it has p_x = 0 and
    # ||U(x)||^2 = 0 and is left out of the sweep rather than divided 0/0.
    ds, _ = _svd()
    padded = Dataset(
        x_unlabeled=ds.x_unlabeled,
        x_labeled=np.vstack([ds.x_labeled, np.zeros((1, ds.d))]),
        y_labeled=np.append(ds.y_labeled, 0.0),
    )
    assert not padded.svd.u[-1].any()
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=35)
    _, t = asura_sample(padded, cfg)
    rep = check_well_balanced(t, padded.svd)
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
    ds = _dataset(x)
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=37)
    _, t = asura_sample(ds, cfg)
    rep = check_well_balanced(t, ds.svd)
    assert rep.spectral_ok
    assert rep.kd_max_brute <= rep.kd_max_closed / 2 + 1e-12
    assert rep.kd_ok
    assert rep.well_balanced
    _, _, attempts = sample_with_retry(ds, cfg)
    assert attempts == 1


def test_small_gamma_runs_are_well_balanced():
    # The spectral guarantee needs a small barrier speed; at gamma = 1/16 the
    # reweighted Gram matrix lands inside [3/4, 5/4] in essentially every run.
    ds, svd = _svd()
    ok = 0
    runs = 30
    for k in range(runs):
        cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=derive_seed(2000, k))
        _, t = asura_sample(ds, cfg)
        rep = check_well_balanced(t, svd)
        ok += rep.well_balanced
    assert ok / runs >= 0.75


def test_condition_number_bound_in_small_gamma_regime():
    ds, _ = _svd(n1=12, n2=4, d=4, seed=3)
    cfg = AsuraConfig(epsilon=0.25, c0=16.0, rng_seed=5)  # gamma = 1/32
    _, t = asura_sample(ds, cfg)
    assert t.l_final > 0
    assert t.u_final / t.l_final <= 1 + 3456 * cfg.gamma


def test_sample_with_retry_first_attempt_matches_plain_run():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=41)
    sample, trace, attempts = sample_with_retry(ds, cfg)
    assert attempts == 1
    plain, _ = asura_sample(ds, cfg)
    np.testing.assert_array_equal(sample.indices, plain.indices)


def test_sample_with_retry_exhaustion_carries_reports():
    # At gamma = 1/4 the spectral window is essentially never met, so every
    # attempt fails and the error carries one report per attempt.
    ds, _ = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0, rng_seed=43, max_restarts=3)
    with pytest.raises(WellBalancedEventFailedError) as err:
        sample_with_retry(ds, cfg)
    assert len(err.value.reports) == 3


def test_sample_with_retry_never_exhausts_in_guaranteed_regime():
    # Per-attempt failure probability is far below 1/4 at gamma = 1/16, so
    # ten restarts are never exhausted across seeded instances.
    for k in range(20):
        ds = gaussian_dataset(12, 4, 4, seed=3000 + k)
        cfg = AsuraConfig(epsilon=0.25, c0=8.0, rng_seed=derive_seed(4000, k), max_restarts=10)
        _, _, attempts = sample_with_retry(ds, cfg)
        assert attempts <= 10
