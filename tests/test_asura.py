
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ssar import asura
from ssar.asura import (
    AsuraConfig,
    _barrier_weights,
    _normalize_probabilities,
    _row_blocks,
    asura_sample,
    asura_sample_batch,
)
from ssar.core import Dataset, thin_svd
from ssar.errors import (
    BarrierViolationError,
    InvalidInputError,
    NumericalBreakdownError,
    WellBalancedEventFailedError,
)
from ssar.instances import gen_random_instance
from ssar.regression import MAX_RESTARTS, draw_samples
from ssar.rngutil import derive_seed, make_rng
from ssar.verify import _replay, check_hard_lemmas, check_well_balanced

from conftest import gaussian_dataset
from reference import _draw_index, sampling_distribution


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
    assert AsuraConfig(epsilon=0.25, c0=2.0).gamma == pytest.approx(0.25)


def test_gamma_cap_applies_only_with_assertions():
    # The sampler runs at any gamma < 1/2 on either side of rank 64; gamma <= 1/4
    # is asserted only by the matrix checks, whose arguments need it.
    hot = AsuraConfig(epsilon=0.81, c0=2.0)  # gamma 0.45
    for d in (8, 65):
        ds, svd = _svd(n1=2 * d, n2=d, d=d)
        sample, trace = asura_sample(ds, hot, 1)
        assert sample.m >= 1 and svd.rank == d
        assert len(check_hard_lemmas(trace)) == 3
        with pytest.raises(InvalidInputError):
            check_hard_lemmas(trace, svd)
        with pytest.raises(InvalidInputError):
            check_well_balanced(trace, svd)


def test_gamma_half_breaks_barrier_update():
    # A config the sampler cannot run cannot be built.
    with pytest.raises(InvalidInputError, match="breaks the barrier update"):
        AsuraConfig(epsilon=0.81, c0=1.5)  # gamma 0.6


# ---------------------------------------------------------------- potential

def test_potential_initial_state_closed_forms():
    gamma = 0.2
    d = 6
    mix, phi = _barrier_weights(*_initial(d, gamma))
    assert phi == pytest.approx(gamma, rel=1e-12)
    np.testing.assert_allclose(mix, np.eye(d) / d, rtol=0, atol=1e-12)


def test_potential_scalar_case():
    mix, phi = _barrier_weights(np.array([[0.5]]), 1.0, 0.0)
    assert phi == pytest.approx(4.0)
    np.testing.assert_allclose(mix, [[1.0]], rtol=1e-12)


def _eigh_barrier_weights(a, u, l):
    """Reference mixture and potential through the eigenpairs of ``a``:
    ``b = 1/(u - theta) + 1/(theta - l)``, ``M = Q diag(b) Q^T``."""
    theta, q = np.linalg.eigh(a)
    b = 1.0 / (u - theta) + 1.0 / (theta - l)
    return (q * (b / b.sum())) @ q.T, b.sum()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.5, 6.0))
def test_barrier_weights_match_the_eigh_reference(r, seed, log_ratio):
    # A state whose smallest barrier gap is (u - l) / 10**log_ratio, with some
    # eigenvalues spread between that gap and the middle of the window.
    rng = make_rng(seed)
    h = 10.0 ** rng.uniform(-2, 3)
    l = rng.uniform(-2, 2) * h - h
    u = l + 2.0 * h
    gap = 2.0 * h / 10.0**log_ratio
    theta = rng.uniform(l + gap, u - gap, size=r)
    near = rng.random(r) < 0.5
    near[0] = True
    dist = np.minimum(h, gap * 10.0 ** rng.uniform(0, log_ratio, size=r))
    dist[0] = gap
    theta[near] = np.where(rng.random(r) < 0.5, u - dist, l + dist)[near]
    q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    a = (q * theta) @ q.T
    a = 0.5 * (a + a.T)

    mix, phi = _barrier_weights(a, u, l)
    mix_ref, phi_ref = _eigh_barrier_weights(a, u, l)
    # Both routes perturb a barrier gap g by about eps * max(|u|, |l|), so near
    # a barrier they agree only to about eps * kappa; 1e-12 binds while kappa <= 280.
    kappa = max(abs(u), abs(l)) / gap
    tol = max(1e-12, 16 * np.finfo(float).eps * kappa)
    assert np.max(np.abs(mix - mix_ref)) <= tol * np.linalg.norm(mix_ref)
    assert abs(phi - phi_ref) <= tol * phi_ref

    # Pushing the nearest eigenvalue past its barrier by the same gap.
    theta[0] += 2 * gap if theta[0] > 0.5 * (u + l) else -2 * gap
    with pytest.raises(BarrierViolationError):
        _barrier_weights((q * theta) @ q.T, u, l)


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
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), 7)
    mats = _matrices(trace, svd)[:-1]
    mix_stack, phi_stack = _barrier_weights(mats, trace.u[:-1], trace.l[:-1])
    assert mix_stack.shape == mats.shape and phi_stack.shape == (trace.m,)
    for j in range(trace.m):
        mix, phi = _barrier_weights(*_state(trace, mats, j))
        np.testing.assert_array_equal(mix_stack[j], mix)
        assert phi_stack[j] == phi


def test_sampler_computes_no_eigenpairs(monkeypatch):
    ds, _ = _svd()  # factored before the spy: the Gram screen of thin_svd calls eigh
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), 7)
    # The final containment check takes two Choleskys, not eigenvalues.
    assert trace.m > 10 and calls == []


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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    _, trace = asura_sample(ds, cfg, 123)
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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    sample, trace = asura_sample(ds, cfg, 4)
    assert trace.m <= int(np.ceil(2 * 1 / cfg.gamma**2))
    assert np.all(sample.weights > 0)


def test_sampler_is_deterministic_given_seed():
    ds, _ = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    s1, t1 = asura_sample(ds, cfg, 99)
    s2, t2 = asura_sample(ds, cfg, 99)
    np.testing.assert_array_equal(s1.indices, s2.indices)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    np.testing.assert_array_equal(t1.phi_id, t2.phi_id)


def test_sampler_structural_bounds_over_seed_batch():
    ds, svd = _svd()
    d = svd.rank
    for k in range(25):
        cfg = AsuraConfig(epsilon=0.25, c0=2.0)
        sample, trace = asura_sample(ds, cfg, derive_seed(1000, k))
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
        sample, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), seed)
        np.testing.assert_array_equal(sample.indices, trace.sampled_index)
        np.testing.assert_array_equal(sample.weights, trace.w_prime / trace.mid)


def test_final_barrier_always_clears_trivial_tail_threshold():
    # The initial barrier alone dominates p^2 d / (8 gamma^2) for any p < 1,
    # so the tail event holds on every run.
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    _, trace = asura_sample(ds, cfg, 8)
    d, gamma = svd.rank, cfg.gamma
    for p in (0.25, 0.5, 0.9):
        assert trace.u_final >= p * p * d / (8 * gamma**2)


def test_unlabeled_mass_identity_against_inverse_oracle():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    _, trace = asura_sample(ds, cfg, 21)
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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    sample, _ = asura_sample(_dataset(x, 4), cfg, 17)
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
        cfg = AsuraConfig(epsilon=0.25, c0=2.0)
        _, trace = asura_sample(ds, cfg, seed)
        mats = _matrices(trace, svd)
        rng = make_rng(seed)
        for j in range(trace.m):
            p = sampling_distribution(svd, *_state(trace, mats, j))
            pick = _draw_index(rng, p)
            assert trace.sampled_index[j] == pick, (seed, j)
            assert trace.p_j[j] == pytest.approx(p[pick], rel=1e-12)
            assert trace.px1_sum[j] == pytest.approx(p[:n1].sum(), rel=1e-12, abs=1e-15)


# ------------------------------------------------------------ lockstep

def _assert_same_run(got, want):
    """Same picks and iteration count; every float of the trace within a few ulp."""
    (sample, trace), (sample_ref, trace_ref) = got, want
    assert trace.m == trace_ref.m
    np.testing.assert_array_equal(trace.sampled_index, trace_ref.sampled_index)
    np.testing.assert_array_equal(sample.indices, sample_ref.indices)
    ulps = 8 * np.finfo(float).eps
    for name in ("phi_id", "u", "l", "p_j", "px1_sum", "phi_d"):
        np.testing.assert_allclose(getattr(trace, name), getattr(trace_ref, name),
                                   rtol=ulps, atol=0, err_msg=name)
    np.testing.assert_allclose(sample.weights, sample_ref.weights, rtol=ulps, atol=0)


def _lockstep_cases():
    rng = make_rng(71)
    rank_deficient = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))
    return [
        pytest.param(gen_random_instance(12, 4, 4, 1.0, 1)[0], 0.1, id="verify-d4"),
        pytest.param(gen_random_instance(48, 16, 16, 1.0, 2)[0], 0.25, id="verify-d16"),
        pytest.param(_dataset(rng.standard_normal((24, 5))), 0.25, id="n2-zero"),
        pytest.param(_dataset(rank_deficient, 34), 0.25, id="rank-deficient"),
        # 45-row blocks, with the unlabeled edge at 1930 leaving blocks of 40
        # and 25 rows: picks from blocks of three lengths in one iteration.
        pytest.param(_dataset(rng.standard_normal((2000, 5)), 1930), 0.25,
                     id="tall-many-blocks"),
    ]


@pytest.mark.parametrize("n_runs", [3, 7, 30])
@pytest.mark.parametrize("ds,epsilon", _lockstep_cases())
def test_lockstep_batch_matches_runs_in_turn(ds, epsilon, n_runs):
    # Three runs is the smallest batch that goes in lockstep.
    cfg = AsuraConfig(epsilon=epsilon, c0=2.0)
    seeds = [derive_seed(13, k) for k in range(n_runs)]
    batch = asura_sample_batch(ds, cfg, seeds)
    assert len(batch) == n_runs
    for got, seed in zip(batch, seeds):
        _assert_same_run(got, asura_sample(ds, cfg, seed))
    for got, ref in zip(draw_samples(ds, cfg, seeds), batch):
        _assert_same_run(got, ref)


def test_batch_picks_the_path_from_the_batch_size(monkeypatch):
    # One or two seeds go one at a time; three or more go in lockstep.
    ds = gaussian_dataset(12, 4, 4, seed=3)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    calls = []
    for name in ("asura_sample", "_lockstep"):
        real = getattr(asura, name)
        monkeypatch.setattr(asura, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    for n_runs in (1, 2, 3):
        assert len(asura_sample_batch(ds, cfg, [derive_seed(5, k) for k in range(n_runs)])) == n_runs
    assert calls == ["asura_sample"] * 3 + ["_lockstep"]


@pytest.mark.parametrize("n_runs", [1, 2])
def test_batch_in_turn_builds_the_row_blocks_once(monkeypatch, n_runs):
    ds = gaussian_dataset(200, 10, 4, seed=4)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(6, k) for k in range(n_runs)]
    alone = [asura_sample(ds, cfg, seed) for seed in seeds]
    calls = []
    real = asura._row_blocks
    monkeypatch.setattr(asura, "_row_blocks", lambda *args: calls.append(1) or real(*args))
    batch = asura_sample_batch(ds, cfg, seeds)
    assert len(calls) == 1
    for (sample, trace), (sample_alone, trace_alone) in zip(batch, alone):
        np.testing.assert_array_equal(sample.indices, sample_alone.indices, strict=True)
        np.testing.assert_array_equal(sample.weights, sample_alone.weights, strict=True)
        np.testing.assert_array_equal(trace.p_j, trace_alone.p_j, strict=True)


def test_lockstep_cases_are_what_they_say():
    cases = {p.id: p.values[0] for p in _lockstep_cases()}
    assert cases["rank-deficient"].svd.rank == 3 < cases["rank-deficient"].d
    tall = cases["tall-many-blocks"]
    edges, _ = _row_blocks(tall.svd.u, tall.n1)
    assert sorted(set(np.diff(edges))) == [25, 40, 45]


class _Skewed:
    """A generator whose uniforms are squared ``times`` times, scalar or array alike."""

    def __init__(self, rng, times):
        self.rng, self.times = rng, times

    def random(self, size=None):
        value = self.rng.random(size)
        for _ in range(self.times):
            value = value * value
        return value


def test_lockstep_runs_of_different_lengths_leave_the_stack_in_turn(monkeypatch):
    # Skewing a run's uniforms toward 0 concentrates its picks on the first
    # rows and lengthens it; runs skewed 0-5 times stop over a wide spread of
    # iterations, so the stack loses runs at many different iterations.
    x = make_rng(5).standard_normal((40, 4)) * np.exp(make_rng(6).standard_normal((40, 1)))
    ds = _dataset(x, 36)
    cfg = AsuraConfig(epsilon=0.1, c0=2.0)
    seeds = [derive_seed(17, k) for k in range(12)]
    times = {seed: k % 6 for k, seed in enumerate(seeds)}
    make = asura.make_rng
    monkeypatch.setattr(asura, "make_rng", lambda seed: _Skewed(make(seed), times[seed]))
    want = [asura_sample(ds, cfg, seed) for seed in seeds]
    lengths = {t.m for _, t in want}
    assert len(lengths) >= 6 and max(lengths) - min(lengths) >= 20
    for got, ref in zip(asura_sample_batch(ds, cfg, seeds), want):
        _assert_same_run(got, ref)


def test_lockstep_stacks_split_by_the_byte_budget(monkeypatch):
    # A budget below one run's work splits the batch into the most stacks
    # that keep LOCKSTEP_MIN_RUNS runs each, of near-equal size.
    ds = gaussian_dataset(12, 4, 4, seed=8)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(19, k) for k in range(7)]
    whole = asura_sample_batch(ds, cfg, seeds)
    stacks = []
    lockstep = asura._lockstep
    monkeypatch.setattr(asura, "_lockstep",
                        lambda *args: stacks.append(len(args[-1])) or lockstep(*args))
    monkeypatch.setattr(asura, "LOCKSTEP_BYTES", 1)
    for got, ref in zip(asura_sample_batch(ds, cfg, seeds), whole):
        _assert_same_run(got, ref)
    assert stacks == [3, 4]


def _fails_in_turn(ds, cfg, seeds):
    """Each seed's error when its run goes alone (None for a run that finishes)."""
    errors = []
    for seed in seeds:
        try:
            asura_sample(ds, cfg, seed)
            errors.append(None)
        except (BarrierViolationError, NumericalBreakdownError) as exc:
            errors.append(exc)
    return errors


def _assert_slots_are_the_runs_in_turn(slots, ds, cfg, seeds, in_turn):
    """Each failing run's slot holds its error alone, class and message; every
    other slot is its run alone."""
    assert len(slots) == len(seeds)
    for slot, seed, exc in zip(slots, seeds, in_turn):
        if exc is None:
            _assert_same_run(slot, asura_sample(ds, cfg, seed))
        else:
            assert type(slot) is type(exc)
            assert str(slot) == str(exc)


def test_lockstep_raises_the_lowest_failing_runs_barrier_error(monkeypatch):
    # Run 2 touches a squeezed barrier late and run 5 early: the stack meets
    # run 5's error first, and each of the two runs still gets the error it
    # raises alone in its own slot, naming its own iteration.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(11, k) for k in range(7)]
    plain = [asura_sample(ds, cfg, seed)[1] for seed in seeds]
    late, early = (2, plain[2].m - 3), (5, 4)
    doomed = [float(plain[k].u[j]) for k, j in (late, early)]
    real = asura._barrier_weights

    def squeezed(a, u, l, j=None):
        # The doomed states see an upper barrier just above the lower one.
        hit = np.isin(u, doomed)
        return real(a, np.where(hit, l + 1e-9 * (u - l), u) if hit.any() else u, l, j)

    monkeypatch.setattr(asura, "_barrier_weights", squeezed)
    in_turn = _fails_in_turn(ds, cfg, seeds)
    assert [k for k, exc in enumerate(in_turn) if exc is not None] == [2, 5]
    slots = draw_samples(ds, cfg, seeds)
    _assert_slots_are_the_runs_in_turn(slots, ds, cfg, seeds, in_turn)
    assert f"at iteration {late[1]}:" in str(slots[2])
    assert f"at iteration {early[1]}:" in str(slots[5])


def _breakdown_floor(monkeypatch, ds, cfg, seeds, failing):
    """Set ``P_ERROR_FLOOR`` between the runs' smallest block masses, so that
    the ``failing`` runs of lowest mass dip below it, each at its own iteration."""
    _, grams = _row_blocks(ds.svd.u, ds.n1)
    lowest = []
    for seed in seeds:
        _, trace = asura_sample(ds, cfg, seed)
        mix, _ = _barrier_weights(_matrices(trace, ds.svd)[:-1], trace.u[:-1], trace.l[:-1])
        lowest.append(float((mix.reshape(trace.m, -1) @ grams.T).min()))
    order = np.sort(lowest)
    monkeypatch.setattr(asura, "P_ERROR_FLOOR", 0.5 * (order[failing - 1] + order[failing]))


def test_lockstep_raises_the_lowest_failing_runs_breakdown(monkeypatch):
    # A breakdown floor between the runs' smallest block masses fails only
    # the runs whose masses dip below it, each at its own iteration.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(11, k) for k in range(7)]
    _breakdown_floor(monkeypatch, ds, cfg, seeds, failing=3)
    in_turn = _fails_in_turn(ds, cfg, seeds)
    failing = [k for k, exc in enumerate(in_turn) if exc is not None]
    assert len(failing) == 3
    slots = asura_sample_batch(ds, cfg, seeds)
    _assert_slots_are_the_runs_in_turn(slots, ds, cfg, seeds, in_turn)
    for k in failing:
        assert "fell below the breakdown threshold at iteration" in str(slots[k])


@pytest.mark.parametrize("limit", ["cap", "final-containment"])
def test_lockstep_raises_the_lowest_failing_runs_limit_error(monkeypatch, limit):
    # A cap at the median run length fails the longer runs when they reach
    # it; a negative containment tolerance of the median final margin fails
    # the runs that end nearer a barrier.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(11, k) for k in range(7)]
    plain = [asura_sample(ds, cfg, seed)[1] for seed in seeds]
    if limit == "cap":
        real, cap = asura._limits, int(np.median([t.m for t in plain]))

        def capped(cfg, r):
            gamma, _, budget = real(cfg, r)
            return gamma, cap, budget

        monkeypatch.setattr(asura, "_limits", capped)
        message = "stopping rule failed to fire within the"
    else:
        margins = []
        for t in plain:
            theta = np.linalg.eigvalsh(_matrices(t, ds.svd)[-1])
            margins.append(min(t.u_final - theta[-1], theta[0] - t.l_final))
        monkeypatch.setattr(asura, "EIG_TOL", -float(np.median(margins)))
        message = "final matrix left the barrier window after"
    in_turn = _fails_in_turn(ds, cfg, seeds)
    failing = [k for k, exc in enumerate(in_turn) if exc is not None]
    assert 0 < len(failing) < len(seeds)
    slots = asura_sample_batch(ds, cfg, seeds)
    _assert_slots_are_the_runs_in_turn(slots, ds, cfg, seeds, in_turn)
    for k in failing:
        assert message in str(slots[k])


def test_a_failing_stack_draws_each_of_its_runs_at_most_twice(monkeypatch):
    # A run's every draw makes its generator once: in its stack, and again
    # alone if it was still in the stack when the stack failed.  Two stacks,
    # the first of which fails; the second, and a small batch that runs in
    # turn, draw each run once.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(11, k) for k in range(7)]
    lengths = {seed: asura_sample(ds, cfg, seed)[1].m for seed in seeds}
    _breakdown_floor(monkeypatch, ds, cfg, seeds, failing=1)
    in_turn = _fails_in_turn(ds, cfg, seeds)
    (bad,) = [k for k, exc in enumerate(in_turn) if exc is not None]
    order = [seeds[bad]] + seeds[:bad] + seeds[bad + 1:]
    # The stack fails at the bad run's iteration; a run of at most that many
    # iterations has left it by then.
    failed_at = int(str(in_turn[bad]).rsplit("iteration ", 1)[1])
    active = [seed for seed in order[:3] if seed == seeds[bad] or lengths[seed] > failed_at]
    made = []
    make = asura.make_rng
    monkeypatch.setattr(asura, "make_rng", lambda seed: made.append(seed) or make(seed))
    monkeypatch.setattr(asura, "LOCKSTEP_BYTES", 1)
    slots = draw_samples(ds, cfg, order)
    assert made == order[:3] + active + order[3:]
    made.clear()
    assert [type(slot) for slot in draw_samples(ds, cfg, order[:2])] == [
        NumericalBreakdownError, tuple]
    assert made == order[:2]
    _assert_slots_are_the_runs_in_turn(slots, ds, cfg, order, [in_turn[bad]] + [None] * 6)


def test_a_failing_stack_keeps_the_runs_that_left_it(monkeypatch):
    # The longest run of a stack touches a squeezed barrier at its last
    # iteration, after the other runs have met their budgets and left: only it
    # is drawn again, alone, and every slot is still its run alone.
    ds = gaussian_dataset(24, 8, 8, seed=5)
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    seeds = [derive_seed(11, k) for k in range(3)]
    plain = [asura_sample(ds, cfg, seed)[1] for seed in seeds]
    bad = int(np.argmax([t.m for t in plain]))
    assert sorted(t.m for t in plain)[-2] < plain[bad].m
    doomed = float(plain[bad].u[plain[bad].m - 1])
    real = asura._barrier_weights

    def squeezed(a, u, l, j=None):
        hit = np.isin(u, doomed)
        return real(a, np.where(hit, l + 1e-9 * (u - l), u) if hit.any() else u, l, j)

    monkeypatch.setattr(asura, "_barrier_weights", squeezed)
    in_turn = _fails_in_turn(ds, cfg, seeds)
    assert [k for k, exc in enumerate(in_turn) if exc is not None] == [bad]
    made = []
    make = asura.make_rng
    monkeypatch.setattr(asura, "make_rng", lambda seed: made.append(seed) or make(seed))
    slots = asura_sample_batch(ds, cfg, seeds)
    assert made == seeds + [seeds[bad]]
    _assert_slots_are_the_runs_in_turn(slots, ds, cfg, seeds, in_turn)


# ------------------------------------------------------ well-balancedness

def test_check_well_balanced_rejects_mismatched_artifacts():
    ds, _ = _svd()
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), 31)
    for other in (_svd(d=7)[1], _svd(n1=20)[1]):
        with pytest.raises(InvalidInputError):
            check_well_balanced(trace, other)


def test_conditioning_closed_form_initial_iteration():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    _, t = asura_sample(ds, cfg, 34)
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
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    _, t = asura_sample(ds, cfg, 34)
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
    cfg = AsuraConfig(epsilon=0.25, c0=8.0)
    _, t = asura_sample(padded, cfg, 35)
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
    cfg = AsuraConfig(epsilon=0.25, c0=8.0)
    _, t = asura_sample(ds, cfg, 37)
    rep = check_well_balanced(t, ds.svd)
    assert rep.spectral_ok
    assert rep.kd_max_brute <= rep.kd_max_closed / 2 + 1e-12
    assert rep.kd_ok
    assert rep.well_balanced
    # A retry draw that passes on attempt 1 is the plain run.
    (drawn,) = draw_samples(ds, cfg, [37], retry=True)
    np.testing.assert_array_equal(drawn[1].sampled_index, t.sampled_index)


def test_small_gamma_runs_are_well_balanced():
    # The spectral guarantee needs a small barrier speed; at gamma = 1/16 the
    # reweighted Gram matrix lands inside [3/4, 5/4] in essentially every run.
    ds, svd = _svd()
    ok = 0
    runs = 30
    cfg = AsuraConfig(epsilon=0.25, c0=8.0)
    for _, t in asura_sample_batch(ds, cfg, [derive_seed(2000, k) for k in range(runs)]):
        rep = check_well_balanced(t, svd)
        ok += rep.well_balanced
    assert ok / runs >= 0.75


def test_condition_number_bound_in_small_gamma_regime():
    ds, _ = _svd(n1=12, n2=4, d=4, seed=3)
    cfg = AsuraConfig(epsilon=0.25, c0=16.0)  # gamma = 1/32
    _, t = asura_sample(ds, cfg, 5)
    assert t.l_final > 0
    assert t.u_final / t.l_final <= 1 + 3456 * cfg.gamma


def test_retry_draw_first_attempt_matches_plain_run():
    ds, svd = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=8.0)
    (drawn,) = draw_samples(ds, cfg, [41], retry=True)
    plain, _ = asura_sample(ds, cfg, 41)
    # Attempt 1 draws with the run's own seed, so a pass there is the plain run.
    np.testing.assert_array_equal(drawn[0].indices, plain.indices)


def test_retry_draw_exhaustion_carries_reports():
    # At gamma = 1/4 the spectral window is essentially never met, so every
    # attempt fails and the error carries one report per attempt.
    ds, _ = _svd()
    cfg = AsuraConfig(epsilon=0.25, c0=2.0)
    (drawn,) = draw_samples(ds, cfg, [43], retry=True)
    assert isinstance(drawn, WellBalancedEventFailedError)
    assert len(drawn.reports) == MAX_RESTARTS == 10


def test_retry_draw_never_exhausts_in_guaranteed_regime():
    # Per-attempt failure probability is far below 1/4 at gamma = 1/16, so
    # ten restarts are never exhausted across seeded instances.
    for k in range(20):
        ds = gaussian_dataset(12, 4, 4, seed=3000 + k)
        cfg = AsuraConfig(epsilon=0.25, c0=8.0)
        (drawn,) = draw_samples(ds, cfg, [derive_seed(4000, k)], retry=True)
        assert not isinstance(drawn, WellBalancedEventFailedError)
