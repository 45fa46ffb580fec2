import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssar.core import (
    DEFAULT_RANK_TOL,
    Dataset,
    SvdFactors,
    leverage_scores,
    reduced_rank,
    thin_svd,
)
from ssar.errors import InvalidInputError, NotPsdError
from ssar.regression import kernel_ridge_to_ssal, ridge_to_ssal
from ssar.rngutil import make_rng

from conftest import gaussian_dataset
from reference import (
    SingularMatrixError,
    effective_dimension,
    reduced_rank_inverse,
    statistical_dimension,
)


# ---------------------------------------------------------------- thin_svd

def test_thin_svd_identity():
    f = thin_svd(np.eye(3))
    assert f.rank == 3
    np.testing.assert_allclose(f.sigma, np.ones(3))
    np.testing.assert_allclose(f.u @ f.v.T, np.eye(3), atol=1e-14)


def test_thin_svd_truncates_rank():
    f = thin_svd(np.diag([3.0, 0.0]))
    assert f.rank == 1
    np.testing.assert_allclose(f.sigma, [3.0])


def test_thin_svd_reconstruction_random():
    x = make_rng(7).standard_normal((6, 3))
    f = thin_svd(x)
    err = np.linalg.norm((f.u * f.sigma) @ f.v.T - x) / np.linalg.norm(x)
    assert err <= 1e-8


def test_thin_svd_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        thin_svd(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInputError):
        thin_svd(np.zeros((3, 2)))


def _lapack_truncated(x):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    r = np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
    return u[:, :r], s[:r], vt[:r].T


SIDES = st.integers(2, 40) | st.integers(129, 300)


@settings(max_examples=60, deadline=None)
@given(SIDES, SIDES, st.integers(0, 2**32 - 1))
def test_thin_svd_rank_and_spectrum_match_lapack(n, d, seed):
    # Spectra spread over 1e-14..1, some with exact zeros, so that inputs of
    # full rank, of a clean low rank and with values in the gray zone between
    # rank_tol and the Gram screen all occur, tall and wide, with short sides
    # up to 300.
    rng = make_rng(seed)
    k = min(n, d)
    s = 10.0 ** rng.uniform(-14, 0, size=k)
    s[rng.random(k) < rng.uniform(0, 0.8)] = 0.0
    if rng.random() < 0.5:
        s[(s > 1e-10) & (s < 1e-6)] = 0.0
    s[rng.integers(k)] = 1.0
    q1 = np.linalg.qr(rng.standard_normal((n, k)))[0]
    q2 = np.linalg.qr(rng.standard_normal((d, k)))[0]
    x = (q1 * s) @ q2.T
    _, ref, _ = _lapack_truncated(x)
    f = thin_svd(x)
    assert f.rank == ref.size
    assert np.max(np.abs(f.sigma - ref)) <= 1e-9 * ref[0]
    f.validate(x)


def _spectral_matrix(shape, s, seed):
    """``Q1 diag(s) Q2^T`` of the given shape with random orthonormal ``Q1``, ``Q2``."""
    rng = make_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((shape[0], s.size)))[0]
    q2 = np.linalg.qr(rng.standard_normal((shape[1], s.size)))[0]
    return (q1 * s) @ q2.T


def _svd_spy(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` from now on."""
    seen = []
    lapack_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _assert_gram_route(monkeypatch, x):
    """``thin_svd(x)`` factors x on its Gram route: LAPACK sees only the k x k
    matrix, the spectrum is LAPACK's and a second call repeats the factors."""
    _, ref, _ = _lapack_truncated(x)
    k = min(x.shape)
    seen = _svd_spy(monkeypatch)
    f = thin_svd(x)
    assert seen == [(k, k)]
    assert f.rank == ref.size == k
    assert np.max(np.abs(f.sigma - ref)) <= 1e-9 * ref[0]
    f.validate(x)
    again = thin_svd(x)
    for got, want in ((again.u, f.u), (again.sigma, f.sigma), (again.v, f.v)):
        np.testing.assert_array_equal(got, want)


# Ill-conditioned, but the Gram screen still sees full rank.  The square
# Gaussian starts at sigma_min / sigma_max = 9e-4, so a column scale of 1e-5
# would put it at 5.6e-8, in the gray zone that LAPACK decides.
@pytest.mark.parametrize("shape, scale", [((300, 12), 1e-5), ((12, 30), 1e-5), ((50, 50), 1e-3)],
                         ids=["300x12", "12x30", "50x50"])
def test_thin_svd_factors_a_full_rank_input_on_its_gram_route(monkeypatch, shape, scale):
    rng = make_rng(21)
    x = rng.standard_normal(shape)
    x[:, 0] *= scale
    _assert_gram_route(monkeypatch, x)


@pytest.mark.parametrize("shape", [(20_200, 20), (4_100, 100)], ids=["run-tall", "sweep-wide"])
def test_thin_svd_gram_route_at_the_screen_edge(monkeypatch, shape):
    # sigma_min / sigma_max = 2e-6 puts the smallest Gram eigenvalue at 4e-12
    # theta_max, just above GRAM_TRUST: one CholeskyQR pass must still do.
    x = _spectral_matrix(shape, np.geomspace(1.0, 2e-6, min(shape)), seed=24)
    _assert_gram_route(monkeypatch, x)


def test_thin_svd_falls_back_to_lapack_when_the_cholesky_fails(monkeypatch):
    x = _spectral_matrix((4_100, 100), np.geomspace(1.0, 2e-6, 100), seed=24)
    u, s, v = _lapack_truncated(x)

    def failing(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    f = thin_svd(x)
    np.testing.assert_array_equal(f.u, u)
    np.testing.assert_array_equal(f.sigma, s)
    np.testing.assert_array_equal(f.v, v)


def test_thin_svd_falls_back_on_a_gray_zone_spectrum(monkeypatch):
    svd_shapes = []
    lapack_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    # 1e-8 is above rank_tol but its Gram eigenvalue 1e-16 is below the screen:
    # the range factors leave a residual of 1e-8, so the full SVD decides.
    f = thin_svd(np.diag([1.0, 1e-8, 0.0, 0.0, 0.0]))
    assert svd_shapes == [(1, 1), (5, 5)]
    assert f.rank == 2
    np.testing.assert_allclose(f.sigma, [1.0, 1e-8], rtol=1e-12)


@pytest.mark.parametrize("shape, s, svd_shapes", [
    # Rank 40 of a short side of 200: the 40 x 40 SVD is the only one.
    ((400, 200), np.geomspace(1.0, 1e-3, 40), [(40, 40)]),
    # Rank 100 of a wide input, factored through its transpose.
    ((260, 500), np.geomspace(1.0, 1e-4, 100), [(100, 100)]),
    # Full rank at a short side of 150.
    ((300, 150), np.geomspace(1.0, 1e-2, 150), [(150, 150)]),
    # 200 values at half the truncation threshold: the Gram screen drops them,
    # but they leave a residual above it, so LAPACK decides.
    ((250, 600), np.concatenate([np.geomspace(1.0, 1e-2, 40), np.full(200, 5e-11)]),
     [(40, 40), (250, 600)]),
], ids=["rank-40", "rank-100", "full-rank", "gray-zone"])
def test_thin_svd_gram_route_above_128_columns(monkeypatch, shape, s, svd_shapes):
    x = _spectral_matrix(shape, s, seed=23)
    _, ref, _ = _lapack_truncated(x)
    seen = _svd_spy(monkeypatch)
    f = thin_svd(x)
    assert seen == svd_shapes
    assert f.rank == ref.size == np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
    assert np.max(np.abs(f.sigma - ref)) <= 1e-9 * ref[0]
    f.validate(x)
    again = thin_svd(x)
    for got, want in ((again.u, f.u), (again.sigma, f.sigma), (again.v, f.v)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_thin_svd_leaves_an_extreme_scale_to_lapack(monkeypatch, scale):
    svd_shapes = []
    lapack_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return lapack_svd(a, *args, **kwargs)

    rng = make_rng(22)
    x = (rng.standard_normal((40, 3)) @ rng.standard_normal((3, 20))) * scale
    _, ref, _ = _lapack_truncated(x)
    monkeypatch.setattr(np.linalg, "svd", spy)
    # The Gram matrix of x would overflow or be denormal, so no screen is tried.
    f = thin_svd(x)
    assert svd_shapes == [(40, 20)]
    assert f.rank == ref.size == 3
    np.testing.assert_array_equal(f.sigma, ref)


def _candidates(x):
    """Factors that miss thin_svd's test on ``x``, by name."""
    good = thin_svd(x)
    u, s, v = good.u, good.sigma, good.v
    nan_u = u.copy()
    nan_u[0, 0] = np.nan
    stale = x.copy()
    stale[3, 1] += 1e-6
    # x has rank 3 in 5 columns: LAPACK's two round-off singular values
    # reconstruct x, but lie below DEFAULT_RANK_TOL * sigma[0].
    lu, ls, lvt = np.linalg.svd(x, full_matrices=False)
    return {
        "other-shape": thin_svd(x[:-1]),
        "stale": thin_svd(stale),
        "rank-short": SvdFactors(u=u[:, :-1], sigma=s[:-1], v=v[:, :-1]),
        "round-off-rank": SvdFactors(u=lu, sigma=np.abs(ls) + 1e-300, v=lvt.T),
        "nan-u": SvdFactors(u=nan_u, sigma=s, v=v),
        "nan-sigma": SvdFactors(u=u, sigma=np.full_like(s, np.nan), v=v),
        "scaled-sigma": SvdFactors(u=u, sigma=(1 + 1e-9) * s, v=v),
        "not-orthonormal": SvdFactors(u=1.5 * u, sigma=s / 1.5, v=v),
        "matrix-sigma": SvdFactors(u=u, sigma=np.diag(s), v=v),
        "empty": SvdFactors(u=u[:, :0], sigma=s[:0], v=v[:, :0]),
    }


def test_thin_svd_keeps_given_factors_that_pass_its_test():
    rng = make_rng(11)
    for x in (rng.standard_normal((40, 5)), rng.standard_normal((300, 150)),
              rng.standard_normal((5, 40)) * 1e-120):
        f = thin_svd(x)
        assert thin_svd(x, f) is f
        copy = SvdFactors(u=f.u.copy(), sigma=f.sigma.copy(), v=f.v.copy())
        assert thin_svd(x, copy) is copy


@pytest.mark.parametrize("name", list(_candidates(np.eye(6, 5))))
def test_thin_svd_refactors_when_given_factors_fail_its_test(name):
    rng = make_rng(12)
    x = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 5))
    candidate = _candidates(x)[name]
    got = thin_svd(x, candidate)
    assert got is not candidate
    want = thin_svd(x)
    for field in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), strict=True)


def test_dataset_hands_its_candidate_factors_to_thin_svd():
    ds = gaussian_dataset(30, 5, 4, seed=13)
    f = thin_svd(ds.stacked())
    kept = Dataset(ds.stacked().copy(), ds.n1, ds.y_labeled, factors=f)
    assert kept.svd is f
    stack = ds.stacked().copy()
    stack[: ds.n1] += 1.0
    stale = Dataset(stack, ds.n1, ds.y_labeled, factors=f)
    assert stale.svd is not f and stale._candidate is None
    np.testing.assert_array_equal(stale.svd.u, thin_svd(stale.stacked()).u, strict=True)


def test_svd_factors_validate_rejects_non_orthonormal():
    f = thin_svd(make_rng(3).standard_normal((5, 3)))
    bad = SvdFactors(u=f.u * 1.5, sigma=f.sigma, v=f.v)
    with pytest.raises(InvalidInputError):
        bad.validate()


def test_svd_factors_validate_checks_every_entry_of_the_input():
    x = make_rng(6).standard_normal((40_000, 10))
    f = thin_svd(x)
    bad = x.copy()
    bad[-1, -1] += 1e-6 * np.linalg.norm(x)
    with pytest.raises(InvalidInputError, match="reconstruct"):
        f.validate(bad)
    with pytest.raises(InvalidInputError):
        f.validate(x[:-1])


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e170])
def test_svd_factors_validate_rejects_wrong_factors_at_an_extreme_scale(scale):
    # Unscaled sums of squares overflow to inf or underflow to 0 here, and
    # either would let factors with twice the singular values pass.
    x = make_rng(7).standard_normal((30, 4)) * scale
    f = thin_svd(x)
    f.validate(x)
    bad = SvdFactors(u=f.u, sigma=2.0 * f.sigma, v=f.v)
    with pytest.raises(InvalidInputError, match="reconstruct"):
        bad.validate(x)


# ---------------------------------------------------------------- leverage

def test_leverage_identity_rows():
    f = thin_svd(np.eye(4))
    np.testing.assert_allclose(leverage_scores(f), np.ones(4))


def test_leverage_duplicated_row_pair_splits_mass():
    x = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
    scores = leverage_scores(thin_svd(x))
    np.testing.assert_allclose(scores[:2], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(scores[2:], [1.0, 1.0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(2, 5), st.integers(0, 10_000))
def test_leverage_scores_sum_to_rank_and_stay_in_unit_interval(n, d, seed):
    x = make_rng(seed).standard_normal((max(n, d), d))
    f = thin_svd(x)
    scores = leverage_scores(f)
    assert np.all(scores >= -1e-12)
    assert np.all(scores <= 1.0 + 1e-12)
    assert abs(scores.sum() - f.rank) <= 1e-10


# ---------------------------------------------------------------- Dataset

def test_dataset_owns_one_read_only_stack():
    ds = gaussian_dataset(9, 3, 4, seed=5)
    stack = ds.stacked()
    assert ds.stacked() is stack and not stack.flags.writeable
    assert np.shares_memory(ds.x_unlabeled, stack)
    assert np.shares_memory(ds.x_labeled, stack)
    assert ds.svd is ds.svd


def test_dataset_attributes_are_read_only():
    ds = gaussian_dataset(9, 3, 4, seed=5)
    svd = ds.svd
    for name, value in (("x_unlabeled", ds.x_labeled), ("n1", 3), ("svd", None)):
        with pytest.raises(AttributeError):
            setattr(ds, name, value)
        with pytest.raises(AttributeError):
            delattr(ds, name)
    assert ds.svd is svd and ds.n1 == 9


def test_dataset_and_its_svd_copy_the_blocks_once():
    x1 = make_rng(8).standard_normal((100_000, 10))
    x2 = make_rng(9).standard_normal((20, 10))
    ds = Dataset(np.vstack([x1, x2]), 100_000, np.zeros(20))  # the one copy of the blocks
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert ds.svd.rank == 10
        svd_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # LAPACK's u plus one row block of the reconstruction check, with no copy
    # of the stack.
    assert svd_peak < 2 * ds.stacked().nbytes
    # A rank-deficient stack of kernel shape (d = n/2) is factored on its
    # Gram range: the d x d Gram matrix, its eigenvectors and an n x k block,
    # but no n x d u.
    rng = make_rng(10)
    low = rng.standard_normal((1_200, 12)) @ rng.standard_normal((12, 600))
    kernel = Dataset(low, 1_000, np.zeros(200))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert kernel.svd.rank == 12
        kernel_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert kernel_peak < 1.25 * kernel.stacked().nbytes


def test_dataset_adopts_the_stack_it_is_handed():
    a = make_rng(11).standard_normal((12, 3))
    ds = Dataset(a, 9, np.zeros(3))
    assert ds.stacked() is a and not a.flags.writeable
    assert np.shares_memory(ds.x_unlabeled, a) and np.shares_memory(ds.x_labeled, a)
    assert (ds.n1, ds.n2, ds.d) == (9, 3, 3)
    b = make_rng(12).standard_normal((12, 3))
    # A view is refused even when C-contiguous: its base stays writable.
    views = (b[:12], b.reshape(-1).reshape(12, 3), np.empty((24, 3))[:12])
    for stack in (np.asfortranarray(b), b.astype(np.float32), b[:, :2], b[0], b.tolist(),
                  *views):
        with pytest.raises(InvalidInputError, match="C-contiguous"):
            Dataset(stack, 9, np.zeros(3))
    assert b.flags.writeable


def test_a_datasets_stack_is_checked_for_finite_entries_once(monkeypatch):
    from ssar import core
    from ssar.instances import gen_kernel_instance

    scanned = []
    check = core._require_finite
    monkeypatch.setattr(core, "_require_finite",
                        lambda arr, name: scanned.append(name) or check(arr, name))
    ds = gaussian_dataset(30, 5, 4, seed=3)
    assert scanned == ["x_unlabeled", "x_labeled"]
    assert ds.svd.rank == 4 and scanned == ["x_unlabeled", "x_labeled"]
    thin_svd(ds.stacked())  # the public function keeps its own scan
    assert scanned[2:] == ["x"]
    scanned.clear()
    kernel = gen_kernel_instance(60, 4, 1.0, make_rng(2))[0]
    assert kernel.svd.rank == 4 and scanned == ["x_unlabeled", "x_labeled"]


# ---------------------------------------------------------------- reduced_rank

def test_reduced_rank_no_labeled_block_is_rank():
    ds = Dataset(make_rng(0).standard_normal((9, 4)), 9, np.zeros(0))
    assert reduced_rank(ds) == pytest.approx(4.0, abs=1e-9)


def test_reduced_rank_identity_blocks():
    lam = 3.0
    d = 5
    ds = Dataset(np.vstack([np.eye(d), np.sqrt(lam) * np.eye(d)]), d, np.zeros(d))
    assert reduced_rank(ds) == pytest.approx(d / (1 + lam), abs=1e-10)


def test_reduced_rank_matches_independent_oracles():
    ds = gaussian_dataset(8, 5, 3, seed=11)
    # Oracle 1: unlabeled-row leverage mass from a separately computed SVD.
    u, _, _ = np.linalg.svd(ds.stacked(), full_matrices=False)
    oracle = float((u[: ds.n1] ** 2).sum())
    # Oracle 2: the explicit trace formula.
    via_inverse = reduced_rank_inverse(ds)
    assert reduced_rank(ds) == pytest.approx(oracle, abs=1e-8)
    assert reduced_rank(ds) == pytest.approx(via_inverse, abs=1e-8)


def test_reduced_rank_inverse_mode_raises_on_singular_gram():
    x1 = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    ds = Dataset(x1, 3, np.zeros(0))
    with pytest.raises(SingularMatrixError):
        reduced_rank_inverse(ds)
    # The svd route stays well defined.
    assert 0.0 < reduced_rank(ds) <= 2.0 + 1e-9


def test_reduced_rank_bounds():
    ds = gaussian_dataset(6, 9, 4, seed=2)
    r = reduced_rank(ds)
    assert 0.0 <= r <= min(ds.d, ds.n1)


# ------------------------------------------------- spectrum sums

def test_statistical_dimension_values():
    assert statistical_dimension([1.0, 1.0, 1.0], 0.0) == pytest.approx(3.0)
    assert statistical_dimension([1.0, 1.0], 1.0) == pytest.approx(1.0)
    assert statistical_dimension([2.0, 1.0], 3.0) == pytest.approx(4 / 7 + 1 / 4, abs=1e-12)
    with pytest.raises(InvalidInputError):
        statistical_dimension([1.0], -0.5)
    with pytest.raises(InvalidInputError):
        statistical_dimension([0.0, 1.0], 1.0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.05, 50.0), min_size=1, max_size=6),
    st.floats(0.0, 100.0),
    st.floats(0.1, 100.0),
)
def test_statistical_dimension_bounds_and_monotonicity(sigma, lam, bump):
    lo = statistical_dimension(sigma, lam + bump)
    hi = statistical_dimension(sigma, lam)
    assert 0.0 <= lo <= hi <= len(sigma) + 1e-12


def test_effective_dimension_values():
    assert effective_dimension([1.0, 1.0], 0.0) == pytest.approx(2.0)
    assert effective_dimension([4.0], 4.0) == pytest.approx(0.5)
    assert effective_dimension([3.0, 2.0, 1.0], 2.0) == pytest.approx(
        3 / 5 + 1 / 2 + 1 / 3, abs=1e-12
    )
    assert effective_dimension([2.0, 0.0, -1e-15], 1.0) == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(InvalidInputError):
        effective_dimension([1.0], -1.0)


# ------------------------------------------------------------- kernel root

def psd_sqrt(k):
    """The root ``K^{1/2}``: the labeled block of the kernel reduction at lam = 1."""
    return kernel_ridge_to_ssal(k, 1.0).x_labeled


def test_psd_sqrt_diagonal_cases():
    np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    # An exact zero mode is dropped; the kept modes come largest first.
    ds = kernel_ridge_to_ssal(np.diag([9.0, 0.0, 4.0]), 1.0)
    np.testing.assert_array_equal(ds.x_labeled, np.diag([3.0, 0.0, 2.0]))
    np.testing.assert_array_equal(ds.svd.sigma, [3.0 * np.sqrt(10.0), 2.0 * np.sqrt(5.0)])
    np.testing.assert_array_equal(np.abs(ds.svd.v), [[1, 0], [0, 0], [0, 1]])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_psd_sqrt_reconstructs_random_gram(n, seed):
    b = make_rng(seed).standard_normal((n + 1, n))
    k = b.T @ b
    z = psd_sqrt(k)
    np.testing.assert_allclose(z, z.T, atol=1e-12)
    assert np.linalg.norm(z @ z - k) <= 1e-7 * max(np.linalg.norm(k), 1e-12)
    # The factors hold the kernel's eigenpairs: at lam = 1, sigma^2 = e (e + 1).
    svd = kernel_ridge_to_ssal(k, 1.0).svd
    s2 = svd.sigma ** 2
    e = 2 * s2 / (1 + np.sqrt(1 + 4 * s2))
    assert np.all(np.diff(e) <= 0)
    assert np.linalg.norm((svd.v * e) @ svd.v.T - k) <= 1e-12 * np.linalg.norm(k)


def test_psd_sqrt_rejects_indefinite_and_asymmetric():
    with pytest.raises(NotPsdError):
        kernel_ridge_to_ssal(np.diag([1.0, -0.5]), 1.0)
    with pytest.raises(InvalidInputError, match="not symmetric"):
        kernel_ridge_to_ssal(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)
    with pytest.raises(InvalidInputError, match="square"):
        kernel_ridge_to_ssal(np.ones((2, 3)), 1.0)


def test_psd_sqrt_clamps_tiny_negative_modes():
    b = make_rng(5).standard_normal((2, 3))
    k = b.T @ b  # rank 2 of 3: one eigenvalue is round-off, ~1e-17 of either sign
    assert kernel_ridge_to_ssal(k, 1.0).svd.rank == 2
    z = psd_sqrt(k)
    assert np.linalg.norm(z @ z - k) <= 1e-7 * np.linalg.norm(k)
    # A negative mode within the PSD tolerance is dropped like a zero mode.
    ds = kernel_ridge_to_ssal(np.diag([2.0, -1e-10, 1.0]), 1.0)
    assert ds.svd.rank == 2
    np.testing.assert_array_equal(ds.x_labeled, np.diag([np.sqrt(2.0), 0.0, 1.0]))


# ---------------------------------------------------------------- Dataset

def test_dataset_validation_errors():
    b = make_rng(12).standard_normal((12, 3))
    for stack, n1, y in ((b, 0, np.zeros(12)), (b, 13, np.zeros(0)), (b, 9, np.zeros(2)),
                         (b[:2].copy(), 1, np.zeros(1))):  # the last has n < d
        with pytest.raises(InvalidInputError):
            Dataset(stack, n1, y)
    # n1 is an integer: a float, or the labeled block of a two-block call, is refused.
    for n1 in (9.0, np.zeros((3, 3))):
        with pytest.raises(InvalidInputError, match="n1 must be an integer"):
            Dataset(b, n1, np.zeros(3))
    assert Dataset(b.copy(), np.int64(9), np.zeros(3)).n1 == 9
    c = b.copy()
    c[2, 0] = np.inf
    with pytest.raises(InvalidInputError, match="x_unlabeled contains non-finite"):
        Dataset(c, 9, np.zeros(3))
    b[10, 1] = np.nan
    with pytest.raises(InvalidInputError, match="x_labeled contains non-finite"):
        Dataset(b, 9, np.zeros(3))


# ------------------------------------------- reduction consistency

def test_ridge_reduction_matches_statistical_dimension():
    x1 = make_rng(13).standard_normal((12, 4))
    sigma = np.linalg.svd(x1, compute_uv=False)
    for lam in (0.0, 0.5, 4.0):
        ds = ridge_to_ssal(x1, lam)
        assert reduced_rank(ds) == pytest.approx(
            statistical_dimension(sigma, lam), abs=1e-8
        )


def test_kernel_reduction_matches_effective_dimension():
    b = make_rng(17).standard_normal((6, 6))
    k = b.T @ b + 0.1 * np.eye(6)
    eigs = np.linalg.eigvalsh(k)
    for lam in (0.5, 2.0):
        ds = kernel_ridge_to_ssal(k, lam)
        assert reduced_rank(ds) == pytest.approx(
            effective_dimension(eigs, lam), abs=1e-12
        )
