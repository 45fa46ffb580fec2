import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssar import core, regression
from ssar.asura import AsuraConfig
from ssar.baselines import LeverageConfig, UniformConfig
from ssar.core import DEFAULT_RANK_TOL, Dataset, reduced_rank
from ssar.errors import InvalidInputError, NotPsdError
from ssar.instances import gen_kernel_instance, gen_random_instance
from ssar.regression import (
    PSD_ASYM_TOL,
    PSD_NEG_EIG_TOL,
    PSD_ZERO_TOL,
    RATIO_SLACK,
    LabelOracle,
    kernel_ridge_to_ssal,
    ridge_to_ssal,
    weighted_lsq,
)
from ssar.rngutil import make_rng

from reference import effective_dimension, exact_solution, kernel_eigh, solve_active


# ------------------------------------------------------------ weighted_lsq

def test_weighted_lsq_identity_design():
    beta = weighted_lsq(np.eye(2), [1.0, 1.0], [3.0, 5.0])
    np.testing.assert_allclose(beta, [3.0, 5.0], atol=1e-12)


def test_weighted_lsq_weight_additivity_on_duplicate_rows():
    rng = make_rng(4)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    dup = np.vstack([x, x[2]])
    y_dup = np.append(y, y[2])
    w_dup = np.ones(7)
    w_dup[2], w_dup[6] = 0.7, 0.3
    merged = weighted_lsq(x, np.ones(6), y)
    split = weighted_lsq(dup, w_dup, y_dup)
    np.testing.assert_allclose(split, merged, atol=1e-10)


def test_weighted_lsq_matches_normal_equations_oracle():
    rng = make_rng(12)
    x = rng.standard_normal((20, 4))
    w = rng.random(20) + 0.5
    y = rng.standard_normal(20)
    oracle = np.linalg.pinv(x.T @ (w[:, None] * x)) @ (x.T @ (w * y))
    np.testing.assert_allclose(weighted_lsq(x, w, y), oracle, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 1000))
def test_weighted_lsq_invariant_to_weight_rescaling(scale, seed):
    rng = make_rng(seed)
    x = rng.standard_normal((8, 3))
    w = rng.random(8) + 0.1
    y = rng.standard_normal(8)
    b1 = weighted_lsq(x, w, y)
    b2 = weighted_lsq(x, w * scale, y)
    np.testing.assert_allclose(b1, b2, atol=1e-9)


def test_weighted_lsq_rank_deficient_returns_min_norm():
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    beta = weighted_lsq(x, [1.0, 1.0], [2.0, 4.0])
    np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-10)


def test_weighted_lsq_validation():
    with pytest.raises(InvalidInputError):
        weighted_lsq(np.eye(2), [1.0], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        weighted_lsq(np.eye(2), [1.0, 0.0], [1.0, 2.0])


# ---------------------------------------------------------- exact_solution

def test_exact_solution_realizable_case():
    ds, labels = gen_random_instance(30, 5, 4, noise_sigma=0.0, seed=3)
    beta, opt = exact_solution(ds, labels)
    assert opt <= 1e-16 * float(labels @ labels)


def test_exact_solution_single_row_interpolates():
    ds = Dataset(np.array([[2.0, 1.0], [0.0, 0.0]]), 1, np.zeros(1))
    beta, opt = exact_solution(ds, [4.0, 0.0])
    assert opt == pytest.approx(0.0, abs=1e-20)


# ---------------------------------------------------------------- oracle

def test_oracle_bills_distinct_unlabeled_rows_once():
    oracle = LabelOracle(np.arange(6.0), n_unlabeled=4)
    for i in (0, 1, 0, 0, 1):
        oracle.label(i)
    assert oracle.query_count == 2
    oracle.label(5)  # labeled block is free
    assert oracle.query_count == 2
    with pytest.raises(InvalidInputError):
        oracle.label(6)


def test_oracle_full_labels_gate():
    oracle = LabelOracle([1.0, 2.0], 1, allow_full_loss=False)
    with pytest.raises(InvalidInputError):
        oracle.full_labels()


# ------------------------------------------------------------- reductions

def test_ridge_reduction_zero_lambda():
    x1 = make_rng(8).standard_normal((7, 3))
    ds = ridge_to_ssal(x1, 0.0)
    np.testing.assert_array_equal(ds.x_labeled, np.zeros((3, 3)))
    assert reduced_rank(ds) == pytest.approx(3.0, abs=1e-9)


def test_ridge_reduction_identity_example():
    ds = ridge_to_ssal(np.eye(3), 1.0)
    beta = np.ones(3)
    full_y = np.zeros(6)
    resid = ds.stacked() @ beta - full_y
    assert float(resid @ resid) == pytest.approx(6.0)


def test_ridge_reduction_loss_identity_random():
    rng = make_rng(15)
    for _ in range(25):
        x1 = rng.standard_normal((9, 4))
        y1 = rng.standard_normal(9)
        beta = rng.standard_normal(4)
        lam = float(rng.random() * 5)
        ds = ridge_to_ssal(x1, lam)
        stacked_resid = ds.stacked() @ beta - np.concatenate([y1, np.zeros(4)])
        stacked_loss = float(stacked_resid @ stacked_resid)
        ridge_loss = float(((x1 @ beta - y1) ** 2).sum() + lam * beta @ beta)
        assert stacked_loss == pytest.approx(ridge_loss, rel=1e-10)


def test_kernel_reduction_identity_kernel_example():
    ds = kernel_ridge_to_ssal(np.eye(4), 2.0)
    beta = np.zeros(4)
    beta[0] = 1.0
    resid = ds.stacked() @ beta - np.zeros(8)
    assert float(resid @ resid) == pytest.approx(3.0)


def test_kernel_reduction_loss_identity_random():
    rng = make_rng(16)
    for _ in range(25):
        b = rng.standard_normal((5, 5))
        k = b.T @ b
        y1 = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        lam = float(rng.random() * 3)
        ds = kernel_ridge_to_ssal(k, lam)
        stacked_resid = ds.stacked() @ beta - np.concatenate([y1, np.zeros(5)])
        stacked_loss = float(stacked_resid @ stacked_resid)
        kernel_loss = float(((k @ beta - y1) ** 2).sum() + lam * beta @ k @ beta)
        assert stacked_loss == pytest.approx(kernel_loss, rel=1e-8, abs=1e-8)


def _count_eigh(monkeypatch):
    """Spy on ``np.linalg.eigh``: returns a list that gets each call's input shape."""
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _drawn_kernel(n, rank, seed):
    """A kernel drawn as ``gen_kernel_instance`` draws it, with its eigenpairs."""
    eigs = np.geomspace(0.25, 4.0, rank)
    q, _ = np.linalg.qr(make_rng(seed).standard_normal((n, rank)))
    k = (q * eigs) @ q.T
    k += k.T
    k *= 0.5
    return k, eigs, q


def _replaced_column(eigs, q):
    q = q.copy()
    v = make_rng(1).standard_normal(q.shape[0])
    q[:, 2] = v / np.linalg.norm(v)
    return eigs, q


def _with_entry(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


@pytest.mark.parametrize("kernel", [
    lambda k, eigs, q: (k, (eigs, q)),
    lambda k, eigs, q: (None, (eigs, q * 1.001)),
    lambda k, eigs, q: (None, _replaced_column(eigs, q)),
    lambda k, eigs, q: (None, (_with_entry(eigs, 0, -1e-3), q)),
    lambda k, eigs, q: (None, (eigs[::-1], q)),
    lambda k, eigs, q: (None, (_with_entry(eigs, 2, np.nan), q)),
    lambda k, eigs, q: (None, (_with_entry(eigs, 5, np.inf), q)),
    lambda k, eigs, q: (None, (eigs, _with_entry(q, (7, 1), np.nan))),
    lambda k, eigs, q: (None, (eigs, q[:, :5])),
], ids=["k-and-pairs", "not-orthonormal", "replaced-column", "negative-eig",
        "descending-eigs", "nan-in-eigs", "inf-in-eigs", "nan-in-q", "shape-mismatch"])
def test_kernel_pairs_that_fail_their_checks_raise_without_psd_eigh(monkeypatch, kernel):
    k, eigs, q = _drawn_kernel(60, 6, 4)
    calls = _count_eigh(monkeypatch)
    k_arg, pairs = kernel(k, eigs, q)
    with pytest.raises(InvalidInputError):
        kernel_ridge_to_ssal(k_arg, 1.5, eigenpairs=pairs)
    assert calls == []


# At eig-max 1 the clamp keeps the modes above 1e-12.  Rank 4 keeps 2.2e-7
# and 1: eigh resolves an eigenvector only to about eps ||K|| / gap, so a
# kept mode near the clamp (rank 8 keeps one at 3.7e-12) differs between the
# routes by far more than these tolerances, on the side that eigendecomposes K.
@pytest.mark.parametrize("rank, eig_min, eig_max, kept", [(8, 0.25, 4.0, 8), (4, 1e-20, 1.0, 2)])
def test_kernel_routes_agree(monkeypatch, rank, eig_min, eig_max, kept):
    calls = _count_eigh(monkeypatch)
    ds = gen_kernel_instance(300, rank, 1.0, make_rng(3), eig_min=eig_min, eig_max=eig_max)[0]
    assert calls == []  # the generator's eigenpairs are not eigendecomposed again
    ref = kernel_ridge_to_ssal(ds.x_unlabeled, 1.0)
    assert calls == [(300, 300)]
    a, b = ds.svd, ref.svd
    assert a.rank == b.rank == kept
    assert np.linalg.norm(ds.x_labeled - ref.x_labeled) <= 1e-12 * np.linalg.norm(ref.x_labeled)
    np.testing.assert_allclose(a.sigma, b.sigma, rtol=0, atol=1e-13)
    signs = np.sign(np.sum(a.v * b.v, axis=0))
    np.testing.assert_allclose(a.u * signs, b.u, rtol=0, atol=1e-10)
    np.testing.assert_allclose(a.v * signs, b.v, rtol=0, atol=1e-10)


def test_kernel_reduction_copies_a_callers_kernel_once_and_never_writes_it():
    k = _drawn_kernel(60, 6, 4)[0]
    before = k.copy()
    ds = kernel_ridge_to_ssal(k, 1.5)
    np.testing.assert_array_equal(k, before, strict=True)
    assert k.flags.writeable
    np.testing.assert_array_equal(ds.x_unlabeled, before, strict=True)
    for arr in (ds.stacked(), ds.y_labeled, ds.svd.u, ds.svd.sigma, ds.svd.v):
        assert not np.shares_memory(arr, k)
    # A read-only view of another instance's stack is copied too, and that
    # instance is left as it was.
    stack = ds.stacked().copy()
    again = kernel_ridge_to_ssal(ds.x_unlabeled, 1.5)
    np.testing.assert_array_equal(ds.stacked(), stack, strict=True)
    np.testing.assert_array_equal(again.x_unlabeled, ds.x_unlabeled, strict=True)
    assert not np.shares_memory(again.stacked(), ds.stacked())


def test_kernel_reduction_from_eigenpairs_alone_forms_the_kernel_in_its_stack(monkeypatch):
    k, eigs, q = _drawn_kernel(60, 6, 4)
    calls = _count_eigh(monkeypatch)
    ds = kernel_ridge_to_ssal(None, 1.5, eigenpairs=(eigs, q))
    assert calls == []
    np.testing.assert_array_equal(ds.x_unlabeled, k, strict=True)
    ref = kernel_ridge_to_ssal(k, 1.5)
    assert np.linalg.norm(ds.x_labeled - ref.x_labeled) <= 1e-12 * np.linalg.norm(ref.x_labeled)
    # Pairs that fail their checks give no kernel.
    for pairs in (_replaced_column(eigs, q), None, (eigs, q[:, :5]), (eigs[:, None], q),
                  (eigs, q[0]), (np.zeros(0), np.zeros((60, 0)))):
        with pytest.raises(InvalidInputError):
            kernel_ridge_to_ssal(None, 1.5, eigenpairs=pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8),
       st.lists(st.sampled_from([0.5, 0.99, 1.01, 2.0, 30.0]), max_size=3),
       st.sampled_from([0.0, 1e-3, 1.0, 10.0]), st.integers(0, 10_000))
def test_kernel_reduction_from_eigenpairs_keeps_the_kernel_ridge_loss_and_its_dimension(
        n, bulk, near_clamp, lam, seed):
    # Bulk modes spread over [1e-6, 1] times the top, and modes within a
    # small factor of the zero-mode clamp on either side of it.
    rng = make_rng(seed)
    top = 10.0 ** rng.uniform(-2, 2)
    bulk = min(bulk, n)
    e = top * np.concatenate([[1.0], 10.0 ** rng.uniform(-6, 0, bulk - 1),
                              PSD_ZERO_TOL * np.array(near_clamp[: n - bulk])])
    e = np.sort(e)
    q, _ = np.linalg.qr(rng.standard_normal((n, e.size)))
    with mock.patch.object(core, "_range_factors", wraps=core._range_factors) as refactored:
        ds = kernel_ridge_to_ssal(None, lam, eigenpairs=(e, q))
        svd = ds.svd
    k = ds.x_unlabeled
    b, y1 = rng.standard_normal(n), rng.standard_normal(n)
    resid = ds.stacked() @ b - np.concatenate([y1, np.zeros(n)])
    kernel_loss = float(((k @ b - y1) ** 2).sum() + lam * b @ k @ b)
    assert float(resid @ resid) == pytest.approx(kernel_loss, rel=1e-8)
    kept = e[e > PSD_ZERO_TOL * e[-1]]
    sigma = np.sqrt(kept) * np.sqrt(kept + lam)
    # The modes whose sigma the rank truncation keeps: at lam = 0 the modes
    # near the clamp fall below it.
    resolved = kept[sigma > DEFAULT_RANK_TOL * sigma.max()]
    assert reduced_rank(ds) == pytest.approx(effective_dimension(resolved, lam), rel=1e-9)
    if resolved.size == kept.size:
        assert refactored.call_count == 0
        assert svd.rank == kept.size
        np.testing.assert_array_equal(svd.sigma, sigma[::-1], strict=True)


def test_kernel_reduction_zero_lambda_and_psd_gate():
    ds = kernel_ridge_to_ssal(np.eye(3), 0.0)
    np.testing.assert_array_equal(ds.x_labeled, np.zeros((3, 3)))
    with pytest.raises(NotPsdError):
        kernel_ridge_to_ssal(np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(InvalidInputError, match="rank zero"):
        kernel_ridge_to_ssal(np.zeros((3, 3)), 1.0).svd


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from([-500, -60, 0, 60, 500]), st.sampled_from([0.0, 1.0]),
       st.integers(0, 10_000))
def test_kernel_matrix_bounds_hold_at_every_scale(n, power, lam, seed):
    # A kernel given as a matrix, scaled by 2**power, near the reduction's
    # negative-mode and asymmetry bounds: half of either bound is accepted,
    # twice it is refused.
    rng = make_rng(seed)
    pos = 2.0 ** power * np.sort(rng.uniform(0.1, 1.0, n - 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    for factor in (0.5, 2.0):
        e = np.concatenate([[-factor * PSD_NEG_EIG_TOL * pos[-1]], pos])
        k = (q * e) @ q.T
        if factor > 1:
            with pytest.raises(NotPsdError):
                kernel_ridge_to_ssal(k, lam)
            continue
        # The tolerated negative mode leaves K as it leaves the root: the
        # closed-form factors hold, and the unlabeled block gains no direction.
        with mock.patch.object(core, "_range_factors", wraps=core._range_factors) as refactored:
            ds = kernel_ridge_to_ssal(k, lam)
            assert ds.svd.rank == n - 1
        assert refactored.call_count == 0
        assert reduced_rank(ds) == pytest.approx(effective_dimension(pos, lam), rel=0, abs=1e-9)
    k = (q[:, 1:] * pos) @ q[:, 1:].T
    for factor in (0.5, 2.0):
        skewed = k.copy()
        skewed[0, 1] += factor * PSD_ASYM_TOL * np.abs(k).max()
        if factor > 1:
            with pytest.raises(InvalidInputError, match="not symmetric"):
                kernel_ridge_to_ssal(skewed, lam)
        else:
            # Half the skew splits the zero mode by about that much, either way.
            assert kernel_ridge_to_ssal(skewed, lam).svd.rank in (n - 1, n)


def _separately_eigendecomposed(k, lam):
    """The kernel reduction's stack and factors with ``k`` eigendecomposed on
    its own (``kernel_eigh``), mode for mode as the reduction forms them."""
    e, q = kernel_eigh(k)
    keep = np.flatnonzero(e > PSD_ZERO_TOL * e[-1])[::-1]
    e, q = e[keep], q[:, keep]
    root = (q * np.sqrt(e)) @ q.T
    root = (root + root.T) * 0.5
    root *= np.sqrt(lam)
    shift = np.sqrt(e + lam)
    u = np.concatenate([q * (np.sqrt(e) / shift), q * (np.sqrt(lam) / shift)])
    return np.concatenate([k, root]), u, np.sqrt(e) * shift, q


@pytest.mark.parametrize("n, rank, eig_min, eig_max", [(150, 4, 0.25, 4.0), (300, 4, 1e-20, 1.0),
                                                       (200, 40, 0.25, 4.0)])
def test_kernel_reduction_keeps_the_bits_of_a_separate_eigendecomposition(n, rank, eig_min,
                                                                          eig_max):
    rng = make_rng(n + rank)
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    x = q * np.sqrt(np.geomspace(eig_min, eig_max, rank))
    k = x @ x.T
    np.testing.assert_array_equal(k, k.T, strict=True)
    # A symmetric kernel keeps every bit of its stack and factors.  A kernel
    # with round-off asymmetry gets (k + k^T) * 0.5 in its top half, the
    # matrix that both routes eigendecompose.
    asym = k + 1e-14 * rng.standard_normal((n, n))
    for kernel, top in ((k, k), (asym, (asym + asym.T) * 0.5)):
        stack, u, sigma, v = _separately_eigendecomposed(kernel, 1.5)
        ds = kernel_ridge_to_ssal(kernel, 1.5)
        np.testing.assert_array_equal(ds.x_unlabeled, top, strict=True)
        np.testing.assert_array_equal(ds.x_labeled, stack[n:], strict=True)
        for name, ref in (("u", u), ("sigma", sigma), ("v", v)):
            np.testing.assert_array_equal(getattr(ds.svd, name), ref, strict=True)


@pytest.mark.parametrize("call", [
    lambda bad: kernel_ridge_to_ssal(bad, 1.0),
    lambda bad: ridge_to_ssal(bad, 1.0),
    lambda bad: Dataset(bad, 1, np.zeros(1)),
    lambda bad: Dataset(np.eye(2), bad, np.zeros(1)),
    lambda bad: Dataset(np.eye(2), 1, bad),
    lambda bad: weighted_lsq(bad, [1.0, 1.0], [1.0, 2.0]),
    lambda bad: weighted_lsq(np.eye(2), bad, [1.0, 2.0]),
    lambda bad: weighted_lsq(np.eye(2), [1.0, 1.0], bad),
    lambda bad: LabelOracle(bad, 1),
    lambda bad: kernel_ridge_to_ssal(None, 1.0, eigenpairs=(bad, np.eye(2))),
    lambda bad: kernel_ridge_to_ssal(None, 1.0, eigenpairs=(np.ones(2), bad)),
], ids=["kernel", "ridge", "stack", "n1", "y_labeled", "points", "weights",
        "labels", "oracle", "eigenpairs-e", "eigenpairs-q"])
@pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]], {"x": 1}],
                         ids=["ragged", "strings", "dict"])
def test_malformed_array_input_is_invalid_input(call, bad):
    with pytest.raises(InvalidInputError):
        call(bad)


@pytest.mark.parametrize("pairs", [(np.ones(2), np.eye(2), np.eye(2)), (np.ones(2),), 1.5],
                         ids=["3-tuple", "1-tuple", "float"])
def test_eigenpairs_that_are_not_a_pair_are_invalid_input(pairs):
    with pytest.raises(InvalidInputError, match="pair"):
        kernel_ridge_to_ssal(None, 1.0, eigenpairs=pairs)


# ------------------------------------------------------------ solve_active

def test_solve_active_zero_queries_when_unlabeled_rows_carry_no_mass():
    ds = Dataset(np.vstack([np.zeros((4, 3)), np.eye(3)]), 4, np.array([1.0, 2.0, 3.0]))
    oracle = LabelOracle(np.concatenate([np.zeros(4), ds.y_labeled]), 4)
    sol = solve_active(ds, oracle, AsuraConfig(epsilon=0.25), 2)
    assert sol.queries == 0
    assert sol.queries_iteration_level == 0


def test_solve_active_is_deterministic_and_caches_queries():
    ds, labels = gen_random_instance(40, 10, 4, noise_sigma=0.5, seed=6)
    cfg = AsuraConfig(epsilon=0.25)
    sols = []
    for _ in range(2):
        oracle = LabelOracle(labels, ds.n1)
        sols.append(solve_active(ds, oracle, cfg, 10))
    a, b = sols
    np.testing.assert_array_equal(a.sample.indices, b.sample.indices)
    np.testing.assert_allclose(a.beta_hat, b.beta_hat)
    assert a.queries == b.queries
    # Billed queries count distinct unlabeled rows, never more than iterations.
    assert a.queries == len({int(i) for i in a.sample.indices if i < ds.n1})
    assert a.queries <= a.queries_iteration_level


def test_solve_active_ratio_floor_and_samplers():
    ds, labels = gen_random_instance(60, 12, 4, noise_sigma=1.0, seed=7)
    for cfg, seed in [
        (AsuraConfig(epsilon=0.25), 3),
        (LeverageConfig(epsilon=0.25), 0),
        (UniformConfig(m=50), 3),
    ]:
        oracle = LabelOracle(labels, ds.n1)
        sol = solve_active(ds, oracle, cfg, seed)
        assert sol.ratio is not None and sol.ratio >= 1.0 - 1e-9


def test_solve_active_square_instance_scores_round_off_opt_as_zero():
    # With n = d the fit is exact and OPT is round-off, so loss / OPT would be
    # noise; the ratio reads 1 instead of tripping the ratio floor.
    ds = Dataset(np.array([
        [-0.10298701, -0.06442248, -0.14489494, -0.63597164],
        [-0.70321745, 0.02170384, -0.27458445, 0.30600437],
        [0.29653985, 0.47913959, 0.15971969, 0.36222023],
        [0.84039213, 0.76335625, -0.09808467, -0.46912912],
    ]), 1, np.array([-1.94983822, 0.59961341, -1.90236229]))
    for seed in range(10):
        oracle = LabelOracle(np.concatenate([[0.7], ds.y_labeled]), ds.n1)
        sol = solve_active(ds, oracle, AsuraConfig(epsilon=0.1), seed)
        assert sol.ratio == 1.0


def _duplicated_column_instance():
    ds, labels = gen_random_instance(30, 6, 3, noise_sigma=1.0, seed=11)
    x = np.ascontiguousarray(ds.stacked()[:, [0, 1, 2, 2]])  # the fancy index is F-order
    return Dataset(x, 30, ds.y_labeled), labels


@pytest.mark.parametrize("make", [
    lambda: gen_random_instance(40, 10, 4, noise_sigma=1.0, seed=12),
    _duplicated_column_instance,
    lambda: gen_random_instance(3, 2, 5, noise_sigma=1.0, seed=13),
], ids=["full-rank", "rank-deficient", "square"])
def test_solve_active_opt_matches_lstsq_reference(make):
    # OPT comes from the instance's factors; exact_solution is the lstsq
    # reference.  On the square stack both are round-off, under the floor at
    # which solve_active scores OPT as 0.
    ds, labels = make()
    _, reference = exact_solution(ds, labels)
    floor = 1e-12 * max(float(labels @ labels), 1.0)
    for cfg in (AsuraConfig(epsilon=0.25), UniformConfig(m=20)):
        sol = solve_active(ds, LabelOracle(labels, ds.n1), cfg, 1)
        assert sol.opt == pytest.approx(reference, rel=RATIO_SLACK, abs=floor)
    assert ds.svd.rank == np.linalg.matrix_rank(ds.stacked())


def test_solve_active_deploy_mode_omits_ratio():
    ds, labels = gen_random_instance(30, 6, 3, noise_sigma=1.0, seed=8)
    oracle = LabelOracle(labels, ds.n1, allow_full_loss=False)
    sol = solve_active(ds, oracle, AsuraConfig(epsilon=0.25), 4)
    assert sol.ratio is None and sol.loss is None and sol.opt is None
    assert sol.queries > 0


def test_solve_active_rejects_mismatched_oracle():
    ds, labels = gen_random_instance(30, 6, 3, noise_sigma=1.0, seed=9)
    with pytest.raises(InvalidInputError):
        solve_active(ds, LabelOracle(labels, ds.n1 - 1), AsuraConfig(epsilon=0.25))


def test_solve_active_rejects_a_non_config():
    # The config's type chooses the sampler; a bare accuracy chooses none.
    ds, labels = gen_random_instance(30, 6, 3, noise_sigma=1.0, seed=9)
    with pytest.raises(InvalidInputError, match="float"):
        solve_active(ds, LabelOracle(labels, ds.n1), 0.25)


def _kernel_instance():
    ds, labels = gen_kernel_instance(200, 10, 0.5, make_rng(14))
    return ds, labels


@pytest.mark.parametrize("make, cfg", [
    (lambda: gen_random_instance(60, 20, 8, noise_sigma=1.0, seed=15),
     AsuraConfig(epsilon=0.25)),
    (_kernel_instance, AsuraConfig(epsilon=0.25)),
    (_kernel_instance, UniformConfig(m=6)),
], ids=["full-rank", "kernel-rank-deficient", "uniform-below-rank"])
def test_solve_active_solves_in_rank_coordinates(monkeypatch, make, cfg):
    # beta = V t for the t that weighted_lsq finds on the m x r rows U_S Sigma;
    # it is the minimum-norm solution in the ambient columns, also where the
    # m sampled rows span less than the rank.
    ds, labels = make()
    shapes = []

    def spy(points, weights, y):
        shapes.append(np.shape(points))
        return weighted_lsq(points, weights, y)

    monkeypatch.setattr(regression, "weighted_lsq", spy)
    sol = solve_active(ds, LabelOracle(labels, ds.n1), cfg, 2)
    idx = sol.sample.indices
    assert shapes == [(sol.sample.m, ds.svd.rank)]
    reference = weighted_lsq(ds.stacked()[idx], sol.sample.weights, labels[idx])
    assert np.linalg.norm(sol.beta_hat - reference) <= 1e-12 * np.linalg.norm(reference)


SCALE_CONFIGS = (
    (AsuraConfig(epsilon=0.25), 1),
    (LeverageConfig(epsilon=0.25), 0),
    (UniformConfig(m=6), 1),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(-520, 520))
@example(-520).via("labels times 2**-520 read as a perfect ratio")
@example(-24).via("labels near 1e-7 sat under an absolute OPT floor")
@example(520).via("labels times 2**520 overflowed loss and OPT")
def test_solve_active_ratio_is_free_of_the_label_scale(power):
    # Labels times a power of two are exact in floating point, so the picks
    # and the ratio must be those at unit scale, with no overflow warning.
    ds, labels = gen_random_instance(40, 20, 5, noise_sigma=1.0, seed=2)
    scale = 2.0 ** power
    scaled = Dataset(ds.stacked().copy(), ds.n1, ds.y_labeled * scale)
    for cfg, seed in SCALE_CONFIGS:
        unit = solve_active(ds, LabelOracle(labels, ds.n1), cfg, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_active(scaled, LabelOracle(labels * scale, ds.n1), cfg, seed)
        np.testing.assert_array_equal(sol.sample.indices, unit.sample.indices)
        assert sol.ratio == pytest.approx(unit.ratio, rel=1e-6)
