import tracemalloc

import numpy as np
import pytest

from ssar.core import leverage_scores, reduced_rank, thin_svd
from ssar.errors import InvalidInputError
from ssar.instances import (
    LowerBoundSpec,
    gen_kernel_instance,
    gen_lower_bound_instance,
    gen_random_instance,
)
from ssar.regression import PSD_NEG_EIG_TOL, kernel_ridge_to_ssal
from ssar.rngutil import make_rng

from reference import (
    ResourceLimitError,
    _greedy_pack,
    _sign_hypercube,
    construct_packing,
    exact_solution,
    packing_threshold,
    statistical_dimension,
)


# ---------------------------------------------------------------- random

def test_gen_random_is_seed_deterministic():
    a_ds, a_labels = gen_random_instance(20, 5, 3, 1.0, seed=42)
    b_ds, b_labels = gen_random_instance(20, 5, 3, 1.0, seed=42)
    np.testing.assert_array_equal(a_ds.stacked(), b_ds.stacked())
    np.testing.assert_array_equal(a_labels, b_labels)


def test_gen_random_instance_keeps_its_drawn_design_as_the_stack():
    ds, labels = gen_random_instance(20, 5, 3, 1.0, seed=42)
    x = make_rng(42).standard_normal((25, 3)) / np.sqrt(3)
    np.testing.assert_array_equal(ds.stacked(), x, strict=True)
    assert ds.stacked().base is None  # the drawn array itself, not a copy of it
    np.testing.assert_array_equal(ds.y_labeled, labels[20:], strict=True)


# ---------------------------------------------------------------- kernel

def test_gen_kernel_instance_holds_one_stack():
    gen_kernel_instance(20, 2, 1.0, make_rng(1))  # numpy's first-use allocations
    # K is formed in the top half of the 2n x n stack and the root in its
    # bottom half, so the stack is the one n x n-sized array; the rest is
    # O(n rank) factors and row-block and tile temporaries, with V adopted
    # from the kept eigenvectors rather than copied once more.
    for rank, bound in ((8, 1.25), (40, 1.28)):
        tracemalloc.start()
        try:
            ds = gen_kernel_instance(400, rank, 1.0, make_rng(2))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * ds.stacked().nbytes
        k = ds.x_unlabeled
        np.testing.assert_array_equal(k, k.T, strict=True)


def test_kernel_reduction_of_a_matrix_holds_its_stack_and_one_q():
    kernel_ridge_to_ssal(np.eye(3), 1.0)  # numpy's first-use allocations
    q, _ = np.linalg.qr(make_rng(3).standard_normal((1_000, 40)))
    k = (q * np.geomspace(0.25, 4.0, 40)) @ q.T
    # The second kernel adds a negative mode at half the PSD tolerance, which
    # the reduction subtracts from the top half by row blocks.
    w = make_rng(4).standard_normal(1_000)
    w -= q @ (q.T @ w)
    w /= np.linalg.norm(w)
    for kernel in (k, k - 0.5 * PSD_NEG_EIG_TOL * 4.0 * np.outer(w, w)):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            ds = kernel_ridge_to_ssal(kernel, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # k is checked, made symmetric and eigendecomposed in the top half of
        # the 2n x n stack, so besides the stack only eigh's n x n Q is held,
        # with O(n rank) factors and tile temporaries.
        assert peak <= 1.6 * ds.stacked().nbytes
        assert ds.svd.rank == 40


def test_gen_random_noiseless_is_realizable():
    ds, labels = gen_random_instance(25, 5, 4, 0.0, seed=1)
    _, opt = exact_solution(ds, labels)
    assert opt <= 1e-16 * float(labels @ labels)


def test_gen_random_reduced_rank_in_open_interval():
    ds, _ = gen_random_instance(500, 100, 5, 1.0, seed=2)
    r = reduced_rank(ds)
    assert 0.0 < r < 5.0


# ------------------------------------------------------------ lower bound

def test_lower_bound_spec_validation():
    with pytest.raises(InvalidInputError):
        LowerBoundSpec(d=4, n_copies=10, epsilon=0.5, lam=2.0)
    with pytest.raises(InvalidInputError):
        LowerBoundSpec(d=4, n_copies=10, epsilon=0.01, lam=0.5)


def test_lower_bound_instance_structure():
    spec = LowerBoundSpec(d=4, n_copies=50, epsilon=0.01, lam=2.0)
    ds, full, beta_tilde = gen_lower_bound_instance(spec, 3)
    assert ds.x_unlabeled.shape == (200, 4)
    assert set(np.abs(beta_tilde)) == {3.0}
    # Unlabeled Gram matrix is exactly the identity.
    np.testing.assert_allclose(
        ds.x_unlabeled.T @ ds.x_unlabeled, np.eye(4), atol=1e-12
    )
    # Every unlabeled row has leverage exactly 1/n within its own block.
    lev = leverage_scores(thin_svd(ds.x_unlabeled))
    np.testing.assert_allclose(lev, np.full(200, 1 / 50), atol=1e-12)
    assert lev.sum() == pytest.approx(4.0, abs=1e-10)
    # The instance-level measure is d / (1 + lam), numerically exact.
    sigma = np.linalg.svd(ds.x_unlabeled, compute_uv=False)
    assert statistical_dimension(sigma, 2.0) == pytest.approx(4 / 3, rel=1e-12)
    assert full.shape == (204,)


def test_lower_bound_instance_is_seed_deterministic():
    spec = LowerBoundSpec(d=3, n_copies=20, epsilon=0.01, lam=1.0)
    a = gen_lower_bound_instance(spec, 9)
    b = gen_lower_bound_instance(spec, 9)
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


# ---------------------------------------------------------------- packing

def test_packing_d1_keeps_both_signs():
    packing = construct_packing(1, 0.01, 2.0)
    assert packing.size == 2
    assert packing.separation == pytest.approx(packing_threshold(1, 0.01, 2.0))


def test_packing_threshold_below_minimum_distance_keeps_whole_cube():
    packing = construct_packing(6, 0.01, 1.0)
    assert packing.size == 2**6
    # Trivially maximal: every sign vector is a member.
    assert packing.members.shape == (64, 6)


def test_packing_parameter_validation():
    with pytest.raises(ResourceLimitError):
        construct_packing(21, 0.01, 1.0)
    with pytest.raises(InvalidInputError):
        construct_packing(5, 0.2, 1.0)
    with pytest.raises(InvalidInputError):
        construct_packing(5, 0.01, 0.1)


def test_greedy_pack_general_path_is_separated_and_maximal():
    d, threshold = 5, 8.0  # merges Hamming distance <= 2
    cube = _sign_hypercube(d)
    members = _greedy_pack(cube, threshold)
    m16 = members.astype(np.int16)
    dots = m16 @ m16.T
    np.fill_diagonal(dots, -d)
    # Pairwise squared distance 2(d - dot) must exceed the threshold.
    assert 2.0 * (d - dots.max()) > threshold
    # Maximality: every hypercube vector is within the threshold of a member.
    cross = cube.astype(np.int16) @ m16.T
    nearest_sq = 2.0 * (d - cross.max(axis=1))
    assert np.all(nearest_sq <= threshold)


def test_sign_hypercube_is_lexicographic():
    cube = _sign_hypercube(2)
    np.testing.assert_array_equal(
        cube, np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
    )
