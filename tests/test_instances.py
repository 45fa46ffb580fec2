import numpy as np
import pytest

from ssar.core import leverage_scores, reduced_rank, statistical_dimension, thin_svd
from ssar.errors import InvalidInputError
from ssar.instances import LowerBoundSpec, gen_lower_bound_instance, gen_random_instance

from reference import (
    ResourceLimitError,
    _greedy_pack,
    _sign_hypercube,
    construct_packing,
    exact_solution,
    packing_threshold,
)


# ---------------------------------------------------------------- random

def test_gen_random_is_seed_deterministic():
    a_ds, a_labels = gen_random_instance(20, 5, 3, 1.0, seed=42)
    b_ds, b_labels = gen_random_instance(20, 5, 3, 1.0, seed=42)
    np.testing.assert_array_equal(a_ds.stacked(), b_ds.stacked())
    np.testing.assert_array_equal(a_labels, b_labels)


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
