import numpy as np
import pytest
import scipy.stats

from ssar.baselines import LeverageConfig, UniformConfig, leverage_sample, uniform_sample
from ssar.core import leverage_scores, reduced_rank, thin_svd
from ssar.errors import InvalidInputError
from ssar.regression import LabelOracle
from ssar.rngutil import derive_seed, make_rng

from conftest import gaussian_dataset
from reference import solve_active


def test_leverage_config_target():
    cfg = LeverageConfig(epsilon=0.5, oversample_c=1.0)
    assert cfg.target_m(4) == int(np.ceil(4 * np.log(4) / 0.5))
    # The log factor is floored at 1, so rank 1 still gets a positive target.
    assert cfg.target_m(1) == 2
    assert cfg.target_m(2) == 4
    with pytest.raises(InvalidInputError):
        LeverageConfig(epsilon=1.5)


def test_leverage_solve_on_rank_one_instance():
    ds = gaussian_dataset(40, 10, 1, seed=8)
    y1 = make_rng(9).standard_normal(ds.n1)
    oracle = LabelOracle(np.concatenate([y1, ds.y_labeled]), ds.n1)
    cfg = LeverageConfig(epsilon=0.25)
    sol = solve_active(ds, oracle, cfg, 3)
    assert sol.iterations >= 1
    assert 1 <= sol.queries <= ds.n1
    assert sol.ratio >= 1.0 - 1e-9


def test_identity_design_rows_always_included_with_unit_weight():
    svd = thin_svd(np.eye(4))
    cfg = LeverageConfig(epsilon=0.5, oversample_c=1.0)
    sample = leverage_sample(svd, cfg, 3)
    np.testing.assert_array_equal(sample.indices, np.arange(4))
    np.testing.assert_allclose(sample.weights, np.ones(4))


def test_clamped_rows_always_included():
    # A dominant row has leverage ~1, so its inclusion probability clamps at 1.
    x = np.vstack([np.eye(3) * 0.01, [[5.0, 0.0, 0.0]]])
    svd = thin_svd(x)
    cfg = LeverageConfig(epsilon=0.5, oversample_c=2.0)
    for seed in range(20):
        sample = leverage_sample(svd, cfg, seed)
        assert 3 in sample.indices
        assert sample.weights[list(sample.indices).index(3)] == pytest.approx(1.0)


def test_expected_unlabeled_intersection_matches_leverage_mass():
    ds = gaussian_dataset(120, 40, 5, seed=9)
    svd = thin_svd(ds.stacked())
    cfg = LeverageConfig(epsilon=0.5, oversample_c=1.0)
    m = cfg.target_m(svd.rank)
    probs = np.minimum(1.0, (m / svd.rank) * leverage_scores(svd))
    assert probs.max() < 1.0, "test instance must not clamp"
    runs = 2000
    counts = np.array([
        int((leverage_sample(svd, cfg, derive_seed(7, k)).indices < ds.n1).sum())
        for k in range(runs)
    ])
    expected = (m / svd.rank) * reduced_rank(ds)
    se = counts.std(ddof=1) / np.sqrt(runs)
    assert abs(counts.mean() - expected) <= 3 * se


def test_per_row_inclusion_frequencies_binomial():
    ds = gaussian_dataset(20, 10, 4, seed=1)
    svd = thin_svd(ds.stacked())
    cfg = LeverageConfig(epsilon=0.5, oversample_c=1.0)
    m = cfg.target_m(svd.rank)
    probs = np.minimum(1.0, (m / svd.rank) * leverage_scores(svd))
    runs = 2000
    hits = np.zeros(svd.n)
    for k in range(runs):
        sample = leverage_sample(svd, cfg, derive_seed(11, k))
        hits[sample.indices] += 1
    # Family-wise binomial test at overall significance 0.001 (Bonferroni).
    z_crit = scipy.stats.norm.ppf(1 - 0.0005 / svd.n)
    se = np.sqrt(probs * (1 - probs) / runs)
    z = np.abs(hits / runs - probs) / np.maximum(se, 1e-12)
    assert z.max() <= z_crit


def test_uniform_sample_tiny_case():
    sample = uniform_sample(1, UniformConfig(m=3), 5)
    np.testing.assert_array_equal(sample.indices, [0, 0, 0])
    np.testing.assert_allclose(sample.weights, np.full(3, 1 / 3))


def test_uniform_sample_is_unbiased_per_row():
    n, m, runs = 6, 12, 3000
    totals = np.zeros(n)
    for k in range(runs):
        s = uniform_sample(n, UniformConfig(m=m), derive_seed(3, k))
        np.add.at(totals, s.indices, s.weights)
    means = totals / runs
    se = np.sqrt(n / m) / np.sqrt(runs)  # crude per-row scale bound
    assert np.all(np.abs(means - 1.0) <= 4 * se + 0.05)


def test_uniform_sample_chi_square_uniformity():
    n = 12
    s = uniform_sample(n, UniformConfig(m=100_000), 99)
    counts = np.bincount(s.indices, minlength=n)
    stat, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 0.001


def test_uniform_sample_validation():
    with pytest.raises(InvalidInputError):
        uniform_sample(0, UniformConfig(m=3), 0)
    with pytest.raises(InvalidInputError):
        UniformConfig(m=0)
