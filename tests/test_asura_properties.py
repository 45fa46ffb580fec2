"""Property tests for the adaptive sampler over random small shapes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssar.asura import AsuraConfig, asura_sample
from ssar.core import thin_svd
from ssar.regression import LabelOracle, solve_active
from ssar.rngutil import make_rng

from conftest import gaussian_dataset


@st.composite
def instances(draw):
    d = draw(st.integers(1, 5))
    n1 = draw(st.integers(1, 30))
    n2 = draw(st.integers(max(0, d - n1), 12))
    seed = draw(st.integers(0, 2**31 - 1))
    return gaussian_dataset(n1, n2, d, seed)


configs = st.builds(
    AsuraConfig,
    epsilon=st.sampled_from([0.1, 0.25]),
    c0=st.sampled_from([2.0, 4.0]),
    rng_seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=40, deadline=None)
@given(ds=instances(), cfg=configs)
def test_sampler_run_invariants(ds, cfg):
    svd = thin_svd(ds.stacked())
    sample, trace = asura_sample(svd, cfg, n_unlabeled=ds.n1)
    assert sample.m == trace.m <= math.ceil(2.0 * svd.rank / cfg.gamma**2)
    assert np.all(sample.weights > 0)
    assert np.all(sample.coefficients > 0)
    assert np.all((sample.indices >= 0) & (sample.indices < ds.n))

    again, trace_again = asura_sample(svd, cfg, n_unlabeled=ds.n1)
    np.testing.assert_array_equal(again.indices, sample.indices)
    np.testing.assert_array_equal(again.weights, sample.weights)
    np.testing.assert_array_equal(trace_again.p_j, trace.p_j)
    np.testing.assert_array_equal(trace_again.px1_sum, trace.px1_sum)


@settings(max_examples=25, deadline=None)
@given(ds=instances(), cfg=configs)
def test_billed_queries_are_distinct_unlabeled_picks(ds, cfg):
    y1 = make_rng(cfg.rng_seed).standard_normal(ds.n1)
    oracle = LabelOracle(np.concatenate([y1, ds.y_labeled]), ds.n1)
    sol = solve_active(ds, oracle, cfg)
    picks = sol.sample.indices
    assert sol.queries == np.unique(picks[picks < ds.n1]).size
    assert sol.queries_iteration_level == np.count_nonzero(picks < ds.n1)
