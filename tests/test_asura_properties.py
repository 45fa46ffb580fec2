"""Property tests for the adaptive sampler over random small shapes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssar.asura import AsuraConfig, asura_sample
from ssar.regression import LabelOracle
from ssar.rngutil import make_rng
from ssar.verify import _replay

from conftest import gaussian_dataset
from reference import solve_active


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
)
seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=40, deadline=None)
@given(ds=instances(), cfg=configs, seed=seeds)
def test_sampler_run_invariants(ds, cfg, seed):
    sample, trace = asura_sample(ds, cfg, seed)
    assert sample.m == trace.m <= math.ceil(2.0 * ds.svd.rank / cfg.gamma**2)
    assert np.all(sample.weights > 0)
    assert np.all(trace.alpha > 0)
    assert np.all((sample.indices >= 0) & (sample.indices < ds.n))

    again, trace_again = asura_sample(ds, cfg, seed)
    np.testing.assert_array_equal(again.indices, sample.indices)
    np.testing.assert_array_equal(again.weights, sample.weights)
    np.testing.assert_array_equal(trace_again.p_j, trace.p_j)
    np.testing.assert_array_equal(trace_again.px1_sum, trace.px1_sum)


def _loop_matrices(trace, svd):
    """``A_0 .. A_m`` accumulated one rank-one update at a time, as the sampler does."""
    a = np.zeros((svd.rank, svd.rank))
    mats = [a]
    for pick, w in zip(trace.sampled_index, trace.w_prime):
        row = svd.u[pick]
        a = a + w * np.outer(row, row)
        mats.append(a)
    return np.array(mats)


def _replayed(trace, svd):
    """The replay's chunks and the matrices ``A_0 .. A_m`` they hold."""
    chunks = [mats for _, mats in _replay(trace, svd.u)]
    return chunks, np.concatenate([c[:-1] for c in chunks] + [chunks[-1][-1:]])


@settings(max_examples=40, deadline=None)
@given(ds=instances(), cfg=configs, seed=seeds)
def test_replayed_matrices_are_the_loop_matrices_inside_the_window(ds, cfg, seed):
    svd = ds.svd
    _, trace = asura_sample(ds, cfg, seed)
    _, mats = _replayed(trace, svd)
    np.testing.assert_array_equal(mats, _loop_matrices(trace, svd))
    theta = np.linalg.eigvalsh(mats)
    assert np.all(theta[:, 0] > trace.l) and np.all(theta[:, -1] < trace.u)


@settings(max_examples=5, deadline=None)
@given(
    d=st.integers(48, 64),
    n2=st.integers(0, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_replay_is_exact_across_chunk_boundaries(d, n2, seed):
    # At rank 48 or more a run's matrices outgrow one chunk of the default cap.
    ds = gaussian_dataset(d, n2, d, seed)
    svd = ds.svd
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, c0=2.0), seed)
    chunks, mats = _replayed(trace, svd)
    assert len(chunks) >= 2
    for prev, nxt in zip(chunks, chunks[1:]):
        np.testing.assert_array_equal(prev[-1], nxt[0])
    np.testing.assert_array_equal(mats, _loop_matrices(trace, svd))


@settings(max_examples=25, deadline=None)
@given(ds=instances(), cfg=configs, seed=seeds)
def test_billed_queries_are_distinct_unlabeled_picks(ds, cfg, seed):
    y1 = make_rng(seed).standard_normal(ds.n1)
    oracle = LabelOracle(np.concatenate([y1, ds.y_labeled]), ds.n1)
    sol = solve_active(ds, oracle, cfg, seed)
    picks = sol.sample.indices
    assert sol.queries == np.unique(picks[picks < ds.n1]).size
    assert sol.queries_iteration_level == np.count_nonzero(picks < ds.n1)
