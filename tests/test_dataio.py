import json

import numpy as np
import pytest

from ssar.asura import AsuraConfig, asura_sample
from ssar.core import thin_svd
from ssar.dataio import (
    dump_trace,
    lemma_report_to_dict,
    load_dataset,
    load_matrix,
    load_trace,
    save_dataset,
    save_matrix,
    write_jsonl,
)
from ssar.errors import InvalidInputError
from ssar.instances import gen_random_instance
from ssar.verify import LemmaReport

from conftest import gaussian_dataset


def test_matrix_round_trip_is_exact(tmp_path):
    arr = np.random.default_rng(0).standard_normal((7, 3)) * 1e-7
    path = tmp_path / "m.csv"
    save_matrix(path, arr)
    np.testing.assert_array_equal(load_matrix(path), arr)


def test_empty_matrix_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    save_matrix(path, np.zeros((0, 4)))
    out = load_matrix(path, cols=4)
    assert out.shape == (0, 4)
    with pytest.raises(InvalidInputError):
        load_matrix(path)


def test_dataset_round_trip_with_hidden_labels(tmp_path):
    ds, labels = gen_random_instance(12, 4, 3, 1.0, seed=2)
    manifest = save_dataset(tmp_path, ds, full_labels=labels)
    loaded, full = load_dataset(manifest)
    np.testing.assert_array_equal(loaded.stacked(), ds.stacked())
    np.testing.assert_array_equal(full, labels)


def test_dataset_round_trip_deploy_mode(tmp_path):
    ds, _ = gen_random_instance(12, 4, 3, 1.0, seed=3)
    manifest = save_dataset(tmp_path, ds)
    loaded, full = load_dataset(manifest)
    assert full is None
    np.testing.assert_array_equal(loaded.y_labeled, ds.y_labeled)


def test_trace_dump_round_trip(tmp_path):
    ds = gaussian_dataset(15, 5, 4, seed=4)
    svd = thin_svd(ds.stacked())
    _, trace = asura_sample(svd, AsuraConfig(epsilon=0.25, rng_seed=5), n_unlabeled=15)
    path = tmp_path / "trace.jsonl"
    dump_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.m == trace.m
    np.testing.assert_array_equal(loaded.phi_id, trace.phi_id)
    np.testing.assert_array_equal(loaded.u, trace.u)
    np.testing.assert_array_equal(loaded.l, trace.l)
    np.testing.assert_array_equal(loaded.sampled_index, trace.sampled_index)
    assert loaded.a_mats is None


def test_solution_record_fields():
    from ssar.dataio import solution_record
    from ssar.instances import gen_random_instance as gri
    from ssar.regression import LabelOracle, solve_active

    ds, labels = gri(20, 6, 3, 1.0, seed=14)
    sol = solve_active(ds, LabelOracle(labels, ds.n1), AsuraConfig(epsilon=0.25, rng_seed=15))
    rec = solution_record(sol, seed=15)
    assert set(rec) == {"beta_hat", "loss", "opt", "ratio", "queries",
                        "iterations", "seed"}
    np.testing.assert_allclose(rec["beta_hat"], sol.beta_hat)


def test_lemma_report_serialization(tmp_path):
    rep = LemmaReport("gap-bound", 5, 0, -1.25, 3.5, True)
    rec = lemma_report_to_dict(rep)
    assert rec["verdict"] == "pass" and rec["runs"] == 5
    path = tmp_path / "reports.jsonl"
    write_jsonl(path, [rec])
    assert [json.loads(line) for line in path.read_text().splitlines()] == [rec]
