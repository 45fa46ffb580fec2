import dataclasses
import json

import numpy as np
import pytest

from ssar.asura import AsuraConfig, asura_sample
from ssar.dataio import (
    dump_trace,
    lemma_report_to_dict,
    load_dataset,
    load_matrix,
    load_trace,
    load_vector,
    save_dataset,
    write_jsonl,
)
from ssar.errors import InvalidInputError
from ssar.instances import gen_random_instance
from ssar.verify import LemmaReport

from conftest import gaussian_dataset


def test_matrix_round_trip_is_exact(tmp_path):
    arr = np.random.default_rng(0).standard_normal((7, 3)) * 1e-7
    path = tmp_path / "m.csv"
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    np.testing.assert_array_equal(load_matrix(path), arr)


def test_npy_blocks_round_trip_exactly(tmp_path):
    arr = np.random.default_rng(1).standard_normal((7, 3)) * 1e-7
    np.save(tmp_path / "m.npy", arr)
    np.save(tmp_path / "v.npy", arr[:, 0])
    np.save(tmp_path / "empty.npy", np.zeros((0, 3)))
    np.testing.assert_array_equal(load_matrix(tmp_path / "m.npy", cols=3), arr, strict=True)
    np.testing.assert_array_equal(load_vector(tmp_path / "v.npy"), arr[:, 0], strict=True)
    assert load_matrix(tmp_path / "empty.npy", cols=3).shape == (0, 3)


def test_empty_matrix_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    np.savetxt(path, np.zeros((0, 4)), fmt="%.17g", delimiter=",")
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
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "instance_manifest.json", "instance_x1.npy", "instance_x2.npy",
        "instance_y1_hidden.npy", "instance_y2.npy",
    ]


def test_dataset_round_trip_deploy_mode(tmp_path):
    ds, _ = gen_random_instance(12, 4, 3, 1.0, seed=3)
    manifest = save_dataset(tmp_path, ds)
    loaded, full = load_dataset(manifest)
    assert full is None
    np.testing.assert_array_equal(loaded.y_labeled, ds.y_labeled)


def test_trace_dump_round_trip(tmp_path):
    ds = gaussian_dataset(15, 5, 4, seed=4)
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25, rng_seed=5))
    path = tmp_path / "trace.jsonl"
    dump_trace(path, trace)
    loaded = load_trace(path)
    for field in dataclasses.fields(trace):
        got, want = getattr(loaded, field.name), getattr(trace, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            np.testing.assert_array_equal(got, want, err_msg=field.name, strict=True)
        else:
            assert type(got) is type(want) and got == want, field.name
    np.testing.assert_array_equal(loaded.w_prime, trace.w_prime)


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
