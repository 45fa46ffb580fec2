import dataclasses
import json
import mmap
import tracemalloc

import numpy as np
import pytest

from ssar.asura import AsuraConfig, asura_sample
from ssar.dataio import (
    dump_trace,
    json_line,
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
        "instance_manifest.json", "instance_sigma.npy", "instance_u.npy", "instance_v.npy",
        "instance_x1.npy", "instance_x2.npy", "instance_y1_hidden.npy", "instance_y2.npy",
    ]


def test_a_loaded_dataset_keeps_no_block_file_mapped(tmp_path):
    # Rewriting every file after load_dataset must not reach the dataset or
    # its factors.
    ds, labels = gen_random_instance(12, 4, 3, 1.0, seed=2)
    manifest = save_dataset(tmp_path, ds, full_labels=labels)
    loaded, _ = load_dataset(manifest)
    for block in tmp_path.glob("*.npy"):
        np.save(block, np.zeros(1))
    np.testing.assert_array_equal(loaded.stacked(), ds.stacked())
    np.testing.assert_array_equal(loaded.svd.u, ds.svd.u)


def test_load_dataset_reads_the_blocks_into_one_stack(tmp_path, monkeypatch):
    ds, labels = gen_random_instance(20_000, 200, 20, 1.0, seed=6)
    manifest = save_dataset(tmp_path, ds, full_labels=labels)
    f = ds.svd
    budget = 1.25 * (ds.stacked().nbytes + f.u.nbytes + f.sigma.nbytes + f.v.nbytes)

    def no_map(*args, **kwargs):
        raise AssertionError("a block file was mapped")

    monkeypatch.setattr(mmap, "mmap", no_map)
    load_dataset(manifest)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        loaded, full = load_dataset(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stack, the stored factors and the label vectors, with no second
    # copy of either design block.
    assert peak < budget
    assert loaded.stacked().flags.c_contiguous
    np.testing.assert_array_equal(loaded.stacked(), ds.stacked(), strict=True)
    np.testing.assert_array_equal(full, labels, strict=True)


def test_fortran_order_and_csv_blocks_load_equal_to_c_order_npy(tmp_path):
    ds, labels = gen_random_instance(30, 6, 4, 1.0, seed=7)
    manifest = save_dataset(tmp_path, ds, full_labels=labels)
    ref, _ = load_dataset(manifest)
    entries = json.loads(open(manifest).read())
    for name, block in (("x1", ds.x_unlabeled), ("x2", ds.x_labeled)):
        np.save(tmp_path / f"{name}_f.npy", np.asfortranarray(block))
        assert np.load(tmp_path / f"{name}_f.npy").flags.f_contiguous
        np.savetxt(tmp_path / f"{name}.csv", block, fmt="%.17g", delimiter=",")
        for version in ((2, 0), (3, 0)):
            with open(tmp_path / f"{name}_v{version[0]}.npy", "wb") as fh:
                np.lib.format.write_array(fh, block, version=version)
    for x1, x2 in (("x1_f.npy", "x2.csv"), ("x1.csv", "x2_f.npy"), ("x1_v2.npy", "x2_v3.npy"),
                   ("x1_v3.npy", "x2_v2.npy")):
        path = tmp_path / "variant_manifest.json"
        path.write_text(json.dumps({**entries, "path_x1": x1, "path_x2": x2}))
        loaded, _ = load_dataset(path)
        assert loaded.stacked().flags.c_contiguous, (x1, x2)
        np.testing.assert_array_equal(loaded.stacked(), ref.stacked(), strict=True)
        assert loaded.svd.u is not None
        np.testing.assert_array_equal(loaded.svd.u, ref.svd.u, strict=True)


def test_dataset_round_trip_deploy_mode(tmp_path):
    ds, _ = gen_random_instance(12, 4, 3, 1.0, seed=3)
    manifest = save_dataset(tmp_path, ds)
    loaded, full = load_dataset(manifest)
    assert full is None
    np.testing.assert_array_equal(loaded.y_labeled, ds.y_labeled)


def test_trace_dump_round_trip(tmp_path):
    ds = gaussian_dataset(15, 5, 4, seed=4)
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25), 5)
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
    from ssar.regression import LabelOracle
    from reference import solve_active

    ds, labels = gri(20, 6, 3, 1.0, seed=14)
    sol = solve_active(ds, LabelOracle(labels, ds.n1), AsuraConfig(epsilon=0.25), 15)
    rec = solution_record(sol, seed=15)
    assert set(rec) == {"beta_hat", "loss", "opt", "ratio", "queries",
                        "iterations", "seed"}
    np.testing.assert_allclose(rec["beta_hat"], sol.beta_hat)


def test_lemma_report_serialization(tmp_path):
    rep = LemmaReport("gap-bound", 5, 0, -1.25, 3.5)
    rec = lemma_report_to_dict(rep)
    assert rec["verdict"] == "pass" and rec["runs"] == 5
    path = tmp_path / "reports.jsonl"
    write_jsonl(path, [rec])
    assert [json.loads(line) for line in path.read_text().splitlines()] == [rec]


def test_json_line_writes_non_finite_floats_as_null(tmp_path):
    rec = {"a": float("inf"), "b": [1.5, float("nan"), {"c": -float("inf")}], "d": "x"}
    line = json_line(rec)
    assert json.loads(line, parse_constant=lambda c: pytest.fail(c)) == {
        "a": None, "b": [1.5, None, {"c": None}], "d": "x"}
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [rec, {"e": 2.0}])
    assert path.read_text().splitlines() == [line, '{"e": 2.0}']
