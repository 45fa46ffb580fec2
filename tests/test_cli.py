import io
import json
import multiprocessing.process
import os
import subprocess
import sys

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ssar import cli, regression
from ssar.asura import AsuraConfig, asura_sample
from ssar.baselines import LeverageConfig, UniformConfig
from ssar.cli import EXIT_CONFIG, EXIT_HARD_FAIL, EXIT_IO, EXIT_OK, main
from ssar.core import _truncated, thin_svd
from ssar.dataio import dump_trace, load_dataset
from ssar.errors import (
    BarrierViolationError,
    NumericalBreakdownError,
    WellBalancedEventFailedError,
)
from ssar.instances import gaussian_design, gen_kernel_instance
from ssar.regression import LabelOracle
from ssar.rngutil import derive_seed, make_rng
from ssar.verify import HARD_LEMMA_IDS, check_well_balanced

from reference import effective_dimension, kernel_eigh, solve_active, statistical_dimension


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def data_lines(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


def count_calls(monkeypatch, name, *modules):
    """Count calls to ``ssar.<modules[0]>.<name>`` through any of the modules' bindings.

    Returns a list that gets one entry per call.
    """
    import importlib

    target = getattr(importlib.import_module(f"ssar.{modules[0]}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return target(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(f"ssar.{mod}.{name}", counted, raising=False)
    return calls


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("inst")
    code = main(["gen", "random", "--n1", "60", "--n2", "15", "--d", "4",
                 "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    return str(out / "random_manifest.json")


# ---------------------------------------------------------------- gen

def test_gen_random_is_byte_identical_on_rerun(tmp_path, capsys):
    args = ["gen", "random", "--n1", "30", "--n2", "10", "--d", "3", "--seed", "11"]
    code1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == EXIT_OK
    for name in ("random_manifest.json", "random_x1.npy", "random_x2.npy",
                 "random_y2.npy", "random_y1_hidden.npy"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_lower_bound_prints_instance_measure(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "lower-bound", "--d", "8", "--lambda", "2",
                        "--eps", "0.01", "--n", "500", "--seed", "1",
                        "--out", str(tmp_path))
    assert code == EXIT_OK
    value = float(out.split("sd_lambda = ")[1].splitlines()[0])
    assert value == pytest.approx(8 / 3, rel=1e-10)
    beta_tilde = np.load(tmp_path / "lower_bound_beta_tilde.npy", allow_pickle=False)
    assert beta_tilde.shape == (8,) and set(np.abs(beta_tilde)) == {3.0}


@pytest.mark.parametrize("lam", [0.0, 1.0], ids=["0", "1"])
def test_gen_ridge_prints_statistical_dimension(tmp_path, capsys, lam):
    code, out = run_cli(capsys, "gen", "ridge", "--n1", "40", "--d", "5",
                        "--lambda", str(lam), "--seed", "2", "--out", str(tmp_path))
    assert code == EXIT_OK
    value = float(out.split("sd_lambda = ")[1].splitlines()[0])
    x1 = gaussian_design(make_rng(2), 40, 5, 5)[0]  # the design gen ridge draws
    sd = statistical_dimension(np.linalg.svd(x1, compute_uv=False), lam)
    assert value == pytest.approx(sd, rel=1e-12)  # at lambda 0, the rank 5


def test_gen_kernel_prints_effective_dimension(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "kernel", "--n", "40", "--rank", "4",
                        "--lambda", "1", "--seed", "3", "--out", str(tmp_path))
    assert code == EXIT_OK
    value = float(out.split("d_lambda = ")[1].splitlines()[0])
    # The eigenvalues gen kernel draws at its default --eig-min and --eig-max.
    assert value == pytest.approx(effective_dimension(np.geomspace(0.25, 4.0, 4), 1.0), rel=1e-12)


# ---------------------------------------------------------------- run

def test_run_single_trial_is_reproducible(manifest, capsys):
    args = ["run", "--manifest", manifest, "--sampler", "asura",
            "--epsilon", "0.25", "--trials", "1", "--seed", "5"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    recs1 = [json.loads(s) for s in data_lines(out1)]
    recs2 = [json.loads(s) for s in data_lines(out2)]
    for rec in recs1 + recs2:
        rec.pop("runtime_ms", None)
    assert recs1 == recs2
    assert recs1[0]["sampler"] == "asura" and recs1[0]["ratio"] is not None


def test_run_jobs_flag_runs_in_one_process(manifest, capsys, tmp_path, monkeypatch):
    # --jobs is accepted and ignored: no trial runs in a child process.
    def no_child(process):
        raise AssertionError(f"run started a child process {process.name}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_child)
    out_file = tmp_path / "trials.jsonl"
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "4",
                        "--jobs", "2", "--seed", "9", "--out", str(out_file))
    assert code == EXIT_OK
    lines = [json.loads(s) for s in data_lines(out)]
    summary = lines[-1]
    assert summary["kind"] == "summary" and summary["trials"] == 4
    assert out_file.exists()
    # --jobs 2 gives the records of --jobs 1.
    _, serial = run_cli(capsys, "run", "--manifest", manifest, "--trials", "4",
                        "--jobs", "1", "--seed", "9")
    serial = [json.loads(s) for s in data_lines(serial)]
    for rec in lines + serial:
        rec.pop("runtime_ms", None)
    assert lines == serial


@pytest.mark.parametrize("extra", [[], ["--check-balance"]], ids=["plain", "check-balance"])
def test_run_loads_and_factors_the_instance_once(manifest, capsys, monkeypatch, extra):
    loads = count_calls(monkeypatch, "load_dataset", "dataio", "cli")
    svd_calls = count_calls(monkeypatch, "thin_svd", "core", "regression", "cli")
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "3",
                        "--seed", "5", *extra)
    assert code == EXIT_OK
    assert json.loads(data_lines(out)[-1])["failed_trials"] == 0
    assert len(loads) == 1 and len(svd_calls) == 1


def test_csv_and_npy_blocks_are_the_same_instance(manifest, capsys, tmp_path):
    with open(manifest) as fh:
        entries = json.load(fh)
    base = os.path.dirname(manifest)
    for key in ("path_x1", "path_x2", "path_y2", "path_y1_hidden",
                "path_u", "path_sigma", "path_v"):
        block = np.load(os.path.join(base, entries[key]), allow_pickle=False)
        entries[key] = entries[key].replace(".npy", ".csv")
        np.savetxt(tmp_path / entries[key], block, fmt="%.17g", delimiter=",")
    csv_manifest = tmp_path / "csv_manifest.json"
    csv_manifest.write_text(json.dumps(entries))
    records = []
    for path in (manifest, str(csv_manifest)):
        code, out = run_cli(capsys, "run", "--manifest", path, "--trials", "2", "--seed", "3")
        assert code == EXIT_OK
        records.append([json.loads(s) for s in data_lines(out)])
        for rec in records[-1]:
            rec.pop("runtime_ms", None)
    assert len(records[0]) == 3 and records[0] == records[1]


_GEN_KINDS = {
    "random": ["--n1", "60", "--n2", "15", "--d", "4"],
    "lower-bound": ["--d", "3", "--n", "20", "--eps", "0.01", "--lambda", "2"],
    "ridge": ["--n1", "40", "--d", "5", "--lambda", "1"],
    "kernel": ["--n", "150", "--rank", "4", "--lambda", "1"],  # 300 x 150
}


@pytest.mark.parametrize("kind", list(_GEN_KINDS))
def test_every_gen_kind_stores_the_factors_of_its_stack(capsys, tmp_path, monkeypatch, kind):
    factored = count_calls(monkeypatch, "_range_factors", "core")
    code, out = run_cli(capsys, "gen", kind, *_GEN_KINDS[kind], "--seed", "3",
                        "--out", str(tmp_path))
    assert code == EXIT_OK
    path = out.split("manifest = ", 1)[1].strip()
    with open(path) as fh:
        entries = json.load(fh)
    stored = {name: np.load(tmp_path / entries[f"path_{name}"], allow_pickle=False)
              for name in ("u", "sigma", "v")}
    ds, _ = load_dataset(path)
    if kind == "kernel":
        assert factored == []  # gen kept the closed form
        # Built from the generator's own eigenpairs, which agree with the
        # eigendecomposition of the stored kernel up to column signs.
        fresh = gen_kernel_instance(150, 4, 1.0, make_rng(3))[0].svd
        eigh_form = _kernel_closed_form(ds.x_unlabeled, 1.0)
        signs = np.sign(np.sum(fresh.v * eigh_form.v, axis=0))
        np.testing.assert_allclose(fresh.sigma, eigh_form.sigma, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fresh.u * signs, eigh_form.u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fresh.v * signs, eigh_form.v, rtol=0, atol=1e-10)
    else:
        fresh = thin_svd(ds.stacked())
        factored.clear()
    for name, block in stored.items():
        np.testing.assert_array_equal(block, getattr(fresh, name), strict=True)
        np.testing.assert_array_equal(getattr(ds.svd, name), block, strict=True)
    code, _ = run_cli(capsys, "run", "--manifest", path, "--trials", "2", "--seed", "3")
    assert code == EXIT_OK
    assert factored == []  # the stored factors passed thin_svd's test


def test_gen_kernel_takes_no_eigendecomposition_of_its_kernel(capsys, tmp_path, monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def spied(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spied)
    code, _ = run_cli(capsys, "gen", "kernel", "--n", "150", "--rank", "4", "--lambda", "1",
                      "--seed", "3", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (150, 150) not in shapes  # neither the kernel's eigh nor a Gram route's


def _kernel_closed_form(k, lam):
    """The thin SVD of ``[K; sqrt(lam) K^(1/2)]`` from the eigenpairs of ``K``."""
    e, q = kernel_eigh(k)
    keep = e[::-1] > 0
    e, q = e[::-1][keep], q[:, ::-1][:, keep]
    shift = np.sqrt(e + lam)
    u = np.concatenate([q * (np.sqrt(e) / shift), q * (np.sqrt(lam) / shift)])
    return _truncated(u, np.sqrt(e) * shift, q)


@pytest.mark.parametrize("eigs", [("1e-300", "1e-290"), ("1e200", "1e280")], ids=["tiny", "huge"])
@pytest.mark.parametrize("lam", ["0", "1e-300", "1", "1e300"])
def test_gen_kernel_and_run_at_an_extreme_scale(capsys, tmp_path, eigs, lam):
    code, out = run_cli(capsys, "gen", "kernel", "--n", "10", "--rank", "3", "--lambda", lam,
                        "--eig-min", eigs[0], "--eig-max", eigs[1], "--seed", "1",
                        "--out", str(tmp_path))
    assert code == EXIT_OK
    path = out.split("manifest = ", 1)[1].strip()
    code, out = run_cli(capsys, "run", "--manifest", path, "--trials", "3", "--seed", "1")
    assert code == EXIT_OK
    records = [json.loads(s) for s in data_lines(out)]
    assert records[-1]["failed_trials"] == 0


def _manifest_variant(tmp_path, manifest, name, factors=True, x1=None):
    """A copy of ``manifest`` in ``tmp_path`` naming the original blocks, with
    or without the factor keys, and optionally another ``x1`` block."""
    with open(manifest) as fh:
        entries = json.load(fh)
    base = os.path.dirname(manifest)
    entries = {k: os.path.join(base, v) if k.startswith("path_") else v
               for k, v in entries.items()}
    if not factors:
        for key in ("path_u", "path_sigma", "path_v"):
            del entries[key]
    if x1 is not None:
        entries["path_x1"] = str(tmp_path / "x1_edited.npy")
        np.save(entries["path_x1"], x1)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_run_records_equal_a_fresh_factorizations(manifest, capsys, tmp_path, monkeypatch):
    # Without the factor keys, and with factors made stale by an edit of x1
    # after gen, run factors the stack itself and writes the same records.
    x1 = load_dataset(manifest)[0].x_unlabeled.copy()
    x1[7, 2] += 0.5
    factored = count_calls(monkeypatch, "_range_factors", "core")
    records = {}
    for name, factors, block in (("stored", True, None), ("plain", False, None),
                                 ("stale", True, x1), ("edited", False, x1)):
        path = _manifest_variant(tmp_path, manifest, name, factors, block)
        code, out = run_cli(capsys, "run", "--manifest", path, "--trials", "3",
                            "--seed", "4", "--check-balance")
        assert code == EXIT_OK
        records[name] = _trial_records(out)
        assert len(factored) == (name != "stored")
        factored.clear()
    assert records["stored"] == records["plain"]
    assert records["stale"] == records["edited"] != records["plain"]


def test_a_manifest_must_name_all_factor_blocks_or_none(manifest, capsys, tmp_path):
    path = tmp_path / "partial.json"
    entries = json.loads(Path(_manifest_variant(tmp_path, manifest, "full")).read_text())
    del entries["path_sigma"]
    path.write_text(json.dumps(entries))
    code = main(["run", "--manifest", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and "partial.json" in err[0] and "path_sigma" in err[0]


@pytest.mark.parametrize("real", [False, True], ids=["missing-manifest", "real-manifest"])
def test_run_refuses_its_sampler_config_before_reading_the_manifest(
    manifest, capsys, monkeypatch, tmp_path, real
):
    # gamma = sqrt(0.25) / 0.5 = 1 breaks the barrier update, so the run exits
    # 4 with that message before the manifest is read, not 3 for a missing one.
    loads = count_calls(monkeypatch, "load_dataset", "dataio", "cli")
    path = manifest if real else str(tmp_path / "nonexistent.json")
    code = main(["run", "--manifest", path, "--c0", "0.5"])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG and loads == []
    assert len(err) == 1 and "gamma=1 breaks the barrier update" in err[0]


def test_run_deploy_mode_manifest_fails_before_any_trial(capsys, monkeypatch, tmp_path):
    from ssar.dataio import save_dataset
    from ssar.instances import gen_random_instance

    ds, _ = gen_random_instance(20, 5, 3, 1.0, seed=2)
    path = save_dataset(tmp_path, ds)
    trials = count_calls(monkeypatch, "_run_one_trial", "cli")
    code = main(["run", "--manifest", path, "--trials", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert trials == [] and data_lines(captured.out) == []
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]


def test_run_summary_of_infinite_ratios_has_no_spread(capsys, tmp_path):
    # n1 = d and no labeled rows: OPT is 0, and two uniform rows cannot fit
    # the labels, so every ratio is inf.
    code, out = run_cli(capsys, "gen", "random", "--n1", "5", "--n2", "0", "--d", "5",
                        "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
    path = out.split("manifest = ", 1)[1].strip()
    code, out = run_cli(capsys, "run", "--manifest", path, "--trials", "3",
                        "--sampler", "uniform", "--uniform-m", "2")
    assert code == EXIT_OK
    records = [json.loads(s) for s in data_lines(out)]
    assert [r["ratio"] for r in records[:-1]] == [None] * 3  # inf, written as null
    assert records[-1]["mean_ratio"] is None and records[-1]["std_ratio"] is None


def test_run_writes_solution_records(manifest, capsys, tmp_path):
    sol_file = tmp_path / "solutions.jsonl"
    code, _ = run_cli(capsys, "run", "--manifest", manifest, "--trials", "2",
                      "--seed", "5", "--solutions-out", str(sol_file))
    assert code == EXIT_OK
    recs = [json.loads(s) for s in sol_file.read_text().splitlines()]
    assert len(recs) == 2
    assert len(recs[0]["beta_hat"]) == 4
    assert recs[0]["ratio"] >= 1.0 - 1e-9


def test_run_no_ratio_mode(manifest, capsys):
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "1",
                        "--seed", "5", "--no-ratio")
    assert code == EXIT_OK
    rec = json.loads(data_lines(out)[0])
    assert rec["ratio"] is None


def test_run_leverage_and_uniform(manifest, capsys):
    for sampler, extra in (("leverage", ["--oversample-c", "1"]),
                           ("uniform", ["--uniform-m", "40"])):
        code, out = run_cli(capsys, "run", "--manifest", manifest, "--sampler",
                            sampler, "--epsilon", "0.5", "--trials", "2",
                            "--seed", "3", *extra)
        assert code == EXIT_OK
        rec = json.loads(data_lines(out)[0])
        assert rec["sampler"] == sampler


def test_run_records_per_trial_sampler_failures_and_continues(manifest, capsys):
    # At gamma = 1/4 the balance check never passes, so retry mode exhausts its
    # restarts; the command records the failures and still exits cleanly.
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "2",
                        "--seed", "5", "--epsilon", "0.25", "--c0", "2",
                        "--retry")
    assert code == EXIT_OK
    recs = [json.loads(s) for s in data_lines(out)]
    assert all("error" in r for r in recs[:-1])
    assert recs[-1]["failed_trials"] == 2


def test_run_retry_warns_below_c0_4_and_keeps_its_records(manifest, capsys):
    outs = {}
    for c0 in ("2", "8"):
        code = main(["run", "--manifest", manifest, "--trials", "2", "--seed", "5",
                     "--c0", c0, "--retry"])
        assert code == EXIT_OK
        outs[c0] = capsys.readouterr()
    warnings = [line for line in outs["2"].err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "0 at c0 2 and 3, 0.335 at 4, 1.0 at 6 and 8" in warnings[0]
    assert "warning" not in outs["8"].err and "warning" not in outs["2"].out
    # The records are the ones of a run without the warning.
    expected = _records_in_turn(manifest, AsuraConfig(epsilon=0.25), 5, 2, retry=True)
    assert _trial_records(outs["2"].out) == expected


def _records_in_turn(manifest, cfg, base_seed, trials, retry=False, check_balance=False):
    """The trial records of ``run`` without ``runtime_ms``, from one ``solve_active`` per seed."""
    ds, full = load_dataset(manifest)
    sampler = {AsuraConfig: "asura", LeverageConfig: "leverage", UniformConfig: "uniform"}[type(cfg)]
    adaptive = sampler == "asura"
    records = []
    for k in range(trials):
        seed = derive_seed(base_seed, k)
        try:
            sol = solve_active(ds, LabelOracle(full, ds.n1), cfg, seed, retry)
        except (BarrierViolationError, NumericalBreakdownError,
                WellBalancedEventFailedError) as exc:
            records.append({"seed": seed, "sampler": sampler, "error": str(exc),
                            "error_class": type(exc).__name__})
            continue
        well_balanced = None
        if adaptive and retry:
            well_balanced = True
        elif adaptive and check_balance:
            well_balanced = check_well_balanced(sol.trace, ds.svd).well_balanced
        records.append({
            "seed": seed, "sampler": sampler, "m": sol.iterations,
            "cap": sol.trace.cap if adaptive else None,
            "queries_billed": sol.queries,
            "queries_iteration_level": sol.queries_iteration_level,
            "ratio": sol.ratio, "well_balanced": well_balanced,
            "gamma": cfg.gamma if adaptive else None,
        })
    return records


def _trial_records(out):
    records = [json.loads(s) for s in data_lines(out)][:-1]
    for rec in records:
        rec.pop("runtime_ms", None)
    return records


@pytest.mark.parametrize("argv,cfg", [
    ([], AsuraConfig(epsilon=0.25)),
    (["--sampler", "leverage"], LeverageConfig(epsilon=0.25)),
    (["--sampler", "uniform"], UniformConfig(m=100)),
    (["--check-balance"], AsuraConfig(epsilon=0.25)),
    (["--retry", "--c0", "8"], AsuraConfig(epsilon=0.25, c0=8.0)),
    (["--retry"], AsuraConfig(epsilon=0.25)),
], ids=["asura", "leverage", "uniform", "check-balance", "retry-c0-8", "retry-exhausted"])
def test_run_batch_draw_gives_the_records_of_trials_in_turn(manifest, capsys, argv, cfg):
    # run draws all trials in one call; every record must be what solve_active
    # gives on that trial's seed alone, apart from the time.
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "30",
                        "--seed", "12", *argv)
    assert code == EXIT_OK
    expected = _records_in_turn(manifest, cfg, 12, 30, retry="--retry" in argv,
                                check_balance="--check-balance" in argv)
    assert _trial_records(out) == expected


def _failing_runs(monkeypatch, doomed):
    """Make the adaptive runs at batch positions ``doomed`` end in an error slot.

    Returns the seeds of every batch drawn."""
    real, calls = regression.asura_sample_batch, []

    def batch(ds, cfg, tried):
        calls.append(list(tried))
        runs = real(ds, cfg, tried)
        return [NumericalBreakdownError(f"forced failure of run {k} (seed {tried[k]})")
                if k in doomed else run for k, run in enumerate(runs)]

    monkeypatch.setattr(regression, "asura_sample_batch", batch)
    return calls


def test_run_falls_back_to_per_trial_draws_when_the_batch_fails(manifest, capsys, monkeypatch):
    # Runs 1 and 4 of the batch fail: the one draw keeps their errors in their
    # slots, so only trials 1 and 4 get error records, their own, and every
    # other trial keeps the record it has alone.
    seeds = [derive_seed(5, k) for k in range(6)]
    expected = _records_in_turn(manifest, AsuraConfig(epsilon=0.25), 5, 6)
    batches = _failing_runs(monkeypatch, {1, 4})
    draws = count_calls(monkeypatch, "draw_samples", "regression", "cli")
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "6", "--seed", "5")
    assert code == EXIT_OK
    assert draws == [1] and batches == [seeds]
    for k in (1, 4):
        expected[k] = {"seed": seeds[k], "sampler": "asura",
                       "error": f"forced failure of run {k} (seed {seeds[k]})",
                       "error_class": "NumericalBreakdownError"}
    assert _trial_records(out) == expected
    assert json.loads(data_lines(out)[-1])["failed_trials"] == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--runs", "5", "--d-grid", "4,8", "--eps-grid", "0.25", "--seed", "1"],
    ["verify", "--runs", "2", "--d-grid", "4", "--eps-grid", "0.25", "--seed", "1",
     "--statistical-runs", "2000"],
    ["sweep", "d", "--grid", "2,3", "--n1", "30", "--trials", "5", "--seed", "1"],
], ids=["verify-grid", "verify-statistical", "sweep"])
def test_a_failing_run_stops_verify_and_sweep_with_its_error(capsys, monkeypatch, argv):
    # The batch's lowest-indexed failing run names the error, with exit 4,
    # before any record of the batch is printed.
    statistical = "--statistical-runs" in argv
    real = regression.asura_sample_batch
    if statistical:
        # Only the statistical batch fails, and its draw is cut to a few runs.
        def batch(ds, cfg, tried):
            if len(tried) < 2000:
                return real(ds, cfg, tried)
            return [NumericalBreakdownError(f"forced failure of run {k}") if k in (2, 3) else
                    run for k, run in enumerate(real(ds, cfg, tried[:4]))]

        monkeypatch.setattr(regression, "asura_sample_batch", batch)
    else:
        _failing_runs(monkeypatch, {2, 3})
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert not [line for line in data_lines(captured.out) if line.startswith(("{", "d="))]
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: forced failure of run 2")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_retry_exhaustion_leaves_the_other_trials_intact(manifest, capsys, monkeypatch, jobs):
    # Every attempt of trial 3 is made to fail the balance check: it uses up
    # its ten attempts, one batch each, and the other trials keep their records.
    seeds = [derive_seed(5, k) for k in range(6)]
    doomed = {seeds[3]} | {derive_seed(seeds[3], a) for a in range(2, 11)}
    expected = _records_in_turn(manifest, AsuraConfig(epsilon=0.25, c0=8.0), 5, 6, retry=True)
    real_batch, real_check = regression.asura_sample_batch, regression.check_well_balanced
    calls, seed_of = [], {}

    def batch(ds, cfg, tried):
        calls.append(list(tried))
        runs = real_batch(ds, cfg, tried)
        seed_of.update((id(trace), seed) for (_, trace), seed in zip(runs, tried))
        return runs

    def check(trace, svd):
        report = real_check(trace, svd)
        return replace(report, well_balanced=False) if seed_of[id(trace)] in doomed else report

    monkeypatch.setattr(regression, "asura_sample_batch", batch)
    monkeypatch.setattr(regression, "check_well_balanced", check)
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "6", "--seed", "5",
                        "--c0", "8", "--retry", "--jobs", jobs)
    assert code == EXIT_OK
    expected[3] = {"seed": seeds[3], "sampler": "asura",
                   "error": "no well-balanced run within 10 attempts",
                   "error_class": "WellBalancedEventFailedError"}
    assert _trial_records(out) == expected
    assert len(calls) == 10 and calls[0] == seeds
    assert all(derive_seed(seeds[3], a) in calls[a - 1] for a in range(2, 11))


def test_records_name_the_error_class_and_the_iteration_cap(manifest, capsys, monkeypatch):
    # Trial 1's first draw ends in a BarrierViolationError, which is final; at
    # c0 = 2 the other trials use up their attempts.
    seeds = [derive_seed(5, k) for k in range(3)]
    real = regression.asura_sample_batch

    def batch(ds, cfg, tried):
        runs = real(ds, cfg, tried)
        if seeds[1] in tried:
            runs[tried.index(seeds[1])] = BarrierViolationError("forced barrier violation")
        return runs

    monkeypatch.setattr(regression, "asura_sample_batch", batch)
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "3", "--seed", "5",
                        "--retry")
    assert code == EXIT_OK
    assert [rec["error_class"] for rec in _trial_records(out)] == [
        "WellBalancedEventFailedError", "BarrierViolationError", "WellBalancedEventFailedError"]
    monkeypatch.undo()
    # Rank 4 at gamma = 1/4: the cap is ceil(2 * 4 * 16) = 128.
    for sampler, cap in (("asura", 128), ("leverage", None)):
        code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "2",
                            "--sampler", sampler)
        assert code == EXIT_OK
        assert [rec["cap"] for rec in _trial_records(out)] == [cap, cap]
        assert all("error_class" not in rec for rec in _trial_records(out))


def test_run_retry_keeps_a_broken_balance_check_in_its_trials_slot(manifest, capsys, monkeypatch):
    # The balance check of trial 3's first attempt breaks down: that error is
    # the trial's record, and its run is not drawn again.
    seeds = [derive_seed(5, k) for k in range(6)]
    expected = _records_in_turn(manifest, AsuraConfig(epsilon=0.25, c0=8.0), 5, 6, retry=True)
    real_batch, real_check = regression.asura_sample_batch, regression.check_well_balanced
    calls, seed_of = [], {}

    def batch(ds, cfg, tried):
        calls.append(list(tried))
        runs = real_batch(ds, cfg, tried)
        seed_of.update((id(trace), seed) for (_, trace), seed in zip(runs, tried))
        return runs

    def check(trace, svd):
        if seed_of[id(trace)] == seeds[3]:
            raise NumericalBreakdownError("forced breakdown of the balance check")
        return real_check(trace, svd)

    monkeypatch.setattr(regression, "asura_sample_batch", batch)
    monkeypatch.setattr(regression, "check_well_balanced", check)
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "6", "--seed", "5",
                        "--c0", "8", "--retry")
    assert code == EXIT_OK
    expected[3] = {"seed": seeds[3], "sampler": "asura",
                   "error": "forced breakdown of the balance check",
                   "error_class": "NumericalBreakdownError"}
    assert _trial_records(out) == expected
    assert calls[0] == seeds and all(seeds[3] not in c and
                                     derive_seed(seeds[3], 2) not in c for c in calls[1:])


def test_run_missing_manifest_is_io_error(capsys):
    code, _ = run_cli(capsys, "run", "--manifest", "/nonexistent/x.json")
    assert code == EXIT_IO


def test_run_invalid_epsilon_is_config_error(manifest, capsys):
    code, _ = run_cli(capsys, "run", "--manifest", manifest, "--epsilon", "2.0")
    assert code == EXIT_CONFIG


def test_config_file_overrides_flags(manifest, capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 3}))
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--trials", "1",
                        "--seed", "5", "--config", str(cfg_path))
    assert code == EXIT_OK
    records = [json.loads(s) for s in data_lines(out)]
    assert records[-1]["trials"] == 3


def test_config_file_values_are_parsed_like_flags(manifest, capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": "2", "epsilon": "0.25", "check-balance": True}))
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--seed", "5",
                        "--config", str(cfg_path))
    assert code == EXIT_OK
    records = [json.loads(s) for s in data_lines(out)]
    assert records[-1]["trials"] == 2
    assert all(r["well_balanced"] is not None for r in records[:-1])


@pytest.mark.parametrize("overrides", [
    {"func": "x"},
    {"command": "verify"},
    {"trials": "many"},
    {"trials": 1.5},
    {"sampler": "nope"},
    {"retry": "yes"},
    {"epsilon": None},
    ["trials", 2],
    {"trials": 0},
    {"jobs": 0},
    {"assert-lemmas": True},
])
def test_config_file_bad_key_or_value_is_config_error(manifest, capsys, tmp_path, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(overrides))
    code, _ = run_cli(capsys, "run", "--manifest", manifest, "--config", str(cfg_path))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["run", "--c0", "nan"],
    ["run", "--c0", "inf"],
    ["run", "--sampler", "leverage", "--oversample-c", "nan"],
    ["run", "--sampler", "leverage", "--oversample-c", "inf"],
    ["sweep", "d", "--grid", "2", "--c0", "nan"],
    ["gen", "random", "--n1", "6", "--n2", "2", "--d", "2", "--noise-sigma", "nan"],
    ["gen", "ridge", "--n1", "6", "--d", "2", "--lambda", "1", "--noise-sigma", "nan"],
    ["gen", "kernel", "--n", "6", "--lambda", "1", "--noise-sigma", "nan"],
    ["gen", "kernel", "--n", "6", "--lambda", "1", "--noise-sigma", "inf"],
    ["gen", "kernel", "--n", "6", "--lambda", "inf"],
    ["gen", "kernel", "--n", "6", "--lambda", "nan"],
    ["gen", "ridge", "--n1", "6", "--d", "2", "--lambda", "inf"],
    ["gen", "ridge", "--n1", "6", "--d", "2", "--lambda", "nan"],
    ["gen", "kernel", "--n", "6", "--lambda", "1", "--eig-max", "inf"],
    ["sweep", "d", "--grid", "2", "--n1", "20", "--trials", "2", "--lambda", "nan"],
    ["sweep", "epsilon", "--grid", "0.25", "--n1", "20", "--trials", "2", "--lambda", "inf"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if not a[0].isdigit()))
def test_non_finite_values_are_config_errors(manifest, capsys, tmp_path, argv):
    # NaN passes "<= 0" checks, so each of these used to end in a traceback
    # or, for the generators, in labels that are NaN or silently noise-free.
    # A non-finite lambda or eigenvalue bound failed later under another
    # name or after a RuntimeWarning, and sweep's after its table header.
    flag = next(a for a, value in zip(argv, argv[1:]) if value in ("nan", "inf"))
    if argv[0] == "run":
        argv = [*argv, "--manifest", manifest]
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_CONFIG
    assert data_lines(captured.out) == []
    assert len(err) == 1 and err[0].startswith("error: ")
    assert flag[2:].replace("-", "_") in err[0].replace("-", "_")  # names its parameter
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,config", [
    (["run", "--trials", "0"], None),
    (["run", "--jobs", "0"], None),
    (["verify", "--runs", "0"], None),
    (["verify"], {"runs": 0}),
    (["sweep", "d", "--grid", "4", "--trials", "0"], None),
    (["sweep", "d", "--grid", "4"], {"trials": -1}),
    (["sweep", "lambda", "--grid", "1", "--n1", "-1"], None),
    (["sweep", "lambda", "--grid", "1", "--d", "-1"], None),
])
def test_counts_below_one_are_config_errors(manifest, capsys, tmp_path, argv, config):
    # A count of 0 would print a summary over nothing and exit 0.
    if argv[0] == "run":
        argv = [*argv, "--manifest", manifest]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert data_lines(out) == []


_GOOD_MANIFEST = {"d": 3, "n1": 1, "n2": 1, "path_x1": "x1.csv", "path_x2": "x2.csv",
                  "path_y2": "y2.csv", "path_y1_hidden": "y1.csv"}
_BLOCKS = {"x1.csv": "1,2,3\n", "x2.csv": "4,5,6\n", "y2.csv": "1\n", "y1.csv": "2\n"}
_NPY_MANIFEST = json.dumps({**_GOOD_MANIFEST, "path_x1": "x1.npy"})
_RUN = ("run", "--manifest", "m.json")
_FACTOR_MANIFEST = json.dumps({**_GOOD_MANIFEST, "path_u": "u.npy", "path_sigma": "sigma.csv",
                               "path_v": "v.csv"})


def _npy(arr, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, **kwargs)
    return buf.getvalue()


def _npz() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, x1=np.ones((1, 3)))
    return buf.getvalue()


_GOOD_NPY = _npy(np.array([[1.0, 2.0, 3.0]]))


def _npy_claiming(shape, fortran=False, major=1) -> bytes:
    """A float64 .npy header of format ``major``.0 for ``shape`` followed by one
    row of data.  A 3.0 header is a 2.0 one with its version byte changed."""
    buf = io.BytesIO()
    fmt = np.lib.format
    write = fmt.write_array_header_1_0 if major == 1 else fmt.write_array_header_2_0
    write(buf, {"descr": "<f8", "fortran_order": fortran, "shape": shape})
    header = bytearray(buf.getvalue())
    header[len(np.lib.format.MAGIC_PREFIX)] = major
    return bytes(header) + np.ones(3).tobytes()
_DUMP_WITHOUT_PX1_SUM = "\n".join([
    '{"kind": "header", "gamma": 0.25, "rank": 1, "n_rows": 2, "n_unlabeled": 1, "m": 1}',
    '{"j": 0, "phi_id": 0.25, "sampled_index": 0, "p_j": 0.5, "u_j": 8, "l_j": -8, '
    '"phi_d": 0.1}',
    '{"j": 1, "u_j": 9, "l_j": -7}',
]) + "\n"


def _dump(gamma="0.25", rank="1", phi_id="0.25", sampled_index="0", p_j="0.5", u_j="8",
          m="1", n_rows="2", n_unlabeled="1") -> str:
    """A one-iteration trace dump on 2 rows with the given fields written verbatim."""
    return "\n".join([
        f'{{"kind": "header", "gamma": {gamma}, "rank": {rank}, "n_rows": {n_rows}, '
        f'"n_unlabeled": {n_unlabeled}, "m": {m}}}',
        f'{{"j": 0, "phi_id": {phi_id}, "sampled_index": {sampled_index}, "p_j": {p_j}, '
        f'"u_j": {u_j}, "l_j": -8, "px1_sum": 0.4, "phi_d": 0.1}}',
        '{"j": 1, "u_j": 9, "l_j": -7}',
    ]) + "\n"


@pytest.mark.parametrize("argv,files,bad", [
    (_RUN, {"m.json": '{"d": 3'}, "m.json"),
    (_RUN, {"m.json": json.dumps({k: v for k, v in _GOOD_MANIFEST.items() if k != "d"})},
     "m.json"),
    (_RUN, {**_BLOCKS, "m.json": json.dumps(_GOOD_MANIFEST), "x1.csv": "a,b,c\n"}, "x1.csv"),
    (_RUN, {**_BLOCKS, "m.json": json.dumps({**_GOOD_MANIFEST, "path_y1_hidden": 5})},
     "m.json"),
    (("verify", "--trace-file", "t.jsonl"), {"t.jsonl": '{"kind": "header"}\n'}, "t.jsonl"),
    (("verify", "--trace-file", "t.jsonl"), {"t.jsonl": _DUMP_WITHOUT_PX1_SUM}, "t.jsonl"),
    *((("verify", "--trace-file", "t.jsonl"), {"t.jsonl": _dump(**field)}, "t.jsonl")
      for field in ({"phi_id": "NaN"}, {"u_j": "NaN"}, {"gamma": "0"}, {"gamma": "NaN"},
                    {"rank": "0"}, {"phi_id": "null"}, {"sampled_index": "2"},
                    {"sampled_index": "-1"}, {"p_j": "0"}, {"p_j": "1e-320"},
                    {"p_j": "-0.5"}, {"sampled_index": "0.7"}, {"sampled_index": "true"},
                    {"m": "1.0"}, {"rank": "1.5"}, {"n_rows": "2.5"},
                    {"n_unlabeled": "0.5"}, {"n_unlabeled": "3"}, {"n_unlabeled": "-1"})),
    *((_RUN, {**_BLOCKS, "m.json": _NPY_MANIFEST, "x1.npy": data}, bad) for data, bad in (
        (b"", "x1.npy: not a .npy file"),
        (b"1,2,3\n", "x1.npy: not a .npy file"),
        (_GOOD_NPY[:20], "x1.npy"),
        (_GOOD_NPY[:-8], "x1.npy"),
        (_npy(np.array([[{"a": 1}, 2, 3]], dtype=object), allow_pickle=True), "x1.npy"),
        (_npy(np.array([[1, 2, 3]])), "x1.npy"),
        (_npy(np.array([1.0, 2.0, 3.0])), "x1.npy"),
        (_npy(np.array([[1.0, 2.0]])), "x1.npy"),
        (_npz(), "x1.npy: not a .npy file"),
    )),
    *((_RUN, {**_BLOCKS, "m.json": _NPY_MANIFEST, "x1.npy": _npy_claiming(shape)}, "x1.npy")
      for shape in ((10**12, 3), (-1, 3))),
    *((_RUN, {**_BLOCKS, "m.json": _NPY_MANIFEST, "x1.npy": data}, "x1.npy") for data in (
        _npy_claiming((10**12, 3), fortran=True),
        _npy_claiming((10**12, 3), major=3),
        _npy(np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))[:-8],
    )),
    (_RUN, {**_BLOCKS, "m.json": json.dumps({**_GOOD_MANIFEST, "path_x2": "x2.npy"}),
            "x2.npy": _GOOD_NPY[:-8]}, "x2.npy"),
    (_RUN, {**_BLOCKS, "m.json": _FACTOR_MANIFEST, "u.npy": _GOOD_NPY[:-8],
            "sigma.csv": "1\n", "v.csv": "1\n0\n0\n"}, "u.npy"),
    (_RUN, {**_BLOCKS, "m.json": _FACTOR_MANIFEST, "u.npy": _GOOD_NPY,
            "sigma.csv": "x\n", "v.csv": "1\n0\n0\n"}, "sigma.csv"),
    *((_RUN, {**_BLOCKS, "m.json": json.dumps({**_GOOD_MANIFEST, **count})}, "m.json")
      for count in ({"d": 3.9}, {"n1": "1"}, {"n2": True}, {"d": 3.0})),
], ids=["manifest-not-json", "manifest-without-d", "csv-not-numeric", "path-not-string",
        "dump-without-m", "dump-without-px1-sum", "dump-nan-phi", "dump-nan-u",
        "dump-zero-gamma", "dump-nan-gamma", "dump-zero-rank", "dump-null-phi",
        "dump-index-at-n-rows", "dump-negative-index", "dump-zero-p", "dump-denormal-p",
        "dump-negative-p", "dump-fractional-index", "dump-boolean-index", "dump-float-m",
        "dump-fractional-rank", "dump-fractional-n-rows", "dump-fractional-n-unlabeled",
        "dump-n-unlabeled-above-n-rows", "dump-negative-n-unlabeled",
        "npy-empty", "npy-holding-csv",
        "npy-truncated-header", "npy-truncated-data", "npy-pickled-objects", "npy-int64",
        "npy-1d-for-matrix", "npy-wrong-columns", "npy-holding-npz",
        "npy-header-beyond-the-data", "npy-negative-shape",
        "npy-fortran-header-beyond-the-data", "npy-v3-header-beyond-the-data",
        "npy-fortran-truncated-data", "npy-x2-truncated-data",
        "factor-npy-truncated", "factor-csv-not-numeric", "manifest-fractional-d",
        "manifest-string-n1", "manifest-boolean-n2", "manifest-float-d"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_file_is_config_error(capsys, tmp_path, argv, files, bad):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    *command, target = argv
    code = main([*command, str(tmp_path / target)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ") and bad in err[0]


def test_run_check_balance_works_above_rank_64(capsys, tmp_path):
    code, _ = run_cli(capsys, "gen", "random", "--n1", "130", "--n2", "5", "--d", "65",
                      "--seed", "4", "--out", str(tmp_path))
    assert code == EXIT_OK
    code, out = run_cli(capsys, "run", "--manifest", str(tmp_path / "random_manifest.json"),
                        "--seed", "5", "--check-balance")
    assert code == EXIT_OK
    assert isinstance(json.loads(data_lines(out)[0])["well_balanced"], bool)


def test_assert_lemmas_flag_is_gone(manifest, capsys):
    code, out = run_cli(capsys, "run", "--manifest", manifest, "--assert-lemmas")
    assert code == EXIT_CONFIG
    assert data_lines(out) == []


def test_ssar_seed_env_used_when_flag_absent(manifest, capsys, monkeypatch):
    monkeypatch.setenv("SSAR_SEED", "12345")
    _, out1 = run_cli(capsys, "run", "--manifest", manifest, "--trials", "1")
    monkeypatch.setenv("SSAR_SEED", "54321")
    _, out2 = run_cli(capsys, "run", "--manifest", manifest, "--trials", "1")
    rec1 = json.loads(data_lines(out1)[0])
    rec2 = json.loads(data_lines(out2)[0])
    assert rec1["seed"] != rec2["seed"]


@pytest.mark.parametrize("argv,env", [
    (["sweep", "d", "--grid", "4", "--n1", "20", "--trials", "1", "--seed", "-3"], None),
    (["verify", "--runs", "1", "--d-grid", "4", "--eps-grid", "0.25", "--seed", "-1"], None),
    (["sweep", "d", "--grid", "4", "--n1", "20", "--trials", "1"], "abc"),
    (["gen", "random", "--n1", "10", "--n2", "2", "--d", "2", "--seed", "-1"], None),
])
def test_bad_seed_is_config_error(capsys, monkeypatch, tmp_path, argv, env):
    # A negative or non-integer seed would reach numpy's seeding and end in a traceback.
    if env is not None:
        monkeypatch.setenv("SSAR_SEED", env)
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert data_lines(captured.out) == []
    assert "Traceback" not in captured.err and "seed" in captured.err.lower()


# ---------------------------------------------------------------- verify

def test_verify_small_inline_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--runs", "4", "--d-grid", "4",
                        "--eps-grid", "0.25", "--seed", "1")
    assert code == EXIT_OK
    recs = [json.loads(s) for s in data_lines(out)]
    assert all(r["verdict"] == "pass" for r in recs)


def test_verify_above_the_gamma_cap_is_config_error(capsys, monkeypatch):
    # c0 = 1.5 gives gamma = 1/3 at eps = 0.25: the sampler would run, but the
    # matrix checks refuse, so the grid is refused before its first batch.
    calls = count_calls(monkeypatch, "draw_samples", "regression", "cli")
    code = main(["verify", "--c0", "1.5", "--eps-grid", "0.1,0.25", "--d-grid", "4",
                 "--runs", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert data_lines(captured.out) == []
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("flag", ["--check-balance", "--retry"])
def test_run_above_the_gamma_cap_fails_before_sampling(manifest, capsys, monkeypatch, flag):
    calls = count_calls(monkeypatch, "asura_sample", "asura", "regression", "verify")
    code = main(["run", "--manifest", manifest, "--epsilon", "0.81", flag])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert data_lines(captured.out) == []
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("how", ["flag", "config"])
def test_verify_trace_file_without_paths_is_config_error(capsys, monkeypatch, tmp_path, how):
    calls = count_calls(monkeypatch, "draw_samples", "regression", "cli")
    argv = ["verify", "--runs", "2", "--d-grid", "4", "--eps-grid", "0.25"]
    if how == "flag":
        argv.append("--trace-file")
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"trace-file": []}))
        argv += ["--config", str(config)]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert data_lines(out) == []
    assert calls == []


def test_verify_too_few_statistical_runs_fails_before_the_grid(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "draw_samples", "regression", "cli")
    code = main(["verify", "--statistical-runs", "5"])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


def test_verify_lemma_filter(capsys):
    code, out = run_cli(capsys, "verify", "--runs", "3", "--d-grid", "4",
                        "--eps-grid", "0.25", "--seed", "1",
                        "--lemma", "iteration-cap")
    assert code == EXIT_OK
    recs = [json.loads(s) for s in data_lines(out)]
    assert len(recs) == 1 and recs[0]["lemma_id"] == "iteration-cap"


def test_verify_unknown_lemma_is_config_error(capsys):
    code, _ = run_cli(capsys, "verify", "--runs", "2", "--d-grid", "4",
                      "--eps-grid", "0.25", "--seed", "1", "--lemma", "nope")
    assert code == EXIT_CONFIG


def test_verify_corrupted_trace_fixture_fails(capsys, tmp_path):
    import dataclasses

    from ssar.asura import AsuraConfig, asura_sample
    from ssar.instances import gen_random_instance

    ds, _ = gen_random_instance(12, 4, 4, 1.0, seed=6)
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25), 6)
    u = trace.u.copy()
    u[-1] = trace.l[-1] + 10 * trace.rank / trace.gamma
    path = tmp_path / "bad_trace.jsonl"
    dump_trace(path, dataclasses.replace(trace, u=u))

    code, out = run_cli(capsys, "verify", "--trace-file", str(path))
    assert code == EXIT_HARD_FAIL
    recs = {r["lemma_id"]: r for r in map(json.loads, data_lines(out))}
    assert recs["gap-bound"]["verdict"] == "fail"

    # A clean dump passes with exit 0.
    good = tmp_path / "good_trace.jsonl"
    dump_trace(good, trace)
    code, _ = run_cli(capsys, "verify", "--trace-file", str(good))
    assert code == EXIT_OK


def _dump_a_run(manifest, path, p_scale=1.0):
    """Dump one run on the ``manifest`` instance, its last step scaled by ``1 / p_scale``."""
    ds, _ = load_dataset(manifest)
    _, trace = asura_sample(ds, AsuraConfig(epsilon=0.25), 8)
    p_j = trace.p_j.copy()
    p_j[-1] *= p_scale
    dump_trace(path, replace(trace, p_j=p_j))
    return str(path)


def test_verify_trace_file_with_its_manifest_runs_every_hard_check(manifest, capsys, tmp_path):
    good = _dump_a_run(manifest, tmp_path / "good.jsonl")
    code, out = run_cli(capsys, "verify", "--trace-file", good, "--manifest", manifest)
    recs = {r["lemma_id"]: r for r in map(json.loads, data_lines(out))}
    assert code == EXIT_OK
    assert set(recs) == set(HARD_LEMMA_IDS)
    assert all(r["verdict"] == "pass" and r["runs"] == 1 for r in recs.values())

    # A step 50 times too large reaches the matrix checks only with the manifest.
    bad = _dump_a_run(manifest, tmp_path / "bad.jsonl", p_scale=1 / 50)
    code, out = run_cli(capsys, "verify", "--trace-file", bad, "--manifest", manifest)
    recs = {r["lemma_id"]: r for r in map(json.loads, data_lines(out))}
    assert code == EXIT_HARD_FAIL
    assert recs["step-upper"]["verdict"] == recs["barrier-containment"]["verdict"] == "fail"
    code, out = run_cli(capsys, "verify", "--trace-file", bad)
    assert code == EXIT_OK
    assert {r["lemma_id"] for r in map(json.loads, data_lines(out))} == {
        "iteration-cap", "potential-floor", "gap-bound",
    }


def test_verify_writes_a_failing_step_check_as_strict_json(manifest, capsys, tmp_path):
    # A failing step check's statistic is inf: stdout and --out write it as null.
    bad = _dump_a_run(manifest, tmp_path / "bad.jsonl", p_scale=1 / 50)
    out_path = tmp_path / "rep.jsonl"
    code, out = run_cli(capsys, "verify", "--trace-file", bad, "--manifest", manifest,
                        "--out", str(out_path))
    assert code == EXIT_HARD_FAIL
    lines = data_lines(out)
    assert lines == out_path.read_text().splitlines()
    strict = [json.loads(s, parse_constant=lambda c: pytest.fail(f"{c} is not JSON")) for s in lines]
    recs = {r["lemma_id"]: r for r in strict}
    assert recs["step-upper"]["verdict"] == "fail"
    assert recs["step-upper"]["statistic"] is None
    assert recs["step-upper"]["worst_margin"] is None


def test_verify_manifest_that_does_not_fit_the_dumps_is_config_error(manifest, capsys, tmp_path):
    # Factors of another instance, or a manifest with no dumps to check.
    dump = _dump_a_run(manifest, tmp_path / "trace.jsonl")
    assert main(["gen", "random", "--n1", "60", "--n2", "15", "--d", "3", "--seed", "7",
                 "--out", str(tmp_path / "other")]) == EXIT_OK
    other = str(tmp_path / "other" / "random_manifest.json")
    capsys.readouterr()
    for argv in (["--trace-file", dump, "--manifest", other], ["--manifest", manifest]):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert data_lines(captured.out) == []
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


# ---------------------------------------------------------------- sweep

def test_sweep_lambda_monotone(capsys):
    code, out = run_cli(capsys, "sweep", "lambda", "--grid", "0,1,4",
                        "--n1", "150", "--d", "4", "--trials", "25", "--seed", "2")
    assert code == EXIT_OK
    assert "# monotone trend: True" in out
    assert "# all points within query bound: True" in out


def test_sweep_epsilon_axis_within_bound(capsys):
    code, out = run_cli(capsys, "sweep", "epsilon", "--grid", "0.4,0.2,0.1",
                        "--n1", "150", "--d", "4", "--lambda", "1",
                        "--trials", "20", "--seed", "4")
    assert code == EXIT_OK
    assert "# monotone trend: True" in out
    assert "# all points within query bound: True" in out


def test_sweep_factors_each_grid_point_once(capsys, monkeypatch):
    svd_calls = count_calls(monkeypatch, "thin_svd", "core", "regression", "cli")
    code, _ = run_cli(capsys, "sweep", "d", "--grid", "2,3", "--n1", "30",
                      "--trials", "2", "--seed", "1")
    assert code == EXIT_OK
    assert svd_calls == [1, 1]


@pytest.mark.parametrize("argv", [
    ["lambda", "--grid", "1,-1", "--n1", "50", "--d", "2", "--trials", "2"],
    ["epsilon", "--grid", "0.25,0.9", "--c0", "1"],
], ids=["negative-lambda", "gamma-at-one-half"])
def test_sweep_checks_every_grid_point_before_the_first(capsys, monkeypatch, argv):
    # Each bad point used to surface only when the sweep reached it, after
    # the table header and any earlier point's row had been printed.
    calls = count_calls(monkeypatch, "draw_samples", "regression", "cli")
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert data_lines(captured.out) == []
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("command,flag,value", [
    ("verify", "--d-grid", "a"),
    ("verify", "--d-grid", "2.5"),
    ("verify", "--d-grid", "0"),
    ("verify", "--d-grid", ","),
    ("verify", "--eps-grid", "x"),
    ("verify", "--eps-grid", "nan"),
    ("sweep d", "--grid", "4,x"),
    ("sweep d", "--grid", "2.5"),
    ("sweep d", "--grid", "-4"),
    ("sweep lambda", "--grid", ","),
    ("sweep lambda", "--grid", ""),
], ids=["d-not-numeric", "d-fractional", "d-zero", "d-empty", "eps-not-numeric",
        "eps-nan", "sweep-not-numeric", "sweep-d-fractional", "sweep-d-negative",
        "sweep-comma-only", "sweep-empty"])
def test_bad_or_empty_grid_is_config_error(capsys, tmp_path, command, flag, value):
    # An empty grid used to exit 0 having checked nothing.
    code, out = run_cli(capsys, *command.split(), flag, value)
    assert code == EXIT_CONFIG
    assert data_lines(out) == []
    # The same value from a config file takes the same path.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({flag.lstrip("-"): value}))
    code, out = run_cli(capsys, *command.split(), flag, "1", "--config", str(cfg_path))
    assert code == EXIT_CONFIG
    assert data_lines(out) == []


def test_main_keeps_one_parser_and_resolves_each_call_afresh(manifest, capsys, tmp_path,
                                                             monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 2, "epsilon": 0.2, "check-balance": True}))
    calls = [["run", "--manifest", manifest, "--seed", "5"],
             ["run", "--manifest", manifest, "--seed", "5", "--config", str(cfg_path)]]

    def config_line(argv):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        return out.splitlines()[0]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [config_line(argv) for argv in calls]
    assert json.loads(fresh[1].removeprefix("# config "))["check_balance"] is True
    assert [config_line(argv) for argv in calls + calls] == fresh + fresh
    assert cli.build_parser() is cli.build_parser()


def test_grid_from_config_file_takes_the_printed_form(capsys, tmp_path):
    argv = ["verify", "--runs", "1", "--seed", "1"]
    code, out = run_cli(capsys, *argv, "--d-grid", "4", "--eps-grid", "0.25")
    printed = json.loads(out.splitlines()[0].removeprefix("# config "))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({k: printed[k] for k in ("d_grid", "eps_grid")}))
    code2, out2 = run_cli(capsys, *argv, "--config", str(cfg_path))
    assert code == code2 == EXIT_OK
    assert data_lines(out2) == data_lines(out)


def test_cli_entry_point_runs_as_module():
    # The child finds ssar where this process did, installed or not.
    import ssar

    path = [os.path.dirname(os.path.dirname(ssar.__file__)), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "ssar.cli", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "sweep" in proc.stdout
