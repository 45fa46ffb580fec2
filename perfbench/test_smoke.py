"""Smoke test of the benchmark harness on tiny shapes of all four workloads.

Run from the repository root (it is not part of the tier-1 suite)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Outcome, run_workload, sweep_workload, verify_workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "run-tall": run_workload(
        "run-tall", ("gen", "random", "--n1", "200", "--n2", "20", "--d", "4"),
        trials=2, quality_calls=2,
    ),
    "run-kernel": run_workload(
        "run-kernel", ("gen", "kernel", "--n", "60", "--rank", "5", "--lambda", "1"),
        trials=2, quality_calls=2,
    ),
    "verify-grid": verify_workload("verify-grid", (4,), (0.25,), runs=2, quality_calls=1),
    "sweep-wide": sweep_workload("sweep-wide", (4, 8), n1=200, trials=2, quality_calls=1),
}


@pytest.fixture(scope="module")
def cli():
    module, _ = run.load_program()
    return module


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) == set(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert all(TINY[name].kind == wl.kind for name, wl in WORKLOADS.items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_is_correct_and_repeatable(cli, tmp_path, name):
    first = run.bench(cli, 0.1, TINY[name], seed=3, seconds=0.0, trace=False, out_dir=tmp_path)
    result = first["result"]
    assert result["correct"], first["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())

    again = run.bench(cli, 0.1, TINY[name], seed=3, seconds=0.0, trace=False, out_dir=tmp_path)
    assert again["outputs_sha256"] == first["outputs_sha256"]
    for key in ("queries_per_run", "loss_ratio"):
        assert again["result"]["metrics"][key] == result["metrics"][key]
    other = run.bench(cli, 0.1, TINY[name], seed=4, seconds=0.0, trace=False, out_dir=tmp_path)
    assert other["outputs_sha256"] != first["outputs_sha256"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(cli, tmp_path, name):
    record = run.bench(cli, 0.1, TINY[name], seed=3, seconds=0.0, trace=True, out_dir=tmp_path)
    assert record["result"]["correct"], record["failures"]
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    assert {k: v["unit"] for k, v in record["result"]["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["cli.main.calls"] == TINY[name].quality_calls
    assert (tmp_path / f"{name}-seed3-trace1-spans.jsonl").is_file()
    if TINY[name].kind == "run":
        assert metrics["dataio.load_dataset.calls"] >= 1
        assert 0 < metrics["regression.label.billed_share"] <= 1
    else:
        assert metrics["dataio.load_dataset.calls"] == 0
    assert metrics["asura.iterations"] > 0


def test_failed_calls_count_and_stay_in_the_denominator(cli):
    session = run.Session(cli, TINY["run-tall"], seed=3)
    call = session.invoke(["run", "--manifest", "no/such/manifest.json", "--seed", "1"], 1)
    assert call.rc == 3 and call.outcome.failures
    assert session.attempted == 1 and len(session.failures) == 1


def _run_output(ratio=1.05, billed=5, failed_trials=0, error=False):
    trial = {"seed": 1, "m": 9, "queries_billed": billed, "queries_iteration_level": 6,
             "ratio": ratio}
    lines = [json.dumps(trial)]
    if error:
        lines.append(json.dumps({"seed": 2, "sampler": "asura", "error": "boom"}))
    trials = 2 if error else 1
    lines.append(json.dumps({"kind": "summary", "trials": trials, "failed_trials": failed_trials}))
    return "\n".join(lines), trials


@pytest.mark.parametrize(
    "kwargs, expect_failure",
    [
        ({}, False),
        ({"ratio": 0.5}, True),
        ({"ratio": float("inf")}, True),
        ({"billed": 7}, True),
        ({"failed_trials": 1}, True),
        ({"error": True, "failed_trials": 1}, True),
    ],
)
def test_run_checks(kwargs, expect_failure):
    stdout, trials = _run_output(**kwargs)
    outcome = TINY["run-tall"].check(0, stdout, trials)
    assert bool(outcome.failures) == expect_failure


def test_verify_and_sweep_checks():
    ids = sorted(TINY["verify-grid"].check(0, "", 2).failures)
    assert ids, "missing check records must fail"
    failing = json.dumps({"lemma_id": "gap-bound", "violations": 1, "worst_margin": 1.0,
                          "statistic": 1.0, "verdict": "fail", "runs": 2})
    assert any("gap-bound" in f for f in TINY["verify-grid"].check(0, failing, 2).failures)

    header = "point\tr_x\tr_over_eps\tmean_queries\tse_queries\tbound"
    table = f"{header}\nd=4\t2\t8\t10\t1\t100\n"
    sweep = TINY["sweep-wide"]
    assert sweep.check(0, table + "# all points within query bound: True\n", 2).failures == []
    assert sweep.check(0, table + "# all points within query bound: False\n", 2).failures
    assert sweep.check(2, table + "# all points within query bound: True\n", 2).runs == 0
    assert isinstance(sweep.check(0, "", 2), Outcome)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "run-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
