import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts whose BENCHMARK.json lists one higher-is-better metric."""
    sides = {}
    for name in ("parent", "change"):
        root = tmp_path / name
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "runs_per_s", "better": "higher"}],
            "per_layer": [{"name": "x.self_s", "better": "lower"}],
        }))
        sides[name] = root
    return sides


def _fake_runs(monkeypatch, values):
    """Stand in for perfbench: ``values[side][seed]`` is the side's runs_per_s."""
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, seed))
        return {"metrics": {"runs_per_s": {"value": values[side][seed]}}, "digest": f"d{seed}"}

    monkeypatch.setattr(pairs, "run_once", run_once)
    return calls


def test_pairs_alternate_the_first_side_and_count_the_change_wins(checkouts, monkeypatch, capsys):
    values = {"parent": {5: 10.0, 6: 10.0, 7: 10.0}, "change": {5: 12.0, 6: 9.0, 7: 14.0}}
    calls = _fake_runs(monkeypatch, values)
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w",
            "--pairs", "3", "--first-seed", "5"]
    assert pairs.main(argv) == 0
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(", ")[3].split(";")[0] for line in out[:3]] == ["win", "loss", "win"]
    assert out[3] == ("w runs_per_s: change wins 2 of 3, 0 tied; "
                      "median parent 10, change 12 (1.200x)")


def test_pairs_refuse_a_metric_the_runs_do_not_report(checkouts, monkeypatch, capsys):
    _fake_runs(monkeypatch, {"parent": {1: 1.0}, "change": {1: 1.0}})
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w",
            "--pairs", "1", "--metric", "x.self_s"]
    assert pairs.main(argv) == 1
    assert "per-layer metrics need --trace 1" in capsys.readouterr().err


def test_pairs_print_each_sides_median_of_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "runs_per_s", "better": "higher"},
                           {"name": "setup_s", "better": "lower"},
                           {"name": "peak_rss_mb", "better": "lower"}],
            "per_layer": [],
        }))
    setup = {"parent": {1: 0.3, 2: 0.5, 3: 0.4}, "change": {1: 0.2, 2: 0.1, 3: 0.3}}

    def run_once(checkout, workload, seed, seconds, trace):
        side = checkout.name
        metrics = {"runs_per_s": 10.0 + seed, "setup_s": setup[side][seed]}
        if side == "change":
            metrics["peak_rss_mb"] = 80.0  # the parent does not report it
        return {"metrics": {k: {"value": v} for k, v in metrics.items()}, "digest": "d"}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "3", "--metric", "setup_s"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "w setup_s: change wins 3 of 3, 0 tied; median parent 0.4, change 0.2 (0.500x)"
    assert out[4:] == [
        "  end to end, median runs_per_s: parent 12, change 12 (1.000x); parent IQR 1",
        "    evidence, runs_per_s: ratio of each side's maximum 1.000x; median per-pair ratio "
        "1.000x parent first, 1.000x change first; bootstrap 95% interval of the median "
        "per-pair ratio 1.000x to 1.000x",
        "  end to end, median setup_s: parent 0.4, change 0.2 (0.500x); parent IQR 0.1",
        # Per-pair ratios 0.667, 0.2 and 0.75; the change ran first in pair 2.
        "    evidence, setup_s: ratio of each side's minimum 0.333x; median per-pair ratio "
        "0.708x parent first, 0.200x change first; bootstrap 95% interval of the median "
        "per-pair ratio 0.200x to 0.750x",
    ]


def test_pairs_split_setup_s_into_the_import_and_the_warm_up_call(tmp_path, monkeypatch, capsys):
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "runs_per_s", "better": "higher", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}],
            "per_layer": [],
        }))
    split = {"parent": (0.10, [0.04, 0.05, 0.09]), "change": (0.08, [0.07, 0.06, 0.02])}
    # The change ties the first pair and loses the other two by 30%.
    runs_per_s = {"parent": {1: 10.0, 2: 10.0, 3: 12.0}, "change": {1: 10.0, 2: 7.0, 3: 7.0}}

    def perfbench(argv, cwd, **kwargs):
        """Stand in for one ``perfbench/run.py`` process: its record and its result line."""
        workload, seed, trace = (argv[argv.index(flag) + 1]
                                 for flag in ("--workload", "--seed", "--trace"))
        import_s, setup_times = split[Path(cwd).name]
        import_s += int(seed) / 100
        record = {"import_s": import_s, "setup_times_s": setup_times}
        out = Path(cwd) / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
        out.write_text(json.dumps(record))
        setup_s = import_s + sorted(setup_times)[1]
        metrics = {"setup_s": setup_s, "runs_per_s": runs_per_s[Path(cwd).name][int(seed)]}
        result = {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}
        stdout = f"# {workload} seed={seed} outputs_sha256=abc\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", perfbench)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "3"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(", ")[3].split(";")[0] for line in out[:3]] == ["tie", "loss", "loss"]
    assert out[3] == "w runs_per_s: change wins 0 of 3, 1 tied; median parent 10, change 7 (0.700x)"
    assert out[4:] == [
        "  end to end, median runs_per_s: parent 10, change 7 (0.700x); parent IQR 1; "
        "WORSE by more than its bound 0.25",
        # Best runs 12 and 10; per-pair ratios 1, 0.7 and 0.583, the parent
        # first in pairs 1 and 3; a resampled median of 3 ratios is one of them.
        "    evidence, runs_per_s: ratio of each side's maximum 0.833x; median per-pair ratio "
        "0.792x parent first, 0.700x change first; bootstrap 95% interval of the median "
        "per-pair ratio 0.583x to 1.000x",
        "  end to end, median setup_s: parent 0.17, change 0.16 (0.941x); parent IQR 0.01",
        # setup_s reads 0.16, 0.17, 0.18 against 0.15, 0.16, 0.17.
        "    evidence, setup_s: ratio of each side's minimum 0.938x; median per-pair ratio "
        "0.941x parent first, 0.941x change first; bootstrap 95% interval of the median "
        "per-pair ratio 0.938x to 0.944x",
        "  setup_s split, median import_s: parent 0.12, change 0.1 (0.833x)",
        "  setup_s split, median setup_times_s: parent 0.05, change 0.06 (1.200x)",
    ]
