import importlib.util
import json
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
    assert out[3] == "w runs_per_s: change wins 2 of 3; median parent 10, change 12 (1.200x)"


def test_pairs_refuse_a_metric_the_runs_do_not_report(checkouts, monkeypatch, capsys):
    _fake_runs(monkeypatch, {"parent": {1: 1.0}, "change": {1: 1.0}})
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w",
            "--pairs", "1", "--metric", "x.self_s"]
    assert pairs.main(argv) == 1
    assert "per-layer metrics need --trace 1" in capsys.readouterr().err
