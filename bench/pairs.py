"""Compare two checkouts on one workload in alternating pairs of benchmark runs.

Usage (from the repository root)::

    python3 bench/pairs.py PARENT CHANGE --workload verify-grid --pairs 10 --seconds 20

Runs ``perfbench/run.py`` of checkout ``PARENT`` and of checkout ``CHANGE``
one after the other, each run in its own process, ``--pairs`` times.  Pair
``k``, counted from 0, runs both sides at seed ``--first-seed + k``, so the
two runs of a pair see the same calls and different pairs see different
ones; the side that goes first alternates from pair to pair, so a drift of
the machine's speed does not favour one side.  For each pair it prints both values of
``--metric`` (default ``runs_per_s``), their ratio, whether the change won,
tied or lost, and both ``outputs_sha256`` digests; then the change's win and
tie counts and the median of each side, and each side's median of every
end-to-end metric that ``BENCHMARK.json`` lists, so one comparison also
shows whether any other metric moved.  Each such line also gives the
distance between the quartiles of the parent's runs, and ends in ``WORSE``
where the change's median is worse than the parent's by more than the
metric's relative ``bound``.  Under each such line an evidence line gives,
change over parent: the ratio of each side's best run (its minimum, or its
maximum where higher is better), the estimate that one-sided noise disturbs
least; the median per-pair ratio over the pairs where the parent ran first
and over those where the change ran first, which shows an order effect; and
a bootstrap 95% interval of the median per-pair ratio over all pairs, from
a fixed seed.  The ``WORSE`` flag reads none of these.  Whether higher or
lower wins, which metrics are end to end, and their bounds come from the
``BENCHMARK.json`` of ``CHANGE``.
A run that exits non-zero or fails its output checks stops the comparison
with exit code 1.
Each run leaves its record in its checkout's ``perfbench/out/``.  From it
the comparison last prints each side's median ``import_s`` and median
``setup_times_s`` (each run's median warm-up call), the two parts of
``setup_s``, so a move of ``setup_s`` shows whether the import or the
warm-up call moved.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process; returns its result line and its digest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed}: exit code {done.returncode}: "
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} seed {seed}: output checks failed: {done.stderr.strip()}")
    digest = re.search(r"outputs_sha256=(\S+)", done.stdout)
    if digest is None:
        raise RuntimeError(f"{checkout} seed {seed}: no outputs_sha256 in its output")
    metrics = {**result["metrics"], **setup_split(checkout, workload, seed, trace)}
    return {"metrics": metrics, "digest": digest.group(1)}


def setup_split(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The two parts of a run's ``setup_s`` as metric records, read from the
    record the run left in ``perfbench/out/``: ``import_s`` and the median of
    its ``setup_times_s``."""
    with open(checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    return {"import_s": {"value": record["import_s"]},
            "setup_times_s": {"value": statistics.median(record["setup_times_s"])}}


def read_spec(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as fh:
        return json.load(fh)


def higher_is_better(spec: dict, metric: str) -> bool:
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == metric:
            return entry["better"] == "higher"
    raise RuntimeError(f"BENCHMARK.json lists no metric {metric!r}")


def compare(args, spec: dict) -> tuple[list, dict]:
    """Run the pairs and print one line each; returns each pair's outcome for
    the change (``win``, ``tie`` or ``loss``) and each side's list of metric
    records, one per pair."""
    higher = higher_is_better(spec, args.metric)
    sides = {"parent": args.parent, "change": args.change}
    outcomes, records = [], {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {side: run_once(sides[side], args.workload, seed, args.seconds, args.trace)
                for side in order}
        if any(args.metric not in run["metrics"] for run in runs.values()):
            raise RuntimeError(f"the runs report no {args.metric!r}; "
                               "per-layer metrics need --trace 1")
        old, new = (runs[side]["metrics"][args.metric]["value"] for side in ("parent", "change"))
        outcome = "tie" if new == old else "win" if (new > old) == higher else "loss"
        outcomes.append(outcome)
        for side in sides:
            records[side].append(runs[side]["metrics"])
        ratio = new / old if old else float("inf")
        same = "same" if runs["parent"]["digest"] == runs["change"]["digest"] else "differ"
        print(f"pair {k + 1} seed {seed} ({order[0]} first): parent {old:.6g}, change {new:.6g}, "
              f"{ratio:.3f}x, {outcome}; outputs_sha256 {same} "
              f"({runs['parent']['digest'][:12]} / {runs['change']['digest'][:12]})", flush=True)
    return outcomes, records


def medians(records: dict, metric: str) -> str:
    """``parent P, change C (ratio)``: each side's median of ``metric``."""
    old, new = (statistics.median(run[metric]["value"] for run in records[side])
                for side in ("parent", "change"))
    return f"parent {old:.6g}, change {new:.6g} ({new / old if old else float('inf'):.3f}x)"


def end_to_end(records: dict, entry: dict) -> str:
    """``medians``, then the distance between the quartiles of the parent's
    runs, then ``WORSE`` if the change's median is worse than the parent's by
    more than the entry's relative ``bound``."""
    name = entry["name"]
    old, new = ([run[name]["value"] for run in records[side]] for side in ("parent", "change"))
    q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else old * 3
    line = f"{medians(records, name)}; parent IQR {q3 - q1:.3g}"
    bound = entry.get("bound")
    if bound is not None:
        old, new = statistics.median(old), statistics.median(new)
        worse = new < old * (1 - bound) if entry["better"] == "higher" else new > old * (1 + bound)
        if worse:
            line += f"; WORSE by more than its bound {bound}"
    return line


def evidence(records: dict, entry: dict) -> str:
    """The best-run ratio, the median per-pair ratio by which side ran first,
    and a bootstrap 95% interval of the median per-pair ratio (2,000
    resamples of the pairs from seed 0), each change over parent."""
    name = entry["name"]
    old, new = ([run[name]["value"] for run in records[side]] for side in ("parent", "change"))
    best, word = (max, "maximum") if entry["better"] == "higher" else (min, "minimum")
    ratios = [b / a if a else float("inf") for a, b in zip(old, new)]
    best_ratio = best(new) / best(old) if best(old) else float("inf")
    # compare() runs the parent first in the pairs counted 0, 2, 4, ...
    by_order = [f"{statistics.median(part):.3f}x {side} first"
                for part, side in ((ratios[0::2], "parent"), (ratios[1::2], "change")) if part]
    rng = random.Random(0)
    boot = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(2000))
    return (f"ratio of each side's {word} {best_ratio:.3f}x; "
            f"median per-pair ratio {', '.join(by_order)}; bootstrap 95% interval of the "
            f"median per-pair ratio {boot[50]:.3f}x to {boot[1949]:.3f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--metric", default="runs_per_s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    try:
        spec = read_spec(args.change)
        outcomes, records = compare(args, spec)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} {args.metric}: change wins {outcomes.count('win')} of {args.pairs}, "
          f"{outcomes.count('tie')} tied; median {medians(records, args.metric)}")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if all(name in run for side in records.values() for run in side):
            print(f"  end to end, median {name}: {end_to_end(records, entry)}")
            print(f"    evidence, {name}: {evidence(records, entry)}")
    for name in ("import_s", "setup_times_s"):
        if all(name in run for side in records.values() for run in side):
            print(f"  setup_s split, median {name}: {medians(records, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
