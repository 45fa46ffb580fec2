"""Compare two checkouts on one workload in alternating pairs of benchmark runs.

Usage (from the repository root)::

    python3 bench/pairs.py PARENT CHANGE --workload verify-grid --pairs 10 --seconds 20

Runs ``perfbench/run.py`` of checkout ``PARENT`` and of checkout ``CHANGE``
one after the other, each run in its own process, ``--pairs`` times.  Pair
``k``, counted from 0, runs both sides at seed ``--first-seed + k``, so the
two runs of a pair see the same calls and different pairs see different
ones; the side that goes first alternates from pair to pair, so a drift of
the machine's speed does not favour one side.  For each pair it prints both values of
``--metric`` (default ``runs_per_s``), their ratio, which side won and both
``outputs_sha256`` digests; then the change's win count and the median of
each side.  Whether higher or lower wins comes from the ``BENCHMARK.json``
of ``CHANGE``.  A run that exits non-zero or fails its output checks stops
the comparison with exit code 1.  Each run leaves its record in its
checkout's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
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
    return {"metrics": result["metrics"], "digest": digest.group(1)}


def higher_is_better(checkout: Path, metric: str) -> bool:
    with open(checkout / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == metric:
            return entry["better"] == "higher"
    raise RuntimeError(f"{checkout}/BENCHMARK.json lists no metric {metric!r}")


def compare(args) -> tuple[int, list, list]:
    """Run the pairs and print one line each; returns the win count and both sides' values."""
    higher = higher_is_better(args.change, args.metric)
    sides = {"parent": args.parent, "change": args.change}
    wins, values = 0, {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {side: run_once(sides[side], args.workload, seed, args.seconds, args.trace)
                for side in order}
        if any(args.metric not in run["metrics"] for run in runs.values()):
            raise RuntimeError(f"the runs report no {args.metric!r}; "
                               "per-layer metrics need --trace 1")
        old, new = (runs[side]["metrics"][args.metric]["value"] for side in ("parent", "change"))
        won = new > old if higher else new < old
        wins += won
        values["parent"].append(old)
        values["change"].append(new)
        ratio = new / old if old else float("inf")
        same = "same" if runs["parent"]["digest"] == runs["change"]["digest"] else "differ"
        print(f"pair {k + 1} seed {seed} ({order[0]} first): parent {old:.6g}, change {new:.6g}, "
              f"{ratio:.3f}x, {'win' if won else 'loss'}; outputs_sha256 {same} "
              f"({runs['parent']['digest'][:12]} / {runs['change']['digest'][:12]})", flush=True)
    return wins, values["parent"], values["change"]


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
        wins, old, new = compare(args)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    old_median, new_median = statistics.median(old), statistics.median(new)
    print(f"{args.workload} {args.metric}: change wins {wins} of {args.pairs}; "
          f"median parent {old_median:.6g}, change {new_median:.6g} "
          f"({new_median / old_median if old_median else float('inf'):.3f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
