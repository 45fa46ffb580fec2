"""Run every workload once and print each metric by name, with its unit.

Usage (from the repository root)::

    python3 perfbench/report.py --seed 1 --seconds 10 [--trace 1]

Each workload runs in its own process, one after another, so set-up time and
peak RSS are the workload's own.  ``failed_share`` is ``failed / attempted``
over every CLI call the run issued.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    print(f"{'workload':<12} {'metric':<36} {'value':>14}  unit")
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name:<12} failed with exit code {done.returncode}: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows.append(("failed_share", result["failed"] / result["attempted"], "share"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<36} {value:>14.6g}  {unit}")
        if not result["correct"]:
            print(f"{name:<12} output checks failed:\n{done.stderr.strip()}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
