"""Write one point of the benchmark trajectory, ``BENCH_<LABEL>.json``.

Usage (from the repository root)::

    python3 bench/snapshot.py LABEL [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (by default, this repository) for
every workload its ``BENCHMARK.json`` lists, at seed 1 for 20 s, once at
``--trace 0`` and once at ``--trace 1``, each in its own process and one after
another.  The checkout must be a git work tree whose tracked files match its
commit, so that every snapshot names the code it measured.  The file goes to
the root of this repository.  It holds the machine record of the first run
(CPU, caches, Python, numpy, BLAS and its thread count), the checkout's commit,
the settings, and for every run its check counts, its ``outputs_sha256`` and
every metric with its unit.  Two snapshots compare only when their machine
records agree, the BLAS thread count above all.  A run that fails to set up or
to check its outputs writes no file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = (0, 1)
SEED = 1
SECONDS = 20.0


def run_once(checkout: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` process; returns the full record it wrote."""
    stem = f"{workload}-seed{SEED}-trace{trace}"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{stem}: exit code {done.returncode}: {done.stderr.strip()}")
    with open(checkout / "perfbench" / "out" / f"{stem}.json") as fh:
        record = json.load(fh)
    if not record["result"]["correct"]:
        raise RuntimeError(f"{stem}: output checks failed: {record['failures']}")
    return record


def clean_commit(checkout: Path) -> str:
    """The checkout's commit; raises if it is not a git work tree or its tracked files differ."""
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        raise RuntimeError(f"{checkout}: not a git work tree: {head.stderr.strip()}")
    status = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                             "--untracked-files=no"], capture_output=True, text=True)
    if status.returncode != 0 or status.stdout.strip():
        raise RuntimeError(f"{checkout}: tracked files differ from the commit; "
                           "commit them or snapshot a clean clone with --checkout")
    return head.stdout.strip()


def snapshot(label: str, checkout: Path) -> dict:
    commit = clean_commit(checkout)
    with open(checkout / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    records = [run_once(checkout, name, trace) for name in workloads for trace in TRACES]
    return {
        "label": label,
        "commit": commit,
        "seed": SEED,
        "seconds": SECONDS,
        "machine": records[0]["machine"],
        "runs": [
            {
                "workload": rec["workload"],
                "trace": rec["trace"],
                "attempted": rec["result"]["attempted"],
                "failed": rec["result"]["failed"],
                "outputs_sha256": rec["outputs_sha256"],
                "metrics": rec["result"]["metrics"],
            }
            for rec in records
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the source tree whose perfbench/run.py is run")
    args = parser.parse_args(argv)
    try:
        snap = snapshot(args.label, args.checkout.resolve())
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(snap, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
