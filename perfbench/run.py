"""Benchmark of the ssar CLI, driven in-process through ``ssar.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-tall --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, not from an
installed copy.  ``--trace 0`` times the workload from outside and prints the
end-to-end metrics; ``--trace 1`` replays the first calls with a span around
the public function at each module boundary and prints the per-layer metrics.
Every call's output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
fuller record (machine, per-call times, seeded outputs and their digest) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from machine import machine_record
from tracing import LAYERS, ROOT, Tracer
from workloads import WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is repeated and its median reported, so one slow repetition does not
# decide the figure.  The traced run reports no set-up time and sets up once.
SETUP_REPS = 3
# Reported for queries_per_run / loss_ratio on workloads whose CLI output
# carries no label count or loss ratio (verify-grid; loss on sweep-wide).
NOT_REPORTED = 1.0
SELF_TIME_TOL_S = 1e-6

E2E_UNITS = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "queries_per_run": "labels",
    "loss_ratio": "ratio",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The workload's instance could not be made, so nothing can be measured."""


@dataclass
class Call:
    argv: list
    seconds: float
    rc: object
    outcome: Outcome


def load_program():
    """Import ssar from ``src/``; returns the CLI module and the seconds it took."""
    if not (SRC / "ssar" / "__init__.py").is_file():
        raise ImportError(f"no ssar package under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (its import is part of what a user waits for)
    from ssar import cli

    return cli, time.perf_counter() - start


class Session:
    """Issues checked CLI calls for one workload and counts what failed."""

    def __init__(self, cli, workload: Workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, argv, runs: int, main=None, check=None) -> Call:
        out, err = StringIO(), StringIO()
        main = self.cli.main if main is None else main
        # Each call starts without the previous call's garbage, as a fresh
        # `ssar` process would, so peak RSS does not depend on collector timing.
        gc.collect()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # a traceback is a failed call, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        try:
            if check is None:
                outcome = self.workload.check(rc, out.getvalue(), runs)
            else:
                outcome = check(rc, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(failures=[f"unparsable output: {type(exc).__name__}: {exc}"])
        if err.getvalue().strip():
            outcome.failures.append(f"stderr: {err.getvalue().strip()[:200]}")
        self.attempted += 1
        if outcome.failures:
            self.failures.append(f"{' '.join(argv[:2])}: {'; '.join(outcome.failures)}")
        return Call(list(argv), seconds, rc, outcome)

    def setup(self, work_dir: Path, reps: int):
        """Generate and write the instance, then one warm-up call; ``reps`` times."""
        wl, manifest, times = self.workload, None, []
        for i in range(reps):
            start = time.perf_counter()
            if wl.gen:
                made = self.invoke(wl.gen_argv(self.seed, str(work_dir / f"inst{i}")), 0,
                                   check=_check_gen)
                if made.outcome.failures:
                    raise SetupError("; ".join(made.outcome.failures))
                manifest = made.outcome.outputs[0]
            self.invoke(wl.warmup_argv(self.seed, manifest), wl.warmup_runs)
            times.append(time.perf_counter() - start)
        return manifest, times

    def loop(self, manifest, seconds: float, min_calls: int) -> list[Call]:
        """Closed loop: issue calls until ``seconds`` pass and ``min_calls`` are done."""
        calls: list[Call] = []
        start = time.perf_counter()
        while len(calls) < min_calls or time.perf_counter() - start < seconds:
            argv = self.workload.call_argv(self.seed, len(calls), manifest)
            calls.append(self.invoke(argv, self.workload.runs_per_call))
        return calls


def _check_gen(rc, stdout: str) -> Outcome:
    out = Outcome()
    paths = [ln.split("=", 1)[1].strip() for ln in stdout.splitlines() if ln.startswith("manifest =")]
    if rc != 0 or len(paths) != 1:
        out.failures.append(f"gen exit code {rc}, {len(paths)} manifest lines")
    out.outputs = paths
    return out


def _manifest_bytes(manifest: str | None) -> int:
    if manifest is None:
        return 0
    with open(manifest) as fh:
        entries = json.load(fh)
    base = os.path.dirname(manifest)
    return sum(
        os.path.getsize(os.path.join(base, entries[key]))
        for key in ("path_x1", "path_x2", "path_y2", "path_y1_hidden")
        if entries.get(key)
    )


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl: Workload, session: Session, calls, import_s, setup_times) -> dict:
    prefix = [c.outcome for c in calls[: wl.quality_calls]]
    queries = [q for o in prefix for q in o.queries]
    ratios = [r for o in prefix for r in o.ratios]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "runs_per_s": sum(c.outcome.runs for c in calls) / sum(c.seconds for c in calls),
        "queries_per_run": statistics.fmean(queries) if queries else NOT_REPORTED,
        "loss_ratio": statistics.fmean(ratios) if ratios else NOT_REPORTED,
        "ok_share": 1.0 - len(session.failures) / session.attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(wl: Workload, tracer: Tracer, plain, traced, manifest) -> dict:
    times = tracer.self_times()
    metrics = {}
    for name in [f"{m}.{f}" for m, f in LAYERS] + [ROOT]:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    loads, load_s = times.get("dataio.load_dataset", (0, 0.0))
    svd_calls = times.get("core.thin_svd", (0, 0.0))[0]
    _, asura_s = times.get("asura.asura_sample", (0, 0.0))
    iterations = tracer.counts["asura.iterations"]
    label_calls = tracer.counts["regression.label.calls"]
    billed = sum(q for c in traced for q in c.outcome.queries) if wl.kind == "run" else 0
    metrics.update(
        {
            "dataio.load_dataset.mb_per_s": (
                loads * _manifest_bytes(manifest) / load_s / 1e6 if load_s > 0 else 0.0,
                "MB/s",
            ),
            "core.thin_svd.calls_per_instance": (
                svd_calls / (len(traced) * wl.instances_per_call), "calls/instance"
            ),
            "asura.iterations": (iterations, "count"),
            "asura.us_per_iter": (1e6 * asura_s / iterations if iterations else 0.0, "us"),
            "regression.label.calls": (label_calls, "count"),
            "regression.label.billed_share": (
                billed / label_calls if label_calls else 0.0, "share"
            ),
            "trace.wall_s": (tracer.root_wall(), "s"),
            "trace.overhead_s": (
                sum(c.seconds for c in traced) - sum(c.seconds for c in plain), "s"
            ),
        }
    )
    return metrics


def traced_replay(cli, wl: Workload, session: Session, calls, manifest, spans_path) -> dict:
    """Replay the fixed prefix of ``calls`` with spans; returns the per-layer metrics.

    Only the prefix is replayed, so the traced counts repeat exactly for a seed.
    Tracing must not change any output, and the self times must add up to the
    traced wall time; either failing is a failed check.
    """
    plain = calls[: wl.quality_calls]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [
            session.invoke(c.argv, wl.runs_per_call, main=lambda argv: tracer.call(cli.main, argv))
            for c in plain
        ]
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    for before, again in zip(plain, traced):
        if before.outcome.outputs != again.outcome.outputs:
            session.failures.append(f"traced replay changed the output of {before.argv}")
    self_sum = sum(s for _, s in tracer.self_times().values())
    if abs(self_sum - tracer.root_wall()) > SELF_TIME_TOL_S:
        session.failures.append(f"self times sum to {self_sum}, traced wall is {tracer.root_wall()}")
    return per_layer(wl, tracer, plain, traced, manifest)


def bench(cli, import_s: float, wl: Workload, seed: int, seconds: float, trace: bool,
          out_dir: Path = OUT) -> dict:
    """Set up, measure and check one workload; returns the run's full record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / f"work-{os.getpid()}-{wl.name}"
    session = Session(cli, wl, seed)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    try:
        manifest, setup_times = session.setup(work_dir, 1 if trace else SETUP_REPS)
        if not trace:
            calls = session.loop(manifest, seconds, wl.quality_calls)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in
                       end_to_end(wl, session, calls, import_s, setup_times).items()}
        else:
            calls = session.loop(manifest, seconds / 2, wl.quality_calls)
            metrics = traced_replay(cli, wl, session, calls, manifest, out_dir / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outputs = [c.outcome.outputs for c in calls[: wl.quality_calls]]
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "calls": [
            {"argv": c.argv, "seconds": c.seconds, "runs": c.outcome.runs,
             "failures": c.outcome.failures}
            for c in calls
        ],
        "seeded_outputs": outputs,
        "outputs_sha256": _digest(outputs),
        "failures": session.failures,
        "machine": machine_record(),
        "result": result,
    }
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, import_s = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        record = bench(cli, import_s, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"# {record['workload']} seed={record['seed']} calls={len(record['calls'])} "
          f"outputs_sha256={record['outputs_sha256']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
