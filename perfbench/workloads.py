"""The benchmark's workloads: which CLI calls they issue and how outputs are checked.

Every workload is a closed loop of in-process ``ssar.cli.main`` calls: one
caller issues call ``k + 1`` only after call ``k`` returns.  The program sees
nothing but the argv built here; all of its ``--seed`` flags are derived from
the benchmark seed.

This module imports neither numpy nor ssar, so the harness can time importing
them as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

HARD_CHECK_IDS = frozenset(
    {
        "iteration-cap",
        "potential-floor",
        "gap-bound",
        "barrier-containment",
        "step-upper",
        "step-lower",
    }
)
RATIO_FLOOR = 1.0 - 1e-9
BOUND_LINE = "# all points within query bound: True"
RUN_FLAGS = ("--sampler", "asura", "--epsilon", "0.25", "--c0", "2", "--jobs", "1")


def derive(seed: int, *keys) -> int:
    """A program seed in [0, 2**31) mixed from the benchmark seed and ``keys``."""
    digest = hashlib.blake2b(repr((int(seed), *keys)).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


@dataclass
class Outcome:
    """What one checked CLI call produced.

    ``runs`` counts completed solve trials or sampler runs.  ``outputs`` are the
    seeded results that go into the run's digest; ``queries`` and ``ratios``
    feed ``queries_per_run`` and ``loss_ratio``.
    """

    runs: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    ratios: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``gen`` is the ``ssar gen`` argv that writes the instance (empty when the
    command builds its own instances).  ``call`` and ``warmup`` are the timed
    and the set-up argv; a ``run`` workload also gets ``--manifest``.
    ``quality_calls`` is the fixed prefix of timed calls whose outputs make
    the digest and the label-cost and loss figures, so that these repeat
    exactly for a seed however many calls the time window admits.
    """

    name: str
    kind: str
    gen: tuple
    call: tuple
    warmup: tuple
    runs_per_call: int
    warmup_runs: int
    instances_per_call: int
    quality_calls: int

    def gen_argv(self, seed: int, out_dir: str) -> list:
        return [*self.gen, "--out", out_dir, "--seed", str(derive(seed, "instance"))]

    def call_argv(self, seed: int, k: int, manifest: str | None) -> list:
        return self._with(self.call, derive(seed, "call", k), manifest)

    def warmup_argv(self, seed: int, manifest: str | None) -> list:
        return self._with(self.warmup, derive(seed, "warmup"), manifest)

    def _with(self, argv: tuple, program_seed: int, manifest: str | None) -> list:
        extra = ["--manifest", manifest] if self.kind == "run" else []
        return [*argv, *extra, "--seed", str(program_seed)]

    def check(self, rc, stdout: str, runs: int) -> Outcome:
        """Check one call's exit code and output against ``runs`` expected runs."""
        out = _CHECKS[self.kind](stdout, runs)
        if rc != 0:
            out.failures.append(f"exit code {rc}")
            out.runs = 0
        return out


def run_workload(name, gen, trials, quality_calls) -> Workload:
    call = ("run", *RUN_FLAGS)
    return Workload(
        name=name,
        kind="run",
        gen=tuple(gen),
        call=(*call, "--trials", str(trials)),
        warmup=(*call, "--trials", "1"),
        runs_per_call=trials,
        warmup_runs=1,
        instances_per_call=1,
        quality_calls=quality_calls,
    )


def verify_workload(name, d_grid, eps_grid, runs, quality_calls) -> Workload:
    grid = ("--d-grid", ",".join(map(str, d_grid)), "--eps-grid", ",".join(map(str, eps_grid)))
    return Workload(
        name=name,
        kind="verify",
        gen=(),
        call=("verify", *grid, "--runs", str(runs)),
        warmup=("verify", *grid, "--runs", "1"),
        runs_per_call=len(d_grid) * len(eps_grid) * runs,
        warmup_runs=len(d_grid) * len(eps_grid),
        instances_per_call=len(d_grid),
        quality_calls=quality_calls,
    )


def sweep_workload(name, grid, n1, trials, quality_calls) -> Workload:
    shape = ("sweep", "d", "--n1", str(n1), "--lambda", "1", "--epsilon", "0.25")
    return Workload(
        name=name,
        kind="sweep",
        gen=(),
        call=(*shape, "--grid", ",".join(map(str, grid)), "--trials", str(trials)),
        warmup=(*shape, "--grid", str(grid[0]), "--trials", "1"),
        runs_per_call=len(grid) * trials,
        warmup_runs=1,
        instances_per_call=len(grid),
        quality_calls=quality_calls,
    )


def _records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _check_run(stdout: str, trials: int) -> Outcome:
    out = Outcome()
    records = _records(stdout)
    summaries = [r for r in records if r.get("kind") == "summary"]
    errors = [r for r in records if "error" in r]
    done = [r for r in records if r.get("kind") != "summary" and "error" not in r]
    out.failures += [f"error record: {r['error']}" for r in errors]
    if len(summaries) != 1:
        out.failures.append(f"expected one summary line, got {len(summaries)}")
    else:
        summary = summaries[0]
        if summary["trials"] != trials or len(done) + len(errors) != trials:
            out.failures.append(f"expected {trials} trials, summary says {summary['trials']}")
        if summary["failed_trials"] != len(errors):
            out.failures.append(
                f"summary reports {summary['failed_trials']} failed trials, "
                f"{len(errors)} error records"
            )
    for rec in done:
        ratio, billed = rec["ratio"], rec["queries_billed"]
        iteration_level = rec["queries_iteration_level"]
        if ratio is None or not math.isfinite(ratio) or ratio < RATIO_FLOOR:
            out.failures.append(f"seed {rec['seed']}: loss ratio {ratio}")
        if not billed <= iteration_level <= rec["m"]:
            out.failures.append(
                f"seed {rec['seed']}: billed {billed}, iteration-level "
                f"{iteration_level}, m {rec['m']}"
            )
        out.outputs.append([rec["m"], billed, iteration_level, ratio])
        out.queries.append(billed)
        if ratio is not None:
            out.ratios.append(ratio)
    out.runs = len(done)
    return out


def _check_verify(stdout: str, runs: int) -> Outcome:
    out = Outcome()
    records = _records(stdout)
    seen = {r["lemma_id"] for r in records}
    if seen != HARD_CHECK_IDS:
        out.failures.append(f"check ids {sorted(seen)}")
    for rec in records:
        if rec["verdict"] != "pass" or rec["violations"] != 0:
            out.failures.append(f"{rec['lemma_id']}: {rec['verdict']}, {rec['violations']} violations")
        if rec["runs"] != runs:
            out.failures.append(f"{rec['lemma_id']}: checked {rec['runs']} of {runs} runs")
        out.outputs.append([rec["lemma_id"], rec["violations"], rec["worst_margin"], rec["statistic"]])
    out.runs = min((r["runs"] for r in records), default=0)
    return out


def _check_sweep(stdout: str, runs: int) -> Outcome:
    out = Outcome()
    lines = stdout.splitlines()
    header = "point\tr_x\tr_over_eps\tmean_queries\tse_queries\tbound"
    rows = []
    if header in lines:
        start = lines.index(header) + 1
        rows = [ln for ln in lines[start:] if ln and not ln.startswith("#")]
    else:
        out.failures.append("no sweep table header")
    for row in rows:
        point, *values = row.split("\t")
        _, _, mean_queries, _, bound = (float(v) for v in values)
        if not mean_queries <= bound:
            out.failures.append(f"{point}: mean queries {mean_queries} above bound {bound}")
        out.outputs.append(row)
        out.queries.append(mean_queries)
    if BOUND_LINE not in lines:
        out.failures.append("sweep did not print 'within query bound: True'")
    out.runs = runs if rows else 0
    return out


_CHECKS = {"run": _check_run, "verify": _check_verify, "sweep": _check_sweep}

# The benchmark's workloads.  Sizes are fixed here; only the seed varies.
WORKLOADS = {
    w.name: w
    for w in (
        # Headline run: n >> r, so the sampler's n r^2 scoring and the phi_d
        # einsum lead, then the per-trial CSV parse and SVD; capture is on (r <= 64).
        run_workload(
            "run-tall",
            ("gen", "random", "--n1", "20000", "--n2", "200", "--d", "20"),
            trials=2,
            quality_calls=12,
        ),
        # Wide stacked design (2000 x 1000, rank 40): CSV parse, thin SVD and
        # the exact-OPT lstsq lead; the sampler is a small share.
        run_workload(
            "run-kernel",
            ("gen", "kernel", "--n", "1000", "--rank", "40", "--lambda", "1"),
            trials=2,
            quality_calls=5,
        ),
        # Default verify grid: tiny instances with capture on, so Python and
        # small-LAPACK overhead and check_hard_lemmas dominate; no file I/O.
        verify_workload("verify-grid", (4, 8, 16), (0.25, 0.1), runs=30, quality_calls=1),
        # Capture off and rank up to 100 (r^2 > n at the top point), where the
        # per-iteration eigh competes with scoring; also ridge reduction and
        # the second SVD inside reduced_rank.
        sweep_workload("sweep-wide", (25, 50, 100), n1=4000, trials=1, quality_calls=4),
    )
}
