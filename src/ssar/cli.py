"""Command-line harness: instance generation, runs, sweeps, and verification.

Subcommands
-----------
gen      write a synthetic instance (manifest + ``.npy`` blocks) and print its
         complexity measures
run      run seeded solve trials against a manifest and stream trial reports
verify   re-check the sampler's guarantees, inline or against trace dumps
sweep    grid experiments relating mean label queries to the instance measure

Exit codes: 0 success, 2 hard-check failure, 3 I/O failure, 4 invalid
configuration.  The base seed comes from ``--seed`` or the ``SSAR_SEED``
environment variable; every command starts by printing its resolved
configuration line, which is sufficient to reproduce the run.  A ``--config``
JSON file, when given, overrides the corresponding command-line flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .asura import AsuraConfig
from .baselines import LeverageConfig, UniformConfig
from .core import Dataset, reduced_rank
from .dataio import (
    json_line,
    lemma_report_to_dict,
    load_dataset,
    load_trace,
    save_block,
    save_dataset,
    solution_record,
    write_jsonl,
)
from .errors import (
    BarrierViolationError,
    InvalidInputError,
    NumericalBreakdownError,
    SsarError,
    WellBalancedEventFailedError,
)
from .instances import (
    LowerBoundSpec,
    gaussian_design,
    gen_kernel_instance,
    gen_lower_bound_instance,
    gen_random_instance,
)
from .regression import LabelOracle, _check_lambda, draw_samples, ridge_to_ssal, solve_sample
from .rngutil import derive_seed, make_rng
from .verify import (
    HARD_LEMMA_IDS,
    MIN_STATISTICAL_RUNS,
    _gamma_guard,
    check_hard_lemmas,
    check_statistical_lemmas,
    check_well_balanced,
    merge_hard_reports,
    query_bound,
)

EXIT_OK = 0
EXIT_HARD_FAIL = 2
EXIT_IO = 3
EXIT_CONFIG = 4

# Below this c0 few adaptive runs land in the spectral window, so run --retry warns.
RETRY_MIN_C0 = 4.0


def _base_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    text = os.environ.get("SSAR_SEED", "0")
    try:
        return _seed(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise InvalidInputError(
            f"SSAR_SEED must be a non-negative integer, got {text!r}"
        ) from None


def _print_config(args) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "leaf")}
    print("# config " + json.dumps(resolved, default=str))


def _apply_config_file(parser: argparse.ArgumentParser, argv: list, args):
    """Merge the JSON config file into the flags; its values take precedence.

    Every value goes back through the subcommand's parser, so it gets the same
    type conversion and checks as the flag would.  Switches take JSON booleans.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise InvalidInputError(f"config file {path} must hold a JSON object")
    options = {
        a.dest: a for a in args.leaf._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    extra, switches = [], {}
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InvalidInputError(f"config file sets unknown option {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise InvalidInputError(f"config option {key!r} takes true or false")
            switches[action.dest] = value
        elif value is None and action.default is None:
            switches[action.dest] = None
        elif isinstance(value, list) and action.nargs == "+":
            extra += [flag, *(str(v) for v in value)]
        else:
            extra.append(f"{flag}={value}")
    try:
        merged = parser.parse_args(argv + extra)
    except SystemExit:
        raise InvalidInputError(f"config file {path} sets an invalid value") from None
    for dest, value in switches.items():
        setattr(merged, dest, value)
    return merged


# ---------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    """Build the instance, save it once, and print its ``reduced_rank``: on a
    ridge stack that is ``sd_lambda``, on a kernel stack ``d_lambda``."""
    seed = _base_seed(args)
    kind = args.instance
    if kind == "random":
        ds, full = gen_random_instance(args.n1, args.n2, args.d, args.noise_sigma, seed)
        stem, name = "random", "reduced_rank"
    elif kind == "lower-bound":
        spec = LowerBoundSpec(d=args.d, n_copies=args.n, epsilon=args.eps, lam=args.lam)
        ds, full, beta_tilde = gen_lower_bound_instance(spec, seed)
        stem, name = "lower_bound", "sd_lambda"
    elif kind == "ridge":
        x1, y1 = gaussian_design(make_rng(seed), args.n1, args.d, args.d, args.noise_sigma)
        ds, full = ridge_to_ssal(x1, args.lam), np.concatenate([y1, np.zeros(args.d)])
        stem, name = "ridge", "sd_lambda"
    else:  # kernel; argparse restricts the kinds
        ds, full = gen_kernel_instance(
            args.n, args.rank, args.lam, make_rng(seed),
            eig_min=args.eig_min, eig_max=args.eig_max, noise_sigma=args.noise_sigma,
        )
        stem, name = "kernel", "d_lambda"
    manifest = save_dataset(args.out, ds, full_labels=full, stem=stem)
    if kind == "lower-bound":
        save_block(args.out, "lower_bound_beta_tilde", beta_tilde)
    print(f"{name} = {reduced_rank(ds):.17g}")
    print(f"manifest = {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------- run


def _sampler_config(args):
    if args.sampler == "asura":
        return AsuraConfig(epsilon=args.epsilon, c0=args.c0)
    if args.sampler == "leverage":
        return LeverageConfig(epsilon=args.epsilon, oversample_c=args.oversample_c)
    return UniformConfig(m=args.uniform_m)


def _run_one_trial(args, ds: Dataset, full: np.ndarray, seed: int, drawn, draw_ms: float) -> dict:
    """The record of trial ``seed`` from its slot of the batch draw.

    An error slot or a failed solve comes back as an error record.
    """
    oracle = LabelOracle(full, ds.n1, allow_full_loss=not args.no_ratio)
    try:
        if isinstance(drawn, SsarError):
            raise drawn
        t0 = time.perf_counter()
        sol = solve_sample(ds, oracle, *drawn)
        runtime_ms = draw_ms + 1000.0 * (time.perf_counter() - t0)

        well_balanced = None
        if sol.trace is not None and (args.retry or args.check_balance):
            well_balanced = args.retry or check_well_balanced(sol.trace, ds.svd).well_balanced
    except (BarrierViolationError, NumericalBreakdownError,
            WellBalancedEventFailedError) as exc:
        return {"seed": seed, "sampler": args.sampler, "error": str(exc),
                "error_class": type(exc).__name__}
    return {
        "seed": seed,
        "sampler": args.sampler,
        "m": sol.iterations,
        "cap": sol.trace.cap if sol.trace else None,
        "queries_billed": sol.queries,
        "queries_iteration_level": sol.queries_iteration_level,
        "ratio": sol.ratio,
        "well_balanced": well_balanced,
        "gamma": sol.trace.gamma if sol.trace else None,
        "runtime_ms": runtime_ms,
        "solution": solution_record(sol, seed),
    }


def _cmd_run(args) -> int:
    base_seed = _base_seed(args)
    seeds = [derive_seed(base_seed, k) for k in range(args.trials)]
    cfg = _sampler_config(args)
    if args.sampler == "asura" and (args.check_balance or args.retry):
        _gamma_guard(cfg.gamma)
    if args.sampler == "asura" and args.retry and args.c0 < RETRY_MIN_C0:
        print(f"warning: below --c0 {RETRY_MIN_C0:g} no run lands in the spectral window "
              "(measured fractions in README: 0 at c0 2 and 3, 0.335 at 4, 1.0 at 6 and 8), "
              "so --retry is likely to exhaust every trial; use --c0 6 or above",
              file=sys.stderr)
    ds, full = load_dataset(args.manifest)
    if full is None:
        raise InvalidInputError(
            f"{args.manifest} has no hidden labels; sampled rows could not be labeled"
        )
    t0 = time.perf_counter()
    drawn = draw_samples(ds, cfg, seeds, retry=args.retry)
    draw_ms = 1000.0 * (time.perf_counter() - t0) / len(seeds)
    records = [_run_one_trial(args, ds, full, seed, slot, draw_ms)
               for seed, slot in zip(seeds, drawn)]

    solutions = [rec.pop("solution") for rec in records if "solution" in rec]
    if args.solutions_out:
        write_jsonl(args.solutions_out, solutions, append=args.append)
    for rec in records:
        print(json_line(rec))
    ok = [r for r in records if "error" not in r]
    queries = np.array([r["queries_iteration_level"] for r in ok], dtype=float)
    ratios = [r["ratio"] for r in ok if r["ratio"] is not None]
    summary = {
        "kind": "summary",
        "trials": len(records),
        "failed_trials": len(records) - len(ok),
        "mean_queries_billed": float(np.mean([r["queries_billed"] for r in ok])) if ok else None,
        "mean_queries_iteration_level": float(queries.mean()) if ok else None,
        "std_queries_iteration_level": float(queries.std(ddof=1)) if len(ok) > 1 else 0.0,
        "mean_ratio": float(np.mean(ratios)) if ratios else None,
        "std_ratio": (float(np.std(ratios, ddof=1))
                      if len(ratios) > 1 and np.isfinite(ratios).all() else None),
    }
    print(json_line(summary))
    if args.out:
        write_jsonl(args.out, records + [summary], append=args.append)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _traces(ds: Dataset, cfg: AsuraConfig, seeds: list) -> list:
    """The traces of one batch draw; the first error slot raises, as the
    lowest-indexed failing run's error."""
    runs = draw_samples(ds, cfg, seeds)
    for run in runs:
        if isinstance(run, SsarError):
            raise run
    return [trace for _, trace in runs]


def _cmd_verify(args) -> int:
    base_seed = _base_seed(args)
    if args.manifest and not args.trace_file:
        raise InvalidInputError("--manifest names the instance of --trace-file dumps")
    if args.trace_file:
        svd = load_dataset(args.manifest)[0].svd if args.manifest else None
        reports = merge_hard_reports(
            [check_hard_lemmas(load_trace(p), svd) for p in args.trace_file]
        )
    else:
        if args.statistical_runs and args.statistical_runs < MIN_STATISTICAL_RUNS:
            raise InvalidInputError(
                f"statistical checks need at least {MIN_STATISTICAL_RUNS} runs"
            )
        cfgs = [AsuraConfig(epsilon=eps, c0=args.c0) for eps in args.eps_grid]
        for cfg in cfgs:
            _gamma_guard(cfg.gamma)
        d_grid, per_run = _dims(args.d_grid), []
        for d in d_grid:
            ds, _ = gen_random_instance(3 * d, d, d, 1.0, derive_seed(base_seed, d))
            for cfg in cfgs:
                point_seed = derive_seed(base_seed, d, int(round(1000 * cfg.epsilon)))
                seeds = [derive_seed(point_seed, k) for k in range(args.runs)]
                for trace in _traces(ds, cfg, seeds):
                    per_run.append(check_hard_lemmas(trace, ds.svd))
        reports = merge_hard_reports(per_run)

        if args.statistical_runs:
            d = d_grid[0]
            ds, _ = gen_random_instance(3 * d, d, d, 1.0, derive_seed(base_seed, 99, d))
            point_seed = derive_seed(base_seed, 7)
            seeds = [derive_seed(point_seed, k) for k in range(args.statistical_runs)]
            reports.extend(check_statistical_lemmas(_traces(ds, cfgs[0], seeds)))

    if args.lemma:
        matched = [r for r in reports if r.lemma_id == args.lemma]
        if not matched:
            known = sorted({r.lemma_id for r in reports})
            raise InvalidInputError(
                f"no check named {args.lemma!r}; available: {', '.join(known)}"
            )
        reports = matched

    records = [lemma_report_to_dict(r) for r in reports]
    for rec in records:
        print(json_line(rec))
    if args.out:
        write_jsonl(args.out, records)
    hard_failed = any(
        not r.verdict for r in reports if r.lemma_id in HARD_LEMMA_IDS
    )
    return EXIT_HARD_FAIL if hard_failed else EXIT_OK


# ---------------------------------------------------------------- sweep


def _sweep_points(args, base_seed, cfgs):
    """(label, dataset, config) triples for the requested grid, built lazily, with
    ``cfgs`` the config of each epsilon of the grid, or of ``--epsilon`` off that axis."""

    def ridge_design(d, *key):
        rng = make_rng(derive_seed(base_seed, 1, *key))
        return gaussian_design(rng, args.n1, d, args.n1)[0]

    if args.axis == "lambda":
        x1 = ridge_design(args.d)
        return ((f"lambda={lam:g}", ridge_to_ssal(x1, lam), cfgs[0]) for lam in args.grid)
    if args.axis == "epsilon":
        ds = ridge_to_ssal(ridge_design(args.d), args.lam)
        return ((f"epsilon={cfg.epsilon:g}", ds, cfg) for cfg in cfgs)
    dims = _dims(args.grid)
    return ((f"d={d}", ridge_to_ssal(ridge_design(d, d), args.lam), cfgs[0]) for d in dims)


def _cmd_sweep(args) -> int:
    base_seed = _base_seed(args)
    # Every point's lambda and sampler config are checked before the first point runs.
    for lam in args.grid if args.axis == "lambda" else [args.lam]:
        _check_lambda(lam)
    cfgs = [AsuraConfig(epsilon=eps, c0=args.c0)
            for eps in (args.grid if args.axis == "epsilon" else [args.epsilon])]
    rows = []
    points = _sweep_points(args, base_seed, cfgs)
    print("point\tr_x\tr_over_eps\tmean_queries\tse_queries\tbound")
    for point_index, (label, ds, cfg) in enumerate(points):
        point_seed = derive_seed(base_seed, 2, point_index)
        seeds = [derive_seed(point_seed, k) for k in range(args.trials)]
        counts = np.array(
            [np.count_nonzero(t.sampled_index < ds.n1) for t in _traces(ds, cfg, seeds)],
            dtype=float,
        )
        r_x = reduced_rank(ds)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(counts.size)) if counts.size > 1 else 0.0
        bound = query_bound(r_x, cfg.gamma)
        rows.append(
            {
                "point": label,
                "r_x": r_x,
                "r_over_eps": r_x / cfg.epsilon,
                "mean_queries": mean,
                "se_queries": se,
                "bound": bound,
            }
        )
        print(
            f"{label}\t{r_x:.6g}\t{r_x / cfg.epsilon:.6g}\t{mean:.6g}\t{se:.6g}\t{bound:.6g}"
        )

    xs = np.array([r["r_over_eps"] for r in rows])
    means = [r["mean_queries"] for r in rows]
    denom = float(xs @ xs)
    fitted = float(xs @ np.array(means)) / denom if denom > 0 else float("nan")
    monotone = all(a > b for a, b in zip(means, means[1:])) or all(
        a < b for a, b in zip(means, means[1:])
    )
    # The bound without standard-error slack, so that --trials 1 is allowed.
    within = all(r["mean_queries"] <= r["bound"] for r in rows)
    print(f"# fitted queries-per-(r_x/epsilon) constant: {fitted:.6g}")
    print(f"# monotone trend: {monotone}")
    print(f"# all points within query bound: {within}")
    if args.out:
        write_jsonl(args.out, rows, append=args.append)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _count(text: str) -> int:
    """Argparse type of the counts and of sweep's sizes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """Argparse type of ``--seed`` (and the check of ``SSAR_SEED``): an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _grid(text: str) -> list:
    """Argparse type of the grids: ``a,b,...`` or ``[a, b, ...]``, non-empty and finite."""
    values = [float(tok) for tok in text.strip("[] ").split(",") if tok.strip()]
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"need a list of finite numbers, got {text!r}")
    return values


def _dims(values: list) -> list:
    """A grid of dimensions as ints; each must be a whole number of at least 1."""
    if not all(v.is_integer() and v >= 1 for v in values):
        raise InvalidInputError(f"dimensions must be whole numbers of at least 1, got {values}")
    return [int(v) for v in values]


def _add_common(sub):
    """The options of every subcommand, and ``leaf``, the subcommand's own
    parser, whose options a ``--config`` file may set."""
    sub.set_defaults(leaf=sub)
    sub.add_argument("--seed", type=_seed, default=None,
                     help="base seed (default: SSAR_SEED env var, else 0)")
    sub.add_argument("--config", default=None,
                     help="JSON file whose entries override the flags")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="ssar",
        description="semi-supervised active regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    gen_sub = gen.add_subparsers(dest="instance", required=True)
    g_random = gen_sub.add_parser("random", help="Gaussian instance")
    g_random.add_argument("--n1", type=int, required=True)
    g_random.add_argument("--n2", type=int, required=True)
    g_random.add_argument("--d", type=int, required=True)
    g_random.add_argument("--noise-sigma", type=float, default=1.0)
    g_lb = gen_sub.add_parser("lower-bound", help="hard ridge instance")
    g_lb.add_argument("--d", type=int, required=True)
    g_lb.add_argument("--n", type=int, required=True, help="copies per basis direction")
    g_lb.add_argument("--eps", type=float, required=True)
    g_lb.add_argument("--lambda", dest="lam", type=float, required=True)
    g_ridge = gen_sub.add_parser("ridge", help="Gaussian ridge instance")
    g_ridge.add_argument("--n1", type=int, required=True)
    g_ridge.add_argument("--d", type=int, required=True)
    g_ridge.add_argument("--lambda", dest="lam", type=float, required=True)
    g_ridge.add_argument("--noise-sigma", type=float, default=1.0)
    g_kernel = gen_sub.add_parser("kernel", help="low-rank PSD kernel instance")
    g_kernel.add_argument("--n", type=int, required=True)
    g_kernel.add_argument("--rank", type=int, default=8)
    g_kernel.add_argument("--lambda", dest="lam", type=float, required=True)
    g_kernel.add_argument("--eig-min", type=float, default=0.25)
    g_kernel.add_argument("--eig-max", type=float, default=4.0)
    g_kernel.add_argument("--noise-sigma", type=float, default=1.0)
    for g in (g_random, g_lb, g_ridge, g_kernel):
        g.add_argument("--out", required=True, help="output directory")
        _add_common(g)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run solve trials against a manifest")
    run.add_argument("--manifest", required=True)
    run.add_argument("--sampler", choices=("asura", "leverage", "uniform"),
                     default="asura")
    run.add_argument("--epsilon", type=float, default=0.25)
    run.add_argument("--c0", type=float, default=2.0)
    run.add_argument("--oversample-c", type=float, default=15.0)
    run.add_argument("--uniform-m", type=int, default=100)
    run.add_argument("--trials", type=_count, default=1)
    run.add_argument("--jobs", type=_count, default=1,
                     help="ignored: every trial runs in this process")
    run.add_argument("--retry", action="store_true",
                     help="rerun the adaptive sampler until well balanced; use --c0 6 or "
                          "above: below --c0 4 no run lands in the spectral window, so "
                          "every attempt fails")
    run.add_argument("--check-balance", action="store_true",
                     help="attach the well-balancedness verdict to each trial")
    run.add_argument("--no-ratio", action="store_true",
                     help="deploy-style reporting: omit loss/ratio")
    run.add_argument("--out", default=None)
    run.add_argument("--solutions-out", default=None,
                     help="also write one solution record per trial")
    run.add_argument("--append", action="store_true")
    _add_common(run)
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="run the guarantee checks")
    ver.add_argument("--trace-file", nargs="+", default=None,
                     help="check trace dumps instead of running inline")
    ver.add_argument("--manifest", default=None,
                     help="instance of the dumped runs: adds the matrix checks to --trace-file")
    ver.add_argument("--runs", type=_count, default=30, help="runs per grid cell")
    ver.add_argument("--d-grid", type=_grid, default="4,8,16")
    ver.add_argument("--eps-grid", type=_grid, default="0.25,0.1")
    ver.add_argument("--c0", type=float, default=2.0)
    ver.add_argument("--statistical-runs", type=int, default=0)
    ver.add_argument("--lemma", default=None, help="restrict to one check id")
    ver.add_argument("--out", default=None)
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="grid experiment over lambda, epsilon or d")
    sweep.add_argument("axis", choices=("lambda", "epsilon", "d"))
    sweep.add_argument("--grid", type=_grid, required=True, help="comma-separated values")
    sweep.add_argument("--n1", type=_count, default=2000)
    sweep.add_argument("--d", type=_count, default=10)
    sweep.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sweep.add_argument("--epsilon", type=float, default=0.25)
    sweep.add_argument("--c0", type=float, default=2.0)
    sweep.add_argument("--trials", type=_count, default=100)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--append", action="store_true")
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        args = _apply_config_file(parser, argv, args)
        _print_config(args)
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SsarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
