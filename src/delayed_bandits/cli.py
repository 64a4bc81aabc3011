"""Command-line benchmark harness.

Subcommands: ``run`` (simulate a batch and write CSV + metadata),
``bounds`` (evaluate the high-probability regret bound), ``lower-bound``
(minimax lower bound, optionally tuned over the gap), and ``coverage``
(confidence-ellipsoid coverage across replications).

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime or
numerical errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, io


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayed-bandits",
        description="Benchmark harness for linear bandits with censored, "
                    "stochastically delayed conversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a batch of episodes")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--preset", choices=sorted(harness.PRESETS),
                     help="scenario preset (overrides scenario keys)")
    run.add_argument("--policy", choices=[*harness.POLICY_KINDS, "oracle_linucb", "oracle"],
                     help="oracle_linucb (alias oracle) runs otf_linucb undelayed")
    run.add_argument("--runs", dest="n_runs", type=int, help="number of replications")
    run.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--jobs", dest="n_jobs", type=int,
                     help="worker processes (default 1)")

    bounds = sub.add_parser("bounds", help="evaluate the regret upper bound")
    bounds.add_argument("--T", type=int, required=True)
    bounds.add_argument("--d", type=int, required=True)
    bounds.add_argument("--lambda", dest="lam", type=float, default=1.0)
    bounds.add_argument("--delta", type=float, default=0.05)
    bounds.add_argument("--m", type=int, required=True)
    bounds.add_argument("--tau", type=float, required=True)

    lower = sub.add_parser("lower-bound", help="evaluate the minimax lower bound")
    lower.add_argument("--T", type=int, required=True)
    lower.add_argument("--K", type=int, required=True)
    lower.add_argument("--tau", type=float, required=True)
    lower.add_argument("--gap", type=float, default=None,
                       help="evaluate at this gap instead of tuning")

    coverage = sub.add_parser("coverage", help="confidence-ellipsoid coverage")
    coverage.add_argument("--config", help="flat key = value config file")
    coverage.add_argument("--preset", choices=sorted(harness.PRESETS))
    coverage.add_argument("--reps", type=int, required=True)

    return parser


def _config_from_args(args) -> harness.ExperimentConfig:
    """One config from the file's values, the preset and the flags.

    Flags replace file values before anything is parsed; the preset keys
    and the flag keys do not overlap, so flags also win over the preset.
    """
    values = io.read_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key, None)
             for key in ("policy", "n_runs", "base_seed", "out", "n_jobs")}
    if flags["policy"] == "oracle":
        flags["policy"] = "oracle_linucb"
    values.update((key, value) for key, value in flags.items() if value is not None)
    return harness.build_config(values, args.preset)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    traces, stats = harness.run_batch(config)
    out_dir = Path(config.output_path)
    io.emit_csv(traces, stats, out_dir)
    tau = config.tau_m
    if tau > 0.0:
        # on the episode's window: one longer than T plays like m = T
        bound = bounds_mod.regret_upper_bound(config.T, config.d, config.lam,
                                              config.delta,
                                              config.episode_window, tau)
    else:
        bound = float("inf")  # nothing converts inside the window
    items = config.resolved_items()
    items += [("tau_m", f"{tau:.17g}"),
              ("regret_upper_bound", f"{bound:.17g}"),
              ("rng_layout", harness.RNG_LAYOUT)]
    io.write_metadata(items, out_dir / "metadata.txt")
    final_mean = stats.mean[-1]
    print(f"wrote {out_dir}/traces.csv, summary.csv, metadata.txt")
    print(f"policy={config.policy} runs={config.n_runs} T={config.T} "
          f"tau_m={tau:.4f} mean_final_regret={final_mean:.4f}")
    return 0


def _cmd_bounds(args) -> int:
    value = bounds_mod.regret_upper_bound(args.T, args.d, args.lam, args.delta,
                                          args.m, args.tau)
    print(f"T = {args.T}")
    print(f"d = {args.d}")
    print(f"lambda = {args.lam}")
    print(f"delta = {args.delta}")
    print(f"m = {args.m}")
    print(f"tau = {args.tau}")
    print(f"regret_upper_bound = {value:.17g}")
    return 0


def _cmd_lower_bound(args) -> int:
    if args.gap is not None:
        value = bounds_mod.minimax_lower_bound(args.T, args.K, args.tau, args.gap)
        print(f"gap = {args.gap}")
    else:
        gap, value = bounds_mod.tuned_minimax_lower_bound(args.T, args.K, args.tau)
        print(f"best_gap = {gap:.17g}")
    print(f"lower_bound = {value:.17g}")
    return 0


def _cmd_coverage(args) -> int:
    config = _config_from_args(args)
    result = harness.concentration_coverage(config, args.reps)
    print(f"reps = {args.reps}")
    print(f"tau_m = {config.tau_m:.17g}")
    print(f"coverage = {result.coverage:.17g}")
    print(f"penalty_checks = {result.penalty_checks}")
    print(f"max_deviation_ratio = {result.max_deviation_ratio:.17g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; under this tool's contract those
        # are configuration errors (--help keeps its success exit)
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "run": _cmd_run,
        "bounds": _cmd_bounds,
        "lower-bound": _cmd_lower_bound,
        "coverage": _cmd_coverage,
    }
    try:
        return handlers[args.command](args)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a config error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a ConfigError, or a bad numeric argument to a bound evaluator
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
