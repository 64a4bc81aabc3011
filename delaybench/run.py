"""Benchmark of the delayed-bandit simulator, end to end and layer by layer.

Usage (from the repository root, no install step):

    python3 delaybench/run.py --workload preset_a --seed 0 --seconds 30 --trace 0

Makes the workload's inputs from the seed, then runs whole iterations of
the workload, each in a fresh process, until ``--seconds`` have passed
(at least three). It checks the outputs, and prints every metric by name
and unit, followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation is one episode or one coverage
replication.

``--trace 0`` reports the end-to-end metrics: medians over the iterations
of wall time, set-up time, simulated rounds per second and peak memory.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones; the full per-function table goes to
``layers.json`` in the run's results directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "delaybench_results"
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "delays.load_empirical.calls": "count",
    "delays.load_empirical.s": "s",
    "harness.build_delay.calls": "count",
    "delays.sample.us": "us",
    "environment.generate_action_set.us": "us",
    "environment.step.self_us": "us",
    "environment.instantaneous_regret.us": "us",
    "environment.revealed": "count",
    "harness.run_episode.self_us_per_round": "us",
    "policies.select.self_us": "us",
    "policies.observe.self_us": "us",
    "estimator.record_action.us": "us",
    "estimator.record_conversion.us": "us",
    "estimator.mahalanobis_norm.us": "us",
    "estimator.estimate.us": "us",
    "estimator.confidence_width.us": "us",
    "harness.concentration_coverage.self_us_per_round": "us",
    "estimator.credited_per_revealed": "ratio",
    "io.write_traces_csv.s": "s",
    "io.trace_rows_per_s": "1/s",
    "io.bytes_written": "bytes",
    "harness.summarize.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Iteration:
    """One child process running every command of the plan once."""

    def __init__(self, plan, workdir: Path, index: int, traced: bool):
        self.dir = workdir / f"{'traced' if traced else 'plain'}{index}"
        self.traced = traced
        self.outs = {c.label: self.dir / c.label for c in plan.commands}
        spec_path = self.dir / "spec.json"
        result_path = self.dir / "result.json"
        self.dir.mkdir(parents=True)
        spec = {
            "src": str(SRC), "traced": traced, "result": str(result_path),
            "workers": 0 if traced else max(c.n_jobs if c.n_jobs > 1 else 0
                                            for c in plan.commands),
            "commands": [{"label": c.label, "kind": c.kind, "out": str(self.outs[c.label]),
                          "argv": c.argv_for(self.outs[c.label], traced)}
                         for c in plan.commands],
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        stderr = proc.stderr.strip().splitlines() or ["no output"]
        self.result = None
        self.problems = []            # (label, run_id, message)
        if proc.returncode != 0 or not result_path.exists():
            self.problems = [(c.label, None, f"child exited {proc.returncode}: {stderr[-1]}")
                             for c in plan.commands]
            return
        self.result = json.loads(result_path.read_text(encoding="utf-8"))
        for c, entry in zip(plan.commands, self.result["commands"]):
            if entry["code"] != 0:
                self.problems.append((c.label, None, f"cli exited {entry['code']}: {stderr[-1]}"))

    def ran(self, label: str) -> bool:
        """The command exited 0, so its outputs can be checked."""
        return self.result is not None and any(
            e["label"] == label and e["code"] == 0 for e in self.result["commands"])

    @property
    def timed(self) -> bool:
        return self.result is not None and all(
            e["code"] == 0 and (self.traced or "sim_s" in e) for e in self.result["commands"])

    def wall_s(self) -> float:
        return self.result["import_s"] + sum(e["wall_s"] for e in self.result["commands"])

    def digest(self, cmd) -> str:
        """Hash of the outputs that must not depend on how or where the batch
        ran: metadata lines naming the output directory and the worker count
        are left out."""
        if cmd.kind == "coverage":
            return hashlib.sha256((self.outs[cmd.label] / "stdout.txt").read_bytes()).hexdigest()
        out = self.outs[cmd.label]
        meta = [line for line in (out / "metadata.txt").read_text(encoding="utf-8").splitlines()
                if not line.startswith(("out = ", "n_jobs = "))]
        h = hashlib.sha256()
        for part in ((out / "traces.csv").read_bytes(), (out / "summary.csv").read_bytes(),
                     "\n".join(meta).encode()):
            h.update(part)
        return h.hexdigest()


def failed_ops(plan, problems: list) -> int:
    return sum(checks.failed_ops([(run, msg) for lab, run, msg in problems if lab == c.label],
                                 c.runs)
               for c in plan.commands)


def end_to_end(plan, its: list) -> dict:
    """Per-iteration values of each end-to-end metric."""
    timed = [it for it in its if it.timed]
    rounds = sum(c.rounds for c in plan.commands)
    return {
        "wall_s": [it.wall_s() for it in timed],
        "rounds_per_s": [rounds / sum(e["sim_s"] for e in it.result["commands"])
                         for it in timed],
        "setup_s": [it.result["import_s"] + sum(e["setup_s"] for e in it.result["commands"])
                    for it in timed],
        "peak_rss_mb": [it.result["peak_rss_mb"] for it in timed],
    }


def per_layer(plan, plain: list, traced: list) -> tuple[dict, dict]:
    """Per-layer metrics over the traced iterations, and the full table of
    calls, total and self time per wrapped function."""
    results = [it.result for it in traced if it.timed]
    stats: dict = {}
    for res in results:
        for key, values in res["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    batches = len(results) * len(plan.commands)
    run_rounds = len(results) * sum(c.rounds for c in plan.commands if c.kind == "run")
    cov_rounds = len(results) * sum(c.rounds for c in plan.commands if c.kind == "coverage")
    total, own = 1, 2                  # fields of a stats entry after the call count

    def get(key, field):
        return stats.get(key, [0, 0.0, 0.0])[field]

    def ratio(a, b):
        return a / b if b else 0.0

    def us(key, field=total):
        return 1e6 * ratio(get(key, field), get(key, 0))

    def summed(name):
        return sum(r[name] for r in results)

    values = {
        "delays.load_empirical.calls": get("delays.load_empirical", 0) / batches,
        "delays.load_empirical.s": get("delays.load_empirical", total) / batches,
        "harness.build_delay.calls": get("harness.build_delay", 0) / batches,
        "delays.sample.us": us("delays.sample"),
        "environment.generate_action_set.us": us("environment.generate_action_set"),
        "environment.step.self_us": us("environment.step", own),
        "environment.instantaneous_regret.us": us("environment.instantaneous_regret"),
        "environment.revealed": summed("revealed") / batches,
        "harness.run_episode.self_us_per_round":
            1e6 * ratio(get("harness.run_episode", own), run_rounds),
        "policies.select.self_us": us("policies.select", own),
        "policies.observe.self_us": us("policies.observe", own),
        "estimator.record_action.us": us("estimator.record_action"),
        "estimator.record_conversion.us": us("estimator.record_conversion"),
        "estimator.mahalanobis_norm.us": us("estimator.mahalanobis_norm"),
        "estimator.estimate.us": us("estimator.estimate"),
        "estimator.confidence_width.us": us("estimator.confidence_width"),
        "harness.concentration_coverage.self_us_per_round":
            1e6 * ratio(get("harness.concentration_coverage", own), cov_rounds),
        "estimator.credited_per_revealed": ratio(summed("credited"), summed("offered")),
        "io.write_traces_csv.s": 1e-6 * us("io.write_traces_csv"),
        "io.trace_rows_per_s": ratio(run_rounds, get("io.write_traces_csv", total)),
        "io.bytes_written": sum(e["bytes"] for r in results for e in r["commands"]) / batches,
        "harness.summarize.s": 1e-6 * us("harness.summarize"),
        "cli.self_s": 1e-6 * us("cli.main", own),
        "trace.overhead_s": statistics.median(it.wall_s() for it in traced if it.timed)
                            - statistics.median(it.wall_s() for it in plain if it.timed),
    }
    table = {key: dict(zip(("calls", "total_s", "self_s"), v)) for key, v in sorted(stats.items())}
    table["trace.hooks"] = {"total_s": summed("hook_s")}
    return ({name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()},
            table)


def check_traced(plan, it: Iteration) -> None:
    """Problems the audit found, and the learning check on the action sets
    the wrappers saw."""
    it.problems += [tuple(p) for p in it.result["problems"]]
    for c in plan.commands:
        episodes = it.result["episodes"].get(c.label, [])
        if c.uniform_regret is None or not it.ran(c.label):
            continue
        if len(episodes) != c.runs:
            it.problems.append((c.label, None, f"audit saw {len(episodes)} episodes"))
        elif sum(f for _, f in episodes) > 0.5 * sum(u for u, _ in episodes):
            it.problems.append((c.label, None, "learning: mean final regret is not below half "
                                               "of uniform play's on the same action sets"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "delayed_bandits" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    workdir = RESULTS / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.prepare(args.workload, args.seed, workdir)

    start = time.perf_counter()
    its: list = []
    reference, reference_problems = None, {}
    while True:
        for traced in (False, True) if args.trace else (False,):
            it = Iteration(plan, workdir, len(its), traced)
            its.append(it)
            if traced and it.result is not None:
                check_traced(plan, it)
            if reference is None and not traced and it.result is not None:
                # the first untraced iteration is checked in full; every later
                # one, traced or not, must reproduce its bytes, and shares the
                # problems those bytes have
                reference = it
                for c in plan.commands:
                    if it.ran(c.label):
                        found = [(c.label, run, msg)
                                 for run, msg in checks.check_command(it.outs[c.label], c)]
                        reference_problems[c.label] = found
                        it.problems += found
                continue
            for c in plan.commands:
                if reference is None or not (it.ran(c.label) and reference.ran(c.label)):
                    continue
                if it.digest(c) == reference.digest(c):
                    it.problems += reference_problems[c.label]
                else:
                    it.problems.append((c.label, None, "outputs differ from the first "
                                                       "untraced iteration's"))
            # keep the outputs of the reference and of the first traced iteration
            if not (traced and it is next(o for o in its if o.traced)):
                shutil.rmtree(it.dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        n = len(its) // (2 if args.trace else 1)
        if elapsed * (n + 1) / n > args.seconds and (args.trace or n >= MIN_ITERATIONS):
            break

    plain = [it for it in its if not it.traced]
    traced = [it for it in its if it.traced]
    groups = (plain, traced) if args.trace else (plain,)
    if not all(any(it.timed for it in group) for group in groups):
        for label, run, msg in its[0].problems[:5]:
            print(f"FAILED {label}: {msg}", file=sys.stderr)
        print("error: no iteration completed", file=sys.stderr)
        return 1
    problems = [p for it in its for p in it.problems]
    failed = sum(failed_ops(plan, it.problems) for it in its)
    attempted = plan.ops * len(its)
    if args.trace:
        metrics, table = per_layer(plan, plain, traced)
        (workdir / "layers.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    else:
        samples = end_to_end(plan, plain)
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    for label, run, msg in problems[:20]:
        print(f"FAILED {label} run {run}: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} iterations"
          + (f", {len(traced)} traced" if args.trace else "")
          + f", {attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        spread = ""
        if not args.trace:
            spread = "  (iterations: " + " ".join(f"{v:.4g}" for v in samples[name]) + ")"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{spread}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
