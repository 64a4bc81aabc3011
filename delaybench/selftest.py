"""Self-test of the benchmark's correctness checks.

Usage: python3 delaybench/selftest.py

Each check must pass on the program's real outputs and fail on a copy
that is corrupted in one place, counting at least one failed operation.
The audit of traced episodes is tested the same way, on small episodes
played by a program that is broken in one place at run time (in a
separate process per case, since the wrappers cannot be removed again).
Prints one line per case and exits 1 if any check does not bite.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE.parent / "delaybench_results" / "selftest"


def _edit_line(path: Path, lineno: int, edit) -> None:
    """Replace line ``lineno`` (0 is the header) by ``edit(line)``; None drops it."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lineno] = edit(lines[lineno])
    path.write_text("\n".join(line for line in lines if line is not None), encoding="utf-8")


def _replace_value(path: Path, key: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    path.write_text("\n".join(lines), encoding="utf-8")


def _field(index: int, change):
    def edit(line: str) -> str:
        fields = line.split(",")
        fields[index] = repr(change(float(fields[index])))
        return ",".join(fields)
    return edit


def _not_learning(out: Path, runs: int, T: int) -> None:
    """Every run loses 0.3 per round; traces and summary stay consistent."""
    rows = [f"{r},{t},{0.3 * t!r}" for r in range(runs) for t in range(1, T + 1)]
    (out / "traces.csv").write_text("\n".join([checks.TRACE_HEADER] + rows) + "\n")
    rows = [f"{t},{0.3 * t!r},0" for t in range(1, T + 1)]
    (out / "summary.csv").write_text("\n".join([checks.SUMMARY_HEADER] + rows) + "\n")


def output_cases(cmd) -> list:
    """(name, corruption of the output directory) for a preset A ``run``."""
    T = cmd.T
    return [
        ("traces: one regret value lowered",
         lambda d: _edit_line(d / "traces.csv", 1500, _field(2, lambda v: v - 0.01))),
        ("traces: one regret value raised by more than 1",
         lambda d: _edit_line(d / "traces.csv", 1500, _field(2, lambda v: v + 1.5))),
        ("traces: one row dropped",
         lambda d: _edit_line(d / "traces.csv", 10, lambda line: None)),
        ("traces: a run id changed",
         lambda d: _edit_line(d / "traces.csv", T + 1, lambda line: "7" + line[1:])),
        ("summary: one mean off by 1e-9 relative",
         lambda d: _edit_line(d / "summary.csv", 2000, _field(1, lambda v: v * (1 + 1e-9)))),
        ("summary: one std off by 1e-9 relative",
         lambda d: _edit_line(d / "summary.csv", 2000, _field(2, lambda v: v * (1 + 1e-9)))),
        ("metadata: tau_m off by 1e-9 relative",
         lambda d: _replace_value(d / "metadata.txt", "tau_m", repr(cmd.tau * (1 + 1e-9)))),
        ("metadata: window m off by one",
         lambda d: _replace_value(d / "metadata.txt", "m", str(cmd.m + 1))),
        ("learning: regret of a policy that does not learn",
         lambda d: _not_learning(d, cmd.runs, T)),
    ]


def coverage_cases(cmd) -> list:
    out = "stdout.txt"
    return [
        ("coverage: value below the floor",
         lambda d: _replace_value(d / out, "coverage", "0.25")),
        ("coverage: tau_m off by 1e-9 relative",
         lambda d: _replace_value(d / out, "tau_m", repr(cmd.tau * (1 + 1e-9)))),
        ("coverage: reps changed",
         lambda d: _replace_value(d / out, "reps", str(cmd.runs + 1))),
    ]


# Run-time breakages of the program for the audit cases; each is applied
# before the wrappers are installed.
AUDIT_CASES = {
    "clean": "",
    "regret reported 1e-6 too high": """
from delayed_bandits.environment import DelayedBanditEnv as C
f = C.instantaneous_regret
C.instantaneous_regret = lambda self, a, s: f(self, a, s) + 1e-6
""",
    "design matrix drifts": """
from delayed_bandits.estimator import WindowedEstimator as C
f = C.record_action
def g(self, a):
    f(self, a)
    self.V[0, 0] += 1e-6
C.record_action = g
""",
    "estimate scaled": """
from delayed_bandits.estimator import WindowedEstimator as C
f = C.estimate
C.estimate = lambda self: 1.001 * f(self)
""",
    "conversions never credited": """
from delayed_bandits.estimator import WindowedEstimator as C
C.record_conversion = lambda self, s: None
""",
    "window two rounds too long": """
from delayed_bandits.estimator import WindowedEstimator as C
f = C.record_action
def g(self, a):
    self.m += 2
    try:
        f(self, a)
    finally:
        self.m -= 2
C.record_action = g
""",
}

AUDIT_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from delayed_bandits import cli, harness
{breakage}
from tracer import Audit, Tracer
from delayed_bandits.estimator import WindowedEstimator
audit = Audit(WindowedEstimator)
Tracer().install("delayed_bandits", audit.hooks())
config = harness.ExperimentConfig(d=3, K=4, T=400, delay_mean=3.0, m=3, n_runs=2,
                                  policy={policy!r})
harness.run_batch(config)
harness.concentration_coverage(config, 2)
print(json.dumps(audit.problems))
"""


def run_audit_case(breakage: str, policy: str) -> list:
    script = AUDIT_SCRIPT.format(src=str(SRC), here=str(HERE), breakage=breakage,
                                 policy=policy)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(SRC))
    from delayed_bandits import cli

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    failures = 0

    def report(name: str, bites: bool) -> None:
        nonlocal failures
        failures += not bites
        print(f"{'ok  ' if bites else 'FAIL'} {name}")

    for workload, cases in (("preset_a", output_cases), ("coverage", coverage_cases)):
        plan = workloads.prepare(workload, 0, WORKDIR)
        cmd = plan.commands[0]
        clean = WORKDIR / f"{workload}-clean"
        clean.mkdir()
        with open(clean / "stdout.txt", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main(cmd.argv_for(clean, traced=False))
        problems = checks.check_command(clean, cmd) if code == 0 else [(None, f"exit {code}")]
        report(f"{workload}: real outputs pass", not problems)
        for name, corrupt in cases(cmd):
            broken = WORKDIR / f"{workload}-broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(clean, broken)
            corrupt(broken)
            problems = checks.check_command(broken, cmd)
            report(f"{name} -> {problems[0][1] if problems else 'not detected'}",
                   checks.failed_ops(problems, cmd.runs) > 0)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report("BENCHMARK.json lists the metrics the benchmark prints",
           listed == {**run.END_TO_END, **run.PER_LAYER}
           and [w["name"] for w in spec["workloads"]] == list(workloads.NAMES))

    for policy in ("otf_linucb", "otf_lints"):
        for name, breakage in AUDIT_CASES.items():
            problems = run_audit_case(breakage, policy)
            if name == "clean":
                report(f"audit {policy}: real episodes pass", not problems)
            else:
                report(f"audit {policy}: {name} -> "
                       f"{problems[0][2] if problems else 'not detected'}", bool(problems))
    print(f"{failures} check(s) did not bite" if failures else "every check bites")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
