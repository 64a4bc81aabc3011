"""The four benchmark workloads: the commands each one runs and the inputs
it makes from its seed, plus the values the benchmark expects of the
outputs, computed here without calling the program.

A workload is a list of commands. One iteration of a workload runs every
command once through ``delayed_bandits.cli.main`` in a fresh process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Work per iteration. Each is sized so that one iteration takes about two
# seconds on a 2-core machine, which gives several iterations per run.
PRESET_A_RUNS = 3
HIGHDIM = dict(d=50, K=100, T=1000, delay_mean=100.0, m=100, runs=2)
EMPIRICAL = dict(d=5, K=10, T=3000, runs=4, jobs=2, lines=100_000,
                 log_mean=3.5, log_std=1.2)
COVERAGE_REPS = 4

# Preset A as the README documents it; the benchmark does not read the
# program's preset table.
PRESET_A = dict(d=5, K=10, T=3000, delay_mean=100.0, m=100, delta=0.05)

NAMES = ("preset_a", "highdim", "empirical_parallel", "coverage")


@dataclass
class Command:
    """One call into ``cli.main`` and what its outputs must satisfy."""

    label: str
    kind: str               # "run" or "coverage"
    argv: list              # without --out; see argv_for()
    T: int
    runs: int               # episodes, or replications for coverage
    m: int
    tau: float
    delta: float = 0.05
    n_jobs: int = 1
    # expected final regret of uniform play; None leaves the learning
    # check out (see README: OTFLinUCB does not beat it at d=50)
    uniform_regret: float | None = None

    def argv_for(self, out_dir: Path, traced: bool) -> list:
        argv = list(self.argv)
        if self.kind == "run":
            argv += ["--out", str(out_dir)]
            if traced and self.n_jobs > 1:
                # traced runs are serial, so the trace sees every call and
                # the identity check also compares serial with parallel
                argv += ["--jobs", "1"]
        return argv

    @property
    def rounds(self) -> int:
        return self.runs * self.T


@dataclass
class Plan:
    commands: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(c.runs for c in self.commands)


def base_seed(seed: int) -> int:
    """Program base seed for a benchmark seed; runs use base..base+99."""
    return 100 * seed


def geometric_tau(mean: float, m: int) -> float:
    """P(D <= m) for a geometric delay on {0, 1, ...} with the given mean."""
    p = 1.0 / (mean + 1.0)
    return -math.expm1((m + 1) * math.log1p(-p))


def uniform_regret(d: int, K: int, T: int) -> float:
    """Expected T-round regret of uniform play with theta = 1/sqrt(d) * 1.

    Actions are K independent draws of a nonzero binary vector, normalized;
    an action with k ones has mean reward sqrt(k / d), and k is binomial
    (d, 1/2) conditioned on k >= 1.
    """
    weights = [math.comb(d, k) for k in range(d + 1)]
    total = 2 ** d - 1
    value = [math.sqrt(k / d) for k in range(d + 1)]
    cdf, acc = [0.0] * (d + 1), 0
    for k in range(1, d + 1):
        acc += weights[k]
        cdf[k] = acc / total
    e_max = sum(value[k] * (cdf[k] ** K - cdf[k - 1] ** K) for k in range(1, d + 1))
    e_mean = sum(value[k] * weights[k] for k in range(1, d + 1)) / total
    return T * (e_max - e_mean)


def delay_samples(seed: int, n: int, log_mean: float, log_std: float) -> list:
    """Heavy-tailed integer delays: floors of lognormal draws."""
    rng = random.Random(f"delaybench-delays-{seed}")
    return [int(rng.lognormvariate(log_mean, log_std)) for _ in range(n)]


def empirical_window(samples: list) -> tuple[int, float]:
    """Auto window ceil(2 * mean) and the share of samples <= it."""
    m = math.ceil(2 * Fraction(sum(samples), len(samples)))
    tau = sum(1 for v in samples if v <= m) / len(samples)
    return m, tau


def _write(path: Path, lines: list) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def prepare(name: str, seed: int, workdir: Path) -> Plan:
    """Make the workload's inputs under ``workdir`` and return its plan."""
    base = base_seed(seed)
    plan = Plan()
    a = PRESET_A
    if name == "preset_a":
        plan.commands.append(Command(
            "preset_a", "run",
            ["run", "--preset", "A", "--runs", str(PRESET_A_RUNS), "--seed", str(base)],
            T=a["T"], runs=PRESET_A_RUNS, m=a["m"],
            tau=geometric_tau(a["delay_mean"], a["m"]),
            uniform_regret=uniform_regret(a["d"], a["K"], a["T"])))
    elif name == "highdim":
        h = HIGHDIM
        cfg = _write(workdir / "highdim.cfg", [
            f"d = {h['d']}", f"K = {h['K']}", f"T = {h['T']}",
            "delay = geometric", f"delay_mean = {h['delay_mean']}", f"m = {h['m']}",
            f"n_runs = {h['runs']}", f"base_seed = {base}",
        ])
        for policy in ("otf_linucb", "otf_lints"):
            plan.commands.append(Command(
                policy, "run", ["run", "--config", str(cfg), "--policy", policy],
                T=h["T"], runs=h["runs"], m=h["m"],
                tau=geometric_tau(h["delay_mean"], h["m"])))
    elif name == "empirical_parallel":
        e = EMPIRICAL
        samples = delay_samples(seed, e["lines"], e["log_mean"], e["log_std"])
        delays = _write(workdir / "delays.txt",
                        ["# heavy-tailed delay samples, one per line"]
                        + [str(v) for v in samples])
        m, tau = empirical_window(samples)
        cfg = _write(workdir / "empirical.cfg", [
            "policy = otf_lints", f"d = {e['d']}", f"K = {e['K']}", f"T = {e['T']}",
            "delay = empirical", f"delay_path = {delays}", "m = auto",
            f"n_runs = {e['runs']}", f"n_jobs = {e['jobs']}", f"base_seed = {base}",
        ])
        plan.commands.append(Command(
            "empirical", "run", ["run", "--config", str(cfg)],
            T=e["T"], runs=e["runs"], m=m, tau=tau, n_jobs=e["jobs"],
            uniform_regret=uniform_regret(e["d"], e["K"], e["T"])))
    elif name == "coverage":
        cfg = _write(workdir / "coverage.cfg", [f"base_seed = {base}"])
        plan.commands.append(Command(
            "coverage", "coverage",
            ["coverage", "--config", str(cfg), "--preset", "A", "--reps", str(COVERAGE_REPS)],
            T=a["T"], runs=COVERAGE_REPS, m=a["m"],
            tau=geometric_tau(a["delay_mean"], a["m"]), delta=a["delta"]))
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
    return plan
