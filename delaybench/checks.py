"""Output checks. Each compares the program's files with values computed
here, or with properties the method must have; none compares with a stored
copy of earlier output.

Every check returns a list of problems ``(run_id, message)``. ``run_id`` is
None for a problem that belongs to no single run, such as a wrong summary
row or metadata value; that fails every operation of the batch.
"""

from __future__ import annotations

import math
from pathlib import Path

TRACE_HEADER = "run_id,t,cum_regret"
SUMMARY_HEADER = "t,mean_regret,std_regret"
TOL = 1e-12


def failed_ops(problems: list, n_ops: int) -> int:
    """Operations failed by these problems: the runs they name, or all."""
    if any(run_id is None for run_id, _ in problems):
        return n_ops
    return len({run_id for run_id, _ in problems})


def read_traces(path: Path) -> dict:
    """run_id -> list of (t, cum_regret) in file order. Strict: a row that
    is not int,int,float raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"{path.name}: header {header!r}")
        runs: dict = {}
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 3:
                raise ValueError(f"{path.name}:{lineno}: {line!r}")
            runs.setdefault(int(fields[0]), []).append((int(fields[1]), float(fields[2])))
    return runs


def check_traces(runs: dict, n_runs: int, T: int) -> list:
    """Run ids 0..n_runs-1, T contiguous rounds each, cumulative regret
    non-negative, non-decreasing and rising by at most 1 per round."""
    problems = []
    if sorted(runs) != list(range(n_runs)):
        problems.append((None, f"traces: run ids {sorted(runs)[:5]}..., "
                               f"expected 0..{n_runs - 1}"))
    for run_id, rows in runs.items():
        if [t for t, _ in rows] != list(range(1, T + 1)):
            problems.append((run_id, f"traces: run {run_id}: rounds are not 1..{T}"))
            continue
        prev = 0.0
        for t, value in rows:
            if not (math.isfinite(value) and value >= -TOL
                    and -TOL <= value - prev <= 1.0 + TOL):
                problems.append((run_id, f"traces: run {run_id} round {t}: "
                                         f"{prev!r} -> {value!r}"))
                break
            prev = value
    return problems


def read_summary(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != SUMMARY_HEADER:
            raise ValueError(f"{path.name}: header {header!r}")
        rows = []
        for line in fh:
            t, mean, std = line.rstrip("\n").split(",")
            rows.append((int(t), float(mean), float(std)))
    return rows


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= TOL * max(abs(want), scale)


def check_summary(rows: list, runs: dict, T: int) -> list:
    """Per-round mean and population std, recomputed with exact sums.

    Both must agree within 1e-12 relative. The std is taken relative to the
    larger of itself and the mean, since its rounding error scales with the
    data, not with the spread.
    """
    if [t for t, _, _ in rows] != list(range(1, T + 1)):
        return [(None, f"summary: rounds are not 1..{T}")]
    per_run = [[v for _, v in runs[r]] for r in sorted(runs)]
    for (t, mean, std), column in zip(rows, zip(*per_run)):
        n = len(column)
        my_mean = math.fsum(column) / n
        my_std = math.sqrt(math.fsum((x - my_mean) ** 2 for x in column) / n)
        if not (_close(mean, my_mean) and _close(std, my_std, abs(my_mean))):
            return [(None, f"summary: round {t}: ({mean!r}, {std!r}), "
                           f"recomputed ({my_mean!r}, {my_std!r})")]
    return []


def read_key_values(path: Path) -> dict:
    """``key = value`` lines, as in metadata.txt and the coverage output."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                values[key] = value
    return values


def check_metadata(meta: dict, cmd) -> list:
    """Window m and capture probability tau_m against our own values."""
    problems = []
    if meta.get("m") != str(cmd.m):
        problems.append((None, f"metadata: m = {meta.get('m')!r}, expected {cmd.m}"))
    try:
        tau = float(meta["tau_m"])
    except (KeyError, ValueError):
        return problems + [(None, f"metadata: tau_m = {meta.get('tau_m')!r}")]
    if not _close(tau, cmd.tau):
        problems.append((None, f"metadata: tau_m = {tau!r}, expected {cmd.tau!r}"))
    return problems


def check_learning(runs: dict, cmd) -> list:
    """Mean final regret at most half of uniform play's expected regret."""
    if cmd.uniform_regret is None:
        return []
    mean = math.fsum(rows[-1][1] for rows in runs.values()) / len(runs)
    if mean > 0.5 * cmd.uniform_regret:
        return [(None, f"learning: mean final regret {mean:.3f} is not below half "
                       f"of uniform play's {cmd.uniform_regret:.3f}")]
    return []


def check_run_outputs(out_dir: Path, cmd) -> list:
    """Every check of one ``run`` command's traces, summary and metadata."""
    try:
        runs = read_traces(out_dir / "traces.csv")
        summary = read_summary(out_dir / "summary.csv")
        meta = read_key_values(out_dir / "metadata.txt")
    except (OSError, ValueError) as exc:
        return [(None, f"unreadable output: {exc}")]
    problems = check_traces(runs, cmd.runs, cmd.T)
    if problems:
        return problems
    return (check_summary(summary, runs, cmd.T) + check_metadata(meta, cmd)
            + check_learning(runs, cmd))


def coverage_floor(delta: float, reps: int) -> float:
    return 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / reps)


def check_coverage_output(path: Path, cmd) -> list:
    """Coverage at least 1 - delta - 3 standard errors; tau_m our own."""
    try:
        values = read_key_values(path)
        reps, tau, coverage = (int(values["reps"]), float(values["tau_m"]),
                               float(values["coverage"]))
    except (OSError, KeyError, ValueError) as exc:
        return [(None, f"unreadable coverage output: {exc!r}")]
    problems = []
    if reps != cmd.runs:
        problems.append((None, f"coverage: reps = {reps}, expected {cmd.runs}"))
    if not _close(tau, cmd.tau):
        problems.append((None, f"coverage: tau_m = {tau!r}, expected {cmd.tau!r}"))
    floor = coverage_floor(cmd.delta, cmd.runs)
    if not coverage >= floor:
        problems.append((None, f"coverage: {coverage!r} is below {floor:.4f}"))
    return problems


def check_command(out_dir: Path, cmd) -> list:
    if cmd.kind == "run":
        return check_run_outputs(out_dir, cmd)
    return check_coverage_output(out_dir / "stdout.txt", cmd)
