"""File formats: trace/summary CSVs, metadata sidecar, flat config files.

All writers are atomic: content goes to a temporary file in the target
directory which is renamed into place, so a failed write never leaves a
partial file behind. Floats are written with 17 significant digits, which
both exceeds the 10-digit minimum and round-trips float64 exactly.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .harness import ConfigError, RegretTrace, SummaryStats

__all__ = [
    "write_traces_csv",
    "write_summary_csv",
    "write_metadata",
    "read_traces_csv",
    "read_config_file",
    "emit_csv",
]

TRACE_HEADER = "run_id,t,cum_regret"
SUMMARY_HEADER = "t,mean_regret,std_regret"


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_traces_csv(traces: list, path) -> None:
    """One row per (run, round): run_id,t,cum_regret."""
    lines = [TRACE_HEADER]
    for trace in sorted(traces, key=lambda tr: tr.run_id):
        lines.extend(
            f"{trace.run_id},{t},{value:.17g}"
            for t, value in enumerate(trace.cum_regret, start=1)
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary_csv(stats: SummaryStats, path) -> None:
    lines = [SUMMARY_HEADER]
    lines.extend(
        f"{t},{m:.17g},{s:.17g}"
        for t, (m, s) in enumerate(zip(stats.mean, stats.std), start=1)
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_metadata(items: list, path) -> None:
    """Key-value sidecar recording every resolved setting of a run."""
    lines = [f"{key} = {value}" for key, value in items]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_traces_csv(path) -> list:
    """Inverse of :func:`write_traces_csv`."""
    per_run: dict[int, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                run_id, t, value = line.split(",")
                per_run.setdefault(int(run_id), []).append((int(t), float(value)))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed trace row {line!r}") from None
    traces = []
    for run_id in sorted(per_run):
        rows = sorted(per_run[run_id])
        expected = list(range(1, len(rows) + 1))
        if [t for t, _ in rows] != expected:
            raise ValueError(f"{path}: run {run_id} has non-contiguous rounds")
        traces.append(RegretTrace(run_id=run_id,
                                  cum_regret=np.array([v for _, v in rows])))
    return traces


def emit_csv(traces: list, stats: SummaryStats, out_dir) -> tuple[Path, Path]:
    """Write traces.csv and summary.csv under ``out_dir`` (created if needed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_path = out_dir / "traces.csv"
    summary_path = out_dir / "summary.csv"
    write_traces_csv(traces, traces_path)
    write_summary_csv(stats, summary_path)
    return traces_path, summary_path


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment, and a leading
    byte-order mark is skipped. A file that cannot be opened, read or
    decoded as UTF-8 is a ``ConfigError`` that names it."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"config file not found or unreadable: {path} ({reason})") from exc
    values: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values
