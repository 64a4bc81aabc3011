"""One iteration of a workload, in a fresh process.

Usage: python3 child.py SPEC.json

Imports the package from the spec's source directory (timed: it is part of
set-up), calls ``delayed_bandits.cli.main`` once per command and writes a
JSON result to the spec's result path. Untraced, it places phase markers
only: the first call of ``harness.run_episode`` (in the worker processes
too), and the calls of ``harness.run_batch``, ``io.emit_csv`` and
``harness.concentration_coverage``. Traced, it wraps every public function
and method of the package (see tracer.py).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import struct
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Markers:
    """First-call times of the phase boundaries of one command.

    Episode start times go through a pipe, so that worker processes forked
    by the program report theirs too.
    """

    def __init__(self):
        self.marks: dict = {}
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)

    def reset(self):
        self.marks = {}
        self.episode_start()

    def episode_start(self):
        """Earliest episode start written since the last call, or None."""
        data = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self._read, 65536):
                data += chunk
        return min(struct.unpack(f"{len(data) // 8}d", data), default=None)

    def install(self, harness, io):
        harness.run_batch = self._timed(harness.run_batch, "batch")
        harness.concentration_coverage = self._timed(harness.concentration_coverage, "coverage")
        io.emit_csv = self._timed(io.emit_csv, "emit")
        original = harness.run_episode

        @functools.wraps(original)
        def run_episode(*args, **kwargs):
            os.write(self._write, struct.pack("d", clock()))
            return original(*args, **kwargs)

        harness.run_episode = run_episode

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.marks.setdefault(f"{name}_in", clock())
            result = fn(*args, **kwargs)
            self.marks[f"{name}_out"] = clock()
            return result

        return wrapper


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    traced = spec["traced"]
    t0 = clock()
    sys.path.insert(0, spec["src"])
    from delayed_bandits import cli, harness, io
    if traced:
        from tracer import Audit, Tracer
        from delayed_bandits.estimator import WindowedEstimator
        audit = Audit(WindowedEstimator)
        tracer = Tracer()
        tracer.install("delayed_bandits", audit.hooks())
    else:
        markers = Markers()
        markers.install(harness, io)
    import_s = clock() - t0

    result = {"import_s": import_s, "commands": []}
    for cmd in spec["commands"]:
        out = Path(cmd["out"])
        out.mkdir(parents=True, exist_ok=True)
        if traced:
            audit.label = cmd["label"]
        else:
            markers.reset()
        with open(out / "stdout.txt", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            call = clock()
            code = cli.main(cmd["argv"])
            ret = clock()
        entry = {"label": cmd["label"], "code": code, "wall_s": ret - call,
                 "bytes": sum(p.stat().st_size for p in out.iterdir()
                              if p.name != "stdout.txt")}
        if not traced:
            marks = markers.marks
            if cmd["kind"] == "coverage":
                start, end = marks.get("coverage_in"), marks.get("coverage_out")
            else:
                start = markers.episode_start() or marks.get("batch_in")
                end = marks.get("emit_in") or marks.get("batch_out")
            if code == 0 and start is not None and end is not None:
                entry["setup_s"] = start - call
                entry["sim_s"] = end - start
        result["commands"].append(entry)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # each worker is counted at the largest worker's peak
    result["peak_rss_mb"] = (self_kb + spec["workers"] * child_kb) / 1024.0
    if traced:
        result.update(stats=tracer.stats, hook_s=tracer.hook_s,
                      problems=audit.problems, episodes=audit.episodes,
                      revealed=audit.revealed, offered=audit.offered,
                      credited=audit.credited)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
