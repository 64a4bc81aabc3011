"""Write ``golden_layout2.json``, the golden trajectories that ``test_golden.py``
compares against.

Usage: PYTHONPATH=src python tests/make_golden.py

For presets A-D and each policy kind, runs 0 and 1 of base seed 0 are played
at a horizon of ``T`` rounds, which goes past the first outcome block. Each
run keeps its cumulative regret at every ``EVERY``-th round and at round
``T``, and its elliptical potential. For A-D at the preset's own horizon,
and for ``LONG_DELAY``, it also keeps the three ``Coverage`` fields of
``concentration_coverage`` with ``REPS`` replications. A change that moves
outputs on purpose regenerates the file with this script and says why.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from delayed_bandits.harness import (RNG_LAYOUT, ExperimentConfig, build_config,
                                     concentration_coverage, run_episode)

GOLDEN = Path(__file__).with_name(f"golden_layout{RNG_LAYOUT}.json")
PRESET_NAMES = ("A", "B", "C", "D")
POLICIES = ("otf_linucb", "otf_lints", "random", "oracle_linucb")
RUNS = (0, 1)
T = 1100
EVERY = 50
REPS = 4
# coverage over three outcome blocks, whose delays of mean 1000 carry most
# conversions into a later block, and where the window penalty decides
# thousands of checks
LONG_DELAY = ExperimentConfig(d=2, K=10, T=3000, delay="geometric", delay_mean=1000.0,
                              m=2000)


def golden_values() -> dict:
    """Every value the golden file holds, computed by the current code."""
    rounds = sorted({*range(EVERY, T + 1, EVERY), T})
    episodes, coverage = {}, {}
    for preset in PRESET_NAMES:
        for policy in POLICIES:
            config = replace(build_config({"policy": policy}, preset), T=T, base_seed=0)
            for run in RUNS:
                trace = run_episode(config, run)
                episodes[f"{preset}/{policy}/{run}"] = {
                    "cum_regret": [float(trace.cum_regret[t - 1]) for t in rounds],
                    "elliptical_potential": float(trace.elliptical_potential),
                }
        coverage[preset] = concentration_coverage(build_config({}, preset), REPS)._asdict()
    coverage["long_delay"] = concentration_coverage(LONG_DELAY, REPS)._asdict()
    return {"rng_layout": RNG_LAYOUT, "T": T, "rounds": rounds, "reps": REPS,
            "episodes": episodes, "coverage": coverage}


def main() -> None:
    GOLDEN.write_text(json.dumps(golden_values(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
