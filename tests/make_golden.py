"""Write ``golden_layout2.json``, the golden trajectories that ``test_golden.py``
compares against.

Usage: PYTHONPATH=src python tests/make_golden.py

For presets A-D and each policy kind, runs 0 and 1 of base seed 0 are played
at a horizon of ``T`` rounds, which goes past the first outcome block. Each
run keeps its cumulative regret at every ``EVERY``-th round and at round
``T``, and its elliptical potential. ``K_ARMED_HARD``, the
fixed-basis hard instance, is played the same way. For A-D at the preset's
own horizon, for ``LONG_DELAY`` and for ``K_ARMED_HARD``, it also keeps the
three ``Coverage`` fields of ``concentration_coverage`` with ``REPS``
replications; so it does for ``WIDE``, preset A's scenario at two larger
dimensions. A change that moves
outputs on purpose regenerates the file with this script and says why.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from delayed_bandits.harness import (PRESETS, RNG_LAYOUT, ExperimentConfig, build_config,
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
# the K-armed hard instance on the standard basis, whose actions are the
# same every round
K_ARMED_HARD = dict(d=6, K=6, T=T, theta="k_armed_hard", hard_gap=0.15,
                    action_mode="fixed_basis", delay_mean=30.0, m=60)
# coverage at T rounds of preset A's scenario where the estimator folds each
# 128-round block in three chunks (d = 24) or in ten of at most 13 rows
# (d = 50); the block of rounds 897-1024 holds the periodic re-inversion at
# round 1000
WIDE = {f"A_d{d}": ExperimentConfig(**{**PRESETS["A"], "d": d, "T": T}) for d in (24, 50)}


def golden_values() -> dict:
    """Every value the golden file holds, computed by the current code."""
    rounds = sorted({*range(EVERY, T + 1, EVERY), T})
    episodes, coverage = {}, {}
    cases = [(preset, {}, preset) for preset in PRESET_NAMES]
    cases.append(("k_armed_hard", K_ARMED_HARD, None))
    for name, values, preset in cases:
        for policy in POLICIES:
            config = replace(build_config({**values, "policy": policy}, preset), T=T,
                             base_seed=0)
            for run in RUNS:
                trace = run_episode(config, run)
                episodes[f"{name}/{policy}/{run}"] = {
                    "cum_regret": [float(trace.cum_regret[t - 1]) for t in rounds],
                    "elliptical_potential": float(trace.elliptical_potential),
                }
        coverage[name] = concentration_coverage(build_config(values, preset), REPS)._asdict()
    coverage["long_delay"] = concentration_coverage(LONG_DELAY, REPS)._asdict()
    for name, config in WIDE.items():
        coverage[name] = concentration_coverage(config, REPS)._asdict()
    return {"rng_layout": RNG_LAYOUT, "T": T, "rounds": rounds, "reps": REPS,
            "episodes": episodes, "coverage": coverage}


def main() -> None:
    GOLDEN.write_text(json.dumps(golden_values(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
