"""Golden-trajectory gate: the current code reproduces ``golden_layout2.json``.

The file pins values, not bytes: BLAS kernels for other CPUs change the last
bits of a trace while the values agree to 1e-9. Floats are compared at a
relative tolerance of 1e-9 and counts exactly. A change that moves outputs
on purpose regenerates the file with ``tests/make_golden.py``.
"""

import json

import numpy as np
import pytest

from make_golden import GOLDEN, golden_values

RTOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return golden_values()


def test_same_layout_and_keys(golden, current):
    for key in ("rng_layout", "T", "rounds", "reps"):
        assert current[key] == golden[key], key
    assert current["episodes"].keys() == golden["episodes"].keys()
    assert current["coverage"].keys() == golden["coverage"].keys()


def test_episode_trajectories(golden, current):
    for key, want in golden["episodes"].items():
        got = current["episodes"][key]
        np.testing.assert_allclose(got["cum_regret"], want["cum_regret"], rtol=RTOL,
                                   atol=0, err_msg=key)
        np.testing.assert_allclose(got["elliptical_potential"], want["elliptical_potential"],
                                   rtol=RTOL, atol=0, err_msg=key)


def test_coverage(golden, current):
    for preset, want in golden["coverage"].items():
        got = current["coverage"][preset]
        # coverage is a count of replications over their number
        assert got["coverage"] == want["coverage"], preset
        assert got["penalty_checks"] == want["penalty_checks"], preset
        np.testing.assert_allclose(got["max_deviation_ratio"], want["max_deviation_ratio"],
                                   rtol=RTOL, atol=0, err_msg=preset)
