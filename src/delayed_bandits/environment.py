"""Simulation of the censored delayed-feedback interaction protocol.

Each round the learner picks one action from a finite set of unit-ball
vectors, the environment draws a Bernoulli reward with mean equal to the
action/parameter inner product plus an independent delay, and only
positive rewards are ever revealed, each exactly once, at the end of the
round where its delay elapses. Negative rewards are permanently silent,
so a missing signal never distinguishes "no conversion" from "not yet".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delays import DelayDistribution

__all__ = [
    "ActionSet",
    "ConversionEvent",
    "DelayedBanditEnv",
    "generate_action_set",
    "make_hard_instance_pair",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ActionSet:
    """A round's finite menu of d-dimensional actions, rows of ``actions``."""

    actions: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.actions, dtype=float)
        if arr.ndim != 2:
            raise ValueError("actions must be a (K, d) array")
        if arr.shape[0] < 1:
            raise ValueError("action set must contain at least one action")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms > 1.0 + _NORM_TOL):
            raise ValueError(f"action norm exceeds 1: max {norms.max():.12f}")
        object.__setattr__(self, "actions", arr)

    def __len__(self) -> int:
        return self.actions.shape[0]

    @classmethod
    def _from_validated(cls, actions: np.ndarray) -> "ActionSet":
        # fast path for internally generated, already-normalized sets
        obj = object.__new__(cls)
        object.__setattr__(obj, "actions", actions)
        return obj


@dataclass(frozen=True)
class ConversionEvent:
    """A revealed positive reward, attributed to the round that caused it."""

    round_index: int


def generate_action_set(rng: np.random.Generator, d: int, K: int) -> ActionSet:
    """K actions drawn uniformly from the nonzero binary vectors, normalized.

    All-zero draws are rejected and redrawn, so every action has unit norm.
    """
    if d < 1 or K < 1:
        raise ValueError("d and K must be at least 1")
    mat = rng.integers(0, 2, size=(K, d)).astype(float)
    zero_rows = ~mat.any(axis=1)
    while zero_rows.any():
        mat[zero_rows] = rng.integers(0, 2, size=(int(zero_rows.sum()), d))
        zero_rows = ~mat.any(axis=1)
    # 0/1 rows: the sum is the exact squared norm, so this equals np.linalg.norm
    mat /= np.sqrt(mat.sum(axis=1, keepdims=True))
    return ActionSet._from_validated(mat)


def make_hard_instance_pair(K: int, gap: float, arm: int) -> tuple[np.ndarray, np.ndarray]:
    """Twin K-armed Bernoulli parameter vectors differing in one arm.

    The first vector gives arm 1 an edge of ``gap`` over the rest; the
    second is identical except arm ``arm`` (1-based, >= 2) is raised to
    1/2 + 2*gap, making it the best arm instead. Intended for use with the
    fixed standard-basis action set.
    """
    if K < 2:
        raise ValueError("hard instance needs K >= 2 arms")
    if not (0.0 < gap < 0.25):
        raise ValueError(f"gap must lie in (0, 1/4), got {gap}")
    if not (2 <= arm <= K):
        raise ValueError(f"arm must lie in [2, K], got {arm}")
    theta = np.full(K, 0.5)
    theta[0] = 0.5 + gap
    phi = theta.copy()
    phi[arm - 1] = 0.5 + 2.0 * gap
    return theta, phi


class DelayedBanditEnv:
    """One episode's environment state: true parameter, delays, pending queue.

    Owns its random generator; one instance per episode, never shared.
    """

    def __init__(self, theta: np.ndarray, delay_dist: DelayDistribution,
                 rng: np.random.Generator):
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.ndim != 1:
            raise ValueError("theta must be a vector")
        self.delay_dist = delay_dist
        self.rng = rng
        self.t = 1
        self.last_reward = 0
        # reveal round -> rounds whose positive outcome is revealed then
        self._pending: dict[int, list[int]] = {}

    def step(self, chosen: int, action_set: ActionSet) -> list[ConversionEvent]:
        """Play one round; return the conversions revealed at its end.

        Samples the chosen action's reward and delay, queues a positive
        outcome for its reveal round, and returns every queued positive
        whose delay elapses this round (a zero delay reveals immediately).
        """
        means = action_set.actions @ self.theta
        if means.min() < -_NORM_TOL or means.max() > 1.0 + _NORM_TOL:
            raise ValueError(
                f"mean reward out of range [0, 1]: min {means.min():.6g}, "
                f"max {means.max():.6g}"
            )
        t = self.t
        p = min(max(float(means[chosen]), 0.0), 1.0)
        x = 1 if self.rng.random() < p else 0
        d = self.delay_dist.sample(self.rng)
        self.last_reward = x
        if x == 1:
            self._pending.setdefault(t + d, []).append(t)
        self.t = t + 1
        return [ConversionEvent(s) for s in sorted(self._pending.pop(t, []))]

    def instantaneous_regret(self, chosen: np.ndarray, action_set: ActionSet) -> float:
        """Gap between the best available expected reward and the chosen one."""
        values = action_set.actions @ self.theta
        return float(values.max() - chosen @ self.theta)
