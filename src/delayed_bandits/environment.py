"""Simulation of the censored delayed-feedback interaction protocol.

Each round the learner picks one action from a finite set of unit-ball
vectors, the environment draws a Bernoulli reward with mean equal to the
action/parameter inner product plus an independent delay, and only
positive rewards are ever revealed, each exactly once, at the end of the
round where its delay elapses. Negative rewards are permanently silent,
so a missing signal never distinguishes "no conversion" from "not yet".
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .delays import DelayDistribution

__all__ = [
    "ActionSet",
    "ConversionEvent",
    "DelayedBanditEnv",
    "action_block_rounds",
    "action_sets",
    "generate_action_set",
    "outcome_block",
    "round_outcomes",
]

#: slack of every unit-ball and [0, 1]-mean check: ``ActionSet``'s norms,
#: ``step``'s means, and the config's check of theta
NORM_TOL = 1e-9
#: most action entries (rounds x K x d) drawn in one block
ACTION_BLOCK_ENTRIES = 16_384
#: rounds of reward uniforms and of delays drawn in one block
OUTCOME_BLOCK_ROUNDS = 1024


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
        if not np.all(norms <= 1.0 + NORM_TOL):  # NaN fails too
            raise ValueError(f"action norm exceeds 1: max {norms.max():.12f}")
        object.__setattr__(self, "actions", arr)

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


def action_block_rounds(d: int, K: int) -> int:
    """Rounds of action sets drawn per block: as many as fit in
    ``ACTION_BLOCK_ENTRIES`` action entries, and at least one.

    It depends on d and K only, never on the horizon, so an episode draws
    the same blocks whatever its length.
    """
    return max(1, ACTION_BLOCK_ENTRIES // (K * d))


def _random_bits(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """A (rows, d) float array of 0/1 bits unpacked from the generator's bytes."""
    raw = np.frombuffer(rng.bytes(-(-rows * d // 8)), dtype=np.uint8)
    # float bits: generate_action_set's sums and division then need no
    # int-to-float cast buffers
    return np.unpackbits(raw, count=rows * d).reshape(rows, d).astype(float)


def generate_action_set(rng: np.random.Generator, d: int, K: int, n: int) -> np.ndarray:
    """``n`` rounds of K actions, an (n, K, d) block; each action is drawn
    uniformly from the nonzero binary vectors and normalized.

    The bits come from ``rng.bytes``, most significant bit first, row after
    row. All-zero rows are redrawn, in row order, from further bytes until
    none is left, so every action has unit norm.
    """
    if d < 1 or K < 1 or n < 1:
        raise ValueError("d, K and n must be at least 1")
    bits = _random_bits(rng, n * K, d)
    counts = bits.sum(axis=1)
    zero_rows = np.flatnonzero(counts == 0)
    while zero_rows.size:
        redrawn = _random_bits(rng, zero_rows.size, d)
        bits[zero_rows] = redrawn
        counts[zero_rows] = redrawn.sum(axis=1)
        zero_rows = zero_rows[counts[zero_rows] == 0]
    # 0/1 rows: the count of ones is the exact squared norm, so this equals
    # dividing by np.linalg.norm
    bits /= np.sqrt(counts)[:, None]
    return bits.reshape(n, K, d)


def action_sets(blocks: Iterable[np.ndarray]) -> Iterator[ActionSet]:
    """Every round's action set, from (n, K, d) blocks of validated actions
    such as ``generate_action_set``'s."""
    for block in blocks:
        for actions in block:
            yield ActionSet._from_validated(actions)


def outcome_block(delay_dist: DelayDistribution, reward_rng: np.random.Generator,
                  delay_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The next ``OUTCOME_BLOCK_ROUNDS`` rounds' reward uniforms and delays,
    each from its own generator. One delay is drawn per round whether or
    not the round converts."""
    return (reward_rng.random(OUTCOME_BLOCK_ROUNDS),
            delay_dist.sample_n(delay_rng, OUTCOME_BLOCK_ROUNDS))


def round_outcomes(delay_dist: DelayDistribution, reward_rng: np.random.Generator,
                   delay_rng: np.random.Generator) -> Iterator[tuple[float, int]]:
    """Every round's reward uniform and delay, drawn by ``outcome_block``."""
    while True:
        uniforms, delays = outcome_block(delay_dist, reward_rng, delay_rng)
        yield from zip(uniforms.tolist(), delays.tolist())


class DelayedBanditEnv:
    """One episode's environment state: true parameter, delays, pending queue.

    Owns its two random generators, one for the reward uniforms and one for
    the delays (see ``round_outcomes``); one instance per episode, never
    shared.
    """

    def __init__(self, theta: np.ndarray, delay_dist: DelayDistribution,
                 reward_rng: np.random.Generator, delay_rng: np.random.Generator):
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.ndim != 1:
            raise ValueError("theta must be a vector")
        self._outcomes = round_outcomes(delay_dist, reward_rng, delay_rng)
        self.t = 1
        # reveal round -> rounds whose positive outcome is revealed then
        self._pending: dict[int, list[int]] = {}

    def step(self, chosen: int, action_set: ActionSet) -> list[ConversionEvent]:
        """Play one round; return the conversions revealed at its end.

        Takes the round's reward uniform and delay, queues a positive
        outcome for its reveal round, and returns every queued positive
        whose delay elapses this round (a zero delay reveals immediately).
        """
        means = action_set.actions @ self.theta
        if not (means.min() >= -NORM_TOL and means.max() <= 1.0 + NORM_TOL):  # NaN fails too
            raise ValueError(
                f"mean reward out of range [0, 1]: min {means.min():.6g}, "
                f"max {means.max():.6g}"
            )
        t = self.t
        u, d = next(self._outcomes)
        if u < float(means[chosen]):
            self._pending.setdefault(t + d, []).append(t)
        self.t = t + 1
        # each reveal list was appended in increasing round order
        return [ConversionEvent(s) for s in self._pending.pop(t, [])]

    def instantaneous_regret(self, chosen: np.ndarray, action_set: ActionSet) -> float:
        """Gap between the best available expected reward and the chosen one."""
        values = action_set.actions @ self.theta
        return float(values.max() - chosen @ self.theta)
