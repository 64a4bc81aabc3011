"""Bandit policies behind a common select/observe interface.

``select`` picks an action index from the round's action set and is pure
given the internal state and the supplied generator; ``observe`` is the
only mutator and consumes the round's revealed conversions together with
the action just played. Ties break toward the lowest index among equal
*computed* scores. Scores go through BLAS, so actions whose exact scores
tie (every unit action in round 1) can compute an ulp apart, and the
larger computed score wins. Bitwise-duplicate rows can also score an ulp
apart; they are the same action, so that does not change the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import ActionSet, ConversionEvent
from .estimator import WindowedEstimator

__all__ = [
    "PolicyConfig",
    "Policy",
    "OTFLinUCB",
    "OTFLinTS",
    "OracleLinUCB",
    "RandomPolicy",
    "make_policy",
    "ucb_scores",
    "covariance_inflation",
]

POLICY_KINDS = ("otf_linucb", "otf_lints", "oracle_linucb", "random")
WIDTH_MODES = ("exact", "cached")


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "otf_linucb"
    delta: float = 0.05
    lam: float = 1.0
    m: int = 0
    width_mode: str = "cached"
    width_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.m < 0:
            raise ValueError(f"window must be >= 0, got {self.m}")
        if self.width_mode not in WIDTH_MODES:
            raise ValueError(f"unknown width mode {self.width_mode!r}")
        if self.width_scale < 0:
            raise ValueError(f"width_scale must be >= 0, got {self.width_scale}")


class Policy:
    """Select/observe interface shared by all policies."""

    #: whether the harness should feed immediate uncensored rewards
    needs_uncensored_feedback = False

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        raise NotImplementedError


def ucb_scores(est: WindowedEstimator, delta: float, mode: str,
               action_set: ActionSet, width_scale: float = 1.0) -> np.ndarray:
    """Optimistic index per action: estimated reward plus width times norm.

    ``width_scale`` rescales the selection width only; the unscaled
    confidence width is what the coverage guarantees are stated for.
    """
    A = action_set.actions
    theta = est.estimate()
    width = width_scale * est.confidence_width(delta, mode)
    return A @ theta + width * np.sqrt(np.maximum(est.sq_norms(A), 0.0))


def covariance_inflation(est: WindowedEstimator, delta: float,
                         mode: str = "cached") -> float:
    """Sampling covariance multiplier accounting for in-flight conversions.

    Equals one on an empty window and grows with the window norm sum
    relative to the exploration radius.
    """
    return 1.0 + est.window_norm_sum(mode) / est.exploration_radius(delta)


class OTFLinUCB(Policy):
    """Optimistic policy for censored delayed conversions."""

    def __init__(self, d: int, config: PolicyConfig):
        self.config = config
        self.est = WindowedEstimator(d, config.lam, config.m)

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        scores = ucb_scores(self.est, self.config.delta, self.config.width_mode,
                            action_set, self.config.width_scale)
        return int(np.argmax(scores))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for ev in events:
            self.est.record_conversion(ev.round_index)


class OTFLinTS(Policy):
    """Randomized (perturbed-leader) policy for censored delayed conversions.

    Samples a parameter from a Gaussian centered at the windowed estimate
    with covariance equal to the inflated inverse design matrix, then acts
    greedily on the sample. ``cov_scale`` rescales the covariance and
    exists as a test hook; zero makes selection deterministic.
    """

    def __init__(self, d: int, config: PolicyConfig, cov_scale: float = 1.0):
        if cov_scale < 0:
            raise ValueError("cov_scale must be non-negative")
        self.config = config
        self.cov_scale = cov_scale
        self.est = WindowedEstimator(d, config.lam, config.m)

    def sample_parameter(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Draw from N(estimate, cov_scale * inflation * V_inv) exactly.

        Uses a Cholesky square root of the unscaled covariance so a zero
        ``cov_scale`` still consumes the same amount of randomness.
        """
        infl = covariance_inflation(self.est, self.config.delta,
                                    self.config.width_mode)
        try:
            root = np.linalg.cholesky(infl * self.est.V_inv)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "covariance factorization failed; inverse design matrix "
                "is not positive definite"
            ) from exc
        theta = self.est.estimate()
        scale = np.sqrt(self.cov_scale)
        if size is None:
            return theta + scale * (root @ rng.standard_normal(self.est.d))
        z = rng.standard_normal((size, self.est.d))
        return theta + scale * (z @ root.T)

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        tilde = self.sample_parameter(rng)
        return int(np.argmax(action_set.actions @ tilde))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for ev in events:
            self.est.record_conversion(ev.round_index)


class OracleLinUCB(Policy):
    """Baseline fed the true reward of every round with no delay.

    Uses the plain exploration radius as its width (no window penalty);
    the window is set to the horizon so no conversion is ever truncated.
    Feeding immediate positive-only events is equivalent to feeding the
    raw Bernoulli reward because zero rewards contribute nothing.
    """

    needs_uncensored_feedback = True

    def __init__(self, d: int, config: PolicyConfig, horizon: int):
        self.config = config
        self.est = WindowedEstimator(d, config.lam, max(horizon, 1))

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        A = action_set.actions
        theta = self.est.estimate()
        width = self.config.width_scale * self.est.exploration_radius(self.config.delta)
        scores = A @ theta + width * np.sqrt(np.maximum(self.est.sq_norms(A), 0.0))
        return int(np.argmax(scores))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for ev in events:
            self.est.record_conversion(ev.round_index)


class RandomPolicy(Policy):
    """Uniform action choice; ignores all feedback."""

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        return int(rng.integers(len(action_set)))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        pass


def make_policy(config: PolicyConfig, d: int, horizon: int) -> Policy:
    if config.kind == "otf_linucb":
        return OTFLinUCB(d, config)
    if config.kind == "otf_lints":
        return OTFLinTS(d, config)
    if config.kind == "oracle_linucb":
        return OracleLinUCB(d, config, horizon)
    if config.kind == "random":
        return RandomPolicy()
    raise ValueError(f"unknown policy kind {config.kind!r}")
