"""Bandit policies behind a common select/observe interface.

``select`` picks an action index from the round's action set and is pure
given the internal state and the supplied generator; ``observe`` is the
only mutator and consumes the round's revealed conversions together with
the action just played. Every policy is built from a validated
``ExperimentConfig`` and records its plays in a ``WindowedEstimator``,
``est``, whose ``potential`` is the episode's elliptical potential.

Ties break toward the lowest index among equal *computed* scores. Scores
go through BLAS, so actions whose exact scores tie (every unit action in
round 1) can compute an ulp apart, and the larger computed score wins.
Bitwise-duplicate rows can also score an ulp apart; they are the same
action, so that does not change the trajectory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .environment import ActionSet, ConversionEvent
from .estimator import WindowedEstimator

if TYPE_CHECKING:  # the harness imports this module, not the reverse
    from .harness import ExperimentConfig

__all__ = [
    "Policy",
    "LinearPolicy",
    "RandomPolicy",
    "make_policy",
    "ucb_scores",
    "covariance_inflation",
]


class Policy:
    """Select/observe interface shared by all policies; each has ``est``."""

    est: WindowedEstimator

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
    return _optimistic_scores(est, action_set.actions,
                              width_scale * est.confidence_width(delta, mode))


def _optimistic_scores(est: WindowedEstimator, A: np.ndarray,
                       width: float) -> np.ndarray:
    return A @ est.estimate() + width * np.sqrt(np.maximum(est.sq_norms(A), 0.0))


def covariance_inflation(est: WindowedEstimator, delta: float,
                         mode: str = "cached") -> float:
    """Sampling covariance multiplier accounting for in-flight conversions.

    Equals one on an empty window and grows with the window norm sum
    relative to the exploration radius.
    """
    return 1.0 + est.window_norm_sum(mode) / est.exploration_radius(delta)


class LinearPolicy(Policy):
    """The three ridge-estimator policies, told apart by ``config.policy``.

    ``config`` is a validated ``ExperimentConfig``; the policy reads its
    ``d``, ``policy``, ``delta``, ``lam``, ``resolved_window``,
    ``width_mode`` and ``width_scale``.

    * ``otf_linucb``: optimistic selection with the full confidence width,
      whose window penalty covers conversions still in flight from the
      last ``m`` rounds.
    * ``otf_lints``: randomized (perturbed-leader) selection. Samples a
      parameter from a Gaussian centered at the windowed estimate with
      covariance equal to the inflated inverse design matrix, then acts
      greedily on the sample. ``cov_scale`` rescales the covariance and
      exists as a test hook; zero makes selection deterministic.
    * ``oracle_linucb``: baseline fed the true reward of every round with
      no delay, selecting with the plain exploration radius (no window
      penalty). Every window credits a delay of zero, so every reward is
      credited. Feeding immediate positive-only events is equivalent to
      feeding the raw Bernoulli reward because zero rewards contribute
      nothing.
    """

    def __init__(self, config: ExperimentConfig, cov_scale: float = 1.0):
        if config.policy == "random":
            raise ValueError("kind 'random' is RandomPolicy, not a LinearPolicy")
        if cov_scale < 0:
            raise ValueError("cov_scale must be non-negative")
        self.config = config
        self.cov_scale = cov_scale
        self.needs_uncensored_feedback = config.policy == "oracle_linucb"
        self.est = WindowedEstimator(config.d, config.lam, config.resolved_window)

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
        cfg = self.config
        if cfg.policy == "otf_linucb":
            scores = ucb_scores(self.est, cfg.delta, cfg.width_mode,
                                action_set, cfg.width_scale)
        elif cfg.policy == "oracle_linucb":
            width = cfg.width_scale * self.est.exploration_radius(cfg.delta)
            scores = _optimistic_scores(self.est, action_set.actions, width)
        else:
            scores = action_set.actions @ self.sample_parameter(rng)
        return int(np.argmax(scores))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for ev in events:
            self.est.record_conversion(ev.round_index)


class RandomPolicy(Policy):
    """Uniform action choice; ignores all conversions.

    Its played actions still go into an unwindowed estimator, ``est``,
    which measures the episode's elliptical potential.
    """

    def __init__(self, config: ExperimentConfig):
        self.est = WindowedEstimator(config.d, config.lam, 0)

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        return int(rng.integers(len(action_set)))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)


def make_policy(config: ExperimentConfig) -> Policy:
    if config.policy == "random":
        return RandomPolicy(config)
    return LinearPolicy(config)
