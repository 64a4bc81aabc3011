"""Bandit policies: ``LinearPolicy`` and the uniform ``RandomPolicy``.

Both offer ``select``, which picks an action index from the round's action
set and is pure given the internal state and the supplied generator, and
``observe``, the only mutator, which consumes the round's revealed
conversions together with the action just played. Every policy is built
from a validated ``ExperimentConfig`` and records its plays in a
``WindowedEstimator``, ``est``, whose ``potential`` is the episode's
elliptical potential.

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

__all__ = ["LinearPolicy", "RandomPolicy", "make_policy"]


class LinearPolicy:
    """The three ridge-estimator policies, told apart by ``config.policy``.

    ``config`` is a validated ``ExperimentConfig``; the policy reads its
    ``d``, ``policy``, ``delta``, ``lam``, ``resolved_window`` and
    ``width_scale``.

    * ``otf_linucb``: maximizes the optimistic index, estimated reward
      plus ``width_scale`` times the full confidence width times the
      action's norm. The width's window penalty covers conversions still
      in flight from the last ``m`` rounds, with their norms under the
      current inverse design matrix, so the width is the one ``coverage``
      checks. ``width_scale`` rescales the selection width only; coverage
      is stated for the unscaled width.
    * ``otf_lints``: randomized selection. Draws a parameter with
      ``sample_parameter`` and acts greedily on the draw.
    * ``oracle_linucb``: baseline fed the true reward of every round with
      no delay, scored like ``otf_linucb`` but with the plain exploration
      radius (no window penalty). Every window credits a delay of zero,
      so every reward is credited. Feeding immediate positive-only events
      is equivalent to feeding the raw Bernoulli reward because zero
      rewards contribute nothing.
    """

    def __init__(self, config: ExperimentConfig):
        if config.policy == "random":
            raise ValueError("kind 'random' is RandomPolicy, not a LinearPolicy")
        self.config = config
        #: whether the harness should feed immediate uncensored rewards
        self.needs_uncensored_feedback = config.policy == "oracle_linucb"
        self.est = WindowedEstimator(config.d, config.lam, config.resolved_window)

    def sample_parameter(self, rng: np.random.Generator) -> np.ndarray:
        """Draw from N(estimate, inflation * V_inv) through a Cholesky root.

        The inflation, one plus the window norm sum over the exploration
        radius, is one on an empty window and grows with the conversions
        still in flight.
        """
        est, cfg = self.est, self.config
        infl = 1.0 + est.window_norm_sum() / est.exploration_radius(cfg.delta)
        try:
            root = np.linalg.cholesky(infl * est.V_inv)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "covariance factorization failed; inverse design matrix "
                "is not positive definite"
            ) from exc
        return est.estimate() + root @ rng.standard_normal(est.d)

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        cfg, est, A = self.config, self.est, action_set.actions
        if cfg.policy == "otf_lints":
            return int(np.argmax(A @ self.sample_parameter(rng)))
        if cfg.policy == "otf_linucb":
            width = cfg.width_scale * est.confidence_width(cfg.delta)
        else:
            width = cfg.width_scale * est.exploration_radius(cfg.delta)
        scores = A @ est.estimate() + width * np.sqrt(np.maximum(est.sq_norms(A), 0.0))
        return int(np.argmax(scores))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for ev in events:
            self.est.record_conversion(ev.round_index)


class RandomPolicy:
    """Uniform action choice; ignores all conversions.

    Its played actions still go into an unwindowed estimator, ``est``,
    which measures the episode's elliptical potential.
    """

    needs_uncensored_feedback = False

    def __init__(self, config: ExperimentConfig):
        self.est = WindowedEstimator(config.d, config.lam, 0)

    def select(self, action_set: ActionSet, rng: np.random.Generator) -> int:
        if len(action_set) == 0:
            raise ValueError("empty action set")
        return int(rng.integers(len(action_set)))

    def observe(self, events: list[ConversionEvent], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)


def make_policy(config: ExperimentConfig) -> LinearPolicy | RandomPolicy:
    if config.policy == "random":
        return RandomPolicy(config)
    return LinearPolicy(config)
