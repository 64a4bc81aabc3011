"""Bandit policies: one ``Policy`` class runs every kind in ``config.policy``.

``Policy`` offers ``select``, which picks a row of the round's (K, d)
action array and is pure given the internal state and the supplied
generator, and ``observe``, the only mutator, which takes the indices of
the rounds whose conversions were revealed, as ints, and the action just
played. It is built from a validated ``ExperimentConfig``, and every kind
records its plays and credits its conversions in a ``WindowedEstimator``,
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

from .estimator import WindowedEstimator, norms

if TYPE_CHECKING:  # the harness imports this module, not the reverse
    from .harness import ExperimentConfig

__all__ = ["Policy"]


class Policy:
    """Every policy kind, told apart by ``config.policy``.

    ``config`` is a validated ``ExperimentConfig``; the policy reads its
    ``d``, ``policy``, ``delta``, ``lam``, ``episode_window`` and
    ``width_scale``.

    * ``otf_linucb``: maximizes the optimistic index, estimated reward
      plus ``width_scale`` times the full confidence width times the
      action's norm. The width's window penalty covers conversions still
      in flight from the last ``m`` rounds, with their norms under the
      current inverse design matrix, so the width is the one ``coverage``
      checks. ``width_scale`` rescales the selection width only; coverage
      is stated for the unscaled width. At ``m = 0`` with no delay the
      penalty is zero and every reward is credited when it is drawn: this
      is the undelayed LinUCB oracle (``harness.ORACLE``).
    * ``otf_lints``: randomized selection. Draws a parameter with
      ``sample_parameter`` and acts greedily on the draw.
    * ``random``: a uniform action index from the generator; its estimate
      is never read.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.est = WindowedEstimator(config.d, config.lam, config.episode_window)

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

    def select(self, A: np.ndarray, rng: np.random.Generator) -> int:
        cfg, est = self.config, self.est
        if cfg.policy == "random":
            return int(rng.integers(len(A)))
        if cfg.policy == "otf_lints":
            return int(np.argmax(A @ self.sample_parameter(rng)))
        width = cfg.width_scale * est.confidence_width(cfg.delta)
        scores = A @ est.estimate() + width * norms(A, est.V_inv)
        return int(np.argmax(scores))

    def observe(self, rounds: list[int], chosen: np.ndarray) -> None:
        self.est.record_action(chosen)
        for s in rounds:
            self.est.record_conversion(s)
