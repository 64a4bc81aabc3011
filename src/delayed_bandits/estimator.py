"""Windowed least-squares estimation under censored delayed conversions.

The estimator regresses revealed positive rewards on all past actions
through a ridge design matrix, but a conversion only counts if its delay
is at most ``m`` rounds; later arrivals are permanently ignored. The
design matrix keeps every action regardless, so the estimate targets a
scaled-down parameter (the true one times ``tau_m = P(D <= m)``, the
probability that a delay fits in the window). Confidence widths add a
penalty for the last ``m`` actions whose conversions may still be in
flight.
"""

from __future__ import annotations

import numpy as np

from .bounds import exploration_radius_at

__all__ = ["WindowedEstimator"]

# Re-invert from scratch whenever the rank-one updated inverse drifts past
# this, and unconditionally every _REINVERT_PERIOD updates.
_FIDELITY_TOL = 1e-8
_REINVERT_PERIOD = 1000


class WindowedEstimator:
    """Ridge regression state with an m-round conversion window.

    Attributes are public working state: ``V`` is the regularized design
    matrix over all recorded actions, ``V_inv`` its incrementally
    maintained inverse, ``B`` the sum of actions whose conversion arrived
    in time. ``t`` counts rounds, starting at 1 with no actions recorded.
    ``potential`` is the elliptical potential: the sum of each recorded
    action's squared norm under the inverse design matrix just before its
    update.

    The window is a ring of the last ``min(m + 1, t - 1)`` rounds, so a
    conversion revealed at the end of round ``t`` credits any of rounds
    ``t - m .. t``: every delay of at most ``m``. Round ``r`` lives in row
    ``(r - 1) % (m + 1)`` of the action and converted arrays. Those are
    allocated once and indexed by that row count; ``m`` is not meant to
    change afterwards. The width penalty covers only the newest ``m``
    rounds of the ring, whose conversions may still arrive, and is measured
    under the current inverse design matrix.
    """

    def __init__(self, d: int, lam: float, m: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if not lam > 0:
            raise ValueError(f"regularizer must be positive, got {lam}")
        if m < 0:
            raise ValueError(f"window length must be >= 0, got {m}")
        self.d = d
        self.lam = float(lam)
        self.m = int(m)
        self.t = 1
        self.V = lam * np.eye(d)
        self.V_inv = (1.0 / lam) * np.eye(d)
        self.B = np.zeros(d)
        self.potential = 0.0
        self._rows = self.m + 1
        self._actions = np.empty((self._rows, d))
        self._converted = np.zeros(self._rows, dtype=bool)
        self._size = 0  # rounds in the ring
        self._eye = np.eye(d)

    @property
    def num_actions(self) -> int:
        return self.t - 1

    def record_action(self, a: np.ndarray) -> None:
        """Fold one played action into the design matrix and the window."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.d,):
            raise ValueError(f"action shape {a.shape} does not match d={self.d}")
        if a @ a > 1.0 + 1e-6:
            raise ValueError("action norm exceeds 1")
        self.V += np.outer(a, a)
        # rank-one inverse update; np.outer(u, u) is exactly symmetric, so
        # V_inv stays exactly symmetric without re-symmetrizing
        u = self.V_inv @ a
        sq = float(a @ u)
        self.potential += sq
        self.V_inv -= np.outer(u, u) / (1.0 + sq)
        if self.t % _REINVERT_PERIOD == 0 or self._inverse_error() > _FIDELITY_TOL:
            self._reinvert()
        slot = (self.t - 1) % self._rows
        self._actions[slot] = a
        self._converted[slot] = False
        self._size = min(self._size + 1, self.m + 1)
        self.t += 1

    def record_conversion(self, round_index: int) -> None:
        """Credit a revealed conversion to its action, if still in the window.

        Conversions for evicted (too old) or unknown rounds are silently
        dropped; repeat conversions for the same round are no-ops.
        """
        if self.t - self._size <= round_index < self.t:
            slot = (round_index - 1) % self._rows
            if not self._converted[slot]:
                self.B += self._actions[slot]
                self._converted[slot] = True

    def estimate(self) -> np.ndarray:
        """Current windowed least-squares parameter estimate."""
        return self.V_inv @ self.B

    def exploration_radius(self, delta: float) -> float:
        """Self-normalized deviation width at the current action count."""
        return exploration_radius_at(self.num_actions, self.d, self.lam, delta)

    def window_norm_sum(self) -> float:
        """Sum of the penalty rounds' action norms under the current inverse
        design matrix: one product of the ring with ``V_inv`` per call."""
        if self._size == 0:
            return 0.0
        q = self.sq_norms(self._actions[:self._size])
        norms = np.sqrt(np.maximum(q, 0.0))
        if self._size > self.m:  # the oldest ring round is past the penalty
            norms[(self.t - 1 - self._size) % self._rows] = 0.0
        return float(norms.sum())

    def confidence_width(self, delta: float) -> float:
        """Full confidence-ellipsoid radius: twice the exploration radius
        plus the window penalty for in-flight conversions."""
        return 2.0 * self.exploration_radius(delta) + self.window_norm_sum()

    def sq_norms(self, A: np.ndarray) -> np.ndarray:
        """Squared inverse-design norms of the rows of ``A``, one BLAS matmul."""
        return np.einsum("ki,ki->k", A @ self.V_inv, A)

    def _inverse_error(self) -> float:
        return float(np.abs(self.V @ self.V_inv - self._eye).max())

    def _reinvert(self) -> None:
        self.V_inv = np.linalg.inv(self.V)
        self.V_inv = 0.5 * (self.V_inv + self.V_inv.T)
