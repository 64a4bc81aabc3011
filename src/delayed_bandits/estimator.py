"""Windowed least-squares estimation under censored delayed conversions.

The estimator regresses revealed positive rewards on all past actions
through a ridge design matrix, but a conversion only counts if it arrives
within ``m`` rounds of its action; later arrivals are permanently ignored.
The design matrix keeps every action regardless, so the estimate targets
a scaled-down parameter (the true one times the probability that a delay
fits in the window). Confidence widths add a penalty for the last ``m``
actions whose conversions may still be in flight.
"""

from __future__ import annotations

import math

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

    The window is a ring of the last ``min(m, t - 1)`` rounds: round ``r``
    lives in row ``(r - 1) % m`` of the action, cached-norm and converted
    arrays. Those are allocated once with ``m`` rows and indexed by that
    row count; ``m`` is not meant to change afterwards.
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
        self._actions = np.empty((self.m, d))
        self._norms = np.empty(self.m)
        self._converted = np.zeros(self.m, dtype=bool)
        self._rows = self.m
        self._size = 0  # rounds in the window
        self._updates = 0
        self._eye = np.eye(d)
        # running window norm sum, re-fsummed periodically to kill drift
        self._cached_sum = 0.0
        self._cached_ops = 0

    @property
    def num_actions(self) -> int:
        return self.t - 1

    def record_action(self, a: np.ndarray) -> None:
        """Fold one played action into the design matrix and the window.

        The cached norm stored with the window entry is measured in the
        post-update inverse metric, which upper-bounds the same action's
        norm under every later design matrix.
        """
        a = np.asarray(a, dtype=float)
        if a.shape != (self.d,):
            raise ValueError(f"action shape {a.shape} does not match d={self.d}")
        if a @ a > 1.0 + 1e-6:
            raise ValueError("action norm exceeds 1")
        self.V += np.outer(a, a)
        # rank-one inverse update
        u = self.V_inv @ a
        self.V_inv -= np.outer(u, u) / (1.0 + a @ u)
        self.V_inv = 0.5 * (self.V_inv + self.V_inv.T)
        self._updates += 1
        if self._updates % _REINVERT_PERIOD == 0 or self._inverse_error() > _FIDELITY_TOL:
            self._reinvert()
        cached = math.sqrt(max(float(a @ self.V_inv @ a), 0.0))
        if self._rows:
            slot = (self.t - 1) % self._rows
            evicted = None
            if self._size == self.m:
                evicted = float(self._norms[slot])  # round t - m
            else:
                self._size += 1
            self._actions[slot] = a
            self._norms[slot] = cached
            self._converted[slot] = False
            self._cached_sum += cached
            if evicted is not None:
                self._cached_sum -= evicted
            self._cached_ops += 1
            if self._cached_ops >= 512:
                self._cached_sum = math.fsum(self._norms[:self._size].tolist())
                self._cached_ops = 0
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

    def window_norm_sum(self, mode: str = "cached") -> float:
        """Sum of window action norms: cached (per-round metric) or exact.

        The cached sum never undershoots the exact one because the design
        matrix only grows.
        """
        if mode == "cached":
            return max(self._cached_sum, 0.0)
        if mode == "exact":
            if self._size == 0:
                return 0.0
            q = self.sq_norms(self._actions[:self._size])
            return float(np.sqrt(np.maximum(q, 0.0)).sum())
        raise ValueError(f"unknown mode {mode!r}")

    def confidence_width(self, delta: float, mode: str = "cached") -> float:
        """Full confidence-ellipsoid radius: twice the exploration radius
        plus the window penalty for in-flight conversions."""
        return 2.0 * self.exploration_radius(delta) + self.window_norm_sum(mode)

    def mahalanobis_norm(self, a: np.ndarray) -> float:
        """Norm of ``a`` in the current inverse-design metric."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.d,):
            raise ValueError(f"vector shape {a.shape} does not match d={self.d}")
        return math.sqrt(max(float(a @ self.V_inv @ a), 0.0))

    def sq_norms(self, A: np.ndarray) -> np.ndarray:
        """Squared inverse-design norms of the rows of ``A``, one BLAS matmul."""
        return np.einsum("ki,ki->k", A @ self.V_inv, A)

    def window_rounds(self) -> list[int]:
        """Rounds in the window, oldest first."""
        return list(range(self.t - self._size, self.t))

    def window_cached_norms(self) -> list[float]:
        """Cached norms of the window rounds, oldest first."""
        slots = [(r - 1) % self._rows for r in self.window_rounds()]
        return self._norms[slots].tolist()

    def _inverse_error(self) -> float:
        return float(np.abs(self.V @ self.V_inv - self._eye).max())

    def _reinvert(self) -> None:
        self.V_inv = np.linalg.inv(self.V)
        self.V_inv = 0.5 * (self.V_inv + self.V_inv.T)
