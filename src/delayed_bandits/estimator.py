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

from typing import Optional

import numpy as np

from .bounds import exploration_radius_at
from .environment import NORM_TOL

__all__ = ["WindowedEstimator", "norms"]

# Re-invert from scratch whenever the rank-one updated inverse drifts past
# this (or goes NaN), and unconditionally every _REINVERT_PERIOD updates.
_FIDELITY_TOL = 1e-8
_REINVERT_PERIOD = 1000
#: largest squared action norm accepted: the unit ball to ``ActionSet``'s
#: tolerance, squared once here
_MAX_SQ_NORM = (1.0 + NORM_TOL) ** 2
#: entries of each (k, d, d) stack that ``record_actions`` folds at once, so
#: that its V and V_inv stacks and their residuals stay in cache
STACK_ENTRIES = 32_768
#: fewest rows per chunk at which a coverage call is faster by chunks than
#: row by row (``sweep.chunk_crossover`` in BENCH_coverage_record.json:
#: faster at 20 rows, d = 40, slower at 16, d = 45); below it (a short
#: block, or d above 40) ``record_actions`` folds one row at a time
_MIN_BLOCK_ROWS = 20


def norms(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Ellipsoid norms sqrt(x^T M x) of the rows x of ``A``, (k, d) under one
    (d, d) ``M`` or (n, k, d) under (n, d, d) ``M``s; a square that rounds
    below 0 is clipped."""
    return np.sqrt(np.maximum(np.einsum("...i,...i->...", A @ M, A), 0.0))


def _rank_one(V_inv: np.ndarray, a: np.ndarray) -> tuple:
    """The Sherman-Morrison term that ``V_inv`` loses when the action ``a``
    is added to the design matrix, and a's squared norm under ``V_inv``."""
    u = V_inv @ a
    sq = float(a @ u)
    # u[:, None] * u is exactly symmetric, so the inverse stays exactly
    # symmetric without re-symmetrizing
    return u[:, None] * u / (1.0 + sq), sq


def _inverted(V: np.ndarray) -> np.ndarray:
    """The inverse of ``V`` from scratch, symmetrized."""
    V_inv = np.linalg.inv(V)
    return 0.5 * (V_inv + V_inv.T)


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

    def record_action(self, a: np.ndarray) -> None:
        """Fold one played action into the design matrix and the window."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.d,):
            raise ValueError(f"action shape {a.shape} does not match d={self.d}")
        if not a @ a <= _MAX_SQ_NORM:  # NaN fails too
            raise ValueError("action norm exceeds 1 or is not finite")
        self._fold(a)

    def _fold(self, a: np.ndarray) -> None:
        """``record_action``'s update of an action whose norm is checked;
        ``record_actions`` folds single rows with it."""
        # a[:, None] * a is the product np.outer(a, a) forms, without its
        # wrapper's reshaping passes
        self.V += a[:, None] * a
        term, sq = _rank_one(self.V_inv, a)
        self.V_inv -= term
        self.potential += sq
        if (self.t % _REINVERT_PERIOD == 0
                or not self._inverse_error(self.V, self.V_inv) <= _FIDELITY_TOL):
            self.V_inv = _inverted(self.V)
        slot = (self.t - 1) % self._rows
        self._actions[slot] = a
        self._converted[slot] = False
        self._size = min(self._size + 1, self.m + 1)
        self.t += 1

    def record_actions(self, A: np.ndarray, out: Optional[tuple] = None) -> None:
        """Fold the rows of the (k, d) array ``A`` in order, leaving the bits
        of k ``record_action`` calls. ``out``, a pair of (k, d, d) arrays,
        receives V and V_inv as they were before each row.

        Every row's norm is checked before any state changes. The rows are
        then folded in chunks of ``STACK_ENTRIES // d**2`` rows: the design
        matrices by adding the rank-one terms one at a time, as
        ``record_action`` does, the inverses by the rank-one chain, then
        every row's fidelity test at once. At the first row that fails it
        or reaches the periodic re-inversion, the inverse is re-inverted
        there; after a periodic re-inversion the next chunk starts at the
        next row, after a failed test the chunk's remaining rows are folded
        one at a time, so a failed test costs at most the rest of its chunk
        again, not a new chunk. Where a chunk would hold fewer than
        ``_MIN_BLOCK_ROWS`` rows, each row is folded as ``record_action``
        folds it.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.d:
            raise ValueError(f"action block shape {A.shape} does not match d={self.d}")
        # each row's a @ a, as a batch of (1, d) @ (d, 1) products
        if not (A[:, None] @ A[:, :, None]).max(initial=0.0) <= _MAX_SQ_NORM:  # NaN too
            raise ValueError("action norm exceeds 1 or is not finite")
        d, done = self.d, 0
        chunk = min(STACK_ENTRIES // (d * d), len(A))
        if chunk < _MIN_BLOCK_ROWS:  # too few rows per chunk to repay its set-up
            self._fold_each(A, out)
            return
        # a chunk's states: entry i before its row i, entry k after its last
        Vs, V_invs = np.empty((2, chunk + 1, d, d))
        while done < len(A):
            rows = A[done:done + chunk]
            k = len(rows)
            V, V_inv = Vs[:k + 1], V_invs[:k + 1]
            V[0], V_inv[0] = self.V, self.V_inv
            np.multiply(rows[:, :, None], rows[:, None], out=V[1:])
            for i in range(k):
                V[i + 1] += V[i]
            potentials = []
            potential = self.potential
            for i, a in enumerate(rows):
                term, sq = _rank_one(V_inv[i], a)
                np.subtract(V_inv[i], term, out=V_inv[i + 1])
                potential += sq
                potentials.append(potential)
            # the first row that reaches the periodic re-inversion or fails
            # the fidelity test (NaN too); none if it is k or later
            periodic = (-self.t) % _REINVERT_PERIOD
            failed = np.flatnonzero(~(self._inverse_error(V[1:], V_inv[1:]) <= _FIDELITY_TOL))
            first = min(periodic, int(failed[0])) if failed.size else periodic
            n = min(first + 1, k)  # rows kept
            if first < k:
                V_inv[n] = _inverted(V[n])
            if out is not None:
                out[0][done:done + n], out[1][done:done + n] = V[:n], V_inv[:n]
            self.V[...], self.V_inv[...] = V[n], V_inv[n]
            self.potential = potentials[n - 1]
            # only the last rows that fit in the ring are stored
            kept = rows[max(0, n - self._rows):n]
            slots = np.arange(self.t - 1 + n - len(kept), self.t - 1 + n) % self._rows
            self._actions[slots] = kept
            self._converted[slots] = False
            self._size = min(self._size + n, self.m + 1)
            self.t += n
            done += n
            if failed.size and failed[0] < periodic:
                self._fold_each(rows[n:], None if out is None else
                                (out[0][done:done + k - n], out[1][done:done + k - n]))
                done += k - n

    def _fold_each(self, A: np.ndarray, out: Optional[tuple]) -> None:
        """Fold the checked rows of ``A`` one at a time; ``out`` as in
        ``record_actions``."""
        for i, a in enumerate(A):
            if out is not None:
                out[0][i], out[1][i] = self.V, self.V_inv
            self._fold(a)

    def record_conversion(self, round_index: int) -> None:
        """Credit a revealed conversion to its action, if still in the window.

        Conversions for evicted (too old) or unknown rounds are silently
        dropped; repeat conversions for the same round are no-ops.
        """
        # the ring's _size rounds are a window of _size - 1: m once it is
        # full, and before that every recorded round
        if self.credited(round_index, self.t - 1, self._size - 1):
            slot = (round_index - 1) % self._rows
            if not self._converted[slot]:
                self.B += self._actions[slot]
                self._converted[slot] = True

    @staticmethod
    def credited(s, w, m):
        """The window rule: a conversion of round ``s`` revealed at the end of
        round ``w`` is credited by an ``m``-round window iff
        ``max(1, w - m) <= s <= w``, i.e. its delay is at most ``m``. Takes
        ints, or arrays elementwise."""
        return (1 <= s) & (w - m <= s) & (s <= w)

    def estimate(self) -> np.ndarray:
        """Current windowed least-squares parameter estimate."""
        return self.V_inv @ self.B

    def exploration_radius(self, delta: float) -> float:
        """Self-normalized deviation width at the current action count."""
        return exploration_radius_at(self.t - 1, self.d, self.lam, delta)

    def window_norm_sum(self) -> float:
        """Sum of the penalty rounds' action norms under the current inverse
        design matrix: one product of the ring with ``V_inv`` per call."""
        if self._size == 0:
            return 0.0
        ring = norms(self._actions[:self._size], self.V_inv)
        if self._size > self.m:  # the oldest ring round is past the penalty
            ring[(self.t - 1 - self._size) % self._rows] = 0.0
        return float(ring.sum())

    def confidence_width(self, delta: float) -> float:
        """Full confidence-ellipsoid radius: twice the exploration radius
        plus the window penalty for in-flight conversions."""
        return 2.0 * self.exploration_radius(delta) + self.window_norm_sum()

    def _inverse_error(self, V: np.ndarray, V_inv: np.ndarray):
        """The fidelity residual max |V V_inv - I| of one (d, d) pair, or of
        each pair of two (k, d, d) stacks; NaN if either holds a NaN."""
        residual = V @ V_inv
        residual -= self._eye
        return np.abs(residual, out=residual).max(axis=(-2, -1))

