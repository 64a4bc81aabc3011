"""Closed-form regret bound evaluators.

These are numeric evaluators of the high-probability upper bound for the
optimistic policy and of a minimax lower bound for censored K-armed
Bernoulli bandits, used by the harness and CLI for sanity bands.
"""

from __future__ import annotations

import math

__all__ = [
    "exploration_radius_at",
    "elliptical_potential_bound",
    "regret_upper_bound",
    "bernoulli_kl",
    "minimax_lower_bound",
    "tuned_minimax_lower_bound",
]


def exploration_radius_at(n: int, d: int, lam: float, delta: float) -> float:
    """Self-normalized deviation width after n recorded actions."""
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    dl = d * lam
    return math.sqrt(lam) + math.sqrt(
        2.0 * math.log(1.0 / delta) + d * math.log((dl + n) / dl)
    )


def elliptical_potential_bound(d: int, lam: float, T: int) -> float:
    """Deterministic cap on the summed squared pre-update action norms."""
    return 2.0 * d * math.log((d * lam + T) / (d * lam))


def regret_upper_bound(T: int, d: int, lam: float, delta: float, m: int,
                       tau_m: float) -> float:
    """High-probability cumulative regret bound for the optimistic policy.

    Combines the usual square-root elliptical-potential term, scaled up by
    the window capture probability ``tau_m``, with a lower-order term
    linear in the window length.
    """
    if not (0.0 < tau_m <= 1.0):
        raise ValueError(f"tau_m must lie in (0, 1], got {tau_m}")
    if T < 1 or d < 1 or m < 0 or lam <= 0:
        raise ValueError("T, d must be >= 1, m >= 0, lambda > 0")
    log_term = math.log((d * lam + T) / (d * lam))
    f = exploration_radius_at(T, d, lam, delta)
    sqrt_term = (4.0 * f / tau_m) * math.sqrt(2.0 * d * T * log_term)
    linear_term = (4.0 * m * d / tau_m) * log_term
    return sqrt_term + linear_term


def bernoulli_kl(p: float, q: float) -> float:
    """Relative entropy between Bernoulli distributions of means p and q.

    Uses the 0 log 0 = 0 convention. A boundary q (0 or 1) is only legal
    when p equals it, where the divergence is zero.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if q <= 0.0 or q >= 1.0:
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must lie in [0, 1], got {q}")
        if p == q:
            return 0.0
        raise ValueError(f"divergence is infinite for q={q}, p={p}")
    result = 0.0
    if p > 0.0:
        result += p * math.log(p / q)
    if p < 1.0:
        result += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return max(result, 0.0)


def _check_instance(T: int, K: int, tau_m: float) -> None:
    if K <= 1:
        raise ValueError(f"K must exceed 1, got {K}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (0.0 < tau_m < 1.0):
        raise ValueError(f"tau_m must lie in (0, 1), got {tau_m}")


def minimax_lower_bound(T: int, K: int, tau_m: float, gap: float) -> float:
    """Worst-case combined regret of the hard two-instance pair at a gap.

    Evaluates (T * gap / 4) * exp(-32 * tau_m * gap^2 * T / (K - 1)), the
    certified floor on the summed regret of any policy against the pair of
    K-armed instances separated by twice the gap, under censoring level
    ``tau_m``.
    """
    _check_instance(T, K, tau_m)
    if not (0.0 < gap <= 0.125):
        raise ValueError(f"gap must lie in (0, 1/8], got {gap}")
    return (T * gap / 4.0) * math.exp(-32.0 * tau_m * gap * gap * T / (K - 1))


def tuned_minimax_lower_bound(T: int, K: int, tau_m: float) -> tuple[float, float]:
    """Maximize the lower bound over the gap in closed form.

    With c = 32 * tau_m * T / (K - 1) the bound is proportional to
    gap * exp(-c * gap^2), which is unimodal with its peak at
    1 / sqrt(2 c); the best admissible gap is that peak clipped to 1/8.
    Returns (best gap, value at that gap).
    """
    _check_instance(T, K, tau_m)
    c = 32.0 * tau_m * T / (K - 1)
    gap = min(1.0 / math.sqrt(2.0 * c), 0.125)
    return gap, minimax_lower_bound(T, K, tau_m, gap)
