"""Bound evaluators: regret upper bound, Bernoulli divergence, lower bound."""

import math

import numpy as np
import pytest

from delayed_bandits.bounds import (
    bernoulli_kl,
    minimax_lower_bound,
    regret_upper_bound,
    tuned_minimax_lower_bound,
)


class TestRegretUpperBound:
    def test_golden_value(self):
        # frozen from an independent evaluation of the closed form:
        # L = ln(3005/5), f = 1 + sqrt(2 ln 20 + 5 L),
        # value = 4 f / tau * sqrt(2 * 5 * 3000 * L) + 4 * 100 * 5 / tau * L
        value = regret_upper_bound(T=3000, d=5, lam=1.0, delta=0.05, m=100,
                                   tau_m=0.634)
        assert value == pytest.approx(39985.417882129725, rel=1e-12)

    def test_monotone_structure(self):
        base = dict(T=3000, d=5, lam=1.0, delta=0.05, m=100, tau_m=0.6)
        v = regret_upper_bound(**base)
        assert regret_upper_bound(**{**base, "tau_m": 0.3}) > v
        assert regret_upper_bound(**{**base, "m": 500}) > v
        assert regret_upper_bound(**{**base, "T": 10_000}) > v

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError):
            regret_upper_bound(3000, 5, 1.0, 0.05, 100, 0.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            regret_upper_bound(0, 5, 1.0, 0.05, 100, 0.5)
        with pytest.raises(ValueError):
            regret_upper_bound(10, 5, 1.0, 0.05, -1, 0.5)


class TestBernoulliKl:
    def test_identical_means_zero(self):
        assert bernoulli_kl(0.5, 0.5) == 0.0
        assert bernoulli_kl(0.123, 0.123) == 0.0

    def test_golden_value(self):
        # d(1/2, 3/4) = (1/2) ln(4/3)
        assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.5 * math.log(4 / 3),
                                                        rel=1e-12)

    def test_boundary_p_uses_zero_log_zero(self):
        assert bernoulli_kl(0.0, 0.5) == pytest.approx(math.log(2))
        assert bernoulli_kl(1.0, 0.5) == pytest.approx(math.log(2))

    def test_boundary_q_legal_only_when_equal(self):
        assert bernoulli_kl(0.0, 0.0) == 0.0
        assert bernoulli_kl(1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 0.0)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.0)

    def test_chi_square_style_upper_bound(self):
        # d(tau/2, tau(1/2 + 2 gap)) <= 32 tau gap^2 on a parameter sweep
        for tau in np.linspace(0.02, 0.98, 25):
            for gap in np.linspace(0.005, 0.125, 25):
                lhs = bernoulli_kl(tau / 2, tau * (0.5 + 2 * gap))
                assert lhs <= 32 * tau * gap**2 + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_kl(-0.1, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.2)


class TestMinimaxLowerBound:
    def test_vanishing_gap(self):
        assert minimax_lower_bound(1000, 10, 0.5, 1e-9) < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            minimax_lower_bound(1000, 1, 0.5, 0.1)
        with pytest.raises(ValueError):
            minimax_lower_bound(0, 10, 0.5, 0.1)
        with pytest.raises(ValueError):
            minimax_lower_bound(1000, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            minimax_lower_bound(1000, 10, 0.5, 0.2)

    def test_tuned_matches_analytic_maximizer(self):
        # oracle: the exact maximizer of g * exp(-c g^2) is 1 / sqrt(2 c)
        T, K, tau = 10_000, 10, 0.5
        gap, value = tuned_minimax_lower_bound(T, K, tau)
        c = 32.0 * tau * T / (K - 1)
        analytic_gap = 1.0 / math.sqrt(2 * c)
        analytic_value = (T * analytic_gap / 4.0) * math.exp(-0.5)
        assert gap == pytest.approx(analytic_gap, rel=1e-12)
        assert value == pytest.approx(analytic_value, rel=1e-12)
        # a short horizon puts the peak past 1/8, so the gap is clipped
        gap, value = tuned_minimax_lower_bound(10, 10, 0.5)
        assert gap == 0.125
        assert value == pytest.approx(minimax_lower_bound(10, 10, 0.5, 0.125),
                                      rel=1e-12)

    def test_sqrt_horizon_scaling(self):
        values = [tuned_minimax_lower_bound(T, 10, 0.5)[1]
                  for T in (10**3, 10**4, 10**5, 10**6)]
        slope = np.polyfit(np.log([10**3, 10**4, 10**5, 10**6]),
                           np.log(values), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_halving_capture_probability_raises_the_floor(self):
        for tau in (0.9, 0.5, 0.2):
            _, hi = tuned_minimax_lower_bound(50_000, 10, tau / 2)
            _, lo = tuned_minimax_lower_bound(50_000, 10, tau)
            assert hi > lo
