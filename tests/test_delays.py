"""Delay distribution behavior: sampling, CDFs, windows, file loading."""

import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from delayed_bandits.bounds import regret_upper_bound
from delayed_bandits.delays import (
    EmpiricalDelay,
    FixedDelay,
    GeometricDelay,
    LognormalDelay,
    load_empirical,
    recommended_window,
)


def drawn_support(dist):
    """The distinct delays of 1000 draws: the whole support of a small pool."""
    return sorted(set(dist.sample_n(np.random.default_rng(0), 1000).tolist()))


class TestGeometric:
    def test_mean_is_exact_parameter(self):
        assert GeometricDelay(100).mean() == 100
        assert GeometricDelay(0.5).mean() == 0.5

    def test_monte_carlo_mean_matches_analytic(self):
        # oracle: the parameterization promises an exact mean of 100
        rng = np.random.default_rng(7)
        draws = GeometricDelay(100).sample_n(rng, 1_000_000)
        assert abs(draws.mean() - 100.0) < 1.0

    def test_capture_probability_at_window_100_of_mean_100(self):
        assert GeometricDelay(100).cdf(100) == pytest.approx(0.63, abs=0.01)

    def test_capture_probability_at_window_500_of_mean_100(self):
        assert GeometricDelay(100).cdf(500) == pytest.approx(0.993, abs=0.001)

    def test_inverse_capture_at_window_100_of_mean_500(self):
        tau = GeometricDelay(500).cdf(100)
        assert 1.0 / tau == pytest.approx(5.5, abs=0.1)

    @pytest.mark.parametrize("mean, m", [(100.0, 100), (100.0, 500), (500.0, 100)])
    def test_cdf_matches_exact_fraction(self, mean, m):
        # presets A, B and C: 1 - (1 - p)^(m + 1) in exact rationals with
        # p = 1 / (mean + 1); at C the direct float formula is 2.4e-14 off
        exact = 1 - (1 - 1 / (Fraction(mean) + 1)) ** (m + 1)
        assert GeometricDelay(mean).cdf(m) == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_cdf_of_a_huge_mean(self):
        # 1 - p rounds to 1.0, but P(D <= 2 mean) is still about 1 - e^-2
        assert GeometricDelay(1e17).cdf(2 * 10**17) == pytest.approx(
            -math.expm1(-2.0), rel=1e-15, abs=0)

    def test_monte_carlo_cdf_matches_closed_form(self):
        rng = np.random.default_rng(11)
        dist = GeometricDelay(40)
        draws = dist.sample_n(rng, 1_000_000)
        for m in (0, 10, 40, 80, 200):
            frac = np.count_nonzero(draws <= m) / draws.size
            assert frac == pytest.approx(dist.cdf(m), abs=0.005)

    def test_cdf_monotone_and_converges(self):
        dist = GeometricDelay(17)
        values = [dist.cdf(m) for m in range(0, 400, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert dist.cdf(10_000) > 1 - 1e-10

    def test_sampling_deterministic_under_equal_seeds(self):
        dist = GeometricDelay(33)
        a = dist.sample_n(np.random.default_rng(5), 1000)
        b = dist.sample_n(np.random.default_rng(5), 1000)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            GeometricDelay(0)


class TestFixed:
    def test_degenerate_zero(self):
        dist = FixedDelay(0)
        rng = np.random.default_rng(0)
        assert np.array_equal(dist.sample_n(rng, 50), np.zeros(50, dtype=np.int64))
        assert dist.cdf(0) == 1.0

    def test_cdf_is_step(self):
        dist = FixedDelay(7)
        assert dist.cdf(6) == 0.0
        assert dist.cdf(7) == 1.0
        assert dist.mean() == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-1)

    @pytest.mark.parametrize("value", [2**63, 10**19, float("nan"), float("inf")])
    def test_rejects_values_beyond_an_int64_delay(self, value):
        # 10**19 once passed construction and failed in the first sample_n
        with pytest.raises(ValueError, match=r"natural number below 2\*\*63"):
            FixedDelay(value)

    def test_largest_int64_delay(self):
        dist = FixedDelay(2**63 - 1)
        assert dist.sample_n(np.random.default_rng(0), 2).tolist() == [2**63 - 1] * 2


class TestEmpirical:
    def test_constant_pool_always_returns_it(self):
        dist = EmpiricalDelay((10, 10, 10), scale=1.0)
        rng = np.random.default_rng(3)
        assert set(dist.sample_n(rng, 200).tolist()) == {10}

    def test_mean_is_arithmetic_mean_of_scaled(self):
        assert EmpiricalDelay((0, 10)).mean() == 5.0

    def test_scale_then_floor(self):
        dist = EmpiricalDelay((100, 200), scale=0.01)
        assert drawn_support(dist) == [1, 2]
        assert dist.cdf(1) == 0.5
        assert dist.cdf(2) == 1.0

    def test_cdf_is_exact_fraction(self):
        dist = EmpiricalDelay((1, 2, 2, 9))
        assert dist.cdf(0) == 0.0
        assert dist.cdf(2) == 0.75
        assert dist.cdf(9) == 1.0

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            EmpiricalDelay((3, -1))
        with pytest.raises(ValueError):
            EmpiricalDelay(())

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_scale(self, scale):
        # a NaN scale once passed the check and floored to all-zero delays
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                EmpiricalDelay((1.0, 2.0), scale=scale)

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), 1e30])
    def test_rejects_samples_beyond_an_int64_delay(self, sample):
        # these samples once became delay 0 through a wrapped int64 cast
        with pytest.raises(ValueError, match=r"is not below 2\*\*63"):
            EmpiricalDelay((5.0, sample, 7.0))

    def test_rejects_a_scaled_sample_beyond_an_int64_delay(self):
        assert EmpiricalDelay((2.0**62,), scale=1.9).mean() == np.floor(1.9 * 2.0**62)
        with pytest.raises(ValueError, match=r"is not below 2\*\*63"):
            EmpiricalDelay((2.0**62,), scale=2.0)

    def test_keeps_only_the_floored_support(self):
        raw = tuple(np.random.default_rng(4).uniform(0, 50, size=1000).tolist())
        dist = EmpiricalDelay(raw, scale=0.5)
        assert not hasattr(dist, "samples")
        floored = np.floor(0.5 * np.array(raw)).astype(np.int64)
        copy = pickle.loads(pickle.dumps(dist))
        for pool in (dist, copy):
            for k in range(-1, 27):
                assert pool.cdf(k) == np.count_nonzero(floored <= k) / floored.size
            assert pool.mean() == floored.mean()
            # each draw is the floored value at a uniform index
            picks = np.random.default_rng(5).integers(floored.size, size=300)
            assert np.array_equal(pool.sample_n(np.random.default_rng(5), 300),
                                  floored[picks])
        # the raw floats would add about 18 bytes each to the pickle
        assert len(pickle.dumps(dist)) < 8 * len(raw) + 500

    def test_rejects_a_pool_that_is_not_one_dimensional(self):
        # a 2-D pool once built, with a CDF and mean over its entries, and
        # then drew row indices past its length
        with pytest.raises(ValueError, match="one-dimensional"):
            EmpiricalDelay(((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="one-dimensional"):
            EmpiricalDelay(5.0)

    def test_an_array_pool_equals_a_tuple_pool_and_stays_unchanged(self):
        raw = np.random.default_rng(6).uniform(0, 50, size=1000)
        kept = raw.copy()
        from_array = EmpiricalDelay(raw, scale=0.7)
        from_tuple = EmpiricalDelay(tuple(raw.tolist()), scale=0.7)
        assert np.array_equal(raw, kept)
        assert from_array._values.dtype == np.int64
        assert np.array_equal(from_array._values, from_tuple._values)
        assert from_array._values.base is None  # its own array, not a view of raw
        for k in range(-1, 37):
            assert from_array.cdf(k) == from_tuple.cdf(k)
        assert from_array.mean() == from_tuple.mean()


class TestLognormal:
    def test_support_non_negative(self):
        rng = np.random.default_rng(2)
        draws = LognormalDelay(0.0, 2.0).sample_n(rng, 10_000)
        assert draws.min() >= 0

    def test_delays_past_int64_are_clipped_not_wrapped(self):
        # exp(50) is about 5e21 rounds: cast to int64 unclipped, each draw
        # wraps to -2**63 with a RuntimeWarning (an error under pytest here)
        draws = LognormalDelay(50.0, 1.2).sample_n(np.random.default_rng(0), 5)
        assert draws.dtype == np.int64
        assert draws.min() >= 2**62

    def test_cdf_matches_monte_carlo(self):
        dist = LognormalDelay(3.0, 1.0)
        rng = np.random.default_rng(9)
        draws = dist.sample_n(rng, 1_000_000)
        for m in (0, 5, 20, 100, 500):
            frac = np.count_nonzero(draws <= m) / draws.size
            assert frac == pytest.approx(dist.cdf(m), abs=0.005)

    def test_mean_is_continuous_approximation(self):
        # the documented mean ignores flooring, so it overshoots by < 1
        dist = LognormalDelay(2.0, 0.5)
        rng = np.random.default_rng(4)
        sample_mean = dist.sample_n(rng, 1_000_000).mean()
        assert sample_mean < dist.mean() < sample_mean + 1.0

    @pytest.mark.parametrize("log_mean, log_std, m", [
        (7.0, 0.5, 10),      # lower tail: P(L < 11) is 1.7e-20
        (7.0, 0.5, 0),       # deeper: 7.8e-45
        (7.0, 1.2, 0),       # preset D's delay at m = 0: 2.7e-9
        (0.0, 1.0, 0),       # the median
        (7.0, 1.2, 2000),    # preset D's window
        (3.0, 1.0, 500),     # upper tail
        (7.0, 0.5, 10**7),   # far past the mean
    ])
    def test_cdf_matches_scipy(self, log_mean, log_std, m):
        # floor(L) <= m iff L < m + 1; 0.5 * (1 + erf(z / sqrt 2)) reads 0
        # in the first two cases and is 9e-9 off in the third
        tau = LognormalDelay(log_mean, log_std).cdf(m)
        want = stats.lognorm(log_std, scale=math.exp(log_mean)).cdf(m + 1)
        assert tau == pytest.approx(want, rel=1e-12, abs=0)
        # a window that captures anything keeps the regret bound finite
        assert math.isfinite(regret_upper_bound(3000, 5, 1.0, 0.05, m, tau))

    def test_cdf_monotone(self):
        dist = LognormalDelay(7.0, 1.2)
        values = [dist.cdf(m) for m in range(0, 20_000, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestRecommendedWindow:
    def test_twice_the_geometric_mean(self):
        dist = GeometricDelay(100)
        m = recommended_window(dist)
        assert m == 200
        assert dist.cdf(m) >= 0.5

    def test_degenerate_zero_delay(self):
        assert recommended_window(FixedDelay(0)) == 0
        assert FixedDelay(0).cdf(0) == 1.0

    def test_scaled_empirical(self):
        dist = EmpiricalDelay((100,) * 5, scale=0.01)
        assert recommended_window(dist) == 2

    @pytest.mark.parametrize("dist", [
        GeometricDelay(3.7),
        GeometricDelay(250),
        FixedDelay(12),
        EmpiricalDelay((0, 1, 5, 40, 200)),
        LognormalDelay(2.0, 1.5),
    ])
    def test_markov_guarantee(self, dist):
        assert dist.cdf(recommended_window(dist)) >= 0.5


class TestLoadEmpirical:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("10\n20\n30\n")
        dist = load_empirical(path, scale=1.0)
        assert drawn_support(dist) == [10, 20, 30]
        assert dist.cdf(20) == pytest.approx(2 / 3)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("# header\n\n5\n# mid\n7.5\n")
        dist = load_empirical(path)
        assert drawn_support(dist) == [5, 7]

    def test_scaling(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("100\n200\n")
        dist = load_empirical(path, scale=0.01)
        assert drawn_support(dist) == [1, 2]

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("1\nbogus\n3\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_empirical(path)

    def test_negative_reports_line(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("1\n2\n-3\n")
        with pytest.raises(ValueError, match=r":3:.*negative"):
            load_empirical(path)

    @pytest.mark.parametrize("sample", ["inf", "nan", "-inf"])
    def test_non_finite_reports_line(self, tmp_path, sample):
        path = tmp_path / "delays.txt"
        path.write_text(f"1\n{sample}\n")
        with pytest.raises(ValueError, match=r":2: non-finite delay sample"):
            load_empirical(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="empty delay sample file"):
            load_empirical(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_empirical(tmp_path / "nope.txt")

    def test_a_bad_line_after_many_good_ones_reports_its_line(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("1.5\n" * 100_000 + "bogus\n")
        with pytest.raises(ValueError, match=r":100001: not a number: 'bogus'"):
            load_empirical(path)

    def test_loading_holds_the_pool_about_once(self, tmp_path):
        # streamed into one float64 array and floored into one int64 pool;
        # a list of floats and a tuple of them peaked at 65 bytes a sample
        n = 100_000
        path = tmp_path / "delays.txt"
        path.write_text("".join(f"{0.37 * i}\n" for i in range(n)))
        tracemalloc.start()
        try:
            dist = load_empirical(path, scale=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.cdf(n) == 1.0
        assert peak <= 32 * n
