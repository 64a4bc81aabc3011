"""Delay distribution behavior: sampling, CDFs, windows, file loading."""

import pickle
import warnings

import numpy as np
import pytest

from delayed_bandits.delays import (
    EmpiricalDelay,
    FixedDelay,
    GeometricDelay,
    LognormalDelay,
    load_empirical,
    recommended_window,
)


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
        assert all(dist.sample(rng) == 0 for _ in range(50))
        assert dist.cdf(0) == 1.0

    def test_cdf_is_step(self):
        dist = FixedDelay(7)
        assert dist.cdf(6) == 0.0
        assert dist.cdf(7) == 1.0
        assert dist.mean() == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-1)


class TestEmpirical:
    def test_constant_pool_always_returns_it(self):
        dist = EmpiricalDelay((10, 10, 10), scale=1.0)
        rng = np.random.default_rng(3)
        assert set(dist.sample_n(rng, 200).tolist()) == {10}

    def test_mean_is_arithmetic_mean_of_scaled(self):
        assert EmpiricalDelay((0, 10)).mean() == 5.0

    def test_scale_then_floor(self):
        dist = EmpiricalDelay((100, 200), scale=0.01)
        assert sorted(set(dist.values.tolist())) == [1, 2]
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

    def test_keeps_only_the_floored_support(self):
        raw = tuple(np.random.default_rng(4).uniform(0, 50, size=1000).tolist())
        dist = EmpiricalDelay(raw, scale=0.5)
        assert not hasattr(dist, "samples")
        assert np.array_equal(dist.values, np.floor(0.5 * np.array(raw)).astype(np.int64))
        copy = pickle.loads(pickle.dumps(dist))
        assert copy == dist and np.array_equal(copy.values, dist.values)
        # the raw floats would add about 18 bytes each to the pickle
        assert len(pickle.dumps(dist)) < 8 * len(raw) + 500

    def test_equal_iff_supports_equal(self):
        assert EmpiricalDelay((1, 2)) == EmpiricalDelay((1.5, 2.9))
        assert hash(EmpiricalDelay((1, 2))) == hash(EmpiricalDelay((1.5, 2.9)))
        assert EmpiricalDelay((4, 6), scale=0.5) == EmpiricalDelay((2, 3))
        assert EmpiricalDelay((1, 2)) != EmpiricalDelay((1, 3))
        assert EmpiricalDelay((1, 2)) != EmpiricalDelay((2, 1))
        assert EmpiricalDelay((1, 2)) != EmpiricalDelay((1, 2, 2))
        assert EmpiricalDelay((1, 2)) != FixedDelay(1)


class TestLognormal:
    def test_support_non_negative(self):
        rng = np.random.default_rng(2)
        draws = LognormalDelay(0.0, 2.0).sample_n(rng, 10_000)
        assert draws.min() >= 0

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
        assert sorted(dist.values.tolist()) == [10, 20, 30]
        assert dist.cdf(20) == pytest.approx(2 / 3)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("# header\n\n5\n# mid\n7.5\n")
        dist = load_empirical(path)
        assert sorted(dist.values.tolist()) == [5, 7]

    def test_scaling(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("100\n200\n")
        dist = load_empirical(path, scale=0.01)
        assert sorted(dist.values.tolist()) == [1, 2]

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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="empty delay sample file"):
            load_empirical(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_empirical(tmp_path / "nope.txt")
