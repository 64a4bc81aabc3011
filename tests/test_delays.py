"""Delay distribution behavior: sampling, CDFs, windows, file loading."""

import gzip
import math
import os
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from delayed_bandits import delays
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

    # np.loadtxt warns "input contained no data"; under -W error that
    # warning would be raised in place of the message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["# only comments\n", "", "\n\n", "# a\n#b\r\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "delays.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="^empty delay sample file: "):
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

    def test_the_c_parser_alone_reads_plain_and_commented_files(self, tmp_path, monkeypatch):
        # the line rule is the fallback; a file it has to read here would
        # mean every load had quietly become slow again
        def fail(path, lines):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(delays, "_checked_samples", fail)
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"10\n20.5\n30\n")
        commented = tmp_path / "commented.txt"
        commented.write_bytes(b"# delays, in rounds\r\n\r\n10\r\n\r\n20.5\r\n30\r\n")
        for path in (plain, commented):
            assert load_empirical(path)._values.tolist() == [10, 20, 30]

    @pytest.mark.parametrize("alone", ["_c_parsed", "_checked_samples"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, alone):
        # Windows tools often start UTF-8 text with one; each reader alone
        # gives the pool of the same file without it
        text = b"# delays, in rounds\r\n10\r\n20.5\r\n30\r\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want = load_empirical(plain)._values.tobytes()
        if alone == "_c_parsed":
            def fail(path, lines):
                raise AssertionError(f"{path} was read line by line")

            monkeypatch.setattr(delays, "_checked_samples", fail)
        else:
            monkeypatch.setattr(delays, "_c_parsed", lambda path, fh: None)
        assert load_empirical(marked)._values.tobytes() == want

    def test_a_byte_order_mark_after_the_start_fails_at_its_line(self, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_bytes(b"1\n\xef\xbb\xbf2\n")
        with pytest.raises(ValueError, match=r":2: not a number: '\\ufeff2'$"):
            load_empirical(path)

    @pytest.mark.parametrize("line", ["3 # x", "3 4", "1,5"])
    def test_a_line_that_is_not_one_number_fails_at_its_line(self, tmp_path, line):
        # numpy's parser reads '3 # x' as 3 and '1,5' as two columns; the
        # line rule reads one number per line
        path = tmp_path / "delays.txt"
        path.write_text(f"1\n{line}\n2\n")
        with pytest.raises(ValueError, match=f":2: not a number: '{line}'$"):
            load_empirical(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self):
        # numpy's parser opens the path again, which would find a pipe empty
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"# piped\n4\n8\n")
            os.close(write_end)
            assert load_empirical(f"/dev/fd/{read_end}")._values.tolist() == [4, 8]
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
    def test_a_name_numpy_would_decompress_is_read_as_text(self, tmp_path, suffix):
        # np.loadtxt decompresses a path with these suffixes; the line rule
        # reads its bytes as they are
        text = tmp_path / f"delays.txt{suffix}"
        text.write_text("1\n2\n")
        assert load_empirical(text)._values.tolist() == [1, 2]

    def test_a_compressed_file_is_not_utf8_text(self, tmp_path):
        packed = tmp_path / "packed.gz"
        packed.write_bytes(gzip.compress(b"1\n2\n"))
        with pytest.raises(ValueError, match="not UTF-8 text"):
            load_empirical(packed)


# lines both numpy's parser and the line rule read: number spellings of
# Python's float syntax, comments and empty lines
PLAIN_LINES = st.one_of(
    st.floats(min_value=0, max_value=1e6).map(repr),
    st.sampled_from([" +3.5 ", ".5", "5.", "1e3", "-0", "7", "# c", "## a # b", ""]),
)
# lines only the line rule reads (underscores, non-ASCII digits, blanks that
# ``str.strip`` removes, indented comments), and lines it rejects, though
# numpy reads most of them
ODD_LINES = st.sampled_from([
    "1_0", "\u0663", "  # c", "\t# c", "\xa0# c", "  ", "\t",
    "inf", "nan", "-1", "3 # x", "3#", "3 4", "1,5",
])


@st.composite
def delay_files(draw):
    """The bytes of a delay file: plain lines, perhaps one or two odd ones,
    mixed line endings, a byte-order mark and invalid UTF-8."""
    lines = draw(st.lists(PLAIN_LINES, max_size=10))
    for line in draw(st.lists(ODD_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    endings = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no ending on the last line
    data = text.encode()
    data = draw(st.sampled_from([b"", b"", b"", b"", b"\xef\xbb\xbf"])) + data
    invalid = draw(st.sampled_from([b"", b"", b"", b"", b"\xff", b"\xc3"]))
    at = draw(st.integers(0, len(data)))
    return data[:at] + invalid + data[at:]


@pytest.fixture(scope="module")
def delay_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "delays.txt"


def loaded(path):
    """The int64 pool of ``path``'s delays, or the ValueError message."""
    try:
        return load_empirical(path)._values.tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=delay_files())
@example(data=b"# h\r\n\r\n1\r\n2.5\r\n")
@example(data=b"1\r2\r\r3")
@example(data=b"\xef\xbb\xbf1\n")
@example(data=b"1\n3 # x\n")
@example(data=b"1,5\n")
def test_the_c_parser_reads_each_file_as_the_line_rule(delay_path, data):
    delay_path.write_bytes(data)
    with mock.patch.object(delays, "_c_parsed", return_value=None):
        line_rule = loaded(delay_path)
    assert loaded(delay_path) == line_rule
