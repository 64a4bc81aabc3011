"""Delay distributions over non-negative integer conversion delays.

Every distribution supports sampling, exact (or exact-empirical) CDF
evaluation, a mean, and a recommended truncation window. Instances are
immutable after construction and safe to share between replications;
randomness always comes from a caller-owned generator.
"""

from __future__ import annotations

import math
import os
import re
import stat
import warnings
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DelayDistribution",
    "GeometricDelay",
    "FixedDelay",
    "EmpiricalDelay",
    "LognormalDelay",
    "recommended_window",
    "load_empirical",
]


class DelayDistribution:
    """Base interface: a sampler over {0, 1, 2, ...} with queryable CDF."""

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` delays as an int64 array. Deterministic given the
        generator state."""
        raise NotImplementedError

    def cdf(self, m: int) -> float:
        """P(D <= m) for integer m >= 0."""
        raise NotImplementedError

    def mean(self) -> float:
        """Expected delay (see subclasses for exactness caveats)."""
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricDelay(DelayDistribution):
    """Geometric delay on {0, 1, 2, ...} parameterized by its mean.

    The success probability is p = 1 / (mean + 1), so the mean is exactly
    ``mean_delay`` and P(D <= m) = 1 - (1 - p)^(m + 1).
    """

    mean_delay: float

    def __post_init__(self):
        if not self.mean_delay > 0:
            raise ValueError(f"geometric mean must be positive, got {self.mean_delay}")

    @property
    def p(self) -> float:
        return 1.0 / (self.mean_delay + 1.0)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # numpy's geometric counts trials to first success (support >= 1)
        return rng.geometric(self.p, size=n).astype(np.int64) - 1

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        # 1 - (1 - p)^(m + 1) without cancelling: 1 - p rounds to 1 once p
        # is below 1.1e-16, and loses p's low digits long before that
        return -math.expm1((m + 1) * math.log1p(-self.p))

    def mean(self) -> float:
        return self.mean_delay


@dataclass(frozen=True)
class FixedDelay(DelayDistribution):
    """Degenerate delay: every conversion takes exactly ``value`` rounds.

    Sampling consumes no randomness.
    """

    value: int

    def __post_init__(self):
        # NaN and infinity fail the range test, before int() could raise
        if not 0 <= self.value < 2**63 or self.value != int(self.value):
            raise ValueError(f"fixed delay must be a natural number below 2**63, "
                             f"got {self.value}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.int64)

    def cdf(self, m: int) -> float:
        return 1.0 if m >= self.value else 0.0

    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True, eq=False)
class EmpiricalDelay(DelayDistribution):
    """Uniform resampling from a finite pool of observed delays.

    ``samples`` is a 1-D sequence or array of raw delays; a float64 array
    is read where it lies and never modified. Raw samples are multiplied
    by ``scale`` and floored to integers at construction, each of which
    must be below 2**63 (an int64 delay); only the floored int64 values
    are kept, 8 bytes per sample. They are the support, and the CDF and
    mean are exact with respect to it.
    """

    samples: InitVar[np.ndarray]
    scale: float = 1.0
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, samples):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        raw = np.asarray(samples, dtype=float)
        if raw.ndim != 1:
            raise ValueError(f"delay samples must be one-dimensional, got shape {raw.shape}")
        if raw.size == 0:
            raise ValueError("empty delay sample set")
        if np.any(raw < 0):
            raise ValueError("negative delay sample")
        floored = self.scale * raw  # a new array: the caller's stays as it is
        np.floor(floored, out=floored)
        fits = floored < 2.0**63  # an int64 delay; False for NaN too
        if not fits.all():
            raise ValueError(f"delay sample {raw[~fits][0]} times scale {self.scale} "
                             f"is not below 2**63")
        object.__setattr__(self, "_values", floored.astype(np.int64))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(self._values.size, size=n)
        return self._values[idx]

    def cdf(self, m: int) -> float:
        return float(np.count_nonzero(self._values <= m)) / self._values.size

    def mean(self) -> float:
        return float(self._values.mean())


@dataclass(frozen=True)
class LognormalDelay(DelayDistribution):
    """Heavy-tailed delay: floor of a lognormal variable.

    ``log_mean`` and ``log_std`` parameterize the underlying normal in log
    space. The CDF accounts for the flooring exactly; the mean is the
    analytic mean of the continuous variable before flooring and therefore
    slightly overestimates the integer mean.
    """

    log_mean: float
    log_std: float

    def __post_init__(self):
        if self.log_std <= 0:
            raise ValueError(f"log_std must be positive, got {self.log_std}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # clipped below 2**63, so the cast cannot wrap; a delay of 2**62
        # rounds is never revealed
        floored = np.floor(rng.lognormal(self.log_mean, self.log_std, size=n))
        return np.minimum(floored, 2.0**62).astype(np.int64)

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        # floor(L) <= m  iff  L < m + 1
        z = (math.log(m + 1.0) - self.log_mean) / self.log_std
        # the normal CDF without cancelling: 1 + erf(z / sqrt 2) loses
        # every digit of a lower-tail probability below about 1e-16
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_std**2)


def recommended_window(dist: DelayDistribution) -> int:
    """Window of twice the mean delay, rounded up.

    By Markov's inequality P(D > 2 mu) <= 1/2, so the returned window m
    satisfies P(D <= m) >= 1/2 whenever the mean is finite.
    """
    mu = dist.mean()
    if not math.isfinite(mu):
        raise ValueError("recommended window requires a finite mean delay")
    return int(math.ceil(2.0 * mu))


def _checked_samples(path: Path, lines):
    """The delay samples of ``lines``, one float per line; '#' starts a
    comment line. Raises ValueError naming the file and the line."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {stripped!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite delay sample")
        if value < 0:
            raise ValueError(f"{path}:{lineno}: negative delay sample {value}")
        yield value


# a '#' after the first non-blank character of its line: numpy's parser
# would end the line there, where the line rule rejects it
_COMMENT_AFTER_TEXT = re.compile(r"^[^\S\n]*[^\s#][^\n#]*#", re.MULTILINE)
# the suffixes for which numpy decompresses the file it opens
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".lzma", ".xz")


def _whole_lines(fh):
    """The text of ``fh`` in chunks of about 64K characters, each ending
    where a line does."""
    while chunk := fh.read(1 << 16):
        yield chunk if chunk.endswith("\n") else chunk + fh.readline()


def _c_parsed(path: Path, fh) -> np.ndarray | None:
    """The samples of ``path`` read by numpy's C parser, or None where that
    read might differ from ``_checked_samples``.

    ``fh`` is ``path`` open as UTF-8 text, a leading byte-order mark
    skipped; it is scanned for '#' and rewound. numpy opens the path again in text mode, so both reads see
    the same lines; both strip the same whitespace and convert a field
    with ``PyOS_string_to_double``, the C function ``float()`` ends in.
    numpy's parser rejects what that function cannot read alone
    (underscores, non-ASCII digits, two numbers, a blank line that is not
    empty, a comment after blanks), so this returns None for those and for
    what numpy reads but the line rule rejects: a '#' after a number, a ','
    and a non-finite or negative value. A file that is not regular (a pipe
    can be read once) and a name numpy would decompress are left to the
    line rule as well.
    """
    if (not stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            or path.name.endswith(_NUMPY_DECOMPRESSES)):
        return None
    try:
        if any("#" in chunk and _COMMENT_AFTER_TEXT.search(chunk)
               for chunk in _whole_lines(fh)):
            return None
        with warnings.catch_warnings():
            # "input contained no data": a file of comments is empty here too
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, comments="#", delimiter=",", ndmin=2,
                               encoding="utf-8-sig", dtype=float)
    # UnicodeDecodeError is a ValueError; OSError if numpy cannot open the path
    except (OSError, ValueError):
        return None
    finally:
        fh.seek(0)
    if table.shape[1] != 1 or not (np.isfinite(table).all() and (table >= 0).all()):
        return None
    return table[:, 0]


def load_empirical(path, scale: float = 1.0) -> EmpiricalDelay:
    """Read one non-negative number per line; '#' starts a comment line, and
    a leading byte-order mark is skipped.

    numpy's C parser reads the file into one float64 array when it reads
    it as ``_checked_samples`` would; any other file is checked line by
    line, which gives every error message. ``EmpiricalDelay`` floors the
    array into its int64 pool: the load peaks at about 25 bytes per
    sample. Raises ValueError naming the file, and the offending line on
    parse failures, when it is not UTF-8 text, does not parse or is empty.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            samples = _c_parsed(path, fh)
            if samples is None:
                samples = np.fromiter(_checked_samples(path, fh), dtype=float)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if samples.size == 0:
        raise ValueError(f"empty delay sample file: {path}")
    return EmpiricalDelay(samples, scale=scale)
