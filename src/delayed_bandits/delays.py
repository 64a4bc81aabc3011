"""Delay distributions over non-negative integer conversion delays.

Every distribution supports sampling, exact (or exact-empirical) CDF
evaluation, a mean, and a recommended truncation window. Instances are
immutable after construction and safe to share between replications;
randomness always comes from a caller-owned generator.
"""

from __future__ import annotations

import math
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

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one delay. Deterministic given the generator state."""
        raise NotImplementedError

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` delays as an int64 array (vectorized where possible)."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=np.int64)

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

    def sample(self, rng: np.random.Generator) -> int:
        # numpy's geometric counts trials to first success (support >= 1)
        return int(rng.geometric(self.p)) - 1

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.geometric(self.p, size=n).astype(np.int64) - 1

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        return 1.0 - (1.0 - self.p) ** (m + 1)

    def mean(self) -> float:
        return self.mean_delay


@dataclass(frozen=True)
class FixedDelay(DelayDistribution):
    """Degenerate delay: every conversion takes exactly ``value`` rounds.

    Sampling consumes no randomness.
    """

    value: int

    def __post_init__(self):
        if self.value < 0 or self.value != int(self.value):
            raise ValueError(f"fixed delay must be a natural number, got {self.value}")

    def sample(self, rng: np.random.Generator) -> int:
        return self.value

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.int64)

    def cdf(self, m: int) -> float:
        return 1.0 if m >= self.value else 0.0

    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True, eq=False)
class EmpiricalDelay(DelayDistribution):
    """Uniform resampling from a finite pool of observed delays.

    Raw samples are multiplied by ``scale`` and floored to integers at
    construction; only the floored values are kept. They are the support,
    the CDF and mean are exact with respect to it, and two pools are equal
    iff their supports are.
    """

    samples: InitVar[tuple]
    scale: float = 1.0
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, samples):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        raw = np.asarray(samples, dtype=float)
        if raw.size == 0:
            raise ValueError("empty delay sample set")
        if np.any(raw < 0):
            raise ValueError("negative delay sample")
        values = np.floor(self.scale * raw).astype(np.int64)
        values = np.maximum(values, 0)
        object.__setattr__(self, "_values", values)

    @property
    def values(self) -> np.ndarray:
        """The scaled, floored integer support (one entry per sample)."""
        return self._values.copy()

    def __eq__(self, other):
        if not isinstance(other, EmpiricalDelay):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self):
        return hash(self._values.tobytes())

    def sample(self, rng: np.random.Generator) -> int:
        return int(self._values[rng.integers(self._values.size)])

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

    def sample(self, rng: np.random.Generator) -> int:
        return int(math.floor(rng.lognormal(self.log_mean, self.log_std)))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.floor(rng.lognormal(self.log_mean, self.log_std, size=n)).astype(np.int64)

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        # floor(L) <= m  iff  L < m + 1
        z = (math.log(m + 1.0) - self.log_mean) / self.log_std
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

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


def load_empirical(path, scale: float = 1.0) -> EmpiricalDelay:
    """Read one non-negative number per line; '#' starts a comment line.

    Raises ValueError with the offending line number on parse failures and
    on empty files.
    """
    path = Path(path)
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            samples.append(value)
    if not samples:
        raise ValueError(f"empty delay sample file: {path}")
    return EmpiricalDelay(samples=tuple(samples), scale=scale)
