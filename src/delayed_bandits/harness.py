"""Experiment runner: configs, presets, episodes, batches, coverage checks.

A single episode wires one environment, one policy, and per-run random
streams derived from ``base_seed + run_index``. Batches are share-nothing
across replications and aggregate in run-id order, so serial and parallel
execution produce identical results. ``ExperimentConfig`` is the one
configuration type: it is validated when it is built, policies read it
directly, and an episode's elliptical potential is the one its policy's
estimator sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .delays import (
    DelayDistribution,
    FixedDelay,
    GeometricDelay,
    LognormalDelay,
    load_empirical,
    recommended_window,
)
from .environment import (
    ActionSet,
    ConversionEvent,
    DelayedBanditEnv,
    generate_action_set,
    make_hard_instance_pair,
)
from .estimator import WindowedEstimator
from .policies import make_policy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RegretTrace",
    "SummaryStats",
    "PRESETS",
    "build_config",
    "run_episode",
    "run_batch",
    "summarize",
    "concentration_coverage",
    "elliptical_potential_bound",
]

# each kind's own keys, in metadata order; a delay kind's keys are also the
# positional arguments of its constructor
THETA_KEYS = {"uniform_unit": (), "explicit": ("theta_values",),
              "k_armed_hard": ("hard_gap", "hard_arm")}
DELAY_KEYS = {"geometric": ("delay_mean",), "fixed": ("delay_value",),
              "empirical": ("delay_path", "delay_scale"),
              "lognormal": ("delay_log_mean", "delay_log_std")}
ACTION_MODES = ("resample_each_round", "fixed_basis")
POLICY_KINDS = ("otf_linucb", "otf_lints", "oracle_linucb", "random")
# config-file keys whose field has another name
FILE_KEYS = {"lambda": "lam", "out": "output_path"}
_FIELD_KEYS = {name: key for key, name in FILE_KEYS.items()}


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully describes one experiment; every field has a usable default.

    Construction validates every field and resolves the derived values
    (``resolved_delay``, theta, window, ``tau_m``), so an instance that
    exists is valid; a failed check or resolution raises ``ConfigError``.
    The derived values are cached properties, kept in the instance
    ``__dict__``, so they travel with the pickled config to worker
    processes. ``dataclasses.replace`` builds, validates and resolves a
    new instance. ``build_delay()`` constructs a new distribution on
    every call. The fields are in ``metadata.txt`` order, because
    ``resolved_items`` walks them.
    """

    d: int = 5
    K: int = 10
    T: int = 3000
    theta: str = "uniform_unit"
    theta_values: Optional[tuple] = None
    hard_gap: float = 0.1
    hard_arm: int = 2
    action_mode: str = "resample_each_round"
    delay: str = "geometric"
    delay_mean: float = 100.0
    delay_value: int = 0
    delay_path: Optional[str] = None
    delay_scale: float = 1.0
    delay_log_mean: float = 7.0
    delay_log_std: float = 1.2
    policy: str = "otf_linucb"
    delta: float = 0.05
    lam: float = 1.0
    m: Optional[int] = None
    width_scale: float = 0.2
    n_runs: int = 100
    base_seed: int = 0
    n_jobs: int = 1
    output_path: str = "results"

    def __post_init__(self) -> None:
        if self.d < 1 or self.K < 1 or self.T < 1 or self.n_runs < 1:
            raise ConfigError("d, K, T and n_runs must all be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be non-negative")
        if self.n_jobs < 1:
            raise ConfigError("n_jobs must be >= 1")
        if self.theta not in THETA_KEYS:
            raise ConfigError(f"unknown theta kind {self.theta!r}")
        if self.action_mode not in ACTION_MODES:
            raise ConfigError(f"unknown action mode {self.action_mode!r}")
        if self.delay not in DELAY_KEYS:
            raise ConfigError(f"unknown delay kind {self.delay!r}")
        if self.action_mode == "fixed_basis" and self.K != self.d:
            raise ConfigError("fixed_basis mode requires K == d")
        if self.theta == "k_armed_hard" and self.action_mode != "fixed_basis":
            raise ConfigError("k_armed_hard theta requires fixed_basis mode")
        if self.m is not None and self.m < 0:
            raise ConfigError("window m must be >= 0")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.policy!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not self.lam > 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if self.width_scale < 0:
            raise ConfigError(f"width_scale must be >= 0, got {self.width_scale}")
        # after the checks above, so that a value they reject keeps their
        # message, and before resolution, which computes with these values
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{_FIELD_KEYS.get(f.name, f.name)} must be finite, "
                                  f"got {value}")
        try:  # resolve (and cache) the derived values
            self.tau_m  # resolves the delay and the window first
            self.resolve_theta
        except ConfigError:
            raise
        except (ValueError, OSError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    def build_delay(self) -> DelayDistribution:
        """Construct the delay distribution; reads the file for ``empirical``."""
        if self.delay == "empirical" and self.delay_path is None:
            raise ConfigError("empirical delay requires delay_path")
        # built per call, so a replaced module-level ``load_empirical`` is used
        build = {"geometric": GeometricDelay, "fixed": FixedDelay,
                 "empirical": load_empirical, "lognormal": LognormalDelay}[self.delay]
        return build(*(getattr(self, key) for key in DELAY_KEYS[self.delay]))

    @cached_property
    def resolved_delay(self) -> DelayDistribution:
        return self.build_delay()

    @cached_property
    def resolve_theta(self) -> np.ndarray:
        """The true parameter, read-only: every episode shares the array."""
        if self.theta == "uniform_unit":
            theta = np.full(self.d, 1.0 / math.sqrt(self.d))
        elif self.theta == "explicit":
            if self.theta_values is None:
                raise ConfigError("explicit theta requires theta_values")
            theta = np.array(self.theta_values, dtype=float)
            if theta.shape != (self.d,):
                raise ConfigError(
                    f"theta_values has length {theta.size}, expected d={self.d}"
                )
            if not np.linalg.norm(theta) <= 1.0 + 1e-9:
                raise ConfigError("explicit theta must have L2 norm <= 1")
        else:
            # the hard-instance parameter intentionally escapes the unit ball
            # for larger K; only per-action means must stay in [0, 1]
            theta, _ = make_hard_instance_pair(self.K, self.hard_gap, self.hard_arm)
        theta.flags.writeable = False
        return theta

    @cached_property
    def resolved_window(self) -> int:
        if self.m is not None:
            return self.m
        try:
            return recommended_window(self.resolved_delay)
        except OverflowError as exc:
            raise ConfigError(f"m = auto: twice the mean of the {self.delay} delay "
                              f"overflows ({exc})") from exc

    @cached_property
    def tau_m(self) -> float:
        delay, window = self.resolved_delay, self.resolved_window
        try:
            return delay.cdf(window)
        except OverflowError as exc:
            raise ConfigError(f"window m is too large for the {self.delay} delay's "
                              f"capture probability ({exc})") from exc

    def resolved_items(self) -> list:
        """Every resolved setting as (key, value) pairs for the metadata file,
        without the keys of the theta and delay kinds not configured."""
        unused = {key for kind, keys in (*THETA_KEYS.items(), *DELAY_KEYS.items())
                  if kind not in (self.theta, self.delay) for key in keys}
        items = []
        for f in fields(self):
            if f.name in unused:
                continue
            value = getattr(self, f.name)
            if f.name == "theta_values":
                value = ",".join(repr(v) for v in value)
            elif f.name == "m":
                value = self.resolved_window
            items.append((_FIELD_KEYS.get(f.name, f.name), value))
        return items


@dataclass
class RegretTrace:
    """Cumulative pseudo-regret of one episode, one value per round."""

    run_id: int
    cum_regret: np.ndarray
    elliptical_potential: float = float("nan")


@dataclass
class SummaryStats:
    """Across-run per-round mean/std and final-regret quantiles."""

    mean: np.ndarray
    std: np.ndarray
    final_quantiles: dict
    n_runs: int


# Scenario presets. A, B and C use geometric delays with d=5, K=10, T=3000
# and windows (100, 500, 100) against mean delays (100, 100, 500); D is the
# heavy-tailed scenario with a lognormal delay, a 2000-round window and a
# 10^4 horizon.
PRESETS: dict = {
    "A": dict(d=5, K=10, T=3000, delay="geometric", delay_mean=100.0, m=100),
    "B": dict(d=5, K=10, T=3000, delay="geometric", delay_mean=100.0, m=500),
    "C": dict(d=5, K=10, T=3000, delay="geometric", delay_mean=500.0, m=100),
    "D": dict(d=5, K=10, T=10_000, delay="lognormal", delay_log_mean=7.0,
              delay_log_std=1.2, m=2000),
}

_FILE_FIELDS = {_FIELD_KEYS.get(f.name, f.name): f for f in fields(ExperimentConfig)}
# values whose parser is not the type of their field's default
_PARSERS = {
    "m": lambda raw: None if raw == "auto" else int(raw),
    "theta_values": lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()),
    "delay_path": str,
}


def build_config(values: dict, preset: Optional[str] = None) -> ExperimentConfig:
    """Build one config from a flat key-to-value mapping and a preset name.

    Values are parsed from their string form by the type of their field's
    default, and unknown keys are rejected. ``m`` accepts an integer or the
    literal ``auto`` (twice the mean delay, rounded up). The preset's
    scenario keys replace the same keys of ``values``; only the resulting
    config is validated.
    """
    parsed: dict = {}
    for key, raw in values.items():
        raw = str(raw).strip()
        field = _FILE_FIELDS.get(key)
        if field is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed[field.name] = _PARSERS.get(field.name, type(field.default))(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (expected one of A, B, C, D)")
        parsed.update(PRESETS[preset])
    return ExperimentConfig(**parsed)


def elliptical_potential_bound(d: int, lam: float, T: int) -> float:
    """Deterministic cap on the summed squared pre-update action norms."""
    return 2.0 * d * math.log((d * lam + T) / (d * lam))


def _episode_streams(base_seed: int, run_index: int):
    ss = np.random.SeedSequence(base_seed + run_index)
    env_ss, policy_ss = ss.spawn(2)
    return np.random.default_rng(env_ss), np.random.default_rng(policy_ss)


def run_episode(config: ExperimentConfig, run_index: int) -> RegretTrace:
    """Play one full episode; deterministic given (config, run_index)."""
    env_rng, policy_rng = _episode_streams(config.base_seed, run_index)
    env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, env_rng)
    policy = make_policy(config)
    fixed_set = ActionSet(np.eye(config.d)) if config.action_mode == "fixed_basis" else None
    trace = np.empty(config.T)
    cum = 0.0
    for t in range(1, config.T + 1):
        aset = fixed_set if fixed_set is not None else generate_action_set(
            env_rng, config.d, config.K)
        idx = policy.select(aset, policy_rng)
        chosen = aset.actions[idx]
        events = env.step(idx, aset)
        if policy.needs_uncensored_feedback:
            events = [ConversionEvent(t)] if env.last_reward else []
        policy.observe(events, chosen)
        cum += env.instantaneous_regret(chosen, aset)
        trace[t - 1] = cum
    return RegretTrace(run_id=run_index, cum_regret=trace,
                       elliptical_potential=policy.est.potential)


def _episode_worker(args) -> RegretTrace:
    config, run_index = args
    return run_episode(config, run_index)


def summarize(traces: list) -> SummaryStats:
    """Order-independent aggregation over a batch of traces."""
    traces = sorted(traces, key=lambda tr: tr.run_id)
    stacked = np.stack([tr.cum_regret for tr in traces])
    finals = stacked[:, -1]
    quantiles = {f"q{int(100 * q)}": float(np.quantile(finals, q))
                 for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    return SummaryStats(mean=stacked.mean(axis=0), std=stacked.std(axis=0, ddof=0),
                        final_quantiles=quantiles, n_runs=len(traces))


def run_batch(config: ExperimentConfig) -> tuple[list, SummaryStats]:
    """Run ``n_runs`` independent episodes, serially or in worker processes."""
    indices = range(config.n_runs)
    workers = min(config.n_jobs, config.n_runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_episode_worker,
                                   [(config, i) for i in indices], chunksize=1))
    else:
        traces = [run_episode(config, i) for i in indices]
    traces.sort(key=lambda tr: tr.run_id)
    return traces, summarize(traces)


def concentration_coverage(config: ExperimentConfig, n_reps: int) -> float:
    """Fraction of replications whose estimate stays inside its ellipsoid.

    One action sequence is drawn up front from ``base_seed`` and held
    fixed; each replication redraws rewards and delays only, then checks
    at every selection time that the windowed estimate deviates from the
    window-scaled true parameter (in the design-matrix norm) by no more
    than the confidence width, the one OTFLinUCB selects with. Coverage
    counts replications where the check holds simultaneously for all
    rounds.
    """
    if n_reps < 1:
        raise ConfigError("n_reps must be >= 1")
    theta = config.resolve_theta
    delay = config.resolved_delay
    m = config.resolved_window
    target = config.tau_m * theta

    seq_rng = np.random.default_rng(np.random.SeedSequence(config.base_seed))
    actions = np.empty((config.T, config.d))
    fixed_set = ActionSet(np.eye(config.d)) if config.action_mode == "fixed_basis" else None
    for t in range(config.T):
        aset = fixed_set if fixed_set is not None else generate_action_set(
            seq_rng, config.d, config.K)
        actions[t] = aset.actions[int(seq_rng.integers(len(aset)))]
    means = actions @ theta
    if means.min() < -1e-9 or means.max() > 1.0 + 1e-9:
        raise ConfigError("mean reward out of range [0, 1] for coverage sequence")

    hits = 0
    for rep in range(n_reps):
        rng = np.random.default_rng(np.random.SeedSequence(config.base_seed + 1 + rep))
        est = WindowedEstimator(config.d, config.lam, m)
        reveal: dict[int, list[int]] = {}
        ok = True
        for t in range(1, config.T + 1):
            err = est.estimate() - target
            lhs = math.sqrt(max(float(err @ est.V @ err), 0.0))
            if lhs > est.confidence_width(config.delta):
                ok = False
                break
            a = actions[t - 1]
            est.record_action(a)
            if rng.random() < means[t - 1]:
                reveal.setdefault(t + delay.sample(rng), []).append(t)
            for s in reveal.pop(t, []):
                est.record_conversion(s)
        hits += ok
    return hits / n_reps
