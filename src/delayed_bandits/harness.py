"""Experiment runner: configs, presets, episodes, batches, coverage checks.

A single episode wires one environment, one policy, and per-run random
streams derived from ``base_seed + run_index``, one per source
(``RNG_LAYOUT``). Batches are share-nothing across replications and
aggregate in run-id order, so serial and parallel execution produce
identical results; a worker process receives the config once, when it
starts, and each task only its run index. ``ExperimentConfig`` is the one
configuration type: it is validated when it is built, policies read it
directly, and an episode's elliptical potential is the one its policy's
estimator sums.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

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
    NORM_TOL,
    OUTCOME_BLOCK_ROUNDS,
    DelayedBanditEnv,
    action_block_rounds,
    action_sets,
    generate_action_set,
    outcome_block,
)
from . import estimator
from .estimator import WindowedEstimator, norms, window_penalty
from .policies import Policy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RegretTrace",
    "SummaryStats",
    "ORACLE",
    "PRESETS",
    "RNG_LAYOUT",
    "build_config",
    "run_episode",
    "run_batch",
    "summarize",
    "Coverage",
    "concentration_coverage",
]

# each kind's own keys, in metadata order; a delay kind's keys are also the
# positional arguments of its constructor
THETA_KEYS = {"uniform_unit": (), "explicit": ("theta_values",),
              "k_armed_hard": ("hard_gap",)}
DELAY_KEYS = {"geometric": ("delay_mean",), "fixed": ("delay_value",),
              "empirical": ("delay_path", "delay_scale"),
              "lognormal": ("delay_log_mean", "delay_log_std")}
ACTION_MODES = ("resample_each_round", "fixed_basis")
POLICY_KINDS = ("otf_linucb", "otf_lints", "random")
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
    ``__dict__``, so they reach each worker process with the config, once,
    when the worker starts (see ``run_batch``). ``dataclasses.replace``
    builds, validates and resolves a new instance. ``build_delay()``
    constructs a new distribution on every call. The fields are in
    ``metadata.txt`` order, because ``resolved_items`` walks them.
    """

    d: int = 5
    K: int = 10
    T: int = 3000
    theta: str = "uniform_unit"
    theta_values: Optional[tuple] = None
    hard_gap: float = 0.1
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
        if self.m is not None and self.m > sys.float_info.max:
            raise ConfigError("window m is too large: it does not fit a float")
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
            if not np.linalg.norm(theta) <= 1.0 + NORM_TOL:
                raise ConfigError("explicit theta must have L2 norm <= 1")
        else:
            # K arms of mean 1/2, the first with an edge of hard_gap, for
            # the standard basis; theta escapes the unit ball for larger K,
            # and only per-action means must stay in [0, 1]
            if self.K < 2:
                raise ConfigError("hard instance needs K >= 2 arms")
            if not (0.0 < self.hard_gap < 0.25):
                raise ConfigError(f"gap must lie in (0, 1/4), got {self.hard_gap}")
            theta = np.full(self.K, 0.5)
            theta[0] = 0.5 + self.hard_gap
        # every action the config can draw must have a mean in [0, 1], to
        # env.step's tolerance. Under fixed_basis the means are theta's
        # entries. A drawn action is a normalized 0/1 vector: with k ones its
        # mean is at least the sum of theta's k smallest entries over
        # sqrt(k), and at most that of its k largest. Sorted in Python,
        # because np.sort's first call maps about 0.4 MB of code.
        ranked = sorted(theta.tolist())
        if self.action_mode == "fixed_basis":
            lo, hi = ranked[0], ranked[-1]
        else:
            root_k = [math.sqrt(k) for k in range(1, self.d + 1)]
            lo = min(s / r for s, r in zip(itertools.accumulate(ranked), root_k))
            hi = max(s / r for s, r in zip(itertools.accumulate(ranked[::-1]), root_k))
        if lo < -NORM_TOL or hi > 1.0 + NORM_TOL:
            raise ConfigError(f"theta gives mean rewards out of range [0, 1]: "
                              f"min {lo:.6g}, max {hi:.6g}")
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

    @property
    def episode_window(self) -> int:
        """The window of an episode's estimator. No round leaves a window as
        long as the episode, so a longer one credits and penalizes the same
        rounds with a larger ring."""
        return min(self.resolved_window, self.T)

    @cached_property
    def tau_m(self) -> float:
        return self.resolved_delay.cdf(self.resolved_window)

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

# The undelayed LinUCB oracle: OTFLinUCB on an environment without delay,
# where the window penalty is zero and every reward is credited when drawn.
# ``build_config`` applies it after the preset for ``policy = oracle_linucb``.
ORACLE: dict = dict(policy="otf_linucb", delay="fixed", delay_value=0, m=0)

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
    scenario keys replace the same keys of ``values``, and ``policy =
    oracle_linucb`` then becomes the ``ORACLE`` values; only the resulting
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
    if parsed.get("policy") == "oracle_linucb":
        parsed.update(ORACLE)
    return ExperimentConfig(**parsed)


# The randomness layout, written to metadata.txt: one child stream per
# source, child i of a run's seed for STREAMS[i], and the environment's
# block rules. Any change to either moves outputs, so it takes a new number.
RNG_LAYOUT = 2
STREAMS = ("actions", "rewards", "delays", "policy")


def _streams(seed: int, *sources: str) -> list:
    """The generators of the named sources of ``seed``. Each is built alone:
    the child with ``spawn_key=(i,)`` is child i of
    ``SeedSequence(seed).spawn(len(STREAMS))``, bit for bit."""
    keys = (STREAMS.index(source) for source in sources)
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in keys]


def _action_blocks(config: ExperimentConfig, rng: np.random.Generator):
    """Every round's actions, as (n, K, d) blocks of ``n =
    action_block_rounds(d, K)`` rounds: the standard basis repeated (a
    read-only view), or drawn from ``rng`` by ``generate_action_set``. Always
    whole blocks: a horizon that ends inside one leaves the rest unused.
    Episodes and coverage take their actions from here only."""
    d, K = config.d, config.K
    n = action_block_rounds(d, K)
    if config.action_mode == "fixed_basis":
        return itertools.repeat(np.broadcast_to(np.eye(d), (n, K, d)))
    return (generate_action_set(rng, d, K, n) for _ in itertools.count())


def run_episode(config: ExperimentConfig, run_index: int) -> RegretTrace:
    """Play one full episode; deterministic given (config, run_index)."""
    actions, rewards, delays, policy_rng = _streams(config.base_seed + run_index, *STREAMS)
    env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, rewards, delays)
    policy = Policy(config)
    trace = np.empty(config.T)
    cum = 0.0
    for t, aset in zip(range(1, config.T + 1),
                       action_sets(_action_blocks(config, actions))):
        idx = policy.select(aset.actions, policy_rng)
        chosen = aset.actions[idx]
        policy.observe([ev.round_index for ev in env.step(idx, aset)], chosen)
        cum += env.instantaneous_regret(chosen, aset)
        trace[t - 1] = cum
    return RegretTrace(run_id=run_index, cum_regret=trace,
                       elliptical_potential=policy.est.potential)


def summarize(traces: list) -> SummaryStats:
    """Order-independent aggregation over a batch of traces."""
    traces = sorted(traces, key=lambda tr: tr.run_id)
    stacked = np.stack([tr.cum_regret for tr in traces])
    finals = stacked[:, -1]
    quantiles = {f"q{int(100 * q)}": float(np.quantile(finals, q))
                 for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    return SummaryStats(mean=stacked.mean(axis=0), std=stacked.std(axis=0, ddof=0),
                        final_quantiles=quantiles)


# a worker process's config, set by _start_worker when the worker starts;
# None in the process that runs the batch
_worker_config: Optional[ExperimentConfig] = None


def _start_worker(config: ExperimentConfig) -> None:
    global _worker_config
    _worker_config = config


def _run_in_worker(run_index: int) -> RegretTrace:
    # through the module global, as the serial path calls it
    return run_episode(_worker_config, run_index)


def run_batch(config: ExperimentConfig) -> tuple[list, SummaryStats]:
    """Run ``n_runs`` independent episodes, serially or in worker processes.

    Each worker receives the config, with its resolved delay, once when it
    starts: a forked worker inherits it, and under spawn or forkserver it
    is pickled once per worker. A task carries only its run index. The
    process pool is imported only when one is started.
    """
    indices = range(config.n_runs)
    workers = min(config.n_jobs, config.n_runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(config,)) as pool:
            traces = list(pool.map(_run_in_worker, indices, chunksize=1))
    else:
        traces = [run_episode(config, i) for i in indices]
    return traces, summarize(traces)


class Coverage(NamedTuple):
    """What ``concentration_coverage`` found over its replications."""

    coverage: float              # fraction of replications covered every round
    penalty_checks: int          # live checks above twice the radius
    max_deviation_ratio: float   # largest live deviation over twice the radius


def _coverage_sequence(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The actions the random policy plays in run 0 of ``base_seed``, one row
    per round, and their mean rewards. Its T picks are one draw of T
    integers, which equals the episode's T single draws."""
    action_rng, policy_rng = _streams(config.base_seed, "actions", "policy")
    picks = policy_rng.integers(config.K, size=config.T)
    actions = np.empty((config.T, config.d))
    n = action_block_rounds(config.d, config.K)
    for start, block in zip(range(0, config.T, n), _action_blocks(config, action_rng)):
        picked = picks[start:start + n]
        actions[start:start + n] = block[np.arange(picked.size), picked]
    return actions, actions @ config.resolve_theta


#: rounds whose checks ``concentration_coverage`` computes together; a
#: divisor of OUTCOME_BLOCK_ROUNDS
CHECK_BLOCK_ROUNDS = 128


def _lockstep_blocks(config: ExperimentConfig, actions: np.ndarray, means: np.ndarray,
                     n_reps: int):
    """Play ``actions`` once for all replications together, in blocks of
    ``CHECK_BLOCK_ROUNDS`` rounds.

    For the block of rounds ``t0 .. t0 + k - 1`` it yields ``(t0, radii,
    Vs, V_invs, Bs)``, one entry per round along the first axis, each taken
    before that round's action: twice the exploration radius, ``V`` and
    ``V_inv`` of the one estimator of the shared design, and the (n_reps,
    d) credited sums of all replications. The next block overwrites
    ``radii``, ``Vs`` and ``V_invs``, whose stacks are allocated once, with
    one entry more than a block for the state after its last round. The
    estimator folds the block's actions in one ``record_actions`` call,
    which runs its rank-one chain in ``Vs`` and ``V_invs``; Python runs
    once per round only for the rank-one step and the radius. Conversions
    are scheduled and credited a block at a time.
    Replication ``rep`` draws its rewards and delays from the streams of
    run ``rep`` of ``base_seed + 1``, in the episodes' blocks, and its
    conversions are credited by the estimator's window rule. A replication
    holds one block of draws (about 16 KB) and its credited conversions in
    flight, whatever the horizon.
    """
    T, d, n = config.T, config.d, CHECK_BLOCK_ROUNDS
    est = WindowedEstimator(d, config.lam, config.episode_window)
    streams = [_streams(config.base_seed + 1 + rep, "rewards", "delays")
               for rep in range(n_reps)]
    reps = np.arange(n_reps)
    # one outcome block of every replication's draws, refilled every
    # OUTCOME_BLOCK_ROUNDS rounds
    uniforms = np.empty((n_reps, OUTCOME_BLOCK_ROUNDS))
    delays = np.empty((n_reps, OUTCOME_BLOCK_ROUNDS), dtype=np.int64)
    B = np.zeros((n_reps, d))
    # credited conversions in flight, in round order: (reveal round, round,
    # rep) columns
    pending = np.empty((3, 0), dtype=np.int64)
    radii, (Vs, V_invs) = np.empty(n), np.empty((2, n + 1, d, d))
    for t0 in range(1, T + 1, n):
        j = (t0 - 1) % OUTCOME_BLOCK_ROUNDS
        if j == 0:
            for rep, (reward_rng, delay_rng) in enumerate(streams):
                uniforms[rep], delays[rep] = outcome_block(config.resolved_delay,
                                                           reward_rng, delay_rng)
        k = min(n, T + 1 - t0)
        for i in range(k):
            radii[i] = 2.0 * estimator.exploration_radius_at(t0 - 1 + i, d, est.lam,
                                                             config.delta)
        est.record_actions(actions[t0 - 1:t0 - 1 + k], (Vs[:k + 1], V_invs[:k + 1]))
        # the block's conversions in round order, then replication order;
        # a delay clipped at T reveals after the horizon all the same, and
        # the reveal round cannot overflow
        s, rep = np.nonzero((uniforms[:, j:j + k] < means[t0 - 1:t0 - 1 + k]).T)
        delay = delays[rep, j + s]
        s += t0
        w = s + np.minimum(delay, T)
        new = np.stack([w, s, rep])[:, (w <= T) & est.credited(s, w, est.m)]
        pending = np.concatenate([pending, new], axis=1)
        due = pending[0] < t0 + k
        revealed, pending = pending[:, due], pending[:, ~due]
        # row rep of sums: its B, then its credits by reveal round, then by
        # round (a stable sort of the round order); one cumulative sum adds
        # them one at a time, as B[rep] += a would
        w, s, rep = revealed[:, np.lexsort((revealed[0], revealed[2]))]
        counts = np.bincount(rep, minlength=n_reps)
        sums = np.zeros((n_reps, counts.max() + 1, d))
        sums[:, 0] = B
        slot = np.arange(rep.size) - (np.cumsum(counts) - counts)[rep] + 1
        sums[rep, slot] = actions[s - 1]
        sums = np.cumsum(sums, axis=1)
        # seen[i, rep]: rep's credits revealed by the end of round t0 + i - 1
        seen = np.bincount((w - t0 + 1) * n_reps + rep, minlength=(k + 1) * n_reps)
        seen = np.cumsum(seen.reshape(k + 1, n_reps), axis=0)
        B = sums[reps, counts]
        yield t0, radii[:k], Vs[:k], V_invs[:k], sums[reps, seen[:k]]


def concentration_coverage(config: ExperimentConfig, n_reps: int) -> Coverage:
    """Fraction of replications whose estimate stays inside its ellipsoid.

    One action sequence is drawn up front and held fixed: the actions the
    random policy plays in run 0 of ``base_seed``. Every replication plays
    it, so all share one design matrix and advance together; each keeps
    only its credited sum and its own rewards and delays (see
    ``_lockstep_blocks``). At every selection time each live replication
    checks that its windowed estimate deviates from the window-scaled true
    parameter (in the design-matrix norm) by no more than the confidence
    width, the one OTFLinUCB selects with. Coverage counts replications
    where the check holds simultaneously for all rounds.

    A block's deviations are computed at once. The width is twice the
    exploration radius plus a window penalty that is never negative, so a
    deviation within twice the radius passes without the penalty. Only the
    rounds where some live deviation is above it are walked. Their penalty
    is ``window_penalty`` of the estimator's ring at that round, whose rows
    are rows of the action sequence, under the ``V_inv`` that
    ``_lockstep_blocks`` yields for it: the bits of the estimator's own
    ``confidence_width``. Checking stops after the block in which the last
    replication fails.
    """
    if n_reps < 1:
        raise ConfigError("n_reps must be >= 1")
    actions, means = _coverage_sequence(config)
    target = config.tau_m * config.resolve_theta
    rows = config.episode_window + 1  # the estimator's ring
    live = np.ones(n_reps, dtype=bool)
    penalty_checks, max_ratio = 0, 0.0
    for t0, radii, Vs, V_invs, Bs in _lockstep_blocks(config, actions, means, n_reps):
        # V_inv is exactly symmetric, so E[i, rep] is estimate - target
        E = Bs @ V_invs
        E -= target
        lhs = norms(E, Vs)
        above = lhs > radii[:, None]
        alive = np.repeat(live[None], radii.size, axis=0)  # live at each round
        for i in np.flatnonzero((above & live).any(axis=1)).tolist():
            checks = int(np.count_nonzero(above[i] & live))
            if checks == 0:  # those replications failed earlier in the block
                continue
            penalty_checks += checks
            # the estimator's ring before round t0 + i: the last size rows,
            # each in its slot, so the penalty sums them in the same order
            size = min(t0 + i - 1, rows)
            start = t0 + i - 1 - size
            oldest = start % rows
            ring = np.roll(actions[start:start + size], oldest, axis=0)
            penalty = window_penalty(ring, V_invs[i], oldest if size == rows else None)
            # the width is at least twice the radius: only those above it fail
            live[lhs[i] > radii[i] + penalty] = False
            alive[i + 1:] = live
        peaks = lhs.max(axis=1, where=alive, initial=0.0)
        max_ratio = max(max_ratio, float((peaks / radii).max()))
        if not live.any():
            break
    return Coverage(int(np.count_nonzero(live)) / n_reps, penalty_checks, max_ratio)
