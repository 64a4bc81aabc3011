"""Property tests: BLAS norms, the ring window, the estimate, the action
blocks and the theta mean-range check against plain references."""

import math
from collections import deque

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delayed_bandits.environment import (
    ACTION_BLOCK_ENTRIES, NORM_TOL, ActionSet, DelayedBanditEnv, action_block_rounds,
    action_sets, generate_action_set)
from delayed_bandits.estimator import WindowedEstimator, norms
from delayed_bandits.harness import (ORACLE, ConfigError, ExperimentConfig,
                                     STREAMS, _action_blocks, _streams, build_config,
                                     run_episode)
from delayed_bandits.policies import Policy

SEEDS = st.integers(0, 2**32 - 1)


def einsum_sq_norms(A, V_inv):
    """The three-operand einsum the BLAS helper replaced."""
    return np.einsum("ki,ij,kj->k", A, V_inv, A)


def unit_ball_actions(rng, n, d):
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * rng.uniform(0.05, 1.0, size=(n, 1))


class DequeWindow:
    """Reference window: a deque of [round, action, converted] entries and
    the design matrix of every recorded action.

    It keeps the last m + 1 rounds, so a conversion revealed after round t
    credits rounds t - m .. t. The width penalty covers the newest m.
    """

    def __init__(self, m, d, lam):
        self.m = m
        self.entries = deque()
        self.by_round = {}
        self.B = np.zeros(d)
        self.V = lam * np.eye(d)

    def record(self, t, a):
        entry = [t, a.copy(), False]
        self.entries.append(entry)
        self.by_round[t] = entry
        if len(self.entries) > self.m + 1:
            old = self.entries.popleft()
            del self.by_round[old[0]]
        self.V += np.outer(a, a)

    def convert(self, r):
        entry = self.by_round.get(r)
        if entry is not None and not entry[2]:
            self.B += entry[1]
            entry[2] = True

    def width(self):
        """Sum of the newest m actions' norms under a fresh inverse of V."""
        V_inv = np.linalg.inv(self.V)
        penalty = list(self.entries)[max(len(self.entries) - self.m, 0):]
        return math.fsum(math.sqrt(e[1] @ V_inv @ e[1]) for e in penalty)


def check_against_model(m, T, seed, d=3):
    rng = np.random.default_rng(seed)
    est = WindowedEstimator(d, 1.0, m)
    model = DequeWindow(m, d, 1.0)
    for t in range(1, T + 1):
        a = unit_ball_actions(rng, 1, d)[0]
        est.record_action(a)
        model.record(t, a)
        # in-window, evicted, future and repeated rounds
        for r in rng.integers(t - m - 3, t + 2, size=3):
            est.record_conversion(int(r))
            model.convert(int(r))
        want = model.width()
        assert abs(est.window_norm_sum() - want) <= 1e-12 * want
        assert np.array_equal(est.B, model.B)
        # the ring holds exactly m + 1 rows
        assert len(est._actions) == m + 1


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([0, 1, 7, 100]), frac=st.floats(0.0, 5.0), seed=SEEDS)
def test_ring_window_matches_deque_model(m, frac, seed):
    check_against_model(m, int(frac * max(m, 4)), seed)


def test_ring_window_matches_deque_model_across_reinversion():
    # past 1000 updates the inverse is re-inverted from scratch
    for m in (0, 1, 7, 100):
        check_against_model(m, 1200, seed=m)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 12), n=st.integers(0, 40))
def test_window_rule_is_the_ring(m, n):
    # in every state (n actions recorded), for rounds before the first and
    # past the last too, the rule credits exactly the rounds in the ring,
    # t - size <= s < t, asked through record_conversion (B counts the
    # credited rounds, every action being 1) or on arrays with the
    # estimator's m
    est = WindowedEstimator(1, 1.0, m)
    for _ in range(n):
        est.record_action(np.ones(1))
    rounds = np.arange(-m - 3, est.t + m + 3)
    ring = (est.t - est._size <= rounds) & (rounds < est.t)
    counts = []
    for s in rounds.tolist():
        est.record_conversion(s)
        counts.append(est.B[0])
    assert (np.diff(counts, prepend=0.0) == 1.0).tolist() == ring.tolist()
    assert np.array_equal(WindowedEstimator.credited(rounds, est.t - 1, est.m), ring)


def action_stream(rng, T, d, collinear):
    """Unit-ball actions, or unit rows of e1 + 1e-6 noise (near-collinear)."""
    if not collinear:
        return unit_ball_actions(rng, T, d)
    raw = 1e-6 * rng.standard_normal((T, d))
    raw[:, 0] += 1.0
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 6), lam=st.floats(0.3, 3.0),
       m=st.sampled_from([0, 1, 7, 50]), delay_mean=st.floats(1.0, 60.0),
       T=st.sampled_from([0, 1, 37, 512, 999, 1000, 1001, 2100]),
       collinear=st.booleans())
def test_estimate_is_batch_ridge_on_credited_data(seed, d, lam, m, delay_mean, T,
                                                  collinear):
    # every round converts after a geometric delay on {0, 1, ...}; the
    # conversion reaches the estimator at the end of round t + delay and
    # counts iff that delay is at most m
    rng = np.random.default_rng(seed)
    actions = action_stream(rng, T, d, collinear)
    delays = rng.geometric(1.0 / delay_mean, size=T) - 1
    arrivals = {}
    for r, delay in enumerate(delays, start=1):
        arrivals.setdefault(r + int(delay), []).append(r)
    est = WindowedEstimator(d, lam, m)
    credited = np.zeros(d)
    for t, a in enumerate(actions, start=1):
        est.record_action(a)
        for r in arrivals.get(t, []):
            est.record_conversion(r)
            if t - r <= m:
                credited += actions[r - 1]
        if t % 97 == 0 or t == T:
            V = lam * np.eye(d) + actions[:t].T @ actions[:t]
            want = np.linalg.solve(V, credited)
            err = np.linalg.norm(est.estimate() - want)
            assert err <= 1e-9 * np.linalg.norm(want) or err == 0.0
            assert np.array_equal(est.V_inv, est.V_inv.T)
            np.linalg.cholesky(est.V_inv)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 60), K=st.integers(1, 120), seed=SEEDS)
def test_norms_match_einsum(d, K, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V_inv = (Q * rng.uniform(1e-3, 1.0, size=d)) @ Q.T
    V_inv = 0.5 * (V_inv + V_inv.T)
    A = unit_ball_actions(rng, K, d)
    want = einsum_sq_norms(A, V_inv)
    # relative to the scale of the terms the quadratic form sums
    scale = np.sum(A * A, axis=1) * np.linalg.norm(V_inv, 2)
    assert np.all(np.abs(norms(A, V_inv) ** 2 - want) <= 1e-12 * scale)


def random_state(policy, rng, d, n_actions):
    for t in range(1, n_actions + 1):
        a = generate_action_set(rng, d, 1, 1)[0, 0]
        policy.observe([], a)
        for r in rng.integers(max(1, t - 120), t + 1, size=int(rng.integers(0, 2))):
            policy.est.record_conversion(int(r))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n_actions=st.integers(0, 300))
def test_ucb_pick_attains_einsum_maximum(seed, n_actions):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = ExperimentConfig(d=d, K=K, policy="otf_linucb", m=100, width_scale=0.2)
    policy = Policy(config)
    random_state(policy, rng, d, n_actions)
    aset = ActionSet(generate_action_set(rng, d, K, 1)[0])
    A, est = aset.actions, policy.est
    width = config.width_scale * est.confidence_width(config.delta)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    tol = 1e-12 * max(1.0, np.abs(scores).max())
    assert scores[policy.select(A, rng)] >= scores.max() - tol


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n_actions=st.integers(0, 300))
def test_oracle_pick_attains_einsum_maximum(seed, n_actions):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = ExperimentConfig(d=d, K=K, width_scale=0.2, **ORACLE)
    policy = Policy(config)
    random_state(policy, rng, d, n_actions)
    A = ActionSet(unit_ball_actions(rng, K, d)).actions
    est = policy.est
    # at m = 0 the window penalty is zero: the width is twice the radius
    width = config.width_scale * 2.0 * est.exploration_radius(config.delta)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    best = scores[policy.select(A, rng)]
    assert best >= scores.max() - 1e-12 * max(1.0, abs(scores.max()))


def pre_update_potential(actions, lam):
    """Sum of a @ inv(V) @ a over the stream, V inverted afresh before each update."""
    V = lam * np.eye(actions.shape[1])
    terms = []
    for a in actions:
        terms.append(float(a @ np.linalg.inv(V) @ a))
        V += np.outer(a, a)
    return math.fsum(terms)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 6), lam=st.floats(0.3, 3.0),
       m=st.sampled_from([0, 1, 7]), T=st.sampled_from([0, 1, 37, 999, 1000, 1001, 2100]))
def test_potential_sums_pre_update_norms(seed, d, lam, m, T):
    # 1000 and more updates cross the periodic re-inversion
    actions = unit_ball_actions(np.random.default_rng(seed), T, d)
    est = WindowedEstimator(d, lam, m)
    for a in actions:
        est.record_action(a)
    want = pre_update_potential(actions, lam)
    assert abs(est.potential - want) <= 1e-12 * want


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), T=st.sampled_from([1, 200, 1100]),
       policy=st.sampled_from(["random", "otf_linucb", "oracle_linucb"]))
def test_episode_potential_sums_pre_update_norms(seed, T, policy):
    config = build_config(dict(d=3, K=4, T=T, delay_mean=5.0, m=10, policy=policy,
                               base_seed=seed))
    actions, rewards, delays, policy_rng = _streams(config.base_seed, *STREAMS)
    env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, rewards, delays)
    player = Policy(config)
    sets = action_sets(_action_blocks(config, actions))
    played = []
    for _ in range(T):
        aset = next(sets)
        idx = player.select(aset.actions, policy_rng)
        player.observe([ev.round_index for ev in env.step(idx, aset)], aset.actions[idx])
        played.append(aset.actions[idx])
    want = pre_update_potential(np.array(played), config.lam)
    assert abs(player.est.potential - want) <= 1e-12 * want
    assert run_episode(config, 0).elliptical_potential == player.est.potential


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([0, 1, 7, 100]), T=st.integers(0, 400), seed=SEEDS,
       delta=st.floats(0.01, 1.0))
def test_twice_the_radius_decides_coverage_like_the_full_width(m, T, seed, delta):
    # the penalty is never negative, so a deviation within twice the radius
    # is within the full width, and testing 2r first never flips a verdict
    rng = np.random.default_rng(seed)
    est = WindowedEstimator(3, 1.0, m)
    for t, a in enumerate(unit_ball_actions(rng, T, 3), start=1):
        est.record_action(a)
        for r in rng.integers(t - m - 2, t + 1, size=int(rng.integers(0, 3))):
            est.record_conversion(int(r))
    twice_radius = 2.0 * est.exploration_radius(delta)
    width = est.confidence_width(delta)
    assert width >= twice_radius
    for lhs in (0.0, twice_radius, width, np.nextafter(twice_radius, math.inf),
                np.nextafter(width, math.inf), np.nextafter(width, 0.0),
                rng.uniform(0.0, 2.0 * width), math.nan, math.inf):
        assert (lhs > twice_radius and lhs > width) == (lhs > width)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 200), K=st.integers(1, 200), seed=SEEDS)
@example(d=1, K=1, seed=0)
@example(d=1, K=200, seed=1)
def test_action_blocks_hold_normalized_nonzero_binary_rows(d, K, seed):
    # d = 1 redraws about half of every block's rows
    n = action_block_rounds(d, K)
    assert n >= 1 and (n * K * d <= ACTION_BLOCK_ENTRIES or n == 1)
    block = generate_action_set(np.random.default_rng(seed), d, K, n)
    assert block.shape == (n, K, d)
    rows = block.reshape(n * K, d)
    ones = np.count_nonzero(rows, axis=1)
    assert np.all(ones >= 1)
    # each row is 1/sqrt(k) on k coordinates and 0 elsewhere
    assert np.all((rows == 0) | (rows == 1.0 / np.sqrt(ones)[:, None]))
    assert np.all(np.abs(np.sum(rows * rows, axis=1) - 1.0) <= 1e-12)


def every_action_mean(theta, action_mode):
    """The mean of every action a config can draw: the standard basis, or all
    2^d - 1 normalized nonzero 0/1 vectors."""
    d = theta.size
    if action_mode == "fixed_basis":
        return np.eye(d) @ theta
    bits = (np.arange(1, 2**d)[:, None] >> np.arange(d)) & 1
    return (bits / np.sqrt(bits.sum(axis=1, keepdims=True))) @ theta


@settings(max_examples=200, deadline=None)
@given(raw=st.lists(st.floats(-0.3, 1.0), min_size=1, max_size=8),
       action_mode=st.sampled_from(["resample_each_round", "fixed_basis"]))
@example(raw=[-0.02] + [1.0] * 7, action_mode="resample_each_round")
# each entry is inside the tolerance; the all-ones action's mean is not
@example(raw=[-6e-10] * 8, action_mode="resample_each_round")
def test_theta_check_matches_every_action_mean(raw, action_mode):
    theta = np.array(raw)
    theta /= max(1.0, np.linalg.norm(theta))  # inside the unit ball
    means = every_action_mean(theta, action_mode)
    lo, hi = -NORM_TOL, 1.0 + NORM_TOL  # env.step's tolerance
    # rounding apart, the check and this enumeration compute the same means
    assume(min(abs(means.min() - lo), abs(means.max() - hi)) > 1e-12)
    d = theta.size
    try:
        ExperimentConfig(d=d, K=d, theta="explicit", theta_values=tuple(theta),
                         action_mode=action_mode)
        accepted = True
    except ConfigError as exc:
        assert "mean rewards out of range" in str(exc)
        accepted = False
    assert accepted == (lo <= means.min() and means.max() <= hi)
