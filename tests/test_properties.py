"""Property tests: BLAS norms, the ring window and the estimate against plain
references."""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_bandits.environment import (
    ActionSet, ConversionEvent, DelayedBanditEnv, generate_action_set)
from delayed_bandits.estimator import WindowedEstimator
from delayed_bandits.harness import ExperimentConfig, _episode_streams, run_episode
from delayed_bandits.policies import LinearPolicy, make_policy

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
def test_sq_norms_match_einsum(d, K, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V_inv = (Q * rng.uniform(1e-3, 1.0, size=d)) @ Q.T
    V_inv = 0.5 * (V_inv + V_inv.T)
    A = unit_ball_actions(rng, K, d)
    est = WindowedEstimator(d, 1.0, 0)
    est.V_inv = V_inv
    want = einsum_sq_norms(A, V_inv)
    # relative to the scale of the terms the quadratic form sums
    scale = np.sum(A * A, axis=1) * np.linalg.norm(V_inv, 2)
    assert np.all(np.abs(est.sq_norms(A) - want) <= 1e-12 * scale)


def random_state(policy, rng, d, n_actions):
    for t in range(1, n_actions + 1):
        a = generate_action_set(rng, d, 1).actions[0]
        policy.observe([], a)
        for r in rng.integers(max(1, t - 120), t + 1, size=int(rng.integers(0, 2))):
            policy.est.record_conversion(int(r))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n_actions=st.integers(0, 300))
def test_ucb_pick_attains_einsum_maximum(seed, n_actions):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = ExperimentConfig(d=d, K=K, policy="otf_linucb", m=100, width_scale=0.2)
    policy = LinearPolicy(config)
    random_state(policy, rng, d, n_actions)
    aset = generate_action_set(rng, d, K)
    A, est = aset.actions, policy.est
    width = config.width_scale * est.confidence_width(config.delta)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    tol = 1e-12 * max(1.0, np.abs(scores).max())
    assert scores[policy.select(aset, rng)] >= scores.max() - tol


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n_actions=st.integers(0, 300))
def test_oracle_pick_attains_einsum_maximum(seed, n_actions):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = ExperimentConfig(d=d, K=K, policy="oracle_linucb", m=0, width_scale=0.2)
    policy = LinearPolicy(config)
    random_state(policy, rng, d, n_actions)
    A = ActionSet(unit_ball_actions(rng, K, d)).actions
    est = policy.est
    width = config.width_scale * est.exploration_radius(config.delta)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    best = scores[policy.select(ActionSet(A), rng)]
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
    config = ExperimentConfig(d=3, K=4, T=T, delay_mean=5.0, m=10, policy=policy,
                              base_seed=seed)
    env_rng, policy_rng = _episode_streams(config.base_seed, 0)
    env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, env_rng)
    player = make_policy(config)
    played = []
    for t in range(1, T + 1):
        aset = generate_action_set(env_rng, config.d, config.K)
        idx = player.select(aset, policy_rng)
        events = env.step(idx, aset)
        if player.needs_uncensored_feedback:
            events = [ConversionEvent(t)] if env.last_reward else []
        player.observe(events, aset.actions[idx])
        played.append(aset.actions[idx])
    want = pre_update_potential(np.array(played), config.lam)
    assert abs(player.est.potential - want) <= 1e-12 * want
    assert run_episode(config, 0).elliptical_potential == player.est.potential
