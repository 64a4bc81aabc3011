"""Property tests: BLAS norms and the ring window against plain references."""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_bandits.environment import ActionSet, generate_action_set
from delayed_bandits.estimator import WindowedEstimator
from delayed_bandits.policies import LinearPolicy, PolicyConfig, ucb_scores

SEEDS = st.integers(0, 2**32 - 1)


def einsum_sq_norms(A, V_inv):
    """The three-operand einsum the BLAS helper replaced."""
    return np.einsum("ki,ij,kj->k", A, V_inv, A)


def unit_ball_actions(rng, n, d):
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * rng.uniform(0.05, 1.0, size=(n, 1))


class DequeWindow:
    """Reference window: a deque of [round, action, norm, converted] entries
    with the running norm sum updated in the estimator's order."""

    def __init__(self, m):
        self.m = m
        self.entries = deque()
        self.by_round = {}
        self.B = None
        self.cached_sum = 0.0
        self.ops = 0

    def record(self, t, a, norm):
        if self.m == 0:
            return
        entry = [t, a.copy(), norm, False]
        self.entries.append(entry)
        self.by_round[t] = entry
        self.cached_sum += norm
        if len(self.entries) > self.m:
            old = self.entries.popleft()
            del self.by_round[old[0]]
            self.cached_sum -= old[2]
        self.ops += 1
        if self.ops >= 512:
            self.cached_sum = math.fsum(e[2] for e in self.entries)
            self.ops = 0

    def convert(self, r):
        entry = self.by_round.get(r)
        if entry is not None and not entry[3]:
            self.B += entry[1]
            entry[3] = True

    def exact_width(self, V_inv):
        if not self.entries:
            return 0.0
        A = np.stack([e[1] for e in self.entries])
        return float(np.sqrt(np.maximum(einsum_sq_norms(A, V_inv), 0.0)).sum())


def check_against_model(m, T, seed, d=3):
    rng = np.random.default_rng(seed)
    est = WindowedEstimator(d, 1.0, m)
    model = DequeWindow(m)
    model.B = np.zeros(d)
    for t in range(1, T + 1):
        a = unit_ball_actions(rng, 1, d)[0]
        est.record_action(a)
        model.record(t, a, math.sqrt(max(float(a @ est.V_inv @ a), 0.0)))
        # in-window, evicted, future and repeated rounds
        for r in rng.integers(t - m - 3, t + 2, size=3):
            est.record_conversion(int(r))
            model.convert(int(r))
        assert est.window_rounds() == [e[0] for e in model.entries]
        assert est.window_cached_norms() == [e[2] for e in model.entries]
        assert est.window_norm_sum("cached") == max(model.cached_sum, 0.0)
        exact = est.window_norm_sum("exact")
        want = model.exact_width(est.V_inv)
        assert abs(exact - want) <= 1e-12 * max(want, 1e-300)
        assert np.array_equal(est.B, model.B)
        # the ring holds exactly m rows
        assert len(est._norms) == m


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([0, 1, 7, 100]), frac=st.floats(0.0, 5.0), seed=SEEDS)
def test_ring_window_matches_deque_model(m, frac, seed):
    check_against_model(m, int(frac * max(m, 4)), seed)


def test_ring_window_matches_deque_model_across_fsum_refresh():
    # past 512 window updates the running sum is re-fsummed
    for m in (1, 7, 100):
        check_against_model(m, 1200, seed=m)


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
@given(seed=SEEDS, n_actions=st.integers(0, 300),
       mode=st.sampled_from(["cached", "exact"]))
def test_ucb_pick_attains_einsum_maximum(seed, n_actions, mode):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = PolicyConfig(kind="otf_linucb", m=100, width_mode=mode, width_scale=0.2)
    policy = LinearPolicy(d, config)
    random_state(policy, rng, d, n_actions)
    aset = generate_action_set(rng, d, K)
    A, est = aset.actions, policy.est
    width = config.width_scale * est.confidence_width(config.delta, mode)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    tol = 1e-12 * max(1.0, np.abs(scores).max())
    got = ucb_scores(est, config.delta, mode, aset, config.width_scale)
    assert np.abs(got - scores).max() <= tol
    assert scores[policy.select(aset, rng)] >= scores.max() - tol


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n_actions=st.integers(0, 300))
def test_oracle_pick_attains_einsum_maximum(seed, n_actions):
    d, K = 50, 100
    rng = np.random.default_rng(seed)
    config = PolicyConfig(kind="oracle_linucb", width_scale=0.2)
    policy = LinearPolicy(d, config)
    random_state(policy, rng, d, n_actions)
    A = ActionSet(unit_ball_actions(rng, K, d)).actions
    est = policy.est
    width = config.width_scale * est.exploration_radius(config.delta)
    scores = A @ est.estimate() + width * np.sqrt(einsum_sq_norms(A, est.V_inv))
    best = scores[policy.select(ActionSet(A), rng)]
    assert best >= scores.max() - 1e-12 * max(1.0, abs(scores.max()))
