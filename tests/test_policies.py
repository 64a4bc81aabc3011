"""Policy behavior: selection rules, sampling moments, baselines."""

import numpy as np
import pytest
from scipy import stats

from delayed_bandits.environment import ActionSet, DelayedBanditEnv, action_sets
from delayed_bandits.delays import FixedDelay
from delayed_bandits.harness import (ORACLE, STREAMS, ExperimentConfig, _action_blocks,
                                     _streams)
from delayed_bandits.policies import Policy

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def contract_config(d, **kw):
    defaults = dict(d=d, policy="otf_linucb", delta=0.05, lam=1.0, m=10,
                    width_scale=1.0)
    defaults.update(kw)
    if defaults["policy"] == "oracle_linucb":
        defaults.update(ORACLE)  # as build_config folds it
    return ExperimentConfig(**defaults)


class TestOTFLinUCB:
    def test_fresh_state_breaks_ties_low(self):
        policy = Policy(contract_config(3))
        assert policy.select(np.eye(3), np.random.default_rng(0)) == 0

    def test_single_action(self):
        policy = Policy(contract_config(2))
        assert policy.select(np.array([[0.0, 1.0]]), np.random.default_rng(0)) == 0

    def test_exploitation_dominates_after_many_rounds(self):
        # alternate both directions with conversions only along e1, so the
        # estimate points at e1 and both bonuses shrink equally
        policy = Policy(contract_config(2, m=10))
        rng = np.random.default_rng(0)
        for t in range(1, 20001):
            a = E1 if t % 2 else E2
            policy.observe([t] if t % 2 else [], a)
        est = policy.est
        assert est.estimate()[0] > 0.9
        assert policy.select(np.eye(2), rng) == 0

    def test_selected_score_is_maximal(self):
        rng = np.random.default_rng(1)
        policy = Policy(contract_config(3, m=5))
        for t in range(1, 60):
            raw = rng.standard_normal((4, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            idx = policy.select(raw, rng)
            # the optimistic index from a fresh solve against V
            est, A = policy.est, raw
            width = est.confidence_width(0.05)
            norms = np.sqrt(np.einsum("ki,ki->k", A, np.linalg.solve(est.V, A.T).T))
            scores = A @ np.linalg.solve(est.V, est.B) + width * norms
            assert scores[idx] >= scores.max() - 1e-12 * max(1.0, np.abs(scores).max())
            policy.observe([t] if rng.random() < 0.4 else [], A[idx])

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores = rng.standard_normal(6)
            scores[rng.integers(6)] = scores.max()  # plant a possible tie
            for c in (0.1, 1.0, 7.3):
                assert int(np.argmax(scores)) == int(np.argmax(c * scores))

    def test_empty_action_set_rejected(self):
        policy = Policy(contract_config(2))
        with pytest.raises(ValueError, match="empty"):
            policy.select(np.empty((0, 2)), np.random.default_rng(0))


class TestOTFLinTS:
    @staticmethod
    def _trained_policy():
        policy = Policy(contract_config(3, policy="otf_lints", m=6))
        rng = np.random.default_rng(4)
        for t in range(1, 120):
            raw = rng.standard_normal(3)
            a = raw / np.linalg.norm(raw)
            policy.observe([t] if rng.random() < 0.6 else [], a)
        return policy

    @staticmethod
    def _draws(policy, seed, n=100_000):
        rng = np.random.default_rng(seed)
        return np.array([policy.sample_parameter(rng) for _ in range(n)])

    @staticmethod
    def _target_cov(est):
        # the window's in-flight norms inflate the inverse design matrix
        infl = 1.0 + est.window_norm_sum() / est.exploration_radius(0.05)
        assert infl >= 1.0
        return infl * est.V_inv

    def test_select_is_argmax_of_sampled_parameter(self):
        policy = self._trained_policy()
        A = np.vstack([np.eye(3), -np.eye(3) * 0.9])
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(25):
            greedy = int(np.argmax(A @ policy.sample_parameter(twin)))
            assert policy.select(A, rng) == greedy
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sample_mean_matches_estimate(self):
        policy = self._trained_policy()
        n = 100_000
        draws = self._draws(policy, 6, n)
        cov = self._target_cov(policy.est)
        center = policy.est.estimate()
        tol = 3.0 * np.sqrt(np.diag(cov)) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - center) < tol)

    def test_sample_covariance_matches_target(self):
        policy = self._trained_policy()
        est = policy.est
        assert est.window_norm_sum() > 0.0  # the inflation is exercised
        draws = self._draws(policy, 7)
        target = self._target_cov(est)
        sample_cov = np.cov(draws.T)
        rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_fresh_policy_samples_inverse_design_matrix(self):
        # an empty window leaves the covariance uninflated: V_inv = I / lam
        policy = Policy(contract_config(3, policy="otf_lints", lam=2.0))
        est = policy.est
        assert self._target_cov(est) == pytest.approx(est.V_inv, rel=1e-12)
        n = 100_000
        draws = self._draws(policy, 13, n)
        tol = 3.0 * np.sqrt(np.diag(est.V_inv)) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < tol)
        rel = np.linalg.norm(np.cov(draws.T) - est.V_inv) / np.linalg.norm(est.V_inv)
        assert rel < 0.05

    def test_select_consumes_fixed_randomness(self):
        # equal seeds give equal choices and leave equal generator states
        a = self._trained_policy()
        b = self._trained_policy()
        r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(10):
            assert a.select(np.eye(3), r1) == b.select(np.eye(3), r2)
        assert r1.bit_generator.state == r2.bit_generator.state


class TestOracleLinUCB:
    def test_fresh_tie_break(self):
        policy = Policy(contract_config(2, policy="oracle_linucb"))
        assert policy.select(np.eye(2), np.random.default_rng(0)) == 0

    def test_estimator_matches_windowed_under_zero_delay(self):
        # with no delay every conversion is credited by both, so they see
        # identical data
        cfg_otf = contract_config(3, m=300)
        cfg_oracle = contract_config(3, policy="oracle_linucb")
        otf = Policy(cfg_otf)
        oracle = Policy(cfg_oracle)
        theta = np.array([0.5, 0.3, 0.1])
        env = DelayedBanditEnv(theta, FixedDelay(0), np.random.default_rng(9),
                               np.random.default_rng(11))
        rng = np.random.default_rng(10)
        for t in range(1, 301):
            raw = np.abs(rng.standard_normal((5, 3)))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            aset = ActionSet(raw)
            idx = otf.select(aset.actions, rng)
            rounds = [ev.round_index for ev in env.step(idx, aset)]
            otf.observe(rounds, aset.actions[idx])
            oracle.observe(rounds, aset.actions[idx])
            assert np.abs(otf.est.estimate() - oracle.est.estimate()).max() < 1e-10

    def test_oracle_not_worse_than_delayed_policy(self):
        # direction check over a batch of paired runs
        from delayed_bandits.harness import ExperimentConfig, run_episode
        from dataclasses import replace
        base = ExperimentConfig(d=3, K=5, T=500, delay="geometric", delay_mean=20.0,
                                m=40, n_runs=1, base_seed=77)
        finals = {}
        for kind, overrides in (("oracle_linucb", ORACLE), ("otf_linucb", {})):
            cfg = replace(base, **overrides)
            finals[kind] = np.array([
                run_episode(cfg, i).cum_regret[-1] for i in range(30)
            ])
        n = 30
        se = np.sqrt(finals["oracle_linucb"].var(ddof=1) / n
                     + finals["otf_linucb"].var(ddof=1) / n)
        assert finals["oracle_linucb"].mean() <= finals["otf_linucb"].mean() + 2 * se


class TestRandomPolicy:
    def test_single_action(self):
        policy = Policy(contract_config(1, policy="random"))
        assert policy.select(np.array([[1.0]]), np.random.default_rng(0)) == 0

    def test_uniformity_chi2(self):
        policy = Policy(contract_config(10, policy="random"))
        rng = np.random.default_rng(11)
        draws = np.array([policy.select(np.eye(10), rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_deterministic_under_seed(self):
        policy = Policy(contract_config(4, policy="random"))
        a = [policy.select(np.eye(4), np.random.default_rng(12)) for _ in range(1)]
        b = [policy.select(np.eye(4), np.random.default_rng(12)) for _ in range(1)]
        assert a == b


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["otf_linucb", "otf_lints",
                                      "oracle_linucb", "random"])
    def test_identical_streams_give_identical_actions(self, kind):
        def play(seed):
            config = contract_config(3, K=6, policy=kind, m=15, delay_mean=10.0)
            policy = Policy(config)
            actions, rewards, delays, policy_rng = _streams(seed, *STREAMS)
            env = DelayedBanditEnv(np.full(3, 1 / np.sqrt(3)), config.resolved_delay,
                                   rewards, delays)
            sets = action_sets(_action_blocks(config, actions))
            chosen_indices = []
            for _ in range(120):
                aset = next(sets)
                idx = policy.select(aset.actions, policy_rng)
                policy.observe([ev.round_index for ev in env.step(idx, aset)],
                               aset.actions[idx])
                chosen_indices.append(idx)
            return chosen_indices
        assert play(100) == play(100)


def test_policy_kinds():
    for kind in ("otf_linucb", "otf_lints", "oracle_linucb", "random"):
        config = contract_config(3, policy=kind, m=5)
        policy = Policy(config)
        assert policy.select(np.eye(3), np.random.default_rng(0)) in range(3)


@pytest.mark.parametrize("m, rows", [(3, 4), (5, 6), (10**11, 6)])
def test_window_ring_stops_at_the_horizon(m, rows):
    # a window at least as long as the episode never evicts a round
    policy = Policy(ExperimentConfig(d=3, K=3, T=5, m=m))
    assert policy.est._actions.shape == (rows, 3)
