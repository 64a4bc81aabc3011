"""Policy behavior: selection rules, sampling moments, baselines."""

import numpy as np
import pytest
from scipy import stats

from delayed_bandits.environment import ActionSet, ConversionEvent, DelayedBanditEnv
from delayed_bandits.delays import FixedDelay, GeometricDelay
from delayed_bandits.policies import (
    LinearPolicy,
    PolicyConfig,
    RandomPolicy,
    covariance_inflation,
    make_policy,
    ucb_scores,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def contract_config(**kw):
    defaults = dict(kind="otf_linucb", delta=0.05, lam=1.0, m=10,
                    width_mode="cached", width_scale=1.0)
    defaults.update(kw)
    return PolicyConfig(**defaults)


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(kind="nope")
        with pytest.raises(ValueError):
            PolicyConfig(delta=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(delta=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(lam=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(m=-1)
        with pytest.raises(ValueError):
            PolicyConfig(width_mode="fast")
        with pytest.raises(ValueError):
            PolicyConfig(width_scale=-0.1)


class TestOTFLinUCB:
    def test_fresh_state_breaks_ties_low(self):
        policy = LinearPolicy(3, contract_config())
        aset = ActionSet(np.eye(3))
        assert policy.select(aset, np.random.default_rng(0)) == 0

    def test_single_action(self):
        policy = LinearPolicy(2, contract_config())
        aset = ActionSet(np.array([[0.0, 1.0]]))
        assert policy.select(aset, np.random.default_rng(0)) == 0

    def test_exploitation_dominates_after_many_rounds(self):
        # alternate both directions with conversions only along e1, so the
        # estimate points at e1 and both bonuses shrink equally
        policy = LinearPolicy(2, contract_config(m=10))
        rng = np.random.default_rng(0)
        for t in range(1, 20001):
            a = E1 if t % 2 else E2
            events = [ConversionEvent(t)] if t % 2 else []
            policy.observe(events, a)
        est = policy.est
        assert est.estimate()[0] > 0.9
        aset = ActionSet(np.eye(2))
        assert policy.select(aset, rng) == 0

    def test_selected_score_is_maximal(self):
        rng = np.random.default_rng(1)
        policy = LinearPolicy(3, contract_config(m=5))
        for t in range(1, 60):
            raw = rng.standard_normal((4, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            aset = ActionSet(raw)
            idx = policy.select(aset, rng)
            scores = ucb_scores(policy.est, 0.05, "cached", aset, 1.0)
            assert scores[idx] == scores.max()
            events = [ConversionEvent(t)] if rng.random() < 0.4 else []
            policy.observe(events, aset.actions[idx])

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores = rng.standard_normal(6)
            scores[rng.integers(6)] = scores.max()  # plant a possible tie
            for c in (0.1, 1.0, 7.3):
                assert int(np.argmax(scores)) == int(np.argmax(c * scores))

    def test_empty_action_set_rejected(self):
        policy = LinearPolicy(2, contract_config())
        empty = ActionSet._from_validated(np.empty((0, 2)))
        with pytest.raises(ValueError, match="empty"):
            policy.select(empty, np.random.default_rng(0))


class TestCovarianceInflation:
    def test_empty_window_gives_one(self):
        policy = LinearPolicy(3, contract_config(kind="otf_lints"))
        assert covariance_inflation(policy.est, 0.05) == pytest.approx(1.0)

    def test_at_least_one_and_matches_components(self):
        rng = np.random.default_rng(3)
        policy = LinearPolicy(3, contract_config(kind="otf_lints", m=8))
        for t in range(1, 40):
            raw = rng.standard_normal(3)
            a = raw / np.linalg.norm(raw)
            policy.observe([ConversionEvent(t)] if rng.random() < 0.5 else [], a)
            est = policy.est
            value = covariance_inflation(est, 0.05, "cached")
            expected = 1.0 + est.window_norm_sum("cached") / est.exploration_radius(0.05)
            assert value == pytest.approx(expected, rel=1e-12)
            assert value >= 1.0


class TestOTFLinTS:
    @staticmethod
    def _trained_policy(cov_scale=1.0):
        policy = LinearPolicy(3, contract_config(kind="otf_lints", m=6),
                              cov_scale=cov_scale)
        rng = np.random.default_rng(4)
        for t in range(1, 120):
            raw = rng.standard_normal(3)
            a = raw / np.linalg.norm(raw)
            policy.observe([ConversionEvent(t)] if rng.random() < 0.6 else [], a)
        return policy

    def test_zero_covariance_is_greedy(self):
        policy = self._trained_policy(cov_scale=0.0)
        aset = ActionSet(np.vstack([np.eye(3), -np.eye(3) * 0.9]))
        greedy = int(np.argmax(aset.actions @ policy.est.estimate()))
        rng = np.random.default_rng(5)
        assert all(policy.select(aset, rng) == greedy for _ in range(25))

    def test_sample_mean_matches_estimate(self):
        policy = self._trained_policy()
        n = 100_000
        draws = policy.sample_parameter(np.random.default_rng(6), size=n)
        infl = covariance_inflation(policy.est, 0.05)
        cov = infl * policy.est.V_inv
        center = policy.est.estimate()
        tol = 3.0 * np.sqrt(np.diag(cov)) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - center) < tol)

    def test_sample_covariance_matches_target(self):
        policy = self._trained_policy()
        n = 100_000
        draws = policy.sample_parameter(np.random.default_rng(7), size=n)
        infl = covariance_inflation(policy.est, 0.05)
        target = infl * policy.est.V_inv
        sample_cov = np.cov(draws.T)
        rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_select_consumes_fixed_randomness(self):
        # equal seeds give equal choices regardless of covariance scale
        a = self._trained_policy(cov_scale=0.0)
        b = self._trained_policy(cov_scale=0.0)
        aset = ActionSet(np.eye(3))
        r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(10):
            assert a.select(aset, r1) == b.select(aset, r2)
        assert r1.bit_generator.state == r2.bit_generator.state


class TestOracleLinUCB:
    def test_fresh_tie_break(self):
        policy = LinearPolicy(2, contract_config(kind="oracle_linucb"))
        assert policy.select(ActionSet(np.eye(2)), np.random.default_rng(0)) == 0

    def test_estimator_matches_windowed_under_zero_delay(self):
        # with no delay every conversion is credited by both, so they see
        # identical data
        cfg_otf = contract_config(m=300)
        cfg_oracle = contract_config(kind="oracle_linucb")
        otf = LinearPolicy(3, cfg_otf)
        oracle = LinearPolicy(3, cfg_oracle)
        theta = np.array([0.5, 0.3, 0.1])
        env = DelayedBanditEnv(theta, FixedDelay(0), np.random.default_rng(9))
        rng = np.random.default_rng(10)
        for t in range(1, 301):
            raw = np.abs(rng.standard_normal((5, 3)))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            aset = ActionSet(raw)
            idx = otf.select(aset, rng)
            events = env.step(idx, aset)
            otf.observe(events, aset.actions[idx])
            oracle.observe(events, aset.actions[idx])
            assert np.abs(otf.est.estimate() - oracle.est.estimate()).max() < 1e-10

    def test_oracle_not_worse_than_delayed_policy(self):
        # direction check over a batch of paired runs
        from delayed_bandits.harness import ExperimentConfig, run_episode
        from dataclasses import replace
        base = ExperimentConfig(d=3, K=5, T=500, delay="geometric", delay_mean=20.0,
                                m=40, n_runs=1, base_seed=77)
        finals = {}
        for kind in ("oracle_linucb", "otf_linucb"):
            cfg = replace(base, policy=kind)
            finals[kind] = np.array([
                run_episode(cfg, i).cum_regret[-1] for i in range(30)
            ])
        n = 30
        se = np.sqrt(finals["oracle_linucb"].var(ddof=1) / n
                     + finals["otf_linucb"].var(ddof=1) / n)
        assert finals["oracle_linucb"].mean() <= finals["otf_linucb"].mean() + 2 * se


class TestRandomPolicy:
    def test_single_action(self):
        policy = RandomPolicy()
        assert policy.select(ActionSet(np.array([[1.0]])), np.random.default_rng(0)) == 0

    def test_uniformity_chi2(self):
        policy = RandomPolicy()
        aset = ActionSet(np.eye(10))
        rng = np.random.default_rng(11)
        draws = np.array([policy.select(aset, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_deterministic_under_seed(self):
        policy = RandomPolicy()
        aset = ActionSet(np.eye(4))
        a = [policy.select(aset, np.random.default_rng(12)) for _ in range(1)]
        b = [policy.select(aset, np.random.default_rng(12)) for _ in range(1)]
        assert a == b


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["otf_linucb", "otf_lints",
                                      "oracle_linucb", "random"])
    def test_identical_streams_give_identical_actions(self, kind):
        def play(seed):
            config = PolicyConfig(kind=kind, delta=0.05, lam=1.0, m=15)
            policy = make_policy(config, 3)
            env_rng = np.random.default_rng(seed)
            policy_rng = np.random.default_rng(seed + 1)
            env = DelayedBanditEnv(np.full(3, 1 / np.sqrt(3)),
                                   GeometricDelay(10), env_rng)
            chosen_indices = []
            for t in range(1, 121):
                raw = env_rng.integers(0, 2, size=(6, 3)).astype(float)
                raw[~raw.any(axis=1)] = [1, 0, 0]
                raw /= np.linalg.norm(raw, axis=1, keepdims=True)
                aset = ActionSet(raw)
                idx = policy.select(aset, policy_rng)
                events = env.step(idx, aset)
                if policy.needs_uncensored_feedback:
                    events = [ConversionEvent(t)] if env.last_reward else []
                policy.observe(events, aset.actions[idx])
                chosen_indices.append(idx)
            return chosen_indices
        assert play(100) == play(100)


def test_make_policy_kinds():
    for kind in ("otf_linucb", "otf_lints", "oracle_linucb", "random"):
        config = PolicyConfig(kind=kind, m=5)
        policy = make_policy(config, 3)
        assert policy.select(ActionSet(np.eye(3)), np.random.default_rng(0)) in range(3)
