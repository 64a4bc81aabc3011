"""Policy behavior: selection rules, sampling moments, baselines."""

import numpy as np
import pytest
from scipy import stats

from delayed_bandits.environment import ActionSet, ConversionEvent, DelayedBanditEnv
from delayed_bandits.delays import FixedDelay, GeometricDelay
from delayed_bandits.harness import ExperimentConfig
from delayed_bandits.policies import LinearPolicy, RandomPolicy, make_policy

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def contract_config(d, **kw):
    defaults = dict(d=d, policy="otf_linucb", delta=0.05, lam=1.0, m=10,
                    width_scale=1.0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestOTFLinUCB:
    def test_fresh_state_breaks_ties_low(self):
        policy = LinearPolicy(contract_config(3))
        aset = ActionSet(np.eye(3))
        assert policy.select(aset, np.random.default_rng(0)) == 0

    def test_single_action(self):
        policy = LinearPolicy(contract_config(2))
        aset = ActionSet(np.array([[0.0, 1.0]]))
        assert policy.select(aset, np.random.default_rng(0)) == 0

    def test_exploitation_dominates_after_many_rounds(self):
        # alternate both directions with conversions only along e1, so the
        # estimate points at e1 and both bonuses shrink equally
        policy = LinearPolicy(contract_config(2, m=10))
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
        policy = LinearPolicy(contract_config(3, m=5))
        for t in range(1, 60):
            raw = rng.standard_normal((4, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            aset = ActionSet(raw)
            idx = policy.select(aset, rng)
            # the optimistic index from a fresh solve against V
            est, A = policy.est, aset.actions
            width = est.confidence_width(0.05)
            norms = np.sqrt(np.einsum("ki,ki->k", A, np.linalg.solve(est.V, A.T).T))
            scores = A @ np.linalg.solve(est.V, est.B) + width * norms
            assert scores[idx] >= scores.max() - 1e-12 * max(1.0, np.abs(scores).max())
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
        policy = LinearPolicy(contract_config(2))
        empty = ActionSet._from_validated(np.empty((0, 2)))
        with pytest.raises(ValueError, match="empty"):
            policy.select(empty, np.random.default_rng(0))


class TestOTFLinTS:
    @staticmethod
    def _trained_policy():
        policy = LinearPolicy(contract_config(3, policy="otf_lints", m=6))
        rng = np.random.default_rng(4)
        for t in range(1, 120):
            raw = rng.standard_normal(3)
            a = raw / np.linalg.norm(raw)
            policy.observe([ConversionEvent(t)] if rng.random() < 0.6 else [], a)
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
        aset = ActionSet(np.vstack([np.eye(3), -np.eye(3) * 0.9]))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(25):
            greedy = int(np.argmax(aset.actions @ policy.sample_parameter(twin)))
            assert policy.select(aset, rng) == greedy
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
        policy = LinearPolicy(contract_config(3, policy="otf_lints", lam=2.0))
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
        aset = ActionSet(np.eye(3))
        r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(10):
            assert a.select(aset, r1) == b.select(aset, r2)
        assert r1.bit_generator.state == r2.bit_generator.state


class TestOracleLinUCB:
    def test_fresh_tie_break(self):
        policy = LinearPolicy(contract_config(2, policy="oracle_linucb"))
        assert policy.select(ActionSet(np.eye(2)), np.random.default_rng(0)) == 0

    def test_estimator_matches_windowed_under_zero_delay(self):
        # with no delay every conversion is credited by both, so they see
        # identical data
        cfg_otf = contract_config(3, m=300)
        cfg_oracle = contract_config(3, policy="oracle_linucb")
        otf = LinearPolicy(cfg_otf)
        oracle = LinearPolicy(cfg_oracle)
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
        policy = RandomPolicy(contract_config(1, policy="random"))
        assert policy.select(ActionSet(np.array([[1.0]])), np.random.default_rng(0)) == 0

    def test_uniformity_chi2(self):
        policy = RandomPolicy(contract_config(10, policy="random"))
        aset = ActionSet(np.eye(10))
        rng = np.random.default_rng(11)
        draws = np.array([policy.select(aset, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_deterministic_under_seed(self):
        policy = RandomPolicy(contract_config(4, policy="random"))
        aset = ActionSet(np.eye(4))
        a = [policy.select(aset, np.random.default_rng(12)) for _ in range(1)]
        b = [policy.select(aset, np.random.default_rng(12)) for _ in range(1)]
        assert a == b


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["otf_linucb", "otf_lints",
                                      "oracle_linucb", "random"])
    def test_identical_streams_give_identical_actions(self, kind):
        def play(seed):
            config = contract_config(3, policy=kind, m=15)
            policy = make_policy(config)
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
        config = contract_config(3, policy=kind, m=5)
        policy = make_policy(config)
        assert policy.select(ActionSet(np.eye(3)), np.random.default_rng(0)) in range(3)
