"""Environment protocol: action sets, censored revelation, regret accounting."""

import math

import numpy as np
import pytest

from delayed_bandits.delays import EmpiricalDelay, FixedDelay, GeometricDelay
from delayed_bandits.environment import (
    ActionSet,
    DelayedBanditEnv,
    generate_action_set,
    make_hard_instance_pair,
)


class TestActionSet:
    def test_rejects_long_vectors(self):
        with pytest.raises(ValueError, match="norm"):
            ActionSet(np.array([[1.0, 1.0]]))

    def test_rejects_empty_and_flat(self):
        with pytest.raises(ValueError):
            ActionSet(np.empty((0, 3)))
        with pytest.raises(ValueError):
            ActionSet(np.ones(3))

    def test_len_and_rows(self):
        aset = ActionSet(np.eye(3))
        assert len(aset) == 3 and aset.actions.shape == (3, 3)
        assert np.array_equal(aset.actions[1], [0, 1, 0])


class TestGenerateActionSet:
    def test_one_dimension_has_single_choice(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            aset = generate_action_set(rng, d=1, K=3)
            assert np.allclose(aset.actions, 1.0)

    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        aset = generate_action_set(rng, d=5, K=50)
        norms = np.linalg.norm(aset.actions, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_rewards_match_enumerated_binary_patterns(self):
        # oracle: every normalized nonzero binary vector in d=5 has inner
        # product sqrt(k/5) with the uniform unit parameter, k = ones count
        theta = np.full(5, 1.0 / math.sqrt(5))
        expected = {math.sqrt(k / 5) for k in range(1, 6)}
        rng = np.random.default_rng(2)
        for _ in range(40):
            aset = generate_action_set(rng, d=5, K=10)
            for value in aset.actions @ theta:
                assert any(abs(value - e) < 1e-12 for e in expected)
                assert 0.0 < value <= 1.0 + 1e-12

    def test_deterministic_given_seed(self):
        a = generate_action_set(np.random.default_rng(9), 4, 6)
        b = generate_action_set(np.random.default_rng(9), 4, 6)
        assert np.array_equal(a.actions, b.actions)

    def test_row_norms_equal_linalg_norm_bytes(self):
        # reference: the same draws normalized by np.linalg.norm
        for d in (1, 5, 50):
            for K in (1, 10, 100):
                for seed in range(40):
                    got = generate_action_set(np.random.default_rng(seed), d, K).actions
                    rng = np.random.default_rng(seed)
                    mat = rng.integers(0, 2, size=(K, d)).astype(float)
                    zero_rows = ~mat.any(axis=1)
                    while zero_rows.any():
                        mat[zero_rows] = rng.integers(0, 2, size=(int(zero_rows.sum()), d))
                        zero_rows = ~mat.any(axis=1)
                    want = mat / np.linalg.norm(mat, axis=1, keepdims=True)
                    assert np.array_equal(got, want), (d, K, seed)

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_action_set(rng, 0, 3)
        with pytest.raises(ValueError):
            generate_action_set(rng, 3, 0)


class TestStep:
    def test_zero_delay_reveals_same_round(self):
        env = DelayedBanditEnv(np.array([1.0]), FixedDelay(0), np.random.default_rng(0))
        aset = ActionSet(np.array([[1.0]]))
        for t in range(1, 30):
            events = env.step(0, aset)
            assert [ev.round_index for ev in events] == [t]

    def test_orthogonal_parameter_never_converts(self):
        env = DelayedBanditEnv(np.array([0.0, 1.0]), FixedDelay(0),
                               np.random.default_rng(1))
        aset = ActionSet(np.array([[1.0, 0.0]]))
        assert all(env.step(0, aset) == [] for _ in range(300))

    def test_fixed_delay_reveals_exactly_three_rounds_later(self):
        # oracle: replay the generator's draw order (one uniform per round,
        # fixed delays consume none) to recover each round's reward
        theta = np.array([0.7])
        aset = ActionSet(np.array([[1.0]]))
        env = DelayedBanditEnv(theta, FixedDelay(3), np.random.default_rng(42))
        replay = np.random.default_rng(42)
        rewards = {}
        for t in range(1, 200):
            events = env.step(0, aset)
            rewards[t] = 1 if replay.random() < 0.7 else 0
            expected = [t - 3] if t - 3 >= 1 and rewards[t - 3] == 1 else []
            assert [ev.round_index for ev in events] == expected

    def test_event_conservation_with_bounded_delays(self):
        # every positive from the first N rounds must surface within N + B
        theta = np.array([0.6])
        aset = ActionSet(np.array([[1.0]]))
        delay = EmpiricalDelay((0, 1, 2, 3))
        N, B = 400, 3
        env = DelayedBanditEnv(theta, delay, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        positives = 0
        seen = []
        for t in range(1, N + B + 1):
            seen.extend(ev.round_index for ev in env.step(0, aset))
            x = replay.random() < 0.6
            delay.sample(replay)
            if t <= N and x:
                positives += 1
        early = [s for s in seen if s <= N]
        assert len(early) == positives
        assert len(set(seen)) == len(seen)

    def test_mean_out_of_range_raises(self):
        env = DelayedBanditEnv(np.array([2.0]), FixedDelay(0), np.random.default_rng(0))
        aset = ActionSet(np.array([[1.0]]))
        with pytest.raises(ValueError, match="mean reward out of range"):
            env.step(0, aset)

    def test_negative_mean_raises(self):
        env = DelayedBanditEnv(np.array([-0.5]), FixedDelay(0), np.random.default_rng(0))
        aset = ActionSet(np.array([[1.0]]))
        with pytest.raises(ValueError, match="mean reward out of range"):
            env.step(0, aset)


class TestInstantaneousRegret:
    def test_optimal_choice_has_zero_regret(self):
        env = DelayedBanditEnv(np.array([0.9, 0.1]), FixedDelay(0),
                               np.random.default_rng(0))
        aset = ActionSet(np.eye(2))
        assert env.instantaneous_regret(aset.actions[0], aset) == 0.0

    def test_gap_arithmetic(self):
        env = DelayedBanditEnv(np.array([0.9, 0.1]), FixedDelay(0),
                               np.random.default_rng(0))
        aset = ActionSet(np.eye(2))
        assert env.instantaneous_regret(aset.actions[1], aset) == pytest.approx(0.8)

    def test_always_non_negative(self):
        rng = np.random.default_rng(12)
        theta = np.full(4, 0.5)
        env = DelayedBanditEnv(theta, FixedDelay(0), rng)
        for _ in range(50):
            aset = generate_action_set(rng, 4, 6)
            for a in aset.actions:
                assert env.instantaneous_regret(a, aset) >= 0.0


class TestHardInstancePair:
    def test_two_armed_construction(self):
        theta, phi = make_hard_instance_pair(2, 0.1, 2)
        assert np.allclose(theta, [0.6, 0.5])
        assert np.allclose(phi, [0.6, 0.7])

    def test_best_arms_differ(self):
        theta, phi = make_hard_instance_pair(6, 0.05, 4)
        assert int(np.argmax(theta)) == 0
        assert int(np.argmax(phi)) == 3

    def test_boundary_gap_excluded(self):
        with pytest.raises(ValueError):
            make_hard_instance_pair(4, 0.25, 2)

    def test_arm_range(self):
        with pytest.raises(ValueError):
            make_hard_instance_pair(4, 0.1, 1)
        with pytest.raises(ValueError):
            make_hard_instance_pair(4, 0.1, 5)

    def test_means_valid_for_basis_actions(self):
        theta, phi = make_hard_instance_pair(10, 0.2, 7)
        env = DelayedBanditEnv(theta, GeometricDelay(5), np.random.default_rng(0))
        aset = ActionSet(np.eye(10))
        for _ in range(20):
            env.step(int(np.random.default_rng(1).integers(10)), aset)
