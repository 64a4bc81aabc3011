"""Environment protocol: action sets, censored revelation, regret accounting."""

import math

import numpy as np
import pytest

from delayed_bandits.delays import EmpiricalDelay, FixedDelay, GeometricDelay
from delayed_bandits.environment import (
    OUTCOME_BLOCK_ROUNDS,
    ActionSet,
    DelayedBanditEnv,
    action_block_rounds,
    generate_action_set,
)


def make_env(theta, delay, seed):
    """An environment whose reward and delay generators are the two children
    of ``seed``; ``replay_rngs(seed)`` gives fresh copies of both."""
    return DelayedBanditEnv(np.asarray(theta, dtype=float), delay, *replay_rngs(seed))


def replay_rngs(seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def reference_block(rng, d, K, n):
    """Plain reference of generate_action_set: each row's d bits in turn
    from the byte stream, read as one big-endian integer's binary digits,
    most significant bit first; the rows still all-zero are redrawn
    together, in row order, from the next bytes."""
    def bits(count):
        raw = rng.bytes(-(-count // 8))
        stream = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
        return [stream[j * d:(j + 1) * d] for j in range(count // d)]

    rows = bits(n * K * d)
    zero = [i for i, row in enumerate(rows) if "1" not in row]
    while zero:
        for i, row in zip(zero, bits(len(zero) * d)):
            rows[i] = row
        zero = [i for i in zero if "1" not in rows[i]]
    digits = np.frombuffer("".join(rows).encode(), np.uint8) - ord("0")
    mat = digits.reshape(n * K, d).astype(float)
    return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).reshape(n, K, d)


class TestActionSet:
    def test_rejects_long_vectors(self):
        with pytest.raises(ValueError, match="norm"):
            ActionSet(np.array([[1.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="norm"):
            ActionSet(np.array([[np.nan, 0.0]]))

    def test_rejects_empty_and_flat(self):
        with pytest.raises(ValueError):
            ActionSet(np.empty((0, 3)))
        with pytest.raises(ValueError):
            ActionSet(np.ones(3))

    def test_rows(self):
        aset = ActionSet(np.eye(3))
        assert aset.actions.shape == (3, 3)
        assert np.array_equal(aset.actions[1], [0, 1, 0])


class TestGenerateActionSet:
    def test_one_dimension_has_single_choice(self):
        block = generate_action_set(np.random.default_rng(0), d=1, K=3, n=20)
        assert block.shape == (20, 3, 1)
        assert np.all(block == 1.0)

    def test_unit_norms(self):
        block = generate_action_set(np.random.default_rng(1), d=5, K=50, n=4)
        norms = np.linalg.norm(block, axis=2)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_rewards_match_enumerated_binary_patterns(self):
        # oracle: every normalized nonzero binary vector in d=5 has inner
        # product sqrt(k/5) with the uniform unit parameter, k = ones count
        theta = np.full(5, 1.0 / math.sqrt(5))
        expected = {math.sqrt(k / 5) for k in range(1, 6)}
        block = generate_action_set(np.random.default_rng(2), d=5, K=10, n=40)
        for actions in block:
            for value in actions @ theta:
                assert any(abs(value - e) < 1e-12 for e in expected)
                assert 0.0 < value <= 1.0 + 1e-12

    def test_deterministic_given_seed(self):
        a = generate_action_set(np.random.default_rng(9), 4, 6, 3)
        b = generate_action_set(np.random.default_rng(9), 4, 6, 3)
        assert np.array_equal(a, b)

    def test_row_norms_equal_linalg_norm_bytes(self):
        # reference: the same bits, read in a plain loop and normalized by
        # np.linalg.norm; both leave their generator in the same state, so
        # they consume the same bytes
        for d in (1, 5, 50):
            for K in (1, 10, 100):
                n = action_block_rounds(d, K)
                for seed in range(40):
                    gen = np.random.default_rng(seed)
                    got = generate_action_set(gen, d, K, n)
                    rng = np.random.default_rng(seed)
                    want = reference_block(rng, d, K, n)
                    assert np.array_equal(got, want), (d, K, seed)
                    assert gen.bit_generator.state == rng.bit_generator.state, (d, K, seed)

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        for d, K, n in [(0, 3, 1), (3, 0, 1), (3, 3, 0)]:
            with pytest.raises(ValueError):
                generate_action_set(rng, d, K, n)

    def test_block_rounds_fill_the_entry_cap(self):
        assert action_block_rounds(5, 10) == 327
        assert action_block_rounds(50, 100) == 3
        assert action_block_rounds(200, 100) == 1


class TestStep:
    def test_rejects_a_matrix_theta(self):
        with pytest.raises(ValueError, match="theta must be a vector"):
            make_env(np.eye(2), FixedDelay(0), 0)

    def test_nan_mean_is_out_of_range(self):
        env = make_env([np.nan, 0.0], FixedDelay(0), 0)
        with pytest.raises(ValueError, match="mean reward"):
            env.step(0, ActionSet(np.eye(2)))

    def test_zero_delay_reveals_same_round(self):
        env = make_env([1.0], FixedDelay(0), 0)
        aset = ActionSet(np.array([[1.0]]))
        for t in range(1, 30):
            events = env.step(0, aset)
            assert [ev.round_index for ev in events] == [t]

    def test_orthogonal_parameter_never_converts(self):
        env = make_env([0.0, 1.0], FixedDelay(0), 1)
        aset = ActionSet(np.array([[1.0, 0.0]]))
        assert all(env.step(0, aset) == [] for _ in range(300))

    def test_fixed_delay_reveals_exactly_three_rounds_later(self):
        # oracle: replay the reward generator (one uniform per round, drawn
        # in blocks that keep its order) to recover each round's reward;
        # 2500 rounds cross two block boundaries
        aset = ActionSet(np.array([[1.0]]))
        env = make_env([0.7], FixedDelay(3), 42)
        replay, _ = replay_rngs(42)
        rewards = {}
        for t in range(1, 2500):
            events = env.step(0, aset)
            rewards[t] = 1 if replay.random() < 0.7 else 0
            expected = [t - 3] if t - 3 >= 1 and rewards[t - 3] == 1 else []
            assert [ev.round_index for ev in events] == expected

    def test_delays_come_in_blocks_from_their_own_stream(self):
        # every round converts; round t reveals at t + D_t, where D_t is the
        # t-th delay of the delay generator drawn OUTCOME_BLOCK_ROUNDS at a time
        delay = GeometricDelay(4.0)
        env = make_env([1.0], delay, 8)
        _, replay = replay_rngs(8)
        delays = np.concatenate([delay.sample_n(replay, OUTCOME_BLOCK_ROUNDS)
                                 for _ in range(3)])
        aset = ActionSet(np.array([[1.0]]))
        expected: dict = {}
        for t, d in enumerate(delays[:2500], start=1):
            expected.setdefault(t + int(d), []).append(t)
            assert [ev.round_index for ev in env.step(0, aset)] == expected.pop(t, [])

    def test_event_conservation_with_bounded_delays(self):
        # every positive from the first N rounds must surface within N + B
        theta = np.array([0.6])
        aset = ActionSet(np.array([[1.0]]))
        delay = EmpiricalDelay((0, 1, 2, 3))
        N, B = 400, 3
        env = make_env(theta, delay, 5)
        replay, _ = replay_rngs(5)
        positives = 0
        seen = []
        for t in range(1, N + B + 1):
            seen.extend(ev.round_index for ev in env.step(0, aset))
            x = replay.random() < 0.6
            if t <= N and x:
                positives += 1
        early = [s for s in seen if s <= N]
        assert len(early) == positives
        assert len(set(seen)) == len(seen)

    def test_mean_out_of_range_raises(self):
        env = make_env([2.0], FixedDelay(0), 0)
        aset = ActionSet(np.array([[1.0]]))
        with pytest.raises(ValueError, match="mean reward out of range"):
            env.step(0, aset)

    def test_negative_mean_raises(self):
        env = make_env([-0.5], FixedDelay(0), 0)
        aset = ActionSet(np.array([[1.0]]))
        with pytest.raises(ValueError, match="mean reward out of range"):
            env.step(0, aset)


class TestInstantaneousRegret:
    def test_optimal_choice_has_zero_regret(self):
        env = make_env([0.9, 0.1], FixedDelay(0), 0)
        aset = ActionSet(np.eye(2))
        assert env.instantaneous_regret(aset.actions[0], aset) == 0.0

    def test_gap_arithmetic(self):
        env = make_env([0.9, 0.1], FixedDelay(0), 0)
        aset = ActionSet(np.eye(2))
        assert env.instantaneous_regret(aset.actions[1], aset) == pytest.approx(0.8)

    def test_always_non_negative(self):
        env = make_env(np.full(4, 0.5), FixedDelay(0), 12)
        for actions in generate_action_set(np.random.default_rng(12), 4, 6, 50):
            aset = ActionSet(actions)
            for a in aset.actions:
                assert env.instantaneous_regret(a, aset) >= 0.0

