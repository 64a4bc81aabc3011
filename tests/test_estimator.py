"""Windowed estimator: linear algebra, window semantics, widths."""

import math
import tracemalloc

import numpy as np
import pytest

from delayed_bandits import estimator
from delayed_bandits.environment import NORM_TOL, ActionSet
from delayed_bandits.estimator import WindowedEstimator, norms

E1 = np.array([1.0, 0.0])


def random_unit_ball_actions(rng, n, d):
    """Vectors with L2 norm at most 1, varied directions and lengths."""
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * rng.uniform(0.05, 1.0, size=(n, 1))


class TestInit:
    def test_initial_inverse(self):
        est = WindowedEstimator(d=2, lam=2.0, m=5)
        assert np.allclose(est.V_inv, np.diag([0.5, 0.5]))
        assert np.allclose(est.V, np.diag([2.0, 2.0]))

    def test_initial_estimate_is_zero(self):
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        assert np.array_equal(est.estimate(), np.zeros(3))

    def test_zero_window_ignores_conversions(self):
        # a zero window credits only delay-0 conversions and has no penalty
        est = WindowedEstimator(d=2, lam=1.0, m=0)
        est.record_action(E1)
        est.record_action(np.array([0.0, 1.0]))
        est.record_conversion(1)
        assert est.window_norm_sum() == 0.0
        assert np.array_equal(est.estimate(), np.zeros(2))
        est.record_conversion(2)
        assert np.array_equal(est.B, [0.0, 1.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WindowedEstimator(0, 1.0, 5)
        with pytest.raises(ValueError):
            WindowedEstimator(2, 0.0, 5)
        with pytest.raises(ValueError):
            WindowedEstimator(2, 1.0, -1)


class TestRecordAction:
    def test_rank_one_update_on_identity(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        assert np.allclose(est.V_inv, np.diag([0.5, 1.0]))

    def test_inverse_matches_direct_inversion(self):
        # oracle: dense inversion of the accumulated design matrix
        rng = np.random.default_rng(3)
        est = WindowedEstimator(d=4, lam=0.7, m=10)
        for a in random_unit_ball_actions(rng, 2000, 4):
            est.record_action(a)
        direct = np.linalg.inv(est.V)
        assert np.abs(est.V_inv - direct).max() < 1e-8

    def test_window_eviction_drops_old_rounds(self):
        # the ring keeps rounds 2..4; the penalty covers rounds 3 and 4
        est = WindowedEstimator(d=2, lam=1.0, m=2)
        for _ in range(4):
            est.record_action(E1)
        assert est.window_norm_sum() == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        est.record_conversion(1)
        assert np.array_equal(est.B, [0.0, 0.0])
        est.record_conversion(2)
        assert np.array_equal(est.B, E1)

    def test_evicted_entries_leave_the_width(self):
        est = WindowedEstimator(d=2, lam=1.0, m=2)
        for _ in range(5):
            est.record_action(E1)
        # two penalty rounds, each with norm 1 / sqrt(6) under V = diag(6, 1)
        assert est.window_norm_sum() == pytest.approx(2 / math.sqrt(6), abs=1e-12)

    def test_dimension_mismatch(self):
        est = WindowedEstimator(d=3, lam=1.0, m=2)
        with pytest.raises(ValueError):
            est.record_action(np.ones(2))

    def test_rejects_long_action(self):
        est = WindowedEstimator(d=2, lam=1.0, m=2)
        with pytest.raises(ValueError):
            est.record_action(np.array([1.0, 1.0]))

    def test_unit_ball_tolerance_is_action_sets(self):
        # record_action accepts exactly the norms ActionSet accepts
        for slack, accepted in ((0.5, True), (2.0, False)):
            a = np.array([1.0 + slack * NORM_TOL, 0.0])
            est = WindowedEstimator(d=2, lam=1.0, m=2)
            if accepted:
                ActionSet(a[None])
                est.record_action(a)
                continue
            with pytest.raises(ValueError, match="norm exceeds 1"):
                ActionSet(a[None])
            with pytest.raises(ValueError, match="norm exceeds 1"):
                est.record_action(a)

    def test_rejects_nan_action(self):
        est = WindowedEstimator(d=2, lam=1.0, m=2)
        with pytest.raises(ValueError, match="not finite"):
            est.record_action(np.array([np.nan, 0.0]))
        assert np.array_equal(est.V, np.eye(2))

    def test_non_finite_inverse_is_re_inverted(self):
        # at lambda = 1e-300 the rank-one update overflows to -inf, and the
        # fidelity residual is NaN; the test must still send it to a
        # re-inversion
        est = WindowedEstimator(d=2, lam=1e-300, m=2)
        with np.errstate(over="ignore", invalid="ignore"):
            est.record_action(E1)
        assert np.all(np.isfinite(est.V_inv))
        assert est._inverse_error(est.V, est.V_inv) <= 1e-8


def state_bytes(est):
    """Every part of an estimator's state that recording actions changes, as
    bytes; the ring's rows only as far as they are filled."""
    return (est.V.tobytes(), est.V_inv.tobytes(), np.float64(est.potential).tobytes(),
            est.t, est._size, est._actions[:est._size].tobytes(),
            est._converted.tobytes())


def fold_both_ways(A, d, lam, m, cuts, t=1):
    """Fold ``A`` from round ``t`` on by one ``record_action`` per row and by
    ``record_actions`` on the blocks between ``cuts``; return both
    estimators and, for each, the (V, V_inv) bytes before every row and
    after the last."""
    single, block = WindowedEstimator(d, lam, m), WindowedEstimator(d, lam, m)
    for est in (single, block):
        # a ring filled from round t on leaves rows before its _size unset
        est.t = t
        est._actions.fill(0.0)
    before = []
    for a in A:
        before.append((single.V.tobytes(), single.V_inv.tobytes()))
        single.record_action(a)
    before.append((single.V.tobytes(), single.V_inv.tobytes()))
    Vs, V_invs = np.empty((2, len(A) + 1, d, d))
    for lo, hi in zip(cuts, cuts[1:]):
        block.record_actions(A[lo:hi], (Vs[lo:hi + 1], V_invs[lo:hi + 1]))
    return single, block, before, [(V.tobytes(), V_inv.tobytes()) for V, V_inv in zip(Vs, V_invs)]


class TestRecordActions:
    """The block form leaves the bits of one ``record_action`` per row."""

    @pytest.mark.parametrize("seed", range(12))
    def test_block_equals_single_calls(self, seed):
        # d up to 24 gives several chunk sizes; 1100-2300 rows cross the re-inversion at t = 1000, and one
        # block always spans it; blocks of one and two rows are chunks of
        # their own
        rng = np.random.default_rng(seed)
        d, m, T = int(rng.integers(1, 25)), int(rng.integers(0, 300)), int(rng.integers(1100, 2300))
        lam = float(rng.uniform(0.05, 3.0))
        A = random_unit_ball_actions(rng, T, d)
        cuts = rng.integers(1, T, size=int(rng.integers(1, 30)))
        short = int(rng.integers(1020, T - 3))
        cuts = sorted({0, T, short, short + 1, short + 3,
                       *cuts[(cuts < 990) | (cuts > 1010)].tolist()})
        single, block, before, states = fold_both_ways(A, d, lam, m, cuts)
        assert state_bytes(block) == state_bytes(single)
        assert states == before

    @pytest.mark.parametrize("d, tol", [(3, 0.0), (5, 2e-16), (12, 1e-15), (30, 1.5e-15)])
    def test_failed_fidelity_tests_re_invert_where_single_calls_do(self, monkeypatch, d, tol):
        # at a tiny tolerance the fidelity test fails on many rows (at 0 on
        # every one), so chunks are folded again row by row, again and again;
        # both forms re-invert the same design matrices, in the same order
        monkeypatch.setattr(estimator, "_FIDELITY_TOL", tol)
        inverted = []
        invert = estimator._inverted
        monkeypatch.setattr(estimator, "_inverted",
                            lambda V: inverted.append(V.tobytes()) or invert(V))
        # a failed test costs the block form at most its chunk again, folded
        # row by row: at most two rank-one steps a row
        rank_ones = []
        rank_one = estimator._rank_one
        monkeypatch.setattr(estimator, "_rank_one",
                            lambda V_inv, a: rank_ones.append(1) or rank_one(V_inv, a))
        rng = np.random.default_rng(d)
        A = random_unit_ball_actions(rng, 1300, d)
        cuts = sorted({0, 1300, *rng.integers(1, 1300, size=10).tolist()})
        single, block, before, states = fold_both_ways(A, d, 1.0, 50, cuts)
        by_single, by_block = inverted[:len(inverted) // 2], inverted[len(inverted) // 2:]
        assert 1 < len(by_single) <= 1300
        assert len(by_block) == len(by_single) and by_block == by_single
        assert 1300 <= len(rank_ones) - 1300 <= 2 * 1300
        assert state_bytes(block) == state_bytes(single)
        assert states == before

    @pytest.mark.parametrize("d, t, n", [
        (50, 1, 1100),   # chunks of 13 rows, and of 11 to end a block
        (200, 985, 40),  # STACK_ENTRIES // d**2 is 0: chunks of one row
        (5, 1000, 300),  # a block whose first row is a periodic round
        (5, 990, 300),   # the periodic round cuts a chunk to 11 rows
        (5, 950, 300),   # and to 51 rows, kept whole and then re-inverted
        (24, 1, 1100),   # chunks of 56, 56 and 16 rows a block
    ])
    def test_every_chunk_shape_equals_single_calls(self, monkeypatch, d, t, n):
        # blocks of 128 rows from round t, as coverage folds them; both
        # forms re-invert the same design matrices, in the same order, and
        # where every test passes the block form takes one rank-one step a row
        inverted, rank_ones = [], []
        invert, rank_one = estimator._inverted, estimator._rank_one
        monkeypatch.setattr(estimator, "_inverted",
                            lambda V: inverted.append(V.tobytes()) or invert(V))
        monkeypatch.setattr(estimator, "_rank_one",
                            lambda V_inv, a: rank_ones.append(1) or rank_one(V_inv, a))
        A = random_unit_ball_actions(np.random.default_rng(d + t), n, d)
        single, block, before, states = fold_both_ways(A, d, 1.0, 60, [*range(0, n, 128), n], t)
        assert t + n - 1 >= 1000  # every case passes the periodic re-inversion
        assert inverted[:len(inverted) // 2] == inverted[len(inverted) // 2:]
        assert len(rank_ones) == 2 * n
        assert state_bytes(block) == state_bytes(single)
        assert states == before

    @pytest.mark.parametrize("tol", [estimator._FIDELITY_TOL, 0.0])
    def test_out_ends_with_the_state_after_the_last_row(self, monkeypatch, tol):
        # at d = 24 the 128 rows are three chunks, folded at once or, at a
        # tolerance of 0, each folded again row by row; entry k is the state
        # the estimator keeps, and an entry past it is left alone
        monkeypatch.setattr(estimator, "_FIDELITY_TOL", tol)
        est = WindowedEstimator(d=24, lam=1.0, m=30)
        A = random_unit_ball_actions(np.random.default_rng(4), 128, 24)
        Vs, V_invs = np.full((2, 130, 24, 24), 7.0)
        est.record_actions(A, (Vs[:129], V_invs[:129]))
        assert Vs[128].tobytes() == est.V.tobytes()
        assert V_invs[128].tobytes() == est.V_inv.tobytes()
        assert (Vs[129] == 7.0).all() and (V_invs[129] == 7.0).all()

    def test_a_coverage_block_holds_little_beyond_out(self):
        # the chain runs in out itself: one 128-row call at d = 24 allocates
        # less than two chunk stacks of STACK_ENTRIES floats
        est = WindowedEstimator(d=24, lam=1.0, m=30)
        A = random_unit_ball_actions(np.random.default_rng(5), 256, 24)
        out = np.empty((2, 129, 24, 24))
        est.record_actions(A[:128], (out[0], out[1]))  # warm-up
        tracemalloc.start()
        try:
            est.record_actions(A[128:], (out[0], out[1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * estimator.STACK_ENTRIES * 8

    @pytest.mark.parametrize("row", [0, 50, 99])
    @pytest.mark.parametrize("bad", [1.0 + 2 * NORM_TOL, np.nan, np.inf])
    def test_one_bad_row_raises_and_changes_nothing(self, row, bad):
        # at d = 30 the 100 rows are folded in three chunks; a bad row in
        # the last one must stop the first
        rng = np.random.default_rng(9)
        est = WindowedEstimator(d=30, lam=1.0, m=3)
        est.record_actions(random_unit_ball_actions(rng, 5, 30), np.empty((2, 6, 30, 30)))
        A = random_unit_ball_actions(rng, 100, 30)
        assert estimator.STACK_ENTRIES // 30**2 < 50
        A[row] = 0.0
        A[row, 7] = bad
        Vs, V_invs = np.zeros((2, 101, 30, 30))
        state = state_bytes(est)
        with pytest.raises(ValueError, match="norm exceeds 1"):
            est.record_actions(A, (Vs, V_invs))
        assert state_bytes(est) == state
        assert not Vs.any() and not V_invs.any()

    @pytest.mark.parametrize("shape", [(2, 100, 30, 30), (2, 102, 30, 30), (2, 101, 29, 29)])
    def test_out_of_the_wrong_shape_raises_and_changes_nothing(self, shape):
        # the chain runs in out: a stack one entry short would end it after
        # the estimator had taken some chunks but not their V and V_inv
        rng = np.random.default_rng(10)
        est = WindowedEstimator(d=30, lam=1.0, m=3)
        A = random_unit_ball_actions(rng, 100, 30)
        Vs, V_invs = np.zeros(shape)
        state = state_bytes(est)
        with pytest.raises(ValueError, match="out shapes"):
            est.record_actions(A, (Vs, V_invs))
        assert state_bytes(est) == state
        assert not Vs.any() and not V_invs.any()

    def test_dimension_mismatch(self):
        est = WindowedEstimator(d=3, lam=1.0, m=2)
        for A in (np.ones((4, 2)) / 2, np.ones(3) / 2):
            with pytest.raises(ValueError, match="does not match"):
                est.record_actions(A, np.empty((2, len(A) + 1, 3, 3)))


class TestRecordConversion:
    def test_conversion_adds_action_to_target(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        est.record_conversion(1)
        assert np.allclose(est.B, E1)

    def test_late_conversion_is_dropped(self):
        est = WindowedEstimator(d=2, lam=1.0, m=2)
        est.record_action(E1)
        for _ in range(3):
            est.record_action(np.array([0.0, 1.0]))
        est.record_conversion(1)
        assert np.array_equal(est.B, np.zeros(2))

    def test_duplicate_conversion_is_noop(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        est.record_conversion(1)
        est.record_conversion(1)
        assert np.allclose(est.B, E1)

    def test_unknown_round_is_noop(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        est.record_conversion(99)
        assert np.array_equal(est.B, np.zeros(2))


class TestEstimate:
    def test_single_converted_action(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        est.record_conversion(1)
        assert np.allclose(est.estimate(), [0.5, 0.0])

    def test_matches_batch_ridge_with_immediate_conversions(self):
        # oracle: solve (lam I + sum a a^T) theta = sum x a directly
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            T = int(rng.integers(5, 200))
            lam = float(rng.uniform(0.3, 3.0))
            actions = random_unit_ball_actions(rng, T, d)
            xs = rng.integers(0, 2, size=T)
            est = WindowedEstimator(d=d, lam=lam, m=T)
            for t, (a, x) in enumerate(zip(actions, xs), start=1):
                est.record_action(a)
                if x:
                    est.record_conversion(t)
            gram = lam * np.eye(d) + actions.T @ actions
            target = actions.T @ xs.astype(float)
            oracle = np.linalg.solve(gram, target)
            assert np.abs(est.estimate() - oracle).max() < 1e-10

    def test_no_conversions_stays_zero(self):
        rng = np.random.default_rng(5)
        est = WindowedEstimator(d=3, lam=1.0, m=10)
        for a in random_unit_ball_actions(rng, 100, 3):
            est.record_action(a)
        assert np.array_equal(est.estimate(), np.zeros(3))


class TestExplorationRadius:
    def test_no_data_full_confidence_gives_sqrt_lambda(self):
        for lam in (0.5, 1.0, 4.0):
            est = WindowedEstimator(d=3, lam=lam, m=5)
            assert est.exploration_radius(1.0) == pytest.approx(math.sqrt(lam))

    def test_golden_value_at_horizon(self):
        # independent high-precision evaluation of the closed form
        est = WindowedEstimator(d=5, lam=1.0, m=100)
        est.t = 3001  # 3000 recorded actions
        expected = 1.0 + math.sqrt(2 * math.log(20.0) + 5 * math.log(3005.0 / 5.0))
        assert est.exploration_radius(0.05) == pytest.approx(expected, abs=1e-12)
        assert est.exploration_radius(0.05) == pytest.approx(7.16, abs=0.01)

    def test_monotone_in_time_and_confidence(self):
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        values = []
        for _ in range(30):
            values.append(est.exploration_radius(0.05))
            est.record_action(np.array([0.5, 0.1, 0.2]))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert est.exploration_radius(0.01) >= est.exploration_radius(0.05)

    def test_delta_out_of_range(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                est.exploration_radius(delta)


class TestConfidenceWidth:
    def test_empty_window_is_twice_the_radius(self):
        est = WindowedEstimator(d=4, lam=2.0, m=5)
        f = est.exploration_radius(0.1)
        assert est.confidence_width(0.1) == pytest.approx(2 * f)

    def test_single_entry_exact_term(self):
        est = WindowedEstimator(d=2, lam=1.0, m=5)
        est.record_action(E1)
        f = est.exploration_radius(0.05)
        expected = 2 * f + 1 / math.sqrt(2)
        assert est.confidence_width(0.05) == pytest.approx(expected, abs=1e-12)


class TestNorms:
    """Norms in the inverse-design metric, from ``norms``."""

    def test_fresh_state_is_l2(self):
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        v = np.array([0.3, -0.2, 0.1])
        assert norms(v[None, :], est.V_inv)[0] == pytest.approx(np.linalg.norm(v))

    def test_zero_vector(self):
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        assert norms(np.zeros((1, 3)), est.V_inv)[0] == 0.0

    def test_non_increasing_as_data_accumulates(self):
        rng = np.random.default_rng(23)
        probe = np.array([0.5, 0.5, 0.1])
        probe /= np.linalg.norm(probe)
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        last = norms(probe[None, :], est.V_inv)[0]
        for a in random_unit_ball_actions(rng, 400, 3):
            est.record_action(a)
            current = norms(probe[None, :], est.V_inv)[0]
            assert current <= last + 1e-12
            last = current

    def test_dimension_mismatch(self):
        est = WindowedEstimator(d=3, lam=1.0, m=5)
        with pytest.raises(ValueError):
            norms(np.ones((1, 4)), est.V_inv)


class TestNumericalInvariants:
    def test_design_matrix_stays_spd(self):
        rng = np.random.default_rng(31)
        est = WindowedEstimator(d=4, lam=0.5, m=10)
        for a in random_unit_ball_actions(rng, 1500, 4):
            est.record_action(a)
        eigs = np.linalg.eigvalsh(est.V)
        assert eigs.min() >= est.lam - 1e-9
        assert np.abs(est.V_inv - est.V_inv.T).max() < 1e-10

    def test_inverse_fidelity_along_stream(self):
        rng = np.random.default_rng(37)
        est = WindowedEstimator(d=5, lam=1.0, m=20)
        eye = np.eye(5)
        worst = 0.0
        for a in random_unit_ball_actions(rng, 3000, 5):
            est.record_action(a)
            worst = max(worst, np.abs(est.V @ est.V_inv - eye).max())
        assert worst <= 1e-8

    def test_long_stream_stays_symmetric_positive_definite(self):
        # 10^5 unit actions with a burst of 5000 collinear ones; every 10^4
        # updates, both matrices are exactly symmetric and factor, the
        # inverse passes the fidelity test and stream norms are finite
        rng = np.random.default_rng(53)
        actions = rng.standard_normal((100_000, 5))
        actions[40_000:45_000] = actions[40_000]
        actions /= np.linalg.norm(actions, axis=1, keepdims=True)
        est = WindowedEstimator(d=5, lam=1.0, m=100)
        for t, a in enumerate(actions, start=1):
            est.record_action(a)
            if t % 10_000 == 0:
                assert np.array_equal(est.V, est.V.T)
                assert np.array_equal(est.V_inv, est.V_inv.T)
                np.linalg.cholesky(est.V)
                np.linalg.cholesky(est.V_inv)
                assert est._inverse_error(est.V, est.V_inv) <= 1e-8
                assert np.all(np.isfinite(norms(actions[t - 10_000:t], est.V_inv)))

    def test_elliptical_potential_bound(self):
        # deterministic inequality for lam = 1 and unit-ball actions
        rng = np.random.default_rng(41)
        for trial in range(5):
            d = int(rng.integers(2, 6))
            T = int(rng.integers(50, 800))
            est = WindowedEstimator(d=d, lam=1.0, m=0)
            for a in random_unit_ball_actions(rng, T, d):
                est.record_action(a)
            bound = 2 * d * math.log((d + T) / d)
            assert est.potential <= bound + 1e-9

    @pytest.mark.parametrize("d", [1, 5, 50])
    def test_rank_one_terms_equal_np_outer_bytes(self, d):
        # reference: the updates written with np.outer; 2100 actions cross
        # the re-inversion after 1000 and 2000 updates
        rng = np.random.default_rng(43 + d)
        est = WindowedEstimator(d=d, lam=1.0, m=7)
        V, V_inv = np.eye(d), np.eye(d)
        for t, a in enumerate(random_unit_ball_actions(rng, 2100, d), start=1):
            est.record_action(a)
            V += np.outer(a, a)
            u = V_inv @ a
            V_inv -= np.outer(u, u) / (1.0 + float(a @ u))
            if t % 1000 == 0 or np.abs(V @ V_inv - np.eye(d)).max() > 1e-8:
                V_inv = np.linalg.inv(V)
                V_inv = 0.5 * (V_inv + V_inv.T)
        assert np.array_equal(est.V, V)
        assert np.array_equal(est.V_inv, V_inv)
