"""Windowed estimator: linear algebra, window semantics, widths."""

import math

import numpy as np
import pytest

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
        assert est._inverse_error() <= 1e-8


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
                assert est._inverse_error() <= 1e-8
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
