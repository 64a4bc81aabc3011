"""Harness: config handling, episodes, batches, coverage, CSV round-trips."""

import concurrent.futures
import itertools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayed_bandits import bounds, estimator, harness
from delayed_bandits.bounds import elliptical_potential_bound, regret_upper_bound
from delayed_bandits.delays import FixedDelay, GeometricDelay, LognormalDelay
from delayed_bandits import environment
from delayed_bandits.environment import (ActionSet, DelayedBanditEnv, action_sets,
                                         round_outcomes)
from delayed_bandits.estimator import WindowedEstimator
from delayed_bandits.policies import Policy
from delayed_bandits.harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_config,
    concentration_coverage,
    run_batch,
    run_episode,
    summarize,
)
from delayed_bandits.io import (
    emit_csv,
    read_config_file,
    read_traces_csv,
    write_metadata,
    write_summary_csv,
    write_traces_csv,
)

TINY = ExperimentConfig(d=3, K=4, T=40, delay="geometric", delay_mean=5.0,
                        m=10, n_runs=3, base_seed=123)


class TestConfig:
    def test_defaults_validate(self):
        build_config({})

    def test_unknown_key(self):
        for key, value in [("bogus", "1"), ("width_mode", "cached"), ("hard_arm", "3")]:
            with pytest.raises(ConfigError, match="unknown config key"):
                build_config({key: value})

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            build_config({"T": "many"})

    def test_lambda_maps_to_lam(self):
        config = build_config({"lambda": "2.5"})
        assert config.lam == 2.5

    @pytest.mark.parametrize("key", ["lam", "output_path"])
    def test_field_names_of_renamed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({key: "2"})

    def test_values_parse_to_their_field_type(self):
        config = build_config({"delay_value": "3", "delay_mean": "7", "policy": "random",
                               "out": "elsewhere"})
        assert type(config.delay_value) is int and config.delay_value == 3
        assert type(config.delay_mean) is float and config.delay_mean == 7.0
        assert type(config.policy) is str and config.policy == "random"
        assert config.output_path == "elsewhere"

    def test_auto_window_doubles_mean(self):
        config = build_config({"m": "auto", "delay": "geometric",
                               "delay_mean": "100"})
        assert config.resolved_window == 200

    def test_fixed_basis_needs_square(self):
        with pytest.raises(ConfigError, match="K == d"):
            build_config({"action_mode": "fixed_basis", "d": "3", "K": "5"})

    def test_hard_theta_needs_fixed_basis(self):
        with pytest.raises(ConfigError, match="fixed_basis"):
            build_config({"theta": "k_armed_hard"})

    def test_explicit_theta_checks_length_and_norm(self):
        with pytest.raises(ConfigError, match="length"):
            build_config({"theta": "explicit", "theta_values": "0.1,0.2", "d": "3"})
        with pytest.raises(ConfigError, match="norm"):
            build_config({"theta": "explicit", "theta_values": "0.9,0.9", "d": "2"})

    def test_explicit_theta_checks_every_action_mean(self):
        # only the action holding the negative entry alone has a negative
        # mean, and few episodes draw it; the config is invalid for all
        theta = np.array([-0.02] + [1.0] * 17)
        theta /= np.linalg.norm(theta)
        with pytest.raises(ConfigError, match="mean rewards out of range"):
            ExperimentConfig(d=18, K=10, T=3000, theta="explicit",
                             theta_values=tuple(theta), delay="fixed",
                             delay_value=5, m=10, policy="random")

    def test_policy_settings_rejected(self):
        # keys that are only checked under another kind than the default
        context = {"theta_values": {"theta": "explicit"},
                   "delay_log_std": {"delay": "lognormal"}}
        for key, value, field, typed, match in [
            ("policy", "nope", "policy", "nope", "unknown policy kind"),
            ("delta", "0.0", "delta", 0.0, "delta must lie"),
            ("delta", "1.5", "delta", 1.5, "delta must lie"),
            ("lambda", "0.0", "lam", 0.0, "lambda must be positive"),
            ("m", "-1", "m", -1, "window m"),
            ("width_scale", "-0.1", "width_scale", -0.1, "width_scale must be >= 0"),
            ("width_scale", "nan", "width_scale", math.nan, "width_scale must be finite"),
            ("lambda", "inf", "lam", math.inf, "lambda must be finite"),
            ("delay_scale", "nan", "delay_scale", math.nan, "delay_scale must be finite"),
            ("delay_scale", "inf", "delay_scale", math.inf, "delay_scale must be finite"),
            ("theta_values", "nan,0,0,0,0", "theta_values", (math.nan, 0.0, 0.0, 0.0, 0.0),
             "L2 norm"),
            ("theta", "nope", "theta", "nope", "unknown theta kind"),
            ("theta", "explicit", "theta", "explicit", "explicit theta requires theta_values"),
            ("action_mode", "nope", "action_mode", "nope", "unknown action mode"),
            ("delay", "nope", "delay", "nope", "unknown delay kind"),
            ("delay_log_std", "0", "delay_log_std", 0.0, "log_std must be positive"),
        ]:
            extra = context.get(key, {})
            with pytest.raises(ConfigError, match=match):
                build_config({**extra, key: value})
            with pytest.raises(ConfigError, match=match):
                replace(ExperimentConfig(), **extra, **{field: typed})

    def test_construction_validates(self):
        with pytest.raises(ConfigError, match="d, K, T and n_runs"):
            ExperimentConfig(d=0)
        with pytest.raises(ConfigError, match="n_jobs"):
            replace(TINY, n_jobs=0)

    def test_overflowing_auto_window_rejected_at_build(self):
        # the lognormal mean exp(7 + 40^2 / 2) overflows a float
        with pytest.raises(ConfigError, match="m = auto: .* lognormal delay overflows"):
            build_config({"delay": "lognormal", "delay_log_std": "40", "m": "auto"})

    @pytest.mark.parametrize("delay", ["geometric", "lognormal", "fixed", "empirical"])
    def test_oversized_window_rejected_at_build(self, delay, tmp_path):
        # an m that does not fit a float, whatever the delay's cdf does with it
        path = tmp_path / "d.txt"
        path.write_text("2\n4\n")
        with pytest.raises(ConfigError, match="window m is too large"):
            build_config({"delay": delay, "delay_path": str(path), "m": "1" + "0" * 400})
        assert build_config({"delay": delay, "delay_path": str(path),
                             "m": str(int(sys.float_info.max))}).tau_m == 1.0

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_empirical_scale_rejected_before_loading(self, tmp_path, scale):
        path = tmp_path / "d.txt"
        path.write_text("2\n4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"delay_scale must be finite, got {scale}"):
                build_config({"delay": "empirical", "delay_path": str(path),
                              "delay_scale": scale})

    @pytest.mark.parametrize("preset", [None, "A", "D"])
    def test_oracle_is_otf_linucb_without_delay(self, preset):
        # applied after the preset, so the preset's delay and window go too
        config = build_config({"policy": "oracle_linucb", "m": "7", "delay_mean": "3",
                               "width_scale": "0.3"}, preset)
        assert (config.policy, config.delay, config.delay_value, config.m) == (
            "otf_linucb", "fixed", 0, 0)
        assert config.tau_m == 1.0 and config.width_scale == 0.3
        with pytest.raises(ConfigError, match="unknown policy kind 'oracle_linucb'"):
            ExperimentConfig(policy="oracle_linucb")

    def test_preset_replaces_only_scenario_keys(self):
        config = build_config({"d": "3", "T": "40", "policy": "random",
                               "n_runs": "7"}, "A")
        assert (config.d, config.T, config.m) == (5, 3000, 100)
        assert (config.policy, config.n_runs) == ("random", 7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="base_seed"):
            build_config({"base_seed": "-4"})

    def test_empirical_needs_path(self):
        with pytest.raises(ConfigError, match="delay_path"):
            build_config({"delay": "empirical"})

    def test_empirical_from_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2\n4\n")
        config = build_config({"delay": "empirical", "delay_path": str(path)})
        assert config.build_delay().mean() == 3.0

    def test_preset_values_and_capture_probabilities(self):
        a = build_config({}, "A")
        b = build_config({}, "B")
        c = build_config({}, "C")
        d = build_config({}, "D")
        assert (a.d, a.K, a.T, a.delay_mean, a.m) == (5, 10, 3000, 100.0, 100)
        assert (b.delay_mean, b.m) == (100.0, 500)
        assert (c.delay_mean, c.m) == (500.0, 100)
        assert (d.T, d.m, d.delay) == (10_000, 2000, "lognormal")
        assert a.tau_m == pytest.approx(0.63, abs=0.01)
        assert b.tau_m == pytest.approx(0.993, abs=0.001)
        assert 1 / c.tau_m == pytest.approx(5.5, abs=0.1)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config({}, "Z")

    @pytest.mark.parametrize("theta", ["uniform_unit", "explicit", "k_armed_hard"])
    @pytest.mark.parametrize("delay", ["geometric", "fixed", "empirical", "lognormal"])
    def test_resolved_items_list_only_the_configured_kinds(self, tmp_path, theta, delay):
        path = tmp_path / "delays.txt"
        path.write_text("2\n4\n")
        theta_keys = {"uniform_unit": [], "explicit": ["theta_values"],
                      "k_armed_hard": ["hard_gap"]}[theta]
        delay_keys = {"geometric": ["delay_mean"], "fixed": ["delay_value"],
                      "empirical": ["delay_path", "delay_scale"],
                      "lognormal": ["delay_log_mean", "delay_log_std"]}[delay]
        config = ExperimentConfig(d=4, K=4, T=10, theta=theta, theta_values=(0.5,) * 4,
                                  action_mode="fixed_basis", delay=delay,
                                  delay_path=str(path))
        assert [k for k, _ in config.resolved_items()] == [
            "d", "K", "T", "theta", *theta_keys, "action_mode", "delay", *delay_keys,
            "policy", "delta", "lambda", "m", "width_scale",
            "n_runs", "base_seed", "n_jobs", "out",
        ]

    def test_resolved_items_cover_policy_settings(self):
        keys = [k for k, _ in TINY.resolved_items()]
        for expected in ("d", "K", "T", "policy", "delta", "lambda", "m",
                         "width_scale", "n_runs", "base_seed"):
            assert expected in keys


class TestHardTheta:
    """``theta = k_armed_hard``: K arms of mean 1/2, the first with an edge
    of ``hard_gap``, under the standard basis."""

    @staticmethod
    def hard(K, gap):
        return ExperimentConfig(d=K, K=K, theta="k_armed_hard", hard_gap=gap,
                                action_mode="fixed_basis")

    def test_two_armed_construction(self):
        assert np.allclose(self.hard(2, 0.1).resolve_theta, [0.6, 0.5])

    def test_first_arm_is_best(self):
        assert int(np.argmax(self.hard(6, 0.05).resolve_theta)) == 0

    def test_boundary_gap_excluded(self):
        for gap in (0.0, 0.25):
            with pytest.raises(ConfigError, match=r"gap must lie in \(0, 1/4\)"):
                self.hard(4, gap)

    def test_needs_two_arms(self):
        with pytest.raises(ConfigError, match="K >= 2"):
            self.hard(1, 0.1)

    def test_checked_only_for_the_hard_theta(self):
        assert ExperimentConfig(hard_gap=0.3).hard_gap == 0.3
        assert ExperimentConfig(d=1, K=1).K == 1

    def test_means_valid_for_basis_actions(self):
        config = self.hard(10, 0.2)
        assert np.linalg.norm(config.resolve_theta) > 1.0
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(3)]
        env = DelayedBanditEnv(config.resolve_theta, GeometricDelay(5), *rngs[:2])
        aset = ActionSet(np.eye(10))
        for _ in range(20):
            env.step(int(rngs[2].integers(10)), aset)


class TestResolveOnce:
    def test_empirical_delay_file_is_parsed_once_per_config(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "delays.txt"
        path.write_text("1\n3\n8\n")
        values = {"delay": "empirical", "delay_path": str(path), "m": "auto",
                  "d": "3", "K": "4", "T": "30", "n_runs": "3", "base_seed": "5"}
        serial = build_config(values)
        parallel = build_config({**values, "n_jobs": "2"})

        def parse_again(*args, **kwargs):
            raise AssertionError("delay file parsed after build_config")

        # forked workers inherit the patch
        monkeypatch.setattr(harness, "load_empirical", parse_again)
        serial_traces, _ = run_batch(serial)
        parallel_traces, _ = run_batch(parallel)
        for a, b in zip(serial_traces, parallel_traces):
            assert np.array_equal(a.cum_regret, b.cum_regret)
        assert 0.0 <= concentration_coverage(serial, 2).coverage <= 1.0
        assert ("m", 8) in serial.resolved_items()

    def test_build_delay_runs_once_per_config(self, monkeypatch):
        calls = []
        build = ExperimentConfig.build_delay
        monkeypatch.setattr(ExperimentConfig, "build_delay",
                            lambda self: calls.append(self) or build(self))
        config = replace(TINY, m=None)
        assert config.tau_m == config.resolved_delay.cdf(config.resolved_window)
        run_batch(config)
        assert len(calls) == 1

    def test_theta_is_shared_and_read_only(self):
        theta = TINY.resolve_theta
        assert theta is TINY.resolve_theta
        with pytest.raises(ValueError):
            theta[0] = 0.0

    def test_replace_resolves_again(self):
        assert TINY.resolved_window == 10
        assert replace(TINY, m=None).resolved_window == 10
        assert replace(TINY, m=3).resolved_window == 3


class TestRunEpisode:
    def test_repeat_runs_are_bit_identical(self):
        a = run_episode(TINY, 1)
        b = run_episode(TINY, 1)
        assert np.array_equal(a.cum_regret, b.cum_regret)
        assert a.elliptical_potential == b.elliptical_potential

    def test_different_runs_differ(self):
        a = run_episode(TINY, 0)
        b = run_episode(TINY, 1)
        assert not np.array_equal(a.cum_regret, b.cum_regret)

    def test_single_action_sets_give_zero_regret(self):
        config = replace(TINY, K=1, d=1)
        trace = run_episode(config, 0)
        assert np.all(trace.cum_regret == 0.0)

    def test_trace_monotone_and_bounded(self):
        for run in range(3):
            trace = run_episode(TINY, run).cum_regret
            assert len(trace) == TINY.T
            assert np.all(np.diff(trace) >= -1e-12)
            assert trace[-1] <= TINY.T * 1.0

    def test_matches_manual_episode_loop(self):
        # independent accounting of the same seeded episode
        config = TINY
        actions, rewards, delays, policy_rng = harness._streams(config.base_seed + 2,
                                                                *harness.STREAMS)
        env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, rewards, delays)
        policy = Policy(config)
        sets = action_sets(harness._action_blocks(config, actions))
        total = 0.0
        for t in range(1, config.T + 1):
            aset = next(sets)
            idx = policy.select(aset.actions, policy_rng)
            policy.observe([ev.round_index for ev in env.step(idx, aset)],
                           aset.actions[idx])
            values = aset.actions @ env.theta
            total += max(values) - values[idx]
        assert total == pytest.approx(run_episode(config, 2).cum_regret[-1],
                                      abs=1e-12)

    def test_heavy_tail_preset_episode_runs(self):
        config = replace(build_config({}, "D"), T=400, n_runs=1)
        trace = run_episode(config, 0)
        assert len(trace.cum_regret) == 400
        assert np.all(np.diff(trace.cum_regret) >= -1e-12)

    def test_hard_instance_episode_runs(self):
        config = ExperimentConfig(d=6, K=6, T=30, theta="k_armed_hard",
                                  hard_gap=0.2, action_mode="fixed_basis", delay="fixed",
                                  delay_value=2, m=5, n_runs=1)
        trace = run_episode(config, 0)
        assert trace.cum_regret[-1] >= 0.0

    def test_random_policy_matches_uniform_play_expectation(self):
        # oracle: uniform play on a fixed two-armed instance with gaps
        # (0, 0.4) loses 0.2 per round in expectation
        config = ExperimentConfig(d=2, K=2, T=200, theta="explicit",
                                  theta_values=(0.6, 0.2),
                                  action_mode="fixed_basis", delay="fixed",
                                  delay_value=0, m=0, policy="random",
                                  n_runs=100, base_seed=5)
        traces, stats = run_batch(config)
        expected = 0.2 * config.T
        per_round_var = 0.5 * (0.4 - 0.2) ** 2 + 0.5 * 0.2**2
        se = np.sqrt(config.T * per_round_var / config.n_runs)
        assert abs(stats.mean[-1] - expected) <= 3 * se

    def test_elliptical_potential_recorded_below_bound(self):
        bound = elliptical_potential_bound(TINY.d, TINY.lam, TINY.T)
        for run in range(3):
            trace = run_episode(TINY, run)
            assert 0.0 < trace.elliptical_potential <= bound


class TestRunBatch:
    def test_single_run_stats_equal_trace(self):
        config = replace(TINY, n_runs=1)
        traces, stats = run_batch(config)
        assert np.array_equal(stats.mean, traces[0].cum_regret)
        assert np.all(stats.std == 0.0)

    def test_constant_traces_have_zero_std(self):
        config = replace(TINY, K=1, d=1, n_runs=4)
        _, stats = run_batch(config)
        assert np.all(stats.mean == 0.0)
        assert np.all(stats.std == 0.0)

    def test_parallel_equals_serial(self):
        serial_traces, serial_stats = run_batch(replace(TINY, n_jobs=1))
        par_traces, par_stats = run_batch(replace(TINY, n_jobs=2))
        for a, b in zip(serial_traces, par_traces):
            assert a.run_id == b.run_id
            assert np.array_equal(a.cum_regret, b.cum_regret)
        assert np.array_equal(serial_stats.mean, par_stats.mean)
        assert np.array_equal(serial_stats.std, par_stats.std)

    @pytest.mark.parametrize("n_runs, workers", [(1, []), (2, [2])])
    def test_workers_capped_at_run_count(self, monkeypatch, n_runs, workers):
        started = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        config = replace(TINY, n_runs=n_runs)
        traces, _ = run_batch(replace(config, n_jobs=4))
        assert started == workers
        for a, b in zip(traces, run_batch(config)[0], strict=True):
            assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_config_reaches_each_worker_once(self, monkeypatch):
        # a task carries its run index only; the config, with its resolved
        # delay, is pickled at most once per worker (not at all when forked)
        pickled = []
        reduce_ex = ExperimentConfig.__reduce_ex__
        monkeypatch.setattr(ExperimentConfig, "__reduce_ex__",
                            lambda self, protocol: pickled.append(self)
                            or reduce_ex(self, protocol))
        config = replace(TINY, n_runs=6)
        traces, _ = run_batch(replace(config, n_jobs=2))
        assert len(pickled) <= 2
        for a, b in zip(traces, run_batch(config)[0], strict=True):
            assert a.run_id == b.run_id
            assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_summary_is_order_independent(self):
        traces, stats = run_batch(TINY)
        shuffled = summarize(traces[::-1])
        assert np.array_equal(stats.mean, shuffled.mean)
        assert stats.final_quantiles == shuffled.final_quantiles

    def test_quantiles_are_ordered(self):
        _, stats = run_batch(replace(TINY, n_runs=8))
        q = stats.final_quantiles
        assert q["q10"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q90"]


class TestCsvRoundTrip:
    def test_row_count_and_header(self, tmp_path):
        config = replace(TINY, T=3, n_runs=1)
        traces, stats = run_batch(config)
        path = tmp_path / "traces.csv"
        write_traces_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run_id,t,cum_regret"
        assert len(lines) == 1 + 3

    def test_lossless_round_trip(self, tmp_path):
        from delayed_bandits.harness import RegretTrace
        rng = np.random.default_rng(0)
        traces = [RegretTrace(run_id=i, cum_regret=np.cumsum(rng.random(17)))
                  for i in range(4)]
        path = tmp_path / "traces.csv"
        write_traces_csv(traces, path)
        loaded = read_traces_csv(path)
        assert [tr.run_id for tr in loaded] == [0, 1, 2, 3]
        for a, b in zip(traces, loaded):
            assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_summary_written(self, tmp_path):
        traces, stats = run_batch(replace(TINY, T=5))
        path = tmp_path / "summary.csv"
        write_summary_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,mean_regret,std_regret"
        assert len(lines) == 1 + 5

    def test_emit_creates_directory(self, tmp_path):
        traces, stats = run_batch(replace(TINY, T=4))
        out = tmp_path / "nested" / "results"
        tp, sp = emit_csv(traces, stats, out)
        assert tp.exists() and sp.exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = blocker / "traces.csv"  # parent is a regular file
        from delayed_bandits.harness import RegretTrace
        with pytest.raises(OSError):
            write_traces_csv([RegretTrace(0, np.zeros(2))], target)
        assert list(tmp_path.iterdir()) == [blocker]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path, monkeypatch):
        # the temporary file is written in full before the rename fails
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("delayed_bandits.io.os.replace", fail)
        from delayed_bandits.harness import RegretTrace
        with pytest.raises(OSError, match="rename failed"):
            write_traces_csv([RegretTrace(0, np.zeros(2))], tmp_path / "traces.csv")
        assert list(tmp_path.iterdir()) == []

    def test_blank_rows_skipped_and_malformed_rows_named(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("run_id,t,cum_regret\n0,1,0.5\n\n0,2,1.0\n\n")
        [trace] = read_traces_csv(path)
        assert trace.cum_regret.tolist() == [0.5, 1.0]
        for row in ("0,3", "0,3,1.0,2", "0,x,1.0"):
            path.write_text(f"run_id,t,cum_regret\n0,1,0.5\n{row}\n")
            with pytest.raises(ValueError, match=f":3: malformed trace row '{row}'"):
                read_traces_csv(path)

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("run_id,t,cum_regret\n0,1,0.5\n0,3,1.0\n")
        with pytest.raises(ValueError, match="non-contiguous"):
            read_traces_csv(path)
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError, match="header"):
            read_traces_csv(path)

    def test_metadata_format(self, tmp_path):
        path = tmp_path / "metadata.txt"
        write_metadata(TINY.resolved_items(), path)
        text = path.read_text()
        assert "policy = otf_linucb" in text
        assert "lambda = 1.0" in text


class TestConfigFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# example\nd = 4\nK = 6\nT = 25\nm = auto\n"
                        "delay = geometric\ndelay_mean = 8\npolicy = otf_lints\n")
        config = build_config(read_config_file(path))
        assert (config.d, config.K, config.T) == (4, 6, 25)
        assert config.resolved_window == 16
        assert config.policy == "otf_lints"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config_file(tmp_path / "absent.cfg")

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        text = "d = 4\nK = 6\nT = 25\ndelay = geometric\ndelay_mean = 8\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert build_config(read_config_file(marked)) == build_config(read_config_file(plain))
        # one after the start is part of its key
        marked.write_bytes(b"d = 4\n\xef\xbb\xbfK = 6\n")
        with pytest.raises(ConfigError, match=r"unknown config key '\\ufeffK'"):
            build_config(read_config_file(marked))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("d 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(path)


class TestConcentrationCoverage:
    def test_smoke_at_half_delta(self):
        config = ExperimentConfig(d=2, K=3, T=50, delay="geometric",
                                  delay_mean=4.0, m=8, delta=0.5, base_seed=3)
        coverage = concentration_coverage(config, 12).coverage
        assert 0.0 <= coverage <= 1.0

    def test_zero_delay_full_window_covers(self):
        # the no-censoring case collapses to plain ridge concentration
        config = ExperimentConfig(d=2, K=3, T=120, delay="fixed", delay_value=0,
                                  m=120, delta=0.05, base_seed=11)
        assert concentration_coverage(config, 40).coverage >= 0.87

    def test_rep_count_validated(self):
        with pytest.raises(ConfigError):
            concentration_coverage(TINY, 0)

    def test_penalty_decided_checks_match_a_full_width_loop(self, tenth_radius):
        # a tenth of the radius leaves checks that only the window penalty
        # passes, so the penalty is computed and decides some of them
        config = replace(TENTH_RADIUS, base_seed=3)
        want, penalty_decided = full_width_coverage(config, 20)
        assert 0.0 < want < 1.0
        assert penalty_decided > 0
        assert concentration_coverage(config, 20).coverage == want

    @pytest.mark.parametrize("seed", range(6))
    def test_tenth_radius_matches_a_full_width_loop_on_every_seed(self, tenth_radius,
                                                                 seed):
        config = replace(TENTH_RADIUS, base_seed=seed)
        want, _ = full_width_coverage(config, 20)
        assert concentration_coverage(config, 20).coverage == want

    def test_a_replication_s_verdict_does_not_depend_on_the_others(self, tenth_radius):
        # replication rep plays the same whatever the count, so one more
        # replication adds zero hits or one
        config = replace(TENTH_RADIUS, base_seed=3)
        hits = [0]
        for n_reps in range(1, 21):
            covered = n_reps * concentration_coverage(config, n_reps).coverage
            hits.append(round(covered))
            assert covered == pytest.approx(hits[-1], abs=1e-9)
        assert {b - a for a, b in zip(hits, hits[1:])} == {0, 1}

    def test_stops_once_every_replication_has_failed(self, monkeypatch):
        # at 1e-12 of the radius every replication fails in round 1, before
        # any action is recorded, so only the first block of rounds is
        # played, out of four
        def tiny(n, d, lam, delta):
            return 1e-12 * bounds.exploration_radius_at(n, d, lam, delta)

        monkeypatch.setattr(estimator, "exploration_radius_at", tiny)
        rows = []
        record = WindowedEstimator.record_actions
        monkeypatch.setattr(WindowedEstimator, "record_actions",
                            lambda est, A, out: rows.extend(A) or record(est, A, out))
        config = replace(TENTH_RADIUS, T=400)
        assert config.T > 3 * harness.CHECK_BLOCK_ROUNDS
        assert concentration_coverage(config, 5).coverage == 0.0
        assert len(rows) == harness.CHECK_BLOCK_ROUNDS

    def test_window_penalty_decides_a_long_fixed_delay(self):
        # every conversion arrives exactly m rounds late, so the estimate
        # lags the scaled parameter: on seeds 0-5 about 47% of the checks
        # exceed twice the radius, and the window penalty covers them all
        config = ExperimentConfig(d=5, K=10, T=1000, delay="fixed", delay_value=500,
                                  m=500, base_seed=0)
        want, penalty_decided = full_width_coverage(config, 10)
        assert want == 1.0
        assert penalty_decided > 0
        result = concentration_coverage(config, 10)
        assert result.coverage == want
        # every check passed, so each one above twice the radius is counted
        assert result.penalty_checks == penalty_decided

    def test_penalty_is_the_estimator_s_window_norm_sum(self, monkeypatch):
        # the penalty decides checks before and after the ring fills (m + 1
        # = 501 rows). Each penalty coverage computes takes the V_inv of one
        # round of an estimator fed the same actions one at a time, and its
        # ring rows, oldest row and sum have that estimator's bits there
        config = ExperimentConfig(d=5, K=10, T=1000, delay="fixed", delay_value=500,
                                  m=500, base_seed=0)
        actions, _ = harness._coverage_sequence(config)
        est = WindowedEstimator(config.d, config.lam, config.episode_window)
        penalty, oldests = harness.window_penalty, []

        def checked(ring, V_inv, oldest):
            while est.V_inv.tobytes() != V_inv.tobytes():  # the round it was taken at
                est.record_action(actions[est.t - 1])
            assert ring.tobytes() == est._actions[:est._size].tobytes()
            assert oldest == ((est.t - 1 - est._size) % est._rows if est._size > est.m
                              else None)
            got = penalty(ring, V_inv, oldest)
            assert np.float64(got).tobytes() == np.float64(est.window_norm_sum()).tobytes()
            oldests.append(oldest)
            return got

        monkeypatch.setattr(harness, "window_penalty", checked)
        assert concentration_coverage(config, 10).coverage == 1.0
        assert None in oldests  # before the ring fills
        assert any(oldest is not None for oldest in oldests)  # and after

    def test_penalty_checks_and_deviation_ratio(self):
        # conversions m rounds late put deviations above twice the radius;
        # preset A's stay well inside it
        long_delay = concentration_coverage(ExperimentConfig(
            d=5, K=10, T=1000, delay="fixed", delay_value=500, m=500, base_seed=0), 10)
        assert long_delay.penalty_checks > 0
        assert long_delay.max_deviation_ratio > 1.0
        preset_a = concentration_coverage(build_config({}, "A"), 4)
        assert preset_a.penalty_checks == 0
        assert 0.0 < preset_a.max_deviation_ratio <= 1.0

    def test_lockstep_sums_match_per_replication_estimators(self):
        # past one block of outcomes; with m = 40 against a mean delay of
        # 20, some conversions are credited and some arrive too late. Every
        # round's V, V_inv and credited sums, before its action, have the
        # bits of one estimator per replication
        config = ExperimentConfig(T=1100, delay_mean=20.0, m=40, base_seed=5)
        actions, means = harness._coverage_sequence(config)
        blocks = [(t0, Vs.copy(), V_invs.copy(), Bs) for t0, _, Vs, V_invs, Bs
                  in harness._lockstep_blocks(config, actions, means, 3)]
        assert [t0 for t0, *_ in blocks] == list(range(1, 1101, 128))
        Vs, V_invs, Bs = (np.concatenate(parts) for parts in list(zip(*blocks))[1:])
        assert Bs.shape == (1100, 3, config.d)
        for rep in range(3):
            outcomes = round_outcomes(config.resolved_delay, *harness._streams(
                config.base_seed + 1 + rep, "rewards", "delays"))
            single = WindowedEstimator(config.d, config.lam, config.episode_window)
            reveal = {}
            credited = revealed = 0
            for (t, a), (u, d) in zip(enumerate(actions, start=1), outcomes):
                assert Bs[t - 1, rep].tobytes() == single.B.tobytes()
                assert Vs[t - 1].tobytes() == single.V.tobytes()
                assert V_invs[t - 1].tobytes() == single.V_inv.tobytes()
                single.record_action(a)
                if u < means[t - 1]:
                    reveal.setdefault(t + d, []).append(t)
                for s in reveal.pop(t, []):
                    credited += t - s <= single.m
                    revealed += 1
                    single.record_conversion(s)
            assert 0 < credited < revealed

    def test_batched_products_keep_the_per_round_bits(self):
        # a block's deviations are (n, R, d) @ (n, d, d) products and one
        # batched ``norms``; each round's slice must have the bits of the
        # (R, d) @ (d, d) product and the ``norms`` of a round-by-round check
        rng = np.random.default_rng(7)
        for d, R in itertools.product(range(1, 6), (1, 2, 7, 40)):
            Bs = rng.random((9, R, d))
            Vs = rng.random((9, d, d))
            Vs = Vs + Vs.transpose(0, 2, 1)
            V_invs = np.linalg.inv(Vs)
            E = Bs @ V_invs
            lhs = estimator.norms(E, Vs)
            for i in range(9):
                e = Bs[i] @ V_invs[i]
                assert E[i].tobytes() == e.tobytes()
                assert lhs[i].tobytes() == estimator.norms(e, Vs[i]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), K=st.integers(1, 6), T=st.integers(1, 400),
           window=st.sampled_from(["0", "1", "3", "T", "T+"]),
           delay=st.sampled_from(["fixed 0", "fixed 1", "fixed m", "geometric"]),
           mean=st.floats(0.5, 60.0), scale=st.sampled_from([1.0, 0.3, 0.1, 1e-12]),
           n_reps=st.integers(1, 7), seed=st.integers(0, 10_000), basis=st.booleans())
    # two of the seven replications fail, with drawn actions and on the
    # standard basis
    @example(d=2, K=4, T=300, window="3", delay="geometric", mean=5.0, scale=0.1,
             n_reps=7, seed=6, basis=False)
    @example(d=2, K=2, T=300, window="3", delay="geometric", mean=5.0, scale=0.1,
             n_reps=7, seed=2, basis=True)
    def test_matches_a_full_width_loop(self, d, K, T, window, delay, mean, scale,
                                       n_reps, seed, basis):
        m = {"0": 0, "1": 1, "3": 3, "T": T, "T+": T + 17}[window]
        if basis:
            values = {"action_mode": "fixed_basis"}
            K = d
        else:
            values = {}
        if delay == "geometric":
            values.update(delay="geometric", delay_mean=mean)
        else:
            values.update(delay="fixed", delay_value=m if delay == "fixed m"
                          else int(delay[-1]))
        config = ExperimentConfig(d=d, K=K, T=T, m=m, base_seed=seed, **values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "exploration_radius_at",
                          lambda n, d, lam, delta:
                          scale * bounds.exploration_radius_at(n, d, lam, delta))
            want, penalty_decided = full_width_coverage(config, n_reps)
            got = concentration_coverage(config, n_reps)
        assert got.coverage == want
        if want == 1.0:
            assert got.penalty_checks == penalty_decided

    @pytest.mark.parametrize("values", [
        {"delay": "lognormal", "delay_log_mean": 50.0, "m": 20},
        # m = auto is about 2.1e22 rounds; an episode's window is T
        {"delay": "lognormal", "delay_log_mean": 50.0},
        {"delay": "fixed", "delay_value": 2**63 - 1, "m": 20},
    ])
    def test_delays_past_any_horizon_match_a_full_width_loop(self, values):
        # no conversion is revealed; reveal rounds must not wrap around
        config = ExperimentConfig(d=3, K=5, T=300, base_seed=1, **values)
        want, penalty_decided = full_width_coverage(config, 4)
        got = concentration_coverage(config, 4)
        assert got.coverage == want
        assert got.penalty_checks == penalty_decided


# the config of the tenth-radius tests (see the tenth_radius fixture)
TENTH_RADIUS = ExperimentConfig(d=2, K=4, T=150, delay="geometric", delay_mean=5.0, m=3)


@pytest.fixture
def tenth_radius(monkeypatch):
    """Shrink the estimator's exploration radius, which coverage reads too,
    to a tenth."""
    def small(n, d, lam, delta):
        return 0.1 * bounds.exploration_radius_at(n, d, lam, delta)

    monkeypatch.setattr(estimator, "exploration_radius_at", small)


def full_width_coverage(config, n_reps):
    """Coverage with the full width computed at every check, and the number of
    passed checks whose deviation exceeded twice the exploration radius.
    The actions are the random policy's in run 0, drawn one round at a time
    as in ``run_episode``, and each replication has an episode's estimator."""
    theta, delay = config.resolve_theta, config.resolved_delay
    target = config.tau_m * theta
    action_rng, policy_rng = harness._streams(config.base_seed, "actions", "policy")
    sets = action_sets(harness._action_blocks(config, action_rng))
    actions = np.empty((config.T, config.d))
    for i in range(config.T):
        aset = next(sets)
        actions[i] = aset.actions[int(policy_rng.integers(config.K))]
    means = actions @ theta
    hits = penalty_decided = 0
    for rep in range(n_reps):
        outcomes = round_outcomes(delay, *harness._streams(config.base_seed + 1 + rep,
                                                           "rewards", "delays"))
        est = WindowedEstimator(config.d, config.lam, config.episode_window)
        reveal = {}
        covered = True
        for (t, a), (u, d) in zip(enumerate(actions, start=1), outcomes):
            err = est.estimate() - target
            lhs = math.sqrt(max(float(err @ est.V @ err), 0.0))
            width = est.confidence_width(config.delta)
            if lhs > width:
                covered = False
                break
            penalty_decided += lhs > 2.0 * est.exploration_radius(config.delta)
            est.record_action(a)
            if u < means[t - 1]:
                reveal.setdefault(t + d, []).append(t)
            for s in reveal.pop(t, []):
                est.record_conversion(s)
        hits += covered
    return hits / n_reps, penalty_decided


def credited_and_revealed(delay, m, T, seed=0, policy="otf_linucb"):
    """Play the only action e1 against theta = e1 (every round converts)
    through a policy of kind ``policy``, in the harness's observe order."""
    policy = Policy(ExperimentConfig(d=1, K=1, m=m, policy=policy))
    env = DelayedBanditEnv(np.ones(1), delay, np.random.default_rng(seed),
                           np.random.default_rng(seed + 1))
    aset = ActionSet(np.eye(1))
    revealed = 0
    for _ in range(T):
        rounds = [ev.round_index for ev in env.step(0, aset)]
        revealed += len(rounds)
        policy.observe(rounds, aset.actions[0])
    return int(policy.est.B[0]), revealed


class TestWindowCreditsDelayUpToM:
    """The estimator credits a conversion iff its delay is at most m, the
    event whose probability is tau_m."""

    @pytest.mark.parametrize("policy", ["otf_linucb", "random"])
    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_fixed_delay_of_m_is_fully_credited(self, m, policy):
        credited, revealed = credited_and_revealed(FixedDelay(m), m, 200, policy=policy)
        assert revealed == 200 - m
        assert credited == revealed

    def test_coverage_at_fixed_delay_equal_to_window(self):
        config = ExperimentConfig(d=5, K=10, T=1000, delay="fixed", delay_value=20,
                                  m=20, base_seed=0)
        assert config.tau_m == 1.0
        assert concentration_coverage(config, 20).coverage >= 0.95

    @pytest.mark.parametrize("delay", [GeometricDelay(5.0), LognormalDelay(1.5, 0.8)])
    def test_credited_fraction_matches_tau_m(self, delay):
        m = 5
        credited, revealed = credited_and_revealed(delay, m, 20_000)
        tau = delay.cdf(m)
        se = math.sqrt(tau * (1.0 - tau) / revealed)
        assert abs(credited / revealed - tau) <= 3.0 * se


def test_upper_bound_far_above_preset_regret():
    # loose sanity link between the simulated scale and the analytic bound
    config = replace(build_config({}, "A"), T=300, n_runs=2)
    _, stats = run_batch(config)
    bound = regret_upper_bound(300, 5, 1.0, 0.05, 100, config.tau_m)
    assert stats.mean[-1] < bound


class TestRandomnessLayout:
    """Layout 2: one child stream per source, each drawn in blocks whose
    length does not depend on the horizon."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40])
    def test_each_source_is_its_child_of_the_seed(self, seed):
        children = np.random.SeedSequence(seed).spawn(len(harness.STREAMS))
        for source, child in zip(harness.STREAMS, children):
            (rng,) = harness._streams(seed, source)
            want = np.random.default_rng(child).bit_generator.state
            assert rng.bit_generator.state == want

    def test_coverage_builds_only_the_generators_it_draws(self, monkeypatch):
        # the sequence's actions and picks, then each replication's rewards
        # and delays
        calls = []
        build = np.random.default_rng

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        concentration_coverage(ExperimentConfig(T=200, delay_mean=20.0, m=40), 5)
        assert len(calls) == 2 + 2 * 5

    @pytest.mark.parametrize("name", ["A/otf_linucb", "A/otf_lints", "D", "empirical",
                                      "fixed_basis"])
    def test_longer_horizon_starts_with_the_shorter_episode(self, name, tmp_path):
        path = tmp_path / "delays.txt"
        path.write_text("\n".join(str(v) for v in (0, 3, 7, 7, 20, 45, 120, 400)) + "\n")
        configs = {
            "A/otf_linucb": build_config({"policy": "otf_linucb"}, "A"),
            "A/otf_lints": build_config({"policy": "otf_lints"}, "A"),
            "D": build_config({}, "D"),
            "empirical": ExperimentConfig(delay="empirical", delay_path=str(path),
                                          policy="otf_lints"),
            "fixed_basis": ExperimentConfig(d=6, K=6, theta="k_armed_hard",
                                            action_mode="fixed_basis", delay_mean=30.0,
                                            m=60),
        }
        config = configs[name]
        long = run_episode(replace(config, T=1500), 1).cum_regret
        short = run_episode(replace(config, T=700), 1).cum_regret
        assert long[:700].tobytes() == short.tobytes()

    def test_environment_draws_do_not_depend_on_the_policy(self, monkeypatch):
        seen = []
        step, outcomes = DelayedBanditEnv.step, environment.round_outcomes

        def recording_step(env, chosen, action_set):
            seen[-1][0].append(action_set.actions.copy())
            return step(env, chosen, action_set)

        def recording_outcomes(*args):
            for pair in outcomes(*args):
                seen[-1][1].append(pair)
                yield pair

        monkeypatch.setattr(DelayedBanditEnv, "step", recording_step)
        monkeypatch.setattr(environment, "round_outcomes", recording_outcomes)
        # past a block of reward uniforms and delays, and past several
        # blocks of action sets
        values = {"T": 1100, "delay_mean": 20.0, "m": 40, "base_seed": 4}
        for policy in ("otf_linucb", "otf_lints", "random", "oracle_linucb"):
            seen.append(([], []))
            run_episode(build_config({**values, "policy": policy}), 3)
        sets, pairs = seen[0]
        assert len(sets) == len(pairs) == 1100
        for other_sets, other_pairs in seen[1:]:
            assert np.array_equal(np.stack(other_sets), np.stack(sets))
            assert [u for u, _ in other_pairs] == [u for u, _ in pairs]
        # the oracle's environment has no delay; the others share the delays
        assert seen[1][1] == seen[2][1] == pairs
        assert {d for _, d in seen[3][1]} == {0}

    def test_random_play_does_not_depend_on_the_delay(self, tmp_path):
        # the action sets, the rewards and the random policy's picks each
        # have their own stream, so only the delays move with the delay kind
        path = tmp_path / "delays.txt"
        path.write_text("1\n5\n9\n")
        base = ExperimentConfig(T=1100, policy="random", m=10, base_seed=2)
        traces = [run_episode(replace(base, delay=kind, delay_path=str(path)), 0)
                  for kind in ("geometric", "fixed", "empirical", "lognormal")]
        for trace in traces[1:]:
            assert trace.cum_regret.tobytes() == traces[0].cum_regret.tobytes()

    @pytest.mark.parametrize("K", [1, 10, 100])
    def test_one_draw_of_n_picks_equals_n_single_draws(self, K):
        # coverage draws the random policy's T picks in one call, the
        # episode one per round
        at_once, one_by_one = np.random.default_rng(K), np.random.default_rng(K)
        picks = at_once.integers(K, size=3001)
        assert picks.tolist() == [int(one_by_one.integers(K)) for _ in range(3001)]
        assert at_once.bit_generator.state == one_by_one.bit_generator.state

    def test_coverage_plays_the_random_policy_s_first_run(self, monkeypatch):
        # coverage records its actions a block at a time, an episode one
        # round at a time
        played = []
        record, record_block = WindowedEstimator.record_action, WindowedEstimator.record_actions

        def recording(est, a):
            played.append(np.array(a))
            record(est, a)

        def recording_block(est, A, out):
            played.extend(np.array(A))
            record_block(est, A, out)

        config = ExperimentConfig(T=400, delay_mean=20.0, m=40, policy="random",
                                  base_seed=6)
        monkeypatch.setattr(WindowedEstimator, "record_action", recording)
        monkeypatch.setattr(WindowedEstimator, "record_actions", recording_block)
        # all replications share one design: T actions in all
        assert concentration_coverage(config, 3).coverage == 1.0
        assert len(played) == config.T
        coverage_actions = np.stack(played)
        played.clear()
        run_episode(config, 0)
        assert len(played) == config.T
        assert np.array_equal(coverage_actions, np.stack(played))
