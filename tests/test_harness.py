"""Harness: config handling, episodes, batches, coverage, CSV round-trips."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from delayed_bandits import harness
from delayed_bandits.bounds import regret_upper_bound
from delayed_bandits.delays import FixedDelay, GeometricDelay, LognormalDelay
from delayed_bandits.environment import ActionSet, DelayedBanditEnv
from delayed_bandits.policies import make_policy
from delayed_bandits.harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_config,
    concentration_coverage,
    elliptical_potential_bound,
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
        for key, value in [("bogus", "1"), ("width_mode", "cached")]:
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
        config = build_config({"hard_arm": "3", "delay_mean": "7", "policy": "random",
                               "out": "elsewhere"})
        assert type(config.hard_arm) is int and config.hard_arm == 3
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

    def test_policy_settings_rejected(self):
        # keys that are only checked under another kind than the default
        context = {"theta_values": {"theta": "explicit"}}
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

    @pytest.mark.parametrize("delay", ["geometric", "lognormal"])
    def test_oversized_window_rejected_at_build(self, delay):
        # (1 - p) ** (m + 1) and log(m + 1) cannot convert m to a float
        with pytest.raises(ConfigError, match="window m is too large"):
            build_config({"delay": delay, "m": "1" + "0" * 400})

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_empirical_scale_rejected_before_loading(self, tmp_path, scale):
        path = tmp_path / "d.txt"
        path.write_text("2\n4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"delay_scale must be finite, got {scale}"):
                build_config({"delay": "empirical", "delay_path": str(path),
                              "delay_scale": scale})

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
                      "k_armed_hard": ["hard_gap", "hard_arm"]}[theta]
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
        assert 0.0 <= concentration_coverage(serial, 2) <= 1.0
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
        from delayed_bandits.environment import (
            ConversionEvent, DelayedBanditEnv, generate_action_set)
        from delayed_bandits.harness import _episode_streams
        from delayed_bandits.policies import make_policy

        config = TINY
        env_rng, policy_rng = _episode_streams(config.base_seed, 2)
        env = DelayedBanditEnv(config.resolve_theta, config.resolved_delay, env_rng)
        policy = make_policy(config)
        total = 0.0
        for t in range(1, config.T + 1):
            aset = generate_action_set(env_rng, config.d, config.K)
            idx = policy.select(aset, policy_rng)
            events = env.step(idx, aset)
            policy.observe(events, aset.actions[idx])
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
                                  hard_gap=0.2, hard_arm=3,
                                  action_mode="fixed_basis", delay="fixed",
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

        class Pool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        config = replace(TINY, n_runs=n_runs)
        traces, _ = run_batch(replace(config, n_jobs=4))
        assert started == workers
        for a, b in zip(traces, run_batch(config)[0], strict=True):
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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("d 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(path)


class TestConcentrationCoverage:
    def test_smoke_at_half_delta(self):
        config = ExperimentConfig(d=2, K=3, T=50, delay="geometric",
                                  delay_mean=4.0, m=8, delta=0.5, base_seed=3)
        coverage = concentration_coverage(config, 12)
        assert 0.0 <= coverage <= 1.0

    def test_zero_delay_full_window_covers(self):
        # the no-censoring case collapses to plain ridge concentration
        config = ExperimentConfig(d=2, K=3, T=120, delay="fixed", delay_value=0,
                                  m=120, delta=0.05, base_seed=11)
        assert concentration_coverage(config, 40) >= 0.87

    def test_rep_count_validated(self):
        with pytest.raises(ConfigError):
            concentration_coverage(TINY, 0)


def credited_and_revealed(delay, m, T, seed=0):
    """Play the only action e1 against theta = e1 (every round converts)
    through an OTFLinUCB policy, in the harness's observe order."""
    policy = make_policy(ExperimentConfig(d=1, K=1, m=m))
    env = DelayedBanditEnv(np.ones(1), delay, np.random.default_rng(seed))
    aset = ActionSet(np.eye(1))
    revealed = 0
    for _ in range(T):
        events = env.step(0, aset)
        revealed += len(events)
        policy.observe(events, aset.actions[0])
    return int(policy.est.B[0]), revealed


class TestWindowCreditsDelayUpToM:
    """The estimator credits a conversion iff its delay is at most m, the
    event whose probability is tau_m."""

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_fixed_delay_of_m_is_fully_credited(self, m):
        credited, revealed = credited_and_revealed(FixedDelay(m), m, 200)
        assert revealed == 200 - m
        assert credited == revealed

    def test_coverage_at_fixed_delay_equal_to_window(self):
        config = ExperimentConfig(d=5, K=10, T=1000, delay="fixed", delay_value=20,
                                  m=20, base_seed=0)
        assert config.tau_m == 1.0
        assert concentration_coverage(config, 20) >= 0.95

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
