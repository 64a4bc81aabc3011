"""CLI surface: subcommands, exit codes, output files."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delayed_bandits import harness
from delayed_bandits.bounds import regret_upper_bound
from delayed_bandits.cli import main
from delayed_bandits.io import read_traces_csv
from delayed_bandits.policies import Policy


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "d = 3\nK = 4\nT = 30\ndelay = geometric\ndelay_mean = 5\n"
        "m = 10\nn_runs = 2\nbase_seed = 9\n"
    )
    return path


def test_import_leaves_the_process_pool_out():
    # serial commands never start a pool, so they do not import one
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, delayed_bandits.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestRun:
    def test_writes_all_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        assert (out / "traces.csv").exists()
        assert (out / "summary.csv").exists()
        meta = (out / "metadata.txt").read_text()
        assert "tau_m = " in meta
        assert "regret_upper_bound = " in meta
        assert "mean_final_regret" in capsys.readouterr().out

    def test_repeat_invocations_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out2)]) == 0
        assert (out1 / "traces.csv").read_bytes() == (out2 / "traces.csv").read_bytes()

    def test_policy_and_seed_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "r"
        code = main(["run", "--config", str(tiny_config), "--policy", "random",
                     "--runs", "3", "--seed", "4", "--out", str(out)])
        assert code == 0
        traces = read_traces_csv(out / "traces.csv")
        assert [tr.run_id for tr in traces] == [0, 1, 2]
        meta = (out / "metadata.txt").read_text()
        assert "policy = random" in meta
        assert "base_seed = 4" in meta

    def test_oracle_alias(self, tiny_config, tmp_path):
        # --policy oracle and policy = oracle_linucb in the file build one config
        flag, file = tmp_path / "flag", tmp_path / "file"
        assert main(["run", "--config", str(tiny_config), "--policy", "oracle",
                     "--out", str(flag)]) == 0
        tiny_config.write_text(tiny_config.read_text() + "policy = oracle_linucb\n"
                               f"out = {file}\n")
        assert main(["run", "--config", str(tiny_config)]) == 0
        for name in ("traces.csv", "summary.csv"):
            assert (flag / name).read_bytes() == (file / name).read_bytes()
        meta = (flag / "metadata.txt").read_text()
        assert meta.replace(f"out = {flag}", f"out = {file}") == (
            file / "metadata.txt").read_text()
        assert "policy = otf_linucb" in meta.splitlines()

    def test_preset_oracle_runs_without_delay(self, tmp_path):
        # the oracle's values replace the preset's delay and window
        out = tmp_path / "o"
        assert main(["run", "--preset", "A", "--policy", "oracle", "--runs", "1",
                     "--out", str(out)]) == 0
        lines = (out / "metadata.txt").read_text().splitlines()
        for line in ("delay = fixed", "delay_value = 0", "m = 0", "tau_m = 1"):
            assert line in lines

    def test_preset_overrides_scenario(self, tmp_path):
        out = tmp_path / "r"
        code = main(["run", "--preset", "A", "--runs", "1", "--out", str(out)])
        # preset A is T=3000; keep it small by overriding through a config
        assert code == 0
        meta = (out / "metadata.txt").read_text()
        assert "T = 3000" in meta and "m = 100" in meta

    def test_bad_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("nonsense = 1\n", "width_mode = cached\n", "hard_arm = 3\n"):
            cfg.write_text(line)
            assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_config_directory_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "coverage"])
    @pytest.mark.parametrize("kind", ["long name", "symlink loop", "not UTF-8"])
    def test_unreadable_config_exits_1_naming_it(self, tmp_path, capsys, command, kind):
        if kind == "long name":
            cfg = tmp_path / ("c" * 300)  # past the 255-byte name limit
        elif kind == "symlink loop":
            cfg = tmp_path / "loop.cfg"
            cfg.symlink_to(cfg)
        else:
            cfg = tmp_path / "latin1.cfg"
            cfg.write_bytes("policy = r\xe9\n".encode("latin-1"))
        argv = {"run": ["--out", str(tmp_path / "r")], "coverage": ["--reps", "2"]}
        assert main([command, "--config", str(cfg), *argv[command]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file not found or unreadable: {cfg} (")

    def test_undecodable_delay_file_exits_1_naming_it(self, tmp_path, capsys):
        delays = tmp_path / "delays.txt"
        delays.write_bytes(b"1\n\xff\n")
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"delay = empirical\ndelay_path = {delays}\nm = auto\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {delays}: not UTF-8 text (")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--T", "10", "--d", "2", "--m", "5", "--tau", "0.5", "--K", "3"],
        ["run", "--runs", "many"],
        ["coverage"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse itself would exit 2
        assert main(argv) == 1
        assert "usage: delayed-bandits" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: delayed-bandits" in capsys.readouterr().out

    def test_flag_replaces_file_value_before_validation(self, tiny_config, tmp_path):
        # the file's n_jobs = 0 alone is invalid, but --jobs replaces it
        tiny_config.write_text(tiny_config.read_text() + "n_jobs = 0\n")
        out = tmp_path / "r"
        assert main(["run", "--config", str(tiny_config), "--jobs", "1",
                     "--out", str(out)]) == 0
        assert "n_jobs = 1" in (out / "metadata.txt").read_text()
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1

    @pytest.mark.parametrize("command", ["run", "coverage"])
    def test_overflowing_auto_window_exits_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "heavy.cfg"
        cfg.write_text("T = 10\ndelay = lognormal\ndelay_log_std = 40\nm = auto\n")
        argv = {"run": ["--out", str(tmp_path / "r")], "coverage": ["--reps", "2"]}
        assert main([command, "--config", str(cfg), *argv[command]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: m = auto: ")
        assert "lognormal delay overflows" in err
        assert not (tmp_path / "r").exists()

    def test_window_longer_than_the_episode_runs_like_m_equal_T(self, tmp_path, capsys):
        # the estimator's ring has min(m, T) + 1 rows, not m + 1
        base = "d = 3\nK = 4\nT = 5\ndelay = fixed\ndelay_value = 3\nn_runs = 2\n"
        outs, printed = [], []
        for m in ("100000000000", "5"):
            cfg = tmp_path / f"m{m}.cfg"
            cfg.write_text(base + f"m = {m}\n")
            outs.append(tmp_path / f"r{m}")
            assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == 0
            capsys.readouterr()
            assert main(["coverage", "--config", str(cfg), "--reps", "3"]) == 0
            printed.append(capsys.readouterr().out)
        for name in ("traces.csv", "summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert printed[0] == printed[1]

    def test_window_longer_than_the_episode_writes_the_m_equal_T_bound(self, tmp_path):
        # the bound is evaluated on the episode's window, min(m, T)
        base = "d = 3\nK = 4\nT = 5\ndelay = fixed\nn_runs = 1\n"
        bounds = []
        for m in ("5", "100000000000"):
            cfg = tmp_path / f"m{m}.cfg"
            cfg.write_text(base + f"m = {m}\n")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / m)]) == 0
            meta = (tmp_path / m / "metadata.txt").read_text().splitlines()
            bounds += [line for line in meta if line.startswith("regret_upper_bound = ")]
        assert len(bounds) == 2 and bounds[0] == bounds[1]
        want = regret_upper_bound(5, 3, 1.0, 0.05, 5, 1.0)
        assert bounds[0] == f"regret_upper_bound = {want:.17g}"

    def test_no_delay_inside_the_window_writes_an_infinite_bound(self, tmp_path, capsys):
        # every delay is 50 > m = 10: nothing is credited, so tau_m = 0
        cfg = tmp_path / "late.cfg"
        cfg.write_text("T = 200\ndelay = fixed\ndelay_value = 50\nm = 10\nn_runs = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        meta = (tmp_path / "r" / "metadata.txt").read_text().splitlines()
        assert "tau_m = 0" in meta
        assert "regret_upper_bound = inf" in meta
        capsys.readouterr()
        assert main(["coverage", "--config", str(cfg), "--reps", "3"]) == 0
        assert "coverage = 1\n" in capsys.readouterr().out

    def test_metadata_names_the_randomness_layout(self, tiny_config, tmp_path):
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r")]) == 0
        meta = (tmp_path / "r" / "metadata.txt").read_text().splitlines()
        assert meta[-1] == "rng_layout = 2"

    @pytest.mark.parametrize("command", ["run", "coverage"])
    def test_window_beyond_a_float_exits_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("T = 5\ndelay = fixed\ndelay_value = 3\nm = 1" + "0" * 400 + "\n")
        argv = {"run": ["--out", str(tmp_path / "r")], "coverage": ["--reps", "2"]}
        assert main([command, "--config", str(cfg), *argv[command]]) == 1
        assert capsys.readouterr().err.startswith("config error: window m is too large")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [["run", "--seed", "0", "--runs", "1"],
                                      ["run", "--seed", "5", "--runs", "1"],
                                      ["coverage", "--reps", "2"]])
    def test_theta_with_a_negative_action_mean_exits_1(self, tmp_path, capsys, argv):
        # episodes at seed 5 draw an action with a negative mean, those at
        # seed 0 do not; the config is rejected before either runs
        theta = np.array([-0.02] + [1.0] * 17)
        theta /= np.linalg.norm(theta)
        cfg = tmp_path / "negative.cfg"
        cfg.write_text("d = 18\nK = 10\nT = 3000\ntheta = explicit\n"
                       f"theta_values = {','.join(repr(float(v)) for v in theta)}\n"
                       "delay = fixed\ndelay_value = 5\nm = 10\npolicy = random\n"
                       f"out = {tmp_path / 'r'}\n")
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
        printed = capsys.readouterr()
        assert printed.err.startswith("config error: theta gives mean rewards out of range")
        assert printed.out == ""
        assert not (tmp_path / "r").exists()

    def test_non_finite_delay_scale_exits_1(self, tmp_path, capsys):
        delays = tmp_path / "delays.txt"
        delays.write_text("1\n3\n8\n")
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"T = 10\ndelay = empirical\ndelay_path = {delays}\n"
                       f"delay_scale = nan\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert "config error: delay_scale must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["run", "coverage"])
    @pytest.mark.parametrize("keys, samples", [
        ("delay = empirical\n", "5\n1e30\n7\n"),
        ("delay = empirical\ndelay_scale = 1000\n", "5\n1e17\n7\n"),
        ("delay = fixed\ndelay_value = 10000000000000000000\n", None),
    ], ids=["file", "scaled_file", "fixed"])
    def test_delay_beyond_an_int64_exits_1(self, tmp_path, capsys, command, keys, samples):
        # the file's large delay once ran as delay 0 (exit 0, tau_m = 1), and
        # the fixed delay failed in the first episode (exit 2)
        if samples is not None:
            (tmp_path / "delays.txt").write_text(samples)
            keys += f"delay_path = {tmp_path / 'delays.txt'}\n"
        cfg = tmp_path / "big.cfg"
        cfg.write_text("d = 3\nK = 4\nT = 30\nn_runs = 1\n" + keys)
        argv = {"run": ["--out", str(tmp_path / "r")], "coverage": ["--reps", "1"]}
        assert main([command, "--config", str(cfg), *argv[command]]) == 1
        printed = capsys.readouterr()
        assert printed.err.startswith("config error: ")
        assert "below 2**63" in printed.err
        assert printed.out == ""
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["run", "coverage"])
    def test_delay_file_parsed_once_per_command(self, tmp_path, monkeypatch, command):
        delays = tmp_path / "delays.txt"
        delays.write_text("1\n3\n8\n")
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"d = 3\nK = 4\nT = 30\nn_runs = 2\nm = auto\n"
                       f"delay = empirical\ndelay_path = {delays}\n")
        calls = []
        load = harness.load_empirical
        monkeypatch.setattr(harness, "load_empirical",
                            lambda *args: calls.append(args) or load(*args))
        argv = {"run": ["--seed", "3", "--out", str(tmp_path / "r")],
                "coverage": ["--reps", "1"]}
        assert main([command, "--config", str(cfg), *argv[command]]) == 0
        assert len(calls) == 1

    def test_unwritable_output_exits_2(self, tiny_config, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["run", "--config", str(tiny_config),
                     "--out", str(blocker / "sub")])
        assert code == 2

    def test_numerical_error_exits_2(self, tiny_config, tmp_path, monkeypatch):
        # LinAlgError subclasses ValueError but is a runtime failure
        def fail(self, rng, size=None):
            raise np.linalg.LinAlgError("covariance factorization failed")

        monkeypatch.setattr(Policy, "sample_parameter", fail)
        code = main(["run", "--config", str(tiny_config), "--policy", "otf_lints",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_indefinite_covariance_exits_2(self, tiny_config, tmp_path, monkeypatch, capsys):
        # every policy starts from V_inv = -I: OTFLinTS's Cholesky factorization
        # fails at its first draw
        init = Policy.__init__

        def indefinite(self, config):
            init(self, config)
            self.est.V_inv = -self.est.V_inv

        monkeypatch.setattr(Policy, "__init__", indefinite)
        code = main(["run", "--config", str(tiny_config), "--policy", "otf_lints",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: covariance factorization failed; inverse design matrix is not "
            "positive definite\n")


class TestBounds:
    def test_prints_value(self, capsys):
        code = main(["bounds", "--T", "3000", "--d", "5", "--lambda", "1.0", "--delta", "0.05", "--m", "100",
                     "--tau", "0.634"])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("regret_upper_bound")][0]
        assert float(line.split("=")[1]) == pytest.approx(39985.417882, rel=1e-9)

    def test_invalid_tau_exits_1(self):
        assert main(["bounds", "--T", "10", "--d", "2", "--m", "5",
                     "--tau", "0"]) == 1


class TestLowerBound:
    def test_tuned(self, capsys):
        assert main(["lower-bound", "--T", "100000", "--K", "10",
                     "--tau", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "best_gap" in out and "lower_bound" in out

    def test_fixed_gap(self, capsys):
        assert main(["lower-bound", "--T", "1000", "--K", "10", "--tau", "0.5",
                     "--gap", "0.05"]) == 0
        value = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
        expected = 1000 * 0.05 / 4 * np.exp(-32 * 0.5 * 0.05**2 * 1000 / 9)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_gap_out_of_range_exits_1(self):
        assert main(["lower-bound", "--T", "1000", "--K", "10", "--tau", "0.5",
                     "--gap", "0.5"]) == 1


class TestCoverage:
    def test_non_finite_inverse_exits_2(self, tmp_path, capsys):
        # at lambda = 1e-300 the first rank-one update overflows; the fidelity
        # test re-inverts, and the singular design matrix is a numerical error
        cfg = tmp_path / "tiny_lambda.cfg"
        cfg.write_text("T = 50\nlambda = 1e-300\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--runs", "1",
                         "--out", str(tmp_path / "r")]) == 2
            assert main(["coverage", "--config", str(cfg), "--reps", "2"]) == 2
        assert "Singular matrix" in capsys.readouterr().err

    def test_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("d = 2\nK = 3\nT = 40\ndelay = fixed\ndelay_value = 0\n"
                       "m = 40\ndelta = 0.2\n")
        assert main(["coverage", "--config", str(cfg), "--reps", "5"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.splitlines())
        assert list(values) == ["reps", "tau_m", "coverage", "penalty_checks",
                                "max_deviation_ratio"]
        assert 0.0 <= float(values["coverage"]) <= 1.0
        assert int(values["penalty_checks"]) >= 0
        assert float(values["max_deviation_ratio"]) >= 0.0

    def test_oracle_config_runs_without_delay(self, tmp_path, capsys):
        # policy = oracle_linucb replaces the file's delay and window
        base = "d = 2\nK = 3\nT = 60\ndelta = 0.2\n"
        printed = []
        for extra in ("policy = oracle_linucb\ndelay = geometric\nm = 30\n",
                      "delay = fixed\ndelay_value = 0\nm = 0\n"):
            cfg = tmp_path / "cov.cfg"
            cfg.write_text(base + extra)
            assert main(["coverage", "--config", str(cfg), "--reps", "5"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "tau_m = 1\n" in printed[0]
