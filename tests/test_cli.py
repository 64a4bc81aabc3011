"""CLI surface: subcommands, exit codes, output files."""

import numpy as np
import pytest

from delayed_bandits import harness
from delayed_bandits.cli import main
from delayed_bandits.io import read_traces_csv
from delayed_bandits.policies import LinearPolicy


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "d = 3\nK = 4\nT = 30\ndelay = geometric\ndelay_mean = 5\n"
        "m = 10\nn_runs = 2\nbase_seed = 9\n"
    )
    return path


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
        out = tmp_path / "r"
        code = main(["run", "--config", str(tiny_config), "--policy", "oracle",
                     "--out", str(out)])
        assert code == 0
        assert "policy = oracle_linucb" in (out / "metadata.txt").read_text()

    def test_preset_overrides_scenario(self, tmp_path):
        out = tmp_path / "r"
        code = main(["run", "--preset", "A", "--runs", "1", "--out", str(out)])
        # preset A is T=3000; keep it small by overriding through a config
        assert code == 0
        meta = (out / "metadata.txt").read_text()
        assert "T = 3000" in meta and "m = 100" in meta

    def test_bad_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("nonsense = 1\n", "width_mode = cached\n"):
            cfg.write_text(line)
            assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_config_directory_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert "config error: " in capsys.readouterr().err

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

        monkeypatch.setattr(LinearPolicy, "sample_parameter", fail)
        code = main(["run", "--config", str(tiny_config), "--policy", "otf_lints",
                     "--out", str(tmp_path / "r")])
        assert code == 2


class TestBounds:
    def test_prints_value(self, capsys):
        code = main(["bounds", "--T", "3000", "--d", "5", "--K", "10",
                     "--lambda", "1.0", "--delta", "0.05", "--m", "100",
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
    def test_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("d = 2\nK = 3\nT = 40\ndelay = fixed\ndelay_value = 0\n"
                       "m = 40\ndelta = 0.2\n")
        assert main(["coverage", "--config", str(cfg), "--reps", "5"]) == 0
        out = capsys.readouterr().out
        coverage = float([l for l in out.splitlines()
                          if l.startswith("coverage")][0].split("=")[1])
        assert 0.0 <= coverage <= 1.0
