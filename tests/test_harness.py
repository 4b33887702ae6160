import argparse
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risjam.harness import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    MAX_ALPHA_GRID_POINTS,
    MAX_PT_SWEEP_POINTS,
    build_parser,
    main,
    optimized_config,
    parse_alpha_grid,
    parse_pt_sweep,
)
from risjam.channel import build_channel_set
from risjam.ris import load_phase_config
from risjam.scene import MAX_PT_DBM, format_scenario, load_scenario
from dataclasses import replace

from conftest import DEFAULT_SCENARIO

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def scenario_file():
    return str(DEFAULT_SCENARIO)


@pytest.fixture(scope="module")
def tiny_scenario_file(tmp_path_factory):
    sc = replace(load_scenario(DEFAULT_SCENARIO), ris_rows=2, ris_cols=2)
    path = tmp_path_factory.mktemp("scn") / "tiny.scn"
    path.write_text(format_scenario(sc), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# scenario_sha256=")
    assert " seed=" in lines[0] and " version=" in lines[0]
    header = lines[1].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[2:]]


# The flags each command reads besides --scenario and --out, and a valid value
# for each flag (None: a switch).
FLAGS_READ = {
    "optimize-phases": {"--algorithm", "--seed"},
    "sweep-alpha": {"--algorithm", "--seed", "--alpha-grid", "--config", "--include-zero"},
    "sweep-power": {"--algorithm", "--seed", "--alpha-grid", "--config", "--eta", "--gamma-bob-db",
                    "--pt-sweep"},
    "solve-alpha": {"--algorithm", "--seed", "--alpha-grid", "--config", "--eta", "--gamma-bob-db"},
    "dump-channels": set(),
}
FLAG_VALUES = {
    "--algorithm": "dft", "--seed": "4", "--alpha-grid": "5", "--config": "c.config.txt",
    "--include-zero": None, "--eta": "0.01", "--gamma-bob-db": "2.2", "--pt-sweep": "-30:2:10",
}
UNREAD_FLAGS = [(command, flag) for command, read in FLAGS_READ.items()
                for flag in FLAG_VALUES if flag not in read]


def required_flags(command):
    return ["--eta", "0.01", "--gamma-bob-db", "2.2"] if "--eta" in FLAGS_READ[command] else []


def src_env():
    """The environment with the repository's src/ first on PYTHONPATH."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def readme_command_lines():
    """Every `risjam ...` line of README's command-line block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("risjam ")]


class TestParsePtSweep:
    def test_default_range(self):
        vals = parse_pt_sweep("-30:2:10")
        assert len(vals) == 21
        assert vals[0] == -30.0 and vals[-1] == 10.0

    def test_single_point(self):
        assert parse_pt_sweep("5:1:5") == (5.0,)

    def test_bad_forms(self):
        for bad in ("1:2", "a:b:c", "0:-1:5", "5:1:0", "1:0:2",
                    "0:1:inf", "nan:1:5", "0:nan:5", "0:inf:5", "-inf:1:5", "-1e308:1:1e308",
                    "0:1e-6:1", "0:1e-300:1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_pt_sweep(bad)

    def test_point_cap(self):
        last = MAX_PT_SWEEP_POINTS - 1
        assert len(parse_pt_sweep(f"{-last // 100}:0.01:0")) == MAX_PT_SWEEP_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match=f"{MAX_PT_SWEEP_POINTS + 1} points"):
            parse_pt_sweep(f"{-last - 1}:1:0")

    def test_power_cap(self):
        # the top point, not the stop, is held to the scenario's transmit-power cap
        assert parse_pt_sweep("130:10:150")[-1] == MAX_PT_DBM
        assert parse_pt_sweep("130:15:150.5") == (130.0, 145.0)
        for bad in ("140:10:160", "145:10:160", "150.5:1:150.5"):
            with pytest.raises(argparse.ArgumentTypeError, match="cap of 150.0 dBm"):
                parse_pt_sweep(bad)

    def test_point_without_a_positive_power(self):
        # 10 ** ((p - 30) / 10) rounds to 0.0 below about -3200 dBm
        assert parse_pt_sweep("-3000:1000:0")[0] == -3000.0
        with pytest.raises(argparse.ArgumentTypeError, match=r"-4000\.0 dBm"):
            parse_pt_sweep("-4000:1000:0")


class TestParseAlphaGrid:
    def test_point_cap(self):
        assert MAX_ALPHA_GRID_POINTS == 100_001
        assert parse_alpha_grid(str(MAX_ALPHA_GRID_POINTS)) == MAX_ALPHA_GRID_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match=f"{MAX_ALPHA_GRID_POINTS + 1} points"):
            parse_alpha_grid(str(MAX_ALPHA_GRID_POINTS + 1))
        with pytest.raises(argparse.ArgumentTypeError, match="1000000000 points"):
            parse_alpha_grid("1000000000")


class TestOptimizePhasesCommand:
    def test_outputs_and_trace_shape(self, scenario_file, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["optimize-phases", "--scenario", scenario_file, "--out", out,
                   "--seed", "3"])
        assert rc == EXIT_OK
        header, rows = read_rows(out + ".trace.csv")
        assert header == ["trial", "power_dbm", "best_power_dbm", "partition", "algorithm"]
        assert len(rows) == 256
        assert sum(1 for r in rows if r["partition"] == "rb") == 128
        assert sum(1 for r in rows if r["partition"] == "re") == 128
        cfg = load_phase_config(out + ".config.txt")
        assert cfg.n_elements == 256

    def test_zero_algorithm_writes_mirror_config(self, tiny_scenario_file, tmp_path):
        out = str(tmp_path / "zero")
        rc = main(["optimize-phases", "--scenario", tiny_scenario_file, "--out", out,
                   "--algorithm", "zero"])
        assert rc == EXIT_OK
        header, rows = read_rows(out + ".trace.csv")
        assert rows == []
        assert Path(out + ".config.txt").read_text().strip() == "0,0,0,0"

    def test_dft_small_budget(self, tiny_scenario_file, tmp_path):
        out = str(tmp_path / "dft")
        rc = main(["optimize-phases", "--scenario", tiny_scenario_file, "--out", out,
                   "--algorithm", "dft", "--seed", "2"])
        assert rc == EXIT_OK
        _, rows = read_rows(out + ".trace.csv")
        assert len(rows) == 4  # two trials per two-element partition


class TestSweepAlphaCommand:
    def test_rows_and_endpoints(self, scenario_file, tmp_path):
        out = str(tmp_path / "sa.csv")
        rc = main(["sweep-alpha", "--scenario", scenario_file, "--out", out,
                   "--seed", "3", "--alpha-grid", "5"])
        assert rc == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["alpha1", "c_bob", "c_eve", "c_secrecy",
                          "sinr_bob_db", "sinr_eve_db", "algorithm"]
        assert len(rows) == 5
        assert float(rows[0]["alpha1"]) == 0.0 and float(rows[0]["c_bob"]) == 0.0
        eves = [float(r["c_eve"]) for r in rows]
        assert max(eves) == eves[-1]  # alpha1 = 1 maximizes Eve's capacity

    def test_include_zero_block(self, scenario_file, tmp_path):
        out = str(tmp_path / "saz.csv")
        rc = main(["sweep-alpha", "--scenario", scenario_file, "--out", out,
                   "--seed", "3", "--alpha-grid", "5", "--include-zero"])
        assert rc == EXIT_OK
        _, rows = read_rows(out)
        assert len(rows) == 10
        assert {r["algorithm"] for r in rows} == {"iterative", "zero"}

    def test_zero_baseline_below_iterative_peak(self, scenario_file, tmp_path):
        out = str(tmp_path / "base.csv")
        main(["sweep-alpha", "--scenario", scenario_file, "--out", out,
              "--seed", "1", "--alpha-grid", "41", "--include-zero"])
        _, rows = read_rows(out)
        iter_peak = max(float(r["c_secrecy"]) for r in rows if r["algorithm"] == "iterative")
        for r in rows:
            if r["algorithm"] == "zero":
                assert float(r["c_secrecy"]) <= iter_peak

    def test_secrecy_recomputes_from_row(self, scenario_file, tmp_path):
        out = str(tmp_path / "sac.csv")
        main(["sweep-alpha", "--scenario", scenario_file, "--out", out,
              "--seed", "1", "--alpha-grid", "21"])
        _, rows = read_rows(out)
        for r in rows:
            recomputed = max(float(r["c_bob"]) - float(r["c_eve"]), 0.0)
            assert f"{recomputed:.9g}" == r["c_secrecy"]

    def test_reuse_saved_config(self, tiny_scenario_file, tmp_path):
        prefix = str(tmp_path / "opt")
        main(["optimize-phases", "--scenario", tiny_scenario_file, "--out", prefix,
              "--seed", "9"])
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        rc = main(["sweep-alpha", "--scenario", tiny_scenario_file, "--out", out1,
                   "--seed", "9", "--alpha-grid", "7",
                   "--config", prefix + ".config.txt"])
        assert rc == EXIT_OK
        main(["sweep-alpha", "--scenario", tiny_scenario_file, "--out", out2,
              "--seed", "9", "--alpha-grid", "7"])
        assert Path(out1).read_text().splitlines()[2:] == Path(out2).read_text().splitlines()[2:]

    def test_config_of_wrong_length_rejected(self, scenario_file, tmp_path):
        config = tmp_path / "short.config.txt"
        config.write_text("0,1,0,1\n")  # 4 bits for a 256-element panel
        out = tmp_path / "short.csv"
        rc = main(["sweep-alpha", "--scenario", scenario_file, "--out", str(out),
                   "--config", str(config)])
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists()

    def test_missing_config_file_rejected(self, tiny_scenario_file, tmp_path):
        out = tmp_path / "ghost.csv"
        rc = main(["sweep-alpha", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--config", str(tmp_path / "ghost.config.txt")])
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists()


class TestSweepPowerCommand:
    def test_rows_and_feasibility(self, scenario_file, tmp_path):
        out = str(tmp_path / "sp.csv")
        rc = main(["sweep-power", "--scenario", scenario_file, "--out", out,
                   "--seed", "1", "--eta", "0.01", "--gamma-bob-db", "2.2",
                   "--alpha-grid", "301", "--pt-sweep=-20:10:10"])
        assert rc == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["pt_dbm", "alpha1", "feasible", "c_bob", "c_eve", "c_secrecy"]
        assert [float(r["pt_dbm"]) for r in rows] == [-20.0, -10.0, 0.0, 10.0]
        assert all(r["feasible"] == "true" for r in rows)

    def test_infeasible_everywhere_exit_code(self, scenario_file, tmp_path):
        out = str(tmp_path / "spbad.csv")
        rc = main(["sweep-power", "--scenario", scenario_file, "--out", out,
                   "--seed", "1", "--eta", "0.01", "--gamma-bob-db", "150",
                   "--alpha-grid", "101", "--pt-sweep=-10:10:0"])
        assert rc == EXIT_INFEASIBLE
        _, rows = read_rows(out)
        assert all(r["feasible"] == "false" for r in rows)

    def test_missing_thresholds_is_input_error(self, scenario_file, tmp_path):
        rc = main(["sweep-power", "--scenario", scenario_file,
                   "--out", str(tmp_path / "x.csv"), "--eta", "0.01"])
        assert rc == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("sweep", ["0:1:inf", "nan:1:5"])
    def test_non_finite_pt_sweep_is_input_error(self, tiny_scenario_file, tmp_path, capsys, sweep):
        out = tmp_path / "x.csv"
        rc = main(["sweep-power", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--eta", "0.01", "--gamma-bob-db", "2.2", f"--pt-sweep={sweep}"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists()
        assert "--pt-sweep" in err and "Traceback" not in err

    def test_too_many_pt_sweep_points_is_input_error(self, tiny_scenario_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["sweep-power", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--eta", "0.01", "--gamma-bob-db", "2.2", "--pt-sweep=0:1e-6:1"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists()
        assert "--pt-sweep" in err and "1000001 points" in err

    def test_pt_sweep_above_power_cap_is_input_error(self, tiny_scenario_file, tmp_path, capsys,
                                                      monkeypatch):
        # rejected while parsing: no channel is built and no point is solved
        import risjam.harness as harness

        built = []
        monkeypatch.setattr(harness, "build_channel_set", lambda sc: built.append(sc))
        out = tmp_path / "x.csv"
        rc = main(["sweep-power", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--eta", "0.01", "--gamma-bob-db", "2.2", "--pt-sweep=140:10:160"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists() and built == []
        assert "--pt-sweep" in err and "160.0 dBm" in err and "150.0 dBm" in err

    def test_pt_sweep_point_without_a_power_is_input_error(self, tiny_scenario_file, tmp_path, capsys,
                                                           monkeypatch):
        # rejected while parsing: no channel is built and no phase is optimized
        import risjam.harness as harness

        built = []
        monkeypatch.setattr(harness, "build_channel_set", lambda sc: built.append(sc))
        out = tmp_path / "x.csv"
        rc = main(["sweep-power", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--eta", "0.01", "--gamma-bob-db", "2.2", "--pt-sweep=-4000:1000:0"])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists() and built == []
        assert "--pt-sweep" in err and "-4000.0 dBm" in err

    def test_eta_one_recovers_unconstrained_argmax(self, scenario_file, tmp_path):
        from risjam.optimize import optimize_alpha
        from risjam.secrecy import SecrecyThresholds

        out = str(tmp_path / "eta1.csv")
        rc = main(["sweep-power", "--scenario", scenario_file, "--out", out,
                   "--seed", "1", "--eta", "1.0", "--gamma-bob-db", "10",
                   "--alpha-grid", "501", "--pt-sweep=10:1:10"])
        assert rc == EXIT_OK
        _, rows = read_rows(out)
        sc = load_scenario(scenario_file)
        ch = build_channel_set(sc)
        cfg, _ = optimized_config(sc, ch, "iterative", seed=1)
        free = optimize_alpha(replace(sc, pt_dbm=10.0), ch, cfg,
                              SecrecyThresholds(0.0, float("inf")), 501)
        assert float(rows[0]["alpha1"]) == pytest.approx(free.alpha1, abs=2e-3)


class TestPathGainsOncePerConfig:
    """The power-split commands evaluate a configuration's eight path gains once, not per point."""

    @pytest.fixture
    def counts(self, scenario_file, tmp_path, monkeypatch):
        import risjam.secrecy as secrecy
        from risjam.scene import ScenarioConfig

        config = str(tmp_path / "opt")
        assert main(["optimize-phases", "--scenario", scenario_file, "--out", config]) == EXIT_OK
        counts = {"gains": 0, "scenarios": 0, "config": config + ".config.txt"}
        gain, init = secrecy.cascaded_gain, ScenarioConfig.__init__

        def counting_gain(*args):
            counts["gains"] += 1
            return gain(*args)

        def counting_init(self, *args, **kwargs):
            counts["scenarios"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(secrecy, "cascaded_gain", counting_gain)
        monkeypatch.setattr(ScenarioConfig, "__init__", counting_init)
        return counts

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_sweep_alpha_eight_gains_per_block(self, counts, scenario_file, tmp_path, blocks):
        zero = ["--include-zero"] if blocks == 2 else []
        rc = main(["sweep-alpha", "--scenario", scenario_file, "--out", str(tmp_path / "a.csv"),
                   "--config", counts["config"], "--alpha-grid", "11", *zero])
        assert rc == EXIT_OK
        assert counts["gains"] == 8 * blocks and counts["scenarios"] == 1

    def test_sweep_power_eight_gains_in_all(self, counts, scenario_file, tmp_path):
        out = str(tmp_path / "p.csv")
        rc = main(["sweep-power", "--scenario", scenario_file, "--out", out,
                   "--config", counts["config"], "--eta", "0.01", "--gamma-bob-db", "2.2",
                   "--pt-sweep=-30:10:10"])
        assert rc == EXIT_OK
        assert len(read_rows(out)[1]) == 5
        assert counts["gains"] == 8 and counts["scenarios"] == 1


class TestSolveAlphaCommand:
    def test_record(self, scenario_file, tmp_path):
        out = str(tmp_path / "sol.csv")
        rc = main(["solve-alpha", "--scenario", scenario_file, "--out", out,
                   "--seed", "1", "--eta", "0.01", "--gamma-bob-db", "2.2",
                   "--alpha-grid", "301"])
        assert rc == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["alpha1", "feasible", "c_bob", "c_eve", "c_secrecy",
                          "binding_constraint"]
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["alpha1"]) < 1.0

    def test_bob_behind_the_panel_is_input_error(self, scenario_file, tmp_path, capsys):
        text = Path(scenario_file).read_text()
        assert "\nbob = 1.19, 1.41, 0.0\n" in text
        scn = tmp_path / "behind.scn"
        scn.write_text(text.replace("\nbob = 1.19,", "\nbob = -1.19,"))
        out = tmp_path / "behind.csv"
        rc = main(["solve-alpha", "--scenario", str(scn), "--out", str(out),
                   "--seed", "1", "--eta", "0.01", "--gamma-bob-db", "2.2"])
        assert rc == EXIT_INPUT_ERROR
        assert "bob is not in front" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta, gamma_bob_db", [("nan", "2.2"), ("0.01", "nan"),
                                                   ("0.01", "inf"), ("0.01", "4000")])
    def test_non_finite_thresholds_are_input_errors(self, tiny_scenario_file, tmp_path,
                                                    eta, gamma_bob_db):
        out = tmp_path / "sol.csv"
        rc = main(["solve-alpha", "--scenario", tiny_scenario_file, "--out", str(out),
                   "--eta", eta, "--gamma-bob-db", gamma_bob_db])
        assert rc == EXIT_INPUT_ERROR
        assert not out.exists()

    def test_infeasible_exit(self, scenario_file, tmp_path):
        rc = main(["solve-alpha", "--scenario", scenario_file,
                   "--out", str(tmp_path / "sol2.csv"),
                   "--seed", "1", "--eta", "0.01", "--gamma-bob-db", "150",
                   "--alpha-grid", "51"])
        assert rc == EXIT_INFEASIBLE


class TestDumpChannelsCommand:
    def test_table(self, scenario_file, tmp_path):
        out = str(tmp_path / "chan.csv")
        rc = main(["dump-channels", "--scenario", scenario_file, "--out", out])
        assert rc == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["n", "h_s_amp", "h_s_phase", "h_a_amp", "h_a_phase",
                          "h_b_amp", "h_b_phase", "h_e_amp", "h_e_phase"]
        assert len(rows) == 256
        assert [int(r["n"]) for r in rows] == list(range(1, 257))
        for r in rows[:10]:
            assert 0.0 <= float(r["h_s_phase"]) < 2 * math.pi


class TestCliErrors:
    def test_python_m_risjam(self, scenario_file, tmp_path):
        out = tmp_path / "channels.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "risjam", "dump-channels", "--scenario", scenario_file, "--out", str(out)],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert out.read_text().count("\n") == 258

    def test_unknown_command(self):
        assert main(["fly"]) == EXIT_INPUT_ERROR

    def test_unknown_option(self, scenario_file, tmp_path):
        rc = main(["sweep-alpha", "--scenario", scenario_file,
                   "--out", str(tmp_path / "x.csv"), "--turbo"])
        assert rc == EXIT_INPUT_ERROR

    def test_missing_scenario_file(self, tmp_path):
        rc = main(["sweep-alpha", "--scenario", str(tmp_path / "ghost.scn"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT_ERROR

    def test_one_hertz_carrier_is_input_error(self, tmp_path, capsys):
        # lambda = 300 000 km puts every node in an element's near field
        text = DEFAULT_SCENARIO.read_text()
        assert "\nfc_hz = 3750000000.0\n" in text
        scn = tmp_path / "one-hertz.scn"
        scn.write_text(text.replace("\nfc_hz = 3750000000.0\n", "\nfc_hz = 1\n"))
        out = tmp_path / "chan.csv"
        rc = main(["dump-channels", "--scenario", str(scn), "--out", str(out)])
        assert rc == EXIT_INPUT_ERROR
        assert "cs_tx is within one wavelength" in capsys.readouterr().err
        assert not out.exists()

    def test_odd_ris_cols_is_input_error(self, tmp_path, capsys):
        # 2x3 has an even element count, but the panel splits into column halves
        text = DEFAULT_SCENARIO.read_text()
        scn = tmp_path / "odd-cols.scn"
        scn.write_text(text.replace("\nris_rows = 16\nris_cols = 16\n", "\nris_rows = 2\nris_cols = 3\n"))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main(["dump-channels", "--scenario", str(scn), "--out", str(out_dir / "chan.csv")])
        assert rc == EXIT_INPUT_ERROR
        assert "ris_cols = 3 must be even" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_dft_on_a_partition_size_not_a_power_of_two_is_input_error(self, tmp_path, capsys):
        text = DEFAULT_SCENARIO.read_text()
        scn = tmp_path / "16x12.scn"
        scn.write_text(text.replace("\nris_cols = 16\n", "\nris_cols = 12\n"))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main(["optimize-phases", "--scenario", str(scn), "--out", str(out_dir / "run"),
                   "--algorithm", "dft"])
        assert rc == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "power of 2, got 96" in err and "one bit per partition element" in err
        assert list(out_dir.iterdir()) == []

    def test_infinite_carrier_is_input_error(self, tmp_path, capsys):
        # lambda = c / inf = 0 would pass the one-wavelength rule
        text = DEFAULT_SCENARIO.read_text()
        scn = tmp_path / "inf-carrier.scn"
        scn.write_text(text.replace("\nfc_hz = 3750000000.0\n", "\nfc_hz = inf\n"))
        out = tmp_path / "chan.csv"
        rc = main(["dump-channels", "--scenario", str(scn), "--out", str(out)])
        assert rc == EXIT_INPUT_ERROR
        assert "fc_hz must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    # 10 ** (x / 10) overflows (a bare OverflowError) or underflows to 0 W
    # (a divide-by-zero, or an all-zero solution) for these values; a noise
    # power of -3200 dBm is subnormal, so a SINR overflows to inf.
    @pytest.mark.parametrize("key, value", [("pt_dbm", -4000), ("noise_bob_dbm", 4000),
                                            ("noise_eve_dbm", -4000), ("tx_gain_dbi", 4000),
                                            ("noise_bob_dbm", -3200), ("noise_eve_dbm", -3200)])
    def test_db_value_without_a_linear_value_is_input_error(self, tmp_path, capsys, key, value):
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", DEFAULT_SCENARIO.read_text(),
                              flags=re.MULTILINE)
        assert count == 1
        scn = tmp_path / "huge-db.scn"
        scn.write_text(text)
        out = tmp_path / "solution.csv"
        rc = main(["solve-alpha", "--scenario", str(scn), "--out", str(out),
                   "--eta", "0.01", "--gamma-bob-db", "2.2"])
        assert rc == EXIT_INPUT_ERROR
        assert f"risjam: error: {key} = " in capsys.readouterr().err
        assert not out.exists()

    # About 1e305 W: the capacities used to overflow to inf and nan, and the
    # command wrote them and exited 0.
    def test_huge_transmit_power_is_input_error(self, tmp_path, capsys):
        text, count = re.subn(r"^pt_dbm = .*$", "pt_dbm = 3080", DEFAULT_SCENARIO.read_text(),
                              flags=re.MULTILINE)
        assert count == 1
        scn = tmp_path / "huge-pt.scn"
        scn.write_text(text)
        out = tmp_path / "alpha.csv"
        rc = main(["sweep-alpha", "--scenario", str(scn), "--out", str(out), "--alpha-grid", "3"])
        assert rc == EXIT_INPUT_ERROR
        assert "risjam: error: pt_dbm = 3080" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_at_the_floor_is_accepted(self, tmp_path):
        text = DEFAULT_SCENARIO.read_text()
        for key in ("noise_bob_dbm", "noise_eve_dbm"):
            text, count = re.subn(rf"^{key} = .*$", f"{key} = -200", text, flags=re.MULTILINE)
            assert count == 1
        scn = tmp_path / "floor.scn"
        scn.write_text(text)
        out = tmp_path / "alpha.csv"
        assert main(["sweep-alpha", "--scenario", str(scn), "--out", str(out),
                     "--alpha-grid", "11"]) == EXIT_OK
        rows = [row.split(",") for row in out.read_text().splitlines()[2:]]
        assert len(rows) == 11
        assert all(math.isfinite(float(c)) for row in rows for c in row[1:4])

    def test_malformed_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("fc_hz = 1e9\nwarp_drive = on\n")
        rc = main(["dump-channels", "--scenario", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT_ERROR

    def test_flag_sets(self):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        flags = {name: {option for a in sub._actions for option in a.option_strings}
                 - {"-h", "--help"} for name, sub in action.choices.items()}
        assert flags == {name: read | {"--scenario", "--out"} for name, read in FLAGS_READ.items()}
        assert sum(len(options) for options in flags.values()) == 30

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[" ".join(p) for p in UNREAD_FLAGS])
    def test_unread_flag_rejected(self, tiny_scenario_file, tmp_path, capsys, command, flag):
        value = FLAG_VALUES[flag]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main([command, "--scenario", tiny_scenario_file, "--out", str(out_dir / "x"),
                   *required_flags(command), flag if value is None else f"{flag}={value}"])
        assert rc == EXIT_INPUT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-power", "solve-alpha"])
    def test_alpha_grid_below_two_rejected(self, tiny_scenario_file, tmp_path, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main([command, "--scenario", tiny_scenario_file, "--out", str(out_dir / "x.csv"),
                   *required_flags(command), "--alpha-grid", "1"])
        assert rc == EXIT_INPUT_ERROR
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-power", "solve-alpha"])
    def test_alpha_grid_above_cap_rejected(self, tiny_scenario_file, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main([command, "--scenario", tiny_scenario_file, "--out", str(out_dir / "x.csv"),
                   *required_flags(command), "--alpha-grid", str(MAX_ALPHA_GRID_POINTS + 1)])
        assert rc == EXIT_INPUT_ERROR
        assert f"{MAX_ALPHA_GRID_POINTS + 1} points" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_unknown_algorithm_rejected(self, tiny_scenario_file, tmp_path):
        rc = main(["optimize-phases", "--scenario", tiny_scenario_file,
                   "--out", str(tmp_path / "run"), "--algorithm", "anneal"])
        assert rc == EXIT_INPUT_ERROR

    def test_readme_command_lines_parse(self):
        lines = readme_command_lines()
        assert {tokens[1] for tokens in lines} == set(FLAGS_READ)
        parser = build_parser()
        for tokens in lines:
            assert tokens[0] == "risjam"
            parser.parse_args(tokens[1:])

    def test_readme_quick_tour_runs(self):
        blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
        assert len(blocks) == 1
        proc = subprocess.run([sys.executable, "-c", blocks[0].split("```", 1)[0]], cwd=ROOT,
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        values = [float(v) for v in proc.stdout.split()]
        assert len(values) == 3 and all(map(math.isfinite, values))

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "optimize-phases" in capsys.readouterr().out


class TestOptimizedConfigHelper:
    def test_zero_has_no_traces(self, table_scenario, table_channels):
        cfg, traces = optimized_config(table_scenario, table_channels, "zero", seed=1)
        assert traces == {}
        assert np.all(cfg.phases == 0.0)

    def test_dft_concatenates_partition_winners(self, table_scenario, table_channels):
        from risjam.optimize import an_power_at_eve, cs_power_at_bob, dft_sweep
        from risjam.ris import binary_dft_codebook, zero_config

        sc, ch = table_scenario, table_channels
        cfg, traces = optimized_config(sc, ch, "dft", seed=5)
        base = zero_config(256)
        cb = binary_dft_codebook(128)
        cfg_b, _ = dft_sweep(cs_power_at_bob(sc, ch), base, ch.bob_indices, cb, seed=5)
        cfg_e, _ = dft_sweep(an_power_at_eve(sc, ch), base, ch.eve_indices, cb, seed=6)
        np.testing.assert_array_equal(
            cfg.phases[list(ch.bob_indices)], cfg_b.phases[list(ch.bob_indices)]
        )
        np.testing.assert_array_equal(
            cfg.phases[list(ch.eve_indices)], cfg_e.phases[list(ch.eve_indices)]
        )

    def test_panel_dft_memory(self, table_scenario):
        # The 64x64 DFT job held a 16.8 MB float codebook through both sweeps
        # (traced peak 23.5 MB); bit rows and blocked phase rows keep it small.
        sc = replace(table_scenario, ris_rows=64, ris_cols=64)
        ch = build_channel_set(sc)
        tracemalloc.start()
        try:
            cfg, traces = optimized_config(sc, ch, "dft", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traces["rb"]) == len(traces["re"]) == 2048
        assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"
