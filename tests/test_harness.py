import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risjam.harness import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    ExperimentSpec,
    default_scenario,
    main,
    optimized_config,
    parse_pt_sweep,
)
from risjam.channel import build_channel_set
from risjam.ris import load_phase_config
from risjam.scene import load_scenario, save_scenario, RisGeometry, Position3D
from dataclasses import replace


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "default.scn"
    save_scenario(default_scenario(), path)
    return str(path)


@pytest.fixture(scope="module")
def tiny_scenario_file(tmp_path_factory):
    sc = replace(
        default_scenario(),
        ris=RisGeometry(rows=2, cols=2, spacing=0.041, center=Position3D(0.0, 0.0, 0.4)),
    )
    path = tmp_path_factory.mktemp("scn") / "tiny.scn"
    save_scenario(sc, path)
    return str(path)


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# scenario_sha256=")
    assert " seed=" in lines[0] and " version=" in lines[0]
    header = lines[1].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[2:]]


class TestParsePtSweep:
    def test_default_range(self):
        vals = parse_pt_sweep("-30:2:10")
        assert len(vals) == 21
        assert vals[0] == -30.0 and vals[-1] == 10.0

    def test_single_point(self):
        assert parse_pt_sweep("5:1:5") == (5.0,)

    def test_bad_forms(self):
        for bad in ("1:2", "a:b:c", "0:-1:5", "5:1:0", "1:0:2"):
            with pytest.raises(ValueError):
                parse_pt_sweep(bad)


class TestExperimentSpec:
    def test_missing_file_rejected(self):
        with pytest.raises(ValueError, match="not found"):
            ExperimentSpec(command="sweep-alpha", scenario_path="/no/such/file", out="x.csv")

    def test_small_grid_rejected(self, scenario_file):
        with pytest.raises(ValueError):
            ExperimentSpec(command="sweep-alpha", scenario_path=scenario_file,
                           out="x.csv", alpha_grid=1)

    def test_bad_algorithm_rejected(self, scenario_file):
        with pytest.raises(ValueError):
            ExperimentSpec(command="sweep-alpha", scenario_path=scenario_file,
                           out="x.csv", algorithm="anneal")


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
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "channels.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "risjam", "dump-channels", "--scenario", scenario_file, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
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

    def test_malformed_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("fc_hz = 1e9\nwarp_drive = on\n")
        rc = main(["dump-channels", "--scenario", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT_ERROR

    def test_config_only_where_read(self, tiny_scenario_file, tmp_path):
        config = tmp_path / "c.config.txt"
        config.write_text("0,0,0,0\n")
        rc = main(["optimize-phases", "--scenario", tiny_scenario_file,
                   "--out", str(tmp_path / "run"), "--config", str(config)])
        assert rc == EXIT_INPUT_ERROR
        assert not (tmp_path / "run.trace.csv").exists()

    def test_pt_sweep_only_on_sweep_power(self, tiny_scenario_file, tmp_path):
        rc = main(["solve-alpha", "--scenario", tiny_scenario_file,
                   "--out", str(tmp_path / "sol.csv"), "--eta", "0.01",
                   "--gamma-bob-db", "2.2", "--pt-sweep=-30:2:10"])
        assert rc == EXIT_INPUT_ERROR

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
