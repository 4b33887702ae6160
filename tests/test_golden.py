"""Golden lock: byte-exact CLI outputs and channel bits on the bundled scene.

The files under tests/golden/ are the outputs of the README's seven
reproduction commands on scenarios/default.scn at seed 1. A refactor that
moves any digit of any CSV, or flips a tie in a search, fails here. The
channel digests pin the full-precision amplitude and phase arrays and the
path-loss products, which the CSVs round to 9 significant digits; the search
digests, capacity-ratio values and power-split solutions do the same for the
optimizer traces, the power-split bisection and the constrained solve. The
sweep references hold the two power-split commands, row by row at full
precision, to a reference loop that evaluates every point on its own, and the
panel digests pin their bytes on a 64x64 panel.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from risjam import harness
from risjam.channel import build_channel_set
from risjam.harness import main, optimized_config, parse_pt_sweep
from risjam.optimize import capacity_ratio_alpha, optimize_alpha
from risjam.ris import save_phase_config, zero_config
from risjam.scene import format_scenario, load_scenario, scenario_hash
from risjam.secrecy import (
    SecrecyThresholds,
    beta_terms,
    capacity_report,
    capacity_report_row,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = str(ROOT / "scenarios" / "default.scn")
GOLDEN = Path(__file__).resolve().parent / "golden"
ETA = ("--gamma-bob-db", "2.2", "--eta")

# (command line after --scenario/--out, --out value, files written)
COMMANDS = {
    "optimize-iterative": (("optimize-phases", "--algorithm", "iterative", "--seed", "1"),
                           "run-it", ("run-it.trace.csv", "run-it.config.txt")),
    "optimize-dft": (("optimize-phases", "--algorithm", "dft", "--seed", "1"),
                     "run-dft", ("run-dft.trace.csv", "run-dft.config.txt")),
    "sweep-alpha": (("sweep-alpha", "--seed", "1", "--alpha-grid", "101", "--include-zero"),
                    "alpha.csv", ("alpha.csv",)),
    "sweep-power-eta1": (("sweep-power", "--seed", "1", *ETA, "0.01", "--pt-sweep=-30:2:10"),
                         "power1.csv", ("power1.csv",)),
    "sweep-power-eta10": (("sweep-power", "--seed", "1", *ETA, "0.1", "--pt-sweep=-30:2:10"),
                          "power10.csv", ("power10.csv",)),
    "solve-alpha": (("solve-alpha", "--seed", "1", *ETA, "0.01"),
                    "solution.csv", ("solution.csv",)),
    "dump-channels": (("dump-channels",), "channels.csv", ("channels.csv",)),
}

# sha256 over the amplitude and phase bytes of hops s, a, b, e (in that
# order), then repr of the sorted (path key, path_loss) pairs of ch.paths.
CHANNEL_DIGESTS = {
    16: "7db7fa38d5d6155d087337e9e15589dae543d45571dc551223ac5534a4ec6017",
    32: "df212330fc99184eae2466a460ff732d017d8357d763ff4282e2137505f2c3e8",
    64: "b28f45b6f317cb4a3e3bbc81bf2123acfc2d005bc3437e1cfededac914b9b373",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_bytes(name, tmp_path):
    args, out, files = COMMANDS[name]
    command, *options = args
    rc = main([command, "--scenario", SCENARIO, "--out", str(tmp_path / out), *options])
    assert rc == 0
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


# sha256 over "trial,repr(power_w),repr(best_power_w)" of every trace entry
# (rb then re), then the final config bits, at seed 1.
SEARCH_DIGESTS = {
    ("iterative", 16): "ee6a4d79f54b8b8d175d71774c9eec1f1d7ec0b3135c9d57a94a422482fd891d",
    ("dft", 16): "a51e32e3e3f573afd640995d290d06c3d4aeaf9253133e1e43d94d6c7a442712",
    ("iterative", 32): "d6562f8007035605615835076ddd952fed0188d9cadb24963c3753fb6a9f32f3",
    ("dft", 32): "d08055a01cea82f69c6ad5d93c8bde57b72df68e71038569b93689ea81f0bcdd",
    # panel scale: 1025 codewords and 1023 seeded padding trials per partition
    ("dft", 64): "74852d728ab9818dce1927e4320c140bb7a7c5009a7aafc3c01ad4dd084c50da",
}

# Largest alpha1 keeping Eve's capacity under 1% of Bob's, at seed 2 (the
# README's 0.69 and 0.89), exactly as the grid-1001 scan and bisection give it.
CAPACITY_RATIO_ALPHA = {"iterative": 0.6908281250000001, "dft": 0.8925937500000001}

# repr of (alpha1, feasible, c_bob, c_eve, c_secrecy, binding) from
# optimize_alpha at seed 1, gamma_B = 2.2 dB, grid 1001, on the bundled scene.
OPTIMIZE_ALPHA = {
    ("iterative", 0.01):
        "(0.5521875, True, 7.651571593575516, 0.023746051572345425, 7.627825542003171, 'C2')",
    ("iterative", 0.1):
        "(0.9251640624999999, True, 10.481740842488813, 0.22150769288418867, 10.260233149604625, 'C2')",
    ("dft", 0.01):
        "(0.7229921875, True, 6.099585194872846, 0.023745451199534272, 6.075839743673312, 'C2')",
    ("dft", 0.1):
        "(0.964328125, True, 8.238505773629697, 0.2215163357508587, 8.016989437878838, 'C2')",
}


def scene(side: int):
    sc = load_scenario(SCENARIO)
    return replace(sc, ris_rows=side, ris_cols=side)


def channel_digest(ch) -> str:
    h = hashlib.sha256()
    for name in ("s", "a", "b", "e"):
        h.update(ch.amplitudes(name).tobytes())
        h.update(ch.phases(name).tobytes())
    h.update(repr(sorted((key, path.path_loss) for key, path in ch.paths.items())).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("side", sorted(CHANNEL_DIGESTS))
def test_channel_set_digest(side):
    assert channel_digest(build_channel_set(scene(side))) == CHANNEL_DIGESTS[side]


def search_digest(cfg, traces) -> str:
    h = hashlib.sha256()
    for part in ("rb", "re"):
        for entry in traces[part]:
            h.update(f"{entry.trial},{entry.power_w!r},{entry.best_power_w!r}\n".encode("utf-8"))
    h.update(cfg.bits().tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm,side", sorted(SEARCH_DIGESTS))
def test_search_digest(algorithm, side):
    sc = scene(side)
    cfg, traces = optimized_config(sc, build_channel_set(sc), algorithm, seed=1)
    assert search_digest(cfg, traces) == SEARCH_DIGESTS[(algorithm, side)]


@pytest.mark.parametrize("algorithm", sorted(CAPACITY_RATIO_ALPHA))
def test_capacity_ratio_alpha_exact(algorithm):
    sc = scene(16)
    ch = build_channel_set(sc)
    cfg, _ = optimized_config(sc, ch, algorithm, seed=2)
    alpha = capacity_ratio_alpha(sc, ch, cfg, 0.01, grid=1001)
    assert alpha == CAPACITY_RATIO_ALPHA[algorithm]


@pytest.mark.parametrize("algorithm,eta", sorted(OPTIMIZE_ALPHA))
def test_optimize_alpha_exact(algorithm, eta):
    sc = load_scenario(SCENARIO)
    ch = build_channel_set(sc)
    cfg, _ = optimized_config(sc, ch, algorithm, seed=1)
    th = SecrecyThresholds.from_eta(10.0 ** (2.2 / 10.0), eta)
    sol = optimize_alpha(sc, ch, cfg, th, grid=1001)
    r = sol.report
    got = (sol.alpha1, sol.feasible, r.c_bob, r.c_eve, r.c_secrecy, sol.binding)
    assert repr(got) == OPTIMIZE_ALPHA[(algorithm, eta)]


def test_bundled_file_is_default_scenario():
    assert scenario_hash(load_scenario(SCENARIO)) == "959394160b8a24e5"


def written_rows(monkeypatch, argv):
    """Run one command and return its exit code and the rows it hands to write_csv, unrounded."""
    rows = []
    monkeypatch.setattr(harness, "write_csv",
                        lambda path, columns, data, sc, seed: rows.extend(data))
    return main(argv), rows


# -30, -10, ..., 150 dBm: the README's sweep ends and the transmit-power cap.
PT_SWEEP = "-30:20:150"


@pytest.mark.parametrize("eta", [0.01, 0.1])
@pytest.mark.parametrize("algorithm", ["iterative", "dft"])
def test_sweep_power_rows_match_per_point_solves(algorithm, eta, monkeypatch, tmp_path):
    sc = load_scenario(SCENARIO)
    ch = build_channel_set(sc)
    cfg, _ = optimized_config(sc, ch, algorithm, seed=1)
    th = SecrecyThresholds.from_eta(10.0 ** (2.2 / 10.0), eta)
    rc, rows = written_rows(monkeypatch, [
        "sweep-power", "--scenario", SCENARIO, "--out", str(tmp_path / "power.csv"),
        "--algorithm", algorithm, "--seed", "1", *ETA, str(eta), f"--pt-sweep={PT_SWEEP}"])
    points = parse_pt_sweep(PT_SWEEP)
    assert {-30.0, 10.0, 150.0} <= set(points)
    expected = []
    for p in points:
        sol = optimize_alpha(replace(sc, pt_dbm=p), ch, cfg, th, 1001)
        r = sol.report
        expected.append((p, sol.alpha1, sol.feasible, r.c_bob, r.c_eve, r.c_secrecy))
    assert rc == 0
    assert repr(rows) == repr(expected)


@pytest.mark.parametrize("algorithm", ["iterative", "dft"])
def test_sweep_alpha_rows_match_per_alpha_beta_terms(algorithm, monkeypatch, tmp_path):
    sc = load_scenario(SCENARIO)
    ch = build_channel_set(sc)
    cfg, _ = optimized_config(sc, ch, algorithm, seed=1)
    rc, rows = written_rows(monkeypatch, [
        "sweep-alpha", "--scenario", SCENARIO, "--out", str(tmp_path / "alpha.csv"),
        "--algorithm", algorithm, "--seed", "1", "--alpha-grid", "101", "--include-zero"])
    expected = []
    for config, label in ((cfg, algorithm), (zero_config(ch.n_elements), "zero")):
        for a in np.linspace(0.0, 1.0, 101):
            report = capacity_report(beta_terms(sc, ch, config, float(a)), sc.noise_bob_watts, sc.noise_eve_watts)
            row = capacity_report_row(float(a), report)
            cb, ce = float(f"{row[1]:.9g}"), float(f"{row[2]:.9g}")
            expected.append((*row[:3], max(cb - ce, 0.0), *row[4:], label))
    assert rc == 0
    assert repr(rows) == repr(expected)


# sha256 of each sweep's CSV on the bundled scene with a 64x64 panel, from the
# seed-1 DFT config passed with --config (the benchmark's panel-cli sweeps).
PANEL_SWEEP_DIGESTS = {
    "sweep-alpha": (("sweep-alpha", "--seed", "1"),
                    "afd33ba66ec222c4f2af34ecc95d172a1721ff6c7915359713dbc2826f62b1bf"),
    "sweep-power-eta1": (("sweep-power", "--seed", "1", *ETA, "0.01"),
                         "ae43ec7d2b63b2dfa12718378f1dd11b99e52d973997ac2142d12fa9c6a3d919"),
    "sweep-power-eta10": (("sweep-power", "--seed", "1", *ETA, "0.1"),
                          "487aa12cf1abd84188946f4aa32a21953992aa7579e6b868e2ee8ae3607c1a19"),
}


@pytest.fixture(scope="module")
def panel64(tmp_path_factory):
    """A 64x64 scenario file and its seed-1 DFT config file."""
    work = tmp_path_factory.mktemp("panel64")
    sc = scene(64)
    cfg, _ = optimized_config(sc, build_channel_set(sc), "dft", seed=1)
    (work / "panel64.scn").write_text(format_scenario(sc), encoding="utf-8")
    save_phase_config(cfg, work / "opt.config.txt")
    return work


@pytest.mark.parametrize("name", sorted(PANEL_SWEEP_DIGESTS))
def test_panel_sweep_digest(name, panel64, tmp_path):
    (command, *options), digest = PANEL_SWEEP_DIGESTS[name]
    out = tmp_path / "out.csv"
    rc = main([command, "--scenario", str(panel64 / "panel64.scn"), "--out", str(out),
               "--config", str(panel64 / "opt.config.txt"), *options])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
