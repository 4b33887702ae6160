"""Golden lock: byte-exact CLI outputs and channel bits on the bundled scene.

The files under tests/golden/ are the outputs of the README's seven
reproduction commands on scenarios/default.scn at seed 1. A refactor that
moves any digit of any CSV, or flips a tie in a search, fails here. The
channel digests pin the full-precision amplitude and phase arrays and the
path-loss products, which the CSVs round to 9 significant digits; the search
digests, capacity-ratio values and power-split solutions do the same for the
optimizer traces, the power-split bisection and the constrained solve.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from risjam.channel import build_channel_set
from risjam.harness import main, optimized_config
from risjam.optimize import capacity_ratio_alpha, optimize_alpha
from risjam.scene import load_scenario, scenario_hash
from risjam.secrecy import SecrecyThresholds

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
# order), then repr(sorted(path_loss.items())).
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
    h.update(repr(sorted(ch.path_loss.items())).encode("utf-8"))
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
