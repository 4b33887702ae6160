"""Golden lock: byte-exact CLI outputs and channel bits on the bundled scene.

The files under tests/golden/ are the outputs of the README's seven
reproduction commands on scenarios/default.scn at seed 1. A refactor that
moves any digit of any CSV, or flips a tie in a search, fails here. The
channel digests pin the full-precision amplitude and phase arrays and the
path-loss products, which the CSVs round to 9 significant digits.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from risjam.channel import build_channel_set
from risjam.harness import default_scenario, main
from risjam.scene import format_scenario, load_scenario, scenario_hash

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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_bytes(name, tmp_path):
    args, out, files = COMMANDS[name]
    command, *options = args
    rc = main([command, "--scenario", SCENARIO, "--out", str(tmp_path / out), *options])
    assert rc == 0
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


def channel_digest(ch) -> str:
    h = hashlib.sha256()
    for name in ("s", "a", "b", "e"):
        h.update(ch.amplitudes(name).tobytes())
        h.update(ch.phases(name).tobytes())
    h.update(repr(sorted(ch.path_loss.items())).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("side", sorted(CHANNEL_DIGESTS))
def test_channel_set_digest(side):
    sc = load_scenario(SCENARIO)
    sc = replace(sc, ris=replace(sc.ris, rows=side, cols=side))
    assert channel_digest(build_channel_set(sc)) == CHANNEL_DIGESTS[side]


def test_bundled_file_is_default_scenario():
    text = format_scenario(load_scenario(SCENARIO))
    assert format_scenario(default_scenario()) == text
    assert scenario_hash(default_scenario()) == "959394160b8a24e5"
