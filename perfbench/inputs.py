"""Benchmark inputs: canonical scenario text, panel-size variants and job lists.

The scenario text is rendered here in the same canonical form risjam uses for
its header hash (format_scenario), without importing risjam, so the hash each
CSV header must carry is known before the program runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED_SCENARIO = "scenarios/default.scn"
BUNDLED_HASH = "959394160b8a24e5"

_FLOAT_KEYS = ("fc_hz", "fs_hz", "pt_dbm", "noise_bob_dbm", "noise_eve_dbm")
_TRIPLE_KEYS = ("cs_tx", "an_tx", "bob", "eve")
# Key order of the canonical text.
_KEYS = _FLOAT_KEYS + _TRIPLE_KEYS + (
    "ris_rows", "ris_cols", "ris_spacing_m", "ris_center", "tx_gain_dbi", "pattern_kind",
)
_TRIPLES = _TRIPLE_KEYS + ("ris_center",)
_INTS = ("ris_rows", "ris_cols")

GAMMA_BOB_DB = 2.2
ETAS = (0.01, 0.1)
SEED_STUDY_JOBS = 8


class InputError(RuntimeError):
    """The checkout does not hold the inputs the benchmark was written for."""


def parse_scenario_text(text: str) -> dict[str, str]:
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            values[key] = value
    if set(values) != set(_KEYS):
        raise InputError(f"scenario keys differ from the expected schema: {sorted(values)}")
    return values


def canonical_text(values: dict[str, str]) -> str:
    def render(key: str) -> str:
        v = values[key]
        if key in _TRIPLES:
            return ", ".join(repr(float(p)) for p in v.split(","))
        if key in _INTS:
            return str(int(float(v)))
        if key == "pattern_kind":
            return v
        return repr(float(v))

    return "".join(f"{k} = {render(k)}\n" for k in _KEYS)


def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    path: str          # as passed on the command line
    sha: str           # hash the CSV header must carry
    n_elements: int


def bundled_scenario(root: Path) -> Scenario:
    """The bundled desk-scale scenario, checked against its recorded hash."""
    values = parse_scenario_text((root / BUNDLED_SCENARIO).read_text(encoding="utf-8"))
    sha = scenario_hash(canonical_text(values))
    if sha != BUNDLED_HASH:
        raise InputError(f"{BUNDLED_SCENARIO} hashes to {sha}, expected {BUNDLED_HASH}")
    return Scenario(BUNDLED_SCENARIO, sha, int(values["ris_rows"]) * int(values["ris_cols"]))


def panel_scenario(root: Path, work: Path, side: int) -> Scenario:
    """The bundled scene with a side x side panel, written in canonical form."""
    values = parse_scenario_text((root / BUNDLED_SCENARIO).read_text(encoding="utf-8"))
    values["ris_rows"] = values["ris_cols"] = str(side)
    text = canonical_text(values)
    path = work / f"panel{side}.scn"
    path.write_text(text, encoding="utf-8")
    return Scenario(str(path), scenario_hash(text), side * side)


@dataclass(frozen=True)
class CliJob:
    """One risjam command; {dir} in args is replaced by the cycle's output directory.

    outputs maps each file the command writes (relative to {dir}) to its kind
    (see checks.py). oracle_calls is what the code must spend on phase search:
    N/2 + 1 per partition for an iterative pass, N/2 per partition for a DFT
    sweep, nothing when phases come from --config.
    """

    name: str
    args: tuple[str, ...]
    outputs: dict[str, str]
    header_seed: int
    algorithm: str
    oracle_calls: int


def _iterative_calls(n: int) -> int:
    return 2 * (n // 2 + 1)


def desk_jobs(sc: Scenario, seed: int) -> list[CliJob]:
    """The README's seven reproduction commands on the bundled scenario."""
    s, n, base = str(seed), sc.n_elements, ("--scenario", sc.path)
    it = _iterative_calls(n)
    eta = [("--eta", str(e), "--gamma-bob-db", str(GAMMA_BOB_DB)) for e in ETAS]
    return [
        CliJob("optimize-iterative",
               ("optimize-phases", *base, "--out", "{dir}/run-it", "--algorithm", "iterative", "--seed", s),
               {"run-it.trace.csv": "trace", "run-it.config.txt": "config"}, seed, "iterative", it),
        CliJob("optimize-dft",
               ("optimize-phases", *base, "--out", "{dir}/run-dft", "--algorithm", "dft", "--seed", s),
               {"run-dft.trace.csv": "trace", "run-dft.config.txt": "config"}, seed, "dft", n),
        CliJob("sweep-alpha",
               ("sweep-alpha", *base, "--out", "{dir}/alpha.csv", "--seed", s, "--alpha-grid", "101",
                "--include-zero"),
               {"alpha.csv": "alpha"}, seed, "iterative", it),
        CliJob("sweep-power-eta1",
               ("sweep-power", *base, "--out", "{dir}/power1.csv", "--seed", s, *eta[0], "--pt-sweep=-30:2:10"),
               {"power1.csv": "power"}, seed, "iterative", it),
        CliJob("sweep-power-eta10",
               ("sweep-power", *base, "--out", "{dir}/power10.csv", "--seed", s, *eta[1], "--pt-sweep=-30:2:10"),
               {"power10.csv": "power"}, seed, "iterative", it),
        CliJob("solve-alpha",
               ("solve-alpha", *base, "--out", "{dir}/solution.csv", "--seed", s, *eta[0]),
               {"solution.csv": "solution"}, seed, "iterative", it),
        # As in the README, without --seed: the header then records the default seed 1.
        CliJob("dump-channels", ("dump-channels", *base, "--out", "{dir}/channels.csv"),
               {"channels.csv": "channels"}, 1, "", 0),
    ]


def panel_jobs(sc: Scenario, seed: int) -> list[CliJob]:
    """Optimize once with the DFT sweep, then sweep many times from the saved config."""
    s, n, base = str(seed), sc.n_elements, ("--scenario", sc.path)
    cfg = ("--config", "{dir}/opt.config.txt")
    eta = [("--eta", str(e), "--gamma-bob-db", str(GAMMA_BOB_DB)) for e in ETAS]
    return [
        CliJob("optimize-dft",
               ("optimize-phases", *base, "--out", "{dir}/opt", "--algorithm", "dft", "--seed", s),
               {"opt.trace.csv": "trace", "opt.config.txt": "config"}, seed, "dft", n),
        CliJob("sweep-alpha", ("sweep-alpha", *base, "--out", "{dir}/alpha.csv", "--seed", s, *cfg),
               {"alpha.csv": "alpha"}, seed, "iterative", 0),
        CliJob("sweep-power-eta1",
               ("sweep-power", *base, "--out", "{dir}/power1.csv", "--seed", s, *eta[0], *cfg),
               {"power1.csv": "power"}, seed, "", 0),
        CliJob("sweep-power-eta10",
               ("sweep-power", *base, "--out", "{dir}/power10.csv", "--seed", s, *eta[1], *cfg),
               {"power10.csv": "power"}, seed, "", 0),
        CliJob("dump-channels", ("dump-channels", *base, "--out", "{dir}/channels.csv"),
               {"channels.csv": "channels"}, 1, "", 0),
    ]


def study_seeds(seed: int) -> list[int]:
    """Per-job optimizer seeds of a seed-study cycle, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(SEED_STUDY_JOBS)]
