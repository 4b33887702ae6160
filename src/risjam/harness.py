"""Command-line experiment harness: phase optimization runs and CSV sweeps.

Every emitted CSV starts with a comment line recording the scenario hash, the
seed and the tool version; data rows are written in deterministic order with
9-significant-digit numbers, so identical inputs reproduce identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import CHANNEL_DUMP_COLUMNS, ChannelSet, build_channel_set, channel_dump_rows
from .optimize import (
    an_power_at_eve,
    cs_power_at_bob,
    dft_sweep,
    iterative_optimize,
    optimize_alpha,
)
from .ris import PhaseConfig, binary_dft_codebook, load_phase_config, save_phase_config, set_partition, zero_config
from .scene import (
    Position3D,
    AntennaPattern,
    RisGeometry,
    ScenarioConfig,
    ScenarioFormatError,
    load_scenario,
    scenario_hash,
    watts_to_dbm,
)
from .secrecy import (
    CAPACITY_REPORT_COLUMNS,
    PowerSplit,
    SecrecyThresholds,
    beta_terms,
    capacity_report,
    capacity_report_row,
)

ALGORITHMS = ("iterative", "dft", "zero")

TRACE_COLUMNS = ("trial", "power_dbm", "best_power_dbm", "partition", "algorithm")
SOLUTION_COLUMNS = ("alpha1", "feasible", "c_bob", "c_eve", "c_secrecy", "binding_constraint")
POWER_SWEEP_COLUMNS = ("pt_dbm", "alpha1", "feasible", "c_bob", "c_eve", "c_secrecy")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


@dataclass
class ExperimentSpec:
    """Parsed description of one harness invocation."""

    command: str
    scenario_path: str
    out: str
    algorithm: str = "iterative"
    seed: int = 1
    alpha_grid: int = 101
    pt_sweep: tuple[float, ...] = ()
    eta: float | None = None
    gamma_bob_db: float | None = None
    include_zero: bool = False
    config_path: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.alpha_grid < 2:
            raise ValueError("alpha grid must have at least 2 points")
        for path in (self.scenario_path, self.config_path):
            if path is not None and not os.path.isfile(path):
                raise ValueError(f"file not found: {path}")


def default_scenario() -> ScenarioConfig:
    """The bundled desk-scale scenario (3.75 GHz, 256-element panel)."""
    return ScenarioConfig(
        fc_hz=3.75e9,
        fs_hz=0.5e6,
        pt_dbm=-9.0,
        noise_bob_dbm=-90.0,
        noise_eve_dbm=-90.0,
        cs_tx=Position3D(0.74, 0.31, 0.0),
        an_tx=Position3D(0.74, -0.31, 0.0),
        bob=Position3D(1.19, 1.41, 0.0),
        eve=Position3D(1.19, -1.41, 0.0),
        ris=RisGeometry(rows=16, cols=16, spacing=0.041, center=Position3D(0.0, 0.0, 0.4)),
        tx_pattern=AntennaPattern(kind="cosine", boresight_gain_dbi=13.0),
        ris_element_pattern=AntennaPattern(kind="cosine"),
    )


def optimized_config(
    sc: ScenarioConfig,
    ch: ChannelSet,
    algorithm: str,
    seed: int,
) -> tuple[PhaseConfig, dict[str, list]]:
    """Run the selected algorithm on both partitions and return config + traces.

    r_b is optimized against the communication-signal power at Bob, r_e
    against the artificial-noise power at Eve (seeds: seed and seed+1). The
    iterative passes chain on one evolving config; the DFT sweeps each run
    against an all-zero counterpart partition and the winning codewords are
    concatenated. "zero" returns the mirror baseline.
    """
    base = zero_config(ch.n_elements)
    if algorithm == "zero":
        return base, {}
    cs_oracle = cs_power_at_bob(sc, ch)
    an_oracle = an_power_at_eve(sc, ch)
    bob, eve = ch.bob_indices, ch.eve_indices
    if algorithm == "iterative":
        cfg_b, trace_b = iterative_optimize(cs_oracle, base, bob, seed)
        cfg_full, trace_e = iterative_optimize(an_oracle, cfg_b, eve, seed + 1)
        return cfg_full, {"rb": trace_b, "re": trace_e}
    if algorithm == "dft":
        cb = binary_dft_codebook(ch.n_elements // 2)
        cfg_b, trace_b = dft_sweep(cs_oracle, base, bob, cb, seed)
        cfg_e, trace_e = dft_sweep(an_oracle, base, eve, cb, seed + 1)
        final = set_partition(cfg_b, eve, cfg_e.phases[list(eve)])
        return final, {"rb": trace_b, "re": trace_e}
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def write_csv(path, columns, rows, sc: ScenarioConfig, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# scenario_sha256={scenario_hash(sc)} seed={seed} version={__version__}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_inputs(spec: ExperimentSpec) -> tuple[ScenarioConfig, ChannelSet]:
    sc = load_scenario(spec.scenario_path)
    return sc, build_channel_set(sc)


def _phases_for(spec: ExperimentSpec, sc: ScenarioConfig, ch: ChannelSet) -> PhaseConfig:
    if spec.config_path is not None:
        return load_phase_config(spec.config_path)
    cfg, _ = optimized_config(sc, ch, spec.algorithm, spec.seed)
    return cfg


def run_optimize_phases(spec: ExperimentSpec) -> int:
    """Optimize both partitions; write <out>.trace.csv and <out>.config.txt."""
    sc, ch = _load_inputs(spec)
    cfg, traces = optimized_config(sc, ch, spec.algorithm, spec.seed)
    rows = []
    for part in ("rb", "re"):
        for entry in traces.get(part, []):
            rows.append(
                (entry.trial, watts_to_dbm(entry.power_w), watts_to_dbm(entry.best_power_w),
                 part, spec.algorithm)
            )
    write_csv(f"{spec.out}.trace.csv", TRACE_COLUMNS, rows, sc, spec.seed)
    save_phase_config(cfg, f"{spec.out}.config.txt")
    return EXIT_OK


def run_sweep_alpha(spec: ExperimentSpec) -> int:
    """Capacity curves over the power split for the selected phase config."""
    sc, ch = _load_inputs(spec)
    cfg = _phases_for(spec, sc, ch)
    alphas = np.linspace(0.0, 1.0, spec.alpha_grid)
    rows = []

    def block(config: PhaseConfig, label: str):
        for a in alphas:
            report = capacity_report(beta_terms(sc, ch, config, PowerSplit.of(float(a))))
            row = capacity_report_row(float(a), report)
            # Re-derive c_secrecy from the capacities as they will appear in
            # the file, so every row verifies exactly from its own columns.
            cb, ce = float(_fmt(row[1])), float(_fmt(row[2]))
            rows.append((row[0], row[1], row[2], max(cb - ce, 0.0), row[4], row[5], label))

    block(cfg, spec.algorithm)
    if spec.include_zero and spec.algorithm != "zero":
        block(zero_config(ch.n_elements), "zero")
    write_csv(spec.out, CAPACITY_REPORT_COLUMNS + ("algorithm",), rows, sc, spec.seed)
    return EXIT_OK


def _thresholds(spec: ExperimentSpec) -> SecrecyThresholds:
    if spec.gamma_bob_db is None:
        raise ValueError("this command requires --gamma-bob-db")
    if spec.eta is None:
        raise ValueError("this command requires --eta")
    gamma_bob = 10.0 ** (spec.gamma_bob_db / 10.0)
    return SecrecyThresholds.from_eta(gamma_bob, spec.eta)


def run_sweep_power(spec: ExperimentSpec) -> int:
    """Optimal power split and capacities across a transmit-power sweep.

    Phases are optimized once (the binary-phase argmax does not depend on the
    transmit power) and reused at every sweep point.
    """
    if not spec.pt_sweep:
        raise ValueError("sweep-power requires a non-empty --pt-sweep range")
    th = _thresholds(spec)
    sc, ch = _load_inputs(spec)
    cfg = _phases_for(spec, sc, ch)
    rows = []
    any_feasible = False
    for pt in spec.pt_sweep:
        sol = optimize_alpha(replace(sc, pt_dbm=float(pt)), ch, cfg, th, spec.alpha_grid)
        any_feasible = any_feasible or sol.feasible
        rows.append(
            (float(pt), sol.alpha1, sol.feasible,
             sol.report.c_bob, sol.report.c_eve, sol.report.c_secrecy)
        )
    write_csv(spec.out, POWER_SWEEP_COLUMNS, rows, sc, spec.seed)
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def run_solve_alpha(spec: ExperimentSpec) -> int:
    """Single constrained power-allocation solve at the scenario's power."""
    th = _thresholds(spec)
    sc, ch = _load_inputs(spec)
    cfg = _phases_for(spec, sc, ch)
    sol = optimize_alpha(sc, ch, cfg, th, spec.alpha_grid)
    rows = [
        (sol.alpha1, sol.feasible, sol.report.c_bob, sol.report.c_eve,
         sol.report.c_secrecy, sol.binding)
    ]
    write_csv(spec.out, SOLUTION_COLUMNS, rows, sc, spec.seed)
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def run_dump_channels(spec: ExperimentSpec) -> int:
    """Per-element channel amplitudes and phases as CSV."""
    sc, ch = _load_inputs(spec)
    write_csv(spec.out, CHANNEL_DUMP_COLUMNS, channel_dump_rows(ch), sc, spec.seed)
    return EXIT_OK


_RUNNERS = {
    "optimize-phases": run_optimize_phases,
    "sweep-alpha": run_sweep_alpha,
    "sweep-power": run_sweep_power,
    "solve-alpha": run_solve_alpha,
    "dump-channels": run_dump_channels,
}


def parse_pt_sweep(text: str) -> tuple[float, ...]:
    """Parse 'start:step:stop' (dBm, inclusive stop) into a power list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--pt-sweep expects start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--pt-sweep values must be numbers: {text!r}") from exc
    if step <= 0.0:
        raise ValueError("--pt-sweep step must be positive")
    if stop < start:
        raise ValueError("--pt-sweep stop must not be below start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="risjam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, grid_default: int, *, config=False, pt_sweep=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=True, help="output path (optimize-phases: prefix)")
        p.add_argument("--algorithm", choices=ALGORITHMS, default="iterative")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--alpha-grid", type=int, default=grid_default)
        p.add_argument("--eta", type=float, default=None,
                       help="ratio of Eve's SINR cap to Bob's SINR floor")
        p.add_argument("--gamma-bob-db", type=float, default=None,
                       help="Bob's minimum SINR in dB (no default)")
        if pt_sweep:
            p.add_argument("--pt-sweep", type=str, default="-30:2:10",
                           help="transmit power range start:step:stop in dBm")
        if config:
            p.add_argument("--config", dest="config_path", default=None,
                           help="reuse a saved phase-config file instead of optimizing")
        p.add_argument("--include-zero", action="store_true",
                       help="append mirror-baseline rows (sweep-alpha)")
        return p

    add("optimize-phases", "optimize both partitions, write trace + config", 101)
    add("sweep-alpha", "capacity curves over the power split", 101, config=True)
    add("sweep-power", "constrained optimal split across transmit powers", 1001,
        config=True, pt_sweep=True)
    add("solve-alpha", "single constrained power-allocation solve", 1001, config=True)
    add("dump-channels", "per-element channel table", 101)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = ExperimentSpec(
            command=args.command,
            scenario_path=args.scenario,
            out=args.out,
            algorithm=args.algorithm,
            seed=args.seed,
            alpha_grid=args.alpha_grid,
            pt_sweep=parse_pt_sweep(args.pt_sweep) if "pt_sweep" in args else (),
            eta=args.eta,
            gamma_bob_db=args.gamma_bob_db,
            include_zero=args.include_zero,
            config_path=getattr(args, "config_path", None),
        )
        return _RUNNERS[spec.command](spec)
    except (ScenarioFormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"risjam: error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
