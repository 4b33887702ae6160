"""Command-line experiment harness: phase optimization runs and CSV sweeps.

Every emitted CSV starts with a comment line recording the scenario hash, the
seed and the tool version; data rows are written in deterministic order with
9-significant-digit numbers, so identical inputs reproduce identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .channel import CHANNEL_DUMP_COLUMNS, ChannelSet, build_channel_set, channel_dump_rows
from .optimize import (
    LinkCouplings,
    an_power_at_eve,
    cs_power_at_bob,
    dft_sweep,
    iterative_optimize,
    optimize_alpha,
    solve_split,
)
from .ris import PhaseConfig, binary_dft_codebook, load_phase_config, save_phase_config, set_partition, zero_config
from .scene import (
    MAX_PT_DBM,
    ScenarioConfig,
    ScenarioFormatError,
    dbm_to_watts,
    load_scenario,
    scenario_hash,
    watts_to_dbm,
)
from .secrecy import (
    CAPACITY_REPORT_COLUMNS,
    SecrecyThresholds,
    capacity_report_row,
    path_gains,
)

ALGORITHMS = ("iterative", "dft", "zero")

TRACE_COLUMNS = ("trial", "power_dbm", "best_power_dbm", "partition", "algorithm")
SOLUTION_COLUMNS = ("alpha1", "feasible", "c_bob", "c_eve", "c_secrecy", "binding_constraint")
POWER_SWEEP_COLUMNS = ("pt_dbm", "alpha1", "feasible", "c_bob", "c_eve", "c_secrecy")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_SEED = 1

# Most transmit powers one sweep-power run solves (~1 ms each at 16x16): a
# mistyped step that asks for millions is rejected before the list is built.
MAX_PT_SWEEP_POINTS = 10_001
# Most power-split grid points one --alpha-grid asks for (~0.13 ms each in
# sweep-alpha at 16x16): a mistyped 10^9 would need 8 GB for the grid alone.
MAX_ALPHA_GRID_POINTS = 100_001


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
            fh.write(",".join([format(v, ".9g") if type(v) is float else _fmt(v) for v in row]) + "\n")


def _load_inputs(args: argparse.Namespace) -> tuple[ScenarioConfig, ChannelSet]:
    sc = load_scenario(args.scenario)
    return sc, build_channel_set(sc)


def _phases_for(args: argparse.Namespace, sc: ScenarioConfig, ch: ChannelSet) -> PhaseConfig:
    if args.config is not None:
        return load_phase_config(args.config)
    cfg, _ = optimized_config(sc, ch, args.algorithm, args.seed)
    return cfg


def run_optimize_phases(args: argparse.Namespace) -> int:
    """Optimize both partitions; write <out>.trace.csv and <out>.config.txt."""
    sc, ch = _load_inputs(args)
    cfg, traces = optimized_config(sc, ch, args.algorithm, args.seed)
    rows = []
    for part in ("rb", "re"):
        for entry in traces.get(part, []):
            rows.append(
                (entry.trial, watts_to_dbm(entry.power_w), watts_to_dbm(entry.best_power_w),
                 part, args.algorithm)
            )
    write_csv(f"{args.out}.trace.csv", TRACE_COLUMNS, rows, sc, args.seed)
    save_phase_config(cfg, f"{args.out}.config.txt")
    return EXIT_OK


def run_sweep_alpha(args: argparse.Namespace) -> int:
    """Capacity curves over the power split for the selected phase config."""
    sc, ch = _load_inputs(args)
    cfg = _phases_for(args, sc, ch)
    alphas = np.linspace(0.0, 1.0, args.alpha_grid)
    rows = []

    def block(config: PhaseConfig, label: str):
        model = LinkCouplings(ch, path_gains(ch, config), sc.pt_watts, sc.noise_bob_watts, sc.noise_eve_watts)
        for a in alphas:
            row = capacity_report_row(float(a), model.report(float(a)))
            # Re-derive c_secrecy from the capacities as they will appear in
            # the file, so every row verifies exactly from its own columns.
            cb, ce = float(_fmt(row[1])), float(_fmt(row[2]))
            rows.append((row[0], row[1], row[2], max(cb - ce, 0.0), row[4], row[5], label))

    block(cfg, args.algorithm)
    if args.include_zero and args.algorithm != "zero":
        block(zero_config(ch.n_elements), "zero")
    write_csv(args.out, CAPACITY_REPORT_COLUMNS + ("algorithm",), rows, sc, args.seed)
    return EXIT_OK


def _thresholds(args: argparse.Namespace) -> SecrecyThresholds:
    try:
        gamma_bob = 10.0 ** (args.gamma_bob_db / 10.0)
    except OverflowError:  # beyond float range: rejected below as a non-finite floor
        gamma_bob = math.inf
    return SecrecyThresholds.from_eta(gamma_bob, args.eta)


def run_sweep_power(args: argparse.Namespace) -> int:
    """Optimal power split and capacities across a transmit-power sweep.

    Phases are optimized and their path gains evaluated once (the
    binary-phase argmax does not depend on the transmit power); each sweep
    point solves the split from those gains at its own transmit power.
    """
    th = _thresholds(args)
    sc, ch = _load_inputs(args)
    gains = path_gains(ch, _phases_for(args, sc, ch))
    rows = []
    any_feasible = False
    for pt in args.pt_sweep:
        model = LinkCouplings(ch, gains, dbm_to_watts(pt), sc.noise_bob_watts, sc.noise_eve_watts)
        sol = solve_split(model, th, args.alpha_grid)
        any_feasible = any_feasible or sol.feasible
        rows.append(
            (float(pt), sol.alpha1, sol.feasible,
             sol.report.c_bob, sol.report.c_eve, sol.report.c_secrecy)
        )
    write_csv(args.out, POWER_SWEEP_COLUMNS, rows, sc, args.seed)
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def run_solve_alpha(args: argparse.Namespace) -> int:
    """Single constrained power-allocation solve at the scenario's power."""
    th = _thresholds(args)
    sc, ch = _load_inputs(args)
    cfg = _phases_for(args, sc, ch)
    sol = optimize_alpha(sc, ch, cfg, th, args.alpha_grid)
    rows = [
        (sol.alpha1, sol.feasible, sol.report.c_bob, sol.report.c_eve,
         sol.report.c_secrecy, sol.binding)
    ]
    write_csv(args.out, SOLUTION_COLUMNS, rows, sc, args.seed)
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def run_dump_channels(args: argparse.Namespace) -> int:
    """Per-element channel amplitudes and phases as CSV.

    The table depends on no seed; the header records the default one.
    """
    sc, ch = _load_inputs(args)
    write_csv(args.out, CHANNEL_DUMP_COLUMNS, channel_dump_rows(ch), sc, DEFAULT_SEED)
    return EXIT_OK


def parse_pt_sweep(text: str) -> tuple[float, ...]:
    """Parse 'start:step:stop' (dBm, inclusive stop) into a power list, at most MAX_PT_DBM."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"values must be numbers, got {text!r}") from exc
    if step <= 0.0:
        raise argparse.ArgumentTypeError(f"step must be positive, got {text!r}")
    span = (stop - start) / step
    if not all(math.isfinite(v) for v in (start, step, stop, span)):
        raise argparse.ArgumentTypeError(f"values and point count must be finite, got {text!r}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"stop must not be below start, got {text!r}")
    count = int(math.floor(span + 1e-9)) + 1
    if count > MAX_PT_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"{text!r} has {count:.15g} points, more than {MAX_PT_SWEEP_POINTS}")
    powers = tuple(start + k * step for k in range(count))
    if powers[-1] > MAX_PT_DBM:
        raise argparse.ArgumentTypeError(
            f"{text!r} reaches {powers[-1]!r} dBm, above the transmit-power cap of {MAX_PT_DBM} dBm")
    # Powers rise from the first point, which is the only one that can round to 0 W.
    if not 0.0 < dbm_to_watts(powers[0]) < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} starts at {powers[0]!r} dBm, which has no finite positive power in watts")
    return powers


def parse_alpha_grid(text: str) -> int:
    """Parse the number of power-split grid points (2 to MAX_ALPHA_GRID_POINTS)."""
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"must have at least 2 points, got {points}")
    if points > MAX_ALPHA_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"{points} points, more than {MAX_ALPHA_GRID_POINTS}")
    return points


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, registering exactly the flags its runner reads."""
    parser = _Parser(prog="risjam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=True, help="output path (optimize-phases: prefix)")
        return p

    def optimizing(name, run, help_text):
        p = command(name, run, help_text)
        p.add_argument("--algorithm", choices=ALGORITHMS, default="iterative")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        return p

    def splitting(name, run, help_text, grid_default):
        p = optimizing(name, run, help_text)
        p.add_argument("--alpha-grid", type=parse_alpha_grid, default=grid_default,
                       help="number of power-split grid points (at least 2)")
        p.add_argument("--config", default=None,
                       help="reuse a saved phase-config file instead of optimizing")
        return p

    def constrained(name, run, help_text):
        p = splitting(name, run, help_text, 1001)
        p.add_argument("--eta", type=float, required=True,
                       help="ratio of Eve's SINR cap to Bob's SINR floor")
        p.add_argument("--gamma-bob-db", type=float, required=True,
                       help="Bob's minimum SINR in dB")
        return p

    optimizing("optimize-phases", run_optimize_phases,
               "optimize both partitions, write trace + config")
    p = splitting("sweep-alpha", run_sweep_alpha, "capacity curves over the power split", 101)
    p.add_argument("--include-zero", action="store_true", help="append mirror-baseline rows")
    p = constrained("sweep-power", run_sweep_power,
                    "constrained optimal split across transmit powers")
    p.add_argument("--pt-sweep", type=parse_pt_sweep, default="-30:2:10",
                   help="transmit power range start:step:stop in dBm")
    constrained("solve-alpha", run_solve_alpha, "single constrained power-allocation solve")
    command("dump-channels", run_dump_channels, "per-element channel table")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ScenarioFormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"risjam: error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
