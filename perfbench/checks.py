"""Output checks for benchmark jobs: header line, columns and physics invariants.

Each check returns a list of problems; an empty list means the output passed.
The expected column lists are written out here rather than imported from
risjam, so a change to the program's output format fails the benchmark.
"""

from __future__ import annotations

import math
from pathlib import Path

HEADERS = {
    "trace": "trial,power_dbm,best_power_dbm,partition,algorithm",
    "alpha": "alpha1,c_bob,c_eve,c_secrecy,sinr_bob_db,sinr_eve_db,algorithm",
    "power": "pt_dbm,alpha1,feasible,c_bob,c_eve,c_secrecy",
    "solution": "alpha1,feasible,c_bob,c_eve,c_secrecy,binding_constraint",
    "channels": "n,h_s_amp,h_s_phase,h_a_amp,h_a_phase,h_b_amp,h_b_phase,h_e_amp,h_e_phase",
}
PT_SWEEP = tuple(float(p) for p in range(-30, 11, 2))
BINDINGS = {"C1", "C2", "C1+C2", "none"}
# Relative error of a number printed with 9 significant digits.
_DIGITS_TOL = 5e-9


def _secrecy_problems(c_bob: str, c_eve: str, c_secrecy: str, exact: bool) -> list[str]:
    cb, ce, cs = float(c_bob), float(c_eve), float(c_secrecy)
    if cb < 0.0 or ce < 0.0:
        return [f"negative capacity {c_bob}/{c_eve}"]
    expect = max(cb - ce, 0.0)
    if exact:
        ok = f"{expect:.9g}" == c_secrecy
    else:
        ok = abs(cs - expect) <= _DIGITS_TOL * (abs(cb) + abs(ce) + abs(cs))
    return [] if ok else [f"c_secrecy {c_secrecy} != max({c_bob} - {c_eve}, 0)"]


def _alpha_problems(alpha1: str) -> list[str]:
    return [] if 0.0 <= float(alpha1) <= 1.0 else [f"alpha1 {alpha1} outside [0, 1]"]


def check_config(data: bytes, n_elements: int) -> list[str]:
    bits = data.decode("utf-8").strip().split(",")
    if len(bits) != n_elements or not set(bits) <= {"0", "1"}:
        return [f"config is not {n_elements} comma-separated bits"]
    return []


def check_csv(data: bytes, kind: str, header_line: str, n_elements: int,
              algorithm: str, alpha_rows: int) -> list[str]:
    """Check one CSV written by a risjam command."""
    lines = data.decode("utf-8").split("\n")
    if len(lines) < 3 or lines[-1] != "":
        return ["file is not newline-terminated or has no rows"]
    if lines[0] != header_line:
        return [f"first line {lines[0]!r}, expected {header_line!r}"]
    if lines[1] != HEADERS[kind]:
        return [f"columns {lines[1]!r}, expected {HEADERS[kind]!r}"]
    rows = [line.split(",") for line in lines[2:-1]]
    width = HEADERS[kind].count(",") + 1
    if any(len(r) != width for r in rows):
        return ["row with the wrong number of fields"]
    return _ROW_CHECKS[kind](rows, n_elements, algorithm, alpha_rows)


def _trace_rows(rows, n, algorithm, _alpha_rows):
    problems = []
    half = n // 2
    if [r[3] for r in rows] != ["rb"] * half + ["re"] * half:
        return [f"expected {half} rb then {half} re trials"]
    for part in (rows[:half], rows[half:]):
        best = -math.inf
        for k, (trial, power, best_power, _, algo) in enumerate(part, start=1):
            if int(trial) != k or algo != algorithm:
                return [f"trial {trial} ({algo}) out of sequence"]
            b = float(best_power)
            if b < best:
                problems.append(f"best_power_dbm decreases at trial {trial}")
            if float(power) > b:
                problems.append(f"power above the running best at trial {trial}")
            best = b
    return problems


def _alpha_rows(rows, _n, algorithm, alpha_rows):
    if len(rows) != alpha_rows:
        return [f"{len(rows)} rows, expected {alpha_rows}"]
    problems = []
    for alpha1, c_bob, c_eve, c_secrecy, _, _, label in rows:
        problems += _alpha_problems(alpha1)
        problems += _secrecy_problems(c_bob, c_eve, c_secrecy, exact=True)
        if label not in (algorithm, "zero"):
            problems.append(f"unexpected algorithm label {label!r}")
    return problems


def _power_rows(rows, _n, _algorithm, _alpha_rows):
    if tuple(float(r[0]) for r in rows) != PT_SWEEP:
        return ["pt_dbm column is not -30:2:10"]
    problems = []
    for _, alpha1, feasible, c_bob, c_eve, c_secrecy in rows:
        problems += _alpha_problems(alpha1)
        problems += _secrecy_problems(c_bob, c_eve, c_secrecy, exact=False)
        if feasible not in ("true", "false"):
            problems.append(f"feasible {feasible!r}")
    if all(r[2] == "false" for r in rows):
        problems.append("no feasible point although the command exited 0")
    return problems


def _solution_rows(rows, _n, _algorithm, _alpha_rows):
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    alpha1, feasible, c_bob, c_eve, c_secrecy, binding = rows[0]
    problems = _alpha_problems(alpha1) + _secrecy_problems(c_bob, c_eve, c_secrecy, exact=False)
    if feasible != "true":
        problems.append("infeasible although the command exited 0")
    if binding not in BINDINGS:
        problems.append(f"binding constraint {binding!r}")
    return problems


def _channel_rows(rows, n, _algorithm, _alpha_rows):
    if [int(r[0]) for r in rows] != list(range(1, n + 1)):
        return [f"element index column is not 1..{n}"]
    for r in rows:
        vals = [float(v) for v in r[1:]]
        if any(a < 0.0 for a in vals[0::2]) or any(not 0.0 <= p < 2.0 * math.pi for p in vals[1::2]):
            return [f"element {r[0]}: amplitude below 0 or phase outside [0, 2pi)"]
    return []


_ROW_CHECKS = {
    "trace": _trace_rows,
    "alpha": _alpha_rows,
    "power": _power_rows,
    "solution": _solution_rows,
    "channels": _channel_rows,
}


def check_output(path: Path, kind: str, header_line: str, n_elements: int,
                 algorithm: str, alpha_rows: int) -> tuple[bytes, list[str]]:
    """Read one output file; return its bytes and the problems found."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return b"", [f"missing output: {exc}"]
    try:
        if kind == "config":
            return data, check_config(data, n_elements)
        return data, check_csv(data, kind, header_line, n_elements, algorithm, alpha_rows)
    except (UnicodeDecodeError, ValueError) as exc:
        return data, [f"unparseable output: {exc}"]


def check_study(cfg_bits, traces, solutions, n_elements: int) -> list[str]:
    """Invariants of one in-process seed-study job (config, traces, two solves)."""
    problems = []
    if len(cfg_bits) != n_elements:
        problems.append("config has the wrong element count")
    for part in ("rb", "re"):
        trace = traces.get(part, [])
        if len(trace) != n_elements // 2:
            problems.append(f"{part} trace has {len(trace)} trials, expected {n_elements // 2}")
        best = [e.best_power_w for e in trace]
        if any(b < a for a, b in zip(best, best[1:])):
            problems.append(f"{part} best power decreases")
    for sol in solutions:
        if not sol.feasible:
            problems.append("power split infeasible")
        if not 0.0 <= sol.alpha1 <= 1.0:
            problems.append(f"alpha1 {sol.alpha1} outside [0, 1]")
        if sol.report.c_secrecy != max(sol.report.c_bob - sol.report.c_eve, 0.0):
            problems.append("c_secrecy != max(c_bob - c_eve, 0)")
    return problems
