#!/usr/bin/env python3
"""risjam benchmark: whole commands and library jobs, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload in turn

Workloads (why each was chosen is recorded in BENCHMARK.json):

  desk-cli    the README's seven reproduction commands on scenarios/default.scn
              (16x16 panel, N=256), each a fresh `risjam` console-script process.
  panel-cli   optimize once with the DFT sweep, then sweep-alpha, sweep-power at
              eta 1% and 10% from the saved config, and dump-channels, on the
              same scene with a 64x64 panel (N=4096).
  seed-study  in-process library loop on a 32x32 panel (N=1024): each job runs
              the iterative search for one seed, then optimize_alpha at eta 1%
              and 10%. Channels are built once, during set-up.

The loop is closed with one client: the next job starts when the previous
one has ended. It runs whole cycles of the workload's job list until --seconds
have been spent in jobs, so every run sees the same job mix. Set-up is
measured SETUP_REPEATS times in fresh interpreters and reported as the median.

Times are calibrated: each job and set-up is bracketed by blocks of a fixed
loop (see Calibration), and its wall time is rescaled to the speed at which
one loop takes REFERENCE_UNIT_S. The raw wall-clock figures are printed too.

End-to-end metrics (--trace 0): setup_s, jobs_per_s (jobs over the seconds
spent in them), job_s.p50, job_s.tail (the highest percentile with at least
ten jobs beyond it; see tail() for runs of ten jobs or fewer), peak_rss_mb
(largest resident set of a job's process). fail_frac is printed and is also
the `failed`/`attempted` pair of the result line.

Per-layer metrics (--trace 1): each job runs once untraced and twice traced.
Span times are raw wall-clock. `*_s` metrics are self times (span minus child
spans) per traced job; on seed-study the set-up spans (import, scenario load
and build, channel build) come from a traced set-up and count once. `*_us...` metrics are inclusive
microseconds per call. `*_share` metrics are inclusive time over traced job
time, used for layers that some workloads never call. Counts are per cycle
(plus the set-up on seed-study) and must repeat exactly; the oracle counts must
match the search algorithms' budgets. `_kernels.bytes_computed` is the
analytic input and output traffic of the phase sums (three float64 inputs per
element and one complex result), computed, not measured, on a CPU-only run.

Every output is checked (exit code, header line, columns, invariants,
byte-identical repeats) and, at the default seed, compared with the digests
in references.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORKLOADS = ("desk-cli", "panel-cli", "seed-study")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# No job starts later than this after the benchmark started, so a run of a
# much slower program still ends within 180 s.
START_DEADLINE_S = 140.0
JOB_TIMEOUT_S = 150.0
# Calibration: the 2-core machine this was written on runs the same code at two
# speeds 1.6x apart, switching within a second, in a mix that drifts over
# minutes. Raw job medians moved by up to 30% between runs; rescaled by a
# calibration loop timed next to each job, they moved by 1-8%.
REFERENCE_UNIT_S = 0.010
CAL_MIN_S = 0.01
CAL_SHARE = 0.1
ALPHA_GRID = 1001
# One client must not use more threads than the machine has cores.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CONSOLE_SCRIPT = "import sys; from risjam.harness import main; sys.exit(main())"
SETUP_CODE = {
    "cli": "import risjam",
    "study": "import sys, risjam; risjam.build_channel_set(risjam.load_scenario(sys.argv[1]))",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


class Calibration:
    """Times a fixed loop of interpreter and small-array numpy work around each job."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._arr = numpy.linspace(0.0, 1.0, 512)

    def _unit(self) -> None:
        acc = 0
        for k in range(60_000):
            acc += k * k
        for _ in range(240):
            self._np.sum(self._arr * self._np.exp(-1j * self._arr))

    def block(self, seconds: float) -> float:
        """Run whole loops for at least `seconds`; return seconds per loop."""
        n, start = 0, time.perf_counter()
        while True:
            self._unit()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / n

    def timed(self, fn, expected_s: float):
        """Call fn between two calibration blocks; return (result, wall s, rescaled s)."""
        before = self.block(max(CAL_MIN_S, CAL_SHARE * expected_s))
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self.block(max(CAL_MIN_S, CAL_SHARE * wall))
        return result, wall, wall * 2.0 * REFERENCE_UNIT_S / (before + after)


@dataclass
class JobRecord:
    name: str
    wall_s: float
    norm_s: float
    rss_kb: int
    problems: list[str]
    traced: bool = False
    layers: dict = field(default_factory=dict)


@dataclass
class Run:
    workload: str
    seed: int
    n_elements: int
    setup: list[tuple[float, float]]
    jobs: list[JobRecord]
    cycles: int
    peak_rss_kb: int
    digests: dict
    setup_layers: list[dict] = field(default_factory=list)
    cycle_counts: dict = field(default_factory=dict)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)


def spawn(argv: list[str], stderr_path: Path) -> tuple[int, int, str]:
    """Run a child to completion; return its exit code, peak RSS (kB) and last stderr line."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    last = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
    return proc.returncode, usage.ru_maxrss, "".join(last)


def measure_setup(kind: str, work: Path, scenario: inputs.Scenario, cal: Calibration):
    """SETUP_REPEATS fresh-interpreter set-ups: (wall seconds, rescaled seconds) each."""
    argv = [sys.executable, "-c", SETUP_CODE[kind]] + ([scenario.path] if kind == "study" else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        (rc, _, err), wall, norm = cal.timed(lambda: spawn(argv, work / "setup.err"),
                                              samples[-1][0] if samples else 0.0)
        if rc != 0:
            raise BenchError(f"set-up failed with exit code {rc}: {err}")
        samples.append((wall, norm))
    return samples


def load_references(workload: str, seed: int, recording: bool) -> dict | None:
    """Recorded output digests, which apply only at the default seed."""
    if recording or seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]


class DigestBook:
    """Output digests of one run: repeats must match, and so must the references."""

    def __init__(self, references: dict | None):
        self.references = references
        self.seen: dict = {}

    def check(self, job: str, output: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        first = self.seen.setdefault(job, {}).setdefault(output, digest)
        if digest != first:
            return [f"{output} differs from the first run of {job} in this run"]
        if self.references is not None:
            ref = self.references.get(job, {}).get(output)
            if ref != digest:
                return [f"{output} digest {digest[:12]} != reference {str(ref)[:12]}"]
        return []


def _counts(summary: dict) -> dict:
    return {name: (calls, notes) for name, (calls, _, _, notes) in summary.items()}


def _count_problems(expected_calls: int, summary: dict, oracle_calls: int) -> list[str]:
    """Oracle spans, the oracles' own call counters and the search budget must agree."""
    spans = sum(summary.get(k, (0,))[0] for k in ("optimize.oracle.flip", "optimize.oracle.full"))
    if spans == expected_calls == oracle_calls:
        return []
    return [f"{spans} oracle spans, {oracle_calls} ReceivedPowerOracle.calls, expected {expected_calls}"]


def _merge(total: dict, summary: dict) -> None:
    for name, vals in summary.items():
        old = total.get(name, (0, 0.0, 0.0, 0))
        total[name] = tuple(a + b for a, b in zip(old, vals))


class CycleCounts:
    """Per-cycle span counts; every cycle must repeat the first exactly."""

    def __init__(self):
        self.first: dict | None = None
        self.current: dict = {}

    def add(self, summary: dict) -> None:
        _merge(self.current, {k: (c, 0.0, 0.0, n) for k, (c, _, _, n) in summary.items()})

    def close(self) -> list[str]:
        current, self.current = _counts(self.current), {}
        if self.first is None:
            self.first = current
            return []
        return [] if current == self.first else ["span counts differ between cycles"]


@dataclass
class Outcome:
    problems: list[str]
    rss_kb: int = 0
    layers: dict = field(default_factory=dict)


class CliJobRunner:
    """One risjam command run as a fresh process, untraced or under traced_cli.py."""

    def __init__(self, job: inputs.CliJob, scenario: inputs.Scenario, work: Path, version: str):
        self.job, self.name, self.oracle_calls = job, job.name, job.oracle_calls
        self.scenario, self.work = scenario, work
        self.header = f"# scenario_sha256={scenario.sha} seed={job.header_seed} version={version}"
        self.alpha_rows = 202 if "--include-zero" in job.args else 101
        self.spans = work / "spans.json"

    def execute(self, traced: bool, cycle: int):
        out_dir = self.work / f"cycle{cycle}"
        out_dir.mkdir(exist_ok=True)
        for fname in self.job.outputs:
            (out_dir / fname).unlink(missing_ok=True)
        self.spans.unlink(missing_ok=True)
        args = [a.replace("{dir}", str(out_dir)) for a in self.job.args]
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), repr(time.monotonic()),
                    str(self.spans), *args]
        else:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *args]
        return out_dir, spawn(argv, self.work / "job.err")

    def check(self, result, traced: bool, book: DigestBook) -> Outcome:
        out_dir, (rc, rss, err) = result
        problems = [] if rc == 0 else [f"exit code {rc}: {err}"]
        for fname, kind in self.job.outputs.items():
            data, found = checks.check_output(out_dir / fname, kind, self.header,
                                              self.scenario.n_elements, self.job.algorithm,
                                              self.alpha_rows)
            problems += found + book.check(self.name, fname, data)
        outcome = Outcome(problems, rss)
        if traced:
            if not self.spans.is_file():
                problems.append("traced job wrote no spans")
                return outcome
            dump = json.loads(self.spans.read_text(encoding="utf-8"))
            outcome.layers = tracer.summarize(dump["spans"])
            problems += _count_problems(self.oracle_calls, outcome.layers, dump["oracle_calls"])
        return outcome


class StudyJobRunner:
    """One seed-study job in this process: the iterative search, then two power-split solves."""

    def __init__(self, seed: int, env, tr: tracer.Tracer):
        self.seed, self.env, self.tr = seed, env, tr
        self.name = f"seed {seed}"
        self.oracle_calls = env.n_elements + 2

    def execute(self, traced: bool, cycle: int):
        from risjam import harness, optimize

        sc, ch = self.env.sc, self.env.ch
        if traced:
            self.tr.reset()
            self.tr.install()
        try:
            cfg, traces = harness.optimized_config(sc, ch, "iterative", self.seed)
            sols = [optimize.optimize_alpha(sc, ch, cfg, th, ALPHA_GRID) for th in self.env.thresholds]
            return cfg, traces, sols
        except Exception as exc:  # a failed job is counted, not fatal
            return exc
        finally:
            self.tr.uninstall()

    def check(self, result, traced: bool, book: DigestBook) -> Outcome:
        if isinstance(result, Exception):
            return Outcome([f"raised {result!r}"])
        cfg, traces, sols = result
        problems = checks.check_study(cfg.bits(), traces, sols, self.env.n_elements)
        if not problems:
            problems = book.check(str(self.seed), "result", _study_digest(cfg, traces, sols))
        outcome = Outcome(problems)
        if traced:
            outcome.layers = tracer.summarize(self.tr.spans)
            problems += _count_problems(self.oracle_calls, outcome.layers, self.tr.oracle_calls())
        return outcome


def closed_loop(runners, seconds: float, trace: bool, started: float, cal: Calibration,
                book: DigestBook, setup_layers: dict | None = None):
    """Run whole cycles over the runners until `seconds` were spent in jobs.

    Untraced, each job runs once per cycle. Traced, it runs once untraced
    and twice traced; the two traced runs must give the same span counts, and
    every cycle the same counts as the first. Returns (records, cycles,
    counts of one traced cycle).
    """
    records: list[JobRecord] = []
    counts = CycleCounts()
    last_wall: dict = {}
    spent, cycles = 0.0, 0
    reps = (False, True, True) if trace else (False,)
    while (cycles == 0 or spent < seconds) and time.perf_counter() - started < START_DEADLINE_S:
        if setup_layers:
            counts.add(setup_layers)
        for runner in runners:
            traced_counts = []
            for rep, traced in enumerate(reps):
                result, wall, norm = cal.timed(lambda: runner.execute(traced, cycles),
                                               last_wall.get(runner.name, 0.0))
                last_wall[runner.name] = wall
                spent += wall
                out = runner.check(result, traced, book)
                records.append(JobRecord(runner.name, wall, norm, out.rss_kb, out.problems, traced,
                                         out.layers))
                if traced and out.layers:
                    traced_counts.append(_counts(out.layers))
                    if rep == 1:
                        counts.add(out.layers)
            if trace and (len(traced_counts) < 2 or traced_counts[0] != traced_counts[1]):
                records[-1].problems.append("span counts differ between two traced runs of the job")
        cycles += 1
        if trace:
            records[-1].problems += counts.close()
    return records, cycles, counts.first or {}


def _study_digest(cfg, traces, sols) -> bytes:
    lines = ["".join(str(b) for b in cfg.bits())]
    for part in ("rb", "re"):
        lines.append(",".join(repr(e.best_power_w) for e in traces[part]))
    for s in sols:
        r = s.report
        lines.append(f"{s.alpha1!r},{s.feasible},{r.c_bob!r},{r.c_eve!r},{r.c_secrecy!r},{s.binding}")
    return "\n".join(lines).encode("utf-8")


@dataclass
class StudyEnv:
    sc: object
    ch: object
    thresholds: list
    n_elements: int


def traced_study_setups(scenario: inputs.Scenario, work: Path) -> list[dict]:
    """Two traced fresh-interpreter set-ups (import, load, channel build); counts must agree."""
    layers = []
    spans = work / "spans.json"
    for _ in range(2):
        argv = [sys.executable, str(HERE / "traced_cli.py"), repr(time.monotonic()), str(spans),
                "--setup", scenario.path]
        rc, _, err = spawn(argv, work / "setup.err")
        if rc != 0:
            raise BenchError(f"traced set-up failed with exit code {rc}: {err}")
        layers.append(tracer.summarize(json.loads(spans.read_text(encoding="utf-8"))["spans"]))
    if _counts(layers[0]) != _counts(layers[1]):
        raise BenchError("span counts differ between two traced set-ups")
    return layers


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten jobs beyond it, and how it was taken.

    With ten jobs or fewer no percentile qualifies; the tail is then the
    median of the slowest fifth of the jobs (at least two of them).
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 10
    if k >= 1:
        return ordered[k - 1], f"p{100.0 * k / n:.1f} of {n} jobs, 10 beyond it"
    top = ordered[-max(2, n // 5):]
    return statistics.median(top), f"median of the slowest {len(top)} of {n} jobs (too few for 10 beyond)"


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """End-to-end metrics from rescaled times, and notes with the raw wall times."""
    norm = [r.norm_s for r in run.jobs]
    walls = [r.wall_s for r in run.jobs]
    tail_s, tail_how = tail(norm)
    failed = sum(1 for r in run.jobs if r.problems)
    metrics = {
        "setup_s": (statistics.median(n for _, n in run.setup), "s"),
        "jobs_per_s": (len(norm) / sum(norm), "1/s"),
        "job_s.p50": (statistics.median(norm), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
    }
    notes = [
        f"job_s.tail is the {tail_how}",
        f"fail_frac {failed / len(norm):.4g} ({failed}/{len(norm)}) frac",
        f"raw wall: setup_s {statistics.median(w for w, _ in run.setup):.4f}, "
        f"jobs_per_s {len(walls) / sum(walls):.4f}, job_s.p50 {statistics.median(walls):.4f}, "
        f"job_s.tail {tail(walls)[0]:.4f}",
    ]
    return metrics, notes


# Layers a workload may never call are given as shares of traced job time.
SHARES = (
    ("harness.write_csv_share", "harness.write_csv"),
    ("ris.codebook_share", "ris.codebook"),
    ("optimize.iterative_share", "optimize.iterative"),
    ("optimize.dft_sweep_share", "optimize.dft_sweep"),
    ("optimize.oracle_share.flip", "optimize.oracle.flip"),
)
SELF_TIMES = (
    ("harness.import_s", "harness.import"),
    ("scene.load_scenario_s", "scene.load_scenario"),
    ("scene.scenario_build_s", "scene.scenario_build"),
    ("channel.build_s", "channel.build"),
    ("channel.cascaded_gain_s", "channel.cascaded_gain"),
    ("secrecy.beta_terms_s", "secrecy.beta_terms"),
    ("ris.phaseconfig_build_s", "ris.phaseconfig_build"),
    ("ris.snapshot_id_s", "ris.snapshot_id"),
    ("optimize.optimize_alpha_s", "optimize.optimize_alpha"),
)
CALL_COUNTS = (
    ("scene.scenario_builds", "scene.scenario_build"),
    ("channel.builds", "channel.build"),
    ("channel.cascaded_gain_calls", "channel.cascaded_gain"),
    ("secrecy.beta_terms_calls", "secrecy.beta_terms"),
    ("ris.phaseconfig_builds", "ris.phaseconfig_build"),
    ("ris.snapshot_id_calls", "ris.snapshot_id"),
    ("ris.codebook_calls", "ris.codebook"),
    ("optimize.oracle_calls.flip", "optimize.oracle.flip"),
    ("optimize.oracle_calls.full", "optimize.oracle.full"),
    ("_kernels.coherent_sum_calls", "_kernels.coherent_sum"),
)


def per_layer(run: Run) -> dict:
    """Per-layer metrics from the traced jobs (raw span times) and one traced cycle's counts."""
    traced = [r for r in run.jobs if r.traced]
    jobs: dict = {}
    for r in traced:
        _merge(jobs, r.layers)
    setups: dict = {}
    for s in run.setup_layers:
        _merge(setups, s)
    n_jobs, n_setups = len(traced), max(len(run.setup_layers), 1)
    job_wall = sum(r.wall_s for r in traced)

    def get(table, name, i):
        return table.get(name, (0, 0.0, 0.0, 0))[i]

    def self_s(name):
        return get(jobs, name, 1) / n_jobs + get(setups, name, 1) / n_setups

    def per_call_us(name):
        calls = get(jobs, name, 0) + get(setups, name, 0)
        return 1e6 * (get(jobs, name, 2) + get(setups, name, 2)) / calls if calls else 0.0

    cc = run.cycle_counts

    def count(name, i=0):
        return cc.get(name, (0, 0))[i]

    m = {metric: (self_s(name), "s") for metric, name in SELF_TIMES}
    m["channel.build_us_per_element"] = (per_call_us("channel.build") / run.n_elements, "us")
    m["optimize.oracle_us_per_call.full"] = (per_call_us("optimize.oracle.full"), "us")
    m["_kernels.coherent_sum_us"] = (per_call_us("_kernels.coherent_sum"), "us")
    for metric, name in SHARES:
        m[metric] = (get(jobs, name, 2) / job_wall, "frac")
    for metric, name in CALL_COUNTS:
        m[metric] = (count(name), "count")
    flips = count("optimize.oracle.flip")
    m["optimize.oracle_calls"] = (flips + count("optimize.oracle.full"), "count")
    m["optimize.flips_accepted"] = (count("optimize.iterative", 1), "count")
    m["optimize.flip_accept_ratio"] = (count("optimize.iterative", 1) / flips if flips else 0.0, "frac")
    m["harness.csv_bytes"] = (count("harness.write_csv", 1), "B")
    elements = count("_kernels.coherent_sum", 1)
    m["_kernels.elements_summed"] = (elements, "count")
    m["_kernels.bytes_computed"] = (24 * elements + 16 * count("_kernels.coherent_sum"), "B")
    untraced = [r.norm_s for r in run.jobs if not r.traced]
    m["trace.overhead_frac"] = (
        statistics.median(r.norm_s for r in traced) / statistics.median(untraced) - 1.0, "frac")
    return m


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import risjam

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "risjam").rglob("*.py")) + [ROOT / inputs.BUNDLED_SCENARIO]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel_backend": risjam.kernel_backend(),
        "thread_pins": THREAD_PINS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, started: float,
                 recording: bool = False) -> Run:
    import risjam

    book = DigestBook(load_references(name, seed, recording))
    cal = Calibration()
    setup_layers = []
    if name == "seed-study":
        scenario = inputs.panel_scenario(ROOT, work, 32)
        setup = measure_setup("study", work, scenario, cal)
        sc = risjam.load_scenario(scenario.path)
        gamma = 10.0 ** (inputs.GAMMA_BOB_DB / 10.0)
        env = StudyEnv(sc, risjam.build_channel_set(sc),
                       [risjam.secrecy.SecrecyThresholds.from_eta(gamma, e) for e in inputs.ETAS],
                       scenario.n_elements)
        tr = tracer.Tracer()
        runners = [StudyJobRunner(s, env, tr) for s in inputs.study_seeds(seed)]
        if trace:
            setup_layers = traced_study_setups(scenario, work)
    else:
        if name == "desk-cli":
            scenario = inputs.bundled_scenario(ROOT)
            jobs = inputs.desk_jobs(scenario, seed)
        else:
            inputs.bundled_scenario(ROOT)
            scenario = inputs.panel_scenario(ROOT, work, 64)
            jobs = inputs.panel_jobs(scenario, seed)
        setup = measure_setup("cli", work, scenario, cal)
        runners = [CliJobRunner(job, scenario, work, risjam.__version__) for job in jobs]
    records, cycles, counts = closed_loop(runners, seconds, trace, started, cal, book,
                                          setup_layers[0] if setup_layers else None)
    if name == "seed-study":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak = max(r.rss_kb for r in records)
    return Run(name, seed, scenario.n_elements, setup, records, cycles, peak, book.seen,
               setup_layers, counts)


def report(run: Run, trace: bool) -> dict:
    failed = sum(1 for r in run.jobs if r.problems)
    print(f"workload {run.workload} seed {run.seed}: {len(run.jobs)} jobs in {run.cycles} cycles, "
          f"N={run.n_elements}")
    for r in run.jobs:
        for p in r.problems:
            print(f"  FAIL {r.name}: {p}")
    if trace:
        metrics = per_layer(run)
    else:
        metrics, notes = end_to_end(run)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    if not trace:
        for note in notes:
            print(f"  {note}")
    return {
        "correct": failed == 0,
        "attempted": len(run.jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_references(work: Path, started: float) -> None:
    """Write references.json from one untraced cycle of each workload at the default seed."""
    refs = {}
    for name in WORKLOADS:
        sub = work / name
        sub.mkdir()
        run = run_workload(name, DEFAULT_SEED, 0.0, False, sub, started, recording=True)
        bad = [p for r in run.jobs for p in r.problems]
        if bad:
            raise BenchError(f"{name}: outputs fail their checks: {bad[:3]}")
        refs[name] = run.digests
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="also write the result and provenance here as JSON")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from the current program")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "risjam" / "__init__.py").is_file():
        print(f"perfbench: no risjam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported, for seed-study
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        work.mkdir(parents=True)
        import risjam

        if Path(risjam.__file__).resolve().parent != ROOT / "src" / "risjam":
            raise BenchError(f"imported risjam from {risjam.__file__}, not from this checkout")
        if args.record_references:
            record_references(work, started)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            sub = work / name
            sub.mkdir()
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), sub, started)
            results[name] = report(run, bool(args.trace))
    except (BenchError, inputs.InputError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    if args.save:
        record = {"workloads": list(results), "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, "results": results}
        args.save.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
