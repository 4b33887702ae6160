"""Phase-shift optimizers and the constrained power-allocation solver.

The optimizers see the link only through a measurement oracle (config in,
received power out), mirroring a hardware sweep: the iterative method is one
coordinate-ascent pass over the partition in seeded random order, the DFT
method sweeps a quantized-DFT codebook, and exhaustive enumeration serves as
the testing upper bound. Power allocation reduces to one dimension (alpha2 =
1 - alpha1) and is solved on a grid with golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as kernels
from .channel import ChannelSet
from .ris import PI, Codebook, PhaseConfig, set_partition, zero_config
from .scene import ScenarioConfig
from .secrecy import (
    CapacityReport,
    PowerSplit,
    SecrecyThresholds,
    beta_terms,
    capacity_report,
)

#: Anything that maps a phase configuration to a received power in watts.
MeasurementOracle = Callable[[PhaseConfig], float]

#: Absolute slack on SINR constraint checks.
SINR_TOL = 1e-9

#: Absolute alpha tolerance of the golden-section refinement.
ALPHA_TOL = 1e-5

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

MAX_EXHAUSTIVE_ELEMS = 20


class NoFeasibleAlphaError(ValueError):
    """No power split satisfies the requested capacity-ratio constraint."""


class ReceivedPowerOracle:
    """Received power of one signal at one user, as a function of the RIS config.

    signal is "cs" (communication signal) or "an" (artificial noise); user is
    "bob" or "eve". The measured signal carries the full transmit power: the
    binary-phase argmax is invariant to the power split, which is allocated
    separately. Both partitions contribute (the non-target partition adds a
    constant floor while it is held fixed).
    """

    def __init__(self, sc: ScenarioConfig, ch: ChannelSet, signal: str, user: str):
        if signal not in ("cs", "an"):
            raise ValueError(f"signal must be 'cs' or 'an', got {signal!r}")
        if user not in ("bob", "eve"):
            raise ValueError(f"user must be 'bob' or 'eve', got {user!r}")
        self.signal = signal
        self.user = user
        self.calls = 0
        self._n = ch.n_elements
        src = "s" if signal == "cs" else "a"
        out = "b" if user == "bob" else "e"
        pt = sc.pt_watts
        paths = [ch.paths[(src, part, out)] for part in ("rb", "re")]
        self._parts = [(path, pt * path.path_loss) for path in paths]

    def __call__(self, cfg: PhaseConfig) -> float:
        if cfg.n_elements != self._n:
            raise ValueError("config element count does not match the channel set")
        self.calls += 1
        total = 0.0
        for path, scale in self._parts:
            g = kernels.coherent_sum(path.amplitude, path.phase, cfg.phases[path.indices])
            total += scale * (g.real * g.real + g.imag * g.imag)
        return total


def cs_power_at_bob(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_CS oracle: communication-signal power at Bob (objective for r_b)."""
    return ReceivedPowerOracle(sc, ch, "cs", "bob")


def an_power_at_eve(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_AN oracle: artificial-noise power at Eve (objective for r_e)."""
    return ReceivedPowerOracle(sc, ch, "an", "eve")


@dataclass(frozen=True)
class TraceEntry:
    """One optimizer trial: measured power and the running best."""

    trial: int
    power_w: float
    best_power_w: float
    config_id: str


def iterative_optimize(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    which: str,
    seed: int,
    passes: int = 1,
) -> tuple[PhaseConfig, list[TraceEntry]]:
    """Coordinate ascent over one partition's binary phases.

    Visits each element of the partition exactly once per pass, in a seeded
    uniformly random order, measuring the flipped phase against the cached
    incumbent power and keeping the better one (exact ties keep the incumbent,
    i.e. 0 from the canonical all-zero start). One new oracle call per element
    after the initial incumbent measurement.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    idx = cfg.partition(which)
    rng = np.random.default_rng(seed)
    current = cfg
    best = float(oracle(current))
    trace: list[TraceEntry] = []
    trial = 0
    for _ in range(passes):
        for j in rng.permutation(len(idx)):
            elem = idx[int(j)]
            trial += 1
            flipped = current.with_phase(elem, PI if current.phases[elem] == 0.0 else 0.0)
            p = float(oracle(flipped))
            if p > best:
                current, best = flipped, p
            trace.append(TraceEntry(trial, best, best, current.snapshot_id()))
    return current, trace


def dft_sweep(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    which: str,
    cb: Codebook,
    seed: int,
) -> tuple[PhaseConfig, list[TraceEntry]]:
    """Sweep a codebook over one partition and install the best codeword.

    The other partition is expected to be held at 0 by the caller. If the
    codebook holds fewer codewords than the partition size, the sweep is
    padded with seeded uniform-random binary codewords to keep the trial
    budget at one trial per partition element.
    """
    if len(cb) == 0:
        raise ValueError("empty codebook")
    budget = len(cfg.partition(which))
    rng = np.random.default_rng(seed)
    trials = list(cb)
    while len(trials) < budget:
        trials.append(np.where(rng.integers(0, 2, budget) == 1, PI, 0.0))
    best_cfg = None
    best = -math.inf
    trace: list[TraceEntry] = []
    for t, cw in enumerate(trials, start=1):
        cand = set_partition(cfg, which, cw)
        p = float(oracle(cand))
        if p > best:
            best_cfg, best = cand, p
        trace.append(TraceEntry(t, p, best, cand.snapshot_id()))
    return best_cfg, trace


def exhaustive_search(
    oracle: MeasurementOracle,
    which: str,
    n_elems: int,
    base: PhaseConfig | None = None,
) -> tuple[PhaseConfig, float]:
    """Global maximizer over all 2^n binary configs of one partition.

    Testing oracle only: n_elems is capped at 20. `base` supplies the
    surrounding config (other partition, split); it defaults to the all-zero
    config with the index-halves split.
    """
    if n_elems < 1:
        raise ValueError("need at least one element")
    if n_elems > MAX_EXHAUSTIVE_ELEMS:
        raise ValueError(f"partition too large to enumerate ({n_elems} > {MAX_EXHAUSTIVE_ELEMS})")
    if base is None:
        base = zero_config(2 * n_elems)
    if len(base.partition(which)) != n_elems:
        raise ValueError("base config partition size does not match n_elems")
    best_cfg = None
    best = -math.inf
    vals = np.zeros(n_elems)
    for code in range(1 << n_elems):
        for i in range(n_elems):
            vals[i] = PI if (code >> i) & 1 else 0.0
        cand = set_partition(base, which, vals)
        p = float(oracle(cand))
        if p > best:
            best_cfg, best = cand, p
    return best_cfg, best


@dataclass(frozen=True)
class AllocationSolution:
    """Result of the constrained power-split search."""

    alpha1: float
    feasible: bool
    report: CapacityReport
    binding: str


class _AlphaResponse:
    """SINRs and capacities as functions of alpha1, from two beta evaluations.

    The couplings are the received powers at full transmit power: x_* for the
    communication signal, y_* for the artificial noise, at Bob and Eve.
    """

    def __init__(self, sc: ScenarioConfig, ch: ChannelSet, cfg: PhaseConfig):
        cs = beta_terms(sc, ch, cfg, PowerSplit(1.0, 0.0)).beta
        an = beta_terms(sc, ch, cfg, PowerSplit(0.0, 1.0)).beta
        self.x_b = cs[0] ** 2 + cs[1] ** 2
        self.y_b = an[2] ** 2 + an[3] ** 2
        self.x_e = cs[6] ** 2 + cs[7] ** 2
        self.y_e = an[4] ** 2 + an[5] ** 2
        self.noise_bob = sc.noise_bob_watts
        self.noise_eve = sc.noise_eve_watts

    def sinrs(self, alpha1):
        a = np.asarray(alpha1, dtype=float)
        sb = a * self.x_b / ((1.0 - a) * self.y_b + self.noise_bob)
        se = a * self.x_e / ((1.0 - a) * self.y_e + self.noise_eve)
        return sb, se

    def secrecy(self, alpha1):
        sb, se = self.sinrs(alpha1)
        return np.maximum(np.log2(1.0 + sb) - np.log2(1.0 + se), 0.0)

    def feasibility(self, alpha1, th: SecrecyThresholds):
        sb, se = self.sinrs(alpha1)
        return (sb >= th.gamma_bob_min - SINR_TOL) & (se <= th.gamma_eve_max + SINR_TOL)

    def violation(self, alpha1, th: SecrecyThresholds):
        sb, se = self.sinrs(alpha1)
        v = np.maximum(th.gamma_bob_min - sb, 0.0)
        if math.isfinite(th.gamma_eve_max):
            v = v + np.maximum(se - th.gamma_eve_max, 0.0)
        return v


def _bisect_boundary(pred, good: float, bad: float, tol: float = ALPHA_TOL) -> float:
    """Last point satisfying pred on the segment from good (True) to bad (False)."""
    while abs(bad - good) > tol:
        mid = (good + bad) / 2.0
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of f on [lo, hi] to absolute x-tolerance tol."""
    if hi - lo <= tol:
        return (lo + hi) / 2.0
    h = hi - lo
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(max(steps - 1, 0)):
        if yc > yd:
            hi, d, yd = d, c, yc
            h *= _INV_PHI
            c = lo + _INV_PHI2 * h
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            yd = f(d)
    return c if yc > yd else d


def _binding_label(sb: float, se: float, th: SecrecyThresholds, feasible: bool) -> str:
    # The 1e-3 relative slack covers the distance the golden-section step can
    # leave between the returned alpha and the exact constraint boundary.
    if feasible:
        b1 = abs(sb - th.gamma_bob_min) <= max(SINR_TOL, 1e-3 * th.gamma_bob_min)
        b2 = math.isfinite(th.gamma_eve_max) and (
            abs(se - th.gamma_eve_max) <= max(SINR_TOL, 1e-3 * th.gamma_eve_max)
        )
    else:
        b1 = sb < th.gamma_bob_min - SINR_TOL
        b2 = se > th.gamma_eve_max + SINR_TOL
    if b1 and b2:
        return "C1+C2"
    if b1:
        return "C1"
    if b2:
        return "C2"
    return "none"


def optimize_alpha(
    sc: ScenarioConfig,
    ch: ChannelSet,
    cfg: PhaseConfig,
    th: SecrecyThresholds,
    grid: int,
) -> AllocationSolution:
    """Maximize secrecy capacity over alpha1 subject to the SINR corridor.

    Scans a uniform grid on [0, 1], keeps the feasible maximizer and refines
    it by golden-section search inside the bracketing feasible grid interval
    (the feasible set is an interval: both SINRs are monotone in alpha1). If
    nothing is feasible, returns the grid point of least constraint violation
    with feasible=False.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    model = _AlphaResponse(sc, ch, cfg)
    alphas = np.linspace(0.0, 1.0, grid)
    feas = model.feasibility(alphas, th)

    if not feas.any():
        worst = model.violation(alphas, th)
        alpha = float(alphas[int(np.argmin(worst))])
        return _finish(sc, ch, cfg, th, alpha, feasible=False)

    cs = model.secrecy(alphas)
    cs = np.where(feas, cs, -np.inf)
    i = int(np.argmax(cs))

    def feasible_at(a: float) -> bool:
        return bool(model.feasibility(a, th))

    # Bracket: the neighboring grid points when feasible, otherwise the exact
    # feasibility boundary between them (the feasible set is an interval, so
    # a binding constraint sits between the best grid point and its neighbor).
    best_a = float(alphas[i])
    if i > 0:
        lo = float(alphas[i - 1]) if feas[i - 1] else _bisect_boundary(feasible_at, best_a, float(alphas[i - 1]))
    else:
        lo = best_a
    if i + 1 < grid:
        hi = float(alphas[i + 1]) if feas[i + 1] else _bisect_boundary(feasible_at, best_a, float(alphas[i + 1]))
    else:
        hi = best_a
    refined = _golden_max(lambda a: float(model.secrecy(a)), lo, hi, ALPHA_TOL)
    candidates = [best_a, refined, lo, hi]
    alpha = max(candidates, key=lambda a: float(model.secrecy(a)))
    return _finish(sc, ch, cfg, th, alpha, feasible=True)


def _finish(sc, ch, cfg, th, alpha: float, feasible: bool) -> AllocationSolution:
    lp = beta_terms(sc, ch, cfg, PowerSplit.of(alpha))
    report = capacity_report(lp)
    return AllocationSolution(
        alpha1=alpha,
        feasible=feasible,
        report=report,
        binding=_binding_label(report.sinr_bob, report.sinr_eve, th, feasible),
    )


def capacity_ratio_alpha(
    sc: ScenarioConfig,
    ch: ChannelSet,
    cfg: PhaseConfig,
    ratio: float,
    grid: int,
) -> float:
    """Largest alpha1 keeping Eve's capacity at or below ratio * Bob's capacity.

    Scans the grid for the last satisfying point, then bisects toward the
    first violating neighbor to the alpha tolerance of the solver.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    model = _AlphaResponse(sc, ch, cfg)

    def ok(alpha) -> np.ndarray:
        sb, se = model.sinrs(alpha)
        return np.log2(1.0 + se) <= ratio * np.log2(1.0 + sb) + 1e-12

    alphas = np.linspace(0.0, 1.0, grid)
    good = ok(alphas)
    if not good.any():
        raise NoFeasibleAlphaError("no alpha1 satisfies the capacity-ratio constraint")
    i = int(np.max(np.nonzero(good)))
    if i == grid - 1:
        return float(alphas[-1])
    lo, hi = float(alphas[i]), float(alphas[i + 1])
    while hi - lo > ALPHA_TOL:
        mid = (lo + hi) / 2.0
        if bool(ok(mid)):
            lo = mid
        else:
            hi = mid
    return lo
