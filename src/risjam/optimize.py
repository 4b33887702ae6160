"""Phase-shift optimizers and the constrained power-allocation solver.

The optimizers see the link only through a measurement oracle (full-surface
phase vector in, received power out), mirroring a hardware sweep: the
iterative method is one coordinate-ascent pass over the partition in seeded
random order, the DFT method sweeps a quantized-DFT codebook, and exhaustive
enumeration serves as the testing upper bound. Power allocation reduces to
one dimension (alpha2 = 1 - alpha1) and is solved on a grid with
golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as kernels
from .channel import ChannelSet
from .ris import PI, Codebook, PhaseConfig, set_partition
from .scene import ScenarioConfig
from .secrecy import (
    CapacityReport,
    PowerSplit,
    SecrecyThresholds,
    beta_terms,
    capacity_report,
)

#: Anything that maps a full-surface phase vector (an (N,) array) to a received
#: power in watts. The searches write every trial into one buffer, so the
#: vector is valid only during the call: an oracle must not modify it, and one
#: that keeps it must copy it.
MeasurementOracle = Callable[[np.ndarray], float]

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
    """Received power of one signal at one user, as a function of the RIS phases.

    signal is "cs" (communication signal) or "an" (artificial noise); user is
    "bob" or "eve". The measured signal carries the full transmit power: the
    binary-phase argmax is invariant to the power split, which is allocated
    separately. Both partitions contribute (the non-target partition adds a
    constant floor while it is held fixed).

    The oracle keeps a copy of the last vector it measured and each
    partition's power there. A vector that differs from it in at most two
    elements, each set to 0 or pi (a search's flip trial, or a rejected flip's
    revert plus the next flip), is measured by copying those elements' terms
    from per-element tables of both binary states into the partition's term
    array and re-summing it. The array equals the one coherent_sum builds,
    element for element, so the power is the same to the last bit. Any other
    vector is measured in full.
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
        self._last = None  # copy of the last measured vector
        self._powers = [0.0, 0.0]  # each partition's power at _last
        self._terms = [None, None]  # each partition's terms at _last, once built
        self._tables = [None, None]  # each partition's (theta=0, theta=pi) terms
        self._part = [-1] * self._n  # each element's partition, -1 for neither
        self._pos = [0] * self._n  # and its position in it
        for k, (path, _) in enumerate(self._parts):
            for i, e in enumerate(path.indices.tolist()):
                self._part[e], self._pos[e] = k, i

    def __call__(self, phases: np.ndarray) -> float:
        if np.shape(phases) != (self._n,):
            raise ValueError("phase vector length does not match the channel set")
        self.calls += 1
        if self._last is not None:
            changed = phases != self._last
            if np.count_nonzero(changed) <= 2 and self._flip(phases, changed.nonzero()[0].tolist()):
                return 0.0 + self._powers[0] + self._powers[1]
        for k, (path, scale) in enumerate(self._parts):
            g = kernels.coherent_sum(path.amplitude, path.phase, phases[path.indices])
            self._powers[k] = scale * (g.real * g.real + g.imag * g.imag)
        self._last = np.array(phases, dtype=float)
        self._terms = [None, None]
        return 0.0 + self._powers[0] + self._powers[1]

    def _flip(self, phases: np.ndarray, elems: list[int]) -> bool:
        """Move to `phases`, which differs from the last vector at `elems`, from the tables.

        Only the partitions that hold a changed element are re-summed. Returns
        False, with nothing updated, when a changed element is not binary, or
        when a partition without a term array at the last vector (as after a
        full measurement) is not binary at `phases`.
        """
        values = [phases.item(e) for e in elems]
        for v in values:
            if v != 0.0 and v != PI:
                return False
        parts = [self._part[e] for e in elems]
        touched = [k for k in (0, 1) if k in parts]
        for k in touched:
            if self._terms[k] is None and not _is_binary(phases[self._parts[k][0].indices]):
                return False
        for k in touched:
            path, scale = self._parts[k]
            if self._tables[k] is None:
                self._tables[k] = [path.amplitude * np.exp(-1j * (path.phase + t)) for t in (0.0, PI)]
            t0, tpi = self._tables[k]
            terms = self._terms[k]
            if terms is None:
                terms = self._terms[k] = np.where(phases[path.indices] == PI, tpi, t0)
            else:
                for e, part, v in zip(elems, parts, values):
                    if part == k:
                        i = self._pos[e]
                        terms[i] = tpi[i] if v == PI else t0[i]
            g = complex(np.add.reduce(terms))
            self._powers[k] = scale * (g.real * g.real + g.imag * g.imag)
        for e, v in zip(elems, values):
            self._last[e] = v
        return True


def _is_binary(theta: np.ndarray) -> bool:
    return bool(np.all((theta == 0.0) | (theta == PI)))


def cs_power_at_bob(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_CS oracle: communication-signal power at Bob (objective for r_b)."""
    return ReceivedPowerOracle(sc, ch, "cs", "bob")


def an_power_at_eve(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_AN oracle: artificial-noise power at Eve (objective for r_e)."""
    return ReceivedPowerOracle(sc, ch, "an", "eve")


@dataclass(frozen=True)
class TraceEntry:
    """One optimizer trial: a recorded power and the running best.

    dft_sweep records each codeword's measured power in power_w.
    iterative_optimize records the incumbent, so power_w equals best_power_w
    and a rejected flip's measured power is not kept.
    """

    trial: int
    power_w: float
    best_power_w: float


def iterative_optimize(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    indices,
    seed: int,
) -> tuple[PhaseConfig, list[TraceEntry]]:
    """Coordinate ascent over the binary phases of the partition at `indices`.

    Visits each element of the partition exactly once, in a seeded uniformly
    random order, measuring the flipped phase against the cached incumbent
    power and keeping the better one (exact ties keep the incumbent, i.e. 0
    from the canonical all-zero start). One new oracle call per element after
    the initial incumbent measurement. Each trial flips the element in a
    private phase vector and flips it back when the power does not improve.
    """
    rng = np.random.default_rng(seed)
    phases = np.array(cfg.phases)
    best = float(oracle(phases))
    trace: list[TraceEntry] = []
    visits = np.asarray(indices, dtype=np.intp)[rng.permutation(len(indices))].tolist()
    for trial, elem in enumerate(visits, start=1):
        kept = phases[elem]
        phases[elem] = PI if kept == 0.0 else 0.0
        p = float(oracle(phases))
        if p > best:
            best = p
        else:
            phases[elem] = kept
        trace.append(TraceEntry(trial, best, best))
    return PhaseConfig(phases), trace


def dft_sweep(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    indices,
    cb: Codebook,
    seed: int,
) -> tuple[PhaseConfig, list[TraceEntry]]:
    """Sweep a codebook over the partition at `indices` and install the best codeword.

    The other partition is expected to be held at 0 by the caller. If the
    codebook holds fewer codewords than the partition size, the sweep is
    padded with seeded uniform-random binary codewords to keep the trial
    budget at one trial per partition element.
    """
    if len(cb) == 0:
        raise ValueError("empty codebook")
    idx = np.array(indices)
    budget = len(idx)
    if any(cw.shape != (budget,) for cw in cb):
        raise ValueError(f"codewords must hold {budget} phases, one per partition element")
    rng = np.random.default_rng(seed)
    trials = list(cb)
    while len(trials) < budget:
        trials.append(np.where(rng.integers(0, 2, budget) == 1, PI, 0.0))
    phases = np.array(cfg.phases)
    best_cw = None
    best = -math.inf
    trace: list[TraceEntry] = []
    for t, cw in enumerate(trials, start=1):
        phases[idx] = cw
        p = float(oracle(phases))
        if p > best:
            best_cw, best = cw, p
        trace.append(TraceEntry(t, p, best))
    return set_partition(cfg, idx, best_cw), trace


def exhaustive_search(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    indices,
) -> tuple[PhaseConfig, float]:
    """Global maximizer over all binary phases of the partition at `indices`.

    Testing oracle only: the partition is capped at 20 elements. cfg supplies
    the phases of every element outside the partition.
    """
    idx = np.array(indices)
    n = len(idx)
    if n < 1:
        raise ValueError("need at least one element")
    if n > MAX_EXHAUSTIVE_ELEMS:
        raise ValueError(f"partition too large to enumerate ({n} > {MAX_EXHAUSTIVE_ELEMS})")
    phases = np.array(cfg.phases)
    best_vals = None
    best = -math.inf
    vals = np.zeros(n)
    for code in range(1 << n):
        for i in range(n):
            vals[i] = PI if (code >> i) & 1 else 0.0
        phases[idx] = vals
        p = float(oracle(phases))
        if p > best:
            best_vals, best = vals.copy(), p  # vals is rewritten next code
    return set_partition(cfg, idx, best_vals), best


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
    return _bisect_boundary(ok, float(alphas[i]), float(alphas[i + 1]))
