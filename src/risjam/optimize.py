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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels as kernels
from .channel import ChannelSet
from .ris import PI, PhaseConfig, set_partition
from .scene import ScenarioConfig
from .secrecy import (
    CapacityReport,
    SecrecyThresholds,
    capacity_report,
    link_powers,
    path_gains,
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

    The oracle keeps a copy of the last vector it measured and, for each
    partition, its power there and, when its phases are all 0 or pi, its term
    array: the element terms amplitude * exp(-j(psi + theta)), taken from
    per-element tables of both binary states. A vector that differs from the
    last in at most two elements, each set to 0 or pi (a search's flip trial,
    or a rejected flip's revert plus the next flip), is a flip trial: each
    changed element's term is patched and each touched partition re-summed.
    Any other vector is measured partition by partition: a partition whose
    phases did not change keeps its power, a binary one is summed from the
    tables, and only a partition holding another phase goes through
    coherent_sum. The term arrays equal the ones coherent_sum builds, element
    for element, so every power is the same to the last bit. A vector that is
    not a numpy array is converted to a float array first.
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
        self._paths = paths = [ch.paths[(src, part, out)] for part in ("rb", "re")]
        self._scales = [pt * path.path_loss for path in paths]
        self._last = None  # copy of the last measured vector
        self._powers = [0.0, 0.0]  # each partition's power at _last
        self._terms = [None, None]  # each partition's term array at _last, None if not binary
        self._tables = [None, None]  # each partition's (theta=0, theta=pi) term arrays
        self._states = [None, None]  # the same tables as Python lists, built at the first flip trial
        part = np.full(self._n, -1)  # each element's partition, -1 for neither
        pos = np.zeros(self._n, dtype=np.intp)  # and its position in it
        for k, path in enumerate(paths):
            part[path.indices] = k
            pos[path.indices] = np.arange(path.indices.size)
        # one (partition, position) look-up per element
        self._where = list(zip(part.tolist(), pos.tolist()))
        self._in_first = part == 0

    def __call__(self, phases: np.ndarray) -> float:
        if type(phases) is not np.ndarray:
            phases = np.asarray(phases, dtype=float)
        if phases.shape != (self._n,):
            raise ValueError("phase vector length does not match the channel set")
        self.calls += 1
        last, powers = self._last, self._powers
        keep = (False, False)  # whether each partition keeps its phases from the last vector
        if last is not None:
            changed = phases != last
            count = np.count_nonzero(changed)
            if count <= 2:
                # A flip trial. Any element that cannot be patched (in neither
                # partition, not binary, or in a partition that is not binary
                # and has no term array) breaks out to the full measurement,
                # which replaces every partly updated state.
                where, terms, states, item = self._where, self._terms, self._states, phases.item
                touched = 0  # bit k set when partition k holds a changed element
                for e in changed.nonzero()[0].tolist():
                    k, i = where[e]
                    if k < 0:
                        break
                    t = terms[k]
                    if t is None and (t := self._start(k, phases[self._paths[k].indices])) is None:
                        break
                    if (s := states[k]) is None:  # the partition's first flip trial
                        s = states[k] = tuple(table.tolist() for table in self._tables[k])
                    v = item(e)
                    if v == PI:
                        t[i] = s[1][i]
                    elif v == 0.0:
                        t[i] = s[0][i]
                    else:
                        break
                    last[e] = v
                    touched |= 1 << k
                else:
                    for k in (0, 1):
                        if touched >> k & 1:
                            g = complex(np.add.reduce(terms[k]))
                            powers[k] = self._scales[k] * (g.real * g.real + g.imag * g.imag)
                    return 0.0 + powers[0] + powers[1]
            else:
                # Partition 1 keeps its phases when every change lies in partition 0.
                first = np.count_nonzero(changed & self._in_first)
                keep = (first == 0, first == count)
        for k, path in enumerate(self._paths):
            if keep[k]:
                continue  # its power and term array still hold
            theta = phases[path.indices]
            t = self._start(k, theta)
            if t is None:
                g = kernels.coherent_sum(path.amplitude, path.phase, theta)
            else:
                g = complex(np.add.reduce(t))
            powers[k] = self._scales[k] * (g.real * g.real + g.imag * g.imag)
        self._last = np.array(phases, dtype=float)
        return 0.0 + powers[0] + powers[1]

    def _start(self, k: int, theta: np.ndarray) -> np.ndarray | None:
        """Set partition k's term array at its phases `theta`; None if they are not binary."""
        at_pi = theta == PI
        if np.count_nonzero(at_pi) + np.count_nonzero(theta == 0.0) != theta.size:
            self._terms[k] = None
            return None
        if self._tables[k] is None:
            path = self._paths[k]
            t0, tpi = (path.amplitude * np.exp(-1j * (path.phase + t)) for t in (0.0, PI))
            self._tables[k] = (t0, tpi)
        t0, tpi = self._tables[k]
        terms = self._terms[k] = np.where(at_pi, tpi, t0)
        return terms


def cs_power_at_bob(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_CS oracle: communication-signal power at Bob (objective for r_b)."""
    return ReceivedPowerOracle(sc, ch, "cs", "bob")


def an_power_at_eve(sc: ScenarioConfig, ch: ChannelSet) -> ReceivedPowerOracle:
    """P_AN oracle: artificial-noise power at Eve (objective for r_e)."""
    return ReceivedPowerOracle(sc, ch, "an", "eve")


class TraceEntry(NamedTuple):
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
    bests: list[float] = []  # the incumbent power after each trial
    visits = np.asarray(indices, dtype=np.intp)[rng.permutation(len(indices))].tolist()
    item = phases.item
    for elem in visits:
        kept = item(elem)
        phases[elem] = PI if kept == 0.0 else 0.0
        p = float(oracle(phases))
        if p > best:
            best = p
        else:
            phases[elem] = kept
        bests.append(best)
    trace = list(map(TraceEntry._make, zip(range(1, len(bests) + 1), bests, bests)))
    return PhaseConfig(phases), trace


def dft_sweep(
    oracle: MeasurementOracle,
    cfg: PhaseConfig,
    indices,
    codebook: np.ndarray,
    seed: int,
) -> tuple[PhaseConfig, list[TraceEntry]]:
    """Sweep a codebook over the partition at `indices` and install the best codeword.

    codebook holds one codeword per row as bits, 1 for pi (bool, or integers
    0 and 1: binary_dft_codebook's array). The other partition is expected to
    be held at 0 by the caller. If the codebook holds fewer codewords than
    the partition size, the sweep is padded with seeded uniform-random binary
    codewords to keep the trial budget at one trial per partition element.
    Rows become phase vectors one block at a time.
    """
    idx = np.array(indices)
    budget = len(idx)
    codebook = np.asarray(codebook)
    if codebook.ndim != 2 or len(codebook) == 0:
        raise ValueError("codebook must be a non-empty 2-D array, one codeword per row")
    if codebook.shape[1] != budget:
        raise ValueError(f"codewords must hold {budget} bits, one per partition element")
    # the dtype and the integer extremes: no temporaries the size of the codebook
    kind = codebook.dtype.kind
    if kind != "b" and (kind not in "iu" or codebook.min() < 0 or codebook.max() > 1):
        raise ValueError("codewords must be bit rows: bool, or integers 0 and 1 (1 = pi)")
    blocks = (codebook[start:start + _PADDING_BLOCK] for start in range(0, len(codebook), _PADDING_BLOCK))
    padding = _padding(np.random.default_rng(seed), budget - len(codebook), budget)
    phases = np.array(cfg.phases)
    best_cw = None
    best = -math.inf
    powers: list[float] = []  # each trial's measured power
    bests: list[float] = []  # the best power after each trial
    for block in itertools.chain(blocks, padding):
        for cw in block * PI:
            phases[idx] = cw
            p = float(oracle(phases))
            if p > best:
                best_cw, best = cw.copy(), p  # a view would keep the whole block
            powers.append(p)
            bests.append(best)
    trace = list(map(TraceEntry._make, zip(range(1, len(powers) + 1), powers, bests)))
    return set_partition(cfg, idx, best_cw), trace


#: Codewords turned into phase vectors at a time, codebook and padding alike:
#: a block of this many rows of a 64x64 panel's partition takes 1 MB. Blocked
#: padding draws give the same bits as one draw per row.
_PADDING_BLOCK = 64


def _padding(rng: np.random.Generator, count: int, size: int):
    """`count` seeded uniform-random codewords of `size` bits, drawn and yielded in blocks."""
    for start in range(0, count, _PADDING_BLOCK):
        yield rng.integers(0, 2, (min(_PADDING_BLOCK, count - start), size))


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


class LinkCouplings:
    """SINRs and capacities of one configuration at one transmit power, as functions of alpha1.

    Built from the eight path gains (path_gains) and the transmit and noise
    powers in watts. The couplings are the received powers at full transmit
    power: x_* for the communication signal, y_* for the artificial noise, at
    Bob and Eve. `report` scales the same gains to one split (link_powers).
    """

    def __init__(self, ch: ChannelSet, gains, pt: float, noise_bob: float, noise_eve: float):
        if noise_bob < 0.0 or noise_eve < 0.0:
            raise ValueError("noise powers must be non-negative")
        self._link = (ch, gains, pt)
        cs = link_powers(*self._link, 1.0)
        an = link_powers(*self._link, 0.0)
        self.x_b = cs[0] ** 2 + cs[1] ** 2
        self.y_b = an[2] ** 2 + an[3] ** 2
        self.x_e = cs[6] ** 2 + cs[7] ** 2
        self.y_e = an[4] ** 2 + an[5] ** 2
        self.noise_bob, self.noise_eve = noise_bob, noise_eve

    def report(self, alpha1: float) -> CapacityReport:
        """SINRs and capacities at the split (alpha1, 1 - alpha1), from its eight amplitudes."""
        return capacity_report(link_powers(*self._link, alpha1), self.noise_bob, self.noise_eve)

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
    """solve_split for cfg at the scenario's transmit and noise powers."""
    model = LinkCouplings(ch, path_gains(ch, cfg), sc.pt_watts, sc.noise_bob_watts, sc.noise_eve_watts)
    return solve_split(model, th, grid)


def solve_split(model: LinkCouplings, th: SecrecyThresholds, grid: int) -> AllocationSolution:
    """Maximize secrecy capacity over alpha1 subject to the SINR corridor.

    Scans a uniform grid on [0, 1], keeps the feasible maximizer and refines
    it by golden-section search inside the bracketing feasible grid interval
    (the feasible set is an interval: both SINRs are monotone in alpha1). If
    nothing is feasible, returns the grid point of least constraint violation
    with feasible=False.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    alphas = np.linspace(0.0, 1.0, grid)
    feas = model.feasibility(alphas, th)

    if not feas.any():
        worst = model.violation(alphas, th)
        alpha = float(alphas[int(np.argmin(worst))])
        return _finish(model, th, alpha, feasible=False)

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
    return _finish(model, th, alpha, feasible=True)


def _finish(model: LinkCouplings, th, alpha: float, feasible: bool) -> AllocationSolution:
    report = model.report(alpha)
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
    model = LinkCouplings(ch, path_gains(ch, cfg), sc.pt_watts, sc.noise_bob_watts, sc.noise_eve_watts)

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
