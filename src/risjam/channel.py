"""Line-of-sight per-element channels and cascaded partition gains.

Each transmitter-to-element and element-to-receiver hop is a pure free-space
ray: phase from the exact per-element distance, amplitude from path loss and
the endpoint antenna gains. A hop is one amplitude array and one phase array
over the elements. The cascaded gain of a partition is the coherent sum over
its elements with amplitudes normalized to unit mean, so received powers
factor exactly into (path-loss product L) x |gain|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .scene import (
    ISOTROPIC,
    PANEL_NORMAL,
    SPEED_OF_LIGHT,
    AntennaPattern,
    DegenerateGeometryError,
    ScenarioConfig,
    partition_split,
    pattern_gain,
    pattern_gains,
    rotation_to_frame,
)

TWO_PI = 2.0 * math.pi

#: Hop names: transmitters (s: communication signal, a: artificial noise)
#: to the elements, and the elements to the users (b: Bob, e: Eve).
HOPS = ("s", "a", "b", "e")

#: (source, partition, user) keys of ChannelSet.paths.
PATH_KEYS = tuple(
    (src, part, user) for src in ("s", "a") for part in ("rb", "re") for user in ("b", "e")
)

_ON_AXIS = np.array([1.0, 0.0, 0.0])


def _pow2(x: np.ndarray) -> np.ndarray:
    # Python's float ** calls libm pow, which rounds differently from numpy's
    # x * x for a small share of inputs; scene.distance and scene.fspl use **.
    return np.fromiter(map(pow, x.ravel().tolist(), itertools.repeat(2)), float, x.size).reshape(x.shape)


def _gains(p: AntennaPattern, boresight: np.ndarray | None, directions: np.ndarray) -> np.ndarray:
    if boresight is None:
        return np.full(directions.shape[0], pattern_gain(p, _ON_AXIS))
    # A broadcast batched matmul rounds like the per-vector R @ v; V @ R.T
    # and einsum do not.
    local = np.matmul(rotation_to_frame(boresight), directions[:, :, None])[:, :, 0]
    return pattern_gains(p, local)


def los_channel(
    tx: np.ndarray,
    rx: np.ndarray,
    fc: float,
    tx_pat: AntennaPattern,
    rx_pat: AntennaPattern,
    tx_boresight: np.ndarray | None = None,
    rx_boresight: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Free-space channels h = amplitude * exp(-j*phase) from tx to rx.

    tx and rx are positions of shape (3,) or (N, 3), broadcast against each
    other; returns (amplitude, phase) arrays of shape (N,), phase in
    [0, 2pi). Boresights default to "aimed at the other endpoint" (on-axis
    gain); pass explicit world-frame boresight vectors for fixed antenna
    orientations. Each entry equals, bit for bit, the scalar composition of
    scene.distance, fspl, rotation_to_frame and pattern_gain.
    """
    if not fc > 0.0:
        raise ValueError("carrier frequency must be positive")
    tx, rx = np.broadcast_arrays(np.atleast_2d(np.asarray(tx, dtype=float)),
                                 np.atleast_2d(np.asarray(rx, dtype=float)))
    sq = _pow2(tx - rx)
    d = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    if np.any(d <= 0.0):
        raise DegenerateGeometryError("coincident antenna positions")
    lam = SPEED_OF_LIGHT / fc
    direction = (rx - tx) / d[:, None]
    g_tx = _gains(tx_pat, tx_boresight, direction)
    g_rx = _gains(rx_pat, rx_boresight, -direction)
    amplitude = np.sqrt(_pow2(lam / (4.0 * math.pi * d)) * g_tx * g_rx)
    phase = np.fmod(TWO_PI * d / lam, TWO_PI)
    return amplitude, phase


@dataclass(frozen=True, eq=False)
class CascadedPath:
    """One source -> partition -> user cascade, normalized for coherent sums.

    amplitude[i] is the amplitude product of the two hops at element
    indices[i] over its mean across the set, and phase[i] the sum of the two
    hop phases; path_loss is the squared mean amplitude product, so the
    received power is path_loss * |cascaded_gain(path, theta)|^2.
    """

    indices: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    path_loss: float


def cascaded_path(amp_in, phase_in, amp_out, phase_out, indices) -> CascadedPath:
    """Normalized cascade of two hops (amplitude and phase arrays) over an element set."""
    amp_in, phase_in, amp_out, phase_out = (
        np.asarray(a, dtype=float) for a in (amp_in, phase_in, amp_out, phase_out)
    )
    idx = np.asarray(indices, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= min(len(amp_in), len(amp_out)):
        raise IndexError("cascaded_path index outside the hop arrays")
    prod = amp_in[idx] * amp_out[idx]
    mean = float(np.mean(prod))
    amplitude = prod / mean if mean > 0.0 else np.zeros(idx.size)
    return CascadedPath(idx, amplitude, phase_in[idx] + phase_out[idx], mean ** 2)


def cascaded_gain(path: CascadedPath, phases) -> complex:
    """Normalized coherent gain sum_i a_i * exp(-j*(psi_i + theta_n)), n = indices[i].

    phases holds the element phases theta for the whole surface. A perfectly
    phase-aligned set of k elements has |gain| = k.
    """
    theta = np.asarray(phases, dtype=float)[path.indices]
    return kernels.coherent_sum(path.amplitude, path.phase, theta)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Per-element channels of the four hops plus their per-partition cascades.

    hops maps each name in HOPS to its (amplitude, phase) arrays in canonical
    element order. paths[(source, partition, user)] is the normalized cascade
    that received powers, oracles and beta terms all read.
    """

    hops: dict[str, tuple[np.ndarray, np.ndarray]]
    bob_indices: tuple[int, ...]
    eve_indices: tuple[int, ...]
    paths: dict[tuple[str, str, str], CascadedPath] = field(init=False, repr=False)

    def __post_init__(self):
        for amp, phase in self.hops.values():
            amp.setflags(write=False)
            phase.setflags(write=False)
        paths = {
            (src, part, user): cascaded_path(*self.hops[src], *self.hops[user], self.partition(part))
            for src, part, user in PATH_KEYS
        }
        object.__setattr__(self, "paths", paths)

    @property
    def n_elements(self) -> int:
        return len(self.hops["s"][0])

    def amplitudes(self, name: str) -> np.ndarray:
        return self.hops[name][0]

    def phases(self, name: str) -> np.ndarray:
        return self.hops[name][1]

    def partition(self, which: str) -> tuple[int, ...]:
        if which == "rb":
            return self.bob_indices
        if which == "re":
            return self.eve_indices
        raise ValueError(f"partition must be 'rb' or 're', got {which!r}")


def build_channel_set(sc: ScenarioConfig) -> ChannelSet:
    """Synthesize all per-element channels and path-loss products for a scenario.

    The communication-signal antenna is aimed at the centroid of Bob's
    partition and the noise antenna at the centroid of Eve's partition (each
    signal feeds its own panel half); RIS elements radiate along the surface
    normal on both hops; receivers are isotropic.
    """
    elements = sc.elements
    normal = np.asarray(PANEL_NORMAL)
    bob_idx, eve_idx = partition_split(sc.ris_rows, sc.ris_cols)
    aim_cs = np.mean(elements[list(bob_idx)], axis=0) - sc.cs_tx.as_array()
    aim_an = np.mean(elements[list(eve_idx)], axis=0) - sc.an_tx.as_array()
    fc, tx_pat, el_pat = sc.fc_hz, sc.tx_pattern, sc.ris_element_pattern
    hops = {
        "s": los_channel(sc.cs_tx.as_array(), elements, fc, tx_pat, el_pat, aim_cs, normal),
        "a": los_channel(sc.an_tx.as_array(), elements, fc, tx_pat, el_pat, aim_an, normal),
        "b": los_channel(elements, sc.bob.as_array(), fc, el_pat, ISOTROPIC, normal),
        "e": los_channel(elements, sc.eve.as_array(), fc, el_pat, ISOTROPIC, normal),
    }
    return ChannelSet(hops=hops, bob_indices=bob_idx, eve_indices=eve_idx)


def channel_dump_rows(ch: ChannelSet):
    """Rows (n, amp/phase for each of the four hops) with 1-based element index."""
    columns = [arr.tolist() for name in HOPS for arr in ch.hops[name]]
    for n, values in enumerate(zip(*columns), start=1):
        yield (n, *values)


CHANNEL_DUMP_COLUMNS = (
    "n",
    "h_s_amp", "h_s_phase",
    "h_a_amp", "h_a_phase",
    "h_b_amp", "h_b_phase",
    "h_e_amp", "h_e_phase",
)
