"""Binary-phase RIS configurations, their on-disk form, and sweep codebooks."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi


def is_binary(values: np.ndarray) -> bool:
    """Whether every phase is one of the two element states, 0 (mirror) or pi."""
    return np.count_nonzero(values == 0.0) + np.count_nonzero(values == PI) == np.size(values)


def _check_binary(values: np.ndarray, what: str) -> None:
    if not is_binary(values):
        raise ValueError(f"{what} must contain only the phases 0 and pi")


@dataclass(frozen=True)
class PhaseConfig:
    """Immutable binary phase vector of the whole surface.

    phases[n] is the reflection phase of element n (canonical row-major
    order). The Bob/Eve partition split belongs to channel.ChannelSet;
    functions that act on one partition take its element indices. Treat
    instances as values: updates go through set_partition, which returns a
    new config.
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)  # private copy
        _check_binary(phases, "phases")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self) -> int:
        return int(self.phases.shape[0])

    def bits(self) -> np.ndarray:
        return (self.phases == PI).astype(np.uint8)

    def snapshot_id(self) -> str:
        """Short stable identifier of the phase vector."""
        return hashlib.sha256(self.bits().tobytes()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, PhaseConfig):
            return NotImplemented
        return np.array_equal(self.phases, other.phases)

    def __hash__(self):
        return hash(self.phases.tobytes())


def zero_config(n_elements: int) -> PhaseConfig:
    """All-zero (mirror-like) configuration of n_elements elements."""
    if n_elements <= 0:
        raise ValueError("element count must be positive")
    return PhaseConfig(np.zeros(n_elements))


def set_partition(cfg: PhaseConfig, indices, partition_phases) -> PhaseConfig:
    """Return a copy of cfg with one partition's phases replaced.

    partition_phases[i] lands on element indices[i]; the other elements are
    untouched.
    """
    idx = np.asarray(indices, dtype=np.intp)
    vals = np.asarray(partition_phases, dtype=float)
    if vals.shape != idx.shape:
        raise ValueError(f"expected {len(idx)} phases for the partition, got {vals.shape}")
    _check_binary(vals, "partition phases")
    phases = np.array(cfg.phases)
    phases[idx] = vals
    return PhaseConfig(phases)


def binary_dft_codebook(m: int) -> np.ndarray:
    """Distinct binary codewords from phase-quantizing the m-point DFT matrix.

    Each DFT entry exp(-2j*pi*k*n/m) is mapped to the nearer of {0, pi}
    (exact quarter-turn ties go to 0) and stored as a bit, 1 for pi, as in
    PhaseConfig.bits(). Duplicate rows collapse, keeping first occurrence, so
    the result is a read-only uint8 (m', m) array of m' <= m codewords, one
    per row, and always starts with the all-zero (DC) word. m must be a power
    of two.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"codebook size must be a power of 2, got {m}: "
                         "a DFT codeword holds one bit per partition element")
    # Row m - k quantizes like row k (its entry phases are the negatives), so
    # rows past m/2 are never first occurrences. The entry phase is 2*pi*r/m
    # with r = k*n mod m; it is nearer pi exactly when 1/4 < r/m < 3/4, decided
    # in integers to make ties exact. uint32 products wrap modulo 2**32, a
    # multiple of m, so the residues are exact.
    rows, n = np.arange(m // 2 + 1, dtype=np.uint32), np.arange(m, dtype=np.uint32)
    first: dict[bytes, np.ndarray] = {}  # packed row bits -> the packed row, in row order
    for start in range(0, rows.size, 64):  # 64 rows at a time: 512 KB of residues at m = 2048
        r4 = np.multiply.outer(rows[start:start + 64], n)
        r4 &= m - 1
        r4 <<= 2
        for row in np.packbits((m < r4) & (r4 < 3 * m), axis=1):
            first.setdefault(row.tobytes(), row)
    words = np.unpackbits(np.array(list(first.values())), axis=1, count=m)
    words.setflags(write=False)
    return words


def save_phase_config(cfg: PhaseConfig, path) -> None:
    """Write the on-disk form: one line of N comma-separated bits (1 = 180 degrees)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(int(b)) for b in cfg.bits()) + "\n")


def load_phase_config(path) -> PhaseConfig:
    """Load a config written by save_phase_config (the file stores only the bits)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError("empty phase-config file")
    bits = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in ("0", "1"):
            raise ValueError(f"phase-config entries must be 0 or 1, got {tok!r}")
        bits.append(int(tok))
    return PhaseConfig(np.where(np.array(bits) == 1, PI, 0.0))
