"""Binary-phase RIS configurations, the partition structure, and sweep codebooks."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi

#: The two admissible element phases (mirror and half-wave states).
BINARY_PHASES = (0.0, PI)


def _check_binary(values: np.ndarray, what: str) -> None:
    if not np.all((values == 0.0) | (values == PI)):
        raise ValueError(f"{what} must contain only the phases 0 and pi")


@dataclass(frozen=True)
class PhaseConfig:
    """Immutable binary phase vector with its Bob/Eve partition split.

    phases[n] is the reflection phase of element n (canonical row-major
    order); bob_indices and eve_indices partition range(N) into two equal
    halves. Treat instances as values: updates go through with_phase /
    set_partition, which return new configs.
    """

    phases: np.ndarray
    bob_indices: tuple[int, ...]
    eve_indices: tuple[int, ...]

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)  # private copy
        _check_binary(phases, "phases")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        n = phases.shape[0]
        bob = tuple(sorted(self.bob_indices))
        eve = tuple(sorted(self.eve_indices))
        if len(bob) != n // 2 or len(eve) != n - n // 2 or n % 2 != 0:
            raise ValueError("partitions must each hold half of an even element count")
        if sorted(bob + eve) != list(range(n)):
            raise ValueError("partitions must be disjoint and cover all elements")
        object.__setattr__(self, "bob_indices", bob)
        object.__setattr__(self, "eve_indices", eve)

    @property
    def n_elements(self) -> int:
        return int(self.phases.shape[0])

    def partition(self, which: str) -> tuple[int, ...]:
        if which == "rb":
            return self.bob_indices
        if which == "re":
            return self.eve_indices
        raise ValueError(f"partition must be 'rb' or 're', got {which!r}")

    def with_phase(self, index: int, phase: float) -> "PhaseConfig":
        phases = np.array(self.phases)
        phases[index] = phase
        return PhaseConfig(phases, self.bob_indices, self.eve_indices)

    def bits(self) -> np.ndarray:
        return (self.phases == PI).astype(np.uint8)

    def snapshot_id(self) -> str:
        """Short stable identifier of the phase vector (for traces)."""
        return hashlib.sha256(self.bits().tobytes()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, PhaseConfig):
            return NotImplemented
        return (
            np.array_equal(self.phases, other.phases)
            and self.bob_indices == other.bob_indices
            and self.eve_indices == other.eve_indices
        )

    def __hash__(self):
        return hash((self.phases.tobytes(), self.bob_indices, self.eve_indices))


def zero_config(n_elements: int, split=None) -> PhaseConfig:
    """All-zero (mirror-like) configuration.

    Without an explicit (bob_indices, eve_indices) split the first half of
    the canonical indices is Eve's partition and the second half Bob's;
    geometry-aware callers should pass scene.partition_split(geometry).
    """
    if n_elements <= 0 or n_elements % 2 != 0:
        raise ValueError("element count must be a positive even number")
    if split is None:
        half = n_elements // 2
        split = (tuple(range(half, n_elements)), tuple(range(half)))
    bob, eve = split
    return PhaseConfig(np.zeros(n_elements), tuple(bob), tuple(eve))


def set_partition(cfg: PhaseConfig, which: str, partition_phases) -> PhaseConfig:
    """Return a copy of cfg with one partition's phases replaced.

    partition_phases[i] lands on the i-th (ascending) element index of the
    chosen partition; the other partition is untouched.
    """
    idx = cfg.partition(which)
    vals = np.asarray(partition_phases, dtype=float)
    if vals.shape != (len(idx),):
        raise ValueError(f"expected {len(idx)} phases for partition {which!r}, got {vals.shape}")
    _check_binary(vals, "partition phases")
    phases = np.array(cfg.phases)
    phases[list(idx)] = vals
    return PhaseConfig(phases, cfg.bob_indices, cfg.eve_indices)


@dataclass(frozen=True)
class Codebook:
    """Ordered set of distinct binary phase codewords for one partition."""

    codewords: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        seen = set()
        for cw in self.codewords:
            arr = np.array(cw, dtype=float)  # private copy
            _check_binary(arr, "codeword")
            key = arr.tobytes()
            if key in seen:
                raise ValueError("codewords must be pairwise distinct")
            seen.add(key)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "codewords", tuple(frozen))

    def __len__(self):
        return len(self.codewords)

    def __iter__(self):
        return iter(self.codewords)


def binary_dft_codebook(m: int) -> Codebook:
    """Distinct binary codewords from phase-quantizing the m-point DFT matrix.

    Each DFT entry exp(-2j*pi*k*n/m) is mapped to the nearer of {0, pi}
    (exact quarter-turn ties go to 0); duplicate rows collapse, keeping first
    occurrence, so the result has at most m codewords and always starts with
    the all-zero (DC) word. m must be a power of two.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError("codebook size must be a power of 2")
    n = np.arange(m, dtype=np.int64)
    seen = set()
    words = []
    for k in range(m):
        # entry phase is 2*pi*r/m with r = k*n mod m; it is nearer pi exactly
        # when 1/4 < r/m < 3/4, decided in integers to make ties exact
        r4 = 4 * ((k * n) % m)
        row = np.where((m < r4) & (r4 < 3 * m), PI, 0.0)
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            words.append(row)
    return Codebook(tuple(words))


def save_phase_config(cfg: PhaseConfig, path) -> None:
    """Write the on-disk form: one line of N comma-separated bits (1 = 180 degrees)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(int(b)) for b in cfg.bits()) + "\n")


def load_phase_config(path, split=None) -> PhaseConfig:
    """Load a config written by save_phase_config.

    The file stores only the bits; the partition split is supplied by the
    caller (defaults to the index-halves convention of zero_config).
    """
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
    base = zero_config(len(bits), split)
    phases = np.where(np.array(bits) == 1, PI, 0.0)
    return PhaseConfig(phases, base.bob_indices, base.eve_indices)
