"""Received-signal decomposition and secrecy-capacity math.

The eight beta terms are the amplitudes of the four signal components seen by
each receiver: for Bob, beta_1/beta_2 are the communication signal through
his own / Eve's partition and beta_3/beta_4 the artificial noise through
Eve's / his partition; for Eve, beta_5/beta_6 are the noise through her own /
Bob's partition and beta_7/beta_8 the communication signal through Bob's /
her partition. Components add in power (mutually independent signals), never
coherently across partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, cascaded_gain
from .ris import PhaseConfig
from .scene import ScenarioConfig

#: (source, partition, user) behind each beta index; beta_k = BETA_PATHS[k-1].
BETA_PATHS = (
    ("s", "rb", "b"),  # beta_1: aligned communication signal at Bob
    ("s", "re", "b"),  # beta_2
    ("a", "re", "b"),  # beta_3
    ("a", "rb", "b"),  # beta_4
    ("a", "re", "e"),  # beta_5: aligned artificial noise at Eve
    ("a", "rb", "e"),  # beta_6
    ("s", "rb", "e"),  # beta_7
    ("s", "re", "e"),  # beta_8
)


class InfiniteCapacityError(ValueError):
    """Signal with exactly zero interference-plus-noise: capacity undefined."""


@dataclass(frozen=True)
class PowerSplit:
    """Fractions of total transmit power on the communication/noise signals."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("power fractions must be non-negative")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError("power fractions must sum to 1")

    @classmethod
    def of(cls, alpha1: float) -> "PowerSplit":
        return cls(alpha1, 1.0 - alpha1)


@dataclass(frozen=True)
class LinkPowers:
    """The eight component amplitudes (sqrt-watts) plus receiver noise powers."""

    beta: np.ndarray
    noise_bob: float
    noise_eve: float

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.shape != (8,):
            raise ValueError("beta must hold exactly 8 values")
        if np.any(beta < 0.0) or self.noise_bob < 0.0 or self.noise_eve < 0.0:
            raise ValueError("amplitudes and noise powers must be non-negative")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class CapacityReport:
    c_bob: float
    c_eve: float
    c_secrecy: float
    sinr_bob: float
    sinr_eve: float


@dataclass(frozen=True)
class SecrecyThresholds:
    """SINR corridor: Bob needs at least gamma_bob_min, Eve at most gamma_eve_max.

    gamma_bob_min = 0 and gamma_eve_max = inf make the respective constraint
    vacuous (used for unconstrained sweeps).
    """

    gamma_bob_min: float
    gamma_eve_max: float

    def __post_init__(self):
        # Written so that NaN fails; only Eve's cap may be infinite.
        if not (0.0 <= self.gamma_bob_min < math.inf and self.gamma_eve_max >= 0.0):
            raise ValueError(
                "SINR thresholds need a finite non-negative Bob floor and a non-negative Eve cap, "
                f"got {self.gamma_bob_min} and {self.gamma_eve_max}"
            )

    @classmethod
    def from_eta(cls, gamma_bob_min: float, eta: float) -> "SecrecyThresholds":
        if gamma_bob_min <= 0.0:
            raise ValueError("eta form requires a positive Bob threshold")
        return cls(gamma_bob_min, eta * gamma_bob_min)

    @property
    def eta(self) -> float:
        """Ratio of Eve's cap to Bob's floor (undefined for a zero floor)."""
        if self.gamma_bob_min == 0.0:
            raise ValueError("eta undefined for gamma_bob_min = 0")
        return self.gamma_eve_max / self.gamma_bob_min

    @property
    def c_bob_min(self) -> float:
        return math.log2(1.0 + self.gamma_bob_min)

    @property
    def c_eve_max(self) -> float:
        return math.log2(1.0 + self.gamma_eve_max)


def path_gains(ch: ChannelSet, cfg: PhaseConfig) -> list[float]:
    """|cascaded gain| of each BETA_PATHS path at cfg: the part of the beta terms the phases set.

    One set of gains serves every power split of the same configuration
    (see link_powers).
    """
    if cfg.n_elements != ch.n_elements:
        raise ValueError("phase config and channel set disagree on element count")
    return [abs(cascaded_gain(ch.paths[key], cfg.phases)) for key in BETA_PATHS]


def link_powers(ch: ChannelSet, gains, pt: float, noise_bob: float, noise_eve: float,
                split: PowerSplit) -> LinkPowers:
    """Scale the path gains of one configuration to the eight amplitudes of a power split.

    beta_k = sqrt(alpha_src * pt * L_path) * gains[k], with alpha_src =
    alpha1 for communication-signal paths and alpha2 for noise paths. pt and
    the two receiver noise powers are in watts.
    """
    beta = np.empty(8)
    for k, key in enumerate(BETA_PATHS):
        alpha = split.alpha1 if key[0] == "s" else split.alpha2
        beta[k] = math.sqrt(alpha * pt * ch.paths[key].path_loss) * gains[k]
    return LinkPowers(beta=beta, noise_bob=noise_bob, noise_eve=noise_eve)


def beta_terms(sc: ScenarioConfig, ch: ChannelSet, cfg: PhaseConfig, split: PowerSplit) -> LinkPowers:
    """Evaluate the eight component amplitudes for one configuration and power split.

    beta_k = sqrt(alpha_src * P_t * L_path) * |cascaded gain of the partition|:
    link_powers applied to path_gains at the scenario's powers.
    """
    return link_powers(ch, path_gains(ch, cfg), sc.pt_watts, sc.noise_bob_watts, sc.noise_eve_watts,
                       split)


def _ratio(signal: float, interference: float) -> float:
    if interference == 0.0:
        if signal == 0.0:
            return 0.0
        raise InfiniteCapacityError("zero interference-plus-noise with nonzero signal")
    return signal / interference


def sinr_values(lp: LinkPowers) -> tuple[float, float]:
    """(sinr_bob, sinr_eve), linear."""
    b = lp.beta
    sinr_bob = _ratio(b[0] ** 2 + b[1] ** 2, b[2] ** 2 + b[3] ** 2 + lp.noise_bob)
    sinr_eve = _ratio(b[6] ** 2 + b[7] ** 2, b[4] ** 2 + b[5] ** 2 + lp.noise_eve)
    return sinr_bob, sinr_eve


def secrecy_capacity(c_bob: float, c_eve: float) -> float:
    """Non-negative capacity gap [c_bob - c_eve]^+."""
    if c_bob < 0.0 or c_eve < 0.0:
        raise ValueError("capacities must be non-negative")
    return max(c_bob - c_eve, 0.0)


def capacity_report(lp: LinkPowers) -> CapacityReport:
    sinr_bob, sinr_eve = sinr_values(lp)
    c_bob = math.log2(1.0 + sinr_bob)
    c_eve = math.log2(1.0 + sinr_eve)
    return CapacityReport(
        c_bob=c_bob,
        c_eve=c_eve,
        c_secrecy=secrecy_capacity(c_bob, c_eve),
        sinr_bob=sinr_bob,
        sinr_eve=sinr_eve,
    )


def sinr_db(sinr: float) -> float:
    if sinr <= 0.0:
        return -math.inf
    return 10.0 * math.log10(sinr)


CAPACITY_REPORT_COLUMNS = ("alpha1", "c_bob", "c_eve", "c_secrecy", "sinr_bob_db", "sinr_eve_db")


def capacity_report_row(alpha1: float, report: CapacityReport) -> tuple:
    """Row matching CAPACITY_REPORT_COLUMNS (SINRs in dB)."""
    return (
        alpha1,
        report.c_bob,
        report.c_eve,
        report.c_secrecy,
        sinr_db(report.sinr_bob),
        sinr_db(report.sinr_eve),
    )
