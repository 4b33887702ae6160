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


def path_gains(ch: ChannelSet, cfg: PhaseConfig) -> list[float]:
    """|cascaded gain| of each BETA_PATHS path at cfg: the part of the beta terms the phases set.

    One set of gains serves every power split of the same configuration
    (see link_powers).
    """
    if cfg.n_elements != ch.n_elements:
        raise ValueError("phase config and channel set disagree on element count")
    return [abs(cascaded_gain(ch.paths[key], cfg.phases)) for key in BETA_PATHS]


def link_powers(ch: ChannelSet, gains, pt: float, alpha1: float) -> np.ndarray:
    """Scale the path gains of one configuration to the eight amplitudes at the split alpha1.

    beta_k = sqrt(alpha_src * pt * L_path) * gains[k], with alpha_src =
    alpha1 for communication-signal paths and alpha2 = 1 - alpha1 for noise
    paths; pt is in watts.
    """
    # Written so that NaN fails.
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError(f"alpha1 must lie in [0, 1], got {alpha1!r}")
    alpha2 = 1.0 - alpha1
    beta = np.empty(8)
    for k, key in enumerate(BETA_PATHS):
        alpha = alpha1 if key[0] == "s" else alpha2
        beta[k] = math.sqrt(alpha * pt * ch.paths[key].path_loss) * gains[k]
    return beta


def beta_terms(sc: ScenarioConfig, ch: ChannelSet, cfg: PhaseConfig, alpha1: float) -> np.ndarray:
    """The eight component amplitudes of one configuration at the split alpha1.

    beta_k = sqrt(alpha_src * P_t * L_path) * |cascaded gain of the partition|:
    link_powers applied to path_gains at the scenario's transmit power.
    """
    return link_powers(ch, path_gains(ch, cfg), sc.pt_watts, alpha1)


def _ratio(signal: float, interference: float) -> float:
    if interference == 0.0:
        if signal == 0.0:
            return 0.0
        raise InfiniteCapacityError("zero interference-plus-noise with nonzero signal")
    return signal / interference


def sinr_values(beta, noise_bob: float, noise_eve: float) -> tuple[float, float]:
    """(sinr_bob, sinr_eve), linear, of the eight amplitudes and the receiver noise powers in watts."""
    sinr_bob = _ratio(beta[0] ** 2 + beta[1] ** 2, beta[2] ** 2 + beta[3] ** 2 + noise_bob)
    sinr_eve = _ratio(beta[6] ** 2 + beta[7] ** 2, beta[4] ** 2 + beta[5] ** 2 + noise_eve)
    return sinr_bob, sinr_eve


def secrecy_capacity(c_bob: float, c_eve: float) -> float:
    """Non-negative capacity gap [c_bob - c_eve]^+."""
    if c_bob < 0.0 or c_eve < 0.0:
        raise ValueError("capacities must be non-negative")
    return max(c_bob - c_eve, 0.0)


def capacity_report(beta, noise_bob: float, noise_eve: float) -> CapacityReport:
    sinr_bob, sinr_eve = sinr_values(beta, noise_bob, noise_eve)
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
