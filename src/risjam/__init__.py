"""RIS-assisted secure-link simulator with artificial-noise jamming.

Deterministic free-space channel synthesis for a partitioned binary-phase
reflecting surface, secrecy-capacity evaluation, practical phase-shift
optimizers (iterative coordinate ascent and quantized-DFT codebook sweep) and
a constrained communication/noise power-allocation solver, plus a CSV
experiment harness.
"""

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the phase-sum implementation, always "numpy" (benchmark provenance records it)."""
    return "numpy"


from .channel import (  # noqa: F401,E402
    CascadedPath,
    ChannelSet,
    build_channel_set,
    cascaded_gain,
    cascaded_path,
    los_channel,
)
from .optimize import (  # noqa: F401
    AllocationSolution,
    ReceivedPowerOracle,
    TraceEntry,
    an_power_at_eve,
    capacity_ratio_alpha,
    cs_power_at_bob,
    dft_sweep,
    exhaustive_search,
    iterative_optimize,
    optimize_alpha,
)
from .ris import Codebook, PhaseConfig, binary_dft_codebook, set_partition, zero_config  # noqa: F401
from .scene import (  # noqa: F401
    AntennaPattern,
    Position3D,
    RisGeometry,
    ScenarioConfig,
    distance,
    element_positions,
    fspl,
    load_scenario,
    partition_split,
    pattern_gain,
)
from .secrecy import (  # noqa: F401
    CapacityReport,
    LinkPowers,
    PowerSplit,
    SecrecyThresholds,
    beta_terms,
    secrecy_capacity,
    sinr_values,
)
from .harness import default_scenario, main  # noqa: F401
