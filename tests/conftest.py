from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from risjam.channel import build_channel_set
from risjam.scene import Position3D, ScenarioConfig, load_scenario

#: The bundled desk-scale scenario that the README commands run on.
DEFAULT_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "default.scn"

# Every property test draws the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def table_scenario():
    return load_scenario(DEFAULT_SCENARIO)


@pytest.fixture(scope="session")
def table_channels(table_scenario):
    return build_channel_set(table_scenario)


def make_random_scenario(rng: np.random.Generator, rows: int = 4, cols: int = 4) -> ScenarioConfig:
    """Small random front-hemisphere scenario (rows x cols panel at the origin)."""

    def node(y_side: float) -> Position3D:
        return Position3D(
            float(rng.uniform(0.5, 2.0)),
            float(y_side * rng.uniform(0.2, 1.5)),
            float(rng.uniform(-0.3, 0.3)),
        )

    return ScenarioConfig(
        fc_hz=3.75e9,
        fs_hz=0.5e6,
        pt_dbm=float(rng.uniform(-20.0, 0.0)),
        noise_bob_dbm=-90.0,
        noise_eve_dbm=-90.0,
        cs_tx=node(+1.0),
        an_tx=node(-1.0),
        bob=node(+1.0),
        eve=node(-1.0),
        ris_rows=rows,
        ris_cols=cols,
        ris_spacing_m=0.041,
        ris_center=Position3D(0.0, 0.0, 0.0),
        tx_gain_dbi=13.0,
        pattern_kind="cosine",
    )
