import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risjam.scene import (
    MAX_PT_DBM,
    MAX_TX_GAIN_DBI,
    MIN_NOISE_DBM,
    AntennaPattern,
    DegenerateGeometryError,
    Position3D,
    ScenarioConfig,
    ScenarioFormatError,
    dbm_to_watts,
    distance,
    element_positions,
    format_scenario,
    fspl,
    parse_scenario,
    partition_split,
    pattern_gain,
    scenario_hash,
    watts_to_dbm,
)

C = 299_792_458.0

FILE_KEYS = [f.name for f in fields(ScenarioConfig) if f.init]


@st.composite
def scenarios(draw):
    """Valid scenarios: any panel shape with an even column count, nodes in front.

    Carriers from 1 GHz keep lambda under 0.3 m, and every node sits at least
    0.31 m in front of the panel plane, so no node is in an element's near field.
    """
    coord = st.floats(-10.0, 10.0)
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6).filter(lambda c: c % 2 == 0))
    center = Position3D(draw(coord), draw(coord), draw(coord))

    def node():
        return Position3D(center.x + draw(st.floats(0.31, 5.0)), draw(coord), draw(coord))

    return ScenarioConfig(
        fc_hz=draw(st.floats(1e9, 1e11)),
        fs_hz=draw(st.floats(1.0, 1e9)),
        pt_dbm=draw(st.floats(-100.0, 60.0)),
        noise_bob_dbm=draw(st.floats(-150.0, 0.0)),
        noise_eve_dbm=draw(st.floats(-150.0, 0.0)),
        cs_tx=node(),
        an_tx=node(),
        bob=node(),
        eve=node(),
        ris_rows=rows,
        ris_cols=cols,
        ris_spacing_m=draw(st.floats(1e-3, 0.2)),
        ris_center=center,
        tx_gain_dbi=draw(st.floats(-20.0, 30.0)),
        pattern_kind=draw(st.sampled_from(["cosine", "isotropic"])),
    )


class TestElementPositions:
    def test_two_element_row_symmetric_about_center(self):
        pos = element_positions(1, 2, 0.041, Position3D(0, 0, 0))
        assert pos.shape == (2, 3)
        assert pos[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert pos[0, 1] == pytest.approx(-0.0205, abs=1e-15)
        assert pos[1, 1] == pytest.approx(+0.0205, abs=1e-15)
        assert pos[0, 2] == pos[1, 2] == pytest.approx(0.0, abs=1e-15)

    def test_aperture_extent_16x16(self):
        # independent oracle: 15 gaps of 0.041 m per side
        pos = element_positions(16, 16, 0.041, Position3D(0, 0, 0.4))
        ys, zs = pos[:, 1], pos[:, 2]
        assert max(ys) - min(ys) == pytest.approx(15 * 0.041, rel=1e-12)
        assert max(zs) - min(zs) == pytest.approx(15 * 0.041, rel=1e-12)

    def test_256_distinct_positions(self):
        pos = element_positions(16, 16, 0.041, Position3D(0, 0, 0.4))
        assert pos.shape == (256, 3)
        assert len({tuple(p) for p in pos.tolist()}) == 256

    def test_centroid_equals_center(self):
        pos = element_positions(6, 4, 0.03, Position3D(0.1, -0.2, 0.7))
        np.testing.assert_allclose(pos.mean(axis=0), [0.1, -0.2, 0.7], atol=1e-12)

    def test_row_major_order(self):
        pos = element_positions(2, 2, 1.0, Position3D(0, 0, 0))
        # first row (higher z) first, columns left (-y) to right (+y)
        assert pos[0, 2] > pos[2, 2]
        assert pos[0, 1] < pos[1, 1]

    def test_partition_split_sides(self):
        bob, eve = partition_split(16, 16)
        assert len(bob) == len(eve) == 128
        assert not set(bob) & set(eve)
        pos = element_positions(16, 16, 0.041, Position3D(0, 0, 0.4))
        assert np.all(pos[list(bob), 1] > 0)
        assert np.all(pos[list(eve), 1] < 0)


class TestScenarioValidation:
    def test_node_on_an_element_rejected(self, table_scenario):
        from dataclasses import replace

        # 1e-11 m in front of the panel, so the surface-plane rule passes it
        x, y, z = table_scenario.elements[17].tolist()
        corner = Position3D(x + 1e-11, y, z)
        for node in ("cs_tx", "an_tx", "bob", "eve"):
            with pytest.raises(DegenerateGeometryError, match=f"{node} is within one wavelength"):
                replace(table_scenario, **{node: corner})

    @pytest.mark.parametrize("node", ["cs_tx", "an_tx", "bob", "eve"])
    def test_node_inside_one_wavelength_rejected(self, table_scenario, node):
        from dataclasses import replace

        lam = C / table_scenario.fc_hz
        x, y, z = table_scenario.elements[17].tolist()
        with pytest.raises(DegenerateGeometryError, match=f"{node} is within one wavelength"):
            replace(table_scenario, **{node: Position3D(x + 0.5 * lam, y, z)})
        replace(table_scenario, **{node: Position3D(x + 1.01 * lam, y, z)})

    @pytest.mark.parametrize("node", ["cs_tx", "an_tx", "bob", "eve"])
    def test_node_behind_or_on_the_panel_plane_rejected(self, table_scenario, node):
        from dataclasses import replace

        p = getattr(table_scenario, node)  # the default panel faces +x
        for x in (-p.x, 0.0):
            with pytest.raises(DegenerateGeometryError, match=f"{node} is not in front"):
                replace(table_scenario, **{node: Position3D(x, p.y, p.z)})

    def test_non_finite_lattice_rejected(self, table_scenario):
        text = format_scenario(table_scenario).replace("ris_spacing_m = 0.041", "ris_spacing_m = inf")
        with pytest.raises(ScenarioFormatError, match="finite"):
            parse_scenario(text)

    def test_odd_column_count_rejected(self, table_scenario):
        # the panel splits into two column halves, whatever the element count
        for rows, cols in ((1, 3), (2, 3), (16, 15)):
            text = format_scenario(table_scenario).replace("ris_rows = 16", f"ris_rows = {rows}")
            text = text.replace("ris_cols = 16", f"ris_cols = {cols}")
            with pytest.raises(ScenarioFormatError, match=f"ris_cols = {cols} must be even"):
                parse_scenario(text)

    def test_odd_row_count_accepted(self, table_scenario):
        from dataclasses import replace

        assert replace(table_scenario, ris_rows=15).elements.shape == (15 * 16, 3)

    @pytest.mark.parametrize("key, value", [("ris_rows", 0), ("ris_cols", -2), ("ris_spacing_m", 0.0),
                                            ("ris_spacing_m", math.nan)])
    def test_lattice_keys_named(self, table_scenario, key, value):
        from dataclasses import replace

        with pytest.raises(ValueError, match=f"^{key} must be positive"):
            replace(table_scenario, **{key: value})

    def test_infinite_tx_gain_rejected(self, table_scenario):
        text = format_scenario(table_scenario).replace("tx_gain_dbi = 13.0", "tx_gain_dbi = inf")
        with pytest.raises(ScenarioFormatError, match="tx_gain_dbi must be finite"):
            parse_scenario(text)

    @pytest.mark.parametrize("key", ["noise_bob_dbm", "noise_eve_dbm"])
    def test_noise_below_the_floor_rejected(self, table_scenario, key):
        from dataclasses import replace

        assert MIN_NOISE_DBM == -200.0
        assert getattr(replace(table_scenario, **{key: MIN_NOISE_DBM}), key) == MIN_NOISE_DBM
        with pytest.raises(ValueError, match=f"{key} = -200.5 is below the noise floor"):
            replace(table_scenario, **{key: -200.5})

    @pytest.mark.parametrize("key, cap", [("pt_dbm", 150.0), ("tx_gain_dbi", 60.0)])
    def test_transmit_side_above_its_cap_rejected(self, table_scenario, key, cap):
        from dataclasses import replace

        assert (MAX_PT_DBM, MAX_TX_GAIN_DBI) == (150.0, 60.0)
        assert getattr(replace(table_scenario, **{key: cap}), key) == cap
        with pytest.raises(ValueError, match=f"{key} = {cap + 0.5} is above the cap"):
            replace(table_scenario, **{key: cap + 0.5})

    def test_elements_are_the_read_only_lattice(self, table_scenario):
        sc = table_scenario
        elems = sc.elements
        np.testing.assert_array_equal(
            elems, element_positions(sc.ris_rows, sc.ris_cols, sc.ris_spacing_m, sc.ris_center))
        assert not elems.flags.writeable


class TestDistance:
    def test_identity(self):
        p = Position3D(0, 0, 0)
        assert distance(p, p) == 0.0

    def test_3_4_5(self):
        assert distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == 5.0

    def test_table_geometry_tx_to_panel_center(self):
        # independent oracle: direct norm of the bundled coordinates
        expected = math.sqrt(0.74**2 + 0.31**2 + 0.4**2)
        d = distance(Position3D(0.74, 0.31, 0.0), Position3D(0.0, 0.0, 0.4))
        assert d == pytest.approx(expected, rel=1e-15)
        assert d == pytest.approx(0.8964931678490361, rel=1e-12)

    def test_symmetry(self):
        a, b = Position3D(1, -2, 3), Position3D(-0.5, 0.25, 9)
        assert distance(a, b) == distance(b, a)


class TestPatternGain:
    def test_cosine_boresight(self):
        p = AntennaPattern(kind="cosine")
        assert pattern_gain(p, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, rel=1e-15)

    def test_cosine_aperture_plane_null(self):
        p = AntennaPattern(kind="cosine")
        assert pattern_gain(p, np.array([0.0, 1.0, 0.0])) == 0.0
        assert pattern_gain(p, np.array([0.0, 0.0, 1.0])) == 0.0
        assert pattern_gain(p, np.array([-0.3, 0.8, 0.52])) == 0.0

    def test_cosine_60_degrees_azimuth(self):
        # independent oracle: cos^2(60 deg) = 1/4
        p = AntennaPattern(kind="cosine")
        d = np.array([math.cos(math.radians(60)), math.sin(math.radians(60)), 0.0])
        assert pattern_gain(p, d) == pytest.approx(0.25, rel=1e-12)

    def test_boresight_gain_scales(self):
        p = AntennaPattern(kind="cosine", boresight_gain_dbi=13.0)
        assert pattern_gain(p, np.array([1.0, 0.0, 0.0])) == pytest.approx(10 ** 1.3, rel=1e-12)

    def test_isotropic_constant(self):
        p = AntennaPattern(kind="isotropic", boresight_gain_dbi=3.0)
        for d in ([1, 0, 0], [0, 1, 0], [-1, 0, 0]):
            assert pattern_gain(p, np.array(d, dtype=float)) == pytest.approx(10 ** 0.3)

    def test_continuous_to_zero_at_plane(self):
        p = AntennaPattern(kind="cosine")
        gains = []
        for az_deg in (80.0, 89.0, 89.9, 89.999):
            az = math.radians(az_deg)
            gains.append(pattern_gain(p, np.array([math.cos(az), math.sin(az), 0.0])))
        assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))
        assert gains[-1] < 1e-9

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            AntennaPattern(kind="hornlike")


class TestFspl:
    def test_reference_value_1m(self):
        # independent oracle: 20*log10(4*pi*d/lambda), lambda = c/fc
        lam = C / 3.75e9
        expected_db = 20 * math.log10(4 * math.pi * 1.0 / lam)
        got = fspl(1.0, 3.75e9)
        assert -10 * math.log10(got) == pytest.approx(expected_db, rel=1e-12)
        assert expected_db == pytest.approx(43.9284, abs=5e-4)
        assert got == pytest.approx(4.0472417117464546e-05, rel=1e-12)

    def test_inverse_square(self):
        r = fspl(2.0, 1e9) / fspl(1.0, 1e9)
        assert 10 * math.log10(r) == pytest.approx(-6.0206, abs=1e-4)

    def test_zero_distance_raises(self):
        with pytest.raises(DegenerateGeometryError):
            fspl(0.0, 1e9)

    def test_d_squared_product_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d1, d2 = rng.uniform(0.01, 100.0, 2)
            lhs = fspl(d1, 5e9) * d1**2
            rhs = fspl(d2, 5e9) * d2**2
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPowerConversions:
    def test_dbm_round_trip(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert watts_to_dbm(dbm_to_watts(-9.0)) == pytest.approx(-9.0, rel=1e-12)

    def test_zero_watts(self):
        assert watts_to_dbm(0.0) == -math.inf


class TestScenarioFormat:
    def test_fields_are_the_file_keys(self):
        from conftest import DEFAULT_SCENARIO

        lines = (l.split("#", 1)[0] for l in DEFAULT_SCENARIO.read_text().splitlines())
        assert [l.split("=", 1)[0].strip() for l in lines if l.strip()] == FILE_KEYS

    @settings(max_examples=200)
    @given(scenarios())
    def test_format_parse_round_trip(self, sc):
        text = format_scenario(sc)
        assert [line.split(" = ", 1)[0] for line in text.splitlines()] == FILE_KEYS
        again = parse_scenario(text)
        assert again == sc
        assert format_scenario(again) == text

    def test_round_trip(self, table_scenario):
        text = format_scenario(table_scenario)
        again = parse_scenario(text)
        assert again == table_scenario
        assert scenario_hash(again) == scenario_hash(table_scenario)

    def test_unknown_key_rejected(self, table_scenario):
        text = format_scenario(table_scenario) + "mystery_knob = 3\n"
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            parse_scenario(text)

    def test_missing_key_rejected(self, table_scenario):
        lines = format_scenario(table_scenario).splitlines()
        text = "\n".join(l for l in lines if not l.startswith("pt_dbm"))
        with pytest.raises(ScenarioFormatError, match="missing"):
            parse_scenario(text)

    def test_duplicate_key_rejected(self, table_scenario):
        text = format_scenario(table_scenario) + "fc_hz = 1e9\n"
        with pytest.raises(ScenarioFormatError, match="duplicate"):
            parse_scenario(text)

    def test_comments_and_blank_lines_ok(self, table_scenario):
        text = "# heading\n\n" + format_scenario(table_scenario).replace(
            "pattern_kind = cosine", "pattern_kind = cosine  # trailing note"
        )
        assert parse_scenario(text) == table_scenario

    def test_bad_number_rejected(self, table_scenario):
        text = format_scenario(table_scenario).replace("pt_dbm = -9.0", "pt_dbm = quiet")
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)

    def test_bad_pattern_kind_rejected(self, table_scenario):
        text = format_scenario(table_scenario).replace("= cosine", "= parabolic")
        with pytest.raises(ScenarioFormatError, match="pattern kind must be"):
            parse_scenario(text)

    def test_non_integer_grid_rejected(self, table_scenario):
        text = format_scenario(table_scenario).replace("ris_rows = 16", "ris_rows = 15.5")
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)
