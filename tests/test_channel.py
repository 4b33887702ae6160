import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risjam._kernels import coherent_sum
from risjam.channel import (
    build_channel_set,
    cascaded_gain,
    cascaded_path,
    channel_dump_rows,
    los_channel,
)
from risjam.scene import (
    ISOTROPIC,
    SPEED_OF_LIGHT,
    AntennaPattern,
    DegenerateGeometryError,
    Position3D,
    distance,
    fspl,
    pattern_gain,
    pattern_gains,
    rotation_to_frame,
)

FC = 3.75e9
LAM = 299_792_458.0 / FC
ORIGIN = np.zeros(3)


def _wrapped_distance(phase: float) -> float:
    return min(phase, 2 * math.pi - phase)


class TestLosChannel:
    def test_full_wavelength_phase_wrap(self):
        _, phase = los_channel(ORIGIN, [LAM, 0, 0], FC, ISOTROPIC, ISOTROPIC)
        assert _wrapped_distance(phase[0]) < 1e-6

    def test_half_wavelength(self):
        _, phase = los_channel(ORIGIN, [LAM / 2, 0, 0], FC, ISOTROPIC, ISOTROPIC)
        assert abs(phase[0] - math.pi) < 1e-6

    def test_isotropic_amplitude_is_sqrt_fspl(self):
        a, b = Position3D(0, 0, 0), Position3D(1.3, -0.4, 0.2)
        amp, _ = los_channel(a.as_array(), b.as_array(), FC, ISOTROPIC, ISOTROPIC)
        assert amp[0] == pytest.approx(math.sqrt(fspl(distance(a, b), FC)), rel=1e-12)

    def test_table_geometry_composed_oracle(self):
        # compose the independent primitives: distance, fspl, pattern_gain
        tx = Position3D(0.74, 0.31, 0.0)
        el = Position3D(0.0, 0.0, 0.4)
        tx_pat = AntennaPattern(kind="cosine", boresight_gain_dbi=13.0)
        el_pat = AntennaPattern(kind="cosine")
        aim = el.as_array() - tx.as_array()
        normal = np.array([1.0, 0.0, 0.0])

        d = distance(tx, el)
        u = (el.as_array() - tx.as_array()) / d
        g_tx = pattern_gain(tx_pat, rotation_to_frame(aim) @ u)
        g_el = pattern_gain(el_pat, rotation_to_frame(normal) @ (-u))
        expected_amp = math.sqrt(fspl(d, FC) * g_tx * g_el)
        expected_phase = math.fmod(2 * math.pi * d / LAM, 2 * math.pi)

        amp, phase = los_channel(tx.as_array(), el.as_array(), FC, tx_pat, el_pat,
                                 tx_boresight=aim, rx_boresight=normal)
        assert d == pytest.approx(0.8965, abs=5e-5)
        assert amp[0] == pytest.approx(expected_amp, rel=1e-12)
        assert phase[0] == pytest.approx(expected_phase, rel=1e-12)

    def test_coincident_points_raise(self):
        p = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateGeometryError):
            los_channel(p, p, FC, ISOTROPIC, ISOTROPIC)
        with pytest.raises(DegenerateGeometryError):
            los_channel(p, np.array([[0.0, 0.0, 0.0], p]), FC, ISOTROPIC, ISOTROPIC)

    def test_phase_in_range(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-2, 2, (100, 3)), rng.uniform(-2, 2, (100, 3))
        _, phase = los_channel(a, b, FC, ISOTROPIC, ISOTROPIC)
        assert phase.shape == (100,)
        assert np.all((0.0 <= phase) & (phase < 2 * math.pi))


def _scalar_hop(tx, rx, fc, tx_pat, rx_pat, tx_bs, rx_bs):
    """One hop from the scalar primitives, as the channel layer defined it per element."""
    d = distance(Position3D(*tx), Position3D(*rx))
    u = (np.array(rx) - np.array(tx)) / d
    g_tx = pattern_gain(tx_pat, rotation_to_frame(tx_bs) @ u)
    g_rx = pattern_gain(rx_pat, rotation_to_frame(rx_bs) @ (-u))
    amp = math.sqrt(fspl(d, fc) * g_tx * g_rx)
    return amp, math.fmod(2.0 * math.pi * d / (SPEED_OF_LIGHT / fc), 2.0 * math.pi)


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_point = st.tuples(_coord, _coord, _coord)
_boresight = _point.filter(lambda v: math.hypot(*v) > 0.1)
_pattern = st.one_of(
    st.just(ISOTROPIC),
    st.builds(AntennaPattern, kind=st.just("cosine"), boresight_gain_dbi=st.floats(-10.0, 20.0)),
)
_COSINE = AntennaPattern(kind="cosine")
_AXIS = (1.0, 0.0, 0.0)


class TestArrayHopMatchesScalar:
    """Every element of an array hop equals the scalar composition bit for bit.

    Guards the rounding traps of the vectorized build: libm pow versus x * x
    in distance and fspl, scalar asin/atan2/cos in the pattern, and the
    batched rotation matmul.
    """

    @settings(max_examples=300)
    @given(node=_point, elements=st.lists(_point, min_size=1, max_size=6),
           fc=st.floats(1e8, 1e11), node_pat=_pattern, el_pat=_pattern,
           node_bs=_boresight, el_bs=_boresight, node_is_tx=st.booleans())
    # dead zones: element behind the node (x <= 0), in its aperture plane,
    # and grazing the plane so that az or el rounds to pi/2
    @example(node=(0.0, 0.0, 0.0), elements=[(-1.0, 0.5, 0.2), (0.0, 1.0, 0.0)], fc=FC,
             node_pat=_COSINE, el_pat=_COSINE, node_bs=_AXIS, el_bs=_AXIS, node_is_tx=True)
    @example(node=(0.0, 0.0, 0.0), elements=[(1e-300, 1.0, 0.0), (1e-20, 0.0, 1.0)], fc=FC,
             node_pat=_COSINE, el_pat=ISOTROPIC, node_bs=_AXIS, el_bs=_AXIS, node_is_tx=True)
    # a range whose squares round differently under x * x than under pow
    @example(node=(0.6283363287654045, 0.17691690118380743, -0.2600896669038415),
             elements=[(-0.05256741549608246, -0.7216703846838062, -0.10602894075593983)],
             fc=FC, node_pat=ISOTROPIC, el_pat=ISOTROPIC, node_bs=_AXIS, el_bs=_AXIS,
             node_is_tx=True)
    def test_hop(self, node, elements, fc, node_pat, el_pat, node_bs, el_bs, node_is_tx):
        args = (fc, node_pat, el_pat, node_bs, el_bs)
        if not node_is_tx:
            args = (fc, el_pat, node_pat, el_bs, node_bs)
        ends = [(node, e) if node_is_tx else (e, node) for e in elements]
        tx, rx = np.array([t for t, _ in ends]), np.array([r for _, r in ends])
        if min(distance(Position3D(*t), Position3D(*r)) for t, r in ends) == 0.0:
            with pytest.raises(DegenerateGeometryError):
                los_channel(tx, rx, *args)
            return
        amp, phase = los_channel(tx, rx, *args)
        for i, (tx, rx) in enumerate(ends):
            assert (amp[i], phase[i]) == _scalar_hop(tx, rx, *args)

    def test_pattern_dead_zones_are_zero(self):
        tiny = 1e-300
        directions = np.array([
            [-0.3, 0.8, 0.52],          # behind the aperture
            [0.0, 1.0, 0.0],            # in the aperture plane
            [tiny, 1.0, 0.0],           # az rounds to pi/2
            [tiny, -1.0, 0.0],          # az rounds to -pi/2
            [tiny, 0.0, 1.0],           # el is pi/2
            [tiny, 0.0, -1.0],          # el is -pi/2
            [1.0, 0.0, 0.0],            # boresight, for contrast
        ])
        gains = pattern_gains(_COSINE, directions)
        assert gains.tolist() == [pattern_gain(_COSINE, d) for d in directions]
        assert gains[:-1].tolist() == [0.0] * 6
        assert gains[-1] == _COSINE.boresight_linear


def _mirror_index(n: int, rows: int, cols: int) -> int:
    r, c = divmod(n, cols)
    return r * cols + (cols - 1 - c)


def _mirror_indices(rows: int, cols: int) -> np.ndarray:
    return np.array([_mirror_index(n, rows, cols) for n in range(rows * cols)])


class TestBuildChannelSet:
    def test_table_scenario_lengths(self, table_channels):
        for name in ("s", "a", "b", "e"):
            assert table_channels.amplitudes(name).shape == (256,)
            assert table_channels.phases(name).shape == (256,)

    def test_all_amplitudes_positive(self, table_channels):
        for name in ("s", "a", "b", "e"):
            assert np.all(table_channels.amplitudes(name) > 0)

    def test_mirror_symmetry_of_default_scenario(self, table_scenario, table_channels):
        # the bundled scenario is exactly y-mirror symmetric: the CS/Bob side
        # channels map onto the AN/Eve side under column reflection
        ch = table_channels
        m = _mirror_indices(table_scenario.ris_rows, table_scenario.ris_cols)
        assert ch.amplitudes("s") == pytest.approx(ch.amplitudes("a")[m], rel=1e-12)
        assert ch.amplitudes("b") == pytest.approx(ch.amplitudes("e")[m], rel=1e-12)
        assert ch.phases("s") == pytest.approx(ch.phases("a")[m], rel=1e-9, abs=1e-9)

    def test_mirroring_an_asymmetric_scenario(self, table_scenario):
        # mirroring a scenario across y swaps the CS/AN and Bob/Eve roles and
        # reflects the panel columns; the channel sets must map onto each other
        from dataclasses import replace

        from risjam.scene import Position3D as P

        def flip(p):
            return P(p.x, -p.y, p.z)

        sc = replace(
            table_scenario,
            cs_tx=P(0.74, 0.36, 0.05),
            an_tx=P(0.70, -0.22, -0.04),
            bob=P(1.19, 1.10, 0.11),
            eve=P(1.30, -1.41, 0.0),
        )
        mirrored = replace(sc, cs_tx=flip(sc.an_tx), an_tx=flip(sc.cs_tx),
                           bob=flip(sc.eve), eve=flip(sc.bob))
        a, b = build_channel_set(sc), build_channel_set(mirrored)
        m = _mirror_indices(sc.ris_rows, sc.ris_cols)
        for name, twin in (("s", "a"), ("a", "s"), ("b", "e"), ("e", "b")):
            assert a.amplitudes(name) == pytest.approx(b.amplitudes(twin)[m], rel=1e-12)

    def test_two_element_mirror_toy(self):
        from risjam.scene import ScenarioConfig

        sc = ScenarioConfig(
            fc_hz=FC, fs_hz=1.0, pt_dbm=0.0, noise_bob_dbm=-90.0, noise_eve_dbm=-90.0,
            cs_tx=Position3D(0.7, 0.2, 0.0), an_tx=Position3D(0.7, -0.2, 0.0),
            bob=Position3D(1.0, 1.0, 0.0), eve=Position3D(1.0, -1.0, 0.0),
            ris_rows=1, ris_cols=2, ris_spacing_m=0.041, ris_center=Position3D(0, 0, 0),
            tx_gain_dbi=0.0, pattern_kind="isotropic",
        )
        ch = build_channel_set(sc)
        s, a, b, e = (ch.amplitudes(name) for name in ("s", "a", "b", "e"))
        assert s[0] == pytest.approx(a[1], rel=1e-12)
        assert s[1] == pytest.approx(a[0], rel=1e-12)
        assert b[0] == pytest.approx(e[1], rel=1e-12)

    def test_path_loss_values_in_unit_interval(self, table_channels):
        for key, path in table_channels.paths.items():
            assert 0.0 < path.path_loss <= 1.0, key

    def test_path_loss_is_squared_mean_amplitude_product(self, table_channels):
        ch = table_channels
        idx = list(ch.partition("rb"))
        prod = ch.amplitudes("s")[idx] * ch.amplitudes("b")[idx]
        assert ch.paths[("s", "rb", "b")].path_loss == pytest.approx(float(np.mean(prod)) ** 2, rel=1e-12)

    def test_dump_rows_shape(self, table_channels):
        rows = list(channel_dump_rows(table_channels))
        assert len(rows) == 256
        assert rows[0][0] == 1 and rows[-1][0] == 256
        assert len(rows[0]) == 9


def _unit_path(phases_in, phases_out, indices):
    ones = np.ones(len(phases_in))
    return cascaded_path(ones, phases_in, ones, phases_out, indices)


class TestCascadedGain:
    def test_single_element_identity(self):
        g = cascaded_gain(_unit_path([0.0], [0.0], [0]), [0.0])
        assert g == pytest.approx(1.0 + 0.0j)

    def test_two_element_enumeration_oracle(self):
        # brute-force oracle: passive phases {0, pi}; enumerate all 4 binary configs
        path = _unit_path([0.0, math.pi], [0.0, 0.0], [0, 1])
        results = {}
        for t0 in (0.0, math.pi):
            for t1 in (0.0, math.pi):
                results[(t0, t1)] = abs(cascaded_gain(path, [t0, t1]))
        best = max(results.values())
        assert best == pytest.approx(2.0, rel=1e-12)
        winners = {k for k, v in results.items() if v == pytest.approx(2.0, rel=1e-12)}
        # (pi, 0) is (0, pi) plus a global pi offset: the same physical config
        assert winners == {(0.0, math.pi), (math.pi, 0.0)}
        assert results[(0.0, 0.0)] == pytest.approx(0.0, abs=1e-12)

    def test_coherent_sum_bound(self):
        n = 128
        g = cascaded_gain(_unit_path([0.0] * n, [0.0] * n, range(n)), [0.0] * n)
        assert g == pytest.approx(n + 0j)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            amp_in, amp_out = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
            path = cascaded_path(amp_in, rng.uniform(0, 2 * math.pi, n),
                                 amp_out, rng.uniform(0, 2 * math.pi, n), range(n))
            g = cascaded_gain(path, rng.choice([0.0, math.pi], n))
            amp = amp_in * amp_out
            bound = float(np.sum(amp / amp.mean()))
            assert abs(g) <= bound * (1 + 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        n = 16
        ph_in, ph_out = rng.uniform(0, 2 * math.pi, n), rng.uniform(0, 2 * math.pi, n)
        theta = list(rng.choice([0.0, math.pi], n))
        idx = list(range(n))
        g1 = cascaded_gain(_unit_path(ph_in, ph_out, idx), theta)
        perm = list(rng.permutation(idx))
        g2 = cascaded_gain(_unit_path(ph_in, ph_out, perm), theta)
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_global_phase_offset_leaves_magnitude(self):
        rng = np.random.default_rng(6)
        n = 10
        ph_in, ph_out = rng.uniform(0, 2 * math.pi, n), rng.uniform(0, 2 * math.pi, n)
        theta = np.array(rng.choice([0.0, math.pi], n))
        g1 = cascaded_gain(_unit_path(ph_in, ph_out, range(n)), theta)
        offset = 1.234
        g2 = cascaded_gain(_unit_path((ph_in + offset) % (2 * math.pi), ph_out, range(n)), theta)
        assert abs(g1) == pytest.approx(abs(g2), rel=1e-12)

    def test_matches_direct_complex_sum(self):
        rng = np.random.default_rng(7)
        n = 12
        amps_in = rng.uniform(0.5, 2.0, n)
        amps_out = rng.uniform(0.5, 2.0, n)
        ph_in = rng.uniform(0, 2 * math.pi, n)
        ph_out = rng.uniform(0, 2 * math.pi, n)
        theta = rng.choice([0.0, math.pi], n)
        idx = [3, 7, 1, 9]
        prod = amps_in[idx] * amps_out[idx]
        expected = sum(
            (prod[j] / prod.mean()) * cmath.exp(-1j * (ph_in[k] + ph_out[k] + theta[k]))
            for j, k in enumerate(idx)
        )
        got = cascaded_gain(cascaded_path(amps_in, ph_in, amps_out, ph_out, idx), theta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            _unit_path([0.0], [0.0], [1])
        with pytest.raises(IndexError):
            _unit_path([0.0], [0.0], [-1])


class TestCoherentSum:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            coherent_sum(np.ones(3), np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            coherent_sum(np.ones(3), np.ones(3), np.ones(2))

    def test_simple_values(self):
        amp = np.array([1.0, 2.0])
        psi = np.array([0.0, np.pi])
        theta = np.array([0.0, 0.0])
        assert coherent_sum(amp, psi, theta) == pytest.approx(1.0 - 2.0 + 0j, abs=1e-12)
