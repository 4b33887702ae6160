import math

import numpy as np
import pytest

from risjam.ris import (
    Codebook,
    PhaseConfig,
    binary_dft_codebook,
    load_phase_config,
    save_phase_config,
    set_partition,
    zero_config,
)

PI = math.pi


class TestZeroConfig:
    def test_two_elements(self):
        cfg = zero_config(2)
        np.testing.assert_array_equal(cfg.phases, [0.0, 0.0])
        assert cfg.eve_indices == (0,)
        assert cfg.bob_indices == (1,)

    def test_256_elements(self):
        cfg = zero_config(256)
        assert cfg.n_elements == 256
        assert np.all(cfg.phases == 0.0)
        assert len(cfg.bob_indices) == len(cfg.eve_indices) == 128

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            zero_config(3)

    def test_explicit_split(self):
        cfg = zero_config(4, ((0, 2), (1, 3)))
        assert cfg.bob_indices == (0, 2)
        assert cfg.eve_indices == (1, 3)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            zero_config(4, ((0, 1), (1, 3)))  # overlapping
        with pytest.raises(ValueError):
            zero_config(4, ((0,), (1, 2, 3)))  # unbalanced


class TestPhaseConfig:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.array([0.0, 1.0]), (1,), (0,))

    def test_phases_are_read_only(self):
        cfg = zero_config(4)
        with pytest.raises(ValueError):
            cfg.phases[0] = PI

    def test_equality_and_hash(self):
        a, b = zero_config(4), zero_config(4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != set_partition(a, "re", np.array([PI, PI]))

    def test_partition_lookup(self):
        cfg = zero_config(4)
        assert cfg.partition("rb") == cfg.bob_indices
        assert cfg.partition("re") == cfg.eve_indices
        with pytest.raises(ValueError):
            cfg.partition("middle")


class TestSetPartition:
    def test_set_eve_all_pi(self):
        cfg = set_partition(zero_config(8), "re", np.full(4, PI))
        assert all(cfg.phases[i] == PI for i in cfg.eve_indices)
        assert all(cfg.phases[i] == 0.0 for i in cfg.bob_indices)

    def test_set_then_reset_is_involution(self):
        base = zero_config(8)
        once = set_partition(base, "rb", np.full(4, PI))
        back = set_partition(once, "rb", np.zeros(4))
        assert back == base

    def test_input_not_mutated(self):
        base = zero_config(6)
        snapshot = np.array(base.phases)
        set_partition(base, "re", np.full(3, PI))
        np.testing.assert_array_equal(base.phases, snapshot)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            set_partition(zero_config(8), "rb", np.zeros(3))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            set_partition(zero_config(8), "rb", np.full(4, 0.5))


def _quantize_row_oracle(k: int, m: int) -> np.ndarray:
    """Independent quantizer: circular distance comparison with tie to 0."""
    row = []
    for n in range(m):
        phi = 2 * PI * ((k * n) % m) / m
        d0 = min(phi, 2 * PI - phi)
        dpi = abs(phi - PI)
        row.append(PI if dpi < d0 else 0.0)
    return np.array(row)


class TestBinaryDftCodebook:
    def test_m2(self):
        cb = binary_dft_codebook(2)
        assert len(cb) == 2
        np.testing.assert_array_equal(cb.codewords[0], [0.0, 0.0])
        np.testing.assert_array_equal(cb.codewords[1], [0.0, PI])

    def test_m4_hand_quantized(self):
        # rows 1 and 3 of the 4-point DFT quantize identically, so < 4 remain
        cb = binary_dft_codebook(4)
        words = {tuple(w) for w in cb.codewords}
        assert len(cb) == 3
        assert (0.0, 0.0, 0.0, 0.0) in words
        assert (0.0, PI, 0.0, PI) in words
        assert (0.0, 0.0, PI, 0.0) in words

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64, 128])
    def test_matches_independent_quantizer(self, m):
        cb = binary_dft_codebook(m)
        expected = []
        seen = set()
        for k in range(m):
            row = _quantize_row_oracle(k, m)
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                expected.append(row)
        assert len(cb) == len(expected)
        for got, want in zip(cb.codewords, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_matches_scalar_integer_rule(self, m):
        # the per-entry loop the vectorized codebook replaced
        expected, seen = [], set()
        for k in range(m):
            row = np.array([PI if m < 4 * ((k * n) % m) < 3 * m else 0.0 for n in range(m)])
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                expected.append(row)
        got = binary_dft_codebook(m).codewords
        assert [w.tobytes() for w in got] == [w.tobytes() for w in expected]

    @pytest.mark.parametrize("m", [2, 8, 32, 256])
    def test_dc_codeword_first_and_all_binary(self, m):
        cb = binary_dft_codebook(m)
        assert np.all(cb.codewords[0] == 0.0)
        keys = set()
        for w in cb.codewords:
            assert np.all((w == 0.0) | (w == PI))
            keys.add(w.tobytes())
        assert len(keys) == len(cb)
        assert len(cb) <= m

    def test_non_power_of_two_rejected(self):
        for bad in (0, 3, 6, 12):
            with pytest.raises(ValueError):
                binary_dft_codebook(bad)

    def test_codebook_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Codebook((np.zeros(4), np.zeros(4)))


class TestOnDiskFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(1, 40)) * 2
            phases = rng.choice([0.0, PI], n)
            split_point = n // 2
            cfg = PhaseConfig(phases, tuple(range(split_point, n)), tuple(range(split_point)))
            path = tmp_path / f"cfg_{trial}.txt"
            save_phase_config(cfg, path)
            again = load_phase_config(path, (cfg.bob_indices, cfg.eve_indices))
            assert again == cfg
            assert np.array_equal(again.phases, cfg.phases)

    def test_file_contents(self, tmp_path):
        cfg = set_partition(zero_config(4), "re", np.array([PI, PI]))
        path = tmp_path / "c.txt"
        save_phase_config(cfg, path)
        assert path.read_text() == "1,1,0,0\n"

    def test_bad_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,2,0,0\n")
        with pytest.raises(ValueError):
            load_phase_config(path)
        path.write_text("")
        with pytest.raises(ValueError):
            load_phase_config(path)
