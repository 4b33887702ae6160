import math
from dataclasses import replace

import numpy as np
import pytest

from risjam.channel import cascaded_gain, cascaded_path
from risjam.ris import zero_config
from risjam.scene import dbm_to_watts
from risjam.secrecy import (
    BETA_PATHS,
    InfiniteCapacityError,
    LinkPowers,
    PowerSplit,
    SecrecyThresholds,
    beta_terms,
    capacity_report,
    secrecy_capacity,
    sinr_values,
)

PI = math.pi


def lp(beta, nb=1e-12, ne=1e-12):
    return LinkPowers(beta=np.array(beta, dtype=float), noise_bob=nb, noise_eve=ne)


class TestPowerSplit:
    def test_of(self):
        s = PowerSplit.of(0.3)
        assert s.alpha1 == 0.3 and s.alpha2 == 0.7

    def test_sum_validated(self):
        with pytest.raises(ValueError):
            PowerSplit(0.5, 0.6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerSplit(1.5, -0.5)


class TestLinkPowers:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            lp([1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lp([-1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            LinkPowers(beta=np.zeros(8), noise_bob=-1e-12, noise_eve=1e-12)


class TestCapacities:
    def test_bob_unit_snr(self):
        powers = lp([1, 0, 0, 0, 0, 0, 0, 0], nb=1.0)
        assert capacity_report(powers).c_bob == 1.0

    def test_bob_all_zero(self):
        assert capacity_report(lp([0] * 8, nb=1.0)).c_bob == 0.0

    def test_bob_direct_substitution(self):
        powers = lp([2, 0, 1, 1, 0, 0, 0, 0], nb=2.0)
        assert capacity_report(powers).c_bob == pytest.approx(1.0, rel=1e-15)

    def test_eve_zero_signal(self):
        assert capacity_report(lp([0, 0, 0, 0, 1, 1, 0, 0], ne=1.0)).c_eve == 0.0

    def test_eve_log2_4(self):
        # numerator = 3 * (denominator): beta7^2+beta8^2 = 9, beta5^2+beta6^2+noise = 3
        powers = lp([0, 0, 0, 0, 1, 1, 3, 0], ne=1.0)
        assert capacity_report(powers).c_eve == pytest.approx(2.0, rel=1e-15)

    def test_eve_jamming_limit(self):
        caps = [capacity_report(lp([0, 0, 0, 0, j, j, 1, 1], ne=1e-12)).c_eve
                for j in (1, 10, 100, 1000)]
        assert all(c1 > c2 for c1, c2 in zip(caps, caps[1:]))
        assert caps[-1] < 1e-5

    def test_secrecy_capacity_clamp(self):
        assert secrecy_capacity(3.0, 1.0) == 2.0
        assert secrecy_capacity(1.0, 1.0) == 0.0
        assert secrecy_capacity(1.0, 3.0) == 0.0

    def test_secrecy_rejects_negative(self):
        with pytest.raises(ValueError):
            secrecy_capacity(-0.1, 0.0)

    def test_bob_monotone_in_signal_and_interference(self):
        base = lp([1, 0.5, 0.7, 0.2, 0, 0, 0, 0], nb=1e-3)
        up = lp([1.1, 0.5, 0.7, 0.2, 0, 0, 0, 0], nb=1e-3)
        worse = lp([1, 0.5, 0.9, 0.2, 0, 0, 0, 0], nb=1e-3)
        c_bob = [capacity_report(p).c_bob for p in (up, base, worse)]
        assert c_bob[0] > c_bob[1] > c_bob[2]

    def test_infinite_capacity_guard(self):
        with pytest.raises(InfiniteCapacityError):
            capacity_report(lp([1, 0, 0, 0, 0, 0, 0, 0], nb=0.0)).c_bob
        # zero noise with zero signal is still fine (0/0 -> 0)
        assert capacity_report(lp([0] * 8, nb=0.0)).c_bob == 0.0


class TestSinrValues:
    def test_inverse_relation(self):
        powers = lp([1, 0, 0, 0, 0, 0, 0, 0], nb=1.0)
        sb, _ = sinr_values(powers)
        assert sb == 1.0 and capacity_report(powers).c_bob == 1.0

    def test_all_zero(self):
        assert sinr_values(lp([0] * 8)) == (0.0, 0.0)

    def test_capacity_consistency_random(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            powers = lp(rng.uniform(0, 2, 8),
                        nb=float(rng.uniform(1e-13, 1e-10)),
                        ne=float(rng.uniform(1e-13, 1e-10)))
            sb, se = sinr_values(powers)
            assert math.log2(1 + sb) == pytest.approx(capacity_report(powers).c_bob, rel=1e-12)
            assert math.log2(1 + se) == pytest.approx(capacity_report(powers).c_eve, rel=1e-12)


class TestSecrecyThresholds:
    def test_eta(self):
        th = SecrecyThresholds.from_eta(2.0, 0.01)
        assert th.gamma_eve_max == pytest.approx(0.02)
        assert th.eta == pytest.approx(0.01)

    def test_vacuous_limits_allowed(self):
        th = SecrecyThresholds(0.0, math.inf)
        assert th.c_bob_min == 0.0
        with pytest.raises(ValueError):
            _ = th.eta

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SecrecyThresholds(-1.0, 1.0)


class TestBetaTerms:
    def test_alpha1_one_kills_noise_terms(self, table_scenario, table_channels):
        cfg = zero_config(256)
        b = beta_terms(table_scenario, table_channels, cfg, PowerSplit(1.0, 0.0)).beta
        assert b[2] == b[3] == b[4] == b[5] == 0.0
        assert all(b[k] > 0 for k in (0, 1, 6, 7))

    def test_alpha1_zero_kills_signal_terms(self, table_scenario, table_channels):
        cfg = zero_config(256)
        b = beta_terms(table_scenario, table_channels, cfg, PowerSplit(0.0, 1.0)).beta
        assert b[0] == b[1] == b[6] == b[7] == 0.0
        assert all(b[k] > 0 for k in (2, 3, 4, 5))

    def test_mirror_symmetry_at_equal_split(self, table_scenario, table_channels):
        # bundled scenario is y-mirror symmetric: swapping (CS,Bob)<->(AN,Eve)
        # maps beta1->beta5, beta2->beta6, beta3->beta7, beta4->beta8
        cfg = zero_config(256)
        b = beta_terms(table_scenario, table_channels, cfg, PowerSplit(0.5, 0.5)).beta
        for i, j in ((0, 4), (1, 5), (2, 6), (3, 7)):
            assert b[i] == pytest.approx(b[j], rel=1e-9)

    def test_homogeneity_in_alpha(self, table_scenario, table_channels):
        cfg = zero_config(256)
        b_full = beta_terms(table_scenario, table_channels, cfg, PowerSplit(1.0, 0.0)).beta
        for a in (0.25, 0.5, 0.9):
            b = beta_terms(table_scenario, table_channels, cfg, PowerSplit.of(a)).beta
            assert b[0] == pytest.approx(math.sqrt(a) * b_full[0], rel=1e-12)
            assert b[7] == pytest.approx(math.sqrt(a) * b_full[7], rel=1e-12)

    def test_transmit_power_scaling(self, table_scenario, table_channels):
        cfg = zero_config(256)
        split = PowerSplit.of(0.6)
        b1 = beta_terms(table_scenario, table_channels, cfg, split).beta
        sc10 = replace(table_scenario, pt_dbm=table_scenario.pt_dbm + 10.0)
        b2 = beta_terms(sc10, table_channels, cfg, split).beta
        np.testing.assert_allclose(b2**2, 10.0 * b1**2, rtol=1e-12)

    def test_noise_free_limit(self, table_scenario, table_channels):
        cfg = zero_config(256)
        split = PowerSplit.of(0.5)
        # couplings at the nominal power
        unit = beta_terms(table_scenario, table_channels, cfg, split)
        expected = (unit.beta[0] ** 2 + unit.beta[1] ** 2) / (unit.beta[2] ** 2 + unit.beta[3] ** 2)
        sc_hot = replace(table_scenario, pt_dbm=table_scenario.pt_dbm + 120.0)
        sb, _ = sinr_values(beta_terms(sc_hot, table_channels, cfg, split))
        assert sb == pytest.approx(expected, rel=1e-6)

    def test_beta_mapping_against_cascaded_gain(self, table_scenario, table_channels):
        # each beta_k must equal sqrt(alpha * Pt * L_k) * |G_k| for its path
        sc, ch = table_scenario, table_channels
        cfg = zero_config(256)
        split = PowerSplit.of(0.37)
        powers = beta_terms(sc, ch, cfg, split)
        pt = dbm_to_watts(sc.pt_dbm)
        for k, (src, part, user) in enumerate(BETA_PATHS):
            alpha = split.alpha1 if src == "s" else split.alpha2
            path = cascaded_path(ch.amplitudes(src), ch.phases(src), ch.amplitudes(user),
                                 ch.phases(user), ch.partition(part))
            g = cascaded_gain(path, cfg.phases)
            expected = math.sqrt(alpha * pt * path.path_loss) * abs(g)
            assert powers.beta[k] == pytest.approx(expected, rel=1e-12)


class TestCapacityReport:
    def test_fields_consistent(self, table_scenario, table_channels):
        cfg = zero_config(256)
        powers = beta_terms(table_scenario, table_channels, cfg, PowerSplit.of(0.5))
        rep = capacity_report(powers)
        assert rep.c_secrecy == max(rep.c_bob - rep.c_eve, 0.0)
        assert rep.c_bob == pytest.approx(math.log2(1 + rep.sinr_bob), rel=1e-15)
