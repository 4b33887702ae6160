import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risjam import _kernels
from risjam.channel import build_channel_set
from risjam.optimize import (
    ReceivedPowerOracle,
    an_power_at_eve,
    capacity_ratio_alpha,
    cs_power_at_bob,
    dft_sweep,
    exhaustive_search,
    iterative_optimize,
    optimize_alpha,
)
from risjam.ris import Codebook, PhaseConfig, binary_dft_codebook, set_partition, zero_config
from risjam.secrecy import PowerSplit, SecrecyThresholds, beta_terms, sinr_values
from risjam.harness import optimized_config

from conftest import make_random_scenario

PI = math.pi


def upper(n):
    """Toy partition for the unit tests: the upper half of n element indices."""
    return tuple(range(n // 2, n))


def coherent_oracle(psi, indices):
    """Toy oracle: |1 + sum_i exp(-j(psi_i + theta_n))|^2 with n = indices[i].

    The constant unit phasor stands in for the non-target partition's fixed
    contribution and makes even a single element's phase observable.
    """

    def measure(phases) -> float:
        total = 1.0 + sum(np.exp(-1j * (psi[i] + phases[n])) for i, n in enumerate(indices))
        return float(abs(total)) ** 2

    return measure


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, phases):
        self.calls += 1
        return self.fn(phases)


class TestIterativeOptimize:
    def test_single_element_prefers_pi(self):
        cfg = zero_config(2)
        oracle = coherent_oracle([PI], (1,))  # flip to pi aligns the term
        final, trace = iterative_optimize(oracle, cfg, (1,), seed=0)
        assert final.phases[1] == PI
        assert len(trace) == 1

    def test_constant_oracle_keeps_config(self):
        base = set_partition(zero_config(8), upper(8), np.array([PI, 0.0, PI, 0.0]))
        final, trace = iterative_optimize(lambda phases: 1.0, base, upper(8), seed=5)
        assert final == base
        assert all(t.best_power_w == 1.0 for t in trace)

    def test_only_partition_elements_flip(self):
        # every flip to pi pays, so exactly the given elements end at pi
        idx = (0, 3, 5)
        final, trace = iterative_optimize(lambda phases: float(phases.sum()), zero_config(8), idx, seed=2)
        np.testing.assert_array_equal(np.flatnonzero(final.phases), idx)
        assert len(trace) == 3

    def test_two_element_recovers_exhaustive_optimum(self):
        psi = [0.0, PI]
        oracle = coherent_oracle(psi, upper(4))
        base = zero_config(4)
        best_cfg, best_p = exhaustive_search(oracle, base, upper(4))
        for seed in range(6):
            final, _ = iterative_optimize(oracle, base, upper(4), seed=seed)
            assert oracle(final.phases) == pytest.approx(best_p, rel=1e-12)
        assert best_p == pytest.approx(9.0, rel=1e-12)  # offset + two aligned phasors

    def test_trace_monotone_and_strictly_indexed(self, table_scenario, table_channels):
        oracle = cs_power_at_bob(table_scenario, table_channels)
        base = zero_config(256)
        final, trace = iterative_optimize(oracle, base, table_channels.bob_indices, seed=42)
        assert len(trace) == 128
        assert [t.trial for t in trace] == list(range(1, 129))
        best = [t.best_power_w for t in trace]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert oracle(final.phases) == best[-1]

    def test_oracle_call_budget(self):
        inner = coherent_oracle(np.linspace(0, 2 * PI, 8, endpoint=False), upper(16))
        oracle = CountingOracle(inner)
        iterative_optimize(oracle, zero_config(16), upper(16), seed=1)
        assert oracle.calls == 8 + 1  # incumbent + one new call per element

    def test_determinism(self, table_scenario, table_channels):
        oracle = cs_power_at_bob(table_scenario, table_channels)
        base = zero_config(256)
        a_cfg, a_trace = iterative_optimize(oracle, base, table_channels.bob_indices, seed=7)
        b_cfg, b_trace = iterative_optimize(oracle, base, table_channels.bob_indices, seed=7)
        assert a_cfg == b_cfg
        assert a_trace == b_trace

    def test_input_config_not_mutated(self):
        base = zero_config(4)
        snapshot = np.array(base.phases)
        iterative_optimize(coherent_oracle([0.0, PI], upper(4)), base, upper(4), seed=0)
        np.testing.assert_array_equal(base.phases, snapshot)


class TestDftSweep:
    def test_all_zero_codebook(self):
        cb = Codebook((np.zeros(2),))
        base = zero_config(4)
        final, trace = dft_sweep(coherent_oracle([0.3, 0.7], upper(4)), base, upper(4), cb, seed=0)
        assert final == base
        assert len(trace) == 2  # padded to the partition-size budget

    def test_returns_argmax_codeword(self):
        psi = [0.0, PI]
        oracle = coherent_oracle(psi, upper(4))
        base = zero_config(4)
        winner = np.array([0.0, PI])
        cb = Codebook((np.zeros(2), winner, np.array([PI, 0.0])))
        measured = []

        def recording(phases):
            measured.append(phases.copy())  # the sweep reuses its buffer
            return oracle(phases)

        final, trace = dft_sweep(recording, base, upper(4), cb, seed=0)
        np.testing.assert_array_equal(final.phases[list(upper(4))], winner)
        assert max(t.power_w for t in trace) == trace[1].power_w
        # trial k evaluates exactly set_partition(base, upper(4), codeword k)
        assert len(measured) == len(cb)
        for k, cw in enumerate(cb):
            np.testing.assert_array_equal(measured[k], set_partition(base, upper(4), cw).phases)

    def test_sweep_bounded_by_exhaustive(self):
        rng = np.random.default_rng(17)
        cb = binary_dft_codebook(4)
        idx = upper(8)
        for _ in range(20):
            psi = rng.uniform(0, 2 * PI, 4)
            oracle = coherent_oracle(psi, idx)
            base = zero_config(8)
            best_cfg, best_p = exhaustive_search(oracle, base, idx)
            swept_cfg, trace = dft_sweep(oracle, base, idx, cb, seed=3)
            swept_best = max(t.power_w for t in trace)
            assert swept_best <= best_p * (1 + 1e-12)
            optimum_bits = best_cfg.phases[list(idx)]
            in_book = any(np.array_equal(w, optimum_bits) for w in cb.codewords)
            if in_book:
                assert swept_best == best_p

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            dft_sweep(lambda phases: 1.0, zero_config(4), upper(4), Codebook(()), seed=0)

    def test_codeword_length_mismatch_rejected(self):
        # a one-element codeword would otherwise broadcast over the partition
        with pytest.raises(ValueError):
            dft_sweep(lambda phases: 1.0, zero_config(4), upper(4), Codebook((np.zeros(1),)), seed=0)

    def test_budget_padding_deterministic(self, table_scenario, table_channels):
        oracle = cs_power_at_bob(table_scenario, table_channels)
        base = zero_config(256)
        cb = binary_dft_codebook(128)
        assert len(cb) < 128  # quantization collapses duplicate rows
        cfg1, trace1 = dft_sweep(oracle, base, table_channels.bob_indices, cb, seed=11)
        cfg2, trace2 = dft_sweep(oracle, base, table_channels.bob_indices, cb, seed=11)
        assert len(trace1) == 128
        assert cfg1 == cfg2 and trace1 == trace2

    def test_non_target_partition_untouched(self):
        base = set_partition(zero_config(8), (0, 1, 2, 3), np.array([PI, 0.0, PI, 0.0]))
        cb = binary_dft_codebook(4)
        final, _ = dft_sweep(coherent_oracle(np.zeros(4), upper(8)), base, upper(8), cb, seed=0)
        np.testing.assert_array_equal(final.phases[:4], [PI, 0.0, PI, 0.0])


class TestExhaustiveSearch:
    def test_single_element(self):
        oracle = CountingOracle(coherent_oracle([PI], (1,)))
        best_cfg, best_p = exhaustive_search(oracle, zero_config(2), (1,))
        assert oracle.calls == 2
        assert best_p == pytest.approx(4.0, rel=1e-12)  # flip aligns with the offset
        assert best_cfg.phases[1] == PI

    def test_matches_two_element_channel_example(self):
        # pure two-phasor sum, same enumeration as the cascaded-gain test:
        # the optimum is |G|^2 = 4 (reached by (0,pi) and its global flip)
        def pure(phases):
            psi = [0.0, PI]
            return abs(sum(np.exp(-1j * (psi[i] + phases[n]))
                           for i, n in enumerate(upper(4)))) ** 2

        _, best_p = exhaustive_search(pure, zero_config(4), upper(4))
        assert best_p == pytest.approx(4.0, rel=1e-12)

    def test_upper_bounds_iterative(self):
        rng = np.random.default_rng(23)
        idx = upper(12)
        for _ in range(10):
            psi = rng.uniform(0, 2 * PI, 6)
            oracle = coherent_oracle(psi, idx)
            base = zero_config(12)
            best_cfg, best_p = exhaustive_search(oracle, base, idx)
            assert oracle(best_cfg.phases) == best_p  # the argmax, not the last code tried
            final, _ = iterative_optimize(oracle, base, idx, seed=int(rng.integers(1000)))
            assert oracle(final.phases) <= best_p * (1 + 1e-12)

    def test_upper_bounds_both_algorithms_on_12_elements(self, table_scenario):
        # one larger partition: exhaustive over 2^12 configs bounds both methods
        from dataclasses import replace

        sc = replace(table_scenario, ris_rows=2, ris_cols=12)
        ch = build_channel_set(sc)
        oracle = cs_power_at_bob(sc, ch)
        base = zero_config(24)
        _, best_p = exhaustive_search(oracle, base, ch.bob_indices)
        it_cfg, _ = iterative_optimize(oracle, base, ch.bob_indices, seed=3)
        assert oracle(it_cfg.phases) <= best_p

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            exhaustive_search(lambda phases: 1.0, zero_config(21), range(21))

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search(lambda phases: 1.0, zero_config(2), ())


class TestReceivedPowerOracle:
    def test_matches_beta_terms(self, table_scenario, table_channels):
        sc, ch = table_scenario, table_channels
        rng = np.random.default_rng(31)
        oracle_cs = cs_power_at_bob(sc, ch)
        oracle_an = an_power_at_eve(sc, ch)
        for _ in range(5):
            phases = rng.choice([0.0, PI], 256)
            cfg = PhaseConfig(phases)
            b_cs = beta_terms(sc, ch, cfg, PowerSplit(1.0, 0.0)).beta
            b_an = beta_terms(sc, ch, cfg, PowerSplit(0.0, 1.0)).beta
            assert oracle_cs(phases) == pytest.approx(b_cs[0] ** 2 + b_cs[1] ** 2, rel=1e-12)
            assert oracle_an(phases) == pytest.approx(b_an[4] ** 2 + b_an[5] ** 2, rel=1e-12)

    def test_metadata_and_validation(self, table_scenario, table_channels):
        oracle = cs_power_at_bob(table_scenario, table_channels)
        assert oracle.signal == "cs" and oracle.user == "bob"
        with pytest.raises(ValueError):
            ReceivedPowerOracle(table_scenario, table_channels, "noise", "bob")
        with pytest.raises(ValueError):
            oracle(np.zeros(8))

    # N = 256: every iterative trial after each oracle's first call is a flip
    # (2 partition sums for each of the two first calls); every DFT codeword
    # is measured in full (2 partition sums per call).
    @pytest.mark.parametrize("algorithm, sums, calls", [("iterative", 4, 258), ("dft", 512, 256)])
    def test_flip_and_full_path_counts(self, table_scenario, table_channels, monkeypatch,
                                       algorithm, sums, calls):
        summed, oracles = [], []
        coherent_sum, init = _kernels.coherent_sum, ReceivedPowerOracle.__init__

        def counting_sum(*args):
            summed.append(len(args[0]))
            return coherent_sum(*args)

        def register(self, *args):
            init(self, *args)
            oracles.append(self)

        monkeypatch.setattr(_kernels, "coherent_sum", counting_sum)
        monkeypatch.setattr(ReceivedPowerOracle, "__init__", register)
        optimized_config(table_scenario, table_channels, algorithm, seed=1)
        assert len(summed) == sums and set(summed) == {128}
        assert len(oracles) == 2 and sum(o.calls for o in oracles) == calls


# One caller step: (kind, element or seed, value). "flip" toggles an element
# between 0 and pi, "reject" toggles it and restores it after the call (so the
# next call sees the revert and its own change), "codeword" writes seeded
# binary phases over a whole partition, "set" writes `value`, which may be
# non-binary or a signed zero.
_STEPS = st.lists(
    st.tuples(st.sampled_from(["flip", "reject", "codeword", "set"]), st.integers(0, 2**16),
              st.sampled_from([0.0, PI, -0.0, 1.0, 2.0 * PI, -PI])),
    max_size=40,
)
_MIXED = [("flip", 0, 0.0), ("reject", 1, 0.0), ("flip", 2, 0.0), ("set", 3, 1.0),
          ("flip", 4, 0.0), ("reject", 3, 0.0), ("set", 3, 0.0), ("flip", 5, 0.0),
          ("codeword", 7, 0.0), ("flip", 6, 0.0), ("set", 1, -0.0), ("reject", 2, 0.0),
          ("codeword", 8, 0.0), ("codeword", 8, 0.0), ("flip", 7, 0.0)]


class TestFlipAwareOracle:
    """Every answer equals a fresh oracle's full measurement of the same vector, bit for bit."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1, 2), (2, 2), (3, 4), (4, 6)]),
           link=st.sampled_from([("cs", "bob"), ("an", "eve"), ("cs", "eve"), ("an", "bob")]),
           steps=_STEPS)
    @example(seed=3, shape=(3, 4), link=("cs", "bob"), steps=_MIXED)
    @example(seed=4, shape=(4, 6), link=("an", "eve"), steps=_MIXED[::-1])
    # On a 2x2 panel elements 0 and 2 form r_e, 1 and 3 form r_b. The last call
    # reverts element 0 in r_e and flips element 1 in r_b.
    @example(seed=5, shape=(2, 2), link=("cs", "bob"),
             steps=[("flip", 0, 0.0), ("flip", 1, 0.0), ("reject", 0, 0.0), ("flip", 1, 0.0)])
    # After element 0 is set to 1.0 (a full measurement), the third call reverts
    # element 1 and flips element 2 into r_e, which has no term array and holds
    # 1.0, so it is measured in full.
    @example(seed=6, shape=(2, 2), link=("an", "eve"),
             steps=[("set", 0, 1.0), ("reject", 1, 0.0), ("flip", 2, 0.0), ("flip", 1, 0.0)])
    def test_matches_a_fresh_oracle(self, seed, shape, link, steps):
        rng = np.random.default_rng(seed)
        sc = make_random_scenario(rng, *shape)
        ch = build_channel_set(sc)
        n = ch.n_elements
        oracle = ReceivedPowerOracle(sc, ch, *link)
        phases = np.zeros(n)
        buffer = np.empty(n)
        calls = 0

        def measure():
            nonlocal calls
            buffer[:] = phases
            p = oracle(buffer)
            calls += 1
            buffer[:] = rng.uniform(-10.0, 10.0, n)  # the caller reuses its buffer
            assert p == ReceivedPowerOracle(sc, ch, *link)(phases)

        measure()
        for kind, k, value in steps:
            e = k % n
            kept = phases[e]
            if kind in ("flip", "reject"):
                phases[e] = PI if kept == 0.0 else 0.0
            elif kind == "codeword":
                idx = list(ch.partition("rb" if k % 2 else "re"))
                phases[idx] = np.random.default_rng(k).choice([0.0, PI], len(idx))
            else:
                phases[e] = value
            measure()
            if kind == "reject":
                phases[e] = kept
        measure()
        assert oracle.calls == calls


def _dense_grid_argmax(sc, ch, cfg, th, n=1_000_001):
    """Brute-force oracle: fine grid over alpha with feasibility filtering."""
    from risjam.optimize import _AlphaResponse

    model = _AlphaResponse(sc, ch, cfg)
    alphas = np.linspace(0.0, 1.0, n)
    feas = model.feasibility(alphas, th)
    if not feas.any():
        return None
    cs = np.where(feas, model.secrecy(alphas), -np.inf)
    return float(alphas[int(np.argmax(cs))])


class TestOptimizeAlpha:
    def test_unconstrained_matches_dense_grid(self):
        rng = np.random.default_rng(41)
        th = SecrecyThresholds(0.0, math.inf)
        for trial in range(5):
            sc = make_random_scenario(rng)
            ch = build_channel_set(sc)
            cfg, _ = optimized_config(sc, ch, "iterative", seed=trial)
            sol = optimize_alpha(sc, ch, cfg, th, grid=1001)
            dense = _dense_grid_argmax(sc, ch, cfg, th)
            assert sol.feasible
            assert sol.alpha1 == pytest.approx(dense, abs=1e-3)

    def test_constrained_matches_dense_grid(self):
        rng = np.random.default_rng(43)
        for trial in range(5):
            sc = make_random_scenario(rng)
            ch = build_channel_set(sc)
            cfg, _ = optimized_config(sc, ch, "iterative", seed=100 + trial)
            th = SecrecyThresholds.from_eta(1.0, 0.05)
            sol = optimize_alpha(sc, ch, cfg, th, grid=1001)
            dense = _dense_grid_argmax(sc, ch, cfg, th)
            if dense is None:
                assert not sol.feasible
            else:
                assert sol.feasible
                assert sol.alpha1 == pytest.approx(dense, abs=1e-3)

    def test_unconstrained_table_argmax_near_one(self, table_scenario, table_channels):
        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=1)
        sol = optimize_alpha(table_scenario, table_channels, cfg,
                             SecrecyThresholds(0.0, math.inf), grid=1001)
        assert 0.95 <= sol.alpha1 < 1.0

    def test_zero_eve_cap_forces_zero_alpha(self, table_scenario, table_channels):
        cfg = zero_config(256)
        sol = optimize_alpha(table_scenario, table_channels, cfg,
                             SecrecyThresholds(0.0, 0.0), grid=101)
        assert sol.feasible
        assert sol.alpha1 == 0.0

    def test_infeasible_reported(self, table_scenario, table_channels):
        cfg = zero_config(256)
        # Bob floor far above anything achievable at -9 dBm transmit power
        th = SecrecyThresholds(1e12, math.inf)
        sol = optimize_alpha(table_scenario, table_channels, cfg, th, grid=101)
        assert not sol.feasible
        assert sol.binding == "C1"

    def test_feasible_solution_satisfies_constraints(self, table_scenario, table_channels):
        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=2)
        th = SecrecyThresholds.from_eta(10 ** 0.22, 0.01)
        sol = optimize_alpha(table_scenario, table_channels, cfg, th, grid=1001)
        assert sol.feasible
        powers = beta_terms(table_scenario, table_channels, cfg, PowerSplit.of(sol.alpha1))
        sb, se = sinr_values(powers)
        assert sb >= th.gamma_bob_min - 1e-9
        assert se <= th.gamma_eve_max + 1e-9

    def test_scale_invariance(self, table_scenario, table_channels):
        from dataclasses import replace

        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=3)
        th = SecrecyThresholds.from_eta(1.0, 0.02)
        sol1 = optimize_alpha(table_scenario, table_channels, cfg, th, 501)
        scaled = replace(
            table_scenario,
            pt_dbm=table_scenario.pt_dbm + 13.0,
            noise_bob_dbm=table_scenario.noise_bob_dbm + 13.0,
            noise_eve_dbm=table_scenario.noise_eve_dbm + 13.0,
        )
        sol2 = optimize_alpha(scaled, table_channels, cfg, th, 501)
        assert sol2.alpha1 == pytest.approx(sol1.alpha1, abs=2e-5)

    def test_grid_validation(self, table_scenario, table_channels):
        cfg = zero_config(256)
        with pytest.raises(ValueError):
            optimize_alpha(table_scenario, table_channels, cfg,
                           SecrecyThresholds(0.0, math.inf), grid=1)


class TestCapacityRatioAlpha:
    def test_vacuous_ratio_returns_top(self, table_scenario, table_channels):
        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=1)
        a = capacity_ratio_alpha(table_scenario, table_channels, cfg, 0.999, grid=101)
        assert a == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_ratio(self, table_scenario, table_channels):
        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=1)
        a1 = capacity_ratio_alpha(table_scenario, table_channels, cfg, 0.01, grid=501)
        a2 = capacity_ratio_alpha(table_scenario, table_channels, cfg, 0.10, grid=501)
        assert 0.0 < a1 <= a2 <= 1.0

    def test_boundary_is_tight(self, table_scenario, table_channels):
        from risjam.optimize import _AlphaResponse

        cfg, _ = optimized_config(table_scenario, table_channels, "iterative", seed=1)
        ratio = 0.01
        a = capacity_ratio_alpha(table_scenario, table_channels, cfg, ratio, grid=501)
        model = _AlphaResponse(table_scenario, table_channels, cfg)
        sb, se = model.sinrs(a)
        assert math.log2(1 + se) <= ratio * math.log2(1 + sb) + 1e-9
        sb2, se2 = model.sinrs(min(a + 2e-3, 1.0))
        assert math.log2(1 + se2) > ratio * math.log2(1 + sb2)

    def test_ratio_validation(self, table_scenario, table_channels):
        cfg = zero_config(256)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                capacity_ratio_alpha(table_scenario, table_channels, cfg, bad, grid=101)
