"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them. The power-sweep criterion fixes seed 1 and gamma_bob = 2.2 dB
(the documented reproduction constants); the hardware-measured operating
points are covered by the simulated-substitute test at its documented seed.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from risjam.channel import build_channel_set, cascaded_gain, cascaded_path
from risjam.harness import main, optimized_config
from risjam.optimize import (
    an_power_at_eve,
    capacity_ratio_alpha,
    cs_power_at_bob,
    dft_sweep,
    exhaustive_search,
    iterative_optimize,
    optimize_alpha,
)
from risjam.ris import binary_dft_codebook, zero_config
from risjam.scene import format_scenario, load_scenario
from risjam.secrecy import (
    SecrecyThresholds,
    beta_terms,
    capacity_report,
    sinr_values,
)

from conftest import DEFAULT_SCENARIO, make_random_scenario


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def table():
    sc = load_scenario(DEFAULT_SCENARIO)
    return sc, build_channel_set(sc)


def test_criterion_1_monotone_iterative_ascent(table):
    with criterion("1 monotone-iterative-ascent"):
        sc, ch = table
        base = zero_config(256)
        searches = (
            (cs_power_at_bob(sc, ch), ch.bob_indices),
            (an_power_at_eve(sc, ch), ch.eve_indices),
        )
        start = time.perf_counter()
        for seed in range(1, 11):
            for oracle, indices in searches:
                _, trace = iterative_optimize(oracle, base, indices, seed)
                assert len(trace) == 128
                best = [t.best_power_w for t in trace]
                assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_iterative_dominance(table):
    with criterion("2 iterative-dominance"):
        sc, ch = table
        oracle = cs_power_at_bob(sc, ch)
        base = zero_config(256)
        cb = binary_dft_codebook(128)
        wins = 0
        for seed in range(1, 11):
            it_cfg, _ = iterative_optimize(oracle, base, ch.bob_indices, seed)
            _, dft_trace = dft_sweep(oracle, base, ch.bob_indices, cb, seed)
            if oracle(it_cfg.phases) >= max(t.power_w for t in dft_trace):
                wins += 1
        assert wins >= 9, f"iterative won only {wins}/10 seeds"


def test_criterion_3_brute_force_oracle_equivalence():
    with criterion("3 brute-force-oracle-equivalence"):
        rng = np.random.default_rng(2024)
        cb = binary_dft_codebook(8)
        start = time.perf_counter()
        hits = 0  # trials whose optimum is a codeword
        for trial in range(100):
            sc = make_random_scenario(rng, rows=4, cols=4)  # 8-element partitions
            ch = build_channel_set(sc)
            oracle = cs_power_at_bob(sc, ch)
            base = zero_config(16)

            best_cfg, best_p = exhaustive_search(oracle, base, ch.bob_indices)
            it_cfg, _ = iterative_optimize(oracle, base, ch.bob_indices, seed=trial)
            zero_p = oracle(base.phases)
            it_p = oracle(it_cfg.phases)
            assert best_p >= it_p >= zero_p

            _, dft_trace = dft_sweep(oracle, base, ch.bob_indices, cb, seed=trial)
            dft_best = max(t.power_w for t in dft_trace)
            assert dft_best <= best_p
            optimum_word = best_cfg.bits()[list(ch.bob_indices)]
            if any(np.array_equal(w, optimum_word) for w in cb):
                hits += 1
                assert dft_best == best_p
        assert hits > 0, "no optimum was a codeword: the exact-match check never ran"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_unconstrained_argmax(table):
    with criterion("4 unconstrained-argmax"):
        sc, ch = table
        cfg, _ = optimized_config(sc, ch, "iterative", seed=1)
        sol = optimize_alpha(sc, ch, cfg, SecrecyThresholds(0.0, math.inf), grid=1001)
        assert sol.feasible
        assert 0.95 <= sol.alpha1 <= 0.999, f"argmax alpha1 = {sol.alpha1}"


def test_criterion_5_eve_suppression_region(table):
    with criterion("5 eve-suppression-region"):
        sc, ch = table
        cfg, _ = optimized_config(sc, ch, "iterative", seed=1)
        for alpha in np.linspace(0.0, 1.0, 101):
            if alpha <= 0.6:
                beta = beta_terms(sc, ch, cfg, float(alpha))
                c_eve = capacity_report(beta, sc.noise_bob_watts, sc.noise_eve_watts).c_eve
                assert c_eve <= 0.1, f"c_eve={c_eve} at alpha1={alpha}"


def test_criterion_6_power_sweep_convergence(table, tmp_path):
    with criterion("6 power-sweep-convergence"):
        sc, _ = table
        scn = tmp_path / "default.scn"
        scn.write_text(format_scenario(sc), encoding="utf-8")
        targets = {0.01: (0.55, 7.0), 0.10: (0.92, 11.0)}
        for eta, (alpha_target, cb_target) in targets.items():
            out = tmp_path / f"sweep_{eta}.csv"
            rc = main([
                "sweep-power", "--scenario", str(scn), "--out", str(out),
                "--seed", "1", "--eta", str(eta), "--gamma-bob-db", "2.2",
                "--alpha-grid", "1001", "--pt-sweep=-30:2:10",
            ])
            assert rc == 0
            lines = out.read_text().splitlines()
            rows = [dict(zip(lines[1].split(","), l.split(","))) for l in lines[2:]]
            feasible = [r for r in rows if r["feasible"] == "true"]
            assert feasible, "no feasible sweep points"
            top = feasible[-1]
            assert float(top["pt_dbm"]) == 10.0
            alpha_top = float(top["alpha1"])
            assert abs(alpha_top - alpha_target) <= 0.10, (
                f"eta={eta}: top-of-sweep alpha1={alpha_top}, target {alpha_target}"
            )
            # plateau over the feasible high-power tail
            tail = [float(r["c_bob"]) for r in feasible[-3:]]
            for c_bob in tail:
                assert abs(c_bob - cb_target) <= 1.5, (
                    f"eta={eta}: tail c_bob={c_bob}, target {cb_target}"
                )


def test_criterion_7_capacity_sinr_consistency():
    with criterion("7 capacity-sinr-consistency"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            powers = (
                rng.uniform(0.0, 2.0, 8),
                float(rng.uniform(1e-14, 1e-9)),
                float(rng.uniform(1e-14, 1e-9)),
            )
            sb, se = sinr_values(*powers)
            assert math.log2(1.0 + sb) == pytest.approx(capacity_report(*powers).c_bob, rel=1e-12)
            assert math.log2(1.0 + se) == pytest.approx(capacity_report(*powers).c_eve, rel=1e-12)

        # independent route: expand the SINRs from path-loss products and
        # squared cascaded gains instead of the beta terms
        for trial in range(10):
            sc = make_random_scenario(rng)
            ch = build_channel_set(sc)
            pt = sc.pt_watts
            for _ in range(5):
                phases = rng.choice([0.0, math.pi], 16)
                from risjam.ris import PhaseConfig

                cfg = PhaseConfig(phases)
                alpha = float(rng.uniform(0.05, 0.95))

                def g2(src, part, user):
                    path = cascaded_path(ch.amplitudes(src), ch.phases(src), ch.amplitudes(user),
                                         ch.phases(user), ch.partition(part))
                    return path.path_loss * abs(cascaded_gain(path, cfg.phases)) ** 2

                sinr_b_expanded = (
                    alpha * pt * (g2("s", "rb", "b") + g2("s", "re", "b"))
                ) / ((1 - alpha) * pt * (g2("a", "re", "b") + g2("a", "rb", "b"))
                     + sc.noise_bob_watts)
                sinr_e_expanded = (
                    alpha * pt * (g2("s", "rb", "e") + g2("s", "re", "e"))
                ) / ((1 - alpha) * pt * (g2("a", "re", "e") + g2("a", "rb", "e"))
                     + sc.noise_eve_watts)
                sb, se = sinr_values(beta_terms(sc, ch, cfg, alpha), sc.noise_bob_watts, sc.noise_eve_watts)
                assert sb == pytest.approx(sinr_b_expanded, rel=1e-9)
                assert se == pytest.approx(sinr_e_expanded, rel=1e-9)


def test_criterion_8_determinism(table, tmp_path):
    with criterion("8 determinism"):
        sc, _ = table
        scn = tmp_path / "default.scn"
        scn.write_text(format_scenario(sc), encoding="utf-8")
        commands = {
            "optimize-phases": ["--seed", "4"],
            "sweep-alpha": ["--seed", "4", "--alpha-grid", "31", "--include-zero"],
            "sweep-power": ["--seed", "4", "--eta", "0.01", "--gamma-bob-db", "2.2",
                            "--alpha-grid", "201", "--pt-sweep=-20:10:10"],
            "solve-alpha": ["--seed", "4", "--eta", "0.01", "--gamma-bob-db", "2.2",
                            "--alpha-grid", "201"],
            "dump-channels": [],
        }
        for command, extra in commands.items():
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"{command}-{run}"
                rc = main([command, "--scenario", str(scn), "--out", str(out), *extra])
                assert rc == 0
                if command == "optimize-phases":
                    trace = tmp_path / f"{command}-{run}.trace.csv"
                    config = tmp_path / f"{command}-{run}.config.txt"
                    outputs.append(trace.read_bytes() + config.read_bytes())
                else:
                    outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{command} output differs between runs"


def test_hardware_substitute_capacity_ratio(table):
    with criterion("S hardware-substitute-capacity-ratio"):
        sc, ch = table
        cfg_it, _ = optimized_config(sc, ch, "iterative", seed=2)
        cfg_dft, _ = optimized_config(sc, ch, "dft", seed=2)
        a_it = capacity_ratio_alpha(sc, ch, cfg_it, 0.01, grid=1001)
        a_dft = capacity_ratio_alpha(sc, ch, cfg_dft, 0.01, grid=1001)
        assert 0.0 < a_it < 0.8, f"iterative ratio-alpha {a_it}"
        assert 0.0 < a_dft < 1.0
        assert a_it <= a_dft + 0.15, f"ordering violated: {a_it} vs {a_dft}"
