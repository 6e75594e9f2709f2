import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapengine import engine, oracle
from tests.conftest import random_passive_qutrits


class TestGeometricSum:
    def test_boundary_conventions(self):
        assert engine.geometric_sum(-1, 2.0) == 0.0
        assert engine.geometric_sum(-2, 2.0) == -0.5
        assert engine.geometric_sum(0, 2.0) == 1.0

    def test_matches_direct_sum(self):
        for lam in (0.3, 1.0, 1.0 + 5e-10, 4.7):
            for h in range(0, 12):
                direct = sum(lam**k for k in range(h + 1))
                assert engine.geometric_sum(h, lam) == pytest.approx(direct, rel=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            engine.geometric_sum(-3, 2.0)
        with pytest.raises(ValueError):
            engine.geometric_sum(3, 0.0)


class TestClosedFormVsOracle:
    def test_random_states_small_cycles(self):
        rng = np.random.default_rng(23)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            for m in (1, 2, 3, 5):
                for n in (1, 2, 3, 4, 6):
                    q = engine.machine_distribution(p, m, n)
                    q_ref = oracle.stationary_machine(p, m, n)
                    assert np.max(np.abs(q - q_ref)) < 1e-12

    def test_skewed_state_no_cancellation(self):
        # the naive coefficient formula loses ~12 digits here
        p = np.array([0.59, 0.40, 0.01])
        q = engine.machine_distribution(p, 8, 8)
        q_ref = oracle.stationary_machine(p, 8, 8)
        assert np.max(np.abs(q - q_ref)) < 1e-13

    def test_log_path_matches_oracle(self):
        # n*ln(r2) or m*ln(r1) > switch threshold forces the log-space assembly
        cases = [
            (np.array([0.495, 0.49, 0.015]), 2, 8),
            (np.array([0.9, 0.09, 0.01]), 13, 1),
        ]
        for p, m, n in cases:
            assert max(m * math.log(p[0] / p[1]), n * math.log(p[1] / p[2])) > math.log(1e12)
            q = engine.machine_distribution(p, m, n)
            q_ref = oracle.stationary_machine(p, m, n)
            assert np.max(np.abs(q - q_ref)) < 1e-12

    def test_log_assembly_small_cycles(self):
        # the log-space assembly on its own, where the direct path would run
        rng = np.random.default_rng(23)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            l1, l2 = math.log(p[0] / p[1]), math.log(p[1] / p[2])
            for m in range(1, 9):
                for n in range(1, 9):
                    logu = engine._log_unnormalized(l1, l2, m, n)
                    q = np.exp(logu - engine._logsumexp(logu))
                    q_ref = oracle.stationary_machine(p, m, n)
                    assert np.max(np.abs(q / q.sum() - q_ref)) < 1e-12

    def test_log_path_large_m_normalized(self):
        p = np.array([0.5, 0.35, 0.15])
        q = engine.machine_distribution(p, 200, 300)
        assert np.all(np.isfinite(q))
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q >= 0)

    def test_smallest_cycle_matches_oracle(self, worked_example):
        p, e = worked_example
        q = engine.machine_distribution(p, 1, 1)
        assert np.max(np.abs(q - oracle.stationary_machine(p, 1, 1))) < 1e-12
        out = engine.run_cycle(p, e, 1, 1)
        assert abs(out.delta_p - 19 / 540) <= 2 * math.ulp(19 / 540)
        assert abs(out.work - 19 / 270) <= 2 * math.ulp(19 / 270)


class TestRunCycle:
    def test_worked_example(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 1, 1)
        assert out.delta_p == pytest.approx(0.0351852, abs=1e-6)
        assert out.work == pytest.approx(0.0703704, abs=1e-6)
        assert out.efficiency == pytest.approx(2 / 3, abs=1e-9)
        assert out.efficiency_meaningful
        assert np.allclose(out.machine, [0.629630, 0.370370], atol=1e-6)
        assert np.allclose(
            out.final_system, [0.535185, 0.279630, 0.185185], atol=1e-6
        )
        assert not out.final_active

    def test_rejects_nonpassive(self):
        with pytest.raises(ValueError):
            engine.run_cycle([0.3, 0.5, 0.2], [0, 1, 2], 2, 3)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            engine.run_cycle([0.6, 0.4, 0.0], [0, 1, 2], 2, 3)

    @pytest.mark.parametrize("p, e", [
        ([0.5, 0.35, 0.15], [0.0, float("nan"), 4.0]),
        ([0.5, 0.35, 0.15], [0.0, 3.0, float("inf")]),
        ([0.5, float("nan"), 0.15], [0.0, 3.0, 4.0]),
    ])
    def test_rejects_non_finite_input(self, p, e):
        with pytest.raises(ValueError):
            engine.run_cycle(p, e, 2, 3)

    @pytest.mark.parametrize("m, n", [(0, 3), (2, 0), (-1, 3)])
    def test_rejects_cycle_below_one(self, worked_example, m, n):
        p, e = worked_example
        with pytest.raises(ValueError, match="m, n >= 1"):
            engine.run_cycle(p, e, m, n)
        with pytest.raises(ValueError, match="m, n >= 1"):
            engine.machine_distribution(p, m, n)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_heat_identities_property(self, seed, m, n):
        rng = np.random.default_rng(seed)
        p = random_passive_qutrits(rng, 1, min_p=1e-3)[0]
        e = np.array([0.0, 1.7, 2.9])
        out = engine.run_cycle(p, e, m, n)
        de10, de21 = 1.7, 1.2
        assert out.heat_hot == pytest.approx(m * de10 * out.delta_p, abs=1e-15)
        assert out.heat_cold == pytest.approx(n * de21 * out.delta_p, abs=1e-15)
        assert out.work == pytest.approx(out.heat_hot - out.heat_cold, abs=1e-14)
        assert out.final_system.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.final_system >= -1e-15)

    def test_final_state_shift_structure(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 3, 4)
        dp = out.delta_p
        assert np.allclose(
            out.final_system,
            [p[0] + 3 * dp, p[1] - 7 * dp, p[2] + 4 * dp],
            atol=1e-15,
        )

    def test_efficiency_formula(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 2, 3)
        assert out.efficiency == pytest.approx(1 - (3 * 1.0) / (2 * 3.0), abs=1e-12)
