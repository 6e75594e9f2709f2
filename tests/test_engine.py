import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import engine, oracle
from tests.conftest import random_passive_qutrits


def _exact_machine(p, m: int, n: int) -> np.ndarray:
    """Machine fixed point for the float state p in exact rationals: the
    oracle's landing map as rates k -> j, solved by GTH elimination."""
    d = m + n
    rate = [{} for _ in range(d)]
    for p_i, t_i in zip(map(Fraction, p), oracle._landing(m, n)):
        for k, t in enumerate(t_i.tolist()):
            if t // d != k:
                rate[k][t // d] = rate[k].get(t // d, 0) + p_i
    weights = [{} for _ in range(d)]
    for top in range(d - 1, 0, -1):
        s = sum(rate[top].values())
        weights[top] = {i: rate[i].pop(top) / s for i in range(top) if top in rate[i]}
        for i, w in weights[top].items():
            for j, r in rate[top].items():
                if j != i:
                    rate[i][j] = rate[i].get(j, 0) + w * r
    q = [Fraction(1)]
    for top in range(1, d):
        q.append(sum(q[i] * w for i, w in weights[top].items()))
    total = sum(q)
    return np.array([float(x / total) for x in q])


def _both_assemblies(p, m: int, n: int):
    """Normalized occupations from the direct and the log-space assembly."""
    r1, r2 = p[0] / p[1], p[1] / p[2]
    l1, l2 = math.log(r1), math.log(r2)
    u = engine._unnormalized_direct(r1, r2, l1, l2, m, n)
    logu = engine._log_unnormalized(l1, l2, m, n)
    return u / u.sum(), np.exp(logu - engine._logsumexp(logu))


@st.composite
def near_one_states(draw):
    """Passive qutrits with r1 or r2 at 1 + delta, delta log-uniform in
    [1e-13, 1e-2] or exactly 0; the other ratio anywhere in [1, 30]."""
    delta = draw(st.just(0.0) | st.floats(-13.0, -2.0).map(lambda x: 10.0**x))
    other = draw(st.floats(1.0, 30.0))
    r1, r2 = (1.0 + delta, other) if draw(st.booleans()) else (other, 1.0 + delta)
    p = np.array([r1 * r2, r2, 1.0])
    return p / p.sum()


class TestGeometricSum:
    def test_boundary_conventions(self):
        for log_lam in (math.log(0.3), 0.0, math.log(4.7)):
            assert engine._geometric_sum(0, log_lam) == 0.0
            assert engine._log_geometric_sum(0, log_lam) == -math.inf
            assert engine._geometric_sum(1, log_lam) == 1.0
            assert engine._log_geometric_sum(1, log_lam) == 0.0
        assert engine._geometric_sum(7, 0.0) == 7.0
        assert engine._log_geometric_sum(7, 0.0) == np.log(7.0)

    def test_matches_direct_sum(self):
        for lam in (0.3, 1.0, 1.0 + 5e-10, 1.0 + 1e-6, 4.7):
            log_lam = math.log(lam)
            ks = np.arange(1, 13)
            exact = [float(sum(Fraction(lam) ** i for i in range(k))) for k in ks]
            got = [engine._geometric_sum(k, log_lam) for k in ks]
            assert got == pytest.approx(exact, rel=1e-14)
            logs = engine._log_geometric_sum(ks, log_lam)
            assert np.exp(logs) == pytest.approx(exact, rel=1e-14)


class TestNearOneRatios:
    @pytest.mark.parametrize("p, m, n", [
        *[((1 - 2 * eps, eps, 0.999999 * eps), m, n)
          for eps in (1e-6, 1e-8) for m, n in ((2, 3), (3, 5))],
        # 13 ln r1 is past the log switch; ln r2 ~ delta
        *[((1 - 0.05 - 0.05 * (1 - delta), 0.05, 0.05 * (1 - delta)), 13, 40)
          for delta in (1e-9, 1e-10)],
    ])
    def test_assemblies_match_exact_rational(self, p, m, n):
        exact = _exact_machine(p, m, n)
        for q in _both_assemblies(np.array(p), m, n):
            assert np.max(np.abs(q - exact)) <= 1e-14

    @given(near_one_states(), st.integers(1, 12), st.integers(1, 12))
    @example(np.array([0.8749820173757363, 0.06250899145320014, 0.06250899117106351]), 7, 5)
    @settings(max_examples=150, deadline=None)
    def test_near_one_matches_oracle(self, p, m, n):
        q_ref = oracle.stationary_machine(p, m, n)
        for q in (*_both_assemblies(p, m, n), engine.machine_distribution(p, m, n)):
            assert np.max(np.abs(q - q_ref)) <= 1e-13


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
