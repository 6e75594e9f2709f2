import dataclasses
import math
import types
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import engine, oracle, reduction
from tests.conftest import random_passive_qutrits


def _exact_solution(p, m: int, n: int):
    """Machine fixed point and delta_p for the float state p in exact
    rationals: the oracle's landing map as rates k -> j, solved by GTH
    elimination, then the cycle's swaps applied to p (x) q."""
    d = m + n
    rate = [{} for _ in range(d)]
    for p_i, j_i in zip(map(Fraction, p), oracle._landing(oracle.build_cycle(m, n))):
        for k, j in enumerate(j_i):
            if j != k:
                rate[k][j] = rate[k].get(j, 0) + p_i
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
    q = [x / total for x in q]
    joint = [[p_i * q_k for q_k in q] for p_i in map(Fraction, p)]
    for a, b, c, e in oracle.build_cycle(m, n):
        joint[a][e], joint[b][c] = joint[b][c], joint[a][e]
    return q, (sum(joint[0]) - Fraction(p[0])) / m


def _closed_form(p, m: int, n: int):
    """(q, delta_p, alpha) of the closed form for the checked qutrit p."""
    u, total, delta_p, alpha = engine._strokes(*engine._factors(p, m, n), m, n)
    return u / total, delta_p, alpha


def _exact_machine(p, m: int, n: int) -> np.ndarray:
    return np.array([float(x) for x in _exact_solution(p, m, n)[0]])


def _errors(p, m: int, n: int, solved=None) -> tuple[float, float]:
    """The errors against _exact_solution of the closed form, or of solved =
    (q, delta_p) for p: q's largest relative error, and delta_p's error over
    |delta_p| kappa, where kappa = (s1**m + s2**n) / |s1**m - s2**n| is the
    condition number of the difference delta_p is proportional to; where the
    exact delta_p is 0, delta_p's error over p1."""
    q_exact, dp_exact = _exact_solution(p, m, n)
    q_exact, dp_exact = np.array([float(x) for x in q_exact]), float(dp_exact)
    q, delta_p = _closed_form(p, m, n)[:2] if solved is None else solved
    s1m, s2n = (p[1] / p[0]) ** m, (p[2] / p[1]) ** n
    if dp_exact:  # multiplied through by |s1**m - s2**n|, so that kappa = inf divides nothing
        dp_err = abs(delta_p - dp_exact) * abs(s1m - s2n) / (abs(dp_exact) * (s1m + s2n))
    else:
        dp_err = abs(delta_p) / p[1]
    return float(np.max(np.abs(q - q_exact) / q_exact)), float(dp_err)


_TIE_CYCLES = [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (5, 7), (20, 3), (3, 20), (40, 1), (1, 40)]


def _near_tie_cases():
    """(p, m, n) with p0/p1 or p1/p2 at 1, or within 1e-12, 1e-7 or 1e-3 of
    it, and the other ratio 1, 1.5, 4 or 30: the factors near 1 that uniform
    random states rarely give (both at 1 is the uniform state, with exact
    delta_p 0), for every cycle of _TIE_CYCLES."""
    cases = []
    for other in (1.0, 1.5, 4.0, 30.0):
        for delta in (0.0, 1e-12, 1e-7, 1e-3):
            for r1, r2 in ((1.0 + delta, other), (other, 1.0 + delta)):
                p = np.array([r1 * r2, r2, 1.0])
                cases += [(p / p.sum(), m, n) for m, n in _TIE_CYCLES]
    return cases


def _seed5_cases(count: int = 300):
    """(p, m, n): uniform passive qutrits with p2 >= 1e-3 and 1 <= m, n <= 29, seed 5."""
    rng = np.random.default_rng(5)
    return [(p, *(int(x) for x in rng.integers(1, 30, 2)))
            for p in (random_passive_qutrits(rng, 1, min_p=1e-3)[0] for _ in range(count))]


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
        for log_lam in (math.log(1e-300), math.log(0.3), 0.0, math.log(4.7)):
            assert engine._geometric_sums(2, log_lam) == [0.0, 1.0]
        assert engine._geometric_sums(8, 0.0)[7] == 7.0
        assert engine._geometric_sums(0, 0.7) == []

    def test_matches_direct_sum(self):
        # ratios below 1, down to 1e-300, are those of the scaled assembly
        for lam in (1e-300, 0.3, 1.0 - 1e-6, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.0 + 1e-6, 4.7):
            log_lam = math.log(lam)
            ks = np.arange(1, 13)
            exact = [float(sum(Fraction(lam) ** i for i in range(k))) for k in ks]
            got = engine._geometric_sums(13, log_lam)[1:]
            assert got == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("log_lam", [math.log(1e-300), -1.3, -1e-12, 0.0, 5e-13, 0.8, 3.1])
    def test_each_entry_is_one_quotient(self, log_lam):
        # the table, entry by entry, against the one-k formula it replaces
        def one(k):
            return math.expm1(k * log_lam) / math.expm1(log_lam) if log_lam else float(k)

        table = engine._geometric_sums(60, log_lam)
        assert table == [one(k) for k in range(60)]
        # the one-entry form asymptotic_machine reads, entry by entry
        assert [engine._geometric_sum(k, log_lam).hex() for k in range(60)] == [x.hex() for x in table]


def _uncached_sums(count: int, log_lam: float) -> list[float]:
    """_geometric_sums without the shared tables, the reference: a fresh
    build on every call."""
    d = math.expm1(log_lam)
    return [math.expm1(k * log_lam) / d if log_lam else float(k) for k in range(count)]


@st.composite
def boltzmann_factors(draw):
    """A factor p_k+1/p_k: exactly 1, within rounding of 1, skewed (1e-12
    to 1e-3) or anywhere in [0.05, 1]."""
    kind = draw(st.sampled_from(["one", "near one", "skewed", "ordinary"]))
    if kind == "one":
        return 1.0
    if kind == "near one":
        return 1.0 - draw(st.integers(1, 64)) * 2.0**-53
    if kind == "skewed":
        return 10.0 ** draw(st.floats(-12.0, -3.0))
    return draw(st.floats(0.05, 1.0))


def _same(a, b) -> bool:
    """Bit equality of two outcome fields: floats by .hex(), arrays by array_equal."""
    if isinstance(a, float):
        return type(b) is type(a) and a.hex() == b.hex()
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


_SCALARS = ("delta_p", "work", "q_hot", "q_cold", "heat_hot", "heat_cold", "efficiency", "alpha_coeff")
_LADDER = np.array([0.0, 1.0, 1.6, 2.9, 3.3])


class TestSharedTables:
    @given(st.lists(boltzmann_factors(), min_size=4, max_size=4), st.integers(1, 30),
           st.integers(1, 30), st.sampled_from([None, "longer", "shorter"]), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_outcomes_equal_fresh_tables(self, factors, m, n, warm, step):
        # a cleared cache, and one warmed on the same state by a longer or a shorter cycle
        w = np.cumprod([1.0, *factors])
        qudit, p = w / w.sum(), w[:3] / w[:3].sum()

        def results(m, n):
            k, best = reduction.best_window(qudit, _LADDER, m, n)
            return [engine.run_cycle(p, _LADDER[:3], m, n), reduction.lifted_cycle(qudit, _LADDER, 0, m, n),
                    best, k, engine.machine_distribution(p, m, n)]

        with mock.patch.object(engine, "_geometric_sums", _uncached_sums):
            expected = results(m, n)
        engine._SUMS.clear()
        if warm == "longer":
            results(m + step, n + step)
        elif warm == "shorter":
            results(max(m - step, 1), max(n - step, 1))
        got = results(m, n)
        for out, ref in zip(got[:3], expected[:3]):
            for field in dataclasses.fields(ref):
                assert _same(getattr(out, field.name), getattr(ref, field.name)), field.name
        assert got[3] == expected[3]
        assert np.array_equal(got[4], expected[4])

    def test_builds_only_missing_entries(self):
        calls = []

        def expm1(x):
            calls.append(x)
            return math.expm1(x)

        p, e = np.array([0.59, 0.40, 0.01]), np.array([0.0, 3.0, 4.0])
        l1, l2 = math.log(p[1] / p[0]), math.log(p[2] / p[1])
        counting = types.SimpleNamespace(**{**vars(math), "expm1": expm1})
        engine._SUMS.clear()
        with mock.patch.object(engine, "math", counting):
            engine.run_cycle(p, e, 7, 9)
            # per table built or extended: its denominator, then one quotient per new entry
            assert calls == [l1, *(k * l1 for k in range(8)), l2, *(k * l2 for k in range(9))]
            calls.clear()
            engine.run_cycle(p, e, 3, 4)
            engine.machine_distribution(p, 7, 9)
            assert calls == []
            engine.run_cycle(p, e, 10, 12)
            assert calls == [l1, *(k * l1 for k in range(8, 11)), l2, *(k * l2 for k in range(9, 12))]

    def test_cache_stays_bounded(self):
        rng = np.random.default_rng(3)
        e = np.array([0.0, 1.0, 1.5])
        for p in random_passive_qutrits(rng, 100, min_p=1e-3):
            engine.run_cycle(p, e, 5, 6)
            assert len(engine._SUMS) <= engine._SUMS_MAX

    def test_returned_table_is_a_copy(self):
        table = engine._geometric_sums(10, -0.4)
        expected = list(table)
        table[3] = 99.0
        table.append(1.0)
        assert engine._geometric_sums(10, -0.4) == expected
        assert engine._geometric_sums(11, -0.4)[:10] == expected

    @pytest.mark.parametrize("p, e, m, n", [
        ([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 2, 3),
        # delta_p < 0, and a NaN efficiency
        (np.array([0.25, 0.15, 0.12]) / 0.52, [0.0, 1.0, 2.0], 2, 3),
        ([0.4, 0.4, 0.2], [0.0, 0.0, 1.0], 1, 1),
    ])
    def test_scalars_are_python_floats(self, p, e, m, n):
        _, best = reduction.best_window(np.array([0.35, 0.25, 0.2, 0.12, 0.08]), _LADDER, m, n)
        for out in (engine.run_cycle(p, e, m, n), best):
            for name in _SCALARS:
                assert type(getattr(out, name)) is float, name


class TestNearOneRatios:
    @pytest.mark.parametrize("p, m, n", [
        *[((1 - 2 * eps, eps, 0.999999 * eps), m, n)
          for eps in (1e-6, 1e-8) for m, n in ((2, 3), (3, 5))],
        # r1**13 near 1e16 next to ln r2 ~ delta
        *[((1 - 0.05 - 0.05 * (1 - delta), 0.05, 0.05 * (1 - delta)), 13, 40)
          for delta in (1e-9, 1e-10)],
    ])
    def test_assemblies_match_exact_rational(self, p, m, n):
        q = engine.machine_distribution(p, m, n)
        assert np.max(np.abs(q - _exact_machine(p, m, n))) <= 1e-14

    @given(near_one_states(), st.integers(1, 12), st.integers(1, 12))
    @example(np.array([0.8749820173757363, 0.06250899145320014, 0.06250899117106351]), 7, 5)
    @settings(max_examples=150, deadline=None)
    def test_near_one_matches_oracle(self, p, m, n):
        q_ref = oracle.stationary_machine(p, m, n)
        assert np.max(np.abs(engine.machine_distribution(p, m, n) - q_ref)) <= 1e-13


class TestClosedFormVsOracle:
    def test_random_states_small_cycles(self):
        rng = np.random.default_rng(23)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            for m in (1, 2, 3, 5):
                for n in (1, 2, 3, 4, 6):
                    q = engine.machine_distribution(p, m, n)
                    q_ref = oracle.stationary_machine(p, m, n)
                    assert np.max(np.abs(q - q_ref)) < 1e-12

    def test_scaled_assembly_small_cycles(self):
        # the assembly itself, below the switch the two-path engine once had at 1e12
        rng = np.random.default_rng(23)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            for m in range(1, 9):
                for n in range(1, 9):
                    q, _, _ = _closed_form(p, m, n)
                    q_ref = oracle.stationary_machine(p, m, n)
                    assert np.max(np.abs(q - q_ref)) < 1e-12

    def test_skewed_state_no_cancellation(self):
        # the naive coefficient formula loses ~12 digits here
        p = np.array([0.59, 0.40, 0.01])
        q = engine.machine_distribution(p, 8, 8)
        q_ref = oracle.stationary_machine(p, 8, 8)
        assert np.max(np.abs(q - q_ref)) < 1e-13

    def test_log_path_matches_oracle(self):
        # r1**m or r2**n past 1e12: large powers of the population ratios
        cases = [
            (np.array([0.495, 0.49, 0.015]), 2, 8),
            (np.array([0.9, 0.09, 0.01]), 13, 1),
        ]
        for p, m, n in cases:
            assert max(m * math.log(p[0] / p[1]), n * math.log(p[1] / p[2])) > math.log(1e12)
            q = engine.machine_distribution(p, m, n)
            q_ref = oracle.stationary_machine(p, m, n)
            assert np.max(np.abs(q - q_ref)) < 1e-12

    @pytest.mark.parametrize("p, m, n", [
        ((0.9, 0.09, 0.01), 13, 1),
        ((0.495, 0.49, 0.015), 2, 8),
        ((0.9, 0.09, 0.01), 24, 24),
        ((0.5, 0.35, 0.15), 40, 33),
        ((0.6, 0.3999, 1e-4), 1, 4),
        ((0.4, 0.4, 0.2), 3, 40),
        # r1**m and r2**n at most 1e12, the worked example first
        ((0.5, 0.35, 0.15), 1, 1),
        ((0.5, 0.35, 0.15), 2, 3),
        ((0.5, 0.35, 0.15), 10, 9),
        ((0.59, 0.40, 0.01), 4, 5),
        ((0.4, 0.35, 0.25), 7, 12),
        ((0.34, 0.33, 0.33), 40, 40),
    ])
    def test_past_switch_matches_exact_rational(self, p, m, n):
        p = np.array(p)
        q_exact, dp_exact = _exact_solution(p, m, n)
        q_exact = np.array([float(x) for x in q_exact])
        q, delta_p, _ = _closed_form(p, m, n)
        assert np.max(np.abs(q - q_exact) / q_exact) <= 1e-14
        assert abs(delta_p - float(dp_exact)) <= 1e-14 * abs(float(dp_exact))

    def test_random_cycles_match_exact_rational(self):
        # uniform passive qutrits and 1 <= m, n <= 40 with r1**m, r2**n <= 1e12,
        # the cases the large-power tests above leave out; bounds about twice
        # the measured worst (1.9e-15 on q, 1.6e-15 on delta_p)
        rng = np.random.default_rng(5)
        count = 0
        while count < 100:
            p = random_passive_qutrits(rng, 1, min_p=0.0)[0]
            m, n = (int(x) for x in rng.integers(1, 41, 2))
            if max(m * math.log(p[0] / p[1]), n * math.log(p[1] / p[2])) > math.log(1e12):
                continue
            count += 1
            # delta_p is proportional to s1**m - s2**n: its error is relative to
            # |delta_p| times the condition number of that difference
            q_err, dp_err = _errors(p, m, n)
            assert q_err <= 4e-15 and dp_err <= 4e-15

    def test_near_ties_match_exact_rational(self):
        # a factor at or near 1 in every stroke's formula, at the bounds above
        for p, m, n in _near_tie_cases():
            q_err, dp_err = _errors(p, m, n)
            assert q_err <= 4e-15 and dp_err <= 4e-15, (p, m, n)

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

    def test_subnormal_p2_is_finite_without_warning(self):
        # p1/p2 overflows to inf here; the assembly uses only p1/p0 and p2/p1
        p = np.array([0.999, 0.001, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine.run_cycle(p, [0.0, 3.0, 4.0], 2, 3)
        assert np.all(np.isfinite([out.delta_p, out.work, *out.final_system]))
        assert np.max(np.abs(out.machine - oracle.stationary_machine(p, 2, 3))) <= 1e-15

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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_machine_is_machine_distribution(self, seed, m, n, e0, de10, de21):
        # one closed form: the ladder moves work and heat, never the machine
        p = random_passive_qutrits(np.random.default_rng(seed), 1, min_p=0.0)[0]
        out = engine.run_cycle(p, [e0, e0 + de10, e0 + de10 + de21], m, n)
        assert np.array_equal(out.machine, engine.machine_distribution(p, m, n))

    def test_final_state_shift_structure(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 3, 4)
        dp = out.delta_p
        assert np.allclose(
            out.final_system,
            [p[0] + 3 * dp, p[1] - 7 * dp, p[2] + 4 * dp],
            atol=1e-15,
        )

    @pytest.mark.parametrize("p, e, m, n, meaningful", [
        # m dE10 == 0 and delta_p < 0: heat enters through the (1,2) pair, and
        # none leaves through the (0,1) pair, so the efficiency is 1
        ([0.3333333333333334, 0.3333333333333333, 0.3333333333333333],
         [0.001, 0.001, 0.0010000000000000002], 2, 4, True),
        ([0.4, 0.4, 0.2], [0.0, 0.0, 1.0], 1, 1, False),
        ([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 2, 3, True),
    ])
    def test_efficiency_meaningful_only_where_defined(self, p, e, m, n, meaningful):
        out = engine.run_cycle(p, e, m, n)
        assert out.efficiency_meaningful is meaningful
        assert out.efficiency_meaningful == (out.work > 0 and math.isfinite(out.efficiency))

    def test_efficiency_formula(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 2, 3)
        assert out.efficiency == pytest.approx(1 - (3 * 1.0) / (2 * 3.0), abs=1e-12)

    @pytest.mark.parametrize("p, e, m, n, eta", [
        # delta_p < 0: heat 3 dE21 enters through the (1,2) pair, 2 dE10 leaves
        (np.array([0.25, 0.15, 0.12]) / 0.52, [0.0, 1.0, 2.0], 2, 3, 1 / 3),
        ([0.3333333333333334, 0.3333333333333333, 0.3333333333333333],
         [0.001, 0.001, 0.0010000000000000002], 2, 4, 1.0),
    ])
    def test_efficiency_of_a_cycle_run_the_other_way(self, p, e, m, n, eta):
        out = engine.run_cycle(p, e, m, n)
        assert out.delta_p < 0 < out.work
        assert out.efficiency == pytest.approx(eta, abs=1e-12)
        assert out.efficiency_meaningful

    @given(
        st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3),
        st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.integers(1, 12), st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_efficiency_below_carnot(self, ws, de10, de21, m, n):
        # "hot" is the pair with the smaller virtual beta, whichever way the cycle runs
        p = np.sort(np.array(ws) / sum(ws))[::-1]
        out = engine.run_cycle(p, [0.0, de10, de10 + de21], m, n)
        if not out.work > 0:
            return
        betas = sorted([math.log(p[0] / p[1]) / de10, math.log(p[1] / p[2]) / de21])
        assert out.efficiency_meaningful
        assert 0.0 <= out.efficiency <= 1.0 - betas[0] / betas[1] + 1e-12


if __name__ == "__main__":
    # the closed form's accuracy against exact rationals and its cost, to
    # compare two trees: PYTHONPATH=src python -m tests.test_engine
    import timeit

    for name, cases in (("seed 5", _seed5_cases()), ("near ties", _near_tie_cases())):
        q_err, dp_err = np.array([_errors(p, m, n) for p, m, n in cases]).T
        print(f"{name}, {len(cases)} cases: q rel err median {np.median(q_err):.3g} max "
              f"{q_err.max():.3g}; delta_p err / (|delta_p| kappa) median "
              f"{np.median(dp_err):.3g} max {dp_err.max():.3g}")

    def best_us(fn, number):
        return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6

    sums = getattr(engine, "_SUMS", {})  # a tree without shared tables has none to clear
    p, e = np.array([0.5, 0.35, 0.15]), np.array([0.0, 3.0, 4.0])
    print("run_cycle on the worked example, time per call (best of 5), empty / warm table cache")
    for m, n in ((2, 3), (7, 9), (100, 80)):
        cold = best_us(lambda: (sums.clear(), engine.run_cycle(p, e, m, n)), 2000)
        warm = best_us(lambda: engine.run_cycle(p, e, m, n), 2000)
        print(f"({m}, {n}): {cold:.1f} / {warm:.1f} us")
    # the bench sweep's first 5-level qudit, before its jitter
    w = np.exp(-np.concatenate([[0.0], np.cumsum([0.5, 0.4, 0.6, 0.3])]))
    q, eq = w / w.sum(), np.concatenate([[0.0], np.cumsum([1.0, 1.8, 0.7, 1.4])])
    cold = best_us(lambda: (sums.clear(), reduction.best_window(q, eq, 12, 11)), 2000)
    warm = best_us(lambda: reduction.best_window(q, eq, 12, 11), 2000)
    print(f"best_window at (12, 11) on the bench sweep's 5-level qudit: {cold:.1f} / {warm:.1f} us")
