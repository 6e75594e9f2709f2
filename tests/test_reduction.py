import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import activation, engine, quasistatic, reduction, regions, states
from tests.test_engine import _errors


def random_passive_qudit(rng, d, min_p=1e-3):
    while True:
        p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        if p[-1] >= min_p:
            return p


def _window_cases(seed: int, count: int = 250):
    """(p, e, k, m, n): passive qudits with d = 4 ... 7 and entries >= 1e-3,
    ladder gaps in [0.5, 2], one window k each and 1 <= m, n <= 12."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        d = int(rng.integers(4, 8))
        p = random_passive_qudit(rng, d)
        e = np.cumsum(rng.uniform(0.5, 2.0, size=d))
        cases.append((p, e, int(rng.integers(0, d - 2)), *(int(x) for x in rng.integers(1, 13, 2))))
    return cases


def _lifted_errors(p, e, k: int, m: int, n: int) -> tuple[float, float]:
    """lifted_cycle's q and delta_p errors, as test_engine._errors measures
    them, against the exact solution on the raw window p[k : k + 3]."""
    out = reduction.lifted_cycle(p, e, k, m, n)
    return _errors(p[k : k + 3], m, n, (out.machine, out.delta_p))


class TestDecompose:
    def test_identity_reduction(self, worked_example):
        p, e = worked_example
        win = reduction.decompose(p, e, 0)
        assert win.weight == pytest.approx(1.0)
        assert np.allclose(win.reduced_state, p)
        assert np.allclose(win.reduced_h, e)

    def test_interior_window_arithmetic(self):
        p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
        win = reduction.decompose(p, np.arange(5.0), 1)
        assert win.weight == pytest.approx(0.52)
        assert np.allclose(win.reduced_state, np.array([0.25, 0.15, 0.12]) / 0.52)

    def test_uniform_window_weight(self):
        d = 6
        p = np.full(d, 1 / d)
        win = reduction.decompose(p, np.arange(float(d)), 2)
        assert win.weight == pytest.approx(3 / d)
        assert np.allclose(win.reduced_state, 1 / 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduction.decompose([0.5, 0.3, 0.2], [0, 1, 2], 1)


class TestLiftedCycle:
    def test_identity_matches_run_cycle(self, worked_example):
        p, e = worked_example
        lifted = reduction.lifted_cycle(p, e, 0, 1, 1)
        direct = engine.run_cycle(p, e, 1, 1)
        assert lifted.work == pytest.approx(direct.work, abs=1e-15)
        assert np.allclose(lifted.final_system, direct.final_system)

    def test_worked_example_scaled_by_window_mass(self):
        # engine worked example embedded at levels (0,1,2) with mass 0.8
        p = np.array([0.4, 0.28, 0.12, 0.12, 0.08])
        e = np.array([0.0, 3.0, 4.0, 9.0, 11.0])
        out = reduction.lifted_cycle(p, e, 0, 1, 1)
        assert out.work == pytest.approx(0.8 * 0.0703704, abs=1e-6)
        assert np.allclose(out.final_system[3:], [0.12, 0.08])

    def test_work_factorization_random(self):
        rng = np.random.default_rng(31)
        for d in (4, 6, 8, 10):
            p = random_passive_qudit(rng, d)
            e = np.cumsum(rng.uniform(0.5, 2.0, size=d))
            for k in range(d - 2):
                win = reduction.decompose(p, e, k)
                lifted = reduction.lifted_cycle(p, e, k, 2, 3)
                window = engine.run_cycle(win.reduced_state, win.reduced_h, 2, 3)
                assert lifted.work == pytest.approx(win.weight * window.work, abs=1e-12)
                assert lifted.delta_p == pytest.approx(
                    win.weight * window.delta_p, abs=1e-12
                )

    def test_thermal_window_extracts_nothing(self):
        e = np.array([0.0, 1.0, 2.0, 3.0])
        tau = states.thermal_state(0.9, e)
        out = reduction.lifted_cycle(tau, e, 0, 1, 1)  # resonant: lever = 0
        assert out.work == pytest.approx(0.0, abs=1e-15)

    def test_matches_exact_rational_on_the_raw_window(self):
        # the bounds of test_engine's test_random_cycles_match_exact_rational
        for p, e, k, m, n in _window_cases(seed=7):
            q_err, dp_err = _lifted_errors(p, e, k, m, n)
            assert q_err <= 4e-15 and dp_err <= 4e-15, (p, k, m, n)

    def test_alpha_coeff_scaled_by_window_mass(self):
        p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
        e = np.array([0.0, 1.0, 1.5, 4.0, 4.5])
        for k in range(3):
            win = reduction.decompose(p, e, k)
            lifted = reduction.lifted_cycle(p, e, k, 2, 3)
            window = engine.run_cycle(win.reduced_state, win.reduced_h, 2, 3)
            assert lifted.alpha_coeff == pytest.approx(win.weight * window.alpha_coeff, rel=1e-14)
            assert lifted.delta_p == pytest.approx(win.weight * window.delta_p, rel=1e-14)

    def test_degenerate_window_judged_on_raw_populations(self):
        # levels 2 and 3 share an energy and differ by 0.9e-12 < 1e-12, so the
        # state is passive; renormalized by the window mass 0.3 they would
        # differ by 3e-12, past the tolerance
        d = 0.9e-12
        p = np.array([0.7, 0.1 + d, 0.1 + d / 2, 0.1 - d / 2])
        p /= p.sum()
        e = np.array([0.0, 1.0, 2.0, 2.0])
        assert states.is_passive(p, e)
        out = reduction.lifted_cycle(p, e, 1, 2, 3)
        assert math.isfinite(out.work) and out.final_system[0] == p[0]
        assert reduction.best_window(p, e, 2, 3)[1].work >= out.work


class TestBlockUnitaryOracle:
    def test_agrees_with_lifted_cycle(self):
        rng = np.random.default_rng(17)
        for d in (4, 5, 6):
            p = random_passive_qudit(rng, d)
            e = np.cumsum(rng.uniform(0.5, 2.0, size=d))
            for k in range(d - 2):
                for m, n in [(1, 1), (2, 3), (3, 3)]:
                    lifted = reduction.lifted_cycle(p, e, k, m, n)
                    sys_m, mach_m = reduction.block_joint_cycle(p, e, k, m, n)
                    assert np.max(np.abs(sys_m - lifted.final_system)) < 1e-12
                    assert np.max(np.abs(mach_m - lifted.machine)) < 1e-12

    @pytest.mark.parametrize("k, m, message", [
        (0, 2, "^state is not passive: equal energies need equal populations$"),
        (3, 0, "^window start 3 out of range for d=4$"),  # the window first
        (0, 0, "^need m, n >= 1, got m = 0, n = 3$"),  # then m and n, then the ladder
    ])
    def test_refuses_what_lifted_cycle_refuses(self, k, m, message):
        # p1 != p2 on E1 == E2: window 0 is not passive on its ladder
        args = ([0.4, 0.3, 0.2, 0.1], [0.0, 1.0, 1.0, 3.0], k, m, 3)
        for call in (reduction.lifted_cycle, reduction.block_joint_cycle):
            with pytest.raises(ValueError, match=message):
                call(*args)


class TestBestWindow:
    def test_qutrit_returns_zero(self, worked_example):
        p, e = worked_example
        k, out = reduction.best_window(p, e, 1, 1)
        assert k == 0
        assert out.work == pytest.approx(0.0703704, abs=1e-6)

    def test_finds_the_active_window(self):
        # thermal on levels (0,1,2), athermal and activating on (1,2,3)
        e = np.array([0.0, 1.0, 4.0, 5.0])
        beta = 0.3
        a = 1.0
        b = a * np.exp(-beta * 1.0)
        c = b * np.exp(-beta * 3.0)
        d = 0.3 * c
        p = np.array([a, b, c, d])
        p /= p.sum()
        k, out = reduction.best_window(p, e, 1, 1)
        assert k == 1
        assert out.work > 0

    def test_resonant_thermal_qudit_all_zero(self):
        e = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        tau = states.thermal_state(0.7, e)
        k, out = reduction.best_window(tau, e, 2, 2)  # lever = 0 everywhere
        assert k == 0
        assert out.work == pytest.approx(0.0, abs=1e-15)

    def test_two_levels_have_no_window(self):
        with pytest.raises(ValueError, match="window start 0 out of range for d=2"):
            reduction.best_window([0.6, 0.4], [0.0, 1.0], 1, 1)

    def test_same_as_lifted_cycle_window_by_window(self):
        p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
        e = np.array([0.0, 1.0, 1.5, 4.0, 4.5])
        for m, n in [(1, 1), (2, 3), (4, 1)]:
            k, out = reduction.best_window(p, e, m, n)
            lifted = [reduction.lifted_cycle(p, e, j, m, n) for j in range(3)]
            works = [o.work for o in lifted]
            assert k == works.index(max(works))
            assert out.work == lifted[k].work
            assert np.array_equal(out.final_system, lifted[k].final_system)

    def test_qutrit_is_its_own_window(self):
        # a sum of 1 - 1e-13 passes validation; renormalizing it would change the bits
        p = np.array([0.5, 0.35, 0.15 - 1e-13])
        e = np.array([0.0, 3.0, 4.0])
        direct = engine.run_cycle(p, e, 2, 3)
        k, best = reduction.best_window(p, e, 2, 3)
        assert k == 0
        for out in (best, reduction.lifted_cycle(p, e, 0, 2, 3)):
            for field in dataclasses.fields(direct):
                assert np.array_equal(getattr(out, field.name), getattr(direct, field.name))


def _pairs(max_dim):
    return [(m, n) for m in range(1, max_dim) for n in range(1, max_dim - m + 1)]


def _brute_force_best(p, e, pairs, windows=None):
    """(k, m, n, outcome) maximizing lifted work, one lifted_cycle per
    (m, n, k) with k in windows (default: all); the first of equal maxima wins."""
    best = None
    for m, n in pairs:
        for k in range(p.size - 2) if windows is None else windows:
            out = reduction.lifted_cycle(p, e, k, m, n)
            if best is None or out.work > best[3].work:
                best = (k, m, n, out)
    return best


class TestBestCycle:
    def test_matches_brute_force_over_lifted_cycle(self):
        rng = np.random.default_rng(43)
        for d in (3, 4, 5, 6, 4, 5, 6):
            p = random_passive_qudit(rng, d)
            e = np.cumsum(rng.uniform(0.2, 2.0, size=d))
            k, out = reduction.best_cycle(p, e, 8)
            ref_k, m, n, ref = _brute_force_best(p, e, _pairs(8))
            assert (k, out.m, out.n) == (ref_k, m, n)
            assert out.work == ref.work
            assert np.array_equal(out.final_system, ref.final_system)

    def test_ties_keep_the_first_pair_and_window(self):
        # resonant and thermal: work is 0 for every (m, m) and negative otherwise
        e = np.arange(5.0)
        tau = states.thermal_state(0.7, e)
        k, out = reduction.best_cycle(tau, e, 8)
        assert (k, out.m, out.n) == (0, 1, 1) == _brute_force_best(tau, e, _pairs(8))[:3]
        assert out.work == 0.0

    @pytest.mark.parametrize("e", [np.arange(5.0), np.array([0.0, 3.0, 4.0, 6.0, 9.0])])
    def test_skips_windows_with_an_empty_top_level(self, e):
        # windows 1 and 2 end on a zero population: only window 0 can run a cycle
        p = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
        k, out = reduction.best_cycle(p, e, 6)
        ref_k, m, n, ref = _brute_force_best(p, e, _pairs(6), windows=[0])
        assert (k, out.m, out.n) == (ref_k, m, n)
        assert out.work == ref.work
        assert np.array_equal(out.final_system, ref.final_system)

    def test_no_window_that_can_run_a_cycle(self):
        with pytest.raises(ValueError, match="no 3-level window can run a cycle"):
            reduction.best_cycle([0.5, 0.5, 0.0, 0.0, 0.0], np.arange(5.0), 6)
        # a qutrit is its own window and keeps the passive-qutrit error
        with pytest.raises(ValueError, match="passive qutrit"):
            reduction.best_cycle([0.5, 0.5, 0.0], np.arange(3.0), 6)

    @pytest.mark.parametrize("max_dim", [1, 0, -3])
    def test_needs_max_dim_two(self, max_dim):
        with pytest.raises(ValueError, match="need max_dim >= 2"):
            reduction.best_cycle([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], max_dim)


@st.composite
def searchable_qudits(draw):
    """A qudit with d = 3 ... 7 on a ladder whose gaps are often 0, 1 or 2
    (degenerate windows, resonant cycles with lever 0): passive with equal
    populations on equal energies, that is drawn with ties, thermal, or with
    its top levels empty; or, for the errors, sorted with unequal populations
    on equal energies, or unsorted."""
    d = draw(st.integers(3, 7))
    gap = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.1, 3.0)
    e = np.concatenate([[0.0], np.cumsum(draw(st.lists(gap, min_size=d - 1, max_size=d - 1)))])
    kind = draw(st.sampled_from(["drawn", "thermal", "empty_top", "unequal", "unsorted"]))
    if kind == "thermal":
        return states.thermal_state(draw(st.floats(0.0, 3.0)), e), e
    # levels of equal energy share a block, except in the states no search accepts
    block = np.unique(e, return_inverse=True)[1] if kind in ("drawn", "empty_top") else np.arange(d)
    weight = st.sampled_from([0.1, 0.2, 0.3]) | st.floats(1e-3, 1.0)
    size = int(block[-1]) + 1
    w = draw(st.lists(weight, min_size=size, max_size=size))
    if kind != "unsorted":
        w.sort(reverse=True)
    if kind == "empty_top":  # level 2 keeps its population, so window 0 can run
        empty = draw(st.integers(0, block[-1] - block[2]))
        w[len(w) - empty:] = [0.0] * empty
    p = np.array(w)[block]
    return p / p.sum(), e


def _same(a, b) -> bool:
    """== for a field of CycleOutcome, arrays entry by entry, with NaN equal to NaN."""
    return np.array_equal(a, b, equal_nan=True)


def _window_check_in_numpy(p, k):
    """The window check in numpy: decompose's mass, then passive_qutrit's
    batch form on the renormalized window."""
    lam = float(p[k : k + 3].sum())
    if lam <= 0.0:
        raise ValueError("window has zero mass")
    states.passive_qutrit((p[k : k + 3] / lam)[None])


def _search_by_full_outcomes(p, e, pairs):
    """The search with one full _run_cycle per (m, n, k) candidate, every
    window checked in numpy first; the first of equal maxima wins. Returns
    (k, m, n)."""
    if p.size < 3:
        raise ValueError(f"window start 0 out of range for d={p.size}")
    ks = [k for k in range(p.size - 2) if p.size == 3 or p[k + 2] > 0.0]
    if not ks:
        raise ValueError("no 3-level window can run a cycle: every top population p[k+2] is 0")
    for k in ks:
        _window_check_in_numpy(p, k)
    runs = ((k, engine._run_cycle(p[k : k + 3], e[k : k + 3], m, n)) for m, n in pairs for k in ks)
    k, out = max(runs, key=lambda run: run[1].work)
    return k, out.m, out.n


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _windows_off_by_an_ulp():
    """(p, k): windows at k = 1 of a 5-level state, each of a few masses,
    passive, out of order by one ulp, with a top level that is subnormal or 0,
    or empty."""
    cases = []
    for a, b, c in [(0.5, 0.3, 0.2), (0.4, 0.4, 0.2), (1 / 3, 1 / 3, 1 / 3), (0.7, 0.2, 0.1)]:
        for lam in (0.5, 0.3, 1e-3):
            x = [v * lam for v in (a, b, c)]
            for w in (x, [x[0], np.nextafter(x[0], 1.0), x[2]], [x[0], x[1], np.nextafter(x[1], 1.0)],
                      [x[0], x[1], 5e-324], [x[0], x[1], 0.0], [np.nextafter(x[1], 0.0), x[1], x[2]],
                      [0.0, 0.0, 0.0]):
                rest = 1.0 - sum(w)
                cases.append((np.array([rest / 2, *w, rest / 2]), 1))
    return cases


class TestSearch:
    """best_window and best_cycle compute only each candidate's work and
    build the winner's outcome once; the choice and the outcome are those of
    one lifted_cycle per candidate."""

    @given(searchable_qudits(), st.integers(1, 6), st.integers(1, 6))
    # the lever of window 0 overflows before window 1's degenerate pair is met
    @example(case=(np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.0, 1e308, 1.1e308, 1.1e308])), m=2, n=1)
    # window 0's degenerate pair is met before its lever overflows
    @example(case=(np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.0, 1e308, 1e308, 1.1e308])), m=2, n=1)
    # window 0 has unequal populations on equal energies, window 1 is out of order
    @example(case=(np.array([0.4, 0.3, 0.1, 0.2]), np.array([0.0, 0.0, 1.0, 2.0])), m=1, n=1)
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_over_lifted_cycle(self, case, m, n):
        p, e = case
        windows = [k for k in range(max(p.size - 2, 1)) if p[k + 2] > 0.0]
        for search, pairs in [(lambda: reduction.best_window(p, e, m, n), [(m, n)]),
                              (lambda: reduction.best_cycle(p, e, 6), _pairs(6))]:
            error = _outcome(_search_by_full_outcomes, p, e, pairs)
            if error is not None:  # the error one full outcome per candidate meets first
                assert _outcome(search) == error
                continue
            k, out = search()
            ref_k, ref_m, ref_n, ref = _brute_force_best(p, e, pairs, windows)
            assert (k, out.m, out.n) == (ref_k, ref_m, ref_n)
            for field in dataclasses.fields(ref):
                assert _same(getattr(out, field.name), getattr(ref, field.name)), field.name

    def test_window_check_raises_what_the_numpy_check_raised(self):
        cases = _windows_off_by_an_ulp()
        outcomes = [_outcome(_window_check_in_numpy, p, k) for p, k in cases]
        assert {None, "window has zero mass", states._NOT_PASSIVE_QUTRIT} == set(outcomes)
        for (p, k), expected in zip(cases, outcomes):
            assert _outcome(reduction._check_window, p, k) == expected, (p, k)
            assert _outcome(reduction.lifted_cycle, p, np.arange(5.0), k, 2, 3) == expected
            assert _outcome(reduction.block_joint_cycle, p, np.arange(5.0), k, 2, 3) == expected

    def test_builds_one_outcome_and_one_table_pair_per_window(self, monkeypatch):
        built, tables = [], []
        outcome, geometric_sums = engine.CycleOutcome, engine._geometric_sums

        def counted_outcome(**fields):
            built.append((fields["m"], fields["n"]))
            return outcome(**fields)

        def counted_sums(count, log_lam):
            tables.append(count)
            return geometric_sums(count, log_lam)

        monkeypatch.setattr(engine, "CycleOutcome", counted_outcome)
        monkeypatch.setattr(engine, "_geometric_sums", counted_sums)
        p, e = np.array([0.35, 0.25, 0.2, 0.12, 0.08]), np.array([0.0, 1.0, 1.5, 3.0, 3.2])
        k, out = reduction.best_cycle(p, e, 12)
        # three windows, each with tables for m <= 11 and n <= 11; the winner builds none
        assert built == [(out.m, out.n)]
        assert tables == [12, 11] * 3
        built.clear()
        reduction.best_window(p, e, 2, 3)
        assert len(built) == 1


@st.composite
def passive_qudits(draw):
    """A passive qudit with d = 4 ... 7 and entries >= 1e-3 / d, on a ladder with gaps in [0.1, 3]."""
    d = draw(st.integers(4, 7))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d)))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=d - 1, max_size=d - 1))
    return np.sort(w / w.sum())[::-1], np.concatenate([[0.0], np.cumsum(gaps)])


class TestQuditOptimum:
    @given(passive_qudits())
    @settings(max_examples=40, deadline=None)
    def test_no_cycle_beats_the_optimum(self, case):
        # the optimum is the energy above the thermal state of equal entropy, for any d
        p, e = case
        bound = quasistatic.optimal_work(p, e) + 1e-12
        for k in range(p.size - 2):
            pk, ek = p[k : k + 3].tolist(), e[k : k + 3].tolist()
            betas = sorted([math.log(pk[0] / pk[1]) / (ek[1] - ek[0]),
                            math.log(pk[1] / pk[2]) / (ek[2] - ek[1])])
            for m in range(1, 7):
                for n in range(1, 7):
                    out = reduction.lifted_cycle(p, e, k, m, n)
                    assert out.work <= bound
                    if out.work > 0:  # criterion 06 on the window's virtual temperatures
                        assert out.efficiency <= 1.0 - betas[0] / betas[1] + 1e-12
        _, best = reduction.best_cycle(p, e, 12)
        assert activation.optimal_bound_check(p, e, best)



class TestSignPrune:
    """The search's first pass skips every candidate whose lever and
    s1**m - s2**n do not share a nonzero sign, without assembling it; the
    choice is the unpruned one."""

    @given(passive_qudits(), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_best_cycle_equals_unpruned_lifted_works(self, case, max_dim):
        p, e = case
        k, out = reduction.best_cycle(p, e, max_dim)
        ref_k, m, n, ref = _brute_force_best(p, e, _pairs(max_dim))
        assert (k, out.m, out.n) == (ref_k, m, n)
        for field in dataclasses.fields(ref):
            assert _same(getattr(out, field.name), getattr(ref, field.name)), field.name

    def test_skips_candidates_that_cannot_win(self, monkeypatch):
        assembled, strokes = [], engine._strokes

        def counted(*args):
            assembled.append(args[-2:])
            return strokes(*args)

        monkeypatch.setattr(engine, "_strokes", counted)
        p, e = np.array([0.35, 0.25, 0.2, 0.12, 0.08]), np.array([0.0, 1.0, 1.5, 3.0, 3.2])
        k, out = reduction.best_cycle(p, e, 60)
        assert (k, out.m, out.n) == (2, 1, 3)
        # 790 of the 3 x 1,770 (m, n, k) candidates; the winner's outcome reuses its strokes
        assert len(assembled) == 790 and (1, 3) in assembled


# a passive 5-level state whose Boltzmann ratios p_{i+1}/p_i fall along its ladder
_FALLING_RATIOS = (np.array([1.0, 0.8, 0.5, 0.2, 0.05]) / 2.55, np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
_THERMAL_LADDER = np.array([0.0, 1.0, 2.5, 3.0, 5.5])


class TestSecondPass:
    """When the first pass holds no positive work, the search assembles
    every candidate; its choice and outcome are the unpruned ones."""

    @pytest.mark.parametrize("case, search, pairs", [
        # no window extracts work at any pair
        (_FALLING_RATIOS, lambda p, e: reduction.best_cycle(p, e, 4), _pairs(4)),
        (_FALLING_RATIOS, lambda p, e: reduction.best_window(p, e, 2, 2), [(2, 2)]),
        # thermal: lever 0 or delta_p of the lever's opposite sign at every candidate
        ((states.thermal_state(0.8, _THERMAL_LADDER), _THERMAL_LADDER),
         lambda p, e: reduction.best_cycle(p, e, 8), _pairs(8)),
        ((states.thermal_state(0.8, _THERMAL_LADDER), _THERMAL_LADDER),
         lambda p, e: reduction.best_window(p, e, 2, 3), [(2, 3)]),
    ], ids=["no_work_cycle", "no_work_window", "thermal_cycle", "thermal_window"])
    def test_equals_the_unpruned_search_without_work(self, monkeypatch, case, search, pairs):
        p, e = case
        assembled, strokes = [], engine._strokes

        def counted(*args):
            assembled.append(args[-2:])
            return strokes(*args)

        monkeypatch.setattr(engine, "_strokes", counted)
        k, out = search(p, e)
        assert len(assembled) >= len(pairs) * (p.size - 2)  # the second pass assembles them all
        monkeypatch.undo()
        assert out.work <= 0.0
        assert (k, out.m, out.n) == _search_by_full_outcomes(p, e, pairs)
        ref_k, m, n, ref = _brute_force_best(p, e, pairs)
        assert (k, out.m, out.n) == (ref_k, m, n)
        for field in dataclasses.fields(ref):
            assert _same(getattr(out, field.name), getattr(ref, field.name)), field.name

    def test_work_that_underflows_to_zero(self, worked_example):
        # s1**m and s2**n both underflow to 0, so delta_p reads 0.0 for a
        # cycle that does activate the state
        p, e = worked_example
        k, out = reduction.best_window(p, e, 2100, 2100)
        assert out.delta_p == out.work == 0.0
        assert regions.in_activation_region(p, e, 2100, 2100)
        assert (k, out.m, out.n) == _search_by_full_outcomes(p, e, [(2100, 2100)])
        ref_k, m, n, ref = _brute_force_best(p, e, [(2100, 2100)])
        assert (k, out.m, out.n) == (ref_k, m, n)
        for field in dataclasses.fields(ref):
            assert _same(getattr(out, field.name), getattr(ref, field.name)), field.name


if __name__ == "__main__":
    # lifted_cycle's accuracy against exact rationals, to compare two trees:
    # PYTHONPATH=src python -m tests.test_reduction
    for seed in (7, 11):
        q_err, dp_err = np.array([_lifted_errors(*case) for case in _window_cases(seed)]).T
        print(f"seed {seed}, {q_err.size} windows: q rel err median {np.median(q_err):.3g} max "
              f"{q_err.max():.3g}; delta_p err / (|delta_p| kappa) median "
              f"{np.median(dp_err):.3g} max {dp_err.max():.3g}")
