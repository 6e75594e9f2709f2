import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import engine, regions, states
from tests.conftest import random_passive_qutrits, tensor_power_ergotropy


class TestGapRatio:
    def test_exact_integer_ratio(self):
        r = regions.approximate_gap_ratio([0.0, 3.0, 4.0])
        assert (r.m_int, r.n_int) == (1, 3)

    def test_exact_fraction(self):
        r = regions.approximate_gap_ratio([0.0, 1.0, 3.0])
        assert (r.m_int, r.n_int) == (2, 1)

    def test_irrational_gives_convergent(self):
        phi = (1 + math.sqrt(5)) / 2
        r = regions.approximate_gap_ratio([0.0, phi, phi + 1.0], tol=1e-3)
        # consecutive Fibonacci numbers, the best rational approximants
        assert (r.m_int, r.n_int) == (610, 987)
        assert abs(r.m_int * phi - r.n_int) <= 1e-3

    def test_tighter_tolerance_grows_denominator(self):
        phi = (1 + math.sqrt(5)) / 2
        loose = regions.approximate_gap_ratio([0.0, phi, phi + 1.0], tol=1e-3)
        tight = regions.approximate_gap_ratio([0.0, phi, phi + 1.0], tol=1e-6)
        assert tight.m_int > loose.m_int
        assert abs(tight.m_int * phi - tight.n_int) <= 1e-6

    @pytest.mark.parametrize("lower", [1e-300, 5e-324])
    def test_no_convergent_within_tol_raises(self, lower):
        # 1e-300: the expansion ends at M = 1e300, where M x - N rounds to 1.1e-16;
        # 5e-324: its next term, 1/x, is past the float range
        with pytest.raises(ValueError, match="no convergent of dE10/dE21"):
            regions.approximate_gap_ratio([0.0, lower, 1.0], tol=0.0)
        r = regions.approximate_gap_ratio([0.0, lower, 1.0])  # at the default tol, N = 0
        assert (r.m_int, r.n_int) == (1, 0)


class TestClassification:
    def test_worked_example_in_r1(self, worked_example):
        p, e = worked_example
        assert regions.classify(p, regions.approximate_gap_ratio(e)) == regions.R1

    def test_thermal_in_r3(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.8, e)
        assert regions.classify(tau, regions.approximate_gap_ratio(e)) == regions.R3

    def test_ratio_past_the_float_range_in_r1(self):
        # p1/p2 overflows; ln p1 - ln p2 = 743.5 is far above ln(p0/p1) = 0.41
        p, ratio = [0.6, 0.4, 5e-324], regions.RationalGapRatio(1, 1)
        for tol in (regions.R3_TOL, 0.0):
            assert regions.classify(p, ratio, tol) == regions.R1
            labels = regions.classify(np.array([p, [0.5, 0.35, 0.15]]), ratio, tol)
            assert labels.tolist() == [regions.R1, regions.R1]

    def test_log_ratio_past_the_float_range_is_finite(self):
        # p1/p2 overflows, yet ln p1 - ln p2 = 709.9 < 21 ln(p0/p1) = 725.3
        p, ratio = [1 - 1e-15, 1e-15, 5e-324], regions.RationalGapRatio(21, 1)
        assert regions.classify(p, ratio) == regions.R2
        labels = regions.classify(np.array([p, [0.5, 0.49, 0.01]]), ratio)
        assert labels.tolist() == [regions.R2, regions.R1]
        # E0 = E1 (N = 0): p0 == p1 is thermal, whatever p1/p2 is
        assert regions.classify([0.5, 0.5, 5e-324], regions.RationalGapRatio(1, 0)) == regions.R3

    def test_activation_with_log_ratio_past_the_float_range(self):
        # n (ln p1 - ln p2) - m ln(p0/p1) = 743.5 - 1216 < 0 against a positive
        # lever: the cycle extracts nothing, as run_cycle says
        p, e = [0.6, 0.4, 5e-324], [0.0, 1.0, 2.0]
        assert not regions.in_activation_region(p, e, 3000, 1)
        assert regions.in_activation_region(np.array([p, p]), e, 3000, 1).tolist() == [False, False]
        assert engine.run_cycle(p, e, 3000, 1).work == 0.0
        assert regions.in_activation_region(p, e, 1000, 1)

    def test_steep_lower_ratio_in_r2(self):
        e = np.array([0.0, 3.0, 4.0])
        p = np.array([0.9, 0.052, 0.048])  # ln(p0/p1) dominates
        assert regions.classify(p, regions.approximate_gap_ratio(e)) == regions.R2

    def test_sign_matches_work(self):
        e = np.array([0.0, 1.0, 3.0])
        rng = np.random.default_rng(5)
        for p in random_passive_qutrits(rng, 8, min_p=1e-3):
            for m, n in [(2, 3), (3, 4), (4, 3), (7, 3)]:
                out = engine.run_cycle(p, e, m, n)
                if abs(out.work) < 1e-12:
                    continue
                assert regions.in_activation_region(p, e, m, n) == (out.work > 0)

    @pytest.mark.parametrize("e, tied", [
        ([0.0, 0.0, 1.0], [0.4, 0.4, 0.2]), ([0.0, 1.0, 1.0], [0.4, 0.3, 0.3]),
    ], ids=["E0=E1", "E1=E2"])
    def test_rejects_unequal_populations_on_equal_energies(self, e, tied):
        # ordered, but not passive on this ladder: run_cycle refuses the state,
        # and the region test refuses it alone and as any row of a batch
        p = [0.5, 0.3, 0.2]
        with pytest.raises(ValueError) as refused:
            engine.run_cycle(p, e, 1, 1)
        for batch in (p, np.array([p]), np.array([tied, p]), np.array([p, tied])):
            with pytest.raises(ValueError) as exc:
                regions.in_activation_region(batch, e, 1, 1)
            assert str(exc.value) == str(refused.value)
        # equal populations on the equal energies are passive, and answered
        assert regions.in_activation_region(np.array([tied]), e, 1, 1).tolist() == [
            regions.in_activation_region(tied, e, 1, 1)]
        assert regions.in_activation_region(tied, e, 1, 1) == (engine.run_cycle(tied, e, 1, 1).work > 0)

    @pytest.mark.parametrize("m, n", [(-2, 1), (0, 1), (1, 0)])
    def test_rejects_cycle_below_one(self, m, n):
        with pytest.raises(ValueError, match="need m, n >= 1"):
            regions.in_activation_region([0.5, 0.35, 0.15], [0.0, 1.0, 3.0], m, n)


# (M, N) gap ratios; the cycle (M, N) itself is the degenerate m dE10 = n dE21
RATIOS = [(2, 1), (1, 2), (3, 2), (2, 3), (1, 1), (5, 2)]
CYCLES = [(3, 1), (5, 2), (1, 1), (2, 3), (11, 5), (7, 2)]


def _ladder(ratio):
    m_int, n_int = ratio
    return np.array([0.0, n_int, n_int + m_int])


def _edge_states(rng, count, m, n, rel=0.0):
    """Passive states with n ln(p1/p2) (1 - rel) = m ln(p0/p1) up to
    rounding: rel = 0 puts them on the (m, n) cycle's activation edge, and
    rel = R3_TOL with (m, n) = (M, N) on the edge of the R3 band."""
    u = rng.uniform(1.0, 2.0, count)
    l1, l2 = u / m, u / (n * (1.0 - rel))
    p = np.stack([np.exp(l1 + l2), np.exp(l2), np.ones(count)], axis=1)
    return p / p.sum(axis=1, keepdims=True)


def _assert_batch_matches_scalar(batch, ratio, cycles):
    e = _ladder(ratio)
    rgr = regions.RationalGapRatio(*ratio)
    labels = regions.classify(batch, rgr)
    assert labels.shape == (len(batch),)
    assert labels.tolist() == [regions.classify(p, rgr) for p in batch]
    expected = [[regions.in_activation_region(p, e, m, n) for p in batch] for m, n in cycles]
    for (m, n), want in zip(cycles, expected):
        flags = regions.in_activation_region(batch, e, m, n)
        assert flags.dtype == bool and flags.shape == (len(batch),)
        assert flags.tolist() == want
    # the many-cycle form: the same flags, one entry per cycle in order
    assert [f.tolist() for f in regions.activation_flags(batch, e, cycles)] == expected


class TestBatchPredicates:
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 40),
        st.sampled_from(RATIOS), st.sampled_from(CYCLES),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_batch_matches_scalar(self, seed, count, ratio, cycle):
        rng = np.random.default_rng(seed)
        batch = np.vstack([
            np.array(random_passive_qutrits(rng, count, min_p=1e-6)),
            _edge_states(rng, 20, *cycle),
            _edge_states(rng, 20, *ratio, rel=regions.R3_TOL),
        ])
        _assert_batch_matches_scalar(batch, ratio, [cycle, ratio])

    @given(st.integers(10, 400), st.sampled_from(RATIOS), st.sampled_from(CYCLES))
    @settings(max_examples=6, deadline=None)
    def test_grid_matches_scalar(self, resolution, ratio, cycle):
        grid = regions.passive_simplex_grid(resolution)
        _assert_batch_matches_scalar(grid, ratio, [cycle, ratio])

    def test_exact_ties_match_scalar(self):
        # states on an edge up to rounding: one state runs as a batch of one,
        # so each row of a batch gives its one-state answer exactly
        rng = np.random.default_rng(0)
        for m, n in [(7, 2), (3, 1), (2, 3)]:
            ties = _edge_states(rng, 2000, m, n)
            band = _edge_states(rng, 2000, m, n, rel=regions.R3_TOL)
            _assert_batch_matches_scalar(ties, (1, 1), [(m, n)])
            _assert_batch_matches_scalar(band, (m, n), [])

    @pytest.mark.parametrize("batch", [
        [[0.5, 0.35, 0.15], [0.6, 0.4, 0.0]],
        [[0.5, 0.35, 0.15], [0.6, float("nan"), 0.4]],
        [[0.5, 0.35, 0.15], [0.6, 0.3, 0.2]],
        [[0.5, 0.35, 0.15], [0.6, float("inf"), 0.2]],
        [[0.5, 0.3, 0.15, 0.05]],
        [[[0.5, 0.35, 0.15]]],
    ], ids=["zero", "nan", "unnormalized", "inf", "four-columns", "3-d"])
    def test_rejects_bad_batch(self, batch):
        with pytest.raises(ValueError):
            regions.classify(batch, regions.RationalGapRatio(2, 1))
        with pytest.raises(ValueError):
            regions.in_activation_region(batch, [0.0, 1.0, 3.0], 3, 1)


def _fig5_reference(resolution, energies, cycles):
    """fig5's map from the public calls it made before grid_activation."""
    ratio = regions.approximate_gap_ratio(energies)
    grid = regions.passive_simplex_grid(resolution)
    return grid, regions.classify(grid, ratio), regions.activation_flags(grid, energies, cycles)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def fig5_cases(draw):
    """A resolution, a ladder and cycles: random or exact-integer gaps, with
    the degenerate cycle (M, N) among the cycles of an integer ladder; some
    with a bad cycle, a bad resolution or E0 == E1."""
    resolution = draw(st.integers(10, 120))
    cycles = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=4, unique=True))
    if draw(st.booleans()):
        ratio = draw(st.sampled_from(RATIOS))
        energies = _ladder(ratio) * draw(st.sampled_from([1.0, 0.5, 3.0]))
        cycles.insert(draw(st.integers(0, len(cycles))), ratio)
    else:
        g1, g2 = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        energies = [0.0, g1, g1 + g2]
    flaw = draw(st.sampled_from([None, None, None, "cycle", "resolution", "E0=E1"]))
    if flaw == "cycle":
        cycles.insert(draw(st.integers(0, len(cycles))), draw(st.sampled_from([(0, 1), (2, -1), (1.0, 1)])))
    elif flaw == "resolution":
        resolution = draw(st.sampled_from([9, -4, 50.0, True]))
    elif flaw == "E0=E1":
        energies = [0.5, 0.5, 0.5 + draw(st.floats(0.1, 3.0))]
    return resolution, energies, [tuple(c) for c in cycles]


class TestGridActivation:
    @given(fig5_cases())
    @example((20, [0.0, 1.0, 3.0], [(3, 1), (2, 1), (0, 1), (-1, 1)]))
    @example((9, [0.0, 0.0, 1.0], [(0, 1)]))
    @example((30, [0.0, 0.0, 1.0], [(0, 1)]))
    @settings(max_examples=80, deadline=None)
    def test_equals_classify_and_activation_flags(self, case):
        want = _outcome(_fig5_reference, *case)
        got = _outcome(regions.grid_activation, *case)
        if isinstance(want[0], type):  # the same first error
            assert got == want
            return
        (grid, labels, flags), (want_grid, want_labels, want_flags) = got, want
        assert np.array_equal(grid, want_grid) and grid.flags.writeable
        assert labels.dtype == want_labels.dtype and labels.tolist() == want_labels.tolist()
        assert len(flags) == len(want_flags) == len(case[2])
        for f, w in zip(flags, want_flags):
            assert f.dtype == bool and np.array_equal(f, w)

    def test_reads_the_cached_log_ratios(self, monkeypatch):
        # the package's own grid is not checked again, and its logs are the cached ones
        regions._grid_log_ratios(33)
        monkeypatch.setattr(regions, "_log_ratios", None)
        monkeypatch.setattr(states, "passive_qutrit", None)
        grid, labels, (flags,) = regions.grid_activation(33, [0.0, 1.0, 3.0], [(3, 1)])
        assert len(grid) == len(labels) == len(flags)

    def test_builds_the_grid_once_and_returns_a_copy(self, monkeypatch):
        regions._grid_log_ratios.cache_clear()
        built = []
        real_grid = regions.passive_simplex_grid
        monkeypatch.setattr(regions, "passive_simplex_grid", lambda r: built.append(r) or real_grid(r))
        for _ in range(2):
            grid, _, _ = regions.grid_activation(41, [0.0, 1.0, 3.0], [(3, 1)])
            grid[0] = -1.0  # the caller's copy, not the cache's
        assert built == [41]
        assert regions._grid_log_ratios(41)[0][0, 0] > 0


class TestCoverageAgreesWithGridActivation:
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(10, 160), st.sampled_from([1e-3, 0.0, 0.05]),
        st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=4, unique=True),
    )
    @example(2, 1, 60, 1e-3, [(3, 1), (5, 2), (11, 5)])
    @example(4, 4, 37, 0.0, [(8, 1), (1, 8)])
    @settings(max_examples=60, deadline=None)
    def test_coverage_is_the_flagged_share_of_r1(self, big_m, big_n, resolution, eps_band, cycles):
        # on the ladder (0, N, N + M), M dE10 = N dE21 exactly: coverage_fraction
        # is the share of the grid's R1 points that fig5's map flags active
        if (big_m, big_n) not in cycles:
            cycles.append((big_m, big_n))  # the degenerate cycle, which activates nothing
        grid, _, flags = regions.grid_activation(resolution, [0.0, big_n, big_n + big_m], cycles)
        l1, l2 = np.log(grid[:, 0] / grid[:, 1]), np.log(grid[:, 1] / grid[:, 2])
        r1 = big_n * l2 - big_m * l1 > eps_band
        ratio = regions.RationalGapRatio(big_m, big_n)
        for (m, n), active in zip(cycles, flags):
            share = np.count_nonzero(active[r1]) / np.count_nonzero(r1) if r1.any() else 0.0
            assert regions.coverage_fraction(ratio, m, n, resolution, eps_band) == share, (m, n)


class TestCoveringCycle:
    def test_r1_state_gets_activating_cycle(self, worked_example):
        p, _ = worked_example
        e = np.array([0.0, 1.0, 3.0])
        ratio = regions.approximate_gap_ratio(e)
        mn = regions.covering_cycle(p, ratio, n_max=200)
        assert mn is not None
        m, n = mn
        assert regions.in_activation_region(p, e, m, n)
        assert engine.run_cycle(p, e, m, n).work > 0

    def test_r2_state_gets_activating_cycle(self):
        e = np.array([0.0, 2.0, 3.0])
        p = np.array([0.7, 0.16, 0.14])  # l1 >> l2: R2 side
        ratio = regions.approximate_gap_ratio(e)
        assert regions.classify(p, ratio) == regions.R2
        mn = regions.covering_cycle(p, ratio, n_max=400)
        assert mn is not None
        assert engine.run_cycle(p, e, *mn).work > 0

    def test_thermal_raises(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(1.3, e)
        with pytest.raises(ValueError):
            regions.covering_cycle(tau, regions.approximate_gap_ratio(e), n_max=50)


class TestKActivability:
    def test_witness_matches_bruteforce(self, worked_example):
        p, e = worked_example
        for m, n in [(1, 1), (2, 3), (3, 2)]:
            if regions.k_activability_witness(p, e, m, n):
                assert tensor_power_ergotropy(p, e, m + n) > 0

    def test_thermal_never_witnessed(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.9, e)
        for m in range(1, 5):
            for n in range(1, 5):
                assert not regions.k_activability_witness(tau, e, m, n)


@st.composite
def witness_cases(draw):
    """A passive qutrit, a ladder with gaps in [0.1, 3] and a cycle (m, n); half
    the states lie within 1e-14 relative of the edge m ln(p0/p1) = n ln(p1/p2)."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    l2 = draw(st.floats(0.01, 3.0))
    if draw(st.booleans()):
        l1 = n * l2 / m * (1.0 + draw(st.sampled_from([-1e-14, 0.0, 1e-14])))
    else:
        l1 = draw(st.floats(0.0, 3.0))
    p = np.array([math.exp(l1 + l2), math.exp(l2), 1.0])
    g1, g2 = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
    return p / p.sum(), [0.0, g1, g1 + g2], m, n


class TestKActivabilityAgreesWithRegion:
    @given(witness_cases())
    @example((np.array([0.3414426701506819, 0.3339654191285568, 0.3245919107207612]),
              [0.0, 2.191380779738842, 4.253533723148123], 9, 7))
    @settings(max_examples=300, deadline=None)
    def test_witness_equals_region_test(self, case):
        p, e, m, n = case
        assert regions.k_activability_witness(p, e, m, n) == regions.in_activation_region(p, e, m, n)

    @pytest.mark.parametrize("p", [[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [1.0, 0.0, 0.0]])
    def test_zero_entry_is_never_witnessed(self, p):
        # a zero population has no log; the witness pair needs p0, p1, p2 > 0
        for m, n in ((1, 1), (2, 1), (1, 3)):
            assert regions.k_activability_witness(p, [0.0, 3.0, 4.0], m, n) is False


class TestGridAndCoverage:
    def test_grid_points_passive_and_normalized(self):
        grid = regions.passive_simplex_grid(40)
        assert np.all(np.diff(grid, axis=1) <= 0)
        assert np.all(grid > 0)
        assert np.allclose(grid.sum(axis=1), 1.0)

    def test_grid_matches_double_loop(self):
        def loop_grid(resolution):
            pts = []
            for k in range(1, resolution // 3 + 1):
                for j in range(k, (resolution - k) // 2 + 1):
                    pts.append((resolution - j - k, j, k))
            return np.array(pts, dtype=float) / resolution

        for resolution in [*range(10, 151), 400]:
            assert np.array_equal(
                regions.passive_simplex_grid(resolution), loop_grid(resolution)
            ), resolution

    def test_grid_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            regions.passive_simplex_grid(5)

    def test_coverage_improves_along_family(self):
        ratio = regions.RationalGapRatio(2, 1)
        c1 = regions.coverage_fraction(ratio, 3, 1, 60)
        c2 = regions.coverage_fraction(ratio, 5, 2, 60)
        c3 = regions.coverage_fraction(ratio, 11, 5, 60)
        assert c1 <= c2 <= c3
        assert 0 < c1 < 1

    def test_degenerate_cycle_covers_nothing(self):
        # m dE10 == n dE21 extracts nothing anywhere
        ratio = regions.RationalGapRatio(2, 1)
        assert regions.coverage_fraction(ratio, 2, 1, 40) == 0.0

    def test_numpy_integer_ratio_does_not_wrap(self):
        # M N products past 2**63 wrap in int64 but not in Python ints
        big, three = np.int64(2**62), np.int64(3)
        ratio = regions.RationalGapRatio(big, three)
        assert type(ratio.m_int) is int and type(ratio.n_int) is int
        assert regions.coverage_fraction(ratio, 5, 4, 20) == 0.0
        assert regions.coverage_fraction(regions.RationalGapRatio(three, big), 4, 5, 20) == (
            regions.coverage_fraction(regions.RationalGapRatio(3, 2**62), 4, 5, 20))
        assert regions.covering_cycle([0.4, 0.4, 0.2], ratio, 10) == (2**62 + 1, 3)

    def test_numpy_integer_cycle_does_not_wrap(self):
        ratio = regions.RationalGapRatio(1, 3)
        assert regions.coverage_fraction(ratio, np.int64(2**62), np.int64(3), 20) == (
            regions.coverage_fraction(ratio, 2**62, 3, 20))

    @pytest.mark.parametrize("m, n", [(0, 1), (1, -1)])
    def test_coverage_rejects_cycle_below_one(self, m, n):
        with pytest.raises(ValueError, match="need m, n >= 1"):
            regions.coverage_fraction(regions.RationalGapRatio(2, 1), m, n, 20)


class TestGridLogRatioCache:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        regions._grid_log_ratios.cache_clear()
        regions._r1_log_ratios.cache_clear()

    def test_read_only_and_equal_to_fresh_logs(self):
        for resolution in (10, 37, 90, 401):
            grid = regions.passive_simplex_grid(resolution)
            fresh1, fresh2 = np.log(grid[:, 0] / grid[:, 1]), np.log(grid[:, 1] / grid[:, 2])
            cached, l1, l2 = regions._grid_log_ratios(resolution)
            assert np.array_equal(cached, grid)
            assert np.array_equal(l1, fresh1) and np.array_equal(l2, fresh2)
            logs = [cached, l1, l2]
            for big_m, big_n, eps_band in ((2, 1, 1e-3), (1, 3, 0.0), (3, 2, 0.05)):
                r1 = big_n * fresh2 - big_m * fresh1 > eps_band
                s1, s2 = regions._r1_log_ratios(resolution, big_m, big_n, eps_band)
                assert s1.size and np.array_equal(s1, fresh1[r1]) and np.array_equal(s2, fresh2[r1])
                logs += [s1, s2]
            for arr in logs:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0

    def test_grid_built_once_per_resolution(self, monkeypatch):
        """The grid once per resolution; each R1 subset once per (resolution, M, N, eps_band)."""
        built, masked = Counter(), Counter()  # grids, and R1 subsets, per resolution
        real_grid, real_logs = regions.passive_simplex_grid, regions._grid_log_ratios

        def counted_grid(resolution):
            built[resolution] += 1
            return real_grid(resolution)

        def counted_logs(resolution):  # one call per R1 subset built
            masked[resolution] += 1
            return real_logs(resolution)

        monkeypatch.setattr(regions, "passive_simplex_grid", counted_grid)
        monkeypatch.setattr(regions, "_grid_log_ratios", counted_logs)
        # three families, the first also at a wider band and as numpy integers,
        # which key as Python ints: four R1 subsets per resolution
        keys = [((2, 1), 1e-3), ((1, 3), 1e-3), ((3, 2), 1e-3), ((2, 1), 0.05),
                ((np.int64(2), np.int64(1)), 1e-3)]
        for _ in range(3):
            for resolution in (40, 41):
                for (big_m, big_n), eps_band in keys:
                    ratio = regions.RationalGapRatio(big_m, big_n)
                    for m, n in [(3, 1), (5, 2), (2, 1)]:
                        regions.coverage_fraction(ratio, m, n, resolution, eps_band)
            with pytest.raises(ValueError, match="resolution >= 10"):
                regions.coverage_fraction(regions.RationalGapRatio(2, 1), 3, 1, 9)
        # a resolution below 10 raises, and is tried again, on every call
        assert built == {40: 1, 41: 1, 9: 3}
        assert masked == {40: 4, 41: 4, 9: 3}

    def test_simplex_grid_stays_fresh_and_writable(self):
        regions.coverage_fraction(regions.RationalGapRatio(2, 1), 3, 1, 30)
        grid = regions.passive_simplex_grid(30)
        assert grid.flags.writeable
        grid[0] = -1.0
        assert regions.passive_simplex_grid(30)[0, 0] > 0

    @pytest.mark.parametrize("ratio", [(2, 1), (1, 2), (3, 2), (1, 1)])
    def test_coverage_equals_direct_count(self, ratio):
        """The fraction counted over a fresh grid, side by side on the lever's sign."""
        big_m, big_n = ratio
        grid = regions.passive_simplex_grid(57)
        l1 = np.log(grid[:, 0] / grid[:, 1])
        l2 = np.log(grid[:, 1] / grid[:, 2])
        for eps_band in (1e-3, 0.05):
            r1 = big_n * l2 - big_m * l1 > eps_band
            for m in range(1, 7):
                for n in range(1, 7):
                    gap = n * l2[r1] - m * l1[r1]
                    lever = m * big_n - n * big_m
                    act = np.count_nonzero(gap > 0 if lever > 0 else gap < 0) if lever else 0
                    expected = act / np.count_nonzero(r1) if r1.any() else 0.0
                    got = regions.coverage_fraction(
                        regions.RationalGapRatio(*ratio), m, n, 57, eps_band
                    )
                    assert got == expected, (m, n, eps_band)


if __name__ == "__main__":
    # the coverage and fig5 costs, to compare two trees:
    # PYTHONPATH=src python -m tests.test_regions
    import argparse
    import contextlib
    import io
    import itertools
    import os
    import tempfile
    import timeit

    from swapengine import cli

    def best_us(fn, number):
        return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6

    ratio = regions.RationalGapRatio(2, 1)
    regions.coverage_fraction(ratio, 3, 1, 400)
    fresh = (regions.RationalGapRatio(k + 1, k) for k in itertools.count(1))  # a new ratio per call

    def cold():
        regions._grid_log_ratios.cache_clear()
        regions.coverage_fraction(next(fresh), 3, 1, 400)

    print("coverage_fraction at resolution 400, time per call (best of 5)")
    print(f"family hit: {best_us(lambda: regions.coverage_fraction(ratio, 5, 2, 400), 2000):.1f} us")
    print(f"new ratio, cached resolution: "
          f"{best_us(lambda: regions.coverage_fraction(next(fresh), 3, 1, 400), 500):.1f} us")
    print(f"cold: {best_us(cold, 50):.1f} us")
    p, e = [0.5, 0.35, 0.15], [0.0, 3.0, 4.0]
    print("one state, the worked example at (3, 1), time per call (best of 5)")
    print(f"in_activation_region: {best_us(lambda: regions.in_activation_region(p, e, 3, 1), 5000):.1f} us")
    print(f"k_activability_witness: {best_us(lambda: regions.k_activability_witness(p, e, 3, 1), 5000):.1f} us")
    print("cli.main fig5 --energies 0,1,3 in-process, time per run (best of 5)")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fig5.csv")
        for grid, number in ((30, 200), (90, 50), (400, 5)):
            argv = ["fig5", "--energies", "0,1,3", "--grid", str(grid), "--out", path]
            print(f"grid {grid}: {best_us(lambda: cli.main(argv), number) / 1e3:.2f} ms")
        argv = ["fig5", "--energies", "0,1,3", "--grid", "90", "--out", path]

        def cold_fig5():  # one run per process: the grid's cache starts empty
            regions._grid_log_ratios.cache_clear()
            cli.main(argv)

        print(f"grid 90, cold cache: {best_us(cold_fig5, 50) / 1e3:.2f} ms")

        # the grid-90 run's phases, each as cmd_fig5 runs it
        argv = ["fig5", "--energies", "0,1,3", "--grid", "90", "--out", path]
        args = cli._PARSER.parse_args(argv)
        cycles = [(3, 1), (5, 2), (11, 5)]
        grid, labels, flags = regions.grid_activation(90, args.energies, cycles)
        cols = [*grid.T, labels, *flags]
        header = ["p0", "p1", "p2", "region"] + [f"active_{m}_{n}" for m, n in cycles]
        config = cli._config_dict(args, cycles=[list(c) for c in cycles])
        to_memory = argparse.Namespace(format="csv", out=None)

        def text():
            with contextlib.redirect_stdout(io.StringIO()):
                cli._emit(cols, header, to_memory, config)

        with contextlib.redirect_stdout(io.StringIO()) as buf:
            cli._emit(cols, header, to_memory, config)

        def write():
            with open(path, "w") as fh:
                fh.write(buf.getvalue())

        phases = {
            "parse": lambda: cli._PARSER.parse_args(argv),
            "grid map": lambda: regions.grid_activation(90, args.energies, cycles),
            "CSV text": text,
            "write": write,
        }
        print("grid 90 phases: " + ", ".join(f"{name} {best_us(fn, 200):.0f} us" for name, fn in phases.items()))
