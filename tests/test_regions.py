import math

import numpy as np
import pytest

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


class TestClassification:
    def test_worked_example_in_r1(self, worked_example):
        p, e = worked_example
        assert regions.classify(p, regions.approximate_gap_ratio(e)) == regions.R1

    def test_thermal_in_r3(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.8, e)
        assert regions.classify(tau, regions.approximate_gap_ratio(e)) == regions.R3

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

    @pytest.mark.parametrize("m, n", [(-2, 1), (0, 1), (1, 0)])
    def test_rejects_cycle_below_one(self, m, n):
        with pytest.raises(ValueError, match="need m, n >= 1"):
            regions.in_activation_region([0.5, 0.35, 0.15], [0.0, 1.0, 3.0], m, n)


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


class TestGridAndCoverage:
    def test_grid_points_passive_and_normalized(self):
        grid = regions.passive_simplex_grid(40)
        assert np.all(np.diff(grid, axis=1) <= 0)
        assert np.all(grid > 0)
        assert np.allclose(grid.sum(axis=1), 1.0)

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

    @pytest.mark.parametrize("m, n", [(0, 1), (1, -1)])
    def test_coverage_rejects_cycle_below_one(self, m, n):
        with pytest.raises(ValueError, match="need m, n >= 1"):
            regions.coverage_fraction(regions.RationalGapRatio(2, 1), m, n, 20)
