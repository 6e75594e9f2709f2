import math

import numpy as np
import pytest

from swapengine import quasistatic, states


class TestAlphaRange:
    def test_worked_example_bounds(self, worked_example):
        p, e = worked_example
        rng = quasistatic.alpha_range(p, e)
        assert rng.lower == pytest.approx(math.log(10 / 7) / math.log(7 / 3), abs=1e-9)
        assert rng.lower == pytest.approx(0.420955, abs=1e-6)
        assert rng.upper == 3.0
        assert 1.0 in rng
        assert 3.0 not in rng

    def test_thermal_state_empty_range(self):
        e = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            quasistatic.alpha_range(states.thermal_state(0.8, e), e)

    def test_matched_ratios_empty_range(self):
        # p0/p1 == p1/p2 with equal gaps: both bounds are 1
        p = np.array([4.0, 2.0, 1.0]) / 7.0
        with pytest.raises(ValueError):
            quasistatic.alpha_range(p, [0.0, 1.0, 2.0])


class TestAsymptoticMachine:
    def test_mixture_weight_formula(self):
        # p0/p1 = 10/7, p1/p2 = 2 -> lam = 0.5/0.65
        p = np.array([10 / 7, 1.0, 0.5])
        p /= p.sum()
        e = np.array([0.0, 3.0, 4.0])
        am = quasistatic.asymptotic_machine(p, e, 60, quasistatic.alpha_range(p, e).midpoint())
        assert am.mixture_weight == pytest.approx(0.5 / 0.65, abs=1e-12)

    def test_weight_tends_to_one_for_cold_tail(self):
        # p2/p1 -> 0 means beta_cold -> inf and lam -> 1
        p = np.array([0.55, 0.4495, 0.0005])
        e = np.array([0.0, 0.2, 1.0])
        am = quasistatic.asymptotic_machine(p, e, 60, quasistatic.alpha_range(p, e).midpoint())
        assert am.mixture_weight > 0.999

    def test_distribution_normalized(self, worked_example):
        p, e = worked_example
        am = quasistatic.asymptotic_machine(p, e, 80, 1.5)
        q = am.distribution()
        assert q.size == am.m + am.n
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q >= 0)

    def test_out_of_range_alpha_rejected(self, worked_example):
        p, e = worked_example
        with pytest.raises(ValueError):
            quasistatic.asymptotic_machine(p, e, 60, 5.0)


class TestPrefactor:
    def test_hand_value(self, worked_example):
        p, _ = worked_example
        c = quasistatic.asymptotic_delta_p_prefactor(p)
        assert c == pytest.approx((0.2**2 * 0.15**2) / (0.35 * 0.35**2), abs=1e-12)
        assert c == pytest.approx(0.0209913, abs=1e-6)

    def test_degenerate_ordering_rejected(self):
        with pytest.raises(ValueError):
            quasistatic.asymptotic_delta_p_prefactor([0.4, 0.3, 0.3])


class TestTrajectories:
    def test_energy_strategy_conserves_energy(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "energy")
        e0 = states.mean_energy(p, e)
        for _, y, pt in traj.samples:
            assert abs(pt.energy - e0) <= 1e-8
        assert abs(traj.accumulated_work) <= 1e-12
        assert traj.endpoint_beta == pytest.approx(
            states.beta_from_energy(e0, e), abs=1e-6
        )

    def test_entropy_strategy_conserves_entropy(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "entropy")
        s0 = states.entropy(p)
        for _, y, pt in traj.samples:
            assert abs(pt.entropy - s0) <= 1e-8
        assert traj.endpoint_beta == pytest.approx(
            states.beta_from_entropy(s0, e), abs=1e-6
        )
        assert traj.accumulated_work == pytest.approx(
            quasistatic.optimal_work(p, e), abs=1e-6
        )

    def test_monotone_flow(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "entropy")
        p0s = np.array([y[0] for _, y, _ in traj.samples])
        p1s = np.array([y[1] for _, y, _ in traj.samples])
        ts = np.array([t for t, _, _ in traj.samples])
        assert np.all(np.diff(p0s) > 0)
        assert np.all(np.diff(p1s) < 0)
        assert np.all(np.diff(ts) > 0)

    def test_endpoint_dominated_by_start(self, worked_example):
        # any admissible strategy: energy down, entropy up
        p, e = worked_example
        mid = quasistatic.alpha_range(p, e).midpoint()
        traj = quasistatic.integrate_trajectory(p, e, mid)
        final = traj.final_state
        assert states.mean_energy(final, e) <= states.mean_energy(p, e) + 1e-12
        assert states.entropy(final) >= states.entropy(p) - 1e-12

    def test_interior_alpha_work_between_extremes(self, worked_example):
        p, e = worked_example
        mid = quasistatic.alpha_range(p, e).midpoint()
        traj = quasistatic.integrate_trajectory(p, e, mid)
        assert 0 < traj.accumulated_work < quasistatic.optimal_work(p, e)

    def test_thermal_start_is_single_sample(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.9, e)
        traj = quasistatic.integrate_trajectory(tau, e, "entropy")
        assert len(traj.samples) == 1
        assert traj.accumulated_work == 0.0

    def test_wrong_side_of_manifold_rejected(self):
        e = np.array([0.0, 3.0, 4.0])
        p = np.array([0.9, 0.052, 0.048])  # R2 side: flow undefined
        with pytest.raises(ValueError):
            quasistatic.integrate_trajectory(p, e, "entropy")

    def test_callable_strategy_matches_constant(self, worked_example):
        p, e = worked_example
        mid = quasistatic.alpha_range(p, e).midpoint()
        t1 = quasistatic.integrate_trajectory(p, e, mid)
        t2 = quasistatic.integrate_trajectory(p, e, lambda y: mid)
        # one stepper: the two runs do the same arithmetic
        assert len(t1.samples) == len(t2.samples)
        assert t1.accumulated_work == t2.accumulated_work
        for (s1, y1, _), (s2, y2, _) in zip(t1.samples, t2.samples):
            assert s1 == s2
            assert np.array_equal(y1, y2)

    def test_upper_edge_alpha_is_energy_strategy(self, worked_example):
        p, e = worked_example
        upper = quasistatic.alpha_range(p, e).upper
        t1 = quasistatic.integrate_trajectory(p, e, upper)
        t2 = quasistatic.integrate_trajectory(p, e, "energy")
        assert t1.accumulated_work == t2.accumulated_work
        assert all(
            np.array_equal(y1, y2) for (_, y1, _), (_, y2, _) in zip(t1.samples, t2.samples)
        )

    @pytest.mark.parametrize("alpha", [-0.5, 5.0])
    def test_out_of_window_alpha_rejected(self, worked_example, alpha):
        # outside the window the flow would report work above optimal_work
        # (alpha = -0.5) or negative work (5.0)
        p, e = worked_example
        with pytest.raises(ValueError, match=r"outside admissible range \[0\.42"):
            quasistatic.integrate_trajectory(p, e, alpha)

    def test_thermal_start_ignores_alpha_window(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.9, e)
        traj = quasistatic.integrate_trajectory(tau, e, 5.0)
        assert len(traj.samples) == 1

    def test_stalled_trajectory_raises(self, worked_example):
        # alpha < 0 pushes p1 up until no step stays passive; the endpoint
        # there is not thermal and its work exceeds optimal_work
        p, e = worked_example
        with pytest.raises(RuntimeError, match="stalled"):
            quasistatic.integrate_trajectory(p, e, lambda y: -0.5)


class TestOptimalWorkAndCarnot:
    def test_thermal_gives_zero(self):
        e = np.array([0.0, 1.0, 3.0])
        assert quasistatic.optimal_work(states.thermal_state(1.2, e), e) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_uniform_gives_zero(self):
        e = np.array([0.0, 1.0, 3.0])
        assert quasistatic.optimal_work(np.full(3, 1 / 3), e) == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("p, e", [
        ([0.5, 0.35, 0.15], [0.0, 3.0, float("inf")]),
        ([0.5, 0.35, 0.15], [0.0, float("nan"), 4.0]),
        ([0.5, 0.35, float("nan")], [0.0, 3.0, 4.0]),
    ])
    def test_rejects_non_finite_input(self, p, e):
        with pytest.raises(ValueError):
            quasistatic.optimal_work(p, e)

    def test_worked_example_positive(self, worked_example):
        p, e = worked_example
        w = quasistatic.optimal_work(p, e)
        assert w > 0
        beta_max = states.beta_from_entropy(states.entropy(p), e)
        tau = states.thermal_state(beta_max, e)
        assert w == pytest.approx(1.65 - states.mean_energy(tau, e), abs=1e-12)

    def test_carnot_identity(self, worked_example):
        p, e = worked_example
        assert quasistatic.carnot_check(p, e) <= 1e-12
