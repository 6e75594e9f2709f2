import inspect
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import _kernels, engine, quasistatic, states


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

    def test_equal_cold_pair_empty_range(self):
        # ln(p1/p2) = 0 puts the lower bound at +inf
        p = [0.4, 0.3, 0.3]
        with pytest.raises(ValueError, match="empty alpha range"):
            quasistatic.alpha_range(p, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="empty alpha range"):
            quasistatic.asymptotic_machine(p, [0.0, 1.0, 2.0], 10, 1.0)


    def test_log_ratio_past_the_float_range(self):
        # p1/p2 overflows: the lower edge is ln 1.5 / (ln 0.4 - ln 5e-324), not ln 1.5 / inf
        rng = quasistatic.alpha_range([0.6, 0.4, 5e-324], [0.0, 1.0, 2.0])
        l2 = math.log(0.4) - math.log(5e-324)
        assert rng.lower == pytest.approx(math.log(1.5) / l2, rel=1e-15)
        assert rng.lower == pytest.approx(5.45e-4, rel=1e-3)

    @pytest.mark.parametrize("call", [
        lambda p, e: quasistatic.alpha_range(p, e),
        lambda p, e: quasistatic.asymptotic_machine(p, e, 10, 0.5),
        lambda p, e: quasistatic.integrate_trajectory(p, e, "entropy"),
        lambda p, e: quasistatic.integrate_trajectory(p, e, "energy"),
    ], ids=["alpha_range", "asymptotic_machine", "trajectory_entropy", "trajectory_energy"])
    def test_equal_upper_levels_rejected_without_warning(self, call):
        # E1 == E2 leaves dE10/dE21 undefined, and (0.5, 0.3, 0.2) is not
        # passive on that ladder; every flow function checks the ladder
        # first, so a state that is not passive at all gets the same message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ([0.5, 0.3, 0.2], [0.3, 0.5, 0.2]):
                with pytest.raises(ValueError, match="^need E2 > E1: the gap ratio dE10/dE21 is undefined$"):
                    call(p, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("call", [
        lambda p, e: quasistatic.alpha_range(p, e),
        lambda p, e: quasistatic.asymptotic_machine(p, e, 10, 0.5),
        lambda p, e: quasistatic.integrate_trajectory(p, e, "entropy"),
        lambda p, e: quasistatic.carnot_check(p, e),
    ], ids=["alpha_range", "asymptotic_machine", "integrate_trajectory", "carnot_check"])
    def test_unequal_populations_on_equal_energies_rejected(self, call):
        # E0 == E1: (0.5, 0.3, 0.2) is not passive on that ladder, as run_cycle says
        with pytest.raises(ValueError, match="^state is not passive: equal energies need equal populations$"):
            call([0.5, 0.3, 0.2], [0.0, 0.0, 1.0])

    def test_tied_populations_on_equal_energies_accepted(self):
        # passive on E0 == E1 and thermal on it: no admissible ratio, and a flow of one sample
        tied, e = [0.4, 0.4, 0.2], [0.0, 0.0, 1.0]
        for call in (quasistatic.alpha_range, lambda p, e: quasistatic.asymptotic_machine(p, e, 10, 0.5)):
            with pytest.raises(ValueError, match="^empty alpha range"):
                call(tied, e)
        assert len(quasistatic.integrate_trajectory(tied, e, "entropy").samples) == 1
        assert quasistatic.carnot_check(tied, e) == 0.0


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

    def test_equal_hot_pair_sums_term_count(self):
        # p0 == p1: hot ratio exactly 1, window (0, 1); z_hot is m, not 0/0
        am = quasistatic.asymptotic_machine([0.4, 0.4, 0.2], [0.0, 1.0, 2.0], 8, 0.5)
        assert am.hot_ratio == 1.0
        assert am.z_hot == 8.0
        assert am.distribution().sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p, e, m", [
        ([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 100_000),
        ([0.4, 0.4, 0.2], [0.0, 1.0, 2.0], 5_000),  # p0 == p1: ln(p1/p0) = 0
    ], ids=["worked_example", "equal_hot_pair"])
    def test_sums_are_table_entries_and_keep_no_table(self, monkeypatch, p, e, m):
        # each sum is one entry of its factor's table, built alone: the call
        # leaves the closed form's shared tables as it found them
        monkeypatch.setattr(engine, "_SUMS", {})
        engine.run_cycle(p, e, 3, 4)
        kept = {k: list(v) for k, v in engine._SUMS.items()}
        am = quasistatic.asymptotic_machine(p, e, m, quasistatic.alpha_range(p, e).midpoint())
        assert engine._SUMS == kept
        hot = engine._geometric_sums(m + 1, math.log(am.hot_ratio))[m]
        cold = engine._geometric_sums(am.n - 1, math.log(am.cold_ratio))[am.n - 2]
        assert (am.z_hot.hex(), am.z_cold.hex()) == (hot.hex(), cold.hex())

    def test_empty_cold_tail_rejected(self, worked_example):
        # ceil(0.5 * 4) = 2 leaves no cold level: the distribution would sum
        # to the mixture weight
        p, e = worked_example
        with pytest.raises(ValueError, match="n=2"):
            quasistatic.asymptotic_machine(p, e, 4, 0.5)


class TestPrefactor:
    def test_hand_value(self, worked_example):
        p, _ = worked_example
        c = quasistatic.asymptotic_delta_p_prefactor(p)
        assert c == pytest.approx((0.2**2 * 0.15**2) / (0.35 * 0.35**2), abs=1e-12)
        assert c == pytest.approx(0.0209913, abs=1e-6)
        assert type(c) is float

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

    def test_scalar_fields_are_python_floats(self, worked_example):
        traj = quasistatic.integrate_trajectory(*worked_example, "entropy")
        assert type(traj.accumulated_work) is float
        assert type(traj.accumulated_heat_hot) is float
        assert type(traj.endpoint_beta) is float

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

    @pytest.mark.parametrize("strategy", ["entropy", "energy", lambda y: 0.5])
    def test_flow_fixed_point_rejected(self, strategy):
        # p0 == p1 off the manifold: dp0/dt = 0, so no step would move it
        with pytest.raises(ValueError, match="fixed point"):
            quasistatic.integrate_trajectory([0.4, 0.4, 0.2], [0.0, 1.0, 2.0], strategy)

    def test_callable_strategy_matches_constant(self, worked_example):
        # at alpha = dE10/dE21 a number and a callable both stop on the
        # thermal manifold
        p, e = worked_example
        upper = quasistatic.alpha_range(p, e).upper
        t1 = quasistatic.integrate_trajectory(p, e, upper)
        t2 = quasistatic.integrate_trajectory(p, e, lambda y: upper)
        # one stepper: the two runs do the same arithmetic
        assert len(t1.samples) == len(t2.samples)
        assert t1.accumulated_work == t2.accumulated_work
        for (s1, y1, _), (s2, y2, _) in zip(t1.samples, t2.samples):
            assert s1 == s2
            assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("whole", [1, np.int64(1)])
    def test_whole_number_strategy_is_its_float(self, worked_example, whole):
        p, e = worked_example
        t1 = quasistatic.integrate_trajectory(p, e, whole)
        t2 = quasistatic.integrate_trajectory(p, e, 1.0)
        assert (t1.accumulated_work, t1.accumulated_heat_hot, t1.endpoint_beta) == (
            t2.accumulated_work, t2.accumulated_heat_hot, t2.endpoint_beta)
        assert len(t1.samples) == len(t2.samples)
        for (s1, y1, pt1), (s2, y2, pt2) in zip(t1.samples, t2.samples):
            assert (s1, pt1) == (s2, pt2)
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

    # exact roots on the line p + s (1, -(1 + alpha), alpha) of the worked example
    @pytest.mark.parametrize("alpha, work", [
        (0.43, 0.00216845595199364), (0.9, 0.0472945944575119), (1.71, 0.0331946271560501),
        (2.5, 0.0114392021556008), (2.9, 0.00213199685917795),
    ])
    def test_constant_alpha_stops_at_the_neutral_curve(self, worked_example, alpha, work):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, alpha)
        entropies = [pt.entropy for _, _, pt in traj.samples]
        assert np.all(np.diff(entropies) >= -1e-8)
        assert abs(traj.accumulated_work - work) <= 1e-12
        p0, p1, p2 = traj.final_state
        assert abs(alpha * math.log(p1 / p2) - math.log(p0 / p1)) <= _kernels.TERMINATION_TOL

    def test_thermal_start_ignores_alpha_window(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.9, e)
        traj = quasistatic.integrate_trajectory(tau, e, 5.0)
        assert len(traj.samples) == 1

    def test_thermal_start_below_the_window_is_single_sample(self):
        # the uniform state on E0 == E1 is thermal; the stepper carries p2 as
        # 1 - p0 - p1, an ulp above p1, and alpha's neutral curve at ratio
        # -300240 put that start off the passive set and past TERMINATION_TOL
        traj = quasistatic.integrate_trajectory(np.full(3, 1 / 3), [0.0, 0.0, 1.0], -300240.0)
        assert len(traj.samples) == 1
        assert traj.accumulated_work == 0.0

    def test_stalled_trajectory_raises(self, worked_example):
        # alpha < 0 pushes p1 up until no step stays passive; the endpoint
        # there is not thermal and its work exceeds optimal_work
        p, e = worked_example
        with pytest.raises(RuntimeError, match=(
            r"^trajectory stalled at t=[0-9.]+: no step keeps the state passive "
            "and on the work-extracting side of the thermal manifold$"
        )):
            quasistatic.integrate_trajectory(p, e, lambda y: -0.5)

    def test_step_budget_is_max_steps(self, worked_example):
        # the worked example takes 47 accepted steps at the default step
        assert len(quasistatic.integrate_trajectory(*worked_example, "entropy", max_steps=47).samples) == 48
        for max_steps in (1, 46):
            with pytest.raises(RuntimeError, match=f"^no convergence within {max_steps} steps$"):
                quasistatic.integrate_trajectory(*worked_example, "entropy", max_steps=max_steps)

    def test_core_raises_its_own_errors(self, worked_example):
        p, e = worked_example
        with pytest.raises(RuntimeError, match="^no convergence within 1 steps$"):
            _kernels.trajectory_core(p[0], p[1], 3.0, lambda *y: 1.0, 0.05, 1)
        with pytest.raises(RuntimeError, match="^trajectory stalled at t="):
            _kernels.trajectory_core(p[0], p[1], 3.0, lambda *y: -0.5, 0.05, 200_000)

    def test_p2_the_stepper_cannot_represent_rejected(self, worked_example):
        # 1 - p0 - p1, the stepper's p2, is ~9e-18 here, not the state's 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^p2 = 4.94e-324 is below the float resolution"):
                quasistatic.integrate_trajectory([1 - 1e-15, 9.9e-16, 5e-324], worked_example[1], "entropy")


    @pytest.mark.parametrize("kwargs, name", [
        ({"step": float("inf")}, "step"),  # halving inf never ends
        ({"step": float("nan")}, "step"),
        ({"max_steps": -1}, "max_steps"),
    ])
    def test_rejects_bad_step_settings(self, worked_example, kwargs, name):
        p, e = worked_example
        with pytest.raises(ValueError, match=f"^{name} must be"):
            quasistatic.integrate_trajectory(p, e, "entropy", **kwargs)


def _assert_samples_are_diagram_points(traj, e):
    for _, y, pt in traj.samples:
        assert pt == states.diagram_point(y, e)


class TestSampleObservables:
    """integrate_trajectory computes every sample's observables in one pass;
    states.diagram_point on the sample's state is the definition."""

    @pytest.mark.parametrize("strategy", ["entropy", "energy", 1.71, "callable"])
    def test_worked_example_matches_diagram_point(self, worked_example, strategy):
        p, e = worked_example
        if strategy == "callable":
            def strategy(y):
                return 0.5 * (math.log(y[0] / y[1]) / math.log(y[1] / y[2]) + 3.0)
        traj = quasistatic.integrate_trajectory(p, e, strategy)
        assert len(traj.samples) > 10
        _assert_samples_are_diagram_points(traj, e)

    @given(
        st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(1.2, 4.0),
        st.sampled_from(["entropy", "energy", 0.1, 0.5, 0.9]),
    )
    @settings(max_examples=25, deadline=None)
    def test_in_window_states_match_diagram_point(self, l1, l2, factor, strategy):
        # ln(p0/p1) = l1, ln(p1/p2) = l2 and dE10/dE21 = factor * l1/l2, so
        # the window is (l1/l2, factor * l1/l2); a float is a share of it
        w = np.array([math.exp(l1 + l2), math.exp(l2), 1.0])
        p = w / w.sum()
        e = np.array([0.0, factor * l1 / l2, factor * l1 / l2 + 1.0])
        if isinstance(strategy, float):
            rng = quasistatic.alpha_range(p, e)
            strategy = rng.lower + strategy * (rng.upper - rng.lower)
        traj = quasistatic.integrate_trajectory(p, e, strategy)
        _assert_samples_are_diagram_points(traj, e)

    def test_sample_states_are_independent(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "entropy")
        before = [y.copy() for _, y, _ in traj.samples]
        traj.samples[1][1][:] = -1.0
        for i, (_, y, _) in enumerate(traj.samples):
            if i != 1:
                assert np.array_equal(y, before[i])

    def test_callable_evaluated_once_per_step_start(self, worked_example):
        # the first RK4 stage sits at the step's start whatever the step
        # size, so a second trial size must not evaluate the strategy there
        # again. Short steps are skipped: there the previous step's last
        # stage, at its start + h k3, can round onto this step's start.
        p, e = worked_example
        seen = []

        def strategy(y):
            seen.append(tuple(y))
            return 1.71

        step = 0.5
        traj = quasistatic.integrate_trajectory(p, e, strategy, step=step)
        ts = [t for t, _, _ in traj.samples]
        starts = [
            tuple(y) for (t, y, _), t_next in zip(traj.samples, ts[1:])
            if t_next - t >= 1e-3
        ]
        assert ts[-1] - ts[-2] < step  # the last step tried more than one size
        assert len(starts) > 3
        assert all(seen.count(y) == 1 for y in starts)


def _restarting_run(p0, p1, ratio, alpha, step):
    """The stepper without step-size memory: trajectory_core with the
    module's min(step, 2 h_last) pinned to step, so every step starts at
    the full step. Returns the path (ts, states) as trajectory_core does."""
    with mock.patch.object(_kernels, "min", lambda step, _: step, create=True):
        return _kernels.trajectory_core(p0, p1, ratio, alpha, step, 200_000)


class TestStepSizeMemory:
    """Each step starts at min(step, 2 h_last) rather than at step. While its
    trials leave the passive set it halves through the same sizes step / 2**k,
    skipping only those above twice the last accepted one, and the step that
    overshoots the stop curve brackets its size from the first trial that
    overshoots. So it takes the same steps wherever no accepted size would
    grow by two or more halvings at once and both runs first overshoot at
    the same size."""

    @given(
        st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(1.2, 4.0),
        st.sampled_from(["entropy", "energy", "float", "tracking"]),
        st.floats(0.0, 1.0), st.sampled_from([0.05, 0.02, 0.2]),
    )
    @example(1.04, 0.06, 3.92, "energy", 0.0, 0.2)  # an accepted size grows back
    @settings(max_examples=200, deadline=None)
    def test_same_trajectory_as_restarting_every_step(self, l1, l2, factor, kind, u, step):
        # ln(p0/p1) = l1, ln(p1/p2) = l2 and dE10/dE21 = factor * l1/l2, so
        # the window is (l1/l2, factor * l1/l2) and u is a share of it
        w = np.array([math.exp(l1 + l2), math.exp(l2), 1.0])
        p = w / w.sum()
        de10, de21 = factor * l1 / l2, 1.0
        upper = de10 / de21
        if kind == "entropy":
            def alpha(p0, p1, p2):
                return math.log(p0 / p1) / math.log(p1 / p2)
        elif kind == "tracking":
            def alpha(p0, p1, p2):
                lower = math.log(p0 / p1) / math.log(p1 / p2)
                return lower + u * (upper - lower)
        else:
            const = upper if kind == "energy" else l1 / l2 + u * (upper - l1 / l2)

            def alpha(p0, p1, p2):
                return const
        ts, ps = _kernels.trajectory_core(p[0], p[1], upper, alpha, step, 200_000)
        assert _kernels._r3_gap(*ps[-1], upper) <= quasistatic.TERMINATION_TOL
        ref_ts, ref_ps = _restarting_run(p[0], p[1], upper, alpha, step)
        assert len(ts) == len(ref_ts)
        assert ts == ref_ts
        assert np.array_equal(ps, ref_ps)

    def test_worked_example_flow_rate_evaluations(self, worked_example, monkeypatch):
        # 203 evaluations for 47 steps, as many as when every step restarts
        # at step: here only the last step, which lands on the curve, tries
        # more than one size
        calls = []
        real = _kernels._flow_rate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_kernels, "_flow_rate", counted)
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "entropy", step=0.05)
        assert len(traj.samples) == 48
        assert len(calls) <= 220


def _line_hits(fn, marker, call):
    """call()'s result and how often it runs fn's line that contains marker."""
    lines, first = inspect.getsourcelines(fn)
    target = first + next(i for i, line in enumerate(lines) if marker in line)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(target)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, len(hits)


class TestCollapsedBracket:
    def test_lands_on_the_short_end_when_the_bracket_collapses(self, worked_example):
        # alpha jumps from 1.2 to 2.9 at p0 = 0.5418, so a step's end gap jumps
        # with its size: the bracket shrinks below step * 1e-14 with no trial
        # in [0, TERMINATION_TOL], the step is the bracket's short end, and the
        # flow still ends on the manifold
        p, e = worked_example
        traj, hits = _line_hits(
            _kernels.trajectory_core, "h, (n0, n1, n2, g) = lo, lo_end",
            lambda: quasistatic.integrate_trajectory(p, e, lambda y: 1.2 if y[0] < 0.5418 else 2.9),
        )
        assert hits == 1
        assert 0.0 <= _kernels._r3_gap(*traj.final_state, e[1] / (e[2] - e[1])) <= quasistatic.TERMINATION_TOL
        p0 = [y[0] for _, y, _ in traj.samples]
        assert all(a < b for a, b in zip(p0, p0[1:]))
        assert all(y[0] >= y[1] > y[2] > 0.0 for _, y, _ in traj.samples)
        assert traj.accumulated_work <= quasistatic.optimal_work(p, e)


class TestStageGuard:
    """A step halves where one of its RK stages leaves the open passive set
    p0 >= p1 > p2 > 0, before alpha is evaluated there."""

    def test_large_step_entropy_flow(self):
        # the first step's stages leave the simplex at step 2.0, where the
        # entropy strategy's log(p1 / p2) raised 'math domain error'
        p = np.array([0.8074135808586164, 0.16076284068071361, 0.03182357846066999])
        e = np.array([0.0, 2.5609799064120575, 3.5609799064120575])
        traj = quasistatic.integrate_trajectory(p, e, "entropy", step=2.0)
        assert _kernels._r3_gap(*traj.final_state, e[1] / (e[2] - e[1])) <= quasistatic.TERMINATION_TOL
        assert traj.accumulated_work == pytest.approx(quasistatic.optimal_work(p, e), rel=1e-3)

    @given(
        st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(1.2, 4.0),
        st.sampled_from(["entropy", "energy", "float", "tracking"]),
        st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_large_steps_raise_only_the_documented_error(self, l1, l2, factor, kind, u, step):
        # ln(p0/p1) = l1, ln(p1/p2) = l2 and dE10/dE21 = factor * l1/l2, so
        # the window is (l1/l2, factor * l1/l2) and u is a share of it
        w = np.array([math.exp(l1 + l2), math.exp(l2), 1.0])
        p = w / w.sum()
        e = np.array([0.0, factor * l1 / l2, factor * l1 / l2 + 1.0])
        rng = quasistatic.alpha_range(p, e)
        if kind == "float":
            strategy = rng.lower + u * (rng.upper - rng.lower)
        elif kind == "tracking":
            def strategy(y):
                lower = math.log(y[0] / y[1]) / math.log(y[1] / y[2])
                return lower + u * (rng.upper - lower)
        else:
            strategy = kind
        try:
            traj = quasistatic.integrate_trajectory(p, e, strategy, step=step, max_steps=2000)
        except RuntimeError as exc:
            assert str(exc).startswith(("no convergence", "trajectory stalled")), exc
            return
        assert all(y[0] >= y[1] > y[2] > 0.0 for _, y, _ in traj.samples)

    def test_alpha_rounded_past_the_upper_edge_is_the_edge(self):
        # lower + 1.0 * (upper - lower) lands one ulp above upper here
        w = np.array([math.exp(1.0 + 0.6595131812415256), math.exp(0.6595131812415256), 1.0])
        p = w / w.sum()
        e = np.array([0.0, 2.5625 / 0.6595131812415256, 2.5625 / 0.6595131812415256 + 1.0])
        rng = quasistatic.alpha_range(p, e)
        alpha = rng.lower + 1.0 * (rng.upper - rng.lower)
        assert alpha > rng.upper
        traj = quasistatic.integrate_trajectory(p, e, alpha, step=0.5, max_steps=2000)
        edge = quasistatic.integrate_trajectory(p, e, rng.upper, step=0.5, max_steps=2000)
        assert traj.accumulated_work == edge.accumulated_work
        with pytest.raises(ValueError, match="outside admissible range"):
            quasistatic.integrate_trajectory(p, e, rng.upper * (1 + 1e-12), step=0.5)


class TestOptimalWorkAndCarnot:
    def test_thermal_gives_zero(self):
        e = np.array([0.0, 1.0, 3.0])
        assert quasistatic.optimal_work(states.thermal_state(1.2, e), e) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_never_negative_on_thermal_states(self):
        # rounding put the energy difference below 0 on about half of these
        rng = np.random.default_rng(1)
        for _ in range(500):
            d = int(rng.integers(3, 7))
            e = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 3.0, d - 1))])
            w = quasistatic.optimal_work(states.thermal_state(rng.uniform(0.05, 5.0), e), e)
            assert 0.0 <= w <= 1e-12 and math.copysign(1.0, w) == 1.0, (d, e, w)

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

    def test_carnot_check_skips_the_uniform_state(self):
        # the flow is one sample with ln(p1/p2) = 0, where the efficiency is undefined
        assert quasistatic.carnot_check(np.full(3, 1 / 3), [0.0, 1.0, 3.0]) == 0.0


class TestOpenFlowDefects:
    """ROADMAP defects 1, 3 and the callable part of 2, pinned as strict
    expected failures: a flow that mends one turns its pin into an
    unexpected pass, and the pin into a test."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP defect 1: the "
                       "entropy flow has no error control, drifts in entropy and exceeds "
                       "optimal_work")
    def test_entropy_flow_on_a_skewed_state(self):
        p = np.array([0.91737, 0.08168, 0.00094])
        p /= p.sum()
        e = [0.0, 3.6854, 5.5914]
        traj = quasistatic.integrate_trajectory(p, e, "entropy")
        s0 = states.entropy(p)
        assert max(abs(pt.entropy - s0) for _, _, pt in traj.samples) <= 1e-8
        assert traj.accumulated_work <= quasistatic.optimal_work(p, e) + 1e-9

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP defect 2, "
                       "callables (direction 1b): a constant callable runs past its "
                       "neutral curve to the thermal manifold")
    def test_constant_callable_stops_at_the_neutral_curve(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, lambda y: 0.9)
        assert abs(traj.accumulated_work - 0.0472945944575119) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="ROADMAP defect 3: a flow that "
                       "starts near p0 == p1 never finishes")
    def test_flow_from_near_p0_equal_p1_finishes(self):
        p = np.array([0.34815658, 0.3481531, 0.30369033])
        p /= p.sum()
        e = [0.0, 1.0, 8.0]
        traj = quasistatic.integrate_trajectory(p, e, "entropy", max_steps=2000)
        assert abs(traj.accumulated_work - quasistatic.optimal_work(p, e)) <= 1e-9


if __name__ == "__main__":
    # the stepper's cost on the worked example, to compare two trees:
    # PYTHONPATH=src python -m tests.test_quasistatic
    import timeit

    p, e = np.array([0.5, 0.35, 0.15]), np.array([0.0, 3.0, 4.0])
    window = quasistatic.alpha_range(p, e)

    def tracking(y):  # alpha halfway up the window above its moving lower bound
        lower = math.log(y[0] / y[1]) / math.log(y[1] / y[2])
        return lower + 0.5 * (window.upper - lower)

    calls = []
    real = _kernels._flow_rate

    def counted(*args):
        calls.append(args)
        return real(*args)

    print("integrate_trajectory on the worked example: samples, stepper _flow_rate evaluations, "
          "time per flow (best of 5)")
    for step in (0.05, 0.02):
        for name, strategy in (("entropy", "entropy"), ("energy", "energy"),
                               (f"alpha = {window.midpoint():.4g}", window.midpoint()),
                               ("tracking", tracking)):
            calls.clear()
            with mock.patch.object(_kernels, "_flow_rate", counted):
                samples = len(quasistatic.integrate_trajectory(p, e, strategy, step=step).samples)
            best = min(timeit.repeat(
                lambda: quasistatic.integrate_trajectory(p, e, strategy, step=step), number=20, repeat=5,
            ))
            print(f"step {step}, {name}: {samples} samples, {len(calls)} evaluations, "
                  f"{best / 20 * 1e3:.3f} ms")
