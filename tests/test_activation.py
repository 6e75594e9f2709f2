import math

import numpy as np
import pytest

from swapengine import activation, engine, oracle, quasistatic, states
from tests.conftest import random_passive_qutrits


def _cycle_joint(p, m, n):
    q = oracle.stationary_machine(p, m, n)
    joint = oracle.apply_cycle(oracle.product_joint(p, q), oracle.build_cycle(m, n))
    return q, joint


class TestAssessActivation:
    def test_worked_example_is_activated(self, worked_example):
        p, e = worked_example
        out = engine.run_cycle(p, e, 1, 1)
        rep = activation.assess_activation(p, e, out)
        assert rep.activated
        assert rep.ergotropy_value == 0.0
        assert rep.energy_ok and rep.entropy_ok

    def test_thermal_never_activated(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.8, e)
        for m, n in [(1, 1), (2, 3), (3, 4)]:
            out = engine.run_cycle(tau, e, m, n)
            assert out.work <= 1e-15
            assert not activation.assess_activation(tau, e, out).activated

    def test_pure_state_never_activated(self):
        # a pure state moves no mass: delta_p carries a factor p1 = 0
        e = np.array([0.0, 1.0, 3.0])
        p = np.array([1.0, 0.0, 0.0])
        out = engine.CycleOutcome(
            m=2, n=3, delta_p=0.0, work=0.0, q_hot=0.0, q_cold=0.0,
            heat_hot=0.0, heat_cold=0.0, efficiency=math.nan,
            efficiency_meaningful=False, final_system=p.copy(),
            machine=np.full(5, 0.2), alpha_coeff=0.0, final_active=False,
        )
        assert not activation.assess_activation(p, e, out).activated

    def test_constraints_hold_on_activating_grid(self):
        e = np.array([0.0, 1.0, 3.0])
        rng = np.random.default_rng(41)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            for m, n in [(2, 3), (3, 4), (4, 3), (5, 3)]:
                out = engine.run_cycle(p, e, m, n)
                if out.work <= 0:
                    continue
                rep = activation.assess_activation(p, e, out)
                assert rep.activated
                assert rep.energy_ok and rep.entropy_ok


class TestOptimalBound:
    def test_cycles_never_beat_quasistatic_optimum(self):
        e = np.array([0.0, 1.0, 3.0])
        rng = np.random.default_rng(43)
        for p in random_passive_qutrits(rng, 10, min_p=1e-3):
            for m, n in [(2, 3), (3, 3), (6, 4)]:
                out = engine.run_cycle(p, e, m, n)
                assert activation.optimal_bound_check(p, e, out)

    def test_entropy_trajectory_saturates_bound(self, worked_example):
        p, e = worked_example
        traj = quasistatic.integrate_trajectory(p, e, "entropy")
        assert traj.accumulated_work == pytest.approx(
            quasistatic.optimal_work(p, e), abs=1e-6
        )


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        p = np.array([0.5, 0.3, 0.2])
        assert activation.relative_entropy(p, p) == 0.0

    def test_support_violation_is_infinite(self):
        assert activation.relative_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]) == math.inf

    def test_zero_times_log_zero(self):
        assert activation.relative_entropy([1.0, 0.0], [0.6, 0.4]) > 0


class TestBathLedger:
    def test_identity_on_cycle_joints(self):
        e = np.array([0.0, 1.0, 3.0])
        rng = np.random.default_rng(47)
        for p in random_passive_qutrits(rng, 6, min_p=1e-3):
            for m, n in [(1, 1), (2, 3)]:
                q, joint = _cycle_joint(p, m, n)
                for beta in (0.3, 1.0, 2.5):
                    led = activation.bath_ledger(p, e, joint, beta, initial_machine=q)
                    lhs = led.total_work
                    rhs = led.free_energy_initial - led.free_energy_thermal
                    assert lhs == pytest.approx(rhs, abs=1e-12)
                    assert led.mutual_info >= 0.0

    def test_worked_example_at_beta_max(self, worked_example):
        p, e = worked_example
        q, joint = _cycle_joint(p, 1, 1)
        beta = states.beta_from_entropy(states.entropy(p), e)
        led = activation.bath_ledger(p, e, joint, beta, initial_machine=q)
        assert math.isfinite(led.delta_w1) and math.isfinite(led.delta_w2)
        assert led.total_work == pytest.approx(
            led.free_energy_initial - led.free_energy_thermal, abs=1e-12
        )

    def test_product_thermal_joint_needs_no_bath_work(self):
        e = np.array([0.0, 1.0, 3.0])
        beta = 0.9
        tau = states.thermal_state(beta, e)
        joint = oracle.product_joint(tau, [0.6, 0.4])
        led = activation.bath_ledger(tau, e, joint, beta)
        assert led.delta_w2 == pytest.approx(0.0, abs=1e-12)
        assert led.mutual_info == 0.0

    def test_foreign_joint_raises(self, worked_example):
        # a normalized joint that no cycle makes from p: its I(S:M) = 0 misses
        # S(sigma) - S(p) by 0.031, and the ledger would miss the free-energy drop
        p, e = worked_example
        q = oracle.stationary_machine(p, 1, 1)
        with pytest.raises(ValueError, match=r"^I\(S:M\) misses S\(sigma\) - S\(p\) by 0\.031"):
            activation.bath_ledger(p, e, np.outer([0.2, 0.3, 0.5], q), 0.7, initial_machine=q)

    def test_reusability_violation_raises(self, worked_example):
        p, e = worked_example
        q, joint = _cycle_joint(p, 1, 1)
        with pytest.raises(ValueError, match="reusability"):
            activation.bath_ledger(p, e, joint, 1.0, initial_machine=q + [1e-6, -1e-6])

    def test_rejects_nonpositive_beta(self, worked_example):
        p, e = worked_example
        _, joint = _cycle_joint(p, 1, 1)
        with pytest.raises(ValueError):
            activation.bath_ledger(p, e, joint, 0.0)
