"""Acceptance gate: thirteen numbered checks, one test (and one pass/fail
line) each. Shared heavy computations live in module-scoped fixtures."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from swapengine import (
    activation,
    cli,
    engine,
    oracle,
    quasistatic,
    reduction,
    regions,
    states,
)
from tests.conftest import random_passive_qutrits, tensor_power_ergotropy

E_REF = np.array([0.0, 3.0, 4.0])


@dataclass
class Case:
    p: np.ndarray
    m: int
    n: int
    q_diff: float
    work_err: float
    machine_drift: float
    outcome: engine.CycleOutcome


@pytest.fixture(scope="module")
def oracle_cases():
    """200 random passive states x all (m, n) with 2<=m<=8, 3<=n<=8."""
    rng = np.random.default_rng(20240901)
    sample = random_passive_qutrits(rng, 200, min_p=1e-4)
    cases = []
    start = time.perf_counter()
    for p in sample:
        for m in range(2, 9):
            for n in range(3, 9):
                q_closed = engine.machine_distribution(p, m, n)
                q_ref = oracle.stationary_machine(p, m, n)
                joint = oracle.apply_cycle(
                    oracle.product_joint(p, q_ref), oracle.build_cycle(m, n)
                )
                final = oracle.system_marginal(joint)
                drift = float(np.max(np.abs(oracle.machine_marginal(joint) - q_ref)))
                out = engine.run_cycle(p, E_REF, m, n)
                sim_work = float((p - final) @ E_REF)
                cases.append(
                    Case(
                        p=p,
                        m=m,
                        n=n,
                        q_diff=float(np.max(np.abs(q_closed - q_ref))),
                        work_err=abs(out.work - sim_work) / max(1.0, abs(out.work)),
                        machine_drift=drift,
                        outcome=out,
                    )
                )
    elapsed = time.perf_counter() - start
    return cases, elapsed


def _report(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_oracle_equivalence(oracle_cases):
    cases, elapsed = oracle_cases
    assert len(cases) == 200 * 7 * 6
    worst_q = max(c.q_diff for c in cases)
    worst_w = max(c.work_err for c in cases)
    assert worst_q < 1e-10
    assert worst_w < 1e-12
    assert elapsed < 60.0
    _report(1, f"max |q| err {worst_q:.2e}, max work err {worst_w:.2e}, {elapsed:.1f}s")


def test_criterion_02_machine_reusability(oracle_cases):
    cases, _ = oracle_cases
    worst = max(c.machine_drift for c in cases)
    assert worst < 1e-12
    _report(2, f"max machine-marginal drift {worst:.2e}")


def test_criterion_03_heat_identities(oracle_cases):
    cases, _ = oracle_cases
    de10, de21 = 3.0, 1.0
    for c in cases:
        o = c.outcome
        assert abs(o.heat_hot - c.m * de10 * o.delta_p) <= 1e-12
        assert abs(o.heat_cold - c.n * de21 * o.delta_p) <= 1e-12
        assert abs(o.work - (o.heat_hot - o.heat_cold)) <= 1e-12
    _report(3, f"dW = Q_hot - Q_cold on all {len(cases)} cases")


def test_criterion_04_worked_example(worked_example):
    p, e = worked_example
    out = engine.run_cycle(p, e, 1, 1)
    assert out.delta_p == pytest.approx(0.0351852, abs=1e-6)
    assert out.work == pytest.approx(0.0703704, abs=1e-6)
    assert out.efficiency == pytest.approx(2 / 3, abs=1e-6)
    assert np.allclose(out.machine, [0.629630, 0.370370], atol=1e-6)
    assert np.allclose(out.final_system, [0.535185, 0.279630, 0.185185], atol=1e-6)
    _report(4, "single (1,1) cycle on (0.5,0.35,0.15), E=(0,3,4)")


def test_criterion_05_region_sign_equivalence():
    e = np.array([0.0, 1.0, 3.0])
    grid = regions.passive_simplex_grid(50)
    checked = 0
    for p in grid:
        l1 = math.log(p[0] / p[1])
        l2 = math.log(p[1] / p[2])
        for m, n in [(2, 3), (3, 4), (5, 3), (3, 5)]:
            gap = n * l2 - m * l1
            if abs(gap) <= 1e-9 * max(1.0, abs(n * l2), abs(m * l1)):
                continue  # boundary band
            work = engine.run_cycle(p, e, m, n).work
            member = regions.in_activation_region(p, e, m, n)
            assert member == (work > 0), (p, m, n, work)
            checked += 1
    _report(5, f"sign(work) matches membership at {checked} grid evaluations")


def test_criterion_06_sub_carnot(oracle_cases):
    cases, _ = oracle_cases
    positive = 0
    for c in cases:
        o = c.outcome
        if o.work <= 0:
            continue
        vt = states.virtual_temperatures(c.p, E_REF)
        if not vt.hot < vt.cold:
            continue
        carnot = 1.0 - vt.hot / vt.cold
        assert 0.0 < o.efficiency < carnot
        positive += 1
    assert positive > 0
    _report(6, f"0 < eta < 1 - beta_hot/beta_cold on {positive} extracting cases")


def test_criterion_07_coverage_monotonicity():
    ratio = regions.RationalGapRatio(2, 1)
    c1 = regions.coverage_fraction(ratio, 3, 1, 200)
    c2 = regions.coverage_fraction(ratio, 5, 2, 200)
    c3 = regions.coverage_fraction(ratio, 11, 5, 200)
    c_lim = regions.coverage_fraction(ratio, 401, 200, 200, eps_band=1e-3)
    assert c1 <= c2 <= c3
    assert c_lim >= 0.99
    _report(7, f"coverage {c1:.3f} <= {c2:.3f} <= {c3:.3f}; (401,200) -> {c_lim:.4f}")


def test_criterion_08_k_activability(worked_example):
    p0, e0 = worked_example
    rng = np.random.default_rng(61)
    sample = [(p0, e0)] + [
        (p, np.array([0.0, 1.0, 3.0])) for p in random_passive_qutrits(rng, 2, min_p=5e-3)
    ]
    checked = 0
    for p, e in sample:
        for m in range(1, 8):
            for n in range(1, 8 - m + 1):
                if not regions.in_activation_region(p, e, m, n):
                    continue
                assert tensor_power_ergotropy(p, e, m + n) > 0
                checked += 1
    assert checked > 0
    _report(8, f"brute-force tensor-power ergotropy positive on {checked} cases")


def test_criterion_09_asymptotics(worked_example):
    p, e = worked_example
    mid = quasistatic.alpha_range(p, e).midpoint()
    am = quasistatic.asymptotic_machine(p, e, 200, mid)
    mix = am.distribution()
    exact = oracle.stationary_machine(p, am.m, am.n)
    mask = mix > 1e-12
    rel = np.max(np.abs(exact[mask] - mix[mask]) / mix[mask])
    assert rel < 0.01
    out = engine.run_cycle(p, e, 200, am.n)
    ratio = out.delta_p / (p[1] / p[0]) ** 200
    c = quasistatic.asymptotic_delta_p_prefactor(p)
    assert abs(ratio - c) / c < 0.05
    _report(9, f"mixture rel err {rel:.2e}; delta_p prefactor off by {abs(ratio-c)/c:.2e}")


def test_criterion_10_trajectories(worked_example):
    p, e = worked_example
    tr_e = quasistatic.integrate_trajectory(p, e, "energy")
    e0 = states.mean_energy(p, e)
    assert max(abs(pt.energy - e0) for _, _, pt in tr_e.samples) <= 1e-8
    assert abs(tr_e.endpoint_beta - states.beta_from_energy(e0, e)) <= 1e-6

    tr_s = quasistatic.integrate_trajectory(p, e, "entropy")
    s0 = states.entropy(p)
    assert max(abs(pt.entropy - s0) for _, _, pt in tr_s.samples) <= 1e-8
    assert abs(tr_s.endpoint_beta - states.beta_from_entropy(s0, e)) <= 1e-6
    assert abs(tr_s.accumulated_work - quasistatic.optimal_work(p, e)) <= 1e-6
    assert quasistatic.carnot_check(p, e) <= 1e-10
    _report(10, "conserved drifts, endpoint betas, optimal work, Carnot identity")


def test_criterion_11_activation_bounds(oracle_cases):
    cases, _ = oracle_cases
    for c in cases[::10]:
        assert activation.optimal_bound_check(c.p, E_REF, c.outcome)
        if c.outcome.work > 0:
            rep = activation.assess_activation(c.p, E_REF, c.outcome)
            assert rep.activated and rep.energy_ok and rep.entropy_ok
    e = np.array([0.0, 1.0, 3.0])
    tau = states.thermal_state(0.8, e)
    for m, n in [(2, 3), (3, 4)]:
        out = engine.run_cycle(tau, e, m, n)
        assert not activation.assess_activation(tau, e, out).activated
    pure = np.array([1.0, 0.0, 0.0])
    null = engine.CycleOutcome(
        m=2, n=3, delta_p=0.0, work=0.0, q_hot=0.0, q_cold=0.0, heat_hot=0.0,
        heat_cold=0.0, efficiency=math.nan, efficiency_meaningful=False,
        final_system=pure.copy(), machine=np.full(5, 0.2), alpha_coeff=0.0,
        final_active=False,
    )
    assert not activation.assess_activation(pure, e, null).activated
    _report(11, "work bound, constraints, thermal/pure exclusions")


def test_criterion_12_qudit_reduction():
    rng = np.random.default_rng(71)
    worst_fact = worst_oracle = 0.0
    for d in (4, 5, 6):
        for _ in range(3):
            while True:
                p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
                if p[-1] >= 1e-3:
                    break
            e = np.cumsum(rng.uniform(0.5, 2.0, size=d))
            for k in range(d - 2):
                win = reduction.decompose(p, e, k)
                for m in range(1, 6):
                    for n in range(1, 6 - m + 1):
                        lifted = reduction.lifted_cycle(p, e, k, m, n)
                        window = engine.run_cycle(win.reduced_state, win.reduced_h, m, n)
                        worst_fact = max(
                            worst_fact, abs(lifted.work - win.weight * window.work)
                        )
                        sys_m, mach_m = reduction.block_joint_cycle(p, e, k, m, n)
                        worst_oracle = max(
                            worst_oracle,
                            float(np.max(np.abs(sys_m - lifted.final_system))),
                            float(np.max(np.abs(mach_m - lifted.machine))),
                        )
    assert worst_fact < 1e-12
    assert worst_oracle < 1e-12
    _report(12, f"factorization err {worst_fact:.2e}, block-unitary err {worst_oracle:.2e}")


def test_criterion_13_cli_determinism(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify"]) == 0

    for argv in (
        ["fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
         "--sweep-gap", "0.5:7.5:50"],
        ["fig5", "--energies", "0,1,3", "--grid", "30"],
        ["fig6", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
         "--strategy", "entropy"],
    ):
        a = tmp_path / (argv[0] + "_a")
        b = tmp_path / (argv[0] + "_b")
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    true_fn = engine.machine_distribution

    def corrupted(p, m, n):
        q = true_fn(p, m, n).copy()
        q[0] += 1e-6
        q[-1] -= 1e-6
        return q

    monkeypatch.setattr(engine, "machine_distribution", corrupted)
    assert cli.main(["verify"]) == 1
    capsys.readouterr()
    _report(13, "verify passes, figure runs byte-identical, mutation caught")
