"""Input validation at the public boundary: one passive-qutrit check, no
re-checks inside the library, and every entry point either raising
ValueError or returning finite values on bad input."""

import dataclasses
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import activation, cli, engine, oracle, quasistatic, reduction, regions, states

NAN = float("nan")
INF = float("inf")
NON_PASSIVE = [0.3, 0.5, 0.2]
E = [0.0, 1.0, 2.0]
HUGE = 2**1100  # an integer past the float range


@pytest.mark.parametrize("call", [
    lambda: quasistatic.alpha_range(NON_PASSIVE, E),
    lambda: quasistatic.asymptotic_machine(NON_PASSIVE, E, 10, 0.5),
    lambda: quasistatic.integrate_trajectory(NON_PASSIVE, E, "entropy"),
    lambda: regions.classify(NON_PASSIVE, regions.RationalGapRatio(1, 1)),
    lambda: regions.classify(np.array([[0.5, 0.35, 0.15], NON_PASSIVE]),
                             regions.RationalGapRatio(1, 1)),
    lambda: regions.in_activation_region(NON_PASSIVE, E, 2, 3),
    lambda: regions.covering_cycle(
        [0.2, 0.3, 0.5], regions.approximate_gap_ratio([0.0, 0.0, 1.0]), 5
    ),
], ids=[
    "alpha_range", "asymptotic_machine", "integrate_trajectory", "classify",
    "classify_batch", "in_activation_region", "covering_cycle",
])
def test_non_passive_state_rejected(call):
    with pytest.raises(ValueError, match="passive qutrit"):
        call()


class TestValidatesOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of validator calls and of Gibbs-state evaluations."""
        calls = Counter()
        for name in ("validate_state", "validate_hamiltonian", "_gibbs"):
            real = getattr(states, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(states, name, counted)
        return calls

    def test_run_cycle(self, calls, worked_example):
        p, e = worked_example
        engine.run_cycle(p, e, 2, 3)
        assert calls == {"validate_state": 1, "validate_hamiltonian": 1}

    @pytest.mark.parametrize("solve, target", [
        (states.beta_from_entropy, 0.9), (states.beta_from_energy, 1.0),
    ], ids=["entropy", "energy"])
    def test_bisection_checks_the_ladder_once(self, calls, solve, target):
        beta = solve(target, [0.0, 1.0, 3.0])
        assert 0.0 < beta < math.inf
        assert calls["_gibbs"] > 40  # one per bisection step
        assert calls["validate_hamiltonian"] == 1
        assert calls["validate_state"] == 0

    @pytest.mark.parametrize("call", [
        lambda p, e: quasistatic.optimal_work(p, e),
        lambda p, e: quasistatic.integrate_trajectory(p, e, "entropy"),
        lambda p, e: quasistatic.integrate_trajectory(p, e, 1.5),
    ], ids=["optimal_work", "trajectory_entropy", "trajectory_float"])
    def test_quasistatic_checks_each_argument_once(self, calls, worked_example, call):
        call(*worked_example)
        assert calls["validate_state"] == 1
        assert calls["validate_hamiltonian"] == 1

    def test_assess_activation(self, calls, worked_example):
        p, e = worked_example
        outcome = engine.run_cycle(p, e, 2, 3)
        calls.clear()
        activation.assess_activation(p, e, outcome)
        # p and outcome.final_system once each, the ladder once
        assert calls == {"validate_state": 2, "validate_hamiltonian": 1}

    def test_bath_ledger(self, calls, worked_example):
        p, e = worked_example
        q = oracle.stationary_machine(p, 2, 3)
        joint = oracle.apply_cycle(oracle.product_joint(p, q), oracle.build_cycle(2, 3))
        calls.clear()
        activation.bath_ledger(p, e, joint, 0.7, initial_machine=q)
        # p and the final marginal; the Gibbs state of the checked ladder is not checked again
        assert calls == {"validate_state": 2, "validate_hamiltonian": 1, "_gibbs": 1}

    def test_stationary_machine(self, calls, worked_example):
        oracle.stationary_machine(worked_example[0], 2, 3)
        assert calls == {"validate_state": 1}

    def test_block_joint_cycle(self, calls):
        p = [0.4, 0.28, 0.12, 0.12, 0.08]
        reduction.block_joint_cycle(p, [0.0, 3.0, 4.0, 9.0, 11.0], 1, 2, 3)
        # p once, the window by reduction's Python-float check; the ladder once
        assert calls == {"validate_state": 1, "validate_hamiltonian": 1}

    def test_carnot_check(self, calls, worked_example):
        quasistatic.carnot_check(*worked_example)
        assert calls == {"validate_state": 1, "validate_hamiltonian": 1}

    def test_is_completely_passive(self, calls, worked_example):
        assert not states.is_completely_passive(*worked_example, 1e-9)
        assert calls == {"validate_state": 1, "validate_hamiltonian": 1}

    @pytest.mark.parametrize("state", [
        ["--state", "0.5,0.35,0.15", "--energies", "0,3,4"],
        ["--beta", "0.4", "--energies", "0,3,4"],
        ["--state", "0.4,0.25,0.15,0.12,0.08", "--energies", "0,1,2,3,4"],
        ["--beta", "0.4", "--energies", "0,1,2,3,4"],
    ], ids=["state", "beta", "qudit_state", "qudit_beta"])
    def test_optimize_checks_do_not_grow_with_max_dim(self, calls, capsys, state):
        counts = []
        for max_dim in ("4", "12", "24"):
            calls.clear()
            assert cli.main(["optimize", *state, "--max-dim", max_dim]) == 0
            counts.append(dict(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] == counts[2]
        if state[0] == "--state":  # the CLI passes both as parsed; best_cycle checks each once
            assert counts[0] == {"validate_state": 1, "validate_hamiltonian": 1}

    def test_best_window(self, calls):
        p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
        e = np.arange(5.0)
        k, out = reduction.best_window(p, e, 2, 3)
        assert calls == {"validate_state": 1, "validate_hamiltonian": 1}
        calls.clear()
        lifted = reduction.lifted_cycle(p, e, k, 2, 3)
        assert lifted.work == out.work
        assert np.array_equal(lifted.final_system, out.final_system)


@pytest.mark.parametrize("call", [
    lambda: states.thermal_state(1.0, [-1e308, 0.0, 1e308]),  # E2 - E0 overflows
    lambda: quasistatic.alpha_range([0.5, 0.35, 0.15], [-5.0, 0.0, 5e-324]),  # dE10/dE21 does
    lambda: quasistatic.integrate_trajectory([0.5, 0.35, 0.15], [-5.0, 0.0, 5e-324], "energy"),
    # finite spans: the uniform-state energy's sum, and m dE10, overflow
    lambda: states.beta_from_energy(0.0, [0.0, 8.99e307, 8.99e307]),
    lambda: engine.run_cycle([0.5, 0.3, 0.2], [0.0, 1e308, 1.5e308], 3, 1),
    lambda: reduction.lifted_cycle([0.5, 0.25, 0.25], [0.0, 6e307, 6e307], 0, 3, 1),
    lambda: regions.in_activation_region([0.5, 0.3, 0.2], [0.0, 1e308, 1.7e308], 5, 7),
    lambda: regions.in_activation_region(
        np.array([[0.5, 0.3, 0.2], [0.6, 0.3, 0.1]]), [0.0, 1e308, 1.7e308], 5, 7),
    lambda: regions.approximate_gap_ratio([-1e300, 0.0, 5e-324]),  # a finite span
    lambda: regions.k_activability_witness([0.5, 0.3, 0.2], [0.0, 1e308, 1.7e308], 5, 7),
], ids=["span", "gap_ratio", "trajectory_gap_ratio", "uniform_energy", "cycle_lever",
        "lifted_cycle_lever", "region_lever", "region_lever_batch", "rational_gap_ratio",
        "witness_lever"])
def test_overflowing_ladder_rejected_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows the float range"):
            call()


_QUDIT = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
_JOINT = np.outer([0.5, 0.35, 0.15], [0.25, 0.75])


def _ledger_with_machine_rows():
    """bath_ledger on the worked example's (1, 1) cycle, given its stationary
    machine as a (1, 2) array: numpy broadcast it against the marginal."""
    p = [0.5, 0.35, 0.15]
    q = oracle.stationary_machine(p, 1, 1)
    joint = oracle.apply_cycle(oracle.product_joint(p, q), oracle.build_cycle(1, 1))
    return activation.bath_ledger(p, [0.0, 3.0, 4.0], joint, 1.0, initial_machine=[q.tolist()])


@pytest.mark.parametrize("call", [
    lambda: activation.relative_entropy([NAN, 0.5, 0.5], [0.3, 0.3, 0.4]),
    lambda: activation.relative_entropy([0.5, 0.5, 0.5], [0.3, 0.3, 0.4]),  # unnormalized p
    lambda: activation.relative_entropy([0.5, 0.5], [0.3, 0.3, 0.4]),
    lambda: activation.bath_ledger([0.5, 0.35, 0.15], E, _JOINT, 1.0, [NAN, NAN]),
    lambda: activation.bath_ledger([0.5, 0.35, 0.15], E, _JOINT, INF),
    lambda: activation.bath_ledger([0.5, 0.35, 0.15], E, _JOINT, NAN),
    lambda: activation.bath_ledger([0.5, 0.35, 0.15], E, _JOINT, 1e308),  # tau underflows
    lambda: activation.bath_ledger([0.4, 0.3, 0.2, 0.1], E + [3.0], _JOINT, 1.0),
    lambda: regions.k_activability_witness([0.5, 0.35, 0.15], E, -1, 3),
    # p2 below the resolution of 1 - p0 - p1, the stepper's p2
    lambda: quasistatic.integrate_trajectory([1.0, 5e-324, 5e-324], E, "entropy"),
    lambda: quasistatic.integrate_trajectory([0.9, 0.1, 1e-17], E, "entropy"),
    # cycle and gap-ratio arguments that are not integers: each was accepted or raised TypeError
    lambda: regions.in_activation_region([0.5, 0.35, 0.15], [0, 3, 4], 2.5, 3),
    lambda: regions.in_activation_region([0.5, 0.35, 0.15], [0, 3, 4], NAN, 3),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(1, 3), 2.5, 3, 50),
    lambda: regions.k_activability_witness([0.5, 0.35, 0.15], [0, 3, 4], 2.5, 3),
    lambda: engine.run_cycle([0.5, 0.35, 0.15], [0, 3, 4], 2.5, 3),
    lambda: engine.run_cycle([0.5, 0.35, 0.15], [0, 3, 4], True, 3),
    lambda: regions.covering_cycle([0.6, 0.3, 0.1], regions.RationalGapRatio(1.5, 2), 20),
    lambda: regions.RationalGapRatio(NAN, 2),
    lambda: regions.RationalGapRatio(1, True),
    # window starts, counts and sizes that are not integers: each ran or raised TypeError
    lambda: reduction.lifted_cycle(_QUDIT, np.arange(5.0), True, 2, 3),
    lambda: reduction.decompose(_QUDIT, np.arange(5.0), 1.0),
    lambda: reduction.block_joint_cycle(_QUDIT, np.arange(5.0), np.float64(1.0), 2, 3),
    lambda: reduction.best_cycle(_QUDIT, np.arange(5.0), 6.0),
    lambda: quasistatic.asymptotic_machine([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 3.5, 1.0),
    lambda: quasistatic.integrate_trajectory([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], "entropy",
                                             max_steps=2.5),
    lambda: regions.passive_simplex_grid(20.0),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(1, 3), 2, 3, 50.0),
    lambda: regions.covering_cycle([0.6, 0.3, 0.1], regions.RationalGapRatio(1, 1), 20.0),
    # a batch of one state: its row passed the checks, then indexing raised IndexError
    lambda: regions.covering_cycle(np.array([[0.5, 0.35, 0.15]]), regions.RationalGapRatio(1, 3), 20),
    # steps past the joint's shape and a joint that is not 2-d: each raised IndexError or TypeError
    lambda: oracle.apply_cycle(np.zeros((3, 2)), [(0, 1, 0, 5)]),
    lambda: oracle.apply_cycle(np.zeros((3, 2)), [(0, 3, 0, 1)]),
    lambda: oracle.apply_cycle(np.zeros(3), [(0, 1, 0, 1)]),
    # swap indices that are not integers: a float raised TypeError, a bool ran as 0 or 1
    lambda: oracle.apply_cycle(np.zeros((3, 2)), [(0.0, 1, 0, 1)]),
    lambda: oracle.apply_cycle(np.zeros((3, 2)), [(0, True, 0, 1)]),
    # a 3-d joint read as one
    lambda: oracle.mutual_information(np.full((2, 2, 2), 1 / 8)),
    # cycle sizes that are not integers: a float raised TypeError, a bool ran
    # once its (m, n) was in a landing cache; a str must meet build_cycle's
    # check before any arithmetic on m and n
    lambda: oracle.stationary_machine([0.5, 0.3, 0.2], 2.0, 3),
    lambda: (oracle.stationary_machine([0.5, 0.3, 0.2], 1, 3),
             oracle.stationary_machine([0.5, 0.3, 0.2], True, 3)),
    lambda: reduction.block_joint_cycle([0.4, 0.3, 0.2, 0.1], [0, 1, 1.5, 3], 0, 2.0, 3),
    lambda: oracle.stationary_machine([0.5, 0.3, 0.2], "2", 3),
    # a machine of the wrong shape, broadcast against the machine marginal
    _ledger_with_machine_rows,
    # a bool is neither a tolerance nor a step: each ran at 1.0
    lambda: regions.classify([0.5, 0.35, 0.15], regions.RationalGapRatio(3, 1), True),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(1, 3), 2, 3, 20, eps_band=True),
    lambda: quasistatic.integrate_trajectory([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], "entropy",
                                             step=True),
    # a bool is neither an inverse temperature, a swap ratio nor a target: each ran at 1.0
    lambda: states.thermal_state(np.True_, E),
    lambda: activation.bath_ledger([0.5, 0.35, 0.15], E, _JOINT, True),
    lambda: quasistatic.asymptotic_machine([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 10, True),
    lambda: states.beta_from_energy(True, [0.0, 1.0, 3.0]),
    lambda: states.beta_from_entropy(True, [0.0, 1.0, 3.0]),
    # cycle sizes and gap-ratio integers past the float range: each raised OverflowError
    lambda: engine.run_cycle([0.5, 0.35, 0.15], [0, 3, 4], HUGE, 1),
    lambda: engine.run_cycle([0.5, 0.35, 0.15], [0, 3, 4], 1, HUGE),
    lambda: reduction.lifted_cycle(_QUDIT, np.arange(5.0), 0, HUGE, 3),
    lambda: regions.in_activation_region([0.5, 0.35, 0.15], [0, 3, 4], HUGE, 1),
    lambda: regions.activation_flags([0.5, 0.35, 0.15], [0, 3, 4], [(1, 1), (1, HUGE)]),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(1, 3), HUGE, 1, 50),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(1, 3), 2, HUGE, 50),
    lambda: regions.coverage_fraction(regions.RationalGapRatio(HUGE, 3), 2, 1, 50),
    lambda: regions.k_activability_witness([0.5, 0.35, 0.15], [0, 3, 4], HUGE, 1),
    lambda: regions.classify([0.5, 0.35, 0.15], regions.RationalGapRatio(HUGE, 1)),
    lambda: regions.classify([0.5, 0.35, 0.15], regions.RationalGapRatio(1, HUGE)),
    lambda: regions.covering_cycle([0.6, 0.3, 0.1], regions.RationalGapRatio(HUGE, 1), 20),
    lambda: regions.covering_cycle([0.6, 0.3, 0.1], regions.RationalGapRatio(1, HUGE), 20),
    lambda: quasistatic.asymptotic_machine([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], HUGE, 1.0),
    lambda: quasistatic.asymptotic_machine([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 10**308, 2.5),
], ids=["relative_entropy_nan", "relative_entropy_unnormalized", "relative_entropy_lengths",
        "ledger_nan_machine", "ledger_beta_inf", "ledger_beta_nan", "ledger_underflow",
        "ledger_joint_rows", "witness_cycle", "trajectory_subnormal_p2", "trajectory_tiny_p2",
        "region_float_m", "region_nan_m", "coverage_float_m", "witness_float_m", "cycle_float_m",
        "cycle_bool_m", "covering_float_ratio", "gap_ratio_nan", "gap_ratio_bool",
        "lifted_bool_window", "decompose_float_window", "block_joint_float_window",
        "best_cycle_float_max_dim", "asymptotic_float_m", "trajectory_float_max_steps",
        "grid_float_resolution", "coverage_float_resolution", "covering_float_n_max", "covering_batch",
        "swap_step_past_columns", "swap_step_past_rows", "joint_1d", "swap_step_float",
        "swap_step_bool", "mutual_info_3d", "stationary_float_m", "stationary_bool_m_warm",
        "block_joint_float_m", "stationary_str_m", "ledger_machine_2d", "classify_bool_tol",
        "coverage_bool_eps_band", "trajectory_bool_step", "thermal_bool_beta", "ledger_bool_beta",
        "asymptotic_bool_alpha", "beta_from_energy_bool_target", "beta_from_entropy_bool_target",
        "cycle_huge_m", "cycle_huge_n", "lifted_huge_m", "region_huge_m", "flags_huge_n",
        "coverage_huge_m", "coverage_huge_n", "coverage_huge_gap_ratio_m", "witness_huge_m",
        "classify_huge_gap_ratio_m", "classify_huge_gap_ratio_n", "covering_huge_gap_ratio_m",
        "covering_huge_gap_ratio_n", "asymptotic_huge_m", "asymptotic_alpha_m_overflow"])
def test_domain_holes_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: oracle.apply_cycle(np.full((3, 3), 1 / 9), [(0, 0, 1, 2)]),
     "^swap pairs must be distinct$"),
    (lambda: quasistatic.asymptotic_machine([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 2, 1.0),
     "^need m >= 3$"),
    (lambda: quasistatic.integrate_trajectory([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], "bogus"),
     "^unknown strategy 'bogus'$"),
    # a bool is an int, but not a swap ratio
    (lambda: quasistatic.integrate_trajectory([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], True),
     "^unknown strategy True$"),
    (lambda: reduction.decompose([0.5, 0.5, 0.0, 0.0, 0.0], np.arange(5.0), 2),
     "^window has zero mass$"),
    (lambda: regions.RationalGapRatio(0, 1), r"^need M >= 1 and N >= 0$"),
    (lambda: states.mean_energy([0.5, 0.5], [[0.0, 1.0]]), "^energy ladder must be 1-d"),
    (lambda: states.state_and_ladder([0.5, 0.5], [0.0, 1.0, 2.0]),
     "^ladder has length 3, expected 2$"),
    (lambda: states.virtual_temperatures([0.0, 0.5, 0.5], E),
     r"^zero probability at lower level 0 of pair \(1,0\)$"),
], ids=["swap_step_pair", "asymptotic_machine_m", "unknown_strategy", "bool_strategy",
        "zero_mass_window", "gap_ratio_m", "ladder_2d", "ladder_length", "zero_lower_population"])
def test_rarely_reached_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("argv, code, message", [
    (["cycle", "--state", "0.5,x,0.15", "--energies", "0,3,4", "--m", "1", "--n", "1"], 2,
     "argument --state: bad float list '0.5,x,0.15'\n"),
    (["cycle", "--energies", "0,3,4", "--m", "1", "--n", "1"], 1,
     "error: need --state or --beta\n"),
    (["cycle", "--state", "0.25,0.15,0.12", "--energies", "0,3,4", "--m", "1", "--n", "1"], 1,
     "error: state not normalized: sum = 0.52\n"),
    (["cycle", "--state", "0.5,0.35,0.15", "--energies", "0,3,4", "--m", str(HUGE), "--n", "1"], 1,
     "error: need m <= sys.float_info.max, got an integer of 1101 bits\n"),
], ids=["bad_float_list", "no_state_or_beta", "unnormalized_state", "huge_m"])
def test_rarely_reached_cli_errors(capsys, argv, code, message):
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a bad argument
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message)


def test_integers_up_to_the_float_range_run():
    # the largest float is a whole number, so it bounds the integers accepted exactly
    big = int(sys.float_info.max)
    assert regions.in_activation_region([0.5, 0.35, 0.15], [0, 3, 4], 10**300, 1) is False
    assert regions.RationalGapRatio(big, big).m_int == big
    with pytest.raises(ValueError, match="^need M <= sys.float_info.max"):
        regions.RationalGapRatio(big + 1, 1)


_TAU = states.thermal_state(1.0, E)  # R3 for the gap ratio 1:1


@pytest.mark.parametrize("tol", [NAN, INF, -1e-9])
@pytest.mark.parametrize("call", [
    lambda tol: states.is_passive([0.2, 0.3, 0.5], E, tol),
    lambda tol: states.is_completely_passive(_TAU, E, tol),
    lambda tol: regions.classify(_TAU, regions.RationalGapRatio(1, 1), tol),
    lambda tol: regions.classify(np.array([_TAU, _TAU]), regions.RationalGapRatio(1, 1), tol),
    lambda tol: regions.covering_cycle(_TAU, regions.RationalGapRatio(1, 1), 6, tol),
    lambda tol: regions.coverage_fraction(regions.RationalGapRatio(1, 1), 2, 1, 20, tol),
    lambda tol: regions.approximate_gap_ratio([0.0, 1.0, 2.5], tol),
    lambda tol: states.beta_from_energy(0.5, E, tol),
    lambda tol: states.beta_from_entropy(0.5, E, tol),
], ids=["is_passive", "is_completely_passive", "classify", "classify_batch", "covering_cycle",
        "coverage_fraction", "approximate_gap_ratio", "beta_from_energy", "beta_from_entropy"])
def test_bad_tolerance_rejected(call, tol):
    # a NaN tolerance used to answer: True, False, R2, R2, None, 0.0 and a 32-digit ratio;
    # the beta inversions blamed the target, or answered BETA_INF at an infinite one
    with pytest.raises(ValueError, match="^need a finite (tol|eps_band) >= 0"):
        call(tol)


_passive = st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3).map(
    lambda xs: np.sort(np.array(xs) / sum(xs))[::-1]
)
# half in the domain, half outside it
STATES = st.one_of(_passive, st.one_of(
    _passive.map(lambda p: p[[1, 0, 2]]),  # non-passive
    _passive.map(lambda p: p[::-1]),
    st.tuples(_passive, st.floats(0.5, 2.0)).map(lambda t: t[0] * t[1]),  # unnormalized
    st.sampled_from([
        [0.4, 0.4, 0.2], [0.5, 0.25, 0.25], [1 / 3] * 3, [1.0, 0.0, 0.0], [0.7, 0.3, 0.0],
        [0.6, 0.5, -0.1], [NAN, 0.5, 0.5], [0.5, 0.5, NAN], [INF, 0.0, 0.0],
        [0.6, 0.4, 5e-324],  # passive, with p1/p2 past the float range
    ]),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3),
))
# Integer multiples of a scale, so that degenerate and flat ladders come up
# often and no gap or ratio of gaps leaves the float range.
_ladder = st.tuples(
    st.lists(st.integers(-3, 8), min_size=3, max_size=3), st.sampled_from([1.0, 0.25, 1e-3, 7.5])
).map(lambda t: [x * t[1] for x in t[0]])
LADDERS = st.one_of(_ladder.map(sorted), st.one_of(
    _ladder,  # mostly decreasing somewhere
    st.sampled_from([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, NAN, 1.0],
                     [0.0, 1.0, INF], [-INF, 0.0, 1.0]]),
))
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
SWAPS = st.one_of(st.integers(1, 6), st.integers(-1, 0))
BETAS = st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e308), ANY_FLOAT)
_OUTCOME = engine.run_cycle([0.5, 0.35, 0.15], [0.0, 3.0, 4.0], 2, 3)


def _trajectory(p, e, strategy):
    """integrate_trajectory on a short step budget. Near p0 == p1 the flow
    rate vanishes like (p0 - p1)**2, so an in-domain state can need more
    steps than any budget: that is the documented RuntimeError, not a
    validation failure."""
    try:
        return quasistatic.integrate_trajectory(p, e, strategy, max_steps=2000)
    except RuntimeError as exc:
        if not str(exc).startswith(("no convergence", "trajectory stalled")):
            raise
        return None


def _finite(x) -> bool:
    if isinstance(x, (bool, np.bool_, str)) or x is None:
        return True
    if dataclasses.is_dataclass(x):
        names = [f.name for f in dataclasses.fields(x)]
        if isinstance(x, engine.CycleOutcome) and not x.efficiency_meaningful:
            names.remove("efficiency")  # NaN by design when no heat is drawn in
        return all(_finite(getattr(x, name)) for name in names)
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "bU" or bool(np.all(np.isfinite(x)))
    return math.isfinite(x)


@given(
    p=STATES, e=LADDERS, m=SWAPS, n=SWAPS,
    strategy=st.one_of(st.sampled_from(["entropy", "energy"]), st.floats(0.0, 5.0)),
    alpha=st.one_of(st.floats(0.0, 5.0), ANY_FLOAT),
    ratio=st.tuples(st.integers(1, 3), st.integers(0, 3)),
    beta=BETAS,
    target=st.one_of(st.floats(-0.1, 1.2), st.floats(-1.0, 8.0), ANY_FLOAT),
    tol=st.one_of(st.floats(0.0, 1e-3), st.floats(-1.0, 1e6), ANY_FLOAT),
    eps_band=st.one_of(st.floats(0.0, 0.1), ANY_FLOAT),
)
@example(  # p0 - p1 = 3.5e-6: the flow runs out of steps
    p=np.array([0.34815658, 0.3481531, 0.30369033]) / 1.00000001, e=[0.0, 1.0, 8.0],
    m=1, n=1, strategy="entropy", alpha=0.0, ratio=(1, 0), beta=0.0, target=0.0,
    tol=1e-9, eps_band=1e-3,
)
@example(  # p1/p2 overflows to inf
    p=[0.6, 0.4, 5e-324], e=[0.0, 2.0, 3.0], m=2, n=2, strategy="entropy", alpha=0.3,
    ratio=(1, 1), beta=1.0, target=0.5, tol=1e-9, eps_band=1e-3,
)
@example(  # tol times a side of the R3 test overflows to inf
    p=np.array([0.49975012, 0.49975012, 0.00049975]), e=[0.0, 1.0, 1.0], m=1, n=1,
    strategy="entropy", alpha=0.0, ratio=(1, 2), beta=0.0, target=0.0,
    tol=1.301213681043437e307, eps_band=0.0,
)
@settings(max_examples=300, deadline=None)
def test_fuzz_public_entry_points(p, e, m, n, strategy, alpha, ratio, beta, target, tol, eps_band):
    """Non-finite, negative, unnormalized, non-passive and degenerate-ladder
    inputs raise ValueError or give finite values, with warnings as errors;
    a tolerance that is not finite and >= 0 raises ValueError."""
    ratio = regions.RationalGapRatio(*ratio)
    batch = np.array([p, p], dtype=float)
    calls = [
        lambda: engine.run_cycle(p, e, m, n),
        lambda: engine.machine_distribution(p, m, n),
        lambda: oracle.stationary_machine(p, m, n),
        lambda: quasistatic.alpha_range(p, e),
        lambda: quasistatic.asymptotic_machine(p, e, 3 * m, alpha),
        lambda: quasistatic.asymptotic_machine(p, e, 12, quasistatic.alpha_range(p, e).midpoint()),
        lambda: quasistatic.asymptotic_delta_p_prefactor(p),
        lambda: _trajectory(p, e, strategy),
        lambda: quasistatic.optimal_work(p, e),
        lambda: regions.classify(p, ratio),
        lambda: regions.classify(batch, ratio),
        lambda: regions.in_activation_region(p, e, m, n),
        lambda: regions.in_activation_region(batch, e, m, n),
        lambda: regions.covering_cycle(p, ratio, 6),
        lambda: reduction.lifted_cycle(p, e, 0, m, n),
        lambda: reduction.block_joint_cycle(p, e, 0, m, n),
        lambda: states.entropy(p),
        lambda: states.is_passive(p, e),
        lambda: states.thermal_state(beta, e),
        lambda: states.beta_from_entropy(target, e),
        lambda: states.beta_from_energy(target, e),
        lambda: oracle.mutual_information(np.outer(p, [0.25, 0.75])),
        lambda: activation.bath_ledger(p, e, np.outer(p, [0.25, 0.75]), beta),
        lambda: activation.bath_ledger(p, e, _JOINT, beta, [0.25, 0.75]),
        lambda: activation.relative_entropy(p, [0.3, 0.3, 0.4]),
        lambda: activation.assess_activation(p, e, _OUTCOME),
        lambda: regions.k_activability_witness(p, e, m, n),
    ]
    tol_calls = [
        (tol, lambda: states.is_passive(p, e, tol)),
        (tol, lambda: states.is_completely_passive(p, e, tol)),
        (tol, lambda: regions.classify(p, ratio, tol)),
        (tol, lambda: regions.classify(batch, ratio, tol)),
        (tol, lambda: regions.covering_cycle(p, ratio, 6, tol)),
        (tol, lambda: regions.approximate_gap_ratio(e, tol)),
        (tol, lambda: states.beta_from_energy(target, e, tol)),
        (tol, lambda: states.beta_from_entropy(target, e, tol)),
        (eps_band, lambda: regions.coverage_fraction(ratio, m, n, 12, eps_band)),
    ]
    for bound, call in tol_calls:
        if not 0.0 <= bound < math.inf:
            with pytest.raises(ValueError):
                call()
        calls.append(call)
    for i, call in enumerate(calls):
        try:
            out = call()
        except ValueError:
            continue
        if isinstance(out, float) and states.is_beta_inf(out):
            continue  # the ground-state sentinel of beta_from_*
        assert _finite(out), (i, out)


def _answer(call):
    """call()'s result, or the message of the ValueError or RuntimeError it raises."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


# Ladders with E0 < E1 < E2 and gaps of a natural size, then scaled by 2**k:
# a power of two scales every product and quotient of energies exactly, so
# every output must be equal, or exactly c or 1/c times as large.
_GAPPED = st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 8.0), st.floats(0.05, 8.0)).map(
    lambda t: [t[0], t[0] + t[1], t[0] + t[1] + t[2]]
)


@given(p=_passive, e=_GAPPED, k=st.sampled_from([-64, -20, 20, 40]),
       m=st.integers(1, 6), n=st.integers(1, 6), u=st.floats(0.0, 1.0))
@example(p=np.array([0.5, 0.35, 0.15]), e=[0.0, 3.0, 4.0], k=-64, m=1, n=1, u=0.5)
@settings(max_examples=100, deadline=None)
def test_outputs_covariant_under_a_common_energy_scale(p, e, k, m, n, u):
    """The ladder enters only through dE10/dE21 and energy differences, so
    nothing depends on the unit of energy."""
    c = 2.0 ** k
    ec = [c * x for x in e]
    assert states.is_passive(p, ec) == states.is_passive(p, e)
    assert regions.in_activation_region(p, ec, m, n) == regions.in_activation_region(p, e, m, n)
    ratio = regions.approximate_gap_ratio(ec)
    assert ratio == regions.approximate_gap_ratio(e)
    assert regions.classify(p, ratio) == regions.classify(p, regions.approximate_gap_ratio(e))

    out, ref = engine.run_cycle(p, ec, m, n), engine.run_cycle(p, e, m, n)
    assert out.delta_p == ref.delta_p
    assert np.array_equal(out.machine, ref.machine)
    assert np.array_equal(out.final_system, ref.final_system)
    for name in ("work", "q_hot", "q_cold", "heat_hot", "heat_cold"):
        assert getattr(out, name) == c * getattr(ref, name), name

    strategies = ["entropy", "energy"]
    window = _answer(lambda: quasistatic.alpha_range(p, e))
    if not isinstance(window, str):  # a constant inside the admissible window
        strategies.append(window.lower + u * (window.upper - window.lower))
    for strategy in strategies:
        traj, ref = (_answer(lambda: quasistatic.integrate_trajectory(p, x, strategy, max_steps=2000))
                     for x in (ec, e))
        if isinstance(ref, str):
            assert traj == ref
            continue
        assert [t for t, _, _ in traj.samples] == [t for t, _, _ in ref.samples]
        assert all(np.array_equal(y, y_ref) for (_, y, _), (_, y_ref, _) in zip(traj.samples, ref.samples))
        assert traj.accumulated_work == c * ref.accumulated_work

    assert quasistatic.optimal_work(p, ec) == c * quasistatic.optimal_work(p, e)
    s = states.entropy(p)
    assert states.beta_from_entropy(s, ec) == states.beta_from_entropy(s, e) / c
