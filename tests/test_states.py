import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import quasistatic, states


def _dirichlet(seed, d=3):
    return np.random.default_rng(seed).dirichlet(np.ones(d))


class TestValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            states.validate_state([0.5, 0.6, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.validate_state([0.5, 0.4, 0.2])

    def test_rejects_decreasing_energies(self):
        with pytest.raises(ValueError):
            states.validate_hamiltonian([0.0, 2.0, 1.0])

    @pytest.mark.parametrize("probs", [
        [0.5, float("nan"), 0.15], [float("nan")] * 3, [0.5, float("inf"), 0.15],
        [float("-inf"), 0.5, 0.5],
    ])
    def test_rejects_non_finite_state(self, probs):
        with pytest.raises(ValueError):
            states.validate_state(probs)

    @pytest.mark.parametrize("energies", [
        [0.0, float("nan"), 4.0], [float("nan"), 3.0, 4.0], [0.0, 3.0, float("inf")],
        [float("-inf"), 3.0, 4.0],
    ])
    def test_rejects_non_finite_energies(self, energies):
        with pytest.raises(ValueError, match="finite"):
            states.validate_hamiltonian(energies)

    @pytest.mark.parametrize("energies", [
        [float("inf")] * 3, [float("-inf")] * 3, [float("nan")] * 3,
        [float("-inf"), 0.0, float("inf")],
    ])
    def test_non_finite_energies_reject_without_warning(self, energies):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                states.validate_hamiltonian(energies)

    @pytest.mark.parametrize("call", [
        lambda: states.thermal_state(float("nan"), [0.0, 1.0, 3.0]),
        lambda: states.beta_from_entropy(float("nan"), [0.0, 1.0, 3.0]),
        lambda: states.beta_from_energy(float("nan"), [0.0, 1.0, 3.0]),
        lambda: states.beta_from_entropy(0.5, [0.0, 0.0, 0.0]),
        lambda: quasistatic.optimal_work([0.5, 0.35, 0.15], [0.0, 0.0, 0.0]),
    ], ids=["thermal_nan", "entropy_nan", "energy_nan", "entropy_flat", "optimal_work_flat"])
    def test_rejects_non_physical_input(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("probs", [[1e308, 1e308, 0.0], [[1e308, 1e308, 1e308]] * 2])
    def test_huge_entries_reject_without_overflow(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                states.passive_qutrit(probs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            states.validate_state([0.5, 0.5], d=3)


# The checks run on Python floats; these are their numpy forms, kept as the reference.
def _numpy_validate_state(probs, d=None):
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("state must be a 1-d probability vector of length >= 2")
    if d is not None and p.size != d:
        raise ValueError(f"state has length {p.size}, expected {d}")
    if not ((p >= 0) & (p <= 1)).all():
        raise ValueError("state has entries that are negative, above 1 or NaN")
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise ValueError(f"state not normalized: sum = {float(p.sum())!r}")
    return p


def _numpy_validate_hamiltonian(energies, d=None):
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("energy ladder must be 1-d with length >= 2")
    if d is not None and e.size != d:
        raise ValueError(f"ladder has length {e.size}, expected {d}")
    if not (np.all(np.isfinite(e)) and np.all(e[1:] >= e[:-1])):
        raise ValueError("energies must be finite and non-decreasing")
    if not math.isfinite(float(e[-1]) - float(e[0])):
        raise ValueError("energy span E[-1] - E[0] overflows the float range")
    return e


def _numpy_passive_qutrit(probs):
    p = _numpy_validate_state(probs, 3)
    if not p[0] >= p[1] >= p[2] > 0.0:
        raise ValueError("need a normalized passive qutrit with p0 >= p1 >= p2 > 0")
    return p


def _numpy_is_passive(p, e, tol):
    with np.errstate(all="ignore"):
        for i in range(p.size - 1):
            if e[i + 1] == e[i]:
                if abs(p[i] - p[i + 1]) > max(tol, states._NORM_TOL):
                    return False
            elif p[i + 1] - p[i] > tol:
                return False
    return True


def _outcome(check, *args):
    try:
        return check(*args).tolist()
    except ValueError as exc:
        return str(exc)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.0,
            math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1e308, -1e308]


@st.composite
def _vectors(draw, size):
    """Any entries, specials among them, or a normalized vector with one entry
    moved to within 1e-15 of the 1e-12 normalization edge."""
    if draw(st.booleans()):
        entry = st.one_of(st.sampled_from(_SPECIAL), st.floats(0.0, 1.0), st.floats())
        x = draw(st.lists(entry, min_size=size, max_size=size))
    else:
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(any))
        total = math.fsum(w)
        x = [v / total for v in w]
        x[draw(st.integers(0, size - 1))] += (
            draw(st.sampled_from([-1e-12, 1e-12])) + draw(st.floats(-1e-15, 1e-15)))
    return sorted(x) if draw(st.booleans()) else x


@given(st.integers(2, 12).flatmap(lambda k: st.tuples(_vectors(k), _vectors(k))),
       st.sampled_from([0.0, 1e-12, 1e-9, 0.1]))
@example(pair=([0.4, 0.4, 0.2], [0.0, 1.0, 1.0]), tol=0.0)  # ties on both sides
@example(pair=([0.5, 0.5, 0.0], [-math.inf, 0.0, 1.0]), tol=0.0)
@settings(max_examples=300, deadline=None)
def test_checks_match_their_numpy_form(pair, tol):
    x, y = pair
    for reference, check in [(_numpy_validate_state, states.validate_state),
                             (_numpy_validate_hamiltonian, states.validate_hamiltonian)]:
        for v in (x, y, x[::-1]):
            assert _outcome(check, v) == _outcome(reference, v)
    qutrit = x[:3]
    assert _outcome(states.passive_qutrit, qutrit) == _outcome(_numpy_passive_qutrit, qutrit)
    p, e = np.array(x), np.array(y)
    assert states._is_passive(p, e, tol) == _numpy_is_passive(p, e, tol)


def test_three_entry_sum_runs_left_to_right():
    # validate_state sums fewer than 8 entries left to right, as numpy does
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert float(np.array([0.1, 0.2, 0.3]).sum()) == (0.1 + 0.2) + 0.3
    with pytest.raises(ValueError, match=r"sum = 0\.6000000000000001$"):
        states.validate_state([0.1, 0.2, 0.3])


@given(st.lists(st.sampled_from([0.0]) | st.floats(1e-300, 1.0), min_size=2, max_size=300).filter(any),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_entropy_sums_as_np_sum_does(w, with_zeros):
    # the ndarray method is np.sum's add.reduce without its Python wrapper
    p = np.array(w + [0.0] if with_zeros else [v for v in w if v > 0.0] * 2)
    p /= p.sum()
    nz = p[p > 0]
    assert states._entropy(p) == float(-np.sum(nz * np.log(nz)))


class TestPassivity:
    def test_sorted_is_passive(self):
        assert states.is_passive([0.5, 0.3, 0.2], [0, 1, 2])

    def test_inversion_is_not(self):
        assert not states.is_passive([0.3, 0.5, 0.2], [0, 1, 2])

    def test_degenerate_levels_need_equal_probs(self):
        assert states.is_passive([0.4, 0.3, 0.3], [0, 1, 1])
        assert not states.is_passive([0.4, 0.35, 0.25], [0, 1, 1])

    def test_passify_sorts(self):
        out = states.passify([0.2, 0.5, 0.3], [0, 1, 2])
        assert np.allclose(out, [0.5, 0.3, 0.2])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ergotropy_nonnegative_and_zero_iff_passive(self, seed):
        p = _dirichlet(seed)
        e = np.array([0.0, 1.0, 2.5])
        erg = states.ergotropy(p, e)
        assert erg >= -1e-15
        if states.is_passive(p, e):
            assert erg <= 1e-15
        else:
            assert erg > 0


class TestThermal:
    def test_thermal_is_completely_passive(self):
        e = np.array([0.0, 1.0, 3.0])
        tau = states.thermal_state(0.7, e)
        assert states.is_completely_passive(tau, e, tol=1e-12)

    def test_beta_inf_is_ground_state(self):
        tau = states.thermal_state(states.BETA_INF, [0.0, 1.0, 2.0])
        assert np.allclose(tau, [1.0, 0.0, 0.0])

    def test_beta_inf_shared_ground(self):
        tau = states.thermal_state(states.BETA_INF, [0.0, 0.0, 2.0])
        assert np.allclose(tau, [0.5, 0.5, 0.0])

    def test_close_levels_are_not_degenerate(self):
        # levels are degenerate only when their energies are equal
        tau = states.thermal_state(states.BETA_INF, [0.0, 1e-13, 1.0])
        assert tau.tolist() == [1.0, 0.0, 0.0]
        assert not states.is_passive([0.3, 0.4, 0.3], [0.0, 1e-13, 1.0])
        assert states.virtual_temperatures([0.6, 0.4, 5e-324], [0.0, 1.0, 2.0]).cold == (
            math.log(0.4) - math.log(5e-324))  # p1/p2 overflows; its log does not

    @pytest.mark.parametrize("energies, ground", [
        ([0.0, 1.0, 2.0], [1.0, 0.0, 0.0]), ([0.0, 0.0, 2.0], [0.5, 0.5, 0.0]),
    ])
    def test_beta_past_overflow_is_ground_state(self, energies, ground):
        # beta * (E2 - E0) overflows: those levels are empty, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(states.thermal_state(1e308, energies), ground)

    def test_large_beta_gap_product_is_not_the_ground_state(self):
        # beta * (E2 - E0) = 1000, yet the first gap is only 1e-3
        tau = states.thermal_state(1.0, [0.0, 1e-3, 1000.0])
        assert tau[1] / tau[0] == pytest.approx(math.exp(-1e-3), rel=1e-15)

    @given(st.floats(0.0, 1e300), st.sampled_from([[0.0, 1.0, 3.0], [-2.0, 0.5, 0.5, 7.0]]))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_gibbs_weights(self, beta, energies):
        # the same floats as exp(-beta (E - E0)) / Z wherever that product stays finite
        e = np.array(energies)
        w = np.exp(-beta * (e - e[0]))
        assert np.array_equal(states.thermal_state(beta, e), w / w.sum())

    @pytest.mark.parametrize("p, e, thermal", [
        ([1.0, 0.0, 0.0], [0.0, 1.0, 2.0], True),
        ([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], True),
        ([0.5, 0.5, 0.0], [0.0, 1.0, 2.0], False),
    ], ids=["ground", "shared_ground", "excited_level_filled"])
    def test_zero_tail_is_thermal_only_as_the_ground_state(self, p, e, thermal):
        # a passive state with an empty level is thermal (at beta = inf) iff
        # exactly the ground level(s) are filled
        assert states.is_completely_passive(p, e, tol=1e-9) is thermal

    def test_athermal_passive_not_completely_passive(self, worked_example):
        p, e = worked_example
        assert states.is_passive(p, e)
        assert not states.is_completely_passive(p, e, tol=1e-9)

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_beta_roundtrip_energy(self, beta):
        e = np.array([0.0, 1.0, 3.0])
        target = states.mean_energy(states.thermal_state(beta, e), e)
        assert math.isclose(states.beta_from_energy(target, e), beta, rel_tol=1e-8)

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_beta_roundtrip_entropy(self, beta):
        e = np.array([0.0, 1.0, 3.0])
        target = states.entropy(states.thermal_state(beta, e))
        assert math.isclose(states.beta_from_entropy(target, e), beta, rel_tol=1e-8)

    def test_beta_from_energy_ground(self):
        assert states.is_beta_inf(states.beta_from_energy(0.0, [0.0, 1.0, 2.0]))

    def test_beta_from_entropy_uniform(self):
        assert states.beta_from_entropy(math.log(3), [0.0, 1.0, 2.0]) == 0.0

    def test_beta_from_energy_just_above_uniform(self):
        # within tol of the uniform-state energy 4/3: the bisection stops at beta = 0
        assert states.beta_from_energy(4 / 3 + 1e-11, [0.0, 1.0, 3.0]) == 0.0


class TestVirtualTemperatures:
    def test_worked_example_table(self, worked_example):
        p, e = worked_example
        vt = states.virtual_temperatures(p, e)
        assert math.isclose(vt.hot, math.log(0.5 / 0.35) / 3.0)
        assert math.isclose(vt.cold, math.log(0.35 / 0.15) / 1.0)
        assert vt.hot < vt.cold  # hot pair is hotter
        assert math.isclose(vt.beta(2, 0), math.log(0.5 / 0.15) / 4.0)

    def test_degenerate_pair_raises(self):
        vt = states.virtual_temperatures([0.4, 0.3, 0.3], [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            vt.beta(2, 1)

    def test_zero_upper_level_gives_sentinel(self):
        vt = states.virtual_temperatures([0.6, 0.4, 0.0], [0.0, 1.0, 2.0])
        assert states.is_beta_inf(vt.beta(2, 1))

    def test_spread_with_a_sentinel_is_infinite(self):
        vt = states.virtual_temperatures([0.6, 0.4, 0.0], [0.0, 1.0, 2.0])
        assert vt.spread() == math.inf

    def test_thermal_spread_zero(self):
        e = np.array([0.0, 1.0, 3.0])
        vt = states.virtual_temperatures(states.thermal_state(1.1, e), e)
        assert vt.spread() <= 1e-12


def test_entropy_and_energy_basics():
    assert states.entropy([1.0, 0.0, 0.0]) == 0.0
    assert math.isclose(states.entropy([1 / 3] * 3), math.log(3))
    assert states.mean_energy([0.5, 0.35, 0.15], [0, 3, 4]) == pytest.approx(1.65)
    pt = states.diagram_point([0.5, 0.35, 0.15], [0, 3, 4])
    assert pt.energy == pytest.approx(1.65)
