import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapengine import states


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            states.validate_state([0.5, 0.5], d=3)


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
