import numpy as np
import pytest

from swapengine import engine, oracle
from tests.conftest import random_passive_qutrits


class TestCycleStructure:
    def test_smallest_cycle_steps(self):
        steps = oracle.build_cycle(1, 1)
        assert steps == [oracle.SwapStep(0, 1, 0, 1), oracle.SwapStep(1, 2, 0, 1)]

    def test_step_counts(self):
        for m, n in [(1, 1), (2, 3), (4, 5)]:
            assert len(oracle.build_cycle(m, n)) == m + n

    def test_rejects_zero_swaps(self):
        with pytest.raises(ValueError):
            oracle.build_cycle(0, 2)

    def test_cycle_is_a_permutation(self):
        # applying the cycle to each joint basis state must be a bijection
        m, n = 3, 4
        steps = oracle.build_cycle(m, n)
        images = set()
        for i in range(3):
            for k in range(m + n):
                joint = np.zeros((3, m + n))
                joint[i, k] = 1.0
                out = oracle.apply_cycle(joint, steps)
                assert out.sum() == 1.0
                images.add(tuple(np.argwhere(out == 1.0)[0]))
        assert len(images) == 3 * (m + n)

    def test_rejects_negative_indices(self):
        # a negative index would wrap to the last machine column
        with pytest.raises(ValueError):
            oracle.SwapStep(0, 1, -1, 0)
        with pytest.raises(ValueError):
            oracle.SwapStep(-1, 1, 0, 1)

    def test_mass_conserved(self):
        rng = np.random.default_rng(7)
        joint = rng.dirichlet(np.ones(3 * 6)).reshape(3, 6)
        out = oracle.apply_cycle(joint, oracle.build_cycle(2, 4))
        assert out.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(out >= 0)


class TestStationaryMachine:
    def test_worked_example_machine(self, worked_example):
        p, _ = worked_example
        q = oracle.stationary_machine(p, 1, 1)
        assert np.allclose(q, [17 / 27, 10 / 27], atol=1e-12)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(11)
        for p in random_passive_qutrits(rng, 5, min_p=1e-3):
            for m, n in [(1, 1), (2, 2), (3, 5)]:
                q = oracle.stationary_machine(p, m, n)
                joint = oracle.apply_cycle(
                    oracle.product_joint(p, q), oracle.build_cycle(m, n)
                )
                assert np.max(np.abs(oracle.machine_marginal(joint) - q)) < 1e-12

    def test_update_matrix_column_stochastic(self):
        p = np.array([0.6, 0.25, 0.15])
        b = oracle.update_matrix(p, 3, 4)
        assert np.allclose(b.sum(axis=0), 1.0, atol=1e-14)
        assert np.all(b >= 0)

    @pytest.mark.parametrize("p, m, n", [
        (np.array([0.55, 0.3, 0.15]), 17, 23),
        # crosscheck-like: ln(p0/p1) = ln(p1/p2) = 0.8
        (np.exp([0.8, 0.0, -0.8]) / np.exp([0.8, 0.0, -0.8]).sum(), 257, 257),
    ], ids=["d40", "d514"])
    def test_matches_closed_form_at_large_d(self, p, m, n):
        q = oracle.stationary_machine(p, m, n)
        assert np.max(np.abs(q - engine.machine_distribution(p, m, n))) <= 1e-13

    @pytest.mark.parametrize("m, n", [(100, 100), (250, 250)])
    def test_skewed_state_solves(self, m, n):
        # p1 and p2 are 1e-8 and nearly equal: the chain is irreducible
        eps = 1e-8
        p = np.array([1 - 2 * eps, eps, 0.999999 * eps])
        p /= p.sum()
        q = oracle.stationary_machine(p, m, n)
        assert np.all(q > 0)
        assert np.max(np.abs(q - engine.machine_distribution(p, m, n))) <= 1e-12

    def test_reducible_chain_raises(self):
        # two closed blocks, {0, 1} and {2, 3}: every mixture is a fixed point
        b = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.6],
            [0.0, 0.0, 0.7, 0.4],
        ])
        with pytest.raises(oracle.SingularFixedPointError):
            oracle._stationary_vector(b)

    def test_rejects_zero_probabilities(self):
        with pytest.raises(ValueError):
            oracle.stationary_machine([0.7, 0.3, 0.0], 2, 2)


def _reference_update_matrix(p, m, n):
    """The update matrix from one cycle per joint basis state: column k of
    B_i is the machine marginal of unit mass at (i, k) after the cycle."""
    d = m + n
    steps = oracle.build_cycle(m, n)
    basis = []
    for i in range(3):
        b = np.zeros((d, d))
        for k in range(d):
            joint = np.zeros((3, d))
            joint[i, k] = 1.0
            b[:, k] = oracle.machine_marginal(oracle.apply_cycle(joint, steps))
        basis.append(b)
    return p[0] * basis[0] + p[1] * basis[1] + p[2] * basis[2]


class TestUpdateMatrix:
    def test_matches_basis_state_reference(self):
        rng = np.random.default_rng(5)
        pairs = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(20, 29), (40, 38)]
        for p in random_passive_qutrits(rng, 3, min_p=1e-3):
            for m, n in pairs:
                assert np.array_equal(
                    oracle.update_matrix(p, m, n), _reference_update_matrix(p, m, n)
                ), (m, n)

    def test_landing_vectors_read_only(self):
        for t in oracle._landing(3, 4):
            assert t.shape == (7,)
            with pytest.raises(ValueError):
                t[0] = 0


class TestMutualInformation:
    def test_product_has_zero_information(self):
        joint = oracle.product_joint([0.5, 0.3, 0.2], [0.6, 0.4])
        assert oracle.mutual_information(joint) == 0.0

    def test_cycle_builds_correlations(self, worked_example):
        p, _ = worked_example
        q = oracle.stationary_machine(p, 1, 1)
        joint = oracle.apply_cycle(oracle.product_joint(p, q), oracle.build_cycle(1, 1))
        assert oracle.mutual_information(joint) > 1e-4

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            oracle.mutual_information(np.ones((3, 2)))
