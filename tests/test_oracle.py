import tracemalloc

import numpy as np
import pytest

from swapengine import engine, oracle, reduction
from tests.conftest import random_passive_qutrits


class TestCycleStructure:
    def test_smallest_cycle_steps(self):
        steps = oracle.build_cycle(1, 1)
        assert steps == [(0, 1, 0, 1), (1, 2, 0, 1)]

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
        # a negative index would wrap to the last machine column or system row
        joint = np.full((3, 2), 1 / 6)
        for steps in ([(0, 1, -1, 0)], [(-1, 1, 0, 1)]):
            with pytest.raises(ValueError, match="^swap indices must be non-negative$"):
                oracle.apply_cycle(joint, steps)

    def test_apply_cycle_guards(self):
        steps = oracle.build_cycle(2, 3)
        joint = np.random.default_rng(3).dirichlet(np.ones(15)).reshape(3, 5)
        before = joint.copy()
        oracle.apply_cycle(joint, steps)
        assert np.array_equal(joint, before)  # the input joint is not modified
        assert oracle.apply_cycle(np.arange(15).reshape(3, 5), steps).dtype == float
        # step (0, 1, 1, 4) is beyond a 4-column joint
        with pytest.raises(ValueError, match="out of range"):
            oracle.apply_cycle(np.full((3, 4), 1 / 12), steps)

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
        b = _update_matrix(p, 3, 4)
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
        # on the ring 0 - 1 - 2 - 3 - 0: two closed blocks, {0, 1} and {2, 3},
        # so every mixture is a fixed point; then 0 <-> 1 alone, with 2 and 3
        # draining into them and fed by neither
        order, rates = [0, 1, 2, 3], [0.5, 0.3, 0.2]
        for landing in ([[1, 0, 3, 2], [0, 1, 2, 3], [0, 1, 2, 3]],
                        [[1, 0, 1, 0], [0, 1, 2, 3], [0, 1, 2, 3]]):
            with pytest.raises(oracle.SingularFixedPointError):
                oracle._ring_fixed_point(order, landing, rates)
        # the reference refuses two closed blocks on any sparse chain
        b = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.6],
            [0.0, 0.0, 0.7, 0.4],
        ])
        rows, cols = np.nonzero(b)
        with pytest.raises(oracle.SingularFixedPointError):
            _reference_gth(4, rows.tolist(), cols.tolist(), b[rows, cols].tolist())

    def test_residual_guard_refuses_a_shifted_fixed_point(self, monkeypatch):
        # q moved off the ring's solve by +1e-9 and -1e-9 on alternate levels
        # fails the 1e-12 residual check
        real = oracle._ring_fixed_point

        def shifted(*args):
            q = real(*args)
            return q + 1e-9 * np.where(np.arange(q.size) % 2, 1.0, -1.0)

        p = [0.5, 0.35, 0.15]
        oracle.stationary_machine(p, 3, 4)
        monkeypatch.setattr(oracle, "_ring_fixed_point", shifted)
        with pytest.raises(oracle.SingularFixedPointError, match="^fixed-point residual too large: "):
            oracle.stationary_machine(p, 3, 4)

    def test_transient_end_of_ring_raises(self):
        # the elimination ends on levels 0 and 1, and here nothing feeds 0:
        # it drains into the closed pair 1 <-> 2, or at d = 2 into 1, which
        # keeps all its mass
        with pytest.raises(oracle.SingularFixedPointError):
            oracle._ring_fixed_point([0, 1, 2], [[1, 2, 1], [0, 1, 2], [0, 1, 2]], [0.5, 0.3, 0.2])
        with pytest.raises(oracle.SingularFixedPointError):
            oracle._ring_fixed_point([0, 1], [[1, 1], [0, 1], [0, 1]], [0.5, 0.3, 0.2])

    def test_landing_off_the_ring_raises(self):
        # (0, 1, 2, 5) joins levels 2 and 5, which are not neighbours on the
        # ring 0 - 1 - 2 - 6 - 5 - 4 - 3 - 0 the other steps give
        steps = oracle.build_cycle(3, 4)
        steps[2] = (0, 1, 2, 5)
        with pytest.raises(ValueError, match="off the cycle's ring"):
            oracle._stationary_machine(np.array([0.5, 0.3, 0.2]), steps)

    @pytest.mark.parametrize("m, n, zeros", [(3, 4, 2), (10, 10, 15)])
    def test_entries_below_the_float_range_are_zero(self, m, n, zeros):
        # the true entries underflow: the solve returns exact zeros, the
        # closed form's own, rather than raising
        p = np.array([1 - 1e-150 - 1e-300, 1e-150, 1e-300])
        q = oracle.stationary_machine(p, m, n)
        assert np.count_nonzero(q == 0.0) == zeros
        assert np.array_equal(q, engine.machine_distribution(p, m, n))

    def test_solve_memory_is_linear_in_d(self):
        # the dense 2000 x 2000 update matrix alone would take 32 MB
        p = np.array([0.5, 0.3, 0.2])
        tracemalloc.start()
        try:
            oracle.stationary_machine(p, 1000, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_rejects_zero_probabilities(self):
        with pytest.raises(ValueError):
            oracle.stationary_machine([0.7, 0.3, 0.0], 2, 2)


def _reference_gth(d: int, rows: list, cols: list, rates: list) -> np.ndarray:
    """Fixed point of q -> b q, b column-stochastic d x d with the entries
    b[rows[i], cols[i]] = rates[i], repeated ones summed, by GTH elimination
    on any sparse chain: rates held as dicts, levels leaving from the top
    down, outflows summed. On the cycle's ring no sum here has over two
    terms, so the ring solve must give the same floats."""
    out = [{} for _ in range(d)]  # out[k][j]: rate of k -> j, j != k
    into = [{} for _ in range(d)]  # into[j][k]: the same; j's weights once it leaves
    for j, k, r in zip(rows, cols, rates):
        if j != k:
            out[k][j] = into[j][k] = out[k].get(j, 0.0) + r
    # running sums, not the builtin sum, which is compensated from Python 3.12 on
    for top in range(d - 1, 0, -1):
        s = 0.0
        for r in out[top].values():
            s += r
        if s == 0.0 or not into[top]:
            raise oracle.SingularFixedPointError("fixed point is not unique or not strictly positive")
        for j in out[top]:
            del into[j][top]
        for i in into[top]:
            w = into[top][i] = into[top][i] / s
            del out[i][top]
            for j, r in out[top].items():
                if j != i:
                    out[i][j] = into[j][i] = out[i].get(j, 0.0) + w * r
    q = [1.0] + [0.0] * (d - 1)
    for top in range(1, d):
        for i, w in into[top].items():
            q[top] += q[i] * w
    q = np.array(q)
    return q / q.sum()


def _reference_machine(p, m, n):
    """stationary_machine by the reference GTH on the landing map's 3d entries."""
    d = m + n
    landing = np.ravel(oracle._landing(oracle.build_cycle(m, n)))
    return _reference_gth(d, landing.tolist(), list(range(d)) * 3, np.repeat(p, d).tolist())


def _reference_landing(steps) -> np.ndarray:
    """The landing map forward: one pass of the swaps over the joint's
    entry labels names the source whose mass lands at each entry, and
    inverting that permutation gives each source's landing level."""
    d = len(steps)
    src = np.arange(3 * d).reshape(3, d).tolist()
    for a, b, c, e in steps:
        src[a][e], src[b][c] = src[b][c], src[a][e]
    dest = np.empty((3, d), dtype=np.intp)
    np.put(dest, src, np.arange(3 * d) % d)
    return dest


def _update_matrix(p, m, n):
    """The dense d x d update matrix from the solve's own landing map: p_i
    at (landing, k), summed where landings meet."""
    d = m + n
    b = np.zeros((d, d))
    np.add.at(b, (np.array(oracle._landing(oracle.build_cycle(m, n))), np.arange(d)), p[:, None])
    return b


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


_REFERENCE_PAIRS = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(20, 29), (40, 38)]


class TestUpdateMatrix:
    def test_matches_basis_state_reference(self):
        rng = np.random.default_rng(5)
        for p in random_passive_qutrits(rng, 3, min_p=1e-3):
            for m, n in _REFERENCE_PAIRS:
                assert np.array_equal(
                    _update_matrix(p, m, n), _reference_update_matrix(p, m, n)
                ), (m, n)

    def test_solve_matches_gth_on_reference_entries(self):
        # the solve's own entries give GTH what a scan of the dense reference gives
        pairs = _REFERENCE_PAIRS + [(257, 257)]
        qutrits = random_passive_qutrits(np.random.default_rng(6), len(pairs), min_p=1e-3)
        for p, (m, n) in zip(qutrits, pairs):
            b = _reference_update_matrix(p, m, n)
            rows, cols = np.nonzero(b)
            q = _reference_gth(m + n, rows.tolist(), cols.tolist(), b[rows, cols].tolist())
            assert np.array_equal(oracle.stationary_machine(p, m, n), q), (m, n)

    def test_ring_solve_is_bit_identical_to_reference_gth(self):
        # random and skewed states on every m, n <= 40, and the ends of the range
        rng = np.random.default_rng(36)
        skewed = []
        for eps in (1e-6, 1e-8, 1e-10):
            p = np.array([1 - 2 * eps, eps, 0.999999 * eps])
            skewed.append(p / p.sum())
        for m in range(1, 41):
            for n in range(1, 41):
                for p in random_passive_qutrits(rng, 1) + skewed:
                    assert np.array_equal(oracle.stationary_machine(p, m, n),
                                          _reference_machine(p, m, n)), (p, m, n)
        p = np.array([0.5, 0.3, 0.2])
        for m, n in [(257, 257), (1000, 1000), (3, 500), (500, 3), (1, 1)]:
            assert np.array_equal(oracle.stationary_machine(p, m, n), _reference_machine(p, m, n)), (m, n)

    def test_landing_map_is_built_fresh(self):
        # the solve keeps no state: each call builds its own writable map
        landing = oracle._landing(oracle.build_cycle(3, 4))
        assert np.shape(landing) == (3, 7)
        before = [row.copy() for row in landing]
        landing[0][0] = -1
        assert oracle._landing(oracle.build_cycle(3, 4)) == before
        assert not any(hasattr(f, "cache_clear") for f in vars(oracle).values())

    def test_landing_matches_forward_reference(self):
        # the reverse pass over machine levels against the forward pass over
        # entry labels and its inverse permutation
        rng = np.random.default_rng(37)
        pairs = [tuple(mn) for mn in rng.integers(1, 60, size=(300, 2)).tolist()] + [(1, 1), (257, 257)]
        for m, n in pairs:
            steps = oracle.build_cycle(m, n)
            assert oracle._landing(steps) == _reference_landing(steps).tolist(), (m, n)
        # build_cycle's swaps touch disjoint entries, so their order is moot
        # there; on swap lists that share entries only the reverse pass is right
        for d in (2, 3, 7, 40):
            for _ in range(50):
                steps = [(*rng.choice(3, 2, replace=False).tolist(), *rng.choice(d, 2, replace=False).tolist())
                         for _ in range(d)]
                assert oracle._landing(steps) == _reference_landing(steps).tolist(), steps

    def test_each_call_builds_its_cycle_once(self, monkeypatch, worked_example):
        # the solve's landing map and block_joint_cycle's swaps share one list
        built, real = [], oracle.build_cycle
        monkeypatch.setattr(oracle, "build_cycle", lambda m, n: built.append((m, n)) or real(m, n))
        oracle.stationary_machine(worked_example[0], 2, 3)
        assert built == [(2, 3)]
        built.clear()
        reduction.block_joint_cycle([0.4, 0.28, 0.12, 0.12, 0.08], [0.0, 3.0, 4.0, 9.0, 11.0], 1, 2, 3)
        assert built == [(2, 3)]

    def test_landing_graph_is_one_ring(self):
        # the O(d) solve and its order-free sums rest on this: an edge k - l
        # for every landing l != k, every level has two neighbours, and the
        # graph is connected
        for m in range(1, 31):
            for n in range(1, 31):
                d = m + n
                if d < 3:
                    continue
                nbrs = [set() for _ in range(d)]
                for row in oracle._landing(oracle.build_cycle(m, n)):
                    for k, l in enumerate(row):
                        if l != k:
                            nbrs[k].add(l)
                            nbrs[l].add(k)
                assert all(len(s) == 2 for s in nbrs), (m, n)
                seen, stack = {0}, [0]
                while stack:
                    for l in nbrs[stack.pop()] - seen:
                        seen.add(l)
                        stack.append(l)
                assert len(seen) == d, (m, n)


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

    def test_rejects_nan_entry(self):
        joint = oracle.product_joint([0.5, 0.3, 0.2], [0.6, 0.4])
        joint[1, 1] = np.nan
        with pytest.raises(ValueError):
            oracle.mutual_information(joint)


if __name__ == "__main__":
    # the oracle's solve and swap times, to compare two trees:
    # PYTHONPATH=src python -m tests.test_oracle
    import timeit

    p = np.exp([0.8, 0.0, -0.8]) / np.exp([0.8, 0.0, -0.8]).sum()

    def best(f, number):
        return min(timeit.repeat(f, number=number, repeat=5)) / number * 1e6

    print("stationary_machine at p = exp(0.8, 0, -0.8) / Z, m = d // 2, and its layers"
          " (landing map, ring elimination, residual check); best of 5, us")
    for d in (10, 48, 158, 514):
        m, number = d // 2, max(10, 5000 // d)
        steps = oracle.build_cycle(m, d - m)
        landing = oracle._landing(steps)
        order = [c if a == 0 else e for a, _, c, e in steps]
        q = oracle.stationary_machine(p, m, d - m)
        solve = best(lambda: oracle.stationary_machine(p, m, d - m), number)
        land = best(lambda: oracle._landing(steps), number)
        elim = best(lambda: oracle._ring_fixed_point(order, landing, p.tolist()), number)
        # the residual check as _stationary_machine computes it
        resid = best(lambda: np.max(np.abs(np.bincount(
            np.array(landing, dtype=np.intp).ravel(), np.outer(p, q).ravel(), d) - q)), number)
        print(f"d = {d}: {solve:,.0f} (landing {land:,.1f}, elimination {elim:,.1f}, residual {resid:,.1f})")

    print("apply_cycle(product_joint(p, q), build_cycle(m, n)) at q uniform, m = d // 2; best of 5")
    for d in (10, 48, 158, 514):
        m, number, q = d // 2, max(10, 5000 // d), np.full(d, 1 / d)
        swap = best(lambda: oracle.apply_cycle(oracle.product_joint(p, q), oracle.build_cycle(m, d - m)), number)
        print(f"d = {d}: {swap:,.1f} us")
