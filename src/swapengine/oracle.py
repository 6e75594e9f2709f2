"""Ground-truth simulator for the swap cycle.

Builds the literal sequence of system-machine swaps as a permutation on the
joint outcome space, computes marginals, and solves the machine fixed point
(reusability condition) by GTH elimination, one path for every d. One pass
of the cycle over the joint's entry labels gives its landing map; a solve
reads the machine update matrix's 3d entries off it, in O(d) time and
memory, and never forms the d x d matrix. Everything here is exact
distribution arithmetic; no sampling.
"""

from __future__ import annotations

import numpy as np

from . import states


class SingularFixedPointError(RuntimeError):
    """The reusability fixed point is singular or not unique."""


def build_cycle(m: int, n: int) -> list[tuple[int, int, int, int]]:
    """The m + n swap steps of the cycle, in application order; step
    (a, b, c, e) exchanges |a, e> with |b, c> on the joint space.

    Hot stroke: (0,1) against machine pairs (0,1), (1,2), ..., (m-2,m-1),
    then (m-1, m+n-1). Cold stroke: (1,2) against (m+n-2, m+n-1) down to
    (m, m+1), then (0, m).
    """
    states.check_cycle(m, n)
    steps = [(0, 1, j, j + 1) for j in range(m - 1)]
    steps.append((0, 1, m - 1, m + n - 1))
    steps.extend((1, 2, j, j + 1) for j in range(m + n - 2, m - 1, -1))
    steps.append((1, 2, 0, m))
    return steps


def apply_cycle(joint: np.ndarray, steps) -> np.ndarray:
    """Apply each swap (a transposition of probability mass) in order."""
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise ValueError(f"joint must be 2-d, got shape {j.shape}")
    rows, cols = j.shape
    out = j.tolist()
    for a, b, c, e in steps:
        # type() first: it is the common case, and every step of every cycle pays it
        if not (type(a) is type(b) is type(c) is type(e) is int
                or all(map(states._is_integer, (a, b, c, e)))):
            raise ValueError(f"swap indices must be integers, got {a, b, c, e}")
        if not (0 <= a < rows and 0 <= b < rows and 0 <= c < cols and 0 <= e < cols):
            if a < 0 or b < 0 or c < 0 or e < 0:  # it would wrap to the last row or column
                raise ValueError("swap indices must be non-negative")
            raise ValueError(f"swap step {a, b, c, e} out of range for joint shape {rows, cols}")
        if a == b or c == e:
            raise ValueError("swap pairs must be distinct")
        out[a][e], out[b][c] = out[b][c], out[a][e]
    return np.array(out)


def product_joint(p, q) -> np.ndarray:
    """Joint distribution of uncorrelated system and machine."""
    return np.outer(np.asarray(p, float), np.asarray(q, float))


def system_marginal(joint: np.ndarray) -> np.ndarray:
    return joint.sum(axis=1)


def machine_marginal(joint: np.ndarray) -> np.ndarray:
    return joint.sum(axis=0)


def _landing(steps) -> np.ndarray:
    """The landing map of build_cycle's steps: entry (i, k) of the (3, d)
    array is the machine level l that mass at joint entry (i, k) lands on,
    so system level i adds p_i to the update matrix's entry (l, k).

    One pass of the cycle's swaps over the joint's integer entry labels
    gives it: entry (j, l) of the result names the source whose mass lands
    there."""
    d = len(steps)  # a cycle of d = m + n machine levels has m + n swaps
    src = np.arange(3 * d).reshape(3, d).tolist()
    for a, b, c, e in steps:
        src[a][e], src[b][c] = src[b][c], src[a][e]
    dest = np.empty((3, d), dtype=np.intp)
    np.put(dest, src, np.arange(3 * d) % d)
    return dest


def _stationary_vector(d: int, rows: list, cols: list, rates: list) -> np.ndarray:
    """Fixed point of q -> b q, b column-stochastic d x d with the entries
    b[rows[i], cols[i]] = rates[i], repeated ones summed, by GTH elimination
    (Grassmann, Taksar & Heyman 1985): levels leave from the top down, their
    rates folded into the levels feeding them; outflows are summed, never
    taken as 1 - b[k, k], so no entry loses relative accuracy to
    cancellation. On the cycle's ring no sum here has over two terms, so the
    entries' order cannot change a float."""
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
            raise SingularFixedPointError("fixed point is not unique or not strictly positive")
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


def stationary_machine(p, m: int, n: int) -> np.ndarray:
    """The machine distribution left invariant by one cycle on the passive
    qutrit p > 0, from one GTH solve for every d. The solve and its residual
    b q - q run on the cycle's 3d landings, and the elimination is O(d)
    since the machine chain is a ring, so every step is O(d) in time and
    memory.
    Raises SingularFixedPointError when the fixed point is not unique or not
    strictly positive, or its residual exceeds 1e-12."""
    return _stationary_machine(states.passive_qutrit(p), build_cycle(m, n))


def _stationary_machine(p: np.ndarray, steps) -> np.ndarray:
    """stationary_machine of a checked passive qutrit, for build_cycle's steps."""
    landing = _landing(steps).ravel()
    d = landing.size // 3
    q = _stationary_vector(d, landing.tolist(), list(range(d)) * 3, np.repeat(p, d).tolist())
    residual = np.max(np.abs(np.bincount(landing, np.outer(p, q).ravel(), d) - q))
    if not residual <= 1e-12:  # a NaN from overflow fails too
        raise SingularFixedPointError(f"fixed-point residual too large: {residual:g}")
    return q


def mutual_information(joint: np.ndarray) -> float:
    """I(S:M) = S(marg_S) + S(marg_M) - S(joint), in nats; clipped at 0."""
    return _information(joint)[0]


def _information(joint) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(I(S:M), system marginal, its entropy, machine marginal) of the joint,
    checked once."""
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise ValueError(f"joint must be 2-d, got shape {j.shape}")
    # negated, so that NaN fails; entries at most 1 cannot overflow the sum
    if not (((j >= 0) & (j <= 1)).all() and abs(j.sum() - 1.0) <= 1e-12):
        raise ValueError("joint must be a normalized distribution")
    h = states._entropy
    sigma, machine = system_marginal(j), machine_marginal(j)
    s_sigma = h(sigma)
    info = s_sigma + h(machine) - h(j.ravel())
    return max(info, 0.0), sigma, s_sigma, machine
