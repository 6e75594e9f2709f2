"""Ground-truth simulator for the swap cycle.

Builds the literal sequence of system-machine swaps as a permutation on the
joint outcome space, computes marginals, and solves the machine fixed point
(reusability condition) by GTH elimination, one path for every d. One pass
of the cycle in reverse over machine levels gives its landing map; a solve
reads the machine chain's rates off it and never forms the d x d update
matrix. The chain is a ring, the cycle's machine pairs, so the solve holds
it as a doubly linked list and eliminates in O(d) time and memory. It
eliminates in level order, top down, as GTH on any sparse form of the chain
does (the tests keep a dict form as the reference): each fold is then the
same float operation, so the fixed point is the same to the last bit, which
an elimination in ring order is not. Everything here is exact distribution
arithmetic; no sampling."""

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


def _landing(steps) -> list:
    """The landing map of build_cycle's steps: entry (i, k) of the (3, d)
    nested list is the machine level l that mass at joint entry (i, k) lands
    on, so system level i adds p_i to the update matrix's entry (l, k).

    One pass of the cycle's swaps, in reverse order, over the joint's
    machine-level labels gives it: the labels are the landing map of no
    swaps, and swapping step t's two entries in the landing map of the
    steps after t gives that of step t onwards."""
    d = len(steps)  # a cycle of d = m + n machine levels has m + n swaps
    dest = [list(range(d)) for _ in range(3)]
    for a, b, c, e in reversed(steps):
        dest[a][e], dest[b][c] = dest[b][c], dest[a][e]
    return dest


def _ring_fixed_point(order: list, landing: list, rates: list) -> np.ndarray:
    """Fixed point of q -> b q for the machine chain of a cycle whose levels
    form the ring order[0] -> order[1] -> ... -> order[-1] -> order[0]: mass
    at level k from system level i lands on landing[i][k], at rate rates[i].

    GTH elimination (Grassmann, Taksar & Heyman 1985) on the ring held as a
    doubly linked list: fr[k] is the rate of k -> nxt[k] and bk[k] that of
    k -> prv[k]. Levels leave in level order, top down; the top t's rates
    fold into its two neighbours, which become each other's. Outflows are
    summed, never taken as 1 - b[k, k], so no entry loses relative accuracy
    to cancellation, and no sum has over two terms. Raises ValueError when a
    landing is off the ring, and SingularFixedPointError when a level, as it
    leaves, has no outflow or no inflow."""
    d = len(order)
    nxt, prv = [0] * d, [0] * d
    for k, l in zip(order, order[1:] + order[:1]):
        nxt[k], prv[l] = l, k
    fr, bk = [0.0] * d, [0.0] * d
    for row, r in zip(landing, rates):
        for k, l in enumerate(row):
            if l == nxt[k]:  # d = 2 has nxt == prv: all its rates are in fr
                fr[k] += r
            elif l == prv[k]:
                bk[k] += r
            elif l != k:
                raise ValueError(f"level {k} lands on {l}, off the cycle's ring")
    folds = []  # (t, a, w_a, b, w_b): q[t] = q[a] w_a + q[b] w_b
    for t in range(d - 1, 0, -1):
        a, b = prv[t], nxt[t]
        s = bk[t] + fr[t]
        if s == 0.0 or fr[a] == bk[b] == 0.0:
            raise SingularFixedPointError("fixed point is not unique or not strictly positive")
        wa, wb = fr[a] / s, bk[b] / s
        folds.append((t, a, wa, b, wb))
        if t > 2:  # four levels or more: a and b become neighbours
            fr[a], bk[b] = wa * fr[t], wb * bk[t]
        elif t == 2:  # three: a -> b was bk[a] and b -> a fr[b]; as at d = 2, fr holds the last two
            fr[a], bk[a], fr[b], bk[b] = bk[a] + wa * fr[t], 0.0, fr[b] + wb * bk[t], 0.0
        nxt[a], prv[b] = b, a
    q = [1.0] + [0.0] * (d - 1)
    for t, a, wa, b, wb in reversed(folds):
        q[t] = q[a] * wa + q[b] * wb
    q = np.array(q)
    return q / q.sum()


def stationary_machine(p, m: int, n: int) -> np.ndarray:
    """The machine distribution left invariant by one cycle on the passive
    qutrit p > 0, from one GTH solve for every d. The solve and its residual
    b q - q run on the cycle's 3d landings, and the elimination is O(d)
    since the machine chain is a ring, so every step is O(d) in time and
    memory.
    Raises SingularFixedPointError when the chain has a level with no
    outflow or no inflow, so that the fixed point is not unique or not
    strictly positive, or when the residual exceeds 1e-12. Entries whose
    true value is below the float range come out as exact zeros, as they do
    in engine.machine_distribution: p = (1 - 1e-150 - 1e-300, 1e-150,
    1e-300) gives two at (3, 4)."""
    return _stationary_machine(states.passive_qutrit(p), build_cycle(m, n))


def _stationary_machine(p: np.ndarray, steps) -> np.ndarray:
    """stationary_machine of a checked passive qutrit, for build_cycle's steps."""
    landing = _landing(steps)
    # the ring's order: each hot step's machine level c, each cold step's e
    q = _ring_fixed_point([c if a == 0 else e for a, _, c, e in steps], landing, p.tolist())
    flat = np.array(landing, dtype=np.intp).ravel()
    residual = np.max(np.abs(np.bincount(flat, np.outer(p, q).ravel(), q.size) - q))
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
