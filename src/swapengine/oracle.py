"""Ground-truth simulator for the swap cycle.

Builds the literal sequence of system-machine swaps as a permutation on the
joint outcome space, computes marginals, and solves the machine fixed point
(reusability condition) by GTH elimination, one path for every d. One pass
of the cycle over the joint's entry labels gives its landing map, from which
the machine update matrix is built in O(d) plus a zero fill. Everything here
is exact distribution arithmetic; no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import states


class SingularFixedPointError(RuntimeError):
    """The reusability fixed point is singular or not unique."""


@dataclass(frozen=True)
class SwapStep:
    """Swap of system pair (a, b) against machine pair (c, e):
    exchanges |a, e> with |b, c> on the joint space."""

    a: int
    b: int
    c: int
    e: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.e) < 0:
            raise ValueError("swap indices must be non-negative")
        if self.a == self.b or self.c == self.e:
            raise ValueError("swap pairs must be distinct")


def build_cycle(m: int, n: int) -> list[SwapStep]:
    """The m + n swap steps of the cycle, in application order.

    Hot stroke: (0,1) against machine pairs (0,1), (1,2), ..., (m-2,m-1),
    then (m-1, m+n-1). Cold stroke: (1,2) against (m+n-2, m+n-1) down to
    (m, m+1), then (0, m).
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    steps = [SwapStep(0, 1, j, j + 1) for j in range(m - 1)]
    steps.append(SwapStep(0, 1, m - 1, m + n - 1))
    steps.extend(SwapStep(1, 2, j, j + 1) for j in range(m + n - 2, m - 1, -1))
    steps.append(SwapStep(1, 2, 0, m))
    return steps


def apply_cycle(joint: np.ndarray, steps) -> np.ndarray:
    """Apply each swap (a transposition of probability mass) in order."""
    out = np.array(joint, dtype=float)
    for s in steps:
        tmp = out[s.a, s.e]
        out[s.a, s.e] = out[s.b, s.c]
        out[s.b, s.c] = tmp
    return out


def product_joint(p, q) -> np.ndarray:
    """Joint distribution of uncorrelated system and machine."""
    return np.outer(np.asarray(p, float), np.asarray(q, float))


def system_marginal(joint: np.ndarray) -> np.ndarray:
    return joint.sum(axis=1)


def machine_marginal(joint: np.ndarray) -> np.ndarray:
    return joint.sum(axis=0)


@lru_cache(maxsize=256)
def _landing(m: int, n: int) -> np.ndarray:
    """Landing map of the cycle, read-only, shape (3, d): row t_i holds, for
    system level i, t_i[k] = the flat index in the d x d update matrix of the
    entry that column k reaches, so that B_i = 1 at t_i and 0 elsewhere.

    One pass of the cycle over the joint's own entry labels gives it: entry
    (j, l) of the result names the source (i, k) whose mass lands there.
    Float labels are exact below 2**53.
    """
    d = m + n
    src = apply_cycle(np.arange(3.0 * d).reshape(3, d), build_cycle(m, n))
    dest = np.empty(3 * d, dtype=np.intp)
    dest[src.ravel().astype(np.intp)] = np.arange(3 * d) % d
    landing = dest.reshape(3, d) * d + np.arange(d)
    landing.setflags(write=False)
    return landing


def update_matrix(p, m: int, n: int) -> np.ndarray:
    """Column-stochastic matrix of the machine-marginal update for state p:
    p_i added at system level i's landing entries, level by level."""
    p = states.validate_state(p, 3)
    d = m + n
    b = np.zeros(d * d)
    for p_i, t_i in zip(p, _landing(m, n)):
        b[t_i] += p_i
    return b.reshape(d, d)


def _stationary_vector(b: np.ndarray) -> np.ndarray:
    """Fixed point of q -> b q, b column-stochastic, by GTH elimination
    (Grassmann, Taksar & Heyman 1985): levels leave from the top down, their
    rates folded into the levels feeding them; outflows are summed, never
    taken as 1 - b[k, k], so no entry loses relative accuracy to cancellation."""
    d = b.shape[0]
    out = [{} for _ in range(d)]  # out[k][j]: rate of k -> j, j != k
    into = [{} for _ in range(d)]  # into[j][k]: the same; j's weights once it leaves
    rows, cols = np.nonzero(b)
    for j, k, r in zip(rows.tolist(), cols.tolist(), b[rows, cols].tolist()):
        if j != k:
            out[k][j] = into[j][k] = r
    for top in range(d - 1, 0, -1):
        s = sum(out[top].values())
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
    q = [1.0] * d
    for top in range(1, d):
        q[top] = sum(q[i] * w for i, w in into[top].items())
    q = np.array(q)
    return q / q.sum()


def stationary_machine(p, m: int, n: int) -> np.ndarray:
    """The machine distribution left invariant by one cycle on state p: one
    GTH solve for every d (its elimination is O(d): the machine chain is a
    ring). Raises SingularFixedPointError when the fixed point is not unique
    or not strictly positive, or its residual exceeds 1e-12."""
    p = states.validate_state(p, 3)
    if np.any(p <= 0.0):
        raise ValueError("stationary machine needs strictly positive system probabilities")
    b = update_matrix(p, m, n)
    q = _stationary_vector(b)
    residual = np.max(np.abs(b @ q - q))
    if not residual <= 1e-12:  # a NaN from overflow fails too
        raise SingularFixedPointError(f"fixed-point residual too large: {residual:g}")
    return q


def mutual_information(joint: np.ndarray) -> float:
    """I(S:M) = S(marg_S) + S(marg_M) - S(joint), in nats; clipped at 0."""
    j = np.asarray(joint, dtype=float)
    if np.any(j < 0) or abs(j.sum() - 1.0) > 1e-12:
        raise ValueError("joint must be a normalized distribution")

    def _h(x):
        nz = x[x > 0]
        return float(-np.sum(nz * np.log(nz)))

    info = _h(system_marginal(j)) + _h(machine_marginal(j)) - _h(j.ravel())
    return max(info, 0.0)
