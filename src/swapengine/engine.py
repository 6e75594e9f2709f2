"""Closed-form evaluation of the swap cycle on a passive qutrit.

The reusable machine distribution and the per-cycle work, heats and
efficiency are evaluated from geometric partial sums of the population
ratios r1 = p0/p1 and r2 = p1/p2.

Numerics: the textbook expression for the machine occupations subtracts
nearly equal geometric sums and loses all precision for skewed states, so
every coefficient is assembled from an equivalent all-positive-term form.
When r1**m or r2**n exceeds 1e12 the whole assembly switches to log space.
The same formulas hold for every cycle with m, n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states

_LOG_SWITCH = math.log(1e12)
_RATIO_ONE_TOL = 1e-9


def geometric_sum(h: int, lam: float) -> float:
    """Partial sum of powers of lam from 0 to h, with the boundary
    conventions sum(-1) = 0 and sum(-2) = -1/lam."""
    if h < -2:
        raise ValueError("need h >= -2")
    if lam <= 0:
        raise ValueError("need lam > 0")
    if h == -2:
        return -1.0 / lam
    if h == -1:
        return 0.0
    if abs(1.0 - lam) > _RATIO_ONE_TOL:
        return (1.0 - lam ** (h + 1)) / (1.0 - lam)
    return float(np.sum(lam ** np.arange(h + 1, dtype=float)))


def _log_geometric_sum(h: np.ndarray, log_lam: float) -> np.ndarray:
    """log of geometric_sum for h >= -1 (vectorized); -inf at h = -1."""
    h = np.asarray(h, dtype=float)
    out = np.full(h.shape, -np.inf)
    pos = h >= 0
    if abs(log_lam) <= _RATIO_ONE_TOL:
        out[pos] = np.log(h[pos] + 1.0)
    elif log_lam > 0:
        hp = h[pos]
        out[pos] = (hp + 1.0) * log_lam + np.log1p(-np.exp(-(hp + 1.0) * log_lam)) - math.log(
            math.expm1(log_lam)
        )
    else:
        hp = h[pos]
        out[pos] = np.log1p(-np.exp((hp + 1.0) * log_lam)) - math.log(-math.expm1(log_lam))
    return out


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.squeeze(m, axis=axis) if axis is not None else m.ravel()[0]
    return out + np.log(np.sum(np.exp(a - m), axis=axis))


def _check_cycle_input(p, m: int, n: int) -> np.ndarray:
    p = states.validate_state(p, 3)
    if np.any(p <= 0.0):
        raise ValueError("closed form needs strictly positive probabilities")
    if not (p[0] >= p[1] >= p[2]):
        raise ValueError("state must be passive (non-increasing probabilities)")
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m = {m}, n = {n}")
    return p


def _unnormalized_direct(r1: float, r2: float, m: int, n: int) -> np.ndarray:
    """Machine occupations up to a common factor, all-positive assembly."""
    t1 = lambda h: geometric_sum(h, r1)
    t2 = lambda h: geometric_sum(h, r2)
    u = np.empty(m + n)
    r2n = r2**n
    t2n2 = t2(n - 2)
    for j in range(m):
        jp = m - j
        u[j] = r1**jp * t1(m - 1 - jp) + r2n * t1(jp - 1) + r2 * t2n2 * r1**jp + r1**jp * r2n
    r1m = r1**m
    t1m1 = t1(m - 1)
    for j in range(m, m + n - 2):
        jp = m + n - (j + 2)
        u[j] = (
            r2 * r1m * t2(jp - 1)
            + r2 ** (jp + 1) * t1m1
            + r2 ** (jp + 1) * r1m
            + r2 ** (jp + 2) * t2(n - 2 - jp)
        )
    if n > 1:  # for n = 1 this index is the last hot level, set above
        u[m + n - 2] = r2 * t1(m) + r2**2 * t2n2
    u[m + n - 1] = t1m1 + r2 * t2(n - 1)
    return u


def _log_unnormalized(l1: float, l2: float, m: int, n: int) -> np.ndarray:
    """log of the same occupations, for ranges where powers overflow."""
    logu = np.empty(m + n)
    jp = np.arange(1, m + 1, dtype=float)
    terms = np.stack(
        [
            jp * l1 + _log_geometric_sum(m - 1 - jp, l1),
            n * l2 + _log_geometric_sum(jp - 1, l1),
            l2 + jp * l1 + _log_geometric_sum(np.array([n - 2.0]), l2),
            jp * l1 + n * l2,
        ]
    )
    logu[:m] = _logsumexp(terms, axis=0)[::-1]  # jp = m - j runs opposite to j
    if n > 2:
        jp = np.arange(1, n - 1, dtype=float)
        terms = np.stack(
            [
                l2 + m * l1 + _log_geometric_sum(jp - 1, l2),
                (jp + 1) * l2 + _log_geometric_sum(np.array([m - 1.0]), l1),
                (jp + 1) * l2 + m * l1,
                (jp + 2) * l2 + _log_geometric_sum(n - 2 - jp, l2),
            ]
        )
        logu[m : m + n - 2] = _logsumexp(terms, axis=0)[::-1]
    tail = np.array(
        [
            [l2 + _log_geometric_sum(np.array([float(m)]), l1)[0],
             2 * l2 + _log_geometric_sum(np.array([n - 2.0]), l2)[0]],
            [_log_geometric_sum(np.array([m - 1.0]), l1)[0],
             l2 + _log_geometric_sum(np.array([n - 1.0]), l2)[0]],
        ]
    )
    last = _logsumexp(tail, axis=1)
    if n > 1:  # for n = 1 this index is the last hot level, set above
        logu[m + n - 2] = last[0]
    logu[m + n - 1] = last[1]
    return logu


def _machine_solution(p: np.ndarray, m: int, n: int):
    """(q, delta_p, alpha) from the closed form."""
    r1 = p[0] / p[1]
    r2 = p[1] / p[2]
    l1 = math.log(r1)
    l2 = math.log(r2)
    if m * l1 <= _LOG_SWITCH and n * l2 <= _LOG_SWITCH:
        u = _unnormalized_direct(r1, r2, m, n)
        total = u.sum()
        q = u / total
        alpha = p[1] / total
        delta_p = alpha * (r2**n - r1**m)
    else:
        logu = _log_unnormalized(l1, l2, m, n)
        log_total = _logsumexp(logu)
        q = np.exp(logu - log_total)
        q /= q.sum()  # tidy roundoff from the exponentials
        alpha = math.exp(math.log(p[1]) - log_total)
        a, b = n * l2, m * l1
        if a == b:
            delta_p = 0.0
        else:
            log_diff = max(a, b) + math.log1p(-math.exp(-abs(a - b)))
            delta_p = math.copysign(math.exp(math.log(p[1]) + log_diff - log_total), a - b)
    return q, delta_p, alpha


def machine_distribution(p, m: int, n: int) -> np.ndarray:
    """Closed-form stationary machine distribution for the (m, n) cycle."""
    p = _check_cycle_input(p, m, n)
    q, _, _ = _machine_solution(p, m, n)
    return q


@dataclass(frozen=True)
class CycleOutcome:
    """Everything one cycle produces: the probability unit, work, per-swap
    and total heats, efficiency, and the final/machine distributions."""

    m: int
    n: int
    delta_p: float
    work: float
    q_hot: float
    q_cold: float
    heat_hot: float
    heat_cold: float
    efficiency: float
    efficiency_meaningful: bool
    final_system: np.ndarray
    machine: np.ndarray
    alpha_coeff: float
    final_active: bool


def _outcome_from_parts(p, energies, m, n, q, delta_p, alpha) -> CycleOutcome:
    de10, de21 = states.gaps(energies)
    work = (m * de10 - n * de21) * delta_p
    q_hot = de10 * delta_p
    q_cold = de21 * delta_p
    final = np.array(
        [p[0] + m * delta_p, p[1] - (m + n) * delta_p, p[2] + n * delta_p]
    )
    if delta_p >= 0:
        final_active = final[1] < final[2]
    else:
        final_active = final[0] < final[1]
    efficiency = 1.0 - (n * de21) / (m * de10) if m * de10 > 0 else math.nan
    return CycleOutcome(
        m=m,
        n=n,
        delta_p=delta_p,
        work=work,
        q_hot=q_hot,
        q_cold=q_cold,
        heat_hot=m * q_hot,
        heat_cold=n * q_cold,
        efficiency=efficiency,
        efficiency_meaningful=work > 0,
        final_system=final,
        machine=q,
        alpha_coeff=alpha,
        final_active=bool(final_active),
    )


def run_cycle(p, energies, m: int, n: int) -> CycleOutcome:
    """Evaluate one (m, n) cycle on a strictly positive passive qutrit.

    The closed form covers every cycle with m, n >= 1.
    """
    p = _check_cycle_input(p, m, n)
    energies = states.validate_hamiltonian(energies, 3)
    if not states.is_passive(p, energies):
        raise ValueError("run_cycle needs a passive state")
    q, delta_p, alpha = _machine_solution(p, m, n)
    return _outcome_from_parts(p, energies, m, n, q, delta_p, alpha)
