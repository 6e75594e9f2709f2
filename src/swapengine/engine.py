"""Closed-form evaluation of the swap cycle on a passive qutrit.

The reusable machine distribution and the per-cycle work, heats and
efficiency come from geometric partial sums of the Boltzmann factors
s1 = p1/p0 of the hot pair (0,1) and s2 = p2/p1 of the cold pair (1,2),
one formula per stroke: the hot stroke's for machine levels 0 ... m - 1
and the top level, the cold stroke's for the rest. Each reads one table
of sums, of k = 0 ... m powers of s1 and of k = 0 ... n - 1 powers of s2.
A table depends only on its factor, so calls share it: the module keeps
the longest table built for each of at most 16 factors, and empties that
map when it is full. The outcome's scalars are Python floats.

Numerics: the textbook expression for the machine occupations subtracts
nearly equal geometric sums and loses all precision for skewed states, so
both formulas add only positive terms. Each partial sum of powers of a
factor is one expm1 quotient of its log, accurate for every factor,
including those within rounding of 1, and a factor of exactly 1 sums to
the term count. Both factors are at most 1 for a passive state, so no
power overflows at any m, n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states


_SUMS: dict[float, list[float]] = {}  # log_lam -> the longest _geometric_sums table built
_SUMS_MAX = 16  # factors kept; a qudit search holds 2 per window


def _geometric_sums(count: int, log_lam: float) -> list[float]:
    """Sums of lam**i for 0 <= i < k, for k = 0 ... count - 1, each as
    expm1(k ln lam) / expm1(ln lam): no cancellation as lam nears 1, and k
    at lam = 1. Each entry depends only on k and lam, so one table per
    factor, kept in _SUMS and extended in place, serves every call; the
    caller gets a fresh list."""
    table = _SUMS.get(log_lam)
    if table is None:
        if len(_SUMS) >= _SUMS_MAX:
            _SUMS.clear()
        table = _SUMS[log_lam] = []
    start = len(table)
    if start < count:
        expm1 = math.expm1  # looked up once per build, not once per entry
        d = expm1(log_lam)
        table += ([expm1(k * log_lam) / d for k in range(start, count)] if log_lam
                  else map(float, range(start, count)))
    return table[:count]


def _geometric_sum(k: int, log_lam: float) -> float:
    """Entry k of _geometric_sums(k + 1, log_lam), the same quotient, built
    alone: no table is built or kept."""
    return math.expm1(k * log_lam) / math.expm1(log_lam) if log_lam else float(k)


def _factors(p: np.ndarray, m: int, n: int):
    """(p1, s1, s2, g1, g2) of the passive qutrit or window p for cycles up to
    (m, n): the factors s1 = p1/p0 and s2 = p2/p1 and their _geometric_sums
    tables, m + 1 and n entries long."""
    p0, p1, p2 = p.tolist()  # Python floats, faster than numpy scalars here
    s1 = p1 / p0
    s2 = p2 / p1
    return p1, s1, s2, _geometric_sums(m + 1, math.log(s1)), _geometric_sums(n, math.log(s2))


def _strokes(p1: float, s1: float, s2: float, g1: list[float], g2: list[float], m: int, n: int):
    """(u, total, delta_p, alpha) of the (m, n) cycle from _factors: the
    machine occupations u up to the common factor 1/total, total = u.sum().
    The occupation is the hot stroke's sum at j = 0 ... m (level j, and at
    j = m the top level m + n - 1) or the cold stroke's at i = 1 ... n - 1
    (level m + i - 1). An entry of g1 or g2 does not depend on the table's
    length, so tables built for a longer cycle serve every shorter one."""
    s1m, s2n = s1**m, s2**n
    hot, cold = [], []
    for j in range(m + 1):
        s1j = s1**j
        hot.append(s1 * s2n * g1[j] + s1j * s1 * g1[m - j] + s1j * s2 * g2[n - 1] + s1j)
    for i in range(1, n):
        s2i = s2**i
        cold.append(s2i * s2 * g2[n - 1 - i] + s2i * s1 * g1[m] + s2i + s1m * g2[i])
    u = np.array(hot[:m] + cold + hot[m:])
    total = float(u.sum())  # so the outcome's arithmetic runs on Python floats
    return u, total, p1 * (s1m - s2n) / total, p1 * s1m * s2n / total


def machine_distribution(p, m: int, n: int) -> np.ndarray:
    """Closed-form stationary machine distribution for the (m, n) cycle."""
    p = states.passive_qutrit(p)
    states.check_cycle(m, n)
    u, total, _, _ = _strokes(*_factors(p, m, n), m, n)
    return u / total


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


def run_cycle(p, energies, m: int, n: int) -> CycleOutcome:
    """Evaluate one (m, n) cycle on a strictly positive passive qutrit.

    The closed form covers every cycle with m, n >= 1.
    """
    p = states.passive_qutrit(p)
    states.check_cycle(m, n)
    return _run_cycle(p, states.validate_hamiltonian(energies, 3), m, n)


def _run_cycle(p: np.ndarray, energies: np.ndarray, m: int, n: int, k: int = 0) -> CycleOutcome:
    """run_cycle on a checked cycle, ladder and passive qutrit. With k, the
    cycle on levels k, k + 1, k + 2 of a checked state and ladder whose
    window passed reduction's window check: it runs on the window's raw
    populations, and final_system is the whole state with those levels moved."""
    w = p[k : k + 3]
    e0, e1, e2 = energies.tolist()[k : k + 3]
    de10, de21 = e1 - e0, e2 - e1
    states._check_passive_on(w, de10, de21)
    lever = states._lever(m, n, de10, de21)
    return _outcome(p, k, m, n, de10, de21, lever, _strokes(*_factors(w, m, n), m, n))


def _outcome(p: np.ndarray, k: int, m: int, n: int, de10: float, de21: float, lever: float,
             strokes) -> CycleOutcome:
    """_run_cycle's outcome from the window's checked gaps and lever and the
    _strokes tuple of its (m, n) cycle."""
    u, total, delta_p, alpha = strokes
    q = u / total
    # + 0.0 turns the -0.0 of a resonant cycle (lever 0) with delta_p < 0 into 0.0
    work = lever * delta_p + 0.0
    q_hot = de10 * delta_p
    q_cold = de21 * delta_p
    p0, p1, p2 = p[k : k + 3].tolist()
    f0, f1, f2 = p0 + m * delta_p, p1 - (m + n) * delta_p, p2 + n * delta_p
    final = p.copy()
    final[k], final[k + 1], final[k + 2] = f0, f1, f2  # faster than a slice from a tuple
    # efficiency = work / heat drawn in: heat enters through the (0,1) pair
    # when delta_p >= 0, and through the (1,2) pair when the cycle runs the other way
    if delta_p >= 0:
        final_active = f1 < f2
        heat_in, heat_out = m * de10, n * de21
    else:
        final_active = f0 < f1
        heat_in, heat_out = n * de21, m * de10
    efficiency = 1.0 - heat_out / heat_in if heat_in > 0 else math.nan
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
        efficiency_meaningful=bool(work > 0 and heat_in > 0),
        final_system=final,
        machine=q,
        alpha_coeff=alpha,
        final_active=bool(final_active),
    )
