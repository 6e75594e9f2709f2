"""Classification of passive qutrit states and activation-region geometry.

With the gap ratio pinned to integers (M dE10 = N dE21), passive states
split into R1 / R2 / R3 by comparing N ln(p1/p2) against M ln(p0/p1); the
cycle (m, n) activates exactly the states where the analogous comparison
with exponents (n, m) has the same sign as m dE10 - n dE21. All
comparisons are done in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states
from ._kernels import coverage_counts

R1 = "R1"
R2 = "R2"
R3 = "R3"

# relative tolerance of the log comparison deciding R3 membership
R3_TOL = 1e-9


@dataclass(frozen=True)
class RationalGapRatio:
    """Integers with M * dE10 = N * dE21 (within the tolerance used to
    construct them)."""

    m_int: int
    n_int: int

    def __post_init__(self):
        if self.m_int < 1 or self.n_int < 0:
            raise ValueError("need M >= 1 and N >= 0")


def approximate_gap_ratio(energies, tol: float = 1e-9) -> RationalGapRatio:
    """Smallest-denominator (M, N) with |M dE10 - N dE21| <= tol * dE21.

    Walks the continued-fraction convergents of dE10/dE21; convergents are
    the best approximations in exactly the |M x - N| sense, so the first one
    inside tolerance has the smallest admissible M.
    """
    de10, de21 = states.gaps(energies)
    if de21 <= 0:
        raise ValueError("dE21 must be positive")
    x = de10 / de21
    # convergents N_k / M_k of x
    n_prev, m_prev = 1, 0
    n_cur, m_cur = int(math.floor(x)), 1
    frac = x - math.floor(x)
    for _ in range(64):
        if m_cur >= 1 and abs(m_cur * x - n_cur) <= tol:
            return RationalGapRatio(m_int=m_cur, n_int=n_cur)
        if frac == 0.0:
            break
        a = math.floor(1.0 / frac)
        frac = 1.0 / frac - a
        n_prev, n_cur = n_cur, int(a) * n_cur + n_prev
        m_prev, m_cur = m_cur, int(a) * m_cur + m_prev
    return RationalGapRatio(m_int=m_cur, n_int=n_cur)


def _log_ratios(p) -> tuple[float, float]:
    p = states.validate_state(p, 3)
    if np.any(p <= 0.0):
        raise ValueError("region classification needs strictly positive probabilities")
    return math.log(p[0] / p[1]), math.log(p[1] / p[2])


def classify(p, ratio: RationalGapRatio, tol: float = R3_TOL) -> str:
    """R1, R2 or R3 for the given rational gap ratio; the comparison is
    invariant under a common rescaling of all energies."""
    l1, l2 = _log_ratios(p)
    lhs = ratio.n_int * l2
    rhs = ratio.m_int * l1
    if abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)):
        return R3
    return R1 if lhs > rhs else R2


def in_activation_region(p, energies, m: int, n: int) -> bool:
    """True iff the (m, n) cycle extracts strictly positive work from p."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m = {m}, n = {n}")
    l1, l2 = _log_ratios(p)
    de10, de21 = states.gaps(energies)
    lever = m * de10 - n * de21
    if lever == 0.0:
        return False
    gap = n * l2 - m * l1
    return gap > 0 if lever > 0 else gap < 0


def covering_cycle(p, ratio: RationalGapRatio, n_max: int, tol: float = R3_TOL):
    """Smallest cycle of the covering family that activates p.

    For p in R1 the family is m = (M/N) n + 1 with n chosen so m is an
    integer; for p in R2 the mirrored family n = (N/M) m + 1 is scanned.
    Returns (m, n) or None when nothing up to n_max works; raises for R3
    states, which no cycle activates.
    """
    label = classify(p, ratio, tol)
    if label == R3:
        raise ValueError("state is completely passive (R3): never activable")
    l1, l2 = _log_ratios(p)
    m_int, n_int = ratio.m_int, ratio.n_int
    if label == R1:
        for n in range(1, n_max + 1):
            if (m_int * n) % n_int:
                continue
            m = m_int * n // n_int + 1
            if n * l2 > m * l1:
                return m, n
    else:
        for m in range(1, n_max + 1):
            if (n_int * m) % m_int:
                continue
            n = n_int * m // m_int + 1
            if n * l2 < m * l1:
                return m, n
    return None


def k_activability_witness(p, energies, m: int, n: int) -> bool:
    """Certify that the (m+n)-fold tensor power of p is active via the
    level pair |1...1> vs |0..0 2..2> (m zeros, n twos)."""
    p = states.validate_state(p, 3)
    e = states.validate_hamiltonian(energies, 3)
    if np.any(p <= 0.0):
        return False
    energy_gap = (m + n) * e[1] - (m * e[0] + n * e[2])
    log_gap = (m + n) * math.log(p[1]) - (m * math.log(p[0]) + n * math.log(p[2]))
    return (energy_gap > 0 and log_gap > 0) or (energy_gap < 0 and log_gap < 0)


def passive_simplex_grid(resolution: int) -> np.ndarray:
    """Uniform barycentric grid over strictly positive passive qutrit
    states: all (i, j, k)/resolution with i >= j >= k >= 1."""
    if resolution < 10:
        raise ValueError("need resolution >= 10")
    pts = []
    for k in range(1, resolution // 3 + 1):
        for j in range(k, (resolution - k) // 2 + 1):
            i = resolution - j - k
            pts.append((i, j, k))
    return np.array(pts, dtype=float) / resolution


def coverage_fraction(
    ratio: RationalGapRatio,
    m: int,
    n: int,
    grid_resolution: int,
    eps_band: float = 1e-3,
) -> float:
    """Fraction of grid points of R1 activated by the (m, n) cycle.

    R1 membership excludes an eps_band-wide strip (in the log comparison)
    around R3, where no finite cycle ever wins. Degenerate cycles with
    m dE10 = n dE21 activate nothing and return 0.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m = {m}, n = {n}")
    grid = passive_simplex_grid(grid_resolution)
    lever = m * ratio.n_int - n * ratio.m_int  # sign of m dE10 - n dE21
    in_r1, activated = coverage_counts(
        grid, ratio.m_int, ratio.n_int, m, n, lever, eps_band
    )
    if in_r1 == 0:
        return 0.0
    return activated / in_r1
