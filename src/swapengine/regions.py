"""Classification of passive qutrit states and activation-region geometry.

With the gap ratio pinned to integers (M dE10 = N dE21), passive states
split into R1 / R2 / R3 by comparing N ln(p1/p2) against M ln(p0/p1); the
cycle (m, n) activates exactly the states where the analogous comparison
with exponents (n, m) has the same sign as m dE10 - n dE21. All
comparisons are done in log space. `classify`, `in_activation_region` and
its many-cycle form `activation_flags` take one state or an (N, 3) array of
states, decided in one numpy pass; one state runs as a batch of one, so
both forms take the same lines. `grid_activation` gives fig5 both on
`passive_simplex_grid`, labels and every cycle's flags, in one call that
reads the grid and its log ratios from a cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import states
from ._kernels import coverage_counts

R1 = "R1"
R2 = "R2"
R3 = "R3"

# relative tolerance of the log comparison deciding R3 membership
R3_TOL = 1e-9

# _labels' table: 1 where N ln(p1/p2) > M ln(p0/p1), 2 inside the R3 band
_LABELS = np.array([R2, R1, R3])


@dataclass(frozen=True)
class RationalGapRatio:
    """Integers M >= 1 and N >= 0 (ints or numpy integers, kept as Python
    ints so that no product wraps) with M * dE10 = N * dE21 (within the
    tolerance used to construct them)."""

    m_int: int
    n_int: int

    def __post_init__(self):
        if not (states._is_integer(self.m_int) and states._is_integer(self.n_int)):
            raise ValueError(f"need integers M and N, got M = {self.m_int!r}, N = {self.n_int!r}")
        if self.m_int < 1 or self.n_int < 0:
            raise ValueError("need M >= 1 and N >= 0")
        object.__setattr__(self, "m_int", int(self.m_int))
        object.__setattr__(self, "n_int", int(self.n_int))


def approximate_gap_ratio(energies, tol: float = 1e-9) -> RationalGapRatio:
    """Smallest-denominator (M, N) with |M dE10 - N dE21| <= tol * dE21.

    Walks the continued-fraction convergents of dE10/dE21; convergents are
    the best approximations in exactly the |M x - N| sense, so the first one
    inside tolerance has the smallest admissible M. Raises ValueError when
    none is: the expansion ends, or its next term passes the float range,
    first.
    """
    _, x = states.qutrit_ladder(energies)
    states.check_tol(tol)
    # convergents N_k / M_k of x
    n_prev, m_prev = 1, 0
    n_cur, m_cur = int(math.floor(x)), 1
    frac = x - math.floor(x)
    for _ in range(64):
        if m_cur >= 1 and abs(m_cur * x - n_cur) <= tol:
            return RationalGapRatio(m_int=m_cur, n_int=n_cur)
        if frac == 0.0 or 1.0 / frac == math.inf:  # the expansion ends, or its next term overflows
            break
        a = math.floor(1.0 / frac)
        frac = 1.0 / frac - a
        n_prev, n_cur = n_cur, int(a) * n_cur + n_prev
        m_prev, m_cur = m_cur, int(a) * m_cur + m_prev
    raise ValueError(f"no convergent of dE10/dE21 = {x!r} is within tol = {tol!r}")


def _log_ratios(p):
    """(ln(p0/p1), ln(p1/p2)) of a checked (N, 3) batch, each finite: where
    a quotient overflows, the entry is the difference of the logs."""
    with np.errstate(over="ignore"):
        l1, l2 = np.log(p[:, 0] / p[:, 1]), np.log(p[:, 1] / p[:, 2])
    for out, hi, lo in ((l1, p[:, 0], p[:, 1]), (l2, p[:, 1], p[:, 2])):
        big = np.isinf(out)
        if big.any():
            out[big] = np.log(hi[big]) - np.log(lo[big])
    return l1, l2


def classify(p, ratio: RationalGapRatio, tol: float = R3_TOL):
    """R1, R2 or R3 for the given rational gap ratio; the comparison is
    invariant under a common rescaling of all energies.

    p is one state, or an (N, 3) array of states, which gives an array of
    N labels.
    """
    p = states.passive_qutrit(p)
    states.check_tol(tol)
    labels = _labels(*_log_ratios(np.atleast_2d(p)), ratio, tol)
    return labels if p.ndim == 2 else str(labels[0])


def _labels(l1, l2, ratio: RationalGapRatio, tol: float):
    """classify's labels from the _log_ratios of a checked batch."""
    # tol = 0 times an infinite side is NaN; a huge tol makes the band inf, so R3
    with np.errstate(invalid="ignore", over="ignore"):
        lhs, rhs = ratio.n_int * l2, ratio.m_int * l1
        band = tol * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
    dist = abs(lhs - rhs)
    # a huge M or N can make a side infinite: such a row is never R3, though inf <= tol * inf
    return _LABELS[np.where(np.isfinite(dist) & (dist <= band), 2, lhs > rhs)]


def in_activation_region(p, energies, m: int, n: int):
    """True iff the (m, n) cycle extracts strictly positive work from p.

    p is one state, or an (N, 3) array of states, which gives a bool array
    of N flags. A state that is not passive on the ladder (unequal
    populations on equal energies) raises, as in run_cycle.
    """
    return activation_flags(p, energies, [(m, n)])[0]


def activation_flags(p, energies, cycles):
    """in_activation_region of p for each (m, n) of cycles, in their order.

    The state and ladder are checked and the log ratios taken once; then
    each cycle's m, n and lever are checked in turn, so the first bad cycle
    raises. Gives a list with one entry per cycle: a bool for one state,
    a bool array of N flags for an (N, 3) array of states.
    """
    p = states.passive_qutrit(p)
    flags = _cycle_flags(p, *_log_ratios(np.atleast_2d(p)), energies, cycles)
    return flags if p.ndim == 2 else [bool(active[0]) for active in flags]


def _cycle_flags(p, l1, l2, energies, cycles):
    """activation_flags of the checked p from its _log_ratios: the ladder, p
    passive on it, then each cycle's m, n and lever are checked in turn."""
    de10, de21 = states.gaps(energies)
    states._check_passive_on(p, de10, de21)
    flags = []
    for m, n in cycles:
        states.check_cycle(m, n)
        flags.append(_active(l1, l2, m, n, states._lever(m, n, de10, de21)))
    return flags


def _active(l1, l2, m: int, n: int, lever):
    """The one log-space activation test, on (ln p0/p1, ln p1/p2) as arrays or
    floats: the log gap n l2 - m l1 has the nonzero sign of the finite lever
    m dE10 - n dE21, so a degenerate cycle (lever 0) activates nothing."""
    gap = n * l2 - m * l1
    if lever == 0:
        return np.zeros(np.shape(gap), bool)
    return gap > 0.0 if lever > 0 else gap < 0.0


def covering_cycle(p, ratio: RationalGapRatio, n_max: int, tol: float = R3_TOL):
    """Smallest cycle of the covering family that activates the one state p.

    For p in R1 the family is m = (M/N) n + 1 with n chosen so m is an
    integer; for p in R2 the mirrored family n = (N/M) m + 1 is scanned.
    Returns (m, n) or None when nothing up to n_max works; raises for R3
    states, which no cycle activates.
    """
    states._check_integer(n_max, "n_max")
    p = states.validate_state(p, 3)
    states._check_passive_row(*p.tolist())
    states.check_tol(tol)
    l1, l2 = _log_ratios(p[None])
    label = _labels(l1, l2, ratio, tol)[0]
    if label == R3:
        raise ValueError("state is completely passive (R3): never activable")
    l1, l2 = float(l1[0]), float(l2[0])  # Python floats: the scan tests one cycle at a time
    big_m, big_n = ratio.m_int, ratio.n_int
    a, b = (big_m, big_n) if label == R1 else (big_n, big_m)
    for k in range(1, n_max + 1):
        if (a * k) % b:
            continue
        m, n = (a * k // b + 1, k) if label == R1 else (k, a * k // b + 1)
        if _active(l1, l2, m, n, m * big_n - n * big_m):  # the lever: +N on R1's family, -M on R2's
            return m, n
    return None


def k_activability_witness(p, energies, m: int, n: int) -> bool:
    """Certify that the (m+n)-fold tensor power of p is active via the
    level pair |1...1> vs |0..0 2..2> (m zeros, n twos); the certificate
    holds for any state, even one that in_activation_region refuses."""
    p, e = states.state_and_ladder(p, energies, 3)
    states.check_cycle(m, n)
    (p0, p1, p2), (e0, e1, e2) = p.tolist(), e.tolist()
    # the energy gap (m + n) E1 - (m E0 + n E2) is the cycle's lever
    lever = states._lever(m, n, e1 - e0, e2 - e1)
    if min(p0, p1, p2) <= 0.0:
        return False
    # the log gap (m + n) ln p1 - m ln p0 - n ln p2 is in_activation_region's
    return bool(_active(*_log_ratios(p[None]), m, n, lever)[0])


def passive_simplex_grid(resolution: int) -> np.ndarray:
    """Uniform barycentric grid over strictly positive passive qutrit
    states: all (i, j, k)/resolution with i >= j >= k >= 1."""
    states._check_integer(resolution, "resolution")
    if resolution < 10:
        raise ValueError("need resolution >= 10")
    # k ascending, then j from k to (resolution - k) // 2, then i = the rest
    k = np.arange(1, resolution // 3 + 1)
    count = (resolution - k) // 2 - k + 1
    first = np.cumsum(count) - count  # row of each k's first point
    k = np.repeat(k, count)
    j = k + np.arange(k.size) - np.repeat(first, count)
    i = resolution - j - k
    return np.stack([i, j, k], axis=1).astype(float) / resolution


def grid_activation(resolution: int, energies, cycles):
    """fig5's map: (passive_simplex_grid(resolution), its classify labels
    for approximate_gap_ratio(energies), its activation_flags for cycles).

    The ladder is checked, then the resolution, then the grid is checked
    passive on the ladder, as activation_flags checks it; then each cycle in
    turn. The grid and its log ratios come from the cache coverage_fraction
    reads, so the package's own grid is built at most once and not checked
    again; the grid returned is a fresh copy.
    """
    ratio = approximate_gap_ratio(energies)
    states._check_integer(resolution, "resolution")  # before the cache, which keys 50.0 as 50
    grid, l1, l2 = _grid_log_ratios(resolution)
    return grid.copy(), _labels(l1, l2, ratio, R3_TOL), _cycle_flags(grid, l1, l2, energies, cycles)


@lru_cache(maxsize=8)
def _grid_log_ratios(resolution: int):
    """Read-only passive_simplex_grid(resolution) and its _log_ratios."""
    grid = passive_simplex_grid(resolution)
    l1, l2 = _log_ratios(grid)
    grid.flags.writeable = l1.flags.writeable = l2.flags.writeable = False
    return grid, l1, l2


@lru_cache(maxsize=8)
def _r1_log_ratios(resolution: int, big_m: int, big_n: int, eps_band: float):
    """Read-only _grid_log_ratios(resolution) at the grid's R1 points for
    M dE10 = N dE21, outside the eps_band strip around R3."""
    _, l1, l2 = _grid_log_ratios(resolution)
    r1 = big_n * l2 - big_m * l1 > eps_band
    l1, l2 = l1[r1], l2[r1]
    l1.flags.writeable = l2.flags.writeable = False
    return l1, l2


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
    states.check_cycle(m, n)
    states.check_tol(eps_band, "eps_band")
    states._check_integer(grid_resolution, "grid_resolution")  # before the cache, which keys 50.0 as 50
    l1, l2 = _r1_log_ratios(grid_resolution, ratio.m_int, ratio.n_int, eps_band)
    if l1.size == 0:
        return 0.0
    lever = int(m) * ratio.n_int - int(n) * ratio.m_int  # m dE10 - n dE21's sign; Python ints never wrap
    return coverage_counts(_active(l1, l2, m, n, lever)) / l1.size
