"""Diagonal states on an energy ladder: passivity, ergotropy, virtual
temperatures, thermal states and energy/entropy observables.

States are plain probability vectors (numpy arrays) over the eigenbasis of a
non-decreasing energy ladder. Entropy is in nats throughout. An infinite
inverse temperature (ground state) is represented by the sentinel
``BETA_INF``; it is never fed into exponentials. Validation lives here;
private cores (`_gibbs`, `_entropy`, ...) take checked arrays as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Ground-state sentinel for inverse temperature. Compare with `is_beta_inf`;
# never use in arithmetic.
BETA_INF = math.inf

_NORM_TOL = 1e-12
_NOT_PASSIVE_QUTRIT = "need a normalized passive qutrit with p0 >= p1 >= p2 > 0"


def is_beta_inf(beta: float) -> bool:
    return math.isinf(beta)


def validate_state(probs, d: int | None = None) -> np.ndarray:
    """Coerce to a probability vector; raise ValueError on bad input."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("state must be a 1-d probability vector of length >= 2")
    if d is not None and p.size != d:
        raise ValueError(f"state has length {p.size}, expected {d}")
    # Python floats, faster than numpy on short vectors; negated tests, so that
    # a NaN entry fails them; entries at most 1 cannot overflow the sum
    total = 0.0
    for v in p.tolist():
        if not 0.0 <= v <= 1.0:
            raise ValueError("state has entries that are negative, above 1 or NaN")
        total += v  # numpy's order below 8 entries; the builtin sum is compensated from 3.12 on
    if p.size >= 8:  # numpy sums pairwise from 8 entries on
        total = float(p.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"state not normalized: sum = {total!r}")
    return p


def validate_hamiltonian(energies, d: int | None = None) -> np.ndarray:
    """Coerce to a non-decreasing energy ladder."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("energy ladder must be 1-d with length >= 2")
    if d is not None and e.size != d:
        raise ValueError(f"ladder has length {e.size}, expected {d}")
    # comparisons in Python floats, not differences, so that nothing overflows
    # before the span check; each entry is tested finite, -inf first included
    x = e.tolist()
    prev = x[0]
    for v in x:
        if not (math.isfinite(v) and v >= prev):
            raise ValueError("energies must be finite and non-decreasing")
        prev = v
    if not math.isfinite(x[-1] - x[0]):  # Python floats: inf, silently
        raise ValueError("energy span E[-1] - E[0] overflows the float range")
    return e


def state_and_ladder(probs, energies, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """validate_state(probs, d), then validate_hamiltonian on a ladder of the state's length."""
    p = validate_state(probs, d)
    return p, validate_hamiltonian(energies, p.size)


def passive_qutrit(probs) -> np.ndarray:
    """Coerce to a passive qutrit, p0 >= p1 >= p2 > 0, or an (N, 3) batch of them."""
    p = np.asarray(probs, dtype=float)
    if p.ndim == 2:
        if p.shape[1] != 3:
            raise ValueError(f"batch of states must have shape (N, 3), got {p.shape}")
        p0, p1, p2 = p.T
        ok = ((1.0 >= p0) & (p0 >= p1) & (p1 >= p2) & (p2 > 0.0)).all()
        ok = ok and (abs(p.sum(axis=1) - 1.0) <= 1e-12).all()
        if not ok:  # negated, so that NaN fails it
            raise ValueError(_NOT_PASSIVE_QUTRIT)
    else:
        p = validate_state(p, 3)
        _check_passive_row(*p.tolist())
    return p


def _check_passive_row(p0: float, p1: float, p2: float) -> None:
    """passive_qutrit's batch test on one row of Python floats, with its error."""
    # negated, so that NaN fails it; the row sums left to right, as numpy's does
    if not (1.0 >= p0 >= p1 >= p2 > 0.0 and abs(p0 + p1 + p2 - 1.0) <= 1e-12):
        raise ValueError(_NOT_PASSIVE_QUTRIT)


def _is_integer(k) -> bool:
    """True for an int or a numpy integer; a bool, a float or NaN is none."""
    # type() first: check_cycle runs once per cycle, and isinstance costs more
    return type(k) is int or isinstance(k, np.integer)


def _check_integer(value, name: str) -> None:
    """Raise ValueError unless value is an int or a numpy integer."""
    if not _is_integer(value):
        raise ValueError(f"need an integer {name}, got {value!r}")


def _check_real(value, name: str) -> None:
    """Raise ValueError on a bool, which a range check reads as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"need a real {name}, got {value!r}")


def check_cycle(m: int, n: int) -> None:
    """Raise ValueError unless the (m, n) swap cycle has integers m, n >= 1."""
    if not (_is_integer(m) and _is_integer(n)):
        raise ValueError(f"need integers m and n, got m = {m!r}, n = {n!r}")
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m = {m}, n = {n}")


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless the tolerance is finite and >= 0; a bool is none."""
    if isinstance(tol, (bool, np.bool_)) or not 0.0 <= tol < math.inf:  # negated, so that NaN fails
        raise ValueError(f"need a finite {name} >= 0, got {tol!r}")


def gaps(energies) -> tuple[float, float]:
    """Qutrit gaps (E1 - E0, E2 - E1), as Python floats."""
    e = validate_hamiltonian(energies, 3)
    return float(e[1] - e[0]), float(e[2] - e[1])


def qutrit_ladder(energies) -> tuple[np.ndarray, float]:
    """A qutrit ladder with E2 > E1, and its gap ratio dE10/dE21 as a Python float."""
    e = validate_hamiltonian(energies, 3)
    if not e[2] > e[1]:
        raise ValueError("need E2 > E1: the gap ratio dE10/dE21 is undefined")
    ratio = float(e[1] - e[0]) / float(e[2] - e[1])  # Python floats: inf past the float range, silently
    if math.isinf(ratio):
        raise ValueError("dE10/dE21 overflows the float range")
    return e, ratio


def _lever(m: int, n: int, de10: float, de21: float) -> float:
    """m dE10 - n dE21, the sign of a cycle's work; ValueError past the float range."""
    lever = m * de10 - n * de21  # Python floats: inf or nan past the float range, silently
    if not math.isfinite(lever):
        raise ValueError("m dE10 - n dE21 overflows the float range")
    return lever


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) of positive Python floats with b <= 1, finite where a/b overflows."""
    r = a / b  # Python floats: inf past the float range, silently; b <= 1, so never 0
    return math.log(r) if r < math.inf else math.log(a) - math.log(b)


def mean_energy(probs, energies) -> float:
    p, e = state_and_ladder(probs, energies)
    return float(p @ e)


def entropy(probs) -> float:
    """Shannon/von Neumann entropy in nats, with 0 ln 0 = 0."""
    return _entropy(validate_state(probs))


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def is_passive(probs, energies, tol: float = 0.0) -> bool:
    """True iff occupations are non-increasing along the energy order.

    Degenerate levels (equal energies) must carry equal probabilities; this is
    the stability requirement that makes passivity well defined on them.
    """
    p, e = state_and_ladder(probs, energies)
    check_tol(tol)
    return _is_passive(p, e, tol)


def _is_passive(p: np.ndarray, e: np.ndarray, tol: float = 0.0) -> bool:
    p, e = p.tolist(), e.tolist()
    for i in range(len(p) - 1):
        if e[i + 1] == e[i]:
            if abs(p[i] - p[i + 1]) > max(tol, _NORM_TOL):
                return False
        elif p[i + 1] - p[i] > tol:
            return False
    return True


def _check_passive_on(p: np.ndarray, de10: float, de21: float) -> None:
    """Raise unless the checked passive qutrit p, or each row of an (N, 3)
    batch, is passive on a ladder with gaps de10, de21: a zero gap needs
    equal populations, as in _is_passive."""
    for gap, hi, lo in ((de10, 0, 1), (de21, 1, 2)):
        if gap == 0.0 and not (p[..., hi] - p[..., lo] <= _NORM_TOL).all():
            raise ValueError("state is not passive: equal energies need equal populations")


def passify(probs, energies) -> np.ndarray:
    """Sort occupations non-increasing along the energy order."""
    p, _ = state_and_ladder(probs, energies)
    return np.sort(p)[::-1].copy()


def ergotropy(probs, energies) -> float:
    """Maximal unitary work: <H>(state) - <H>(passified state). Non-negative."""
    p, e = state_and_ladder(probs, energies)
    return float((p - np.sort(p)[::-1]) @ e)


@dataclass(frozen=True)
class VirtualTemperatureTable:
    """Pairwise inverse temperatures beta_ij for level pairs with E_i > E_j.

    ``betas`` maps (i, j) with i > j in energy to beta_ij; degenerate pairs
    (equal energies) are listed in ``degenerate`` instead, and pairs whose
    upper level has zero probability carry the BETA_INF sentinel.
    """

    betas: dict = field(default_factory=dict)
    degenerate: frozenset = frozenset()

    def beta(self, i: int, j: int) -> float:
        key = (max(i, j), min(i, j))
        if key in self.degenerate:
            raise ValueError(f"virtual temperature undefined for degenerate pair {key}")
        return self.betas[key]

    @property
    def hot(self) -> float:
        """beta of the (0,1) pair, the hot virtual reservoir of a qutrit."""
        return self.beta(1, 0)

    @property
    def cold(self) -> float:
        """beta of the (1,2) pair, the cold virtual reservoir of a qutrit."""
        return self.beta(2, 1)

    def spread(self) -> float:
        """Max - min over finite pairwise betas (0 when fewer than two)."""
        finite = [b for b in self.betas.values() if not math.isinf(b)]
        if any(math.isinf(b) for b in self.betas.values()) and finite:
            return math.inf
        if len(finite) < 2:
            return 0.0
        return max(finite) - min(finite)


def virtual_temperatures(probs, energies) -> VirtualTemperatureTable:
    """beta_ij = ln(p_j/p_i) / (E_i - E_j) for every pair with E_i > E_j.

    Requires p_j > 0 for each queried pair; a zero upper-level probability
    gives the BETA_INF sentinel, a zero lower-level probability is an error.
    """
    return _virtual_temperatures(*state_and_ladder(probs, energies))


def _virtual_temperatures(p: np.ndarray, e: np.ndarray) -> VirtualTemperatureTable:
    p, e = p.tolist(), e.tolist()  # Python floats: a ratio past the float range is inf, silently
    betas: dict[tuple[int, int], float] = {}
    degen = set()
    for i in range(len(p)):
        for j in range(i):
            if e[i] == e[j]:
                degen.add((i, j))
                continue
            if p[j] <= 0.0:
                raise ValueError(f"zero probability at lower level {j} of pair ({i},{j})")
            if p[i] <= 0.0:
                betas[(i, j)] = BETA_INF
            else:
                betas[(i, j)] = _log_ratio(p[j], p[i]) / (e[i] - e[j])
    return VirtualTemperatureTable(betas=betas, degenerate=frozenset(degen))


def thermal_state(beta: float, energies) -> np.ndarray:
    """Gibbs state exp(-beta E_i)/Z; BETA_INF gives the (possibly shared)
    ground state."""
    e = validate_hamiltonian(energies)
    _check_real(beta, "beta")
    if not beta >= 0:  # negated, so that NaN fails it
        raise ValueError("beta must be >= 0")
    return _gibbs(beta, e)


def _gibbs(beta: float, e: np.ndarray) -> np.ndarray:
    if is_beta_inf(beta):
        ground = e == e[0]
        return ground / ground.sum()
    # shifted for stability; Python floats: an exponent past the range is -inf, silently
    w = np.exp([-float(beta) * x for x in (e - e[0]).tolist()])
    return w / w.sum()


@dataclass(frozen=True)
class DiagramPoint:
    energy: float
    entropy: float


def diagram_point(probs, energies) -> DiagramPoint:
    """(mean energy, entropy) coordinates in the energy-entropy diagram."""
    p, e = state_and_ladder(probs, energies)
    return DiagramPoint(float(p @ e), _entropy(p))


def _bisect_beta(f, energies: np.ndarray, max_iter: int = 200) -> float:
    """Root of the monotone-decreasing f(beta) on [0, exp underflow bound],
    to a relative width of 1e-14."""
    span = float(energies[-1] - energies[0])
    if span == 0.0:
        raise ValueError("flat energy ladder: every beta gives the same thermal state")
    lo, hi = 0.0, 700.0 / span
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:
        return 0.0
    if fhi >= 0.0:
        return BETA_INF
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def beta_from_energy(target_energy: float, energies, tol: float = 1e-10) -> float:
    """Inverse temperature whose thermal state has the given mean energy.

    Valid targets lie in [E0, <H>(uniform)]; the lower endpoint returns the
    BETA_INF sentinel. tol is relative to the ladder span E[-1] - E[0].
    """
    e = validate_hamiltonian(energies)
    check_tol(tol)
    _check_real(target_energy, "target energy")
    tol *= float(e[-1] - e[0])
    with np.errstate(over="ignore"):  # a sum past the float range is inf, rejected next
        e_uniform = float(e.mean())
    if math.isinf(e_uniform):
        raise ValueError("uniform-state energy overflows the float range")
    # negated tests, so that a NaN target fails them
    if not target_energy <= e_uniform + tol:
        raise ValueError(f"target energy {target_energy} above the uniform-state energy (beta < 0)")
    if not target_energy >= e[0] - tol:
        raise ValueError("target energy below the ground energy")
    if abs(target_energy - e[0]) <= tol:
        return BETA_INF
    # BETA_INF when the target lies between the ground energy and the coldest
    # representable thermal state
    return _bisect_beta(lambda b: float(_gibbs(b, e) @ e) - target_energy, e)


def beta_from_entropy(target_entropy: float, energies, tol: float = 1e-10) -> float:
    """Inverse temperature whose thermal state has the given entropy (nats)."""
    e = validate_hamiltonian(energies)
    check_tol(tol)
    _check_real(target_entropy, "target entropy")
    return _beta_from_entropy(target_entropy, e, tol)


def _beta_from_entropy(target_entropy: float, e: np.ndarray, tol: float = 1e-10) -> float:
    smax = math.log(e.size)
    if not -tol <= target_entropy <= smax + tol:  # negated, so that NaN fails it
        raise ValueError(f"target entropy {target_entropy} outside [0, ln {e.size}]")
    if target_entropy <= tol:
        return BETA_INF
    if target_entropy >= smax - tol:
        return 0.0
    return _bisect_beta(lambda b: _entropy(_gibbs(b, e)) - target_entropy, e)


def is_completely_passive(probs, energies, tol: float) -> bool:
    """True iff the state is thermal for some beta >= 0: all non-degenerate
    pairwise virtual temperatures agree within tol."""
    p, e = state_and_ladder(probs, energies)
    check_tol(tol)
    if not _is_passive(p, e, _NORM_TOL):
        return False
    if np.any(p == 0.0):
        # passive with zero tail: thermal iff exactly the ground state(s)
        return bool(np.all((p > 0) == (e == e[0])))
    return _virtual_temperatures(p, e).spread() <= tol
