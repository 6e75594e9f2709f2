"""Diagonal states on an energy ladder: passivity, ergotropy, virtual
temperatures, thermal states and energy/entropy observables.

States are plain probability vectors (numpy arrays) over the eigenbasis of a
non-decreasing energy ladder. Entropy is in nats throughout. An infinite
inverse temperature (ground state) is represented by the sentinel
``BETA_INF``; it is never fed into exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Ground-state sentinel for inverse temperature. Compare with `is_beta_inf`;
# never use in arithmetic.
BETA_INF = math.inf

_NORM_TOL = 1e-12
_DEGEN_TOL = 1e-12


def is_beta_inf(beta: float) -> bool:
    return math.isinf(beta)


def validate_state(probs, d: int | None = None) -> np.ndarray:
    """Coerce to a probability vector; raise ValueError on bad input."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("state must be a 1-d probability vector of length >= 2")
    if d is not None and p.size != d:
        raise ValueError(f"state has length {p.size}, expected {d}")
    # negated tests, so that a NaN entry fails them
    if not np.all(p >= 0):
        raise ValueError("state has negative or NaN entries")
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise ValueError(f"state not normalized: sum = {p.sum()!r}")
    return p


def validate_hamiltonian(energies, d: int | None = None) -> np.ndarray:
    """Coerce to a non-decreasing energy ladder."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("energy ladder must be 1-d with length >= 2")
    if d is not None and e.size != d:
        raise ValueError(f"ladder has length {e.size}, expected {d}")
    if not (np.all(np.isfinite(e)) and np.all(np.diff(e) >= 0)):
        raise ValueError("energies must be finite and non-decreasing")
    return e


def gaps(energies) -> tuple[float, float]:
    """Qutrit gaps (E1 - E0, E2 - E1)."""
    e = validate_hamiltonian(energies, 3)
    return e[1] - e[0], e[2] - e[1]


def mean_energy(probs, energies) -> float:
    p = validate_state(probs)
    e = validate_hamiltonian(energies, p.size)
    return float(p @ e)


def entropy(probs) -> float:
    """Shannon/von Neumann entropy in nats, with 0 ln 0 = 0."""
    p = validate_state(probs)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def is_passive(probs, energies, tol: float = 0.0) -> bool:
    """True iff occupations are non-increasing along the energy order.

    Degenerate levels (equal energies) must carry equal probabilities; this is
    the stability requirement that makes passivity well defined on them.
    """
    p = validate_state(probs)
    e = validate_hamiltonian(energies, p.size)
    for i in range(p.size - 1):
        if e[i + 1] - e[i] <= _DEGEN_TOL:
            if abs(p[i] - p[i + 1]) > max(tol, _DEGEN_TOL):
                return False
        elif p[i + 1] - p[i] > tol:
            return False
    return True


def passify(probs, energies) -> np.ndarray:
    """Sort occupations non-increasing along the energy order."""
    p = validate_state(probs)
    validate_hamiltonian(energies, p.size)
    return np.sort(p)[::-1].copy()


def ergotropy(probs, energies) -> float:
    """Maximal unitary work: <H>(state) - <H>(passified state). Non-negative."""
    p = validate_state(probs)
    e = validate_hamiltonian(energies, p.size)
    return float((p - passify(p, e)) @ e)


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
    p = validate_state(probs)
    e = validate_hamiltonian(energies, p.size)
    betas: dict[tuple[int, int], float] = {}
    degen = set()
    for i in range(p.size):
        for j in range(i):
            if e[i] - e[j] <= _DEGEN_TOL:
                degen.add((i, j))
                continue
            if p[j] <= 0.0:
                raise ValueError(f"zero probability at lower level {j} of pair ({i},{j})")
            if p[i] <= 0.0:
                betas[(i, j)] = BETA_INF
            else:
                betas[(i, j)] = math.log(p[j] / p[i]) / (e[i] - e[j])
    return VirtualTemperatureTable(betas=betas, degenerate=frozenset(degen))


def thermal_state(beta: float, energies) -> np.ndarray:
    """Gibbs state exp(-beta E_i)/Z; BETA_INF gives the (possibly shared)
    ground state."""
    e = validate_hamiltonian(energies)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if is_beta_inf(beta):
        ground = np.abs(e - e[0]) <= _DEGEN_TOL
        return ground / ground.sum()
    w = np.exp(-beta * (e - e[0]))  # shift for stability
    return w / w.sum()


@dataclass(frozen=True)
class DiagramPoint:
    energy: float
    entropy: float


def diagram_point(probs, energies) -> DiagramPoint:
    """(mean energy, entropy) coordinates in the energy-entropy diagram."""
    return DiagramPoint(mean_energy(probs, energies), entropy(probs))


def _beta_upper(energies: np.ndarray) -> float:
    # exp underflow bound for the bisection bracket
    de = float(energies[-1] - energies[0])
    return 700.0 / de


def _bisect_beta(f, energies: np.ndarray, max_iter: int = 200) -> float:
    """Root of the monotone-decreasing f(beta) on [0, underflow bound]."""
    lo, hi = 0.0, _beta_upper(energies)
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
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def beta_from_energy(target_energy: float, energies, tol: float = 1e-10) -> float:
    """Inverse temperature whose thermal state has the given mean energy.

    Valid targets lie in [E0, <H>(uniform)]; the lower endpoint returns the
    BETA_INF sentinel.
    """
    e = validate_hamiltonian(energies)
    e_uniform = float(e.mean())
    if target_energy > e_uniform + tol:
        raise ValueError("target energy above the uniform-state energy (beta < 0 regime)")
    if target_energy < e[0] - tol:
        raise ValueError("target energy below the ground energy")
    if abs(target_energy - e[0]) <= tol:
        return BETA_INF
    # BETA_INF when the target lies between the ground energy and the coldest
    # representable thermal state
    return _bisect_beta(lambda b: mean_energy(thermal_state(b, e), e) - target_energy, e)


def beta_from_entropy(target_entropy: float, energies, tol: float = 1e-10) -> float:
    """Inverse temperature whose thermal state has the given entropy (nats)."""
    e = validate_hamiltonian(energies)
    smax = math.log(e.size)
    if target_entropy < -tol or target_entropy > smax + tol:
        raise ValueError(f"target entropy outside [0, ln {e.size}]")
    if target_entropy <= tol:
        return BETA_INF
    if target_entropy >= smax - tol:
        return 0.0
    return _bisect_beta(lambda b: entropy(thermal_state(b, e)) - target_entropy, e)


def is_completely_passive(probs, energies, tol: float) -> bool:
    """True iff the state is thermal for some beta >= 0: all non-degenerate
    pairwise virtual temperatures agree within tol."""
    p = validate_state(probs)
    e = validate_hamiltonian(energies, p.size)
    if not is_passive(p, e, tol=_NORM_TOL):
        return False
    if np.any(p == 0.0):
        # passive with zero tail: thermal iff exactly the ground state(s)
        ground = np.abs(e - e[0]) <= _DEGEN_TOL
        return bool(np.all((p > 0) == ground))
    table = virtual_temperatures(p, e)
    return table.spread() <= tol
