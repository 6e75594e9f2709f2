"""Running the qutrit cycle inside a 3-level window of a d-level state.

A contiguous window A_k = {k, k+1, k+2} of a passive qudit carries mass
lam = p_k + p_{k+1} + p_{k+2}; the renormalized window is a passive qutrit,
and the cycle acts on the full state as the qutrit cycle on the window
block and the identity elsewhere. The closed form is homogeneous in the
populations (the machine of degree zero, extensive quantities of degree
one): run on the window's raw populations, it gives the full-state outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, oracle, states


@dataclass(frozen=True)
class SubspaceWindow:
    k: int
    weight: float
    reduced_state: np.ndarray
    reduced_h: np.ndarray


def decompose(p, energies, k: int) -> SubspaceWindow:
    """Renormalized 3-level window starting at level k, of weight its mass."""
    p, e = states.state_and_ladder(p, energies)
    *_, lam = _raw_window(p, k)
    return SubspaceWindow(
        k=k,
        weight=lam,
        reduced_state=p[k : k + 3] / lam,
        reduced_h=e[k : k + 3].copy(),
    )


def _raw_window(p: np.ndarray, k: int) -> tuple[float, float, float, float]:
    """(p_k, p_k+1, p_k+2, their sum) of the checked state p, as Python floats,
    once k is a window start and the window has mass."""
    states._check_integer(k, "window start")
    if not 0 <= k <= p.size - 3:
        raise ValueError(f"window start {k} out of range for d={p.size}")
    a, b, c = p[k : k + 3].tolist()
    lam = a + b + c  # numpy's sum of three entries, left to right
    if lam <= 0.0:
        raise ValueError("window has zero mass")
    return a, b, c, lam


def _check_window(p: np.ndarray, k: int) -> None:
    """decompose's checks on window k of the checked state p, then
    passive_qutrit's batch test on the renormalized window."""
    a, b, c, lam = _raw_window(p, k)
    states._check_passive_row(a / lam, b / lam, c / lam)


def lifted_cycle(p, energies, k: int, m: int, n: int) -> engine.CycleOutcome:
    """Cycle outcome on the full d-level state when acting inside window k.

    The cycle runs on the window's raw populations, so extensive fields
    (work, heats, delta_p, alpha_coeff) are full-state values by
    homogeneity; levels outside the window are untouched and the machine
    is the window's stationary one.
    """
    p, e = states.state_and_ladder(p, energies)
    _check_window(p, k)
    states.check_cycle(m, n)
    return engine._run_cycle(p, e, m, n, k)


def best_window(p, energies, m: int, n: int):
    """(k, outcome) maximizing lifted work; ties break toward smaller k."""
    p, e = states.state_and_ladder(p, energies)
    states.check_cycle(m, n)
    return _best(p, e, [(m, n)])


def best_cycle(p, energies, max_dim: int):
    """(k, outcome) maximizing lifted work over every window k and every
    (m, n) with m + n <= max_dim; ties break toward smaller m, then n, then k."""
    p, e = states.state_and_ladder(p, energies)
    states._check_integer(max_dim, "max_dim")
    if max_dim < 2:
        raise ValueError(f"need max_dim >= 2, got {max_dim}")
    return _best(p, e, [(m, n) for m in range(1, max_dim) for n in range(1, max_dim - m + 1)])


def _best(p: np.ndarray, e: np.ndarray, pairs) -> tuple[int, engine.CycleOutcome]:
    """best_cycle over the checked (m, n) pairs, on a checked state and ladder.

    Each candidate computes only its work, lever times delta_p, with
    _run_cycle's closed form, and the winner's outcome is built from its
    strokes. delta_p has the sign of s1**m - s2**n, so the work has that sign
    times the lever's: a first pass assembles only the candidates where both
    signs are the same and nonzero. Every other work is at most 0, so a
    positive work there is the full search's choice. A second pass, with
    nothing skipped, runs only when the first holds no positive work: no
    window extracts work, or a positive-signed delta_p underflowed to 0.
    """
    # k = 0 even for d < 3, so that _raw_window raises; a qudit window with an
    # empty top level cannot run a cycle, and a zero-mass window has one
    ks = [k for k in range(max(p.size - 2, 1)) if p.size <= 3 or p[k + 2] > 0.0]
    if not ks:
        raise ValueError("no 3-level window can run a cycle: every top population p[k+2] is 0")
    # every window is checked before any cycle runs; one pair of geometric
    # tables per window, as long as the longest cycle needs
    m_max, n_max = max(m for m, _ in pairs), max(n for _, n in pairs)
    windows, gaps = [], {}
    for k in ks:
        _check_window(p, k)
        windows.append((k, engine._factors(p[k : k + 3], m_max, n_max)))
    for pruned in (True, False):
        best = None
        for i, (m, n) in enumerate(pairs):
            for k, factors in windows:
                if pruned and i == 0:  # _run_cycle's ladder check, where the window's first cycle meets it
                    gaps[k] = states._gaps_on(p, e, k)
                de10, de21 = gaps[k]
                lever = states._lever(m, n, de10, de21)
                if pruned:
                    s1m, s2n = factors[1] ** m, factors[2] ** n  # as _strokes computes them
                    if not (s1m > s2n if lever > 0.0 else lever < 0.0 and s1m < s2n):
                        continue
                strokes = engine._strokes(*factors, m, n)
                # _run_cycle's work; the first of equal maxima wins
                work = lever * strokes[2] + 0.0
                if best is None or work > best[0]:
                    best = work, k, m, n, de10, de21, lever, strokes
        if best is not None and best[0] > 0.0:
            break
    _, k, m, n, de10, de21, lever, strokes = best
    return k, engine._outcome(p, k, m, n, de10, de21, lever, strokes)


def block_joint_cycle(p, energies, k: int, m: int, n: int):
    """Oracle for the lifted cycle: simulate the explicit block unitary on
    the full d x (m+n) joint space.

    The machine is the stationary one of the reduced window state. Returns
    (final_system_marginal, final_machine_marginal). The checks are
    lifted_cycle's, in its order: the window, m and n, the window's ladder.
    """
    p, e = states.state_and_ladder(p, energies)
    _check_window(p, k)
    steps = oracle.build_cycle(m, n)
    states._gaps_on(p, e, k)
    w = p[k : k + 3]
    q = oracle._stationary_machine(w / w.sum(), steps)
    joint = oracle.product_joint(p, q)
    # act only on the window rows; identity on the rest of the ladder
    joint[k : k + 3] = oracle.apply_cycle(joint[k : k + 3], steps)
    return oracle.system_marginal(joint), oracle.machine_marginal(joint)
