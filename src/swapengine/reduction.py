"""Running the qutrit cycle inside a 3-level window of a d-level state.

A contiguous window A_k = {k, k+1, k+2} of a passive qudit carries mass
lam = p_k + p_{k+1} + p_{k+2}; the renormalized window is itself a passive
qutrit, and the cycle acts on the full state as a block unitary that is
the qutrit cycle on the window block and the identity elsewhere. Every
extensive quantity (work, heat, population transfer) picks up exactly the
factor lam.
"""

from __future__ import annotations

import dataclasses
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
    """Renormalized 3-level window starting at level k."""
    p = states.validate_state(p)
    e = states.validate_hamiltonian(energies, p.size)
    if not 0 <= k <= p.size - 3:
        raise ValueError(f"window start {k} out of range for d={p.size}")
    lam = float(p[k : k + 3].sum())
    if lam <= 0.0:
        raise ValueError("window has zero mass")
    return SubspaceWindow(
        k=k,
        weight=lam,
        reduced_state=p[k : k + 3] / lam,
        reduced_h=e[k : k + 3].copy(),
    )


def lifted_cycle(p, energies, k: int, m: int, n: int) -> engine.CycleOutcome:
    """Cycle outcome on the full d-level state when acting inside window k.

    Extensive fields (work, heats, delta_p) are the window outcome scaled
    by the window mass; levels outside the window are untouched and the
    machine distribution is the window one (stationary, so unchanged).
    """
    win = decompose(p, energies, k)
    out = engine.run_cycle(win.reduced_state, win.reduced_h, m, n)
    lam = win.weight
    final = np.array(p, dtype=float)  # a copy, checked by decompose
    final[k : k + 3] = lam * out.final_system
    return dataclasses.replace(
        out,
        delta_p=lam * out.delta_p,
        work=lam * out.work,
        q_hot=lam * out.q_hot,
        q_cold=lam * out.q_cold,
        heat_hot=lam * out.heat_hot,
        heat_cold=lam * out.heat_cold,
        final_system=final,
    )


def best_window(p, energies, m: int, n: int):
    """(k, outcome) maximizing lifted work; ties break toward smaller k."""
    p = states.validate_state(p)
    best = None
    best_k = 0
    for k in range(p.size - 2):
        out = lifted_cycle(p, energies, k, m, n)
        if best is None or out.work > best.work:
            best, best_k = out, k
    return best_k, best


def block_joint_cycle(p, energies, k: int, m: int, n: int):
    """Oracle for the lifted cycle: simulate the explicit block unitary on
    the full d x (m+n) joint space.

    The machine is the stationary one of the reduced window state. Returns
    (final_system_marginal, final_machine_marginal).
    """
    win = decompose(p, energies, k)
    q = oracle.stationary_machine(win.reduced_state, m, n)
    joint = oracle.product_joint(p, q)
    steps = oracle.build_cycle(m, n)
    # act only on the window rows; identity on the rest of the ladder
    block = oracle.apply_cycle(joint[k : k + 3].copy(), steps)
    out = joint.copy()
    out[k : k + 3] = block
    return oracle.system_marginal(out), oracle.machine_marginal(out)
