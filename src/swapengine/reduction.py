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
    return _window(p, states.validate_hamiltonian(energies, p.size), k)


def _window(p: np.ndarray, e: np.ndarray, k: int) -> SubspaceWindow:
    """decompose on a checked state and ladder."""
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
    win = _checked(decompose(p, energies, k))
    states.check_cycle(m, n)
    return _lifted_cycle(p, win, m, n)


def _checked(win: SubspaceWindow) -> SubspaceWindow:
    """win, once its reduced state is checked as a passive qutrit."""
    # a window of a checked state is normalized: the batch form checks only its order
    states.passive_qutrit(win.reduced_state[None])
    return win


def _windows(p: np.ndarray, e: np.ndarray) -> list[SubspaceWindow]:
    """Every window of a checked state and ladder, each checked once."""
    # k = 0 even for d < 3, so that _window raises
    return [_checked(_window(p, e, k)) for k in range(max(p.size - 2, 1))]


def _lifted_cycle(p, win: SubspaceWindow, m: int, n: int) -> engine.CycleOutcome:
    """lifted_cycle on a checked window win of p, for checked m, n."""
    out = engine._run_cycle(win.reduced_state, win.reduced_h, m, n)
    lam = win.weight
    final = np.array(p, dtype=float)  # a copy
    final[win.k : win.k + 3] = lam * out.final_system
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
    wins = _windows(p, states.validate_hamiltonian(energies, p.size))
    states.check_cycle(m, n)
    outs = [_lifted_cycle(p, win, m, n) for win in wins]
    # max keeps the first of equal maxima
    return max(enumerate(outs), key=lambda k_out: k_out[1].work)


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
