"""Bookkeeping for activation: when does a cycle beat ergotropy, and where
does the extra work come from when a bath is allowed afterwards.

A state is activated when the machine-assisted cycle extracts strictly
more work than any unitary on the system alone (its ergotropy). With a
bath at inverse temperature beta available after the cycle, the total
extractable work splits into the cycle part dW1 and a bath part dW2 that
is paid for by the athermality of the final marginal plus the
system-machine correlations built up during the cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, oracle, quasistatic, states


@dataclass(frozen=True)
class ActivationReport:
    work_cycle: float
    ergotropy_value: float
    activated: bool
    energy_ok: bool
    entropy_ok: bool


def assess_activation(p, energies, outcome: engine.CycleOutcome) -> ActivationReport:
    """Compare cycle work against ergotropy and check the two activation
    constraints: final energy strictly below the passified state's, final
    entropy not below the initial one."""
    p = states.validate_state(p)
    e = states.validate_hamiltonian(energies, p.size)
    final = states.validate_state(outcome.final_system, p.size)
    passive = np.sort(p)[::-1].copy()  # states.passify
    erg = float((p - passive) @ e)
    energy_ok = float(final @ e) < float(passive @ e)
    entropy_ok = states._entropy(final) >= states._entropy(p) - 1e-12
    return ActivationReport(
        work_cycle=float(outcome.work),
        ergotropy_value=erg,
        activated=bool(outcome.work > erg),
        energy_ok=bool(energy_ok),
        entropy_ok=bool(entropy_ok),
    )


def optimal_bound_check(p, energies, outcome: engine.CycleOutcome) -> bool:
    """Cycle work never exceeds the quasi-static optimum."""
    return outcome.work <= quasistatic.optimal_work(p, energies) + 1e-12


def relative_entropy(p, q) -> float:
    """D(p||q) in nats; 0 ln 0 = 0, support violation -> inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


@dataclass(frozen=True)
class BathLedger:
    beta: float
    free_energy_initial: float
    free_energy_thermal: float
    delta_w1: float
    delta_w2: float
    q2: float
    mutual_info: float

    @property
    def total_work(self) -> float:
        return self.delta_w1 + self.delta_w2


def bath_ledger(p, energies, final_joint, beta: float, initial_machine=None) -> BathLedger:
    """Split total extractable work between the cycle and a beta-bath.

    dW1 is the system energy released by the cycle; dW2 is what the bath
    can still extract from the final marginal's athermality plus the
    system-machine mutual information. Their sum equals the free-energy
    drop F_beta(p) - F_beta(tau_beta) identically.

    When initial_machine is given, the machine marginal of final_joint must
    match it within 1e-10 (reusability), else ValueError.
    """
    p = states.validate_state(p)
    e = states.validate_hamiltonian(energies, p.size)
    joint = np.asarray(final_joint, dtype=float)
    if beta <= 0.0:
        raise ValueError("bath ledger needs beta > 0")
    if initial_machine is not None:
        drift = np.max(np.abs(oracle.machine_marginal(joint) - initial_machine))
        if drift > 1e-10:
            raise ValueError(f"machine marginal drifted by {drift:g}: reusability violated")
    sigma = oracle.system_marginal(joint)
    tau = states.thermal_state(beta, e)
    info = oracle.mutual_information(joint)
    f_init = states.mean_energy(p, e) - states.entropy(p) / beta
    f_thermal = states.mean_energy(tau, e) - states.entropy(tau) / beta
    dw1 = states.mean_energy(p, e) - states.mean_energy(sigma, e)
    dw2 = (relative_entropy(sigma, tau) + info) / beta
    q2 = (states.entropy(tau) - states.entropy(p)) / beta
    return BathLedger(
        beta=beta,
        free_energy_initial=f_init,
        free_energy_thermal=f_thermal,
        delta_w1=dw1,
        delta_w2=dw2,
        q2=q2,
        mutual_info=info,
    )
