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
    p, e = states.state_and_ladder(p, energies)
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
    q = states.validate_state(q)
    return _relative_entropy(states.validate_state(p, q.size), q)


def _relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """relative_entropy on checked states of one length."""
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
    drop F_beta(p) - F_beta(tau_beta) when the joint is a reversible image of
    p (x) q, as a cycle's is: then I(S:M) = S(sigma) - S(p), for sigma its
    system marginal.

    When initial_machine is given, it must have the joint's machine shape
    (d,), and the machine marginal of final_joint must match it within 1e-10
    (reusability), else ValueError. So is a beta outside 0 < beta < inf, or
    one at which a term leaves the float range, and a joint whose I(S:M)
    misses S(sigma) - S(p) by more than 1e-12.
    """
    p, e = states.state_and_ladder(p, energies)
    states._check_real(beta, "beta")
    if not 0.0 < beta < math.inf:  # negated, so that NaN fails it
        raise ValueError("bath ledger needs 0 < beta < inf")
    info, sigma, s_sigma, machine = oracle._information(final_joint)  # checks the joint
    if initial_machine is not None:
        if np.shape(initial_machine) != machine.shape:
            raise ValueError(f"initial machine must have shape (d,), got {np.shape(initial_machine)}")
        drift = np.max(np.abs(machine - initial_machine))
        if not drift <= 1e-10:  # negated, so that NaN fails it
            raise ValueError(f"machine marginal drifted by {drift:g}: reusability violated")
    sigma = states.validate_state(sigma, e.size)  # a state of the ladder's length
    # a Gibbs state of a checked ladder at 0 < beta < inf is a state
    tau = states._gibbs(beta, e)
    d_sigma = _relative_entropy(sigma, tau)
    u_p, s_p = float(p @ e), states._entropy(p)
    u_tau, s_tau = float(tau @ e), states._entropy(tau)
    ledger = BathLedger(
        beta=beta,
        free_energy_initial=u_p - s_p / beta,
        free_energy_thermal=u_tau - s_tau / beta,
        delta_w1=u_p - float(sigma @ e),
        delta_w2=(d_sigma + info) / beta,
        q2=(s_tau - s_p) / beta,
        mutual_info=info,
    )
    # tau has no zero entry at a finite beta: an infinite D(sigma||tau) is an underflow
    if not all(map(math.isfinite, vars(ledger).values())):
        raise ValueError(f"bath ledger leaves the float range at beta = {beta!r}")
    miss = abs(info - (s_sigma - s_p))
    if not miss <= 1e-12:
        raise ValueError(f"I(S:M) misses S(sigma) - S(p) by {miss:g}: the joint is not a cycle's image of p")
    return ledger
