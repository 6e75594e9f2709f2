"""Large-machine limit: admissible swap ratios, the asymptotic machine
distribution, and quasi-static cooling trajectories.

In the limit of many swaps per cycle the ratio alpha = n/m becomes a
continuous control. Admissible values lie strictly between
ln(p0/p1)/ln(p1/p2) (entropy-conserving, Carnot-efficient) and
dE10/dE21 (energy-conserving, zero work). Any choice drives the state
along dp0/dt = (p1-p2)^2 (p0-p1)^2 / (p1 (p0-p2)^2),
dp1/dt = -(1+alpha) dp0/dt toward the thermal manifold.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import states
from .engine import _geometric_sum
from ._kernels import TERMINATION_TOL, _flow_rate, _r3_gap, flow_rate, trajectory_core


@dataclass(frozen=True)
class AlphaRange:
    lower: float
    upper: float

    def __contains__(self, alpha: float) -> bool:
        return self.lower < alpha < self.upper

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def alpha_range(p, energies) -> AlphaRange:
    """Open interval of admissible swap ratios n/m (needs E2 > E1); empty
    (error) unless the state lies strictly on the work-extracting side of thermal."""
    p, _, _, ratio = _passive_on(p, energies)
    return _alpha_window(p, ratio)


def _passive_on(p, energies) -> tuple[np.ndarray, np.ndarray, tuple[float, float], float]:
    """(p, e, (dE10, dE21), dE10/dE21): a ladder with E2 > E1, then a qutrit
    passive on it as in run_cycle, and the gaps it was checked on."""
    e, ratio = states.qutrit_ladder(energies)  # before p: a thermal state on a bad ladder fails as the ladder
    p = states.passive_qutrit(p)
    return p, e, states._gaps_on(p, e), ratio


def _alpha_window(p, upper: float) -> AlphaRange:
    """The window of a checked state below the gap ratio upper = dE10/dE21."""
    p0, p1, p2 = p.tolist()
    l2 = states._log_ratio(p1, p2)
    # p1 == p2 puts the lower bound at +inf: the window is empty
    lower = states._log_ratio(p0, p1) / l2 if l2 else math.inf
    if lower >= upper:
        raise ValueError(f"empty alpha range [{lower}, {upper}]: no ratio extracts work here")
    return AlphaRange(lower=lower, upper=upper)


@dataclass(frozen=True)
class AsymptoticMachine:
    """Two geometric tails glued at level m: a hot tail on 0..m-1 with
    ratio p1/p0 and a cold tail on m..m+n-3 with ratio p2/p1, mixed with
    weight lam; the top two levels carry vanishing mass."""

    m: int
    n: int
    mixture_weight: float
    hot_ratio: float
    cold_ratio: float
    z_hot: float
    z_cold: float

    def distribution(self) -> np.ndarray:
        q = np.zeros(self.m + self.n)
        j = np.arange(self.m)
        q[: self.m] = self.mixture_weight * self.hot_ratio**j / self.z_hot
        j = np.arange(self.n - 2)
        q[self.m : self.m + self.n - 2] = (
            (1.0 - self.mixture_weight) * self.cold_ratio**j / self.z_cold
        )
        return q


def asymptotic_machine(p, energies, m: int, alpha: float) -> AsymptoticMachine:
    """Limit shape of the stationary machine for a large (m, ceil(alpha*m))
    cycle. alpha must lie inside alpha_range(p, energies)."""
    p, _, _, ratio = _passive_on(p, energies)
    rng = _alpha_window(p, ratio)
    states._check_real(alpha, "alpha")
    if alpha not in rng:
        raise ValueError(f"alpha={alpha} outside admissible range {rng}")
    states._check_integer(m, "m")
    if m < 3:
        raise ValueError("need m >= 3")
    states._check_float_range(m, "m")
    if alpha * m > sys.float_info.max:  # a float product is inf there, silently
        raise ValueError(f"need alpha*m <= sys.float_info.max, got alpha = {alpha}, m = {float(m):g}")
    n = math.ceil(alpha * m)
    if n < 3:
        raise ValueError(f"need n = ceil(alpha*m) >= 3 for a cold tail, got n={n}")
    rh = p[1] / p[0]  # e^{-beta_hot dE10}
    rc = p[2] / p[1]  # e^{-beta_cold dE21}
    lam = (1.0 - rc) / (1.0 - rh * rc)
    z_hot = _geometric_sum(m, math.log(rh))
    z_cold = _geometric_sum(n - 2, math.log(rc))
    return AsymptoticMachine(
        m=m, n=n, mixture_weight=lam, hot_ratio=rh, cold_ratio=rc,
        z_hot=z_hot, z_cold=z_cold,
    )


def asymptotic_delta_p_prefactor(p) -> float:
    """c in the large-m law delta_p ~ c (p1/p0)^m."""
    p = states.passive_qutrit(p)
    if p[0] == p[1] or p[1] == p[2]:
        raise ValueError("need strictly ordered probabilities")
    return flow_rate(p)


@dataclass(frozen=True)
class Trajectory:
    """endpoint_beta is ln(p0/p2)/(E2 - E0) of the last state: a thermal beta on the
    thermal manifold, not one where a constant alpha ends on its neutral curve."""

    samples: Sequence[tuple[float, np.ndarray, states.DiagramPoint]]
    accumulated_work: float
    accumulated_heat_hot: float
    endpoint_beta: float

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1]


Strategy = Union[str, float, Callable[[np.ndarray], float]]


def integrate_trajectory(
    p,
    energies,
    strategy: Strategy,
    step: float = 0.05,
    max_steps: int = 200_000,
) -> Trajectory:
    """RK4 integration of the quasi-static flow until its cycles stop
    extracting work: a constant alpha on its neutral curve alpha ln(p1/p2) =
    ln(p0/p1), before the thermal manifold unless alpha = dE10/dE21, and
    every other strategy on the thermal manifold. The last step's size is
    solved for, so the flow ends on it with r ln(p1/p2) - ln(p0/p1) in
    [0, TERMINATION_TOL], r being that curve's alpha or dE10/dE21.

    strategy: "energy" / "energy_conserving" (alpha pinned to dE10/dE21, no
    work, pure cooling), "entropy" / "entropy_conserving" (alpha tracks the
    lower bound, isentropic, maximal work), a real number (constant alpha),
    or a callable p -> alpha evaluated along the way. A number off the thermal
    manifold must lie in the closed alpha_range window (ValueError); one a
    few ulps past an edge is pinned to that edge. A state
    off the manifold where the flow rate is zero is a fixed point of the
    flow (ValueError). The ladder needs E2 > E1.
    RuntimeError if the flow stalls or needs more than max_steps steps.

    The machine ends every cycle unchanged, so the work is the mean-energy
    drop between the first and last samples, and the hot heat its dE10 part;
    for the energy-conserving strategy the work is rounding error.
    """
    p, e, (de10, de21), ratio = _passive_on(p, energies)
    if isinstance(step, (bool, np.bool_)) or not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    states._check_integer(max_steps, "max_steps")
    if not max_steps >= 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")
    p0, p1, p2 = p.tolist()  # Python floats: a ratio past the float range is inf, silently
    if not abs(1.0 - p0 - p1 - p2) < p2:  # the stepper carries p2 as 1 - p0 - p1
        raise ValueError(f"p2 = {p2:.3g} is below the float resolution of 1 - p0 - p1")
    gap = _r3_gap(p0, p1, p2, ratio)
    if gap < -TERMINATION_TOL:
        raise ValueError("state is on the wrong side of the thermal manifold")
    if gap > TERMINATION_TOL and _flow_rate(p0, p1, p2) == 0.0:
        raise ValueError(
            "flow rate is zero off the thermal manifold (p0 == p1): "
            "the state is a fixed point of the flow"
        )

    if callable(strategy):
        def alpha(p0, p1, p2):
            return strategy(np.array([p0, p1, p2]))
    elif strategy in ("entropy", "entropy_conserving"):
        def alpha(p0, p1, p2):
            return math.log(p0 / p1) / math.log(p1 / p2)
    else:
        if strategy in ("energy", "energy_conserving"):
            const = ratio
        elif isinstance(strategy, numbers.Real) and not isinstance(strategy, bool):
            const = float(strategy)
            if gap > TERMINATION_TOL:
                rng = _alpha_window(p, ratio)
                # an edge computed as lower + 1.0 * (upper - lower) can round
                # an ulp or two past it: within that slack it is the edge
                slack = 4.0 * math.ulp(max(abs(rng.lower), abs(rng.upper)))
                if not rng.lower - slack <= const <= rng.upper + slack:
                    raise ValueError(f"alpha={const} outside admissible range [{rng.lower}, {rng.upper}]")
                const = min(max(const, rng.lower), rng.upper)
                # the stepper stops where ratio ln(p1/p2) = ln(p0/p1): alpha's neutral
                # curve below dE10/dE21, else the thermal manifold; a thermal start
                # keeps the manifold whatever alpha, which the window does not bound
                ratio = min(const, ratio)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

        def alpha(p0, p1, p2):
            return const

    ts, ps = trajectory_core(p0, p1, ratio, alpha, step, max_steps)
    # the first row carries p2 as 1 - p0 - p1, so a thermal start gives exactly 0.0
    dp0, _, dp2 = (ps[-1] - ps[0]).tolist()

    # the observables of states.diagram_point, over all samples at once;
    # every accepted state is strictly positive, so no 0 ln 0 mask
    energy = (ps @ e).tolist()
    entropy = (-np.sum(ps * np.log(ps), axis=1)).tolist()
    samples = [
        (t, y.copy(), states.DiagramPoint(en, s))
        for t, y, en, s in zip(ts, ps, energy, entropy)
    ]
    f0, _, f2 = ps[-1].tolist()
    beta = math.log(f0 / f2) / float(e[2] - e[0])
    return Trajectory(
        samples=samples,
        accumulated_work=de10 * dp0 - de21 * dp2,
        accumulated_heat_hot=de10 * dp0,
        endpoint_beta=beta,
    )


def optimal_work(p, energies) -> float:
    """Maximum extractable work: energy above the thermal state of equal
    entropy (the isentropic endpoint), for a state of any dimension. It is
    never negative: the rounding that puts a thermal state's difference
    below 0 gives +0.0."""
    p, e = states.state_and_ladder(p, energies)
    tau = states._gibbs(states._beta_from_entropy(states._entropy(p), e), e)
    # + 0.0 turns max's -0.0 into 0.0
    return max(float(p @ e) - float(tau @ e), 0.0) + 0.0


def carnot_check(p, energies) -> float:
    """Max deviation of the entropy-strategy instantaneous efficiency from
    the instantaneous Carnot value 1 - beta_hot/beta_cold along the flow.

    Zero up to roundoff: at the lower alpha bound the two expressions are
    algebraically identical.
    """
    traj = integrate_trajectory(p, energies, "entropy")  # checks both arguments
    de10, de21 = np.diff(np.asarray(energies, dtype=float)).tolist()
    worst = 0.0
    for _, y, _pt in traj.samples:
        l1 = math.log(y[0] / y[1])
        l2 = math.log(y[1] / y[2])
        if l2 <= 0.0 or de10 == 0.0:  # no Carnot value to compare with
            continue
        eta = 1.0 - (l1 / l2) * (de21 / de10)
        carnot = 1.0 - (l1 / de10) * (de21 / l2)
        worst = max(worst, abs(eta - carnot))
    return worst
