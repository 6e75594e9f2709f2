"""Hot numeric kernels: quasi-static trajectory stepping and coverage counts.

Both run as plain Python/numpy: the trajectory stepper is a scalar RK4 loop
that takes the swap ratio as a function of the state, and coverage counting
only counts the activation flags that `regions._active` gives, since that
is the package's one activation test. `backend()` reports "numpy".
"""

from __future__ import annotations

import math

import numpy as np

# dimensionless R3 log-gap below which a trajectory counts as thermal
TERMINATION_TOL = 1e-10


def backend() -> str:
    return "numpy"


def _flow_rate(p0, p1, p2):
    return (p1 - p2) ** 2 * (p0 - p1) ** 2 / (p1 * (p0 - p2) ** 2)


def _r3_gap(p0, p1, p2, ratio):
    """The R3 log-gap over dE21, with ratio = dE10/dE21: free of the unit of energy."""
    return ratio * math.log(p1 / p2) - math.log(p0 / p1)


def trajectory_core(p0, p1, ratio, alpha, step, max_steps):
    """Adaptive RK4 flow of (p0, p1) toward the curve ratio ln(p1/p2) =
    ln(p0/p1), with the swap ratio given by alpha(p0, p1, p2): the thermal
    manifold at ratio = dE10/dE21, a constant alpha's neutral curve at
    ratio = alpha.

    Each step starts at twice the last accepted size, capped at step, and
    halves while a stage or its end would leave the open passive set
    p0 >= p1 > p2 > 0, on which alpha is defined. A step whose end would
    overshoot the curve brackets the step size instead: Illinois regula
    falsi (Dowell & Jarratt 1971) on the end's gap ratio
    ln(p1/p2) - ln(p0/p1), the R3 log-gap at ratio = dE10/dE21, finds a
    size whose end lands in [0, TERMINATION_TOL], and the flow ends there.
    A trial in the bracket that leaves the set bisects it; once the next
    trial would lie within step * 1e-14 of the bracket's short end, that end
    is the step, and with no short end the flow has stalled.
    The first stage depends only on the step's start, so it is evaluated
    once per step, not once per trial. Returns the path (t, states),
    with t a list and states an (n, 3) array. RuntimeError if the flow
    needs more than max_steps steps or no step size is accepted.
    """
    def rate(y0, y1):  # (dp0/dt, dp1/dt) at (y0, y1); None off the open passive set
        y2 = 1.0 - y0 - y1
        if not y0 >= y1 > y2 > 0.0:  # negated, so that NaN fails it
            return None
        f = _flow_rate(y0, y1, y2)
        return f, -(1.0 + alpha(y0, y1, y2)) * f

    ts = [0.0]
    ps = [(p0, p1, 1.0 - p0 - p1)]
    t = 0.0
    gap = _r3_gap(*ps[0], ratio)
    h = math.inf  # the last accepted step size; none yet
    while gap > TERMINATION_TOL:
        if len(ts) > max_steps:
            raise RuntimeError(f"no convergence within {max_steps} steps")
        k1 = rate(p0, p1)  # not None: a start with a positive R3 log-gap is in the set
        h = min(step, 2.0 * h)
        # the step size lies in [lo, hi]: lo ends short of the curve with gap g_lo
        # (0 is the step's start), hi overshoots with gap g_hi (None: none has
        # yet) or leaves the set; side is the end the last trial moved
        lo, g_lo, lo_end, hi, g_hi, side = 0.0, gap, None, math.inf, None, 0
        while h - lo >= step * 1e-14:
            # remaining RK4 stages, each only where the one before is defined
            k2 = rate(p0 + 0.5 * h * k1[0], p1 + 0.5 * h * k1[1])
            k3 = k2 and rate(p0 + 0.5 * h * k2[0], p1 + 0.5 * h * k2[1])
            k4 = k3 and rate(p0 + h * k3[0], p1 + h * k3[1])
            g = math.nan  # off the set, which every comparison below fails
            if k4:
                n0 = p0 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
                n1 = p1 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
                n2 = 1.0 - n0 - n1
                if n0 >= n1 > n2 > 0.0:
                    g = _r3_gap(n0, n1, n2, ratio)
            if g >= 0.0 and (g <= TERMINATION_TOL or g_hi is None):
                break  # on the curve, or short of it before any overshoot
            if g > 0.0:
                if side > 0:  # Illinois: hi kept twice weighs half
                    g_hi *= 0.5
                lo, g_lo, lo_end, side = h, g, (n0, n1, n2, g), 1
            elif g < 0.0:
                if side < 0:
                    g_lo *= 0.5
                hi, g_hi, side = h, g, -1
            else:
                hi = h
            h = lo + (hi - lo) * (g_lo / (g_lo - g_hi) if g == g else 0.5)
        else:
            if lo_end is None:
                raise RuntimeError(
                    f"trajectory stalled at t={t}: no step keeps the state "
                    "passive and on the work-extracting side of the thermal manifold"
                )
            h, (n0, n1, n2, g) = lo, lo_end
        p0, p1, gap = n0, n1, g
        t += h
        ts.append(t)
        ps.append((n0, n1, n2))
    return ts, np.array(ps)


def coverage_counts(flags):
    """Number of True activation flags, as regions._active gives them. The
    bench binds this name; it moves into regions with ROADMAP direction 3."""
    return int(np.count_nonzero(flags))


def flow_rate(p) -> float:
    """dp0/dt of the quasi-static flow at state p (library-facing wrapper)."""
    return float(_flow_rate(p[0], p[1], p[2]))
