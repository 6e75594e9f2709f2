"""Command-line front end: single-cycle reports, figure-data sweeps, and a
self-verification suite.

All numeric output is printed with 17 significant digits so repeated runs
with the same flags are byte-identical. Exit codes: 0 success, 1 domain or
numeric error, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import engine, oracle, quasistatic, reduction, regions, states

FMT = "%.17g"


def _f(x: float) -> str:
    return FMT % float(x)


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_cycles(text: str):
    out = []
    for tok in text.split(","):
        m, _, n = tok.partition(":")
        out.append((int(m), int(n)))
    return out


def _parse_sweep(text: str) -> tuple[float, float, float]:
    sweep = tuple(float(tok) for tok in text.split(":"))
    if len(sweep) != 3:
        raise argparse.ArgumentTypeError(f"need lo:hi:steps, got {text!r}")
    return sweep


def _resolve_state(args, energies) -> np.ndarray:
    if args.state is not None:
        return states.validate_state(args.state)
    if args.beta is not None:
        return states.thermal_state(args.beta, energies)
    raise ValueError("need --state or --beta")


def _py(v):
    return v.item() if isinstance(v, np.generic) else v


def _emit(rows, header, args, config):
    """Write rows as CSV or JSON to --out (or stdout)."""
    rows = [[_py(v) for v in row] for row in rows]
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_f(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": config,
            "results": [
                {k: (float(_f(v)) if isinstance(v, float) else v) for k, v in zip(header, row)}
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, **extra):
    cfg = {"command": args.command, "format": args.format}
    for key in ("state", "energies"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = [float(x) for x in val]
    for key in ("beta", "m", "n", "grid", "strategy", "sweep_gap", "cycles", "max_dim"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.update(extra)
    return cfg


def cmd_cycle(args) -> int:
    e = states.validate_hamiltonian(args.energies)
    p = _resolve_state(args, e)
    out = engine.run_cycle(p, e, args.m, args.n)
    header = [
        "m", "n", "delta_p", "work", "q_hot", "q_cold", "heat_hot", "heat_cold",
        "efficiency", "efficiency_meaningful", "final_p0", "final_p1", "final_p2",
        "final_active",
    ]
    row = [
        out.m, out.n, out.delta_p, out.work, out.q_hot, out.q_cold,
        out.heat_hot, out.heat_cold, out.efficiency, out.efficiency_meaningful,
        float(out.final_system[0]), float(out.final_system[1]), float(out.final_system[2]),
        out.final_active,
    ]
    _emit([row], header, args, _config_dict(args))
    return 0


def cmd_fig4(args) -> int:
    """Work and efficiency of the (1,1) cycle as the lower gap sweeps.

    The virtual temperatures of the reference state are held fixed, so the
    state is rebuilt at every gap value; work is positive exactly on the
    band dE21 < dE10 < (beta_cold/beta_hot) dE21.
    """
    e = states.validate_hamiltonian(args.energies, 3)
    p = _resolve_state(args, e)
    de21 = e[2] - e[1]
    vt = states.virtual_temperatures(p, e)
    beta_hot, beta_cold = vt.hot, vt.cold
    lo, hi, steps = args.sweep_gap
    rows = []
    for gap in np.linspace(lo, hi, int(steps)):
        ee = np.array([0.0, gap, gap + de21])
        r1 = math.exp(beta_hot * gap)
        r2 = math.exp(beta_cold * de21)
        pg = np.array([r1, 1.0, 1.0 / r2])
        pg /= pg.sum()
        out = engine.run_cycle(pg, ee, 1, 1)
        rows.append([float(gap), float(out.work), float(out.efficiency)])
    _emit(rows, ["gap", "work", "efficiency"], args, _config_dict(args))
    return 0


def cmd_fig5(args) -> int:
    """Region label and per-cycle activation flags on a simplex grid."""
    e = states.validate_hamiltonian(args.energies, 3)
    ratio = regions.approximate_gap_ratio(e)
    cycles = args.cycles or [(3, 1), (5, 2), (11, 5)]
    grid = regions.passive_simplex_grid(args.grid)
    header = ["p0", "p1", "p2", "region"] + [f"active_{m}_{n}" for m, n in cycles]
    rows = []
    for pt in grid:
        row = [float(pt[0]), float(pt[1]), float(pt[2]), regions.classify(pt, ratio)]
        for m, n in cycles:
            row.append(regions.in_activation_region(pt, e, m, n))
        rows.append(row)
    _emit(rows, header, args, _config_dict(args, cycles=[list(c) for c in cycles]))
    return 0


def cmd_fig6(args) -> int:
    """Quasi-static trajectory samples in the energy-entropy plane."""
    e = states.validate_hamiltonian(args.energies, 3)
    p = _resolve_state(args, e)
    strategy = args.strategy
    if strategy.startswith("alpha="):
        strategy = float(strategy[len("alpha="):])
    traj = quasistatic.integrate_trajectory(p, e, strategy)
    rows = [
        [float(t), float(y[0]), float(y[1]), float(y[2]), pt.energy, pt.entropy]
        for t, y, pt in traj.samples
    ]
    _emit(rows, ["t", "p0", "p1", "p2", "energy", "entropy"], args, _config_dict(args))
    return 0


def cmd_optimize(args) -> int:
    """Best (m, n) under a machine-dimension cap; for qudits, also the best
    3-level window."""
    if args.max_dim < 2:
        print(f"error: need --max-dim >= 2, got {args.max_dim}", file=sys.stderr)
        return 2
    e = states.validate_hamiltonian(args.energies)
    p = _resolve_state(args, e)
    best = None
    for m in range(1, args.max_dim):
        for n in range(1, args.max_dim - m + 1):
            if p.size == 3:
                out = engine.run_cycle(p, e, m, n)
                k = 0
            else:
                k, out = reduction.best_window(p, e, m, n)
            if best is None or out.work > best[2].work:
                best = (m, n, out, k)
    m, n, out, k = best
    header = ["m", "n", "window", "work", "efficiency"]
    _emit([[m, n, k, float(out.work), float(out.efficiency)]], header, args,
          _config_dict(args))
    return 0


def cmd_verify(args) -> int:
    """Closed form vs simulation on a deterministic case grid; exits 1 on
    any failure. With --format or --out, each check's measured worst value
    and threshold are written too."""
    rng = np.random.default_rng(20240817)
    checks = []  # (name, measured worst value, threshold); passes if below

    p0 = np.array([0.5, 0.35, 0.15])
    e0 = np.array([0.0, 3.0, 4.0])
    out = engine.run_cycle(p0, e0, 1, 1)
    checks.append(("worked_example_work", abs(out.work - 0.07037037037037037), 1e-10))
    checks.append(("worked_example_eta", abs(out.efficiency - 2.0 / 3.0), 1e-10))

    # np.maximum, unlike max, keeps a NaN so that it fails its check
    worst_q = worst_w = worst_drift = 0.0
    for _ in range(20):
        p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        if p[2] < 1e-3:
            continue
        for m in range(1, 6):
            for n in range(1, 7):
                q_closed = engine.machine_distribution(p, m, n)
                q_oracle = oracle.stationary_machine(p, m, n)
                worst_q = np.maximum(worst_q, np.max(np.abs(q_closed - q_oracle)))
                out = engine.run_cycle(p, e0, m, n)
                joint = oracle.apply_cycle(
                    oracle.product_joint(p, q_oracle), oracle.build_cycle(m, n)
                )
                final = oracle.system_marginal(joint)
                sim_w = (m * 3.0 - n * 1.0) * (final[0] - p[0]) / m
                worst_w = np.maximum(worst_w, abs(out.work - sim_w) / max(1.0, abs(out.work)))
                drift = np.max(np.abs(oracle.machine_marginal(joint) - q_oracle))
                worst_drift = np.maximum(worst_drift, drift)
    checks.append(("machine_distribution_vs_oracle", worst_q, 1e-10))
    checks.append(("work_vs_simulation", worst_w, 1e-12))
    checks.append(("machine_reusable", worst_drift, 1e-12))

    rows = [[name, bool(worst < limit), float(worst), limit] for name, worst, limit in checks]
    if args.format is None and args.out is None:
        for name, ok, _, _ in rows:
            print(f"{name}: {'PASS' if ok else 'FAIL'}")
    else:
        args.format = args.format or "csv"
        _emit(rows, ["check", "pass", "measured", "threshold"], args, _config_dict(args))
    return 0 if all(row[1] for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="swapengine")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, state=True):
        if state:
            sp.add_argument("--state", type=_parse_floats)
            sp.add_argument("--beta", type=float)
        sp.add_argument("--energies", type=_parse_floats, required=True)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("cycle")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_cycle)

    sp = sub.add_parser("fig4")
    common(sp)
    sp.add_argument("--sweep-gap", dest="sweep_gap", required=True, type=_parse_sweep)
    sp.set_defaults(func=cmd_fig4)

    sp = sub.add_parser("fig5")
    common(sp, state=False)
    sp.add_argument("--grid", type=int, default=50)
    sp.add_argument("--cycles", type=_parse_cycles)
    sp.set_defaults(func=cmd_fig5)

    sp = sub.add_parser("fig6")
    common(sp)
    sp.add_argument("--strategy", default="entropy")
    sp.set_defaults(func=cmd_fig6)

    sp = sub.add_parser("optimize")
    common(sp)
    sp.add_argument("--max-dim", dest="max_dim", type=int, default=12)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("verify")
    sp.add_argument("--out")
    # without --format or --out, verify prints one PASS/FAIL line per check
    sp.add_argument("--format", choices=("csv", "json"))
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
