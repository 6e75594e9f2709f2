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
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # the largest argument math.exp takes


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_cycles(text: str):
    try:
        cycles = [(int(m), int(n)) for m, _, n in (tok.partition(":") for tok in text.split(","))]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad cycle list {text!r}: need m:n pairs such as 3:1,5:2") from exc
    if len(set(cycles)) < len(cycles):  # two columns of one name; JSON would keep one
        raise argparse.ArgumentTypeError(f"bad cycle list {text!r}: a cycle is repeated")
    return cycles


def _parse_sweep(text: str) -> tuple[float, float, float]:
    sweep = tuple(float(tok) for tok in text.split(":"))
    ok = len(sweep) == 3 and math.isfinite(sweep[1] - sweep[0]) and sweep[2] >= 1
    if not (ok and sweep[2].is_integer()):
        raise argparse.ArgumentTypeError(
            f"need lo:hi:steps with finite hi - lo and whole steps >= 1, got {text!r}")
    return sweep


def _resolve_state(args, energies):
    if args.state is not None:
        return args.state
    if args.beta is not None:
        return states.thermal_state(args.beta, energies)
    raise ValueError("need --state or --beta")


_BOOL_CELLS = np.array(["False", "True"], dtype=object)


def _csv_cells(col):
    """One column's CSV cells: FMT for floats, str for the rest. A bool, str or
    float array takes its rule from its dtype; any other column goes value by value."""
    if isinstance(col, np.ndarray):
        if col.dtype == bool:
            return _BOOL_CELLS.take(col).tolist()
        if col.dtype.kind == "U":
            return col.tolist()
        if col.dtype.kind == "f" and not (col == 0.0).any():  # np.unique makes 0.0 and -0.0 one value
            values, where = np.unique(col, return_inverse=True)  # each distinct value formatted once
            return np.array([FMT % v for v in values.tolist()], dtype=object).take(where).tolist()
        col = col.tolist()
    return [FMT % v if isinstance(v, (float, np.floating)) else str(v) for v in col]


def _emit(cols, header, args, config):
    """Write columns, one per header name, as CSV or JSON to --out (or
    stdout). A column is a list of values or a 1-d array, which writes what
    its .tolist() would; JSON reads a list value by value, through .item()."""
    if args.format == "csv":
        cells = map(_csv_cells, cols)
        text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    else:
        cols = [col.tolist() if isinstance(col, np.ndarray)
                else [v.item() if isinstance(v, np.generic) else v for v in col] for col in cols]
        results = [dict(zip(header, row)) for row in zip(*cols)]
        text = json.dumps({"config": config, "results": results}, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, **extra):
    """Every option the parser set, except the handler and --out, then extra."""
    cfg = {k: v for k, v in vars(args).items() if v is not None and k not in ("func", "out")}
    return cfg | extra


def cmd_cycle(args) -> int:
    p = _resolve_state(args, args.energies)
    out = engine.run_cycle(p, args.energies, args.m, args.n)
    final = out.final_system.tolist()
    cols = {
        "m": out.m, "n": out.n, "delta_p": out.delta_p, "work": out.work,
        "q_hot": out.q_hot, "q_cold": out.q_cold, "heat_hot": out.heat_hot,
        "heat_cold": out.heat_cold, "efficiency": out.efficiency,
        "efficiency_meaningful": out.efficiency_meaningful, "final_p0": final[0],
        "final_p1": final[1], "final_p2": final[2], "final_active": out.final_active,
    }
    _emit([[v] for v in cols.values()], list(cols), args, _config_dict(args))
    return 0


def cmd_fig4(args) -> int:
    """Work and efficiency of the (1,1) cycle as the lower gap sweeps.

    The virtual temperatures of the reference state are held fixed, so the
    state is rebuilt at every gap value; work is positive exactly on the
    band dE21 < dE10 < (beta_cold/beta_hot) dE21.
    """
    _, de21 = states.gaps(args.energies)
    p = _resolve_state(args, args.energies)
    vt = states.virtual_temperatures(p, args.energies)
    beta_hot, beta_cold = vt.hot, vt.cold
    lo, hi, steps = args.sweep_gap
    gaps = np.linspace(lo, hi, int(steps))
    works, effs = [], []
    # Python floats: a sum or product past the float range is inf, silently
    for gap in gaps.tolist():
        ee = np.array([0.0, gap, gap + de21])
        x1, x2 = beta_hot * gap, beta_cold * de21
        if not (x1 <= _LN_FLOAT_MAX and x2 <= _LN_FLOAT_MAX):  # negated, so that NaN fails it
            raise ValueError(f"at gap {gap!r} the state's population ratios overflow the float range")
        r1, r2 = math.exp(x1), math.exp(x2)
        pg = np.array([r1, 1.0, 1.0 / r2])
        pg /= pg.sum()
        out = engine.run_cycle(pg, ee, 1, 1)
        works.append(float(out.work))
        effs.append(float(out.efficiency))
    _emit([gaps, np.array(works), np.array(effs)], ["gap", "work", "efficiency"], args, _config_dict(args))
    return 0


def cmd_fig5(args) -> int:
    """Region label and per-cycle activation flags on a simplex grid."""
    cycles = args.cycles or [(3, 1), (5, 2), (11, 5)]
    grid, labels, flags = regions.grid_activation(args.grid, args.energies, cycles)
    header = ["p0", "p1", "p2", "region"] + [f"active_{m}_{n}" for m, n in cycles]
    _emit([*grid.T, labels, *flags], header, args, _config_dict(args, cycles=[list(c) for c in cycles]))
    return 0


def cmd_fig6(args) -> int:
    """Quasi-static trajectory samples in the energy-entropy plane."""
    p = _resolve_state(args, args.energies)
    strategy = args.strategy
    if strategy.startswith("alpha="):
        strategy = float(strategy[len("alpha="):])
    traj = quasistatic.integrate_trajectory(p, args.energies, strategy)
    ts, ys, pts = zip(*traj.samples)
    cols = [np.array(ts, dtype=float), *np.array(ys).T,
            np.array([pt.energy for pt in pts]), np.array([pt.entropy for pt in pts])]
    _emit(cols, ["t", "p0", "p1", "p2", "energy", "entropy"], args, _config_dict(args))
    return 0


def cmd_optimize(args) -> int:
    """Best (m, n) under a machine-dimension cap; for qudits, also the best
    3-level window."""
    if args.max_dim < 2:
        print(f"error: need --max-dim >= 2, got {args.max_dim}", file=sys.stderr)
        return 2
    p = _resolve_state(args, args.energies)
    k, out = reduction.best_cycle(p, args.energies, args.max_dim)
    header = ["m", "n", "window", "work", "efficiency"]
    _emit([[out.m], [out.n], [k], [out.work], [out.efficiency]], header, args, _config_dict(args))
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
        _emit(list(zip(*rows)), ["check", "pass", "measured", "threshold"], args, _config_dict(args))
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


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
