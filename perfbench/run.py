"""swapengine benchmark: one workload, one seed, end-to-end or per-layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports swapengine from ``src/`` and
fails if that is missing. ``--trace 0`` prints the end-to-end metrics:
``setup_s`` is the median over five processes of the time from process
launch to the first timed op (interpreter start, ``import swapengine``,
input generation, warm-up); the others come from the process that measures:
``throughput_ops_s``, ``latency_p50_ms`` and ``latency_tail_ms`` are
medians over windows of whole rounds (see worker.py), ``peak_rss_mb`` is the
peak resident memory.
``--trace 1`` measures again with every layer wrapped (see tracer.py) and
prints the per-layer metrics, then replays the first third of its rounds
untraced to give ``trace.overhead_frac``. Human-readable lines come first; the last line of
standard output is one JSON object. Workloads are described in
workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "crosscheck", "flow", "map")
SETUP_PROBES = 4  # processes that only set up, besides the one that measures
DEADLINE_S = 175.0  # every run ends, result printed, within this


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "swapengine" / "__init__.py").is_file():
        print(f"error: no swapengine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    spawn = Spawner(args, deadline)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        res = spawn()
        replay = -(-res["rounds"] // 3)  # the overhead is measured on the first third
        base = spawn(rounds=replay, traced=False)
        metrics = {name: tuple(v) for name, v in res["per_layer"].items()}
        metrics["oracle.max_abs_err"] = (res["stats"].get("oracle.max_abs_err", 0.0), "1")
        traced = sum(res["round_s"][:replay]) / statistics.median(res["round_ref_s"][:replay])
        untraced = base["timed_s"] / statistics.median(base["round_ref_s"])
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    else:
        setups = [spawn(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        res = spawn()
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (res["throughput"], "1/s"),
            "latency_p50_ms": (res["p50"] * 1e3, "ms"),
            "latency_tail_ms": (res["tail"] * 1e3, "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    failed = sum(res["failures"].values())
    unexpected = {k: v for k, v in res["failures"].items() if k not in res["known_defects"]}
    report(res, metrics, failed, setups if not args.trace else None)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": res["ops"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


class Spawner:
    """Starts worker.py processes one at a time and returns their JSON."""

    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ)
        nproc = len(os.sched_getaffinity(0))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if not self.env.get(var, "").isdigit() or int(self.env[var]) > nproc:
                self.env[var] = str(nproc)

    def __call__(self, setup_only=False, rounds=None, traced=None) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", repr(a.seconds)]
        if setup_only:
            cmd.append("--setup-only")
        if traced if traced is not None else a.trace:
            cmd.append("--trace")
        if rounds is not None:
            cmd += ["--rounds", str(rounds)]
        launched = time.monotonic()
        cmd += ["--launched", repr(launched)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              timeout=max(1.0, self.deadline - launched), check=True)
        return json.loads(proc.stdout.decode().splitlines()[-1])


def report(res, metrics, failed, setups) -> None:
    env = res["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: {res['ops']} in {res['rounds']} rounds, {res['timed_s']:.3f} s timed; "
          f"host speed {res['host_speed']:.3f} x nominal")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if setups is not None:
        print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"  raw, before scaling to nominal host speed: "
              f"throughput_ops_s {res['raw_throughput']:.6g} 1/s, "
              f"latency_p50_ms {res['raw_p50'] * 1e3:.6g} ms, "
              f"latency_tail_ms {res['raw_tail'] * 1e3:.6g} ms")
        print(f"  medians over {res['windows']} windows of {res['window_ops']} ops; "
              f"latency_tail_ms is p{res['tail_pct']:g}, {res['tail_beyond']} samples "
              f"beyond it in each window")
        print(f"failed_frac {failed / res['ops']:.6g} frac ({failed}/{res['ops']})")
    else:
        for name, (part, whole) in res["shares"].items():
            print(f"  {name}: {part}/{whole}")
    for kind, n in sorted(res["attempted"].items()):
        bad = res["failures"].get(kind, 0)
        note = res["known_defects"].get(kind, "") if bad else ""
        print(f"  {kind}: {bad}/{n} failed" + (f" ({res['first_error'][kind]})" if bad else "")
              + (f" [known defect: {note}]" if note else ""))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
