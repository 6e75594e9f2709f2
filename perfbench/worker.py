"""One benchmark process: set up a workload, run its ops in a closed loop,
check every output, and print one JSON line. run.py starts it.

The loop starts the next op only after the previous one returned. Only the
op itself is timed; its check runs after the clock stops. Rounds repeat
until the timed total reaches --seconds (or exactly --rounds rounds).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Latency and throughput are taken per window of whole rounds holding at
# least WINDOW_OPS ops, and reported as the median over the run's windows.
WINDOW_OPS = 100
# A window's tail is the highest of these percentiles with at least ten of
# the window's samples beyond it.
TAIL_LADDER = [Fraction(1) - Fraction(1, 10**k) for k in range(1, 7)]  # p90, p99, ...
# On a shared 2-vCPU VM the CPU's speed swings by up to 1.9x for tens of
# seconds at a time (a fixed Python loop ran at 5.2 to 10.3 M iterations/s),
# so raw timings of identical 20 s runs differed by 40 %. Between ops
# (outside the timed region, after every REF_EVERY_S of op time) the loop
# times a fixed pure-Python reference that does not touch swapengine. Each
# window's timings are scaled by REF_NOMINAL_S over the window's median
# reference time: they read as on a host that runs the reference in
# REF_NOMINAL_S. Raw timings are reported alongside.
REF_EVERY_S = 0.005
REF_NOMINAL_S = 0.0004


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--rounds", type=int)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import swapengine
    import swapengine.cli  # not imported by the package itself

    package = Path(swapengine.__file__).resolve().parent
    if package != ROOT / "src" / "swapengine":
        raise SystemExit(f"imported swapengine from {package}, not from this checkout")
    import workloads
    from tracer import Tracer

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        wl = workloads.make(args.workload, args.seed, swapengine, tmpdir)
        wl.warm_up()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        gc.collect()
        gc.freeze()  # keep the set-up's objects out of collections during the run
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(wl, args.seconds, args.rounds, tracer)
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["stats"] = wl.stats
        result["known_defects"] = workloads.KNOWN_DEFECTS
        if tracer is not None:
            result["per_layer"] = tracer.metrics(result["ops"], result["host_speed"])
            result["shares"] = tracer.shares()
        result["env"] = environment(np, swapengine)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def reference() -> float:
    """Seconds taken by a fixed float loop; measures the host, not swapengine."""
    t0 = perf_counter()
    x, y = 0.3, 0.5
    for _ in range(1000):
        x += 0.5 * (y - x) * math.log(1.5 + x * x)
        y -= 0.25 * x / (1.0 + y * y)
    return perf_counter() - t0


def run(wl, seconds, rounds, tracer) -> dict:
    round_lat = []  # per round, the latency of each op
    round_ref = []  # per round, the reference times taken during it
    attempted = Counter()
    failures = Counter()
    first_error = {}
    timed = 0.0
    while True:
        lat, refs = [], [reference()]
        since_ref = 0.0
        for op in wl.rounds(len(round_lat)):
            if tracer is not None:
                tracer.active = True
            error = None
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising op is a failed op; the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            lat.append(dt)
            attempted[op.kind] += 1
            if error is not None:
                failures[op.kind] += 1
                first_error.setdefault(op.kind, error)
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                refs.append(reference())
                since_ref = 0.0
        round_lat.append(lat)
        round_ref.append(refs)
        timed += sum(lat)
        if (len(round_lat) >= rounds) if rounds is not None else (timed >= seconds):
            break
    per_window = -(-WINDOW_OPS // len(round_lat[0]))  # rounds per window
    starts = range(0, max(1, len(round_lat) - per_window + 1), per_window)
    stats = [
        window_stats(
            [x for lat in round_lat[i : i + per_window] for x in lat],
            [x for refs in round_ref[i : i + per_window] for x in refs],
        )
        for i in starts
    ]

    def median(key):
        return statistics.median(s[key] for s in stats)

    return {
        "ops": sum(map(len, round_lat)),
        "rounds": len(round_lat),
        "timed_s": timed,
        "round_s": [sum(lat) for lat in round_lat],
        "round_ref_s": [statistics.median(refs) for refs in round_ref],
        "host_speed": REF_NOMINAL_S / statistics.median(x for refs in round_ref for x in refs),
        "windows": len(stats),
        "window_ops": stats[0]["ops"],
        **{key: median(key) for key in ("throughput", "p50", "tail", "raw_throughput", "raw_p50", "raw_tail")},
        "tail_pct": stats[0]["tail_pct"],
        "tail_beyond": stats[0]["beyond"],
        "attempted": dict(attempted),
        "failures": dict(failures),
        "first_error": first_error,
    }


def window_stats(latencies, refs) -> dict:
    """Throughput and latency percentiles of one window, raw and scaled to
    the nominal host speed."""
    lat = sorted(latencies)
    n = len(lat)
    q, rank = Fraction(1, 2), None
    for quantile in TAIL_LADDER:
        r = -(-n * quantile // 1)  # nearest rank, ceil(n q), 1-based
        if n - r < 10:
            break
        q, rank = quantile, int(r)
    raw = {
        "raw_throughput": n / sum(lat),
        "raw_p50": statistics.median(lat),
        "raw_tail": lat[rank - 1] if rank else statistics.median(lat),
    }
    speed = REF_NOMINAL_S / statistics.median(refs)
    return {
        **raw,
        "throughput": raw["raw_throughput"] / speed,
        "p50": raw["raw_p50"] * speed,
        "tail": raw["raw_tail"] * speed,
        "ops": n,
        "tail_pct": float(q * 100),
        "beyond": n - rank if rank else n // 2,
    }


def environment(np, swapengine) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict config
        blas = "unknown"
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        raise SystemExit(f"BLAS runs {threads} threads on {nproc} CPUs")
    return {
        "backend": swapengine.backend(),
        "numba_importable": numba_imports(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else "unknown",
        "nproc": nproc,
    }


def numba_imports() -> bool:
    if importlib.util.find_spec("numba") is None:
        return False
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
