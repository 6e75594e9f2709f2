"""Compare the compiled and plain-numpy kernel backends.

Runs each backend in a subprocess (the backend is fixed at import time via
SWAPENGINE_BACKEND) and reports wall times for the two hot kernels:
coverage counting on a dense simplex grid and quasi-static trajectory
integration at a small step size.

Usage: python benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys

_WORKER = r"""
import json, time
import numpy as np
from swapengine import regions
from swapengine._kernels import ALPHA_ENTROPY, backend, trajectory_core

# warm-up (numba compilation happens here, excluded from timings)
ratio = regions.RationalGapRatio(2, 1)
regions.coverage_fraction(ratio, 3, 1, 30)
trajectory_core(0.5, 0.35, 3.0, 1.0, ALPHA_ENTROPY, 0.0, 0.05, 1000, 1e-10)

t0 = time.perf_counter()
for mn in [(3, 1), (5, 2), (11, 5), (401, 200)]:
    regions.coverage_fraction(ratio, *mn, 400)
t_cov = time.perf_counter() - t0

t0 = time.perf_counter()
for _ in range(20):
    trajectory_core(0.5, 0.35, 3.0, 1.0, ALPHA_ENTROPY, 0.0, 1e-4, 500_000, 1e-10)
t_traj = time.perf_counter() - t0

print(json.dumps({"backend": backend(), "coverage_s": t_cov, "trajectory_s": t_traj}))
"""


def run(backend: str) -> dict:
    env = dict(os.environ, SWAPENGINE_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", _WORKER], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    results = [run("numba"), run("numpy")]
    print(f"{'backend':<8} {'coverage[s]':>12} {'trajectory[s]':>14}")
    for r in results:
        print(f"{r['backend']:<8} {r['coverage_s']:>12.4f} {r['trajectory_s']:>14.4f}")
    a, b = results
    if a["backend"] != "numba":
        print("note: numba is not importable, so both subprocesses ran the numpy backend",
              file=sys.stderr)
    elif a["backend"] != b["backend"]:
        print(
            f"speedup (numba vs numpy): coverage x{b['coverage_s']/a['coverage_s']:.1f}, "
            f"trajectory x{b['trajectory_s']/a['trajectory_s']:.1f}"
        )


if __name__ == "__main__":
    main()
