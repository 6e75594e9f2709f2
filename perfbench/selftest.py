"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

1. Runs every workload at its minimum size (one round), untraced and
   traced, and checks that the last line is the result object and that
   every metric BENCHMARK.json names is printed by name with its unit.
2. Checks that the failure counter counts a known-failing op, a
   constant-alpha trajectory (ROADMAP direction 1), and an op that raises.
   When the constant-alpha defect is fixed, the first check fails and says
   so: drop "flow.const_alpha" from workloads.KNOWN_DEFECTS then.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check_output(wl["name"], trace, spec[key])
    problems += check_failure_counter()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def check_output(workload: str, trace: int, wanted: list[dict]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.001", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: an op failed outside the known defects")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    text = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')}, want {m['unit']}")
        if f"{m['name']} " not in text or f" {m['unit']}" not in text:
            problems.append(f"{where}: {m['name']} [{m['unit']}] not in the printed report")
    if trace == 0 and "failed_frac " not in text:
        problems.append(f"{where}: failed_frac not printed")
    return problems


def check_failure_counter() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import swapengine
    import worker
    import workloads

    flow = workloads.make("flow", 1, swapengine, str(ROOT))
    const = [op for op in flow.rounds(0) if op.kind == "flow.const_alpha"][0]

    def boom():
        raise RuntimeError("injected")

    raising = workloads.Op("selftest.raises", boom, lambda out: None)
    one_round = workloads.Workload(lambda r: [const, raising], lambda: None)
    res = worker.run(one_round, seconds=0.0, rounds=1, tracer=None)
    problems = []
    if res["failures"].get("flow.const_alpha") != 1:
        problems.append("a constant-alpha trajectory passed its check: if the defect is "
                        "fixed, drop flow.const_alpha from KNOWN_DEFECTS")
    if res["failures"].get("selftest.raises") != 1:
        problems.append("an op that raised was not counted as failed")
    if res["ops"] != 2:
        problems.append(f"{res['ops']} ops counted, 2 run")
    return problems


if __name__ == "__main__":
    sys.exit(main())
