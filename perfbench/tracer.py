"""Per-layer spans for swapengine, recorded from outside the package.

`Tracer.install` replaces the public functions of each layer module with
wrappers, as attributes of the module that defines them, so calls between
modules (``engine`` -> ``oracle.stationary_machine``) and inside a module
(``oracle.stationary_machine`` -> ``update_matrix``) both pass through them.
The `_kernels` names that ``regions`` and ``quasistatic`` bind with
``from ._kernels import ...`` are wrapped there too, so kernel time is booked
to the kernel layer rather than to its caller.

Each wrapper pushes a span on a stack. A span's self time is its duration
minus the durations of the spans nested directly inside it, and is booked to
the layer of the wrapped function. Spans stay in memory; `metrics` turns
them into per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

from workloads import LOG_SWITCH

LAYERS = (
    "states", "oracle", "engine", "regions", "reduction", "quasistatic",
    "_kernels", "activation", "cli",
)

# Helpers called thousands of times per op; their time stays with the caller.
UNWRAPPED = {"engine.geometric_sum", "states.is_beta_inf"}

# `_kernels` functions that other layers call through a from-import binding.
KERNEL_IMPORTS = {
    "regions": ("coverage_counts",),
    "quasistatic": ("trajectory_core", "flow_rate"),
}

DIRECT_LIMIT = 512  # oracle.stationary_machine's default SVD/power-iteration cut


class _Frame:
    __slots__ = ("name", "child", "fallback")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.fallback = False


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[_Frame] = []
        self.layer_self = {layer: [0.0] for layer in LAYERS}  # self seconds
        self.fn = defaultdict(lambda: [0.0, 0.0, 0])  # "layer.fn" -> [self s, inclusive s, spans]
        self.counts = Counter()  # input properties and work counts
        self.basis_pairs: set[tuple[int, int]] = set()
        self._hooks = {
            "engine.run_cycle": self._on_run_cycle,
            "oracle.stationary_machine": self._on_stationary_machine,
            "oracle.update_matrix": self._on_update_matrix,
            "quasistatic.integrate_trajectory": self._on_trajectory,
            "regions.passive_simplex_grid": self._on_grid,
            "cli.main": self._on_cli_main,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"swapengine.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = wrapper = self._wrap(layer, attr, obj)
                setattr(mod, attr, wrapper)
        for layer, attrs in KERNEL_IMPORTS.items():
            mod = importlib.import_module(f"swapengine.{layer}")
            for attr in attrs:
                setattr(mod, attr, wrappers[id(getattr(mod, attr))])

    def _wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        hook = self._hooks.get(name)
        stack = self._stack
        acc = self.fn[name]
        layer_acc = self.layer_self[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own = dt - frame.child
                layer_acc[0] += own
                acc[0] += own
                acc[1] += dt
                acc[2] += 1
                if stack:
                    stack[-1].child += dt
            if hook is not None:
                hook(frame, args, kwargs, result)
            return result

        return span

    # -- hooks: counts taken at the layer boundary --------------------------

    def _on_run_cycle(self, frame, args, kwargs, result):
        p, _, m, n = _bind(args, kwargs, ("p", "energies", "m", "n"))
        self.counts["run_cycle"] += 1
        self.counts["small_mn"] += m < 2 or n < 3
        l1 = math.log(p[0] / p[1])
        l2 = math.log(p[1] / p[2])
        self.counts["logspace"] += m * l1 > LOG_SWITCH or n * l2 > LOG_SWITCH
        self.counts["fallback"] += frame.fallback

    def _on_stationary_machine(self, frame, args, kwargs, result):
        _, m, n = _bind(args, kwargs, ("p", "m", "n"))
        limit = kwargs.get("direct_limit", args[3] if len(args) > 3 else DIRECT_LIMIT)
        self.counts["solves"] += 1
        self.counts["power_iter"] += m + n > limit
        for outer in reversed(self._stack):
            if outer.name == "engine.run_cycle":
                outer.fallback = True
                break

    def _on_update_matrix(self, frame, args, kwargs, result):
        _, m, n = _bind(args, kwargs, ("p", "m", "n"))
        self.basis_pairs.add((m, n))

    def _on_trajectory(self, frame, args, kwargs, result):
        (strategy,) = _bind(args[2:], kwargs, ("strategy",))
        self.counts["trajectories"] += 1
        self.counts["steps"] += len(result.samples) - 1
        self.counts["const_alpha"] += isinstance(strategy, float)

    def _on_grid(self, frame, args, kwargs, result):
        self.counts["grid_points"] += len(result)

    def _on_cli_main(self, frame, args, kwargs, result):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            self.counts["output_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])

    # -- results ----------------------------------------------------------

    def metrics(self, ops: int, speed: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); times and work counts are per
        op, and times are multiplied by `speed`, the host's speed relative
        to nominal (see worker.REF_NOMINAL_S)."""
        c = self.counts
        fn = self.fn
        calls = Counter({name: a[2] for name, a in fn.items()})

        def per_op(x, unit="count/op"):
            return x / ops, unit

        def share(part, whole):
            return (part / whole if whole else 0.0), "frac"

        def layer_calls(layer):
            return sum(v for k, v in calls.items() if k.startswith(layer + "."))

        def seconds(x):
            return x * speed / ops, "s/op"

        out = {f"{layer.lstrip('_')}.self_s": seconds(self.layer_self[layer][0]) for layer in LAYERS}
        out.update({
            "engine.calls": per_op(layer_calls("engine")),
            "engine.oracle_fallback_calls": per_op(c["fallback"]),
            "engine.small_mn_frac": share(c["small_mn"], c["run_cycle"]),
            "engine.logspace_frac": share(c["logspace"], c["run_cycle"]),
            "oracle.solves": per_op(c["solves"]),
            "oracle.basis_s": seconds(fn["oracle.update_matrix"][1]),
            "oracle.apply_cycle_calls": per_op(calls["oracle.apply_cycle"]),
            "oracle.solve_s": seconds(fn["oracle.stationary_machine"][0]),
            "oracle.power_iter_frac": share(c["power_iter"], c["solves"]),
            "oracle.distinct_mn": (len(self.basis_pairs), "count"),
            "quasistatic.trajectories": per_op(c["trajectories"]),
            "quasistatic.steps": per_op(c["steps"]),
            "quasistatic.const_alpha_frac": share(c["const_alpha"], c["trajectories"]),
            "kernels.trajectory_core_s": seconds(fn["_kernels.trajectory_core"][1]),
            "kernels.flow_rate_calls": per_op(calls["_kernels.flow_rate"]),
            "states.validate_calls": per_op(
                calls["states.validate_state"] + calls["states.validate_hamiltonian"]
            ),
            "regions.grid_points": per_op(c["grid_points"]),
            "regions.simplex_grid_s": seconds(fn["regions.passive_simplex_grid"][1]),
            "reduction.windows": per_op(calls["reduction.lifted_cycle"]),
            "cli.output_bytes": per_op(c["output_bytes"], "B/op"),
        })
        return out

    def shares(self) -> dict[str, tuple[int, int]]:
        """Input-property shares as exact (part, whole) counts."""
        c = self.counts
        return {
            "engine.small_mn_frac": (c["small_mn"], c["run_cycle"]),
            "engine.logspace_frac": (c["logspace"], c["run_cycle"]),
            "oracle.power_iter_frac": (c["power_iter"], c["solves"]),
            "oracle.distinct_mn": (len(self.basis_pairs), self.fn["oracle.update_matrix"][2]),
            "quasistatic.const_alpha_frac": (c["const_alpha"], c["trajectories"]),
        }


def _bind(args, kwargs, names):
    """Positional-or-keyword values of the leading parameters `names`."""
    return tuple(args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names))
