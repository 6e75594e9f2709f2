import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "swapengine").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"swapengine"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert _third_party_imports() == declared


def test_bench_binds_every_name_it_needs():
    """The bench's tracer wraps every public name of each layer, `_kernels`
    among them, and rebinds the kernel names that `quasistatic` and
    `regions` import; its worker reports `swapengine.backend()`. A change
    that removes one of these names breaks the bench, so it fails here."""
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    code = "import swapengine, tracer; tracer.Tracer().install(); print(swapengine.backend())"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "numpy\n"


def test_cli_reads_no_private_name_of_the_package():
    """The CLI calls only the public API: it imports no `_`-prefixed name
    and reads no `_`-prefixed attribute of a swapengine module."""
    path = ROOT / "src" / "swapengine" / "cli.py"
    modules = {p.stem for p in path.parent.glob("*.py")}  # cli imports each under its own name
    private = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            private.append(ast.unparse(node))
    assert private == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read somewhere in that
    module; a name listed in its `__all__` counts as read."""
    unused = []
    for path in sorted((ROOT / "src" / "swapengine").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_private_definition_is_read():
    """Every module-level `_`-prefixed function or class of the package is
    read somewhere in it: as a name, as an attribute or in an import. One
    that nothing reads is dead code a refactor left behind."""
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "swapengine").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert [where for name, where in defined if name not in read] == []


def test_no_module_calls_the_builtin_sum():
    """The builtin `sum` of floats is compensated from Python 3.12 on, so a
    result built with it would depend on the interpreter; running sums give
    the same floats on every supported Python."""
    calls = []
    for path in sorted((ROOT / "src" / "swapengine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "sum":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("name", ["sweep", "crosscheck", "flow", "map"])
def test_one_bench_round_passes_its_checks(monkeypatch, tmp_path, name):
    """One round of each bench workload, built and run in-process as the
    bench's worker runs it: every op returns and its own check passes."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import swapengine
    import swapengine.cli  # the map workload runs swapengine.cli, which the package does not import
    from swapengine import engine, regions

    workloads = importlib.import_module("workloads")
    try:
        wl = workloads.make(name, 1, swapengine, str(tmp_path))
        wl.warm_up()
        ops = wl.rounds(0)
        errors = [(op.kind, op.check(op.call())) for op in ops]
    finally:  # leave no shared table or grid behind for the tests that count builds
        engine._SUMS.clear()
        regions._grid_log_ratios.cache_clear()
        regions._r1_log_ratios.cache_clear()
    assert ops
    assert [(kind, error) for kind, error in errors if error is not None] == []
