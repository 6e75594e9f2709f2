import ast
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
