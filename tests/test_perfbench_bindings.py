"""The names the benchmark harness binds in gplab still exist.

`perfbench/tracer.py` wraps layer methods named in `LAYER_METHODS`, and
`perfbench/job.py` calls layer functions through module attributes.  A
refactor of `src/` that renames or deletes one of them would only fail when
the benchmark runs; these checks fail in the test suite first.  Both files
are read as source, never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in the module body")


def test_tracer_layer_modules_import():
    for layer in _constant(_tree("tracer.py"), "LAYER_MODULES"):
        importlib.import_module(f"gplab.{layer}")


@pytest.mark.parametrize("layer, cls, method, span", _constant(_tree("tracer.py"), "LAYER_METHODS"))
def test_tracer_layer_method_exists(layer, cls, method, span):
    module = importlib.import_module(f"gplab.{layer}")
    assert callable(getattr(getattr(module, cls), method)), span


def _gplab_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> gplab module, from every `from gplab import ...` in the file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gplab":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"gplab.{alias.name}"
    return aliases


def test_job_attributes_exist():
    tree = _tree("job.py")
    aliases = _gplab_aliases(tree)
    assert {"grids", "manybody", "gp", "hierarchy", "scattering", "pot"} <= set(aliases)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert used
    missing = [
        f"{name}.{attr}"
        for name, attr in sorted(used)
        if not hasattr(importlib.import_module(aliases[name]), attr)
    ]
    assert not missing, f"perfbench/job.py uses missing gplab names: {missing}"
