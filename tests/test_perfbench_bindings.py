"""The names and signatures the benchmark harness binds in gplab still hold.

`perfbench/tracer.py` wraps layer methods named in `LAYER_METHODS` and reads
call arguments by position in its qty hooks, and `perfbench/job.py` calls
layer functions through module attributes.  A refactor of `src/` that
renames, deletes or reorders one of them would only fail when the benchmark
runs; these checks fail in the test suite first, as do the attributes the
qty hooks read on a call's result.  Both files are read as source, never
executed.
"""

import ast
import dataclasses
import importlib
import inspect
import typing
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


def _resolve(node: ast.expr, aliases: dict[str, str]):
    """The gplab object an attribute chain such as `hierarchy.HierarchyFamily.from_orbital`
    names, or None if the chain is not rooted in a gplab module."""
    if isinstance(node, ast.Name):
        return importlib.import_module(aliases[node.id]) if node.id in aliases else None
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, aliases)
        return None if owner is None else getattr(owner, node.attr)
    return None


def test_job_calls_bind_to_their_signatures():
    tree = _tree("job.py")
    aliases = _gplab_aliases(tree)
    calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, aliases)
        if target is None or inspect.ismodule(target):
            continue
        where = f"perfbench/job.py:{node.lineno} {ast.unparse(node.func)}"
        assert not any(isinstance(a, ast.Starred) for a in node.args), where
        assert all(k.arg is not None for k in node.keywords), where
        signature = inspect.signature(target)
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where} does not bind: {exc}") from None
        calls += 1
    assert calls


def _qty_reads() -> list[tuple[str, int, str, object]]:
    """(span, position, parameter, default) for every argument that a qty hook
    in perfbench/tracer.py reads by position.  The default is the one the hook
    falls back to, or `inspect.Parameter.empty` if it needs the argument."""
    tree = _tree("tracer.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "QTY_HOOKS"
    )
    reads = []
    for key, value in zip(hooks.keys, hooks.values):
        if not isinstance(value, ast.Name):
            continue
        for node in ast.walk(functions[value.id]):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_arg":
                index, name = (ast.literal_eval(a) for a in node.args[2:])
                reads.append((key.value, index, name, inspect.Parameter.empty))
            elif isinstance(node, ast.IfExp) and isinstance(node.orelse, ast.Call):
                index = ast.literal_eval(node.body.slice)
                name, default = (ast.literal_eval(a) for a in node.orelse.args)
                reads.append((key.value, index, name, default))
    return reads


def test_qty_hooks_read_the_parameters_they_name():
    reads = _qty_reads()
    assert {span for span, *_ in reads} == {
        "gp.evolve_gp", "manybody.evolve_manybody", "hierarchy.dyson_term"
    }
    for span, index, name, default in reads:
        layer, function = span.split(".")
        parameters = list(
            inspect.signature(getattr(importlib.import_module(f"gplab.{layer}"), function))
            .parameters.values()
        )
        assert parameters[index].name == name, (span, index, name)
        if default is not inspect.Parameter.empty:
            assert parameters[index].default == default, (span, name, default)


def _result_reads() -> set[tuple[str, str]]:
    """(span, attribute) for every `result.<attribute>` that a qty hook in
    perfbench/tracer.py reads, in a lambda or in the function it names."""
    tree = _tree("tracer.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "QTY_HOOKS"
    )
    reads = set()
    for key, value in zip(hooks.keys, hooks.values):
        body = functions[value.id] if isinstance(value, ast.Name) else value
        for node in ast.walk(body):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "result"
            ):
                reads.add((key.value, node.attr))
    return reads


def test_qty_hooks_read_attributes_the_results_have():
    reads = _result_reads()
    assert reads == {
        ("scattering.solve_zero_energy", "radii"),
        ("gp.evolve_gp", "values"),
        ("manybody.evolve_manybody", "values"),
        ("manybody.product_state", "values"),
        ("manybody.jastrow_product_state", "values"),
    }
    for span, attribute in reads:
        layer, function = span.split(".")
        returned = typing.get_type_hints(
            getattr(importlib.import_module(f"gplab.{layer}"), function)
        )["return"]
        assert attribute in {field.name for field in dataclasses.fields(returned)}, span
