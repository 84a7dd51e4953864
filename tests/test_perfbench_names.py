"""The package names the benchmark hooks must stay hookable.

perfbench/harness.py and perfbench/tracer.py name program functions as
``layer.function`` strings.  The tracer wraps only public functions
defined in their own module of a layer it lists; a name that no longer
resolves is skipped without error and its per-layer metric reads 0.  The
names are read from the benchmark's source with ``ast``, so this test
follows whatever the benchmark asks for.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DOTTED = re.compile(r"[a-z_]+\.[a-z_]+")


def _module(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _tuple_constant(tree, name):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name}")


def _hooked_names():
    harness, tracer = _module("harness.py"), _module("tracer.py")
    names = set()
    for const in ("TIMED", "COUNTED", "KERNELS"):
        names.update(_tuple_constant(harness, const))
    names.update(_tuple_constant(tracer, "CAPTURE"))
    # names read straight from the observed calls, e.g. seen.get("reml.reml_report")
    for node in ast.walk(harness):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and DOTTED.fullmatch(node.args[0].value)):
            names.add(node.args[0].value)
    return sorted(names)


def test_the_reader_finds_every_kind_of_name():
    names = _hooked_names()
    assert "reml.reml_report" in names
    assert "selinv.selected_inverse" in names
    assert "numeric.ldlt_factorize" in names
    assert "sparse_core.permute_symmetric" in names


@pytest.mark.parametrize("name", _hooked_names())
def test_hooked_name_resolves_to_a_hookable_function(name):
    layers = _tuple_constant(_module("tracer.py"), "LAYERS")
    layer, attr = name.split(".")
    assert layer in layers
    mod = importlib.import_module(f"seldet.{layer}")
    fn = getattr(mod, attr, None)
    assert callable(fn), f"seldet.{name} is gone"
    # what the tracer wraps: a public function defined in that module
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
