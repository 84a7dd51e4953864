"""Every phase time the package reports comes from one clock.

The pipeline's phases (ordering, symbolic, factorize, selinv and the
REML ones around them) are timed by one helper, so that a run record has
one place to attach.  The package's source is read with ``ast``:
``perf_counter`` may be called inside one function only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seldet"


def _clock_callers():
    """(file, enclosing function) of every ``perf_counter`` call in the
    package; the function is None for a call outside any function."""
    found = set()

    def visit(node, path, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "perf_counter":
                found.add((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_perf_counter_is_called_in_one_function():
    callers = _clock_callers()
    assert len(callers) == 1, sorted(callers, key=str)
    (_, func), = callers
    assert func is not None
