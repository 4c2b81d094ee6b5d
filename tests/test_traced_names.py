"""The names the benchmark's tracer wraps must exist in wpcsma.

`wpbench/tracer.py` looks each `(module, name)` of its `TRACED` list up with
a bare `getattr`, so a deleted or renamed function would crash a traced
benchmark run. The list is read from the file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parent.parent / "wpbench" / "tracer.py"


def _traced():
    for stmt in ast.parse(TRACER.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{TRACER} assigns no TRACED list")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"wpcsma.{mod}.{name}" for mod, name in traced
               if not callable(getattr(importlib.import_module(f"wpcsma.{mod}"), name, None))]
    assert not missing, f"traced but not defined: {missing}"
