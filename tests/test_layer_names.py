"""The benchmark in perfbench/ traces layers by wrapping module attributes
by name; every name it wraps must exist on the package."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layers():
    # read without importing: importing run.py sets BLAS environment variables
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {RUN_PY}")


def test_traced_names_resolve():
    pairs = [(module, attr) for module, attr, _ in _layers()] + [("solver", "_march")]
    missing = [f"{module}.{attr}" for module, attr in pairs
               if not callable(getattr(importlib.import_module(f"hyperplateau.{module}"),
                                       attr, None))]
    assert not missing
