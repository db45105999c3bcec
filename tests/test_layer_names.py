"""The benchmark in perfbench/ traces layers by wrapping module attributes
by name; every name it wraps must exist on the package."""

import ast
import importlib
from pathlib import Path

import pytest

from hyperplateau import hypgeom, solver
from hyperplateau.symfunc import CurvatureSpec

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


@pytest.mark.parametrize("domain, grid_size", [
    (hypgeom.Domain.ball(1.0), 128),
    (hypgeom.Domain.ellipse(1.5, 1.0), 32),
], ids=["ball", "ellipse"])
def test_march_steps_are_the_reported_iterations(domain, grid_size, monkeypatch):
    # the benchmark counts Newton iterations and continuation steps from
    # result[1] of every solver._march call
    march, steps = solver._march, []

    def counted(*args):
        result = march(*args)
        steps.extend(result[1])
        return result

    monkeypatch.setattr(solver, "_march", counted)
    sol = solver.continuation_solve(solver.SolverConfig(
        spec=CurvatureSpec.consecutive_quotient(2, 2), domain=domain, sigma_target=0.5,
        grid_size=grid_size))
    assert steps == sol.report.newton_iterations
