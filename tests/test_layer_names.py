"""The benchmark in perfbench/ traces layers by wrapping module attributes
by name; every name it wraps must exist on the package.  Every other
function, class and method of the package is read by the package itself."""

import ast
import importlib
from pathlib import Path

import pytest

from hyperplateau import hypgeom, solver
from hyperplateau.symfunc import CurvatureSpec

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
SRC = ROOT / "src" / "hyperplateau"


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


def _definitions(tree):
    """(node, enclosing class name or None) of every module-level function
    and class and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub, node.name


def _overrides(module, cls, name):
    """Whether method `name` of class `cls` replaces one of a base class,
    which calls it."""
    klass = getattr(importlib.import_module(f"hyperplateau.{module}"), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def test_every_definition_is_read_in_src():
    # a function, class or method is read in src/ outside its own body: a
    # method by attribute, a module-level name by name or attribute.  Dunder
    # methods, overrides and the names LAYERS wraps are read from outside
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((node, True))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((node, False))
    wrapped = set()
    for module, attr, _ in _layers():
        obj = getattr(importlib.import_module(f"hyperplateau.{module}"), attr)
        wrapped.add((obj.__module__, obj.__qualname__))
    unread = []
    for module, tree in trees.items():
        for node, cls in _definitions(tree):
            name = node.name
            qualname = f"{cls}.{name}" if cls else name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (f"hyperplateau.{module}", qualname) in wrapped:
                continue
            if cls is not None and _overrides(module, cls, name):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(id(ref) not in own and (by_attr or cls is None)
                       for ref, by_attr in reads.get(name, [])):
                unread.append(f"{module}.{qualname}")
    assert not unread, f"read only outside src/: {unread}"


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
