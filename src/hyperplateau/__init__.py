"""Constant-curvature graph hypersurfaces over planar domains in the upper
half-space model: symmetric-function calculus, hyperbolic graph geometry, a
continuation Newton solver, and the curvature-estimate verification suite.
"""

from . import hypgeom, solver, symfunc, verify
from .errors import (
    AdmissibilityError,
    AdmissibilityLostError,
    ConfigError,
    NonConvergenceError,
    SingularJacobianError,
    UnsupportedSolutionError,
)
from .hypgeom import CapSolution, Domain, make_cap_with_boundary_height
from .solver import GraphSolution, SolveReport, SolverConfig, continuation_solve
from .symfunc import CurvatureSpec

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AdmissibilityLostError",
    "CapSolution",
    "ConfigError",
    "CurvatureSpec",
    "Domain",
    "GraphSolution",
    "NonConvergenceError",
    "SingularJacobianError",
    "SolveReport",
    "SolverConfig",
    "UnsupportedSolutionError",
    "continuation_solve",
    "hypgeom",
    "make_cap_with_boundary_height",
    "solver",
    "symfunc",
    "verify",
]
