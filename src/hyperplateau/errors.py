"""Exception types shared across the package."""


class AdmissibilityError(ValueError):
    """A curvature vector lies outside the open cone where f is defined;
    `indices` lists the flat batch index of every such vector."""

    def __init__(self, message, indices=()):
        self.indices = [int(i) for i in indices]
        super().__init__(message)


class NonConvergenceError(RuntimeError):
    """Newton iteration (or continuation bisection) failed to converge."""


class SingularJacobianError(RuntimeError):
    """The linearized system could not be factored."""


class AdmissibilityLostError(RuntimeError):
    """Residual evaluation hit inadmissible curvatures at one or more nodes;
    `rows` lists the rows of `row_size` nodes that hold them (None: all)."""

    def __init__(self, nodes, message=None, row_size=None):
        self.nodes = [int(i) for i in nodes]
        self.rows = None if row_size is None else sorted({i // row_size for i in self.nodes})
        super().__init__(message or f"curvature left the cone at nodes {self.nodes[:8]}"
                         + ("..." if len(self.nodes) > 8 else ""))


class UnsupportedSolutionError(ValueError):
    """Operation requires a solution layout (e.g. radial) that was not supplied."""


class ConfigError(ValueError):
    """Invalid run configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))
