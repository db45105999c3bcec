"""Damped Newton continuation for the Dirichlet problem f(kappa[graph u]) =
sigma with u = epsilon on the domain boundary.

The radial path (any n, ball domains) discretizes the profile ODE on a
uniform grid with a symmetry node at the axis; the tensor-grid path for
ellipse domains lives in `grid`.  On the radial path every node's curvature
vector is (kappa_rad, kappa_tan, ..., kappa_tan), so the residual and the
Jacobian take f, its cone test and its partials from the closed-form table
of that pair (symfunc.pair_table), built straight from the jet; the
(points, n) curvature matrix is built only for summaries and solutions.

On a ball the umbilic cap with boundary height epsilon has kappa = sigma
everywhere, so it solves the continuous problem exactly for every
normalized f: Newton starts from it at each scheduled boundary height, and
at each later sigma of a sweep, and needs a few iterations there.  A step
where that fails warm-starts from the last accepted state instead.  On the
grid path, and at the first height when the seeded Newton fails there,
continuation walks sigma down from 0.8 at a moderate boundary height, then
shrinks the boundary height.  A layout that keeps its factorization starts
each such step from the Euler tangent predictor, one chord step at the new
parameter values.  Every accepted Newton iterate, and every prediction
Newton starts from, is admissible at every interior node.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from . import grid, hypgeom, symfunc
from .errors import (
    AdmissibilityError,
    AdmissibilityLostError,
    NonConvergenceError,
    SingularJacobianError,
    UnsupportedSolutionError,
)
from .hypgeom import Domain, radial_principal_curvatures
from .symfunc import CurvatureSpec

SIGMA0_INTERVAL = (0.3703, 0.3704)  # classical small-sigma threshold, from the literature

# Newton limits: iterations per solve, and backtracking halvings of the
# damping factor per step
MAX_NEWTON_ITERS = 50
DAMPING_FACTOR = 0.5
MAX_DAMPING_STEPS = 20


def default_epsilon_schedule(epsilon_min: float = 1e-3, start: float = 0.1) -> tuple:
    vals = []
    e = start
    while e > epsilon_min * (1.0 + 1e-12):
        vals.append(e)
        e *= 0.5
    vals.append(epsilon_min)
    return tuple(vals)


def default_sigma_schedule(sigma_target: float, start: float = 0.8, step: float = 0.05) -> tuple:
    if abs(sigma_target - start) < 1e-12:
        return (sigma_target,)
    direction = -1.0 if sigma_target < start else 1.0
    vals = [start]
    while True:
        nxt = vals[-1] + direction * step
        if direction * (sigma_target - nxt) <= 1e-12:
            break
        vals.append(nxt)
    vals.append(sigma_target)
    return tuple(vals)


@dataclass
class SolverConfig:
    spec: CurvatureSpec
    domain: Domain
    sigma_target: float
    grid_size: int = 1024
    epsilon_min: float = 1e-3
    epsilon_schedule: tuple | None = None

    def resolved(self) -> "SolverConfig":
        cfg = replace(self)
        if not 0.0 < cfg.sigma_target < 1.0:
            raise ValueError("sigma_target must lie in (0, 1)")
        if cfg.epsilon_schedule is None:
            cfg.epsilon_schedule = default_epsilon_schedule(cfg.epsilon_min)
        eps = np.asarray(cfg.epsilon_schedule)
        if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
            raise ValueError("epsilon schedule must be positive and strictly decreasing")
        return cfg


@dataclass
class SolveReport:
    converged: bool
    final_residual: float
    newton_iterations: list
    factorizations: list
    kappa_max: float
    min_nu_vertical: float
    admissibility_violations: int
    sigma: float
    epsilon: float
    grid_size: int
    u0_by_epsilon: dict = field(default_factory=dict)

    @property
    def below_sigma0(self) -> bool:
        return self.sigma < SIGMA0_INTERVAL[0]

    def statistics(self) -> dict:
        """Deterministic statistics block (no timing): every field, and the
        boundary heights as keys written to 12 digits."""
        stats = asdict(self)
        stats["below_sigma0"] = self.below_sigma0
        stats["u0_by_epsilon"] = {f"{k:.12g}": v for k, v in self.u0_by_epsilon.items()}
        return stats


@dataclass
class GraphSolution:
    domain: Domain
    spec: CurvatureSpec
    sigma: float
    epsilon: float
    kind: str  # "radial" or "grid"
    u: np.ndarray
    kappa: np.ndarray
    nu_vertical: np.ndarray
    w: np.ndarray
    report: SolveReport | None = None
    # radial layout
    rho: np.ndarray | None = None
    up: np.ndarray | None = None
    # grid layout
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    mask: np.ndarray | None = None
    u2d: np.ndarray | None = None

    @property
    def u0(self) -> float:
        """Height at the center (radial) or the maximal height (grid)."""
        return float(self.u[0]) if self.kind == "radial" else float(np.max(self.u))

    def interior_jet(self, i: int) -> hypgeom.PointJet:
        if self.kind != "radial":
            raise UnsupportedSolutionError("per-node jets only exposed for radial solutions")
        h = self.rho[1] - self.rho[0]
        up, upp = _radial_derivatives(self.u, h)
        return hypgeom.radial_jet(self.u[i], up[i], upp[i], self.rho[i], self.spec.n)


# ---------------------------------------------------------------------------
# radial discretization


def _radial_derivatives(u: np.ndarray, h: float):
    """Second-order derivatives of a radial profile; symmetry at the axis,
    one-sided second-order stencils at the outer boundary."""
    up = np.empty_like(u)
    upp = np.empty_like(u)
    up[0] = 0.0
    up[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    up[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    upp[0] = 2.0 * (u[1] - u[0]) / h**2
    upp[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    upp[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h**2
    return up, upp


def _radial_kappa(u: np.ndarray, rho: np.ndarray, n: int):
    h = rho[1] - rho[0]
    up, upp = _radial_derivatives(u, h)
    kappa, w = radial_principal_curvatures(u, up, upp, rho, n)
    return kappa, w, up


def residual(u: np.ndarray, spec: CurvatureSpec, sigma: float, epsilon: float,
             rho: np.ndarray) -> np.ndarray:
    """Radial residual: f(kappa) - sigma at interior nodes (axis included),
    u - epsilon at the boundary node.  The curvature vector of every node is
    (kappa_rad, kappa_tan, ..., kappa_tan), so f comes from the closed-form
    table of that pair (symfunc.pair_table), built straight from the jet,
    and the cone test from the signs of the same table
    (symfunc.check_table).  Raises AdmissibilityLostError with the offending
    node list when any interior node has a non-positive height or leaves
    the cone."""
    bad_height = np.flatnonzero(u[:-1] <= 0.0)
    if bad_height.size:
        raise AdmissibilityLostError(bad_height, "non-positive height at interior nodes")
    up, upp = _radial_derivatives(u, rho[1] - rho[0])
    r, t, _ = hypgeom.radial_curvature_pair(u[:-1], up[:-1], upp[:-1], rho[:-1])
    e = symfunc.pair_table(r, t, spec.n - 1, max(spec.k, spec.cone_index))
    try:
        symfunc.check_table(spec, e)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices) from exc
    res = np.empty_like(u)
    res[:-1] = symfunc.f_of_table(spec, e) - sigma
    res[-1] = u[-1] - epsilon
    return res


def _assemble_banded(dres_du, dres_dup, dres_dupp, m, h):
    """Assemble the tridiagonal Jacobian from per-node partials w.r.t. the
    local jet (u_i, u'_i, u''_i), using the exact stencil weights; scipy
    solve_banded (1,1) layout."""
    ab = np.zeros((3, m))
    inner = slice(1, m - 1)
    upp = dres_dupp[inner] / h**2
    # the axis node shares the diagonal weight: u' = 0, u'' = 2(u1 - u0)/h^2
    ab[1, : m - 1] = dres_du[: m - 1] + dres_dupp[: m - 1] * (-2.0 / h**2)
    ab[2, : m - 2] = dres_dup[inner] * (-1.0 / (2.0 * h)) + upp   # J[i, i-1]
    ab[0, 2:] = dres_dup[inner] * (1.0 / (2.0 * h)) + upp   # J[i, i+1]
    ab[0, 1] = dres_dupp[0] * (2.0 / h**2)   # J[0, 1]
    # boundary Dirichlet row
    ab[1, m - 1] = 1.0
    return ab


def _jacobian_fd(u, spec, rho):
    """Jacobian with the per-node partials of f(kappa[jet]) in the local jet
    (u_i, u'_i, u''_i) taken by the chain rule, f_rad dkappa_rad/djet +
    f_tan dkappa_tan/djet, then assembled through the exact stencil
    weights.  f_rad is the partial of f in kappa_rad and f_tan the sum of
    its partials in the n - 1 tangential components, both from the partials
    of f in the closed-form table of (kappa_rad, kappa_tan, ..., kappa_tan)
    (symfunc.df_of_table on symfunc.pair_table) and the partials of that
    table in its two values; the curvatures

        kappa_rad = u u''/w^3 + 1/w,   kappa_tan = u u'/(rho w) + 1/w,

    with w = sqrt(1 + u'^2), are differentiated in closed form.  At the
    axis kappa_tan is kappa_rad (u'/rho -> u''), so every column takes the
    radial partials there.  The name is kept, although no differences are
    taken, because the benchmark in perfbench/ traces it; the rename waits
    for a change to the benchmark (ROADMAP item 6)."""
    h = rho[1] - rho[0]
    up, upp = _radial_derivatives(u, h)
    ui, upi, uppi, rhoi = u[:-1], up[:-1], upp[:-1], rho[:-1]
    r, t, w = hypgeom.radial_curvature_pair(ui, upi, uppi, rhoi)
    m, k = spec.n - 1, spec.k
    df = symfunc.df_of_table(spec, symfunc.pair_table(r, t, m, k))[1:]
    f_rad = np.sum(df * symfunc.pair_table(t, t, m - 1, k - 1), axis=0)
    f_tan = m * np.sum(df * symfunc.pair_table(r, t, m - 1, k - 1), axis=0)
    w3 = w**3
    rad_u = uppi / w3
    rad_p = -(3.0 * ui * uppi * upi / w**2 + upi) / w3
    rad_q = ui / w3
    axis = rhoi == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_u = np.where(axis, rad_u, upi / (rhoi * w))
        tan_p = np.where(axis, rad_p, (ui / rhoi - upi) / w3)
    tan_q = np.where(axis, rad_q, 0.0)
    return _assemble_banded(f_rad * rad_u + f_tan * tan_u, f_rad * rad_p + f_tan * tan_p,
                            f_rad * rad_q + f_tan * tan_q, len(u), h)


class RadialLayout:
    """Profile heights on a uniform grid over [0, R]: the symmetry node at
    the axis, interior nodes, and the Dirichlet node at the rim.  The
    Jacobian is tridiagonal, in scipy solve_banded (1, 1) layout, with
    chain-rule partials in the local jet (see _jacobian_fd); its
    factorization costs less than one residual, so Newton builds and solves
    a fresh one every iteration.  The cap seed solves the continuous
    problem exactly, so the driver starts Newton from it at every boundary
    height.  Newton stops at a residual sup-norm of 1e-10."""

    keeps_factorization = False
    exact_seed = True
    newton_tol = 1e-10

    def __init__(self, spec: CurvatureSpec, domain: Domain, grid_size: int):
        self.spec, self.domain = spec, domain
        self.rho = np.linspace(0.0, domain.params[0], grid_size + 1)

    def residual(self, u, sigma, epsilon):
        return residual(u, self.spec, sigma, epsilon, self.rho)

    def jacobian(self, u):
        return _jacobian_fd(u, self.spec, self.rho)

    def factor(self, ab):
        return ab  # solve_banded factors and solves in one call

    def solve(self, ab, rhs):
        # no finiteness scan: a non-finite Jacobian ends in LinAlgError or in
        # newton_step's non-finite update check, both SingularJacobianError
        try:
            return solve_banded((1, 1), ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc

    def initial(self, sigma, epsilon):
        cap = hypgeom.make_cap_with_boundary_height(self.domain.params[0], sigma, epsilon)
        u = cap.height(self.rho)
        u[-1] = epsilon
        return u

    def u0(self, u):
        return float(u[0])

    def summary(self, u):
        """(largest interior curvature, smallest interior nu^{n+1})."""
        kappa, w, _ = _radial_kappa(u, self.rho, self.spec.n)
        return float(np.max(kappa[:-1])), float(np.min(1.0 / w[:-1]))

    def solution(self, u, sigma, epsilon, report=None) -> GraphSolution:
        kappa, w, up = _radial_kappa(u, self.rho, self.spec.n)
        return GraphSolution(
            domain=self.domain, spec=self.spec, sigma=sigma, epsilon=epsilon,
            kind="radial", u=u, kappa=kappa, nu_vertical=1.0 / w, w=w,
            rho=self.rho, up=up, report=report,
        )


# ---------------------------------------------------------------------------
# Newton and continuation, written once against a layout: RadialLayout above
# or grid.GridLayout.  A layout maps a state u to its residual and Jacobian,
# factors the Jacobian and solves with the factors (raising
# SingularJacobianError), seeds u from the cap, and turns a converged u into
# a summary and a GraphSolution.  Its class also sets what the driver does
# with it: `newton_tol`, the residual sup-norm at which Newton stops;
# `keeps_factorization`, to keep the factorization for chord steps across
# Newton iterations and continuation steps, and for the predictor of each
# continuation step (see _predict); and `exact_seed`, to start Newton from
# `initial` at the sigma being solved for (see _seeded_solve).
# The iteration and backtracking limits are the module constants above.


class NewtonState:
    """What the Newton iterations of one solve share: the factorization kept
    for chord steps, the number of factorizations, and the number of trial
    iterates rejected as inadmissible."""

    def __init__(self):
        self.factored = None
        self.factorizations = 0
        self.rejected = 0


def newton_step(layout, u, res, sigma, epsilon, state=None):
    """One Newton step from u, whose residual is res.  With a kept
    factorization it first tries the full chord step, accepted when the
    residual sup-norm at least halves.  Otherwise it refactors at u and
    backtracks along the Newton direction, keeping every trial iterate
    admissible and requiring the residual sup-norm to not increase.
    Returns (new u, step sup-norm, new residual sup-norm, new residual)."""
    state = state if state is not None else NewtonState()
    norm = float(np.max(np.abs(res)))
    if state.factored is not None:
        delta = layout.solve(state.factored, -res)
        trial = u + delta
        try:
            r = layout.residual(trial, sigma, epsilon)
        except AdmissibilityLostError:
            state.rejected += 1
        else:
            trial_norm = float(np.max(np.abs(r)))
            if trial_norm <= 0.5 * norm or trial_norm <= layout.newton_tol:
                return trial, float(np.max(np.abs(delta))), trial_norm, r
    # drop the kept factors before building new ones: never hold two
    state.factored = None
    factored = layout.factor(layout.jacobian(u))
    state.factorizations += 1
    delta = layout.solve(factored, -res)
    if not np.all(np.isfinite(delta)):
        raise SingularJacobianError("linear solve produced non-finite update")
    if layout.keeps_factorization:
        state.factored = factored

    t = 1.0
    for _ in range(MAX_DAMPING_STEPS + 1):
        trial = u + t * delta
        try:
            r = layout.residual(trial, sigma, epsilon)
        except AdmissibilityLostError:
            state.rejected += 1
            t *= DAMPING_FACTOR
            continue
        trial_norm = float(np.max(np.abs(r)))
        if trial_norm < norm or trial_norm <= layout.newton_tol:
            return trial, float(np.max(np.abs(t * delta))), trial_norm, r
        t *= DAMPING_FACTOR
    raise NonConvergenceError(
        f"backtracking exhausted {MAX_DAMPING_STEPS} halvings at sigma={sigma}, eps={epsilon}"
    )


def _newton_solve(layout, u, sigma, epsilon, state: NewtonState, res=None):
    """Newton iterations to the layout's tolerance from u, whose residual
    res is computed when not given; returns the converged u, the number of
    iterations and the number of factorizations they took."""
    tol = layout.newton_tol
    first = state.factorizations
    if res is None:
        res = layout.residual(u, sigma, epsilon)
    norm = float(np.max(np.abs(res)))
    step_norm = None
    for it in range(MAX_NEWTON_ITERS):
        if norm <= tol:
            return u, it, state.factorizations - first
        try:
            u, step_norm, norm, res = newton_step(layout, u, res, sigma, epsilon, state)
        except NonConvergenceError:
            # stagnation at the round-off floor of the 1/h^2 stencils: the
            # update has collapsed to rounding noise while the residual sits
            # just above the nominal tolerance -- accept rather than fail
            if (
                norm <= 1e3 * tol
                and step_norm is not None
                and step_norm <= 1e-9 * (1.0 + float(np.max(np.abs(u))))
            ):
                return u, it, state.factorizations - first
            raise
    if norm <= tol:
        return u, MAX_NEWTON_ITERS, state.factorizations - first
    raise NonConvergenceError(
        f"Newton stalled at residual {norm:.3e} (sigma={sigma}, eps={epsilon})"
    )


def _predict(layout, v, sigma, epsilon, state: NewtonState):
    """Euler predictor of a continuation step to (sigma, epsilon) from v,
    converged at the last parameter values (Allgower & Georg, Numerical
    Continuation Methods, ch. 6).  The residual F is affine in both
    parameters, dF/dsigma being minus the indicator of the curvature
    equations and dF/depsilon minus that of the Dirichlet ones, and F(v) is
    below tolerance at the last values.  So the tangent step
    -J^{-1} (dF/dp) dp, with the kept factorization standing in for J, is
    the chord step at the new values.  Returns the corrector's start and
    its residual: the prediction, or v itself when no factorization is kept
    or when the prediction leaves the cone, which counts as a rejected
    trial."""
    res = layout.residual(v, sigma, epsilon)
    if state.factored is None:
        return v, res
    pred = v + layout.solve(state.factored, -res)
    try:
        return pred, layout.residual(pred, sigma, epsilon)
    except AdmissibilityLostError:
        state.rejected += 1
        return v, res


def _step(layout, v, sigma, epsilon, state: NewtonState):
    """One continuation step from v: Newton at (sigma, epsilon) from the
    Euler prediction."""
    u, res = _predict(layout, v, sigma, epsilon, state)
    return _newton_solve(layout, u, sigma, epsilon, state, res)


def _march(u, values, solve_at, record=None):
    """Walk a continuation schedule with up-to-8-deep step bisection.  Each
    step calls solve_at(v, value) with v the last accepted state, converged
    at the last accepted value, or the march's start for the first step.
    Returns the final state and the Newton iterations and factorizations of
    every step."""
    iters, factors = [], []
    current = None
    for target in values:
        stack = [target]
        depth = 0
        while stack:
            nxt = stack[-1]
            try:
                u, it, nf = solve_at(u, nxt)
            except (NonConvergenceError, SingularJacobianError):
                if current is None or depth >= 8:
                    raise
                depth += 1
                stack.append(0.5 * (current + nxt))
                continue
            iters.append(it)
            factors.append(nf)
            current = nxt
            stack.pop()
            if record is not None and nxt == target:
                record(u, nxt)
    return u, iters, factors


# the typed ways a Newton solve fails
_SOLVE_FAILURES = (NonConvergenceError, SingularJacobianError, AdmissibilityLostError)


def _seeded_solve(layout, v, sigma, epsilon, state: NewtonState):
    """Newton at (sigma, epsilon).  A layout whose class sets `exact_seed`
    starts from its exact solution of the continuous problem,
    `layout.initial(sigma, epsilon)`, and takes a continuation step from
    the state v only where that fails (re-raising when v is None); other
    layouts take a continuation step from v (see _step)."""
    if layout.exact_seed:
        try:
            return _newton_solve(layout, layout.initial(sigma, epsilon), sigma, epsilon, state)
        except _SOLVE_FAILURES:
            if v is None:
                raise
    return _step(layout, v, sigma, epsilon, state)


def _continue(layout, cfg: SolverConfig, state: NewtonState):
    """Solve at every scheduled boundary height.  On a layout whose class
    sets `exact_seed` the first height is one seeded Newton solve; when it
    fails there, and on other layouts, the first height marches sigma down
    from the cap seed at 0.8, one predicted step per sigma.  Every later
    height is one _seeded_solve from the state at the height before.
    Returns the final state, the Newton iterations and factorizations of
    every step, and the center height at each scheduled boundary height."""
    sigma, schedule = cfg.sigma_target, cfg.epsilon_schedule
    eps0 = schedule[0]
    u0_by_eps = {}

    def record(v, e):
        u0_by_eps[float(e)] = layout.u0(v)

    def solve_at(v, e):
        return _seeded_solve(layout, v, sigma, e, state)

    def march_sigma():
        # the cap seed is converged at no parameter values: no prediction
        # from it with factors kept from an earlier solve (a failed sweep row)
        state.factored = None
        sigmas = default_sigma_schedule(sigma)
        u, iters, factors = _march(layout.initial(sigmas[0], eps0), sigmas,
                                   lambda v, s: _step(layout, v, s, eps0, state))
        record(u, eps0)
        return u, iters, factors

    if layout.exact_seed:
        try:
            u, iters, factors = _march(None, schedule[:1], solve_at, record)
        except _SOLVE_FAILURES:
            u, iters, factors = march_sigma()
    else:
        u, iters, factors = march_sigma()
    u, more, more_factors = _march(u, schedule[1:], solve_at, record)
    return u, iters + more, factors + more_factors, u0_by_eps


def solve_on(layout, cfg: SolverConfig) -> GraphSolution:
    """Continuation solve of a resolved config on the given layout."""
    state = NewtonState()
    u, iters, factors, u0_by_eps = _continue(layout, cfg, state)
    epsilon = cfg.epsilon_schedule[-1]
    final = layout.residual(u, cfg.sigma_target, epsilon)
    kappa_max, min_nu = layout.summary(u)
    report = SolveReport(
        converged=True,
        final_residual=float(np.max(np.abs(final))),
        newton_iterations=iters,
        factorizations=factors,
        kappa_max=kappa_max,
        min_nu_vertical=min_nu,
        admissibility_violations=state.rejected,
        sigma=cfg.sigma_target,
        epsilon=epsilon,
        grid_size=cfg.grid_size,
        u0_by_epsilon=u0_by_eps,
    )
    return layout.solution(u, cfg.sigma_target, epsilon, report)


def _layout(cfg: SolverConfig):
    if cfg.domain.shape == hypgeom.SHAPE_ELLIPSE:
        return grid.GridLayout(cfg.spec, cfg.domain, cfg.grid_size)
    if cfg.domain.shape != hypgeom.SHAPE_BALL:
        raise UnsupportedSolutionError(f"solver does not support shape {cfg.domain.shape!r}")
    return RadialLayout(cfg.spec, cfg.domain, cfg.grid_size)


def radial_solution_from_profile(spec: CurvatureSpec, domain: Domain, sigma: float,
                                 grid_size: int, height_fn, epsilon: float = 0.0) -> GraphSolution:
    """Build a radial GraphSolution by sampling a closed-form profile (used
    for oracle solutions such as caps and horospheres)."""
    if domain.shape != hypgeom.SHAPE_BALL:
        raise UnsupportedSolutionError("profile sampling needs a ball domain")
    layout = RadialLayout(spec, domain, grid_size)
    u = np.maximum(np.asarray(height_fn(layout.rho), dtype=float), max(epsilon, 1e-300))
    return layout.solution(u, sigma, epsilon)


def continuation_solve(config: SolverConfig) -> GraphSolution:
    """Solve to (sigma_target, min epsilon), Newton-iterating at every
    scheduled boundary height (see _continue).  Ellipses go through the
    grid path's entry point, grid.continuation_solve_grid."""
    cfg = config.resolved()
    if cfg.domain.shape == hypgeom.SHAPE_ELLIPSE:
        return grid.continuation_solve_grid(cfg)
    return solve_on(_layout(cfg), cfg)


def solve_with_epsilon_extrapolation(config: SolverConfig, eps_values=(4e-3, 2e-3, 1e-3)):
    """Solve once, marching the boundary height through the given values, and
    Richardson-extrapolate the center height to the zero-boundary limit using
    the empirically observed order."""
    eps_values = tuple(sorted(eps_values, reverse=True))
    sched = [e for e in default_epsilon_schedule(eps_values[0] * 1.5) if e > eps_values[0]]
    cfg = replace(config, epsilon_schedule=tuple(sched) + eps_values,
                  epsilon_min=eps_values[-1])
    sol = continuation_solve(cfg)
    u0 = [sol.report.u0_by_epsilon[float(e)] for e in eps_values]
    d1 = u0[0] - u0[1]
    d2 = u0[1] - u0[2]
    ratio = eps_values[0] / eps_values[1]
    if d2 == 0.0 or d1 / d2 <= 1.0:
        order = 1.0
    else:
        order = math.log(d1 / d2, ratio)
    factor = (eps_values[1] / eps_values[2]) ** order - 1.0
    extrapolated = u0[2] - d2 / factor
    return extrapolated, {"u0": dict(zip(map(float, eps_values), u0)), "order": order,
                          "solution": sol}


def sweep_sigma(config: SolverConfig, sigmas) -> list:
    """Sweep over sigma values (descending); one row per sigma, per-row
    failures recorded rather than raised.  The first row that converges runs
    the full continuation; every later row is one _seeded_solve at the final
    boundary height: from the cap on balls, from the Euler prediction from
    the last converged state on ellipses."""
    sigmas = list(sigmas)
    if sorted(sigmas, reverse=True) != sigmas:
        raise ValueError("sigmas must be sorted descending")
    layout = _layout(config)
    state = NewtonState()
    rows = []
    warm = None
    for s in sigmas:
        cfg = replace(config, sigma_target=s).resolved()
        epsilon = cfg.epsilon_schedule[-1]
        row = {"sigma": s, "below_sigma0": s < SIGMA0_INTERVAL[0]}
        try:
            if warm is None:
                u, its, _, _ = _continue(layout, cfg, state)
            else:
                u, its, _ = _march(
                    warm, (s,), lambda v, sv: _seeded_solve(layout, v, sv, epsilon, state))
            warm = u
            kappa_max, min_nu = layout.summary(u)
            row.update(status="ok", converged=True, u0=layout.u0(u), kappa_max=kappa_max,
                       min_nu_vertical=min_nu, iterations=int(sum(its)))
        except _SOLVE_FAILURES as exc:
            row.update(status=f"failed: {type(exc).__name__}", converged=False,
                       u0=float("nan"), kappa_max=float("nan"),
                       min_nu_vertical=float("nan"), iterations=0)
        rows.append(row)
    return rows


def refine_study(config: SolverConfig, levels: int) -> dict:
    """Solve at grid sizes N, 2N, ...; report the empirical order of the
    center height and the drift of the largest curvature between levels."""
    if levels < 2:
        raise ValueError("refine_study needs at least 2 levels")
    rows = []
    for j in range(levels):
        cfg = replace(config, grid_size=config.grid_size * 2**j)
        row = {"grid_size": cfg.grid_size}
        try:
            sol = continuation_solve(cfg)
            row.update(converged=True, u0=sol.u0, kappa_max=sol.report.kappa_max,
                       final_residual=sol.report.final_residual)
        except _SOLVE_FAILURES as exc:
            row.update(converged=False, status=f"failed: {type(exc).__name__}",
                       u0=float("nan"), kappa_max=float("nan"))
        rows.append(row)
    out = {"rows": rows}
    good = [r for r in rows if r.get("converged")]
    if len(good) >= 3:
        d1 = good[-3]["u0"] - good[-2]["u0"]
        d2 = good[-2]["u0"] - good[-1]["u0"]
        out["observed_order"] = math.log2(abs(d1 / d2)) if d2 != 0.0 else float("inf")
    if len(good) >= 2:
        a, b = good[-2]["kappa_max"], good[-1]["kappa_max"]
        out["kappa_max_drift"] = abs(b - a) / max(abs(a), 1e-300)
    return out
