"""Damped Newton continuation for the Dirichlet problem f(kappa[graph u]) =
sigma with u = epsilon on the domain boundary.  The boundary height epsilon
runs through a decreasing schedule that may end at 0: the limit problem, the
complete hypersurface whose asymptotic boundary is the domain's boundary, is
solved by the same continuation as every positive height.

The radial path (any n, ball domains) discretizes the profile ODE on a
uniform grid with a symmetry node at the axis; the tensor-grid path for
ellipse domains lives in `grid`.  On the radial path every node's curvature
vector is (kappa_rad, kappa_tan, ..., kappa_tan), so the residual and the
Jacobian take f, its cone test and its partials from the closed-form table
of that pair (symfunc.pair_table), built once per state from the jet; the
(points, n) curvature matrix is built only for the solution.

Continuation marches through a list of (sigma, epsilon) points; the
boundary heights follow from the config's epsilon_min alone
(default_epsilon_schedule).  On a ball the umbilic cap with boundary height
epsilon has kappa = sigma everywhere, so it solves the continuous problem
exactly for every normalized f: Newton starts from it at each scheduled
boundary height, and at each later sigma of a sweep, and needs a few
iterations there.  A step where that fails warm-starts from the last
accepted state instead.  On the grid path, and at the first height when the
seeded Newton fails there, continuation walks sigma down from 0.8 at a
moderate boundary height, then shrinks the boundary height.  A failed step
is retried at the midpoint of the last accepted point and its target.  A
layout that keeps its factorization starts each unseeded step from the
Euler tangent predictor, one chord step at the new parameter values.
Every accepted Newton iterate, and every prediction Newton starts from, is
admissible at every interior node.  Newton stops by one rule: the residual
sup-norm meets the layout's tolerance.  On balls the Newton unknown is the
deviation of the heights from the exact cap at the (sigma, epsilon) being
solved, whose stencil differences are taken in closed form, so the residual
rounds to an ulp of the deviation and the 1/h^2 stencils leave no round-off
floor above the tolerance; a state moved to another point keeps its
heights.  A solution is read from the Iterate Newton converged on, with
the curvatures of its residual's jet, and holds the layout that made it,
which says which of its nodes touch the boundary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

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


# default schedules: boundary heights halved from EPSILON_START down to
# EPSILON_MIN, and sigma from SIGMA_START in steps of SIGMA_STEP
EPSILON_START, EPSILON_MIN = 0.1, 1e-3
SIGMA_START, SIGMA_STEP = 0.8, 0.05
MIN_GRID = 8  # the smallest grid size N; coarser grids solve but resolve nothing


def check_epsilon_min(epsilon_min: float) -> None:
    """Raise ValueError unless 0 <= epsilon_min < EPSILON_START, the range
    of the smallest boundary height (0 for the limit problem); NaN and
    infinities fail."""
    if not 0.0 <= epsilon_min < EPSILON_START:
        raise ValueError(f"epsilon_min must lie in [0, {EPSILON_START:g}), got {epsilon_min}")


def default_epsilon_schedule(epsilon_min: float = EPSILON_MIN) -> tuple:
    """Boundary heights halved from EPSILON_START while above epsilon_min,
    then epsilon_min itself.  A zero bound asks for the limit problem: the
    schedule to EPSILON_MIN, then 0.0.  Raises ValueError unless
    check_epsilon_min passes."""
    check_epsilon_min(epsilon_min)
    if epsilon_min == 0.0:
        return default_epsilon_schedule() + (0.0,)
    vals = []
    e = EPSILON_START
    while e > epsilon_min * (1.0 + 1e-12):
        vals.append(e)
        e *= 0.5
    vals.append(epsilon_min)
    return tuple(vals)


def default_sigma_schedule(sigma_target: float) -> tuple:
    if abs(sigma_target - SIGMA_START) < 1e-12:
        return (sigma_target,)
    direction = -1.0 if sigma_target < SIGMA_START else 1.0
    vals = [SIGMA_START]
    while True:
        nxt = vals[-1] + direction * SIGMA_STEP
        if direction * (sigma_target - nxt) <= 1e-12:
            break
        vals.append(nxt)
    vals.append(sigma_target)
    return tuple(vals)


@dataclass(frozen=True)
class SolverConfig:
    """Solve f = `sigma_target` for `spec` on `domain` down to the boundary
    height `epsilon_min`, through the heights `epsilon_schedule`, on a grid
    of `grid_size` intervals.  Frozen; construction, and replace, checks
    sigma in (0, 1), an int grid size of at least MIN_GRID, epsilon_min (see
    check_epsilon_min) and the domain's n."""

    spec: CurvatureSpec
    domain: Domain
    sigma_target: float
    grid_size: int
    epsilon_min: float = EPSILON_MIN

    def __post_init__(self):
        hypgeom.check_sigma(self.sigma_target)
        if type(self.grid_size) is not int or self.grid_size < MIN_GRID:  # a bool is no size
            raise ValueError(f"grid_size must be an int of at least {MIN_GRID}, "
                             f"got {self.grid_size!r}")
        check_epsilon_min(self.epsilon_min)
        self.domain.check_dimension(self.spec.n)

    @property
    def epsilon_schedule(self) -> tuple:
        """The boundary heights solved through, ending at epsilon_min."""
        return default_epsilon_schedule(self.epsilon_min)


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
    """A solved graph and the layout that made it (RadialLayout or
    grid.GridLayout), which answers every question about its nodes and
    gives `spec`, `domain` and `u0`.  `u` holds the heights: the radial
    profile, or the grid's quadrant heights.  `kappa`, `nu_vertical` and `w`
    are given at the interior nodes only: the profile's, the rim excluded,
    or those of the ellipse's bounding box in box order."""

    layout: "RadialLayout | grid.GridLayout"
    u: np.ndarray
    sigma: float
    epsilon: float
    kappa: np.ndarray
    w: np.ndarray
    report: SolveReport | None = None

    @property
    def nu_vertical(self) -> np.ndarray:
        """The vertical component 1/w of the upward unit normal."""
        return 1.0 / self.w

    @property
    def spec(self) -> CurvatureSpec:
        return self.layout.spec

    @property
    def domain(self) -> Domain:
        return self.layout.domain

    @property
    def u0(self) -> float:
        """Height at the center (radial) or the maximal height (grid)."""
        return self.layout.u0(self.u)

    def summary(self):
        """(largest interior curvature, smallest interior nu^{n+1})."""
        return float(np.max(self.kappa)), float(np.min(self.nu_vertical))


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


def _cap_differences(cap: hypgeom.CapSolution, rho: np.ndarray):
    """Heights c of the cap at the uniform nodes rho, and the differences
    (c', c'') that _radial_derivatives would take of them at the interior
    nodes (axis included), in closed form.  With s = sqrt((r - rho)(r +
    rho)), c = cap.c + s and each difference of s is one of squares over a
    sum:

        c'_i  = -2 rho_i / (s_{i+1} + s_{i-1}),
        c''_i = -(8 rho_i^2 / (s_{i+1} + s_{i-1}) + 2 s_i + s_{i+1} + s_{i-1})
                / ((s_{i+1} + s_i) (s_i + s_{i-1})),
        c''_0 = -2 / (s_1 + s_0).

    Every term has one sign, so they round to a few ulps of themselves,
    where the stencils of the rounded heights lose 4 ulp(c) / h^2."""
    s = np.sqrt((cap.r - rho) * (cap.r + rho))
    mid, ahead, behind = s[1:-1], s[2:], s[:-2]
    outer = ahead + behind
    cp, cpp = np.empty(rho.size - 1), np.empty(rho.size - 1)
    cp[0] = 0.0
    cp[1:] = -2.0 * rho[1:-1] / outer
    cpp[0] = -2.0 / (s[1] + s[0])
    cpp[1:] = (-(8.0 * rho[1:-1] ** 2 / outer + 2.0 * mid + outer)
               / ((ahead + mid) * (mid + behind)))
    return cap.c + s, cp, cpp


def residual(v: np.ndarray, spec: CurvatureSpec, sigma: float, cap, rho: np.ndarray):
    """Radial residual at the deviation v from a profile, and what it built,
    (res, lin).  cap = (c, c', c'') holds the profile's heights at every
    node and its differences at the interior nodes (axis included), the
    rim height being the boundary height: on RadialLayout the cap's (see
    _cap_differences).  The stencils are linear, so the jet at the interior
    nodes is (c + v, c' + D1 v, c'' + D2 v, rho).  res is f(kappa) - sigma
    at the interior nodes and v at the boundary node, lin = (jet,
    kappa_rad, kappa_tan, w, table, f) at the interior nodes, which
    _jacobian_fd reads.  The curvature vector of every node is (kappa_rad,
    kappa_tan, ..., kappa_tan), so f comes from the closed-form table of
    that pair (symfunc.pair_table), built straight from the jet, and the
    cone test from the signs of the same table (symfunc.check_table).
    Raises AdmissibilityLostError with the offending node list when any
    interior node has a non-positive height or leaves the cone."""
    c, cp, cpp = cap
    u = c[:-1] + v[:-1]
    bad_height = np.flatnonzero(u <= 0.0)
    if bad_height.size:
        raise AdmissibilityLostError(bad_height, "non-positive height at interior nodes")
    dp, dpp = _radial_derivatives(v, rho[1] - rho[0])
    jet = u, cp + dp[:-1], cpp + dpp[:-1], rho[:-1]
    r, t, w = hypgeom.radial_curvature_pair(*jet)
    e = symfunc.pair_table(r, t, spec.n - 1, max(spec.k, spec.cone_index))
    try:
        symfunc.check_table(spec, e)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices) from exc
    f = symfunc.f_of_table(spec, e)
    res = np.empty_like(v)
    res[:-1] = f - sigma
    res[-1] = v[-1]
    return res, (jet, r, t, w, e, f)


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


def _jacobian_fd(lin, spec, h):
    """Jacobian from what the residual of its state built (`lin`), with the
    per-node partials of f(kappa[jet]) in the local jet (u_i, u'_i, u''_i)
    taken by the chain rule, f_rad dkappa_rad/djet + f_tan dkappa_tan/djet,
    then assembled through the exact stencil weights of step h.  f_rad is
    the partial of f in kappa_rad and f_tan the sum of its partials in the
    n - 1 tangential components, both from the partials of f in the
    residual's table of (kappa_rad, kappa_tan, ..., kappa_tan) (rows 0..k)
    and the partials of that table in its two values; the curvatures

        kappa_rad = u u''/w^3 + 1/w,   kappa_tan = u u'/(rho w) + 1/w,

    with w = sqrt(1 + u'^2), are differentiated in closed form.  At the
    axis kappa_tan is kappa_rad (u'/rho -> u''), so every column takes the
    radial partials there.  The name is kept, although no differences are
    taken, because the benchmark in perfbench/ traces it; the rename waits
    for a change to the benchmark (ROADMAP item 9)."""
    (ui, upi, uppi, rhoi), r, t, w, e, f = lin
    m, k = spec.n - 1, spec.k
    df = symfunc.df_of_table(spec, e, f)[1:k + 1]
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
                            f_rad * rad_q + f_tan * tan_q, ui.size + 1, h)


class RadialLayout:
    """Profile heights on a uniform grid over [0, R]: the symmetry node at
    the axis, interior nodes, and the Dirichlet node at the rim.  The
    Jacobian is tridiagonal, in scipy solve_banded (1, 1) layout, with
    chain-rule partials in the local jet (see _jacobian_fd); its
    factorization costs less than one residual, so Newton builds and solves
    a fresh one every iteration.  The cap solves the continuous problem
    exactly, and the state at a point (sigma, epsilon) is the deviation v =
    u - c of the heights u from the cap c there (see `cap`): the residual
    rounds to an ulp of v, not of u, so no round-off floor of the 1/h^2
    stencil lies above the tolerance even at N = 16384.  `heights` and
    `deviation` map between the two at a point.  The cap is v = 0, and the
    driver starts Newton from it at every boundary height.  Newton stops at
    a residual sup-norm of 1e-11: at 1e-10 the cap itself met the tolerance
    at N = 16384 and sigma = 0.9, steps took no iteration, and a refinement
    study up to that grid read order 1.58 for 2.00.  A solution reports the
    heights at every node and the curvatures at the interior nodes, all but
    the rim node; the last of them is the one next to the rim."""

    keeps_factorization = False
    exact_seed = True
    newton_tol = 1e-11

    def __init__(self, spec: CurvatureSpec, domain: Domain, grid_size: int):
        self.spec, self.domain = spec, domain
        self.rho = np.linspace(0.0, domain.params[0], grid_size + 1)
        self.touches_boundary = np.arange(grid_size) == grid_size - 1
        self._cap = None  # the last point asked for, and its cap

    def cap(self, sigma, epsilon):
        """(c, c', c'') of the cap at (sigma, epsilon) (see _cap_differences),
        with c = epsilon at the rim; computed once for the last point asked
        for."""
        if self._cap is None or self._cap[0] != (sigma, epsilon):
            cap = hypgeom.make_cap_with_boundary_height(self.domain.params[0], sigma, epsilon)
            c, cp, cpp = _cap_differences(cap, self.rho)
            c[-1] = epsilon
            self._cap = (sigma, epsilon), (c, cp, cpp)
        return self._cap[1]

    def evaluate(self, v, sigma, epsilon):
        return Iterate(v, *residual(v, self.spec, sigma, self.cap(sigma, epsilon), self.rho))

    def jacobian(self, lin):
        return _jacobian_fd(lin, self.spec, self.rho[1] - self.rho[0])

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
        """The cap at (sigma, epsilon): no deviation from it."""
        return np.zeros(self.rho.size)

    def heights(self, v, sigma, epsilon):
        return self.cap(sigma, epsilon)[0] + v

    def deviation(self, u, sigma, epsilon):
        return u - self.cap(sigma, epsilon)[0]

    def u0(self, u):
        return float(u[0])

    def solution(self, it, sigma, epsilon) -> GraphSolution:
        """The iterate's heights, with kappa and w from its residual's jet."""
        kappa, w = radial_principal_curvatures(*it.lin[0], self.spec.n)
        return GraphSolution(layout=self, u=self.heights(it.u, sigma, epsilon), sigma=sigma,
                             epsilon=epsilon, kappa=kappa, w=w)


# ---------------------------------------------------------------------------
# Newton and continuation, written once against a layout: RadialLayout above
# or grid.GridLayout.  A layout evaluates a state u at a (sigma, epsilon)
# point into an Iterate, builds the Jacobian from what that evaluation built,
# factors it and solves with the factors (raising SingularJacobianError),
# seeds u from the cap, maps a state at a point to its heights and back
# (`heights`, `deviation`), and turns the Iterate Newton converged on into a
# GraphSolution with the curvatures of its jet, whose node questions it
# answers: `touches_boundary` flags, in the order of the reported interior
# nodes, those next to a Dirichlet node.  Its class sets what the
# driver does with it: `newton_tol`, the residual sup-norm at which Newton
# stops; `keeps_factorization`, to keep the factorization for chord steps
# across Newton iterations and continuation steps, and for the predictor of
# each continuation step (see _predict); and `exact_seed`, to start Newton
# from `initial` at the (sigma, epsilon) being solved for (see _solve_at).
# The iteration and backtracking limits are the module constants above.


class Iterate(NamedTuple):
    """A Newton state u, its residual `res`, and `lin`, what evaluating the
    residual built that the layout's Jacobian at u reads."""

    u: np.ndarray
    res: np.ndarray
    lin: object


class NewtonState:
    """What the Newton iterations of one solve share: the factorization kept
    for chord steps, the number of factorizations, and the number of trial
    iterates rejected as inadmissible."""

    def __init__(self):
        self.factored = None
        self.factorizations = 0
        self.rejected = 0


def newton_step(layout, it: Iterate, sigma, epsilon, state=None):
    """One Newton step from the iterate `it`.  With a kept factorization it
    first tries the full chord step, accepted when the residual sup-norm at
    least halves or meets the layout's tolerance.  Otherwise it refactors
    at it.u, with the Jacobian read from it.lin, for the Newton correction
    delta and backtracks along it, keeping every trial iterate admissible
    and requiring the residual sup-norm to decrease.  Returns (new iterate,
    new residual sup-norm)."""
    state = state if state is not None else NewtonState()
    norm = float(np.max(np.abs(it.res)))
    if state.factored is not None:
        try:
            trial = layout.evaluate(it.u + layout.solve(state.factored, -it.res), sigma, epsilon)
        except AdmissibilityLostError:
            state.rejected += 1
        else:
            trial_norm = float(np.max(np.abs(trial.res)))
            if trial_norm <= 0.5 * norm or trial_norm <= layout.newton_tol:
                return trial, trial_norm
    # drop the kept factors before building new ones: never hold two
    state.factored = None
    factored = layout.factor(layout.jacobian(it.lin))
    state.factorizations += 1
    delta = layout.solve(factored, -it.res)
    if not np.all(np.isfinite(delta)):
        raise SingularJacobianError("linear solve produced non-finite update")
    if layout.keeps_factorization:
        state.factored = factored

    t = 1.0
    for _ in range(MAX_DAMPING_STEPS + 1):
        try:
            trial = layout.evaluate(it.u + t * delta, sigma, epsilon)
        except AdmissibilityLostError:
            state.rejected += 1
            t *= DAMPING_FACTOR
            continue
        trial_norm = float(np.max(np.abs(trial.res)))
        if trial_norm < norm:
            return trial, trial_norm
        t *= DAMPING_FACTOR
    raise NonConvergenceError(
        f"backtracking exhausted {MAX_DAMPING_STEPS} halvings at sigma={sigma}, eps={epsilon}"
    )


def _newton_solve(layout, it: Iterate, sigma, epsilon, state: NewtonState):
    """Newton iterations from the iterate `it` until the residual sup-norm
    meets the layout's tolerance; returns the converged iterate, the number
    of iterations and the number of factorizations they took."""
    first = state.factorizations
    norm = float(np.max(np.abs(it.res)))
    count = 0
    while norm > layout.newton_tol:
        if count == MAX_NEWTON_ITERS:
            raise NonConvergenceError(
                f"Newton stalled at residual {norm:.3e} (sigma={sigma}, eps={epsilon})")
        it, norm = newton_step(layout, it, sigma, epsilon, state)
        count += 1
    return it, count, state.factorizations - first


def _predict(layout, v, sigma, epsilon, state: NewtonState) -> Iterate:
    """Euler predictor of a continuation step to (sigma, epsilon) from v,
    converged at the last parameter values (Allgower & Georg, Numerical
    Continuation Methods, ch. 6).  The residual F is affine in both
    parameters, dF/dsigma being minus the indicator of the curvature
    equations and dF/depsilon minus that of the Dirichlet ones, and F(v) is
    below tolerance at the last values.  So the tangent step
    -J^{-1} (dF/dp) dp, with the kept factorization standing in for J, is
    the chord step at the new values.  Returns the corrector's start as an
    iterate: the prediction, or v itself when no factorization is kept or
    when the prediction leaves the cone, a rejected trial that drops the
    kept factorization, so that Newton refactors at v."""
    it = layout.evaluate(v, sigma, epsilon)
    if state.factored is None:
        return it
    try:
        return layout.evaluate(v + layout.solve(state.factored, -it.res), sigma, epsilon)
    except AdmissibilityLostError:
        state.rejected += 1
        state.factored = None
        return it


# the typed ways a Newton solve fails
_SOLVE_FAILURES = (NonConvergenceError, SingularJacobianError, AdmissibilityLostError)


def _solve_at(layout, v, sigma, epsilon, state: NewtonState, seeded: bool):
    """Newton at (sigma, epsilon).  When `seeded`, or without a state v, it
    starts from `layout.initial(sigma, epsilon)`; otherwise, or where that
    fails and v exists, from the Euler prediction from v (see _predict)."""
    if seeded or v is None:
        try:
            seed = layout.evaluate(layout.initial(sigma, epsilon), sigma, epsilon)
            return _newton_solve(layout, seed, sigma, epsilon, state)
        except _SOLVE_FAILURES:
            if v is None:
                raise
    return _newton_solve(layout, _predict(layout, v, sigma, epsilon, state), sigma, epsilon, state)


def _march(layout, it, start, points, state: NewtonState, seeded: bool):
    """Walk the (sigma, epsilon) points with up-to-8-deep step bisection: a
    step that fails is retried at the midpoint of the last accepted point
    and its target.  Each step is one _solve_at from the state of `it`, the
    last accepted iterate, moved to the step's point with its heights kept.
    `start` is the point at which `it` converged, or None when there is no
    iterate yet; then the first step starts from the layout's seed and is
    not bisected.  Returns the iterate converged at the last point, the
    Newton iterations and factorizations of every accepted step, and the
    center height at each of the points, keyed by point."""
    iters, factors, u0_by_point = [], [], {}
    current = start
    for target in points:
        stack = [target]
        depth = 0
        while stack:
            nxt = stack[-1]
            moved = None if current is None else layout.deviation(
                layout.heights(it.u, *current), *nxt)
            try:
                it, count, nf = _solve_at(layout, moved, *nxt, state, seeded)
            except (NonConvergenceError, SingularJacobianError):
                if current is None or depth >= 8:
                    raise
                depth += 1
                stack.append(tuple(0.5 * (a + b) for a, b in zip(current, nxt)))
                continue
            iters.append(count)
            factors.append(nf)
            current = stack.pop()
        u0_by_point[target] = layout.u0(layout.heights(it.u, *target))
    return it, iters, factors, u0_by_point


def _continue(layout, cfg: SolverConfig, state: NewtonState):
    """Solve at every scheduled boundary height.  On a layout whose class
    sets `exact_seed` the first height is one seeded Newton solve; when it
    fails there, and on other layouts, the first height marches sigma down
    from the cap seed at 0.8, one predicted step per sigma.  The later
    heights are one march from the iterate converged at the first height,
    seeded when the layout's class sets `exact_seed`.  Returns the last
    converged iterate, the Newton iterations and factorizations of every
    step, and the center height at each scheduled boundary height."""
    sigma, schedule = cfg.sigma_target, cfg.epsilon_schedule
    points = [(sigma, e) for e in schedule]
    first = None
    if layout.exact_seed:
        try:
            first = _march(layout, None, None, points[:1], state, True)
        except _SOLVE_FAILURES:
            pass
    if first is None:
        # the cap seed is converged at no parameter values: no prediction
        # from it with factors kept from an earlier solve (a failed sweep row)
        state.factored = None
        sigmas = [(s, schedule[0]) for s in default_sigma_schedule(sigma)]
        first = _march(layout, None, None, sigmas, state, False)
    it, iters, factors, u0_by_point = first
    it, more, more_factors, more_u0 = _march(layout, it, points[0], points[1:], state,
                                             layout.exact_seed)
    u0_by_eps = {e: u0 for (s, e), u0 in (u0_by_point | more_u0).items() if s == sigma}
    return it, iters + more, factors + more_factors, u0_by_eps


def solve_on(layout, cfg: SolverConfig) -> GraphSolution:
    """Continuation solve of a config on the given layout."""
    state = NewtonState()
    it, iters, factors, u0_by_eps = _continue(layout, cfg, state)
    sigma, epsilon = cfg.sigma_target, cfg.epsilon_schedule[-1]
    sol = layout.solution(it, sigma, epsilon)
    kappa_max, min_nu = sol.summary()
    sol.report = SolveReport(
        converged=True,
        final_residual=float(np.max(np.abs(it.res))),
        newton_iterations=iters,
        factorizations=factors,
        kappa_max=kappa_max,
        min_nu_vertical=min_nu,
        admissibility_violations=state.rejected,
        sigma=sigma,
        epsilon=epsilon,
        grid_size=cfg.grid_size,
        u0_by_epsilon=u0_by_eps,
    )
    return sol


def _layout(cfg: SolverConfig):
    if cfg.domain.shape == hypgeom.SHAPE_ELLIPSE:
        return grid.GridLayout(cfg.spec, cfg.domain, cfg.grid_size)
    return RadialLayout(cfg.spec, cfg.domain, cfg.grid_size)


def cap_solution(spec: CurvatureSpec, domain: Domain, sigma: float, grid_size: int,
                 epsilon: float) -> GraphSolution:
    """The umbilic cap with boundary height epsilon, the oracle solution:
    its sampled heights, and its exact kappa = sigma and w = sqrt(1 +
    c'^2) at the interior nodes.  No residual: at small sigma the sampled
    cap leaves the cone by O(h^2)."""
    if domain.shape != hypgeom.SHAPE_BALL:
        raise UnsupportedSolutionError("the umbilic cap needs a ball domain")
    layout = RadialLayout(spec, domain, grid_size)
    cap = hypgeom.make_cap_with_boundary_height(domain.params[0], sigma, epsilon)
    u = np.maximum(cap.height(layout.rho), max(epsilon, 1e-300))
    return GraphSolution(layout=layout, u=u, sigma=sigma, epsilon=epsilon,
                         kappa=np.full((grid_size, spec.n), sigma),
                         w=np.hypot(1.0, cap.dheight(layout.rho[:-1])))


def continuation_solve(config: SolverConfig) -> GraphSolution:
    """Solve to (sigma_target, min epsilon), Newton-iterating at every
    scheduled boundary height (see _continue).  Ellipses go through the
    grid path's entry point, grid.continuation_solve_grid."""
    if config.domain.shape == hypgeom.SHAPE_ELLIPSE:
        return grid.continuation_solve_grid(config)
    return solve_on(_layout(config), config)


def sweep_sigma(config: SolverConfig, sigmas) -> list:
    """Sweep over sigma values (descending); one row per sigma, per-row
    failures recorded rather than raised.  The first row that converges runs
    the full continuation; every later row marches to the one point
    (sigma, epsilon_min) from the last converged state and its point, which
    a failed step bisects back towards, seeded from the cap on balls, from
    the Euler prediction on ellipses (see _solve_at)."""
    sigmas = list(sigmas)
    if sorted(sigmas, reverse=True) != sigmas:
        raise ValueError("sigmas must be sorted descending")
    layout = _layout(config)
    state = NewtonState()
    epsilon = config.epsilon_schedule[-1]
    rows = []
    warm = None  # the last converged iterate and its (sigma, epsilon)
    for s in sigmas:
        cfg = replace(config, sigma_target=s)
        row = {"sigma": s, "below_sigma0": s < SIGMA0_INTERVAL[0]}
        try:
            if warm is None:
                it, its, _, _ = _continue(layout, cfg, state)
            else:
                it, its, _, _ = _march(layout, *warm, [(s, epsilon)], state, layout.exact_seed)
            warm = it, (s, epsilon)
            sol = layout.solution(it, s, epsilon)
            kappa_max, min_nu = sol.summary()
            row.update(status="ok", converged=True, u0=sol.u0, kappa_max=kappa_max,
                       min_nu_vertical=min_nu, iterations=int(sum(its)))
        except _SOLVE_FAILURES as exc:
            row.update(status=f"failed: {type(exc).__name__}", converged=False,
                       u0=float("nan"), kappa_max=float("nan"),
                       min_nu_vertical=float("nan"), iterations=0)
        rows.append(row)
    return rows


def refine_study(config: SolverConfig, levels: int) -> dict:
    """Solve at grid sizes N, 2N, ...; report the empirical order of the
    center height over the three finest levels and the drift of the
    largest curvature over the two finest, each only when all of those
    levels converged (across a failed level N does not double)."""
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
    good = []  # the finest levels, all converged
    for r in rows:
        good = good + [r] if r["converged"] else []
    if len(good) >= 3:
        d1 = good[-3]["u0"] - good[-2]["u0"]
        d2 = good[-2]["u0"] - good[-1]["u0"]
        out["observed_order"] = math.log2(abs(d1 / d2)) if d2 != 0.0 else float("inf")
    if len(good) >= 2:
        a, b = good[-2]["kappa_max"], good[-1]["kappa_max"]
        out["kappa_max_drift"] = abs(b - a) / max(abs(a), 1e-300)
    return out
