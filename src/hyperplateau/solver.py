"""Damped Newton continuation for the Dirichlet problem f(kappa[graph u]) =
sigma with u = epsilon on the domain boundary, written once against a
discretization Layout: RadialLayout here solves balls (any n), and
grid.GridLayout ellipses (n = 2).  The boundary height epsilon runs through
a decreasing schedule (default_epsilon_schedule) that may end at 0: the
limit problem, the complete hypersurface whose asymptotic boundary is the
domain's boundary, is solved by the same continuation as every positive
height.

Each mechanism is described once, at its code: the layout contract and the
Newton unknown in Layout and _heights, the seeded stacks in Seeds and
STACK_NODES, chord steps in newton_step, the Euler predictor in _predict,
and the march with its bisection in _march.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Protocol, runtime_checkable

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

# the most nodes of one stack of seeded points (see Seeds), which takes
# max(1, STACK_NODES // nodes) of them: a schedule's 8 heights are one stack
# up to N = 2048, and stacks hold 4 rows at N = 4096, 2 at 8192 and 1 at
# 16384.  Paired in-process on a 2-vCPU Xeon (H2/H1, n = 2, sigma = 0.2, one
# BLAS thread, medians of 21), solves at N = 512, 1024, ..., 8192 took 2.3,
# 3.8, 5.2, 10.3 and 11.1 ms; with 2**14 nodes (7 + 1 rows at 2048) 2.4, 3.9,
# 5.9, 10.9 and 11.3, a point at a time 7.9, 6.1, 8.6, 11.6 and 11.7, and as
# one stack 16.0 and 16.8 at N = 4096 and 8192, where 20-sigma sweeps took 25
# and 55 ms (39 and 89 as one stack)
STACK_NODES = 8 * 2049


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
    """A solved graph and the layout that made it, which answers every
    question about its nodes, their geometry for the mesh export included,
    and gives `spec` and `u0`.  `u` holds the heights: the radial profile,
    or the grid's quadrant heights.  `kappa`, `nu_vertical` and `w` are
    given at the interior nodes only: the profile's, the rim excluded, or
    those of the ellipse's bounding box in box order."""

    layout: Layout
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
    def u0(self) -> float:
        """Height at the center (radial) or the maximal height (grid)."""
        return self.layout.u0(self.u)

    def summary(self):
        """(largest interior curvature, smallest interior nu^{n+1})."""
        return float(np.max(self.kappa)), float(np.min(self.nu_vertical))


# ---------------------------------------------------------------------------
# radial discretization


def _radial_derivatives(u: np.ndarray, h: float):
    """Second-order derivatives of a radial profile, or of a stack of them
    along the last axis, at every node but the rim, where no equation reads
    them: symmetry at the axis, centred stencils elsewhere."""
    up = np.empty_like(u[..., :-1])
    upp = np.empty_like(up)
    up[..., 0] = 0.0
    up[..., 1:] = (u[..., 2:] - u[..., :-2]) / (2.0 * h)
    upp[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / h**2
    upp[..., 1:] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / h**2
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
    where the stencils of the rounded heights lose 4 ulp(c) / h^2.  With
    cap.r and cap.c columns of shape (rows, 1), the caps of a stack of
    points come out stacked along the first axis."""
    s = np.sqrt((cap.r - rho) * (cap.r + rho))
    mid, ahead, behind = s[..., 1:-1], s[..., 2:], s[..., :-2]
    outer = ahead + behind
    cp, cpp = np.empty(s.shape[:-1] + (rho.size - 1,)), np.empty(s.shape[:-1] + (rho.size - 1,))
    cp[..., 0] = 0.0
    cp[..., 1:] = -2.0 * rho[1:-1] / outer
    cpp[..., 0] = -2.0 / (s[..., 1] + s[..., 0])
    cpp[..., 1:] = (-(8.0 * rho[1:-1] ** 2 / outer + 2.0 * mid + outer)
                    / ((ahead + mid) * (mid + behind)))
    return cap.c + s, cp, cpp


def residual(v: np.ndarray, spec: CurvatureSpec, sigma: np.ndarray, cap, rho: np.ndarray):
    """Radial residual at a stack v of deviations from profiles, shape (rows,
    nodes), at sigma of shape (rows,), and what it built, (res, lin).  cap =
    (c, c', c'') holds each row's profile heights at every node and their
    differences at the interior nodes (axis included), the rim height being
    the boundary height: on RadialLayout the caps' (see _cap_differences).
    The stencils are linear, so the jet at the interior nodes is (c + v, c'
    + D1 v, c'' + D2 v, rho).  res is f(kappa) - sigma at the interior nodes
    and v at the boundary node, lin = (jet, kappa_rad, kappa_tan, w, table,
    f) at the interior nodes, which _jacobian_fd reads.  f comes from the
    closed-form table of the pair (symfunc.pair_table), built straight from
    the jet, and the cone test from its signs (symfunc.check_table).  A
    non-positive height or a node outside the cone raises
    AdmissibilityLostError, its interior nodes of all rows counted in row
    order, with the rows at fault."""
    c, cp, cpp = cap
    u = c[..., :-1] + v[..., :-1]
    bad_height = np.flatnonzero(u <= 0.0)
    if bad_height.size:
        raise AdmissibilityLostError(bad_height, "non-positive height at interior nodes",
                                     u.shape[-1])
    dp, dpp = _radial_derivatives(v, rho[1] - rho[0])
    jet = u, cp + dp, cpp + dpp, rho[:-1]
    r, t, w = hypgeom.radial_curvature_pair(*jet)
    e = symfunc.pair_table(r, t, spec.n - 1, max(spec.k, spec.cone_index))
    try:
        symfunc.check_table(spec, e)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices, row_size=u.shape[-1]) from exc
    f = symfunc.f_of_table(spec, e)
    res = np.empty_like(v)
    res[..., :-1] = f - sigma[:, None]
    res[..., -1] = v[..., -1]
    return res, (jet, r, t, w, e, f)


def _assemble_banded(dres_du, dres_dup, dres_dupp, m, h):
    """Assemble the tridiagonal Jacobian from per-node partials w.r.t. the
    local jet (u_i, u'_i, u''_i), using the exact stencil weights; scipy
    solve_banded (1,1) layout.  Partials of a stack, shape (rows, m - 1),
    give the stack's systems, shape (3, rows, m)."""
    ab = np.zeros((3,) + dres_du.shape[:-1] + (m,))
    inner = slice(1, m - 1)
    upp = dres_dupp[..., inner] / h**2
    # the axis node shares the diagonal weight: u' = 0, u'' = 2(u1 - u0)/h^2
    ab[1, ..., : m - 1] = dres_du[..., : m - 1] + dres_dupp[..., : m - 1] * (-2.0 / h**2)
    ab[2, ..., : m - 2] = dres_dup[..., inner] * (-1.0 / (2.0 * h)) + upp   # J[i, i-1]
    ab[0, ..., 2:] = dres_dup[..., inner] * (1.0 / (2.0 * h)) + upp   # J[i, i+1]
    ab[0, ..., 1] = dres_dupp[..., 0] * (2.0 / h**2)   # J[0, 1]
    # boundary Dirichlet row
    ab[1, ..., m - 1] = 1.0
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
    axis, node 0, kappa_tan is kappa_rad (u'/rho -> u''), so every column
    takes the radial partials there.  The lin of a stack gives the stack's
    systems (see _assemble_banded).  The name is kept, although no
    differences are taken, because the benchmark in perfbench/ traces it;
    the rename waits for a change to the benchmark (ROADMAP item 9)."""
    (ui, upi, uppi, rhoi), r, t, w, e, f = lin
    m, k = spec.n - 1, spec.k
    df = symfunc.df_of_table(spec, e, f)[1:k + 1]
    f_rad = np.sum(df * symfunc.pair_table(t, t, m - 1, k - 1), axis=0)
    f_tan = m * np.sum(df * symfunc.pair_table(r, t, m - 1, k - 1), axis=0)
    w3 = w**3
    rad_u = uppi / w3
    rad_p = -(3.0 * ui * uppi * upi / w**2 + upi) / w3
    rad_q = ui / w3
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_u, tan_p = upi / (rhoi * w), (ui / rhoi - upi) / w3
    tan_q = np.zeros_like(rad_q)
    for tan, rad in (tan_u, rad_u), (tan_p, rad_p), (tan_q, rad_q):
        tan[..., 0] = rad[..., 0]
    return _assemble_banded(f_rad * rad_u + f_tan * tan_u, f_rad * rad_p + f_tan * tan_p,
                            f_rad * rad_q + f_tan * tan_q, ui.shape[-1] + 1, h)


class RadialLayout:
    """Profile heights on a uniform grid over [0, R]: the symmetry node at
    the axis, interior nodes, and the Dirichlet node at the rim.  Every
    node's curvature vector is (kappa_rad, kappa_tan, ..., kappa_tan), so f,
    its cone test and its partials come from the closed-form table of that
    pair (see residual and _jacobian_fd).  The Jacobian is tridiagonal; its
    factorization costs less than one residual, so Newton builds and solves
    a fresh one every iteration.  The reference heights are the caps', which
    solve the continuous problem exactly, with their stencil differences in
    closed form (see _cap_differences): the residual rounds to an ulp of the
    deviation, not of the heights, so no round-off floor of the 1/h^2
    stencil lies above newton_tol even at N = 16384.  newton_tol is 1e-11:
    at 1e-10 the cap itself met the tolerance at N = 16384 and sigma = 0.9,
    steps took no iteration, and a refinement study up to that grid read
    order 1.58 for 2.00.  A solution's last interior node is the one next to
    the rim."""

    keeps_factorization = False
    exact_seed = True
    newton_tol = 1e-11

    def __init__(self, spec: CurvatureSpec, domain: Domain, grid_size: int):
        self.spec, self.domain = spec, domain
        self.rho = np.linspace(0.0, domain.params[0], grid_size + 1)
        self.nodes = self.rho.size
        self.touches_boundary = np.arange(grid_size) == grid_size - 1

    def at(self, points):
        """The points with their caps' (c, c', c''), computed together."""
        caps = [hypgeom.make_cap_with_boundary_height(self.domain.params[0], *p) for p in points]
        r, c = (np.array(x)[:, None] for x in zip(*((a.r, a.c) for a in caps)))
        at = At.of(points, _cap_differences(replace(caps[0], r=r, c=c), self.rho))
        at.cap[0][:, -1] = at.epsilon[:, 0]
        return at

    def evaluate(self, v, at):
        return Iterate(v, *residual(v, self.spec, at.sigma[:, 0], at.cap, self.rho), at)

    def factor(self, lin):
        # the Jacobian itself: solve_banded factors and solves in one call
        return _jacobian_fd(lin, self.spec, self.rho[1] - self.rho[0])

    def solve(self, ab, rhs):
        """The update from the systems ab at the right-hand sides rhs.  A
        stack, ab of shape (3, rows, m), is one block-diagonal system whose
        blocks meet through zero couplings: LAPACK's gtsv then does each
        block's arithmetic exactly as a separate solve, as long as every
        entry stays finite (see newton_step)."""
        # no finiteness scan: a non-finite Jacobian ends in LinAlgError or in
        # newton_step's non-finite update check, both SingularJacobianError
        try:
            delta = solve_banded((1, 1), ab.reshape(3, -1), rhs.reshape(-1), check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        return delta.reshape(rhs.shape)

    def u0(self, u):
        return float(u[0])

    def solution(self, it) -> GraphSolution:
        # the (points, n) curvature matrix is built for the solution only
        kappa, w = radial_principal_curvatures(*it.lin[0], self.spec.n)
        sigma, epsilon = it.at.point()
        return GraphSolution(layout=self, u=_heights(it)[0], sigma=sigma, epsilon=epsilon,
                             kappa=kappa[0], w=w[0])


# ---------------------------------------------------------------------------
# Newton and continuation, written once against a Layout


@runtime_checkable
class Layout(Protocol):
    """A discretization that Newton and the march run on: RadialLayout or
    grid.GridLayout, neither of which inherits from this class.  A Newton
    state is a stack of independent rows, on the second-last axis of each of
    its arrays of two or more axes; the last holds the nodes, and arrays of
    fewer axes are shared by the rows.  Each row gets the arithmetic it gets
    alone, and a layout holds no state after construction."""

    spec: CurvatureSpec
    """The curvature function f being solved for."""

    nodes: int
    """The size of one row."""

    newton_tol: float
    """Newton's one stopping rule: a row stops once its residual sup-norm
    meets this."""

    keeps_factorization: bool
    """Whether Newton keeps its factors for chord steps and the predictor
    (see newton_step and _predict); such a layout gets one row only."""

    exact_seed: bool
    """Whether the reference heights solve the problem exactly, so that
    Newton starts from them at a march's listed points (see Seeds)."""

    touches_boundary: np.ndarray
    """Flags the interior nodes of a solution next to a Dirichlet node."""

    def at(self, points) -> At:
        """The stack of the (sigma, epsilon) points, built once per list,
        with the reference heights g of each row in `cap[0]`, epsilon on
        every Dirichlet node.  The Newton unknown is the deviation v = u - g
        of the heights u from them: Newton starts from v = 0, and a state
        moved to other points keeps its heights (see _heights)."""

    def evaluate(self, v, at) -> Iterate:
        """The Iterate of the stack v at the points `at`: its residual and
        what the Jacobian at v reads, so that a state is evaluated once.
        Raises AdmissibilityLostError, with the rows at fault, at a
        non-positive height or a node outside the cone."""

    def factor(self, lin):
        """The factored Jacobian at the state whose evaluation built `lin`,
        from the exact per-node partials of the pointwise curvature map and
        the exact stencil weights."""

    def solve(self, factored, rhs):
        """The update from the factors at the right-hand sides rhs; raises
        SingularJacobianError."""

    def u0(self, u) -> float:
        """The center height of one row of heights."""

    def solution(self, it) -> GraphSolution:
        """The GraphSolution of the one-row Iterate Newton converged on,
        with the curvatures of its residual's jet: its kappa carries
        discretization error only, with no round-off of a second stencil
        pass over the heights."""


class At(NamedTuple):
    """A stack of (sigma, epsilon) points, one per row: `sigma` and
    `epsilon` columns of shape (rows, 1), and `cap`, what Layout.at computes
    from them, the reference heights first: (c, c', c'') of the caps on
    RadialLayout, (g,) on grid.GridLayout."""

    sigma: np.ndarray
    epsilon: np.ndarray
    cap: object

    @classmethod
    def of(cls, points, cap):
        """The stack of the (sigma, epsilon) points, with `cap`."""
        sigma, epsilon = (np.array(x, dtype=float)[:, None] for x in zip(*points))
        return cls(sigma, epsilon, cap)

    def point(self, row=0):
        """The (sigma, epsilon) of the row `row`, as floats."""
        return float(self.sigma[row, 0]), float(self.epsilon[row, 0])


class Iterate(NamedTuple):
    """A Newton state u, its residual `res`, `lin`, what evaluating the
    residual built that the layout's Jacobian at u reads, and `at`, the
    points of its rows, from which every Newton function reads them."""

    u: np.ndarray
    res: np.ndarray
    lin: object
    at: At


class NewtonState:
    """What every Newton iteration of one march (a solve, or a whole sweep)
    shares, its seeded stacks included: the factors kept for chord steps,
    and as plain counts the factorizations and the trial iterates rejected
    as inadmissible (a report's admissibility_violations), a row's rejected
    trial counting one."""

    def __init__(self):
        self.factored = None
        self.factorizations = 0
        self.rejected = 0


def _heights(it):
    """The heights of every row of the iterate `it`: its points' reference
    heights plus its state, the deviation from them."""
    return it.at.cap[0] + it.u


def _norm(res):
    """The residual sup-norm of every row, shape (rows,)."""
    return np.abs(res).max(axis=-1)


def _rows(tree, index):
    """The rows `index` (a slice, or a list that copies them) of a stack of
    arrays, nested in tuples, Iterates and Ats (see Layout)."""
    if isinstance(tree, tuple):
        parts = [_rows(x, index) for x in tree]
        return type(tree)(*parts) if isinstance(tree, (Iterate, At)) else tuple(parts)
    return tree[..., index, :] if type(tree) is np.ndarray and tree.ndim >= 2 else tree


def _put(tree, index, part):
    """Write the rows of the stack `part` into the rows `index` of `tree`."""
    if isinstance(tree, tuple):
        for x, y in zip(tree, part):
            _put(x, index, y)
    elif type(tree) is np.ndarray and tree.ndim >= 2:
        tree[..., index, :] = part


def _evaluate(layout: Layout, u, at):
    """layout.evaluate at the rows of u, and the rows it kept, in order: the
    rows an AdmissibilityLostError names are dropped, and only the others
    are evaluated again, so that the iterate, or None, holds the admissible
    rows alone."""
    rows = list(range(len(u)))
    while rows:
        try:
            return layout.evaluate(u, at), rows
        except AdmissibilityLostError as exc:
            keep = [k for k in range(len(rows)) if exc.rows is not None and k not in exc.rows]
            rows, u, at = [rows[k] for k in keep], u[keep], _rows(at, keep)
    return None, rows


def newton_step(layout: Layout, it, norm, rows, state: NewtonState):
    """One Newton step from the rows `rows` of the iterate `it`, whose
    residual sup-norms per row are `norm`.  With a kept factorization it
    first tries the full chord step, accepted when the residual sup-norm at
    least halves or meets the layout's tolerance.  Otherwise it refactors
    at the rows' states, with the Jacobian read from their lin, for the
    Newton correction delta, and keeps the factors when the layout
    keeps_factorization and no row failed.  It backtracks along delta by one
    damping factor: in each round a pending row is accepted, when its trial
    iterate is admissible and its residual sup-norm decreases, or the factor
    of every pending row halves.  A row fails when its solve is singular or
    not finite, solved again alone since a failure spreads through a stack,
    or when its backtracking runs out.  Returns the iterate and the norms
    after the step, `it` and `norm` with every accepted row written into
    them or the trial iterate and its norms when it takes every row of `it`,
    and the error of every failed row, by its row.  A row that failed keeps
    its state."""
    failed = {}
    if state.factored is not None:
        try:
            trial = layout.evaluate(it.u + layout.solve(state.factored, -it.res), it.at)
        except AdmissibilityLostError:
            state.rejected += 1
        else:
            trial_norm = _norm(trial.res)
            if trial_norm <= 0.5 * norm or trial_norm <= layout.newton_tol:
                return trial, trial_norm, failed
    # drop the kept factors before building new ones: never hold two
    state.factored = None
    part = it if len(rows) == len(norm) else _rows(it, rows)
    factored = layout.factor(part.lin)
    state.factorizations += 1
    try:
        delta = layout.solve(factored, -part.res)
    except SingularJacobianError:
        delta = np.full_like(part.res, np.nan)
    if not np.isfinite(delta).all():
        for k in np.flatnonzero(~np.isfinite(delta).all(axis=-1)):
            try:
                delta[k] = layout.solve(_rows(factored, [k]), -part.res[[k]])[0]
            except SingularJacobianError as exc:
                failed[rows[k]] = exc
            if not np.isfinite(delta[k]).all():
                failed.setdefault(
                    rows[k], SingularJacobianError("linear solve produced non-finite update"))
    if layout.keeps_factorization and not failed:
        state.factored = factored

    t = 1.0
    pending = [k for k, i in enumerate(rows) if i not in failed]  # rows of part
    for _ in range(MAX_DAMPING_STEPS + 1):
        if not pending:
            break
        sub = slice(None) if len(pending) == len(rows) else pending  # a view, or copies
        trial, kept = _evaluate(layout, part.u[sub] + t * delta[sub], _rows(part.at, sub))
        state.rejected += len(pending) - len(kept)
        if trial is not None:
            good = [pending[j] for j in kept]
            trial_norm = _norm(trial.res)
            better = [j for j, k in enumerate(good) if trial_norm[j] < norm[rows[k]]]
            if len(better) == len(norm):
                return trial, trial_norm, failed
            accepted = [rows[good[j]] for j in better]
            _put(it, accepted, _rows(trial, better))
            norm[accepted] = trial_norm[better]
            pending = [k for k in pending if rows[k] not in accepted]
        t *= DAMPING_FACTOR
    for k in pending:
        sigma, epsilon = it.at.point(rows[k])
        failed[rows[k]] = NonConvergenceError(
            f"backtracking exhausted {MAX_DAMPING_STEPS} halvings at sigma={sigma}, eps={epsilon}")
    return it, norm, failed


def _newton_solve(layout: Layout, it, state: NewtonState):
    """Newton iterations on every row of the iterate `it` until its residual
    sup-norm meets the layout's tolerance.  The rows are independent: a row
    that converges stops while the others go on, and a row that fails stops
    with its error.  Returns the iterate holding every row's last state
    (written into `it` when some rows step without the others), per row its
    iterations and factorizations, a row's step that factored counting one,
    and the error of every failed row, by its row."""
    norm = _norm(it.res)
    count, nf = [0] * norm.size, [0] * norm.size
    errors = {}
    while True:
        rows = []
        for i, norm_i in enumerate(norm.tolist()):
            if not norm_i > layout.newton_tol or i in errors:
                continue
            if count[i] == MAX_NEWTON_ITERS:
                sigma, epsilon = it.at.point(i)
                errors[i] = NonConvergenceError(
                    f"Newton stalled at residual {norm_i:.3e} (sigma={sigma}, eps={epsilon})")
            else:
                rows.append(i)
        if not rows:
            return it, count, nf, errors
        before = state.factorizations
        it, norm, failed = newton_step(layout, it, norm, rows, state)
        errors.update(failed)
        for i in rows:
            count[i] += 1
            nf[i] += state.factorizations - before


def _predict(layout: Layout, v, at, state: NewtonState) -> Iterate:
    """Euler predictor of a continuation step to the point `at` from v,
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
    it = layout.evaluate(v, at)
    if state.factored is None:
        return it
    try:
        return layout.evaluate(v + layout.solve(state.factored, -it.res), at)
    except AdmissibilityLostError:
        state.rejected += 1
        state.factored = None
        return it


# the typed ways a Newton solve fails
_SOLVE_FAILURES = (NonConvergenceError, SingularJacobianError, AdmissibilityLostError)


def _solve_at(layout: Layout, it, at, state: NewtonState):
    """Newton at the one-row stack of points `at`, from its reference heights
    without an iterate `it`, and otherwise from the Euler prediction (see
    _predict) from the state of `it`, moved to `at` with its heights kept.
    The row's error is raised.  Returns the converged iterate, its
    iterations, factorizations and center height."""
    if it is None:
        start = layout.evaluate(np.zeros_like(at.cap[0]), at)
    else:
        start = _predict(layout, _heights(it) - at.cap[0], at, state)
    new, count, nf, errors = _newton_solve(layout, start, state)
    if errors:
        raise errors[0]
    return new, count[0], nf[0], layout.u0(_heights(new)[0])


class Seeds:
    """The seeded Newton solves of a march's listed (sigma, epsilon)
    points, a solve's boundary heights or a sweep's points: the one place
    that decides on a seeded start.  A point is seeded when the layout sets
    exact_seed and the point is listed; every other point, a midpoint among
    them, and one whose seeded row fails is a step from the last accepted
    state (see _march).  A listed point not yet solved is solved when it is
    read, as the first row of one stack with the points after it in the
    list, at most STACK_NODES nodes or one point: Newton from the reference
    heights at every point of the stack whose seed is admissible.  Only the
    latest stack is held, so a sweep's memory does not grow with its number
    of sigma, and no row is sliced out of it: the march slices only the rows
    it keeps."""

    def __init__(self, layout: Layout, points):
        self.layout, self.points, self.solved = layout, points, {}

    def get(self, point, state: NewtonState):
        """The seeded solve at `point`: (its stack, its row there as a
        slice, iterations, factorizations, center height), or None where
        its row failed, an inadmissible seed included, or `point` is not
        seeded.  A new stack is solved under the march's `state`, which
        counts its factorizations and rejected trials; an inadmissible
        seed is not a trial."""
        if point not in self.solved:
            if not self.layout.exact_seed or point not in self.points:
                return None
            i = self.points.index(point)
            run = self.points[i:i + max(1, STACK_NODES // self.layout.nodes)]
            at = self.layout.at(run)
            it, good = _evaluate(self.layout, np.zeros_like(at.cap[0]), at)
            self.solved = dict.fromkeys(run)
            if good:
                it, count, nf, errors = _newton_solve(self.layout, it, state)
                heights = _heights(it)
                for j, k in enumerate(good):
                    if j not in errors:
                        self.solved[run[k]] = (it, slice(j, j + 1), count[j], nf[j],
                                               self.layout.u0(heights[j]))
        return self.solved[point]


def _march(layout: Layout, it, points, state: NewtonState, seeds: Seeds):
    """Walk the (sigma, epsilon) points in order.  A point that `seeds`
    solved is taken as it is, its row sliced out of its stack only when a
    step starts from it or the march returns it.  Every other point is
    reached by steps (see _solve_at) from `it`, the last accepted iterate,
    with up-to-8-deep bisection: a failed step, the first from a converged
    point included, is retried at the midpoint of the last accepted point
    and its target.  Without an iterate yet (`it` None), the first point,
    unless its seeded row converged, is reached by marching sigma down from
    SIGMA_START at its boundary height; the first step, from the layout's
    seed, is not bisected.  Every ellipse solve starts so.  Returns the
    iterate converged at the last point, the Newton iterations and
    factorizations of every accepted step, and the center height at each
    point walked, keyed by point."""
    iters, factors, u0_by_point = [], [], {}
    kept = None  # [stack, row slice] of the last seeded row taken, not sliced yet
    walk = list(points)
    if it is None and seeds.get(points[0], state) is None:
        # the seed is converged at no parameter values: no prediction from
        # it with factors kept from an earlier solve (a failed sweep row)
        state.factored = None
        sigma, epsilon = points[0]
        walk[:1] = [(s, epsilon) for s in default_sigma_schedule(sigma)]
    for target in walk:
        solution = seeds.get(target, state)
        if solution is not None:
            *kept, count, nf, u0 = solution
            iters.append(count)
            factors.append(nf)
        else:
            if kept is not None:
                it, kept = _rows(*kept), None
            stack, depth = [target], 0
            while stack:
                try:
                    it, count, nf, u0 = _solve_at(layout, it, layout.at(stack[-1:]), state)
                except (NonConvergenceError, SingularJacobianError):
                    if it is None or depth >= 8:
                        raise
                    depth += 1
                    stack.append(tuple(0.5 * (a + b) for a, b in zip(it.at.point(), stack[-1])))
                    continue
                iters.append(count)
                factors.append(nf)
                stack.pop()
        u0_by_point[target] = u0
    if kept is not None:
        it = _rows(*kept)
    return it, iters, factors, u0_by_point


def solve_on(layout: Layout, cfg: SolverConfig) -> GraphSolution:
    """Continuation solve of a config on the given layout, ball or ellipse:
    one march over the scheduled boundary heights at sigma_target (see
    _march), its report holding the center height at each of them."""
    state = NewtonState()
    sigma = cfg.sigma_target
    points = [(sigma, e) for e in cfg.epsilon_schedule]
    it, iters, factors, u0_by_point = _march(layout, None, points, state, Seeds(layout, points))
    sol = layout.solution(it)
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
        epsilon=points[-1][1],
        grid_size=cfg.grid_size,
        u0_by_epsilon={e: u0 for (s, e), u0 in u0_by_point.items() if s == sigma},
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
    scheduled boundary height, on the config's layout (see solve_on)."""
    return solve_on(_layout(config), config)


def sweep_sigma(config: SolverConfig, sigmas) -> list:
    """Sweep over sigma values (descending); one row per sigma, per-row
    failures recorded rather than raised.  Each row is one march (see
    _march).  A row that no converged row precedes marches its sigma's
    schedule of boundary heights, as a solve at its sigma does; every other
    row marches to the one point (sigma, epsilon_min) from the last
    converged iterate.  The listed points (see Seeds) are the first row's
    schedule and then each later row's point, so on balls a later row's
    march takes its converged seeded row as it is, bit for bit the solve at
    its sigma; a schedule marched after a failed first row has seeds of its
    own."""
    sigmas = list(sigmas)
    if sorted(sigmas, reverse=True) != sigmas:
        raise ValueError("sigmas must be sorted descending")
    layout = _layout(config)
    state = NewtonState()
    schedule = config.epsilon_schedule
    seeds = Seeds(layout, [(s, e) for s in sigmas[:1] for e in schedule]
                  + [(s, schedule[-1]) for s in sigmas[1:]])
    rows = []
    warm = None  # the last converged iterate
    for i, s in enumerate(sigmas):
        row = {"sigma": s, "below_sigma0": s < SIGMA0_INTERVAL[0]}
        try:
            points = [(s, e) for e in schedule] if warm is None else [(s, schedule[-1])]
            own = warm is None and i > 0  # a schedule after a failed first row
            warm, its, _, _ = _march(layout, warm, points, state,
                                     Seeds(layout, points) if own else seeds)
            sol = layout.solution(warm)
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
