"""Solver tests: residual discretization order, Newton behavior, Jacobian
cross-checks, continuation against the closed-form cap, sweeps, refinement,
and the tensor-grid path."""

import ast
import math
import re
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from hyperplateau import grid, hypgeom, solver, symfunc
from hyperplateau.errors import (
    AdmissibilityError,
    AdmissibilityLostError,
    NonConvergenceError,
    SingularJacobianError,
)
from hyperplateau.symfunc import CurvatureSpec

import oracles

H1 = CurvatureSpec.consecutive_quotient(1, 2)
H2H1 = CurvatureSpec.consecutive_quotient(2, 2)


def cap_profile(grid_size, sigma, eps=0.1, R=1.0):
    rho = np.linspace(0.0, R, grid_size + 1)
    cap = hypgeom.make_cap_with_boundary_height(R, sigma, eps)
    u = cap.height(rho)
    u[-1] = eps
    return u, rho


def _centred_partials(G, jet, step=1e-6):
    """Centred difference quotients of the pointwise map G in each jet
    variable, with the relative step step * (1 + |value|)."""
    parts = []
    for j in range(len(jet)):
        d = step * (1.0 + np.abs(jet[j]))
        hi, lo = list(jet), list(jet)
        hi[j] = jet[j] + d
        lo[j] = jet[j] - d
        parts.append((G(hi) - G(lo)) / (2.0 * d))
    return parts


def _jacobian_centred(u, spec, rho, n):
    """Oracle for solver._jacobian_fd: the per-node partials of f(kappa[jet])
    in the jet (u, u', u'') by centred differences, assembled in the same
    tridiagonal banded layout."""
    h = rho[1] - rho[0]
    up, upp = solver._radial_derivatives(u, h)

    def G(jet):
        kappa, _ = hypgeom.radial_principal_curvatures(*jet, rho[:-1], n)
        return symfunc.eval_f(spec, kappa, check_cone=False)

    parts = _centred_partials(G, [u[:-1], up, upp])
    return solver._assemble_banded(*parts, len(u), h)


def _assemble_banded_fancy(dres_du, dres_dup, dres_dupp, m, h):
    """Oracle for solver._assemble_banded: the bands written through
    fancy-index arrays, as the assembly did before it used slices."""
    ab = np.zeros((3, m))
    i = np.arange(1, m - 1)
    ab[1, i] = dres_du[i] + dres_dupp[i] * (-2.0 / h**2)
    ab[2, i - 1] = dres_dup[i] * (-1.0 / (2.0 * h)) + dres_dupp[i] / h**2
    ab[0, i + 1] = dres_dup[i] * (1.0 / (2.0 * h)) + dres_dupp[i] / h**2
    ab[1, 0] = dres_du[0] + dres_dupp[0] * (-2.0 / h**2)
    ab[0, 1] = dres_dupp[0] * (2.0 / h**2)
    ab[1, m - 1] = 1.0
    ab[2, m - 2] = 0.0
    return ab


def _grid_partials_centred(spec, jet, *_):
    """Oracle for grid._jet_partials: centred differences of f(kappa[jet])
    in (u, ux, uy, uxx, uyy, uxy)."""

    def G(vals):
        kappa, _ = grid.principal_curvatures_2d(*vals)
        return symfunc.eval_f(spec, kappa, check_cone=False)

    return _centred_partials(G, list(jet))


def _jet_fields(U, layout):
    """Centered first/second differences of a full-box node array, as the
    grid path computed them before it solved on one quadrant; values on the
    outermost frame are never used (the frame is Dirichlet)."""
    hx, hy = layout.hx, layout.hy
    Ux = np.zeros_like(U)
    Uy = np.zeros_like(U)
    Uxx = np.zeros_like(U)
    Uyy = np.zeros_like(U)
    Uxy = np.zeros_like(U)
    Ux[1:-1, :] = (U[2:, :] - U[:-2, :]) / (2.0 * hx)
    Uy[:, 1:-1] = (U[:, 2:] - U[:, :-2]) / (2.0 * hy)
    Uxx[1:-1, :] = (U[2:, :] - 2.0 * U[1:-1, :] + U[:-2, :]) / hx**2
    Uyy[:, 1:-1] = (U[:, 2:] - 2.0 * U[:, 1:-1] + U[:, :-2]) / hy**2
    Uxy[1:-1, 1:-1] = (
        U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]
    ) / (4.0 * hx * hy)
    return Ux, Uy, Uxx, Uyy, Uxy


def _residual_grid_full(U, spec, sigma, epsilon, layout):
    """Oracle for the quadrant residual: the residual over every node of the
    bounding box, f - sigma at the full-box interior nodes.  The pointwise
    map is the grid path's own, so this checks the fold only; the
    curvature-based checks of that map are the centred-difference and
    pointwise oracles below."""
    ins = layout.mask
    Ux, Uy, Uxx, Uyy, Uxy = _jet_fields(U, layout)
    res = U - epsilon
    e, _ = grid._table_2d(U[ins], Ux[ins], Uy[ins], Uxx[ins], Uyy[ins], Uxy[ins])
    res[ins] = symfunc.f_of_table(spec, e) - sigma
    return res


def _jet_partials(spec, jet):
    """grid._jet_partials at the jet, from the table, terms and f that the
    grid residual builds from it."""
    e, terms = grid._table_2d(*jet)
    return grid._jet_partials(spec, jet, e, terms, symfunc.f_of_table(spec, e))


def _jacobian_grid_full(U, spec, layout):
    """Oracle for the quadrant grid solve: the nine-point Jacobian over
    every node of the bounding box, Dirichlet rows identity, as the grid
    path assembled and factored it whole before the Dirichlet nodes were
    eliminated and the state was folded onto one quadrant.  The per-node
    partials are the grid path's own, so this checks the fold and the
    elimination only."""
    ins = layout.mask
    hx, hy = layout.hx, layout.hy
    Ux, Uy, Uxx, Uyy, Uxy = _jet_fields(U, layout)
    jet = [U[ins], Ux[ins], Uy[ins], Uxx[ins], Uyy[ins], Uxy[ins]]
    c_u, c_x, c_y, c_xx, c_yy, c_xy = _jet_partials(spec, jet)

    nx, ny = ins.shape
    flat = np.arange(nx * ny).reshape(nx, ny)
    ii, jj = np.nonzero(ins)
    cross = c_xy / (4.0 * hx * hy)
    stencil = [
        (0, 0, c_u - 2.0 * c_xx / hx**2 - 2.0 * c_yy / hy**2),
        (1, 0, c_x / (2.0 * hx) + c_xx / hx**2),
        (-1, 0, -c_x / (2.0 * hx) + c_xx / hx**2),
        (0, 1, c_y / (2.0 * hy) + c_yy / hy**2),
        (0, -1, -c_y / (2.0 * hy) + c_yy / hy**2),
        (1, 1, cross), (-1, -1, cross), (1, -1, -cross), (-1, 1, -cross),
    ]
    rows = [flat[ii, jj]] * len(stencil) + [flat[~ins]]
    cols = [flat[ii + di, jj + dj] for di, dj, _ in stencil] + [flat[~ins]]
    vals = [coeff for _, _, coeff in stencil] + [np.ones(np.count_nonzero(~ins))]
    m = nx * ny
    return csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(m, m))


def _unfold(layout, U):
    """A quadrant state (or flat quadrant vector) on the full box."""
    return np.asarray(U).ravel()[layout.fold]


def _quadrant_nodes(layout):
    """Full-box flat index of every quadrant node, in quadrant order."""
    nx, ny = layout.mask.shape
    qx, qy = layout.shape
    return np.arange(nx * ny).reshape(nx, ny)[nx - qx:, ny - qy:].ravel()


def _at(layout, sigma, epsilon):
    """The point (sigma, epsilon) as the layout's stack of one row."""
    return layout.at([(sigma, epsilon)])


def _step(layout, it, state):
    """solver.newton_step on every row of the iterate `it`."""
    return solver.newton_step(layout, it, solver._norm(it.res), list(range(len(it.u))), state)


class _LineLayout:
    """r(u) = u - 1, admissible only below 0.8: a full step from 0 leaves
    the admissible set, half of it does not."""

    keeps_factorization = True
    newton_tol = 1e-10

    def at(self, points):
        return solver.At.of(points, (np.zeros((len(points), 1)),))

    def evaluate(self, u, at):
        bad = np.flatnonzero(u >= 0.8)
        if bad.size:
            raise AdmissibilityLostError(bad)
        return solver.Iterate(u, u - 1.0, u, at)

    def factor(self, u):
        return np.eye(u.size)

    def solve(self, J, rhs):
        return np.linalg.solve(J, rhs)


def _cap_of(rho, sigma, eps):
    """(c, c', c'') of the cap at (sigma, eps) on the nodes rho over [0, R],
    as RadialLayout.at builds them for solver.residual: a stack of one row."""
    return _at(solver.RadialLayout(H1, hypgeom.Domain.ball(rho[-1]), rho.size - 1),
               sigma, eps).cap


def _radial_jacobian(u, spec, rho):
    """solver._jacobian_fd at the heights u, from what the radial residual
    at their deviation from a cap built, for that stack of one row."""
    cap = _cap_of(rho, 0.5, u[-1])
    return solver._jacobian_fd(solver.residual(u - cap[0], spec, np.array([0.5]), cap, rho)[1],
                               spec, rho[1] - rho[0])[:, 0]


def _families_up_to_4():
    """Every curvature family with n <= 4, each k-th root also on K_n."""
    specs = []
    for n in range(2, 5):
        for k in range(1, n + 1):
            specs += [CurvatureSpec.consecutive_quotient(k, n), CurvatureSpec.kth_root(k, n)]
            if k + 1 < n:
                specs.append(CurvatureSpec(symfunc.KTH_ROOT, n, k, 0, n))
            specs += [CurvatureSpec.general_quotient(k, l, n) for l in range(1, k)]
    return specs


def _residual_by_curvatures(u, spec, sigma, epsilon, rho):
    """Oracle for solver.residual: the (points, n) curvature matrix of the
    jet and symfunc.eval_f on it, as the residual was computed before it
    used the closed-form table of (kappa_rad, kappa_tan)."""
    up, upp = solver._radial_derivatives(u, rho[1] - rho[0])
    kappa, _ = hypgeom.radial_principal_curvatures(u[:-1], up, upp, rho[:-1], spec.n)
    res = u - epsilon
    res[:-1] = symfunc.eval_f(spec, kappa) - sigma
    return res


class TestResidual:
    def test_constant_graph(self):
        # no deviation from the constant profile, whose differences are 0
        u, rho = cap_profile(64, 0.5)
        u[:] = 0.7
        flat = (u[None], np.zeros((1, 64)), np.zeros((1, 64)))
        res, _ = solver.residual(np.zeros_like(u)[None], H1, np.array([0.3]), flat, rho)
        assert np.allclose(res[0, :-1], 1.0 - 0.3, atol=1e-12)

    def test_cap_discretization_order(self):
        norms = []
        for N in (128, 256, 512):
            u, rho = cap_profile(N, 0.6)
            res, _ = solver.residual(np.zeros_like(u)[None], H2H1, np.array([0.6]),
                                     _cap_of(rho, 0.6, 0.1), rho)
            norms.append(np.max(np.abs(res)))
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.3)
        assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.3)

    def test_admissibility_error_carries_nodes(self):
        u, rho = cap_profile(64, 0.5)
        u[10] = -0.5
        cap = _cap_of(rho, 0.5, 0.1)
        with pytest.raises(AdmissibilityLostError) as exc:
            solver.residual(u - cap[0], H1, np.array([0.5]), cap, rho)
        assert 10 in exc.value.nodes
        assert "np.int64" not in str(exc.value)

    def test_cone_exit_carries_nodes(self):
        # a spike of 0.001 (h = 1/64) makes its node's curvatures negative
        u, rho = cap_profile(64, 0.5)
        u[[10, 30]] += 0.001
        cap = _cap_of(rho, 0.5, 0.1)
        with pytest.raises(AdmissibilityLostError) as exc:
            solver.residual(u - cap[0], H2H1, np.array([0.5]), cap, rho)
        assert exc.value.nodes == [10, 30]
        assert str(exc.value) == "curvature left the cone at nodes [10, 30]"

    def test_grid_admissibility_error_carries_nodes(self):
        # a spike of 0.01 (h = 0.094) makes its node's curvatures negative
        # and leaves the diagonal neighbours, whose u_xy it shifts, in the
        # cone; the nodes are numbered among the quadrant's interior nodes,
        # and these three lie off both symmetry axes
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 32)
        at = _at(layout, 0.6, 0.1)
        v = np.zeros_like(at.cap[0])
        layout.evaluate(v, at)
        pushed = [14, 55, 100]
        rows, cols = np.nonzero(layout.inside)  # interior nodes in residual order
        assert np.all(rows[pushed] > 0) and np.all(cols[pushed] > 0)
        v.reshape(layout.shape)[rows[pushed], cols[pushed]] += 0.01
        with pytest.raises(AdmissibilityLostError) as exc:
            layout.evaluate(v, at)
        assert exc.value.nodes == pushed
        assert all(type(i) is int for i in exc.value.nodes)
        assert str(exc.value) == "curvature left the cone at nodes [14, 55, 100]"


class TestPairTableResidual:
    """The radial residual from the closed-form table of (kappa_rad,
    kappa_tan, ..., kappa_tan) against eval_f on the curvature matrix."""

    @pytest.mark.parametrize("spec", _families_up_to_4(), ids=lambda s: s.describe())
    def test_matches_curvature_route(self, spec):
        domain = hypgeom.Domain.ball(1.0)
        layout = solver.RadialLayout(spec, domain, 64)
        states = [(np.zeros((1, layout.nodes)), sigma, eps)
                  for sigma in (0.5, 0.2) for eps in (0.1, 1e-3)]
        for sigma in (0.5, 0.2):
            sol = solver.continuation_solve(solver.SolverConfig(
                spec=spec, domain=domain, sigma_target=sigma, grid_size=64))
            states.append((sol.u - _at(layout, sigma, sol.epsilon).cap[0], sigma, sol.epsilon))
        for v, sigma, eps in states:
            at = _at(layout, sigma, eps)
            got, lin = solver.residual(v, spec, np.array([sigma]), at.cap, layout.rho)
            want = _residual_by_curvatures(solver._heights(solver.Iterate(v, got, lin, at))[0],
                                           spec, sigma, eps, layout.rho)
            assert np.max(np.abs(got[0] - want)) <= 1e-12

    def test_inadmissible_nodes_match_curvature_route(self):
        # a ripple of 0.0015 pushes 3 to 19 of the 64 interior nodes out of
        # the cone, depending on the cone
        rho = np.linspace(0.0, 1.0, 65)
        u = hypgeom.make_cap_with_boundary_height(1.0, 0.5, 0.1).height(rho)
        u[-1] = 0.1
        u[:-1] += 0.0015 * np.cos(14.0 * np.pi * rho[:-1])
        cap = _cap_of(rho, 0.5, 0.1)
        counts = set()
        for spec in _families_up_to_4():
            with pytest.raises(AdmissibilityError) as want:
                _residual_by_curvatures(u, spec, 0.5, 0.1, rho)
            with pytest.raises(AdmissibilityLostError) as got:
                solver.residual(u - cap[0], spec, np.array([0.5]), cap, rho)
            assert got.value.nodes == want.value.indices
            counts.add(len(got.value.nodes))
        assert len(counts) > 3


class TestCapDifferences:
    @pytest.mark.parametrize("grid_size", [16, 512, 16384])
    @pytest.mark.parametrize("sigma, eps", [(0.9, 1e-3), (0.5, 0.1), (0.05, 1e-3), (0.01, 0.0)])
    def test_matches_decimal_stencil(self, grid_size, sigma, eps):
        # the stencils of _radial_derivatives on the cap's heights, to 60
        # digits on the uniform nodes i/N of the unit ball, at the axis and
        # at the node next to the rim; the float stencils of the rounded
        # heights miss them by up to 4 ulp(c)/h^2
        cap = hypgeom.make_cap_with_boundary_height(1.0, sigma, eps)
        _, cp, cpp = solver._cap_differences(cap, np.linspace(0.0, 1.0, grid_size + 1))
        with localcontext() as ctx:
            ctx.prec = 60
            r, n = Decimal(cap.r), grid_size
            s = [((r - Decimal(i) / n) * (r + Decimal(i) / n)).sqrt()
                 for i in (0, 1, n - 2, n - 1, n)]
            want = [2 * (s[1] - s[0]) * n**2,
                    (s[4] - s[2]) * n / 2,
                    (s[4] - 2 * s[3] + s[2]) * n**2]
            got = [Decimal(cpp[0]), Decimal(cp[-1]), Decimal(cpp[-1])]
            assert cp[0] == 0.0
            assert all(abs(g - w) <= Decimal(1e-15) * abs(w) for g, w in zip(got, want))


class TestNewton:
    def test_quadratic_convergence_probe(self):
        u, rho = cap_profile(128, 0.6)
        # smooth perturbation: rough noise would be amplified by the 1/h^2
        # stencil into the nonlinear regime where one step cannot finish
        u[:-1] += 1e-6 * np.sin(math.pi * rho[:-1])
        layout = solver.RadialLayout(H2H1, hypgeom.Domain.ball(1.0), 128)
        point = _at(layout, 0.6, 0.1)
        v = u - point.cap[0]
        it = layout.evaluate(v, point)
        base = np.max(np.abs(solver.residual(v, H2H1, point.sigma[:, 0], point.cap, rho)[0]))
        _, norm, _ = _step(layout, it, solver.NewtonState())
        assert norm <= base / 100.0

    def test_fixed_point(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5, grid_size=128))
        layout = solver.RadialLayout(H2H1, sol.layout.domain, 128)
        point = _at(layout, 0.5, sol.epsilon)
        it = layout.evaluate(sol.u - point.cap[0], point)
        new, norm, _ = _step(layout, it, solver.NewtonState())
        # the correction taken, relative to the heights
        step = np.max(np.abs(new.u - it.u)) / (1.0 + np.max(np.abs(sol.u)))
        assert step <= 1e-8

    def test_jacobian_cross_check_17_nodes(self):
        u, rho = cap_profile(16, 0.6)
        ab = _radial_jacobian(u, H2H1, rho)
        ab_cd = _jacobian_centred(u, H2H1, rho, 2)
        scale = np.max(np.abs(ab_cd))
        assert np.max(np.abs(ab - ab_cd)) / scale < 1e-4

    def test_jacobian_cross_check_fine_grid(self):
        u, rho = cap_profile(512, 0.8)
        ab = _radial_jacobian(u, H2H1, rho)
        ab_cd = _jacobian_centred(u, H2H1, rho, 2)
        scale = np.max(np.abs(ab_cd))
        assert np.max(np.abs(ab - ab_cd)) / scale < 1e-6

    @pytest.mark.parametrize("spec", [
        CurvatureSpec.kth_root(2, 3), CurvatureSpec.kth_root(3, 4),
        CurvatureSpec.general_quotient(2, 1, 3), CurvatureSpec.general_quotient(3, 1, 4),
    ], ids=["h2root-n3", "h3root-n4", "h2h1root-n3", "h3h1root-n4"])
    def test_jacobian_cross_check_families(self, spec):
        # off the cap, so that the radial and tangential curvatures differ
        u, rho = cap_profile(128, 0.5)
        u[:-1] += 0.02 * (1.0 - rho[:-1] ** 2)
        ab = _radial_jacobian(u, spec, rho)
        ab_cd = _jacobian_centred(u, spec, rho, spec.n)
        scale = np.max(np.abs(ab_cd))
        assert np.max(np.abs(ab - ab_cd)) / scale < 1e-6
        # the axis row on its own scale: there kappa_tan is kappa_rad
        axis, axis_cd = ab[[1, 0], [0, 1]], ab_cd[[1, 0], [0, 1]]
        assert np.max(np.abs(axis - axis_cd)) / np.max(np.abs(axis_cd)) < 1e-6

    @pytest.mark.parametrize("rows", [17, 513])
    def test_banded_assembly_matches_fancy_index(self, rows):
        # per-node partials of every node but the Dirichlet one
        parts = np.random.default_rng(rows).normal(size=(3, rows - 1))
        h = 1.0 / (rows - 1)
        ab = solver._assemble_banded(*parts, rows, h)
        assert ab.shape == (3, rows)
        assert np.array_equal(ab, _assemble_banded_fancy(*parts, rows, h))


class TestNewtonState:
    def test_rejected_trials_counted(self):
        layout, state = _LineLayout(), solver.NewtonState()
        it, norm, _ = _step(layout, layout.evaluate(np.zeros((1, 1)), _at(layout, 0, 0)), state)
        # full step rejected, half step accepted
        assert it.u[0] == 0.5 and state.rejected == 1 and state.factorizations == 1
        it, _, _ = _step(layout, it, state)
        # chord trial rejected, then the refactored full step, then half of it
        assert it.u[0] == 0.75 and state.rejected == 3 and state.factorizations == 2

    @pytest.mark.parametrize("sigmas", [None, [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]],
                             ids=["solve", "sweep"])
    def test_one_state_per_march(self, monkeypatch, sigmas):
        # a solve, or a whole sweep, runs every Newton step under one state,
        # its seeded stacks included, which each had a state of their own
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=512)
        states = _count_calls(monkeypatch, solver.NewtonState, "__init__")
        if sigmas is None:
            solver.continuation_solve(cfg)
        else:
            assert all(row["status"] == "ok" for row in solver.sweep_sigma(cfg, sigmas))
        assert len(states) == 1

    def test_ball_rejections_are_the_march_total(self):
        # at sigma = 0.005 and N = 16 the first seeded row fails, and the
        # jump from sigma = 0.8 to it rejects six trial iterates; a ball step
        # factors at every iteration
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.005, grid_size=16))
        report = sol.report
        assert report.admissibility_violations == 6
        assert report.newton_iterations == [2, 10, 4, 4, 3, 3, 3, 3, 2]
        assert report.factorizations == report.newton_iterations

    def test_radial_factors_every_iteration(self):
        # one exactly seeded Newton solve per boundary height 0.1, 0.05, ...,
        # 1/640, 1e-3; continuation from sigma = 0.8 took 67 over 21 steps
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.2, grid_size=512))
        report = sol.report
        assert report.newton_iterations == [2] * 8
        assert report.factorizations == report.newton_iterations

    def test_fine_grid_meets_the_tolerance(self):
        # at N = 2048 the 1/h^2 stencil of the heights has a round-off floor
        # above the tolerance: Newton on the heights ended on a negligible
        # correction at a residual of 3.5e-10.  The deviation from the cap
        # has no such floor
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.2, grid_size=2048))
        report = sol.report
        assert len(report.newton_iterations) == 8
        assert max(report.newton_iterations) <= 4
        assert report.factorizations == report.newton_iterations
        assert abs(sol.u0 - 0.8166629143954075) <= 1e-12
        assert report.final_residual <= sol.layout.newton_tol

    def test_finest_grid_takes_no_bisection(self):
        # at N = 16384 and sigma = 0.05 the correction at the round-off
        # floor of the heights exceeded the negligible size, and the march
        # bisected a step: 9 steps for 8 heights
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.05,
                                  grid_size=16384)
        report = solver.continuation_solve(cfg).report
        assert len(report.newton_iterations) == len(cfg.epsilon_schedule)
        assert report.final_residual <= 1e-11

    def test_moved_state_keeps_its_heights(self):
        # H_1 on K_2 at sigma = 0.002 fails to converge at a bisection point
        # of the boundary heights.  A state carried to the next point as the
        # same deviation from that point's cap has other heights, and the
        # march ended in AdmissibilityLostError instead
        cfg = solver.SolverConfig(spec=CurvatureSpec.kth_root(1, 2),
                                  domain=hypgeom.Domain.ball(1.0), sigma_target=0.002,
                                  grid_size=512)
        with pytest.raises(NonConvergenceError, match=r"eps=0\.058007812500000006$"):
            solver.continuation_solve(cfg)

    def test_grid_reuses_factorization(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.6,
            grid_size=32))
        report = sol.report
        assert abs(sol.u0 - 0.575088077618933) <= 1e-9
        assert sum(report.factorizations) < sum(report.newton_iterations)
        assert report.final_residual <= 1e-8
        assert report.admissibility_violations == 0


class _NaNJacobianLayout(solver.RadialLayout):
    """The radial layout with a NaN on the diagonal of every Jacobian."""

    def factor(self, lin):
        ab = super().factor(lin)
        ab[1, ..., 5] = np.nan
        return ab


def test_nan_jacobian_raises_singular():
    # the banded solve skips scipy's finiteness scan: the NaN ends in
    # LinAlgError or in a non-finite update, both SingularJacobianError,
    # which the row records
    layout = _NaNJacobianLayout(H2H1, hypgeom.Domain.ball(1.0), 64)
    state, point = solver.NewtonState(), _at(layout, 0.5, 0.1)
    u = np.zeros_like(point.cap[0])
    u[:, :-1] += 1e-4 * np.cos(np.pi * layout.rho[:-1])
    _, _, failed = _step(layout, layout.evaluate(u, point), state)
    assert isinstance(failed[0], SingularJacobianError)


class _NaNSolveGridLayout(grid.GridLayout):
    """The grid layout whose every update is NaN."""

    def solve(self, factored, rhs):
        return np.full_like(rhs, np.nan)


def test_failed_grid_solve_keeps_no_factors():
    # a row whose update is not finite fails, and its factorization is not
    # kept for the chord steps and predictions of the points after it
    layout = _NaNSolveGridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 16)
    state, point = solver.NewtonState(), _at(layout, 0.6, 0.1)
    _, _, failed = _step(layout, layout.evaluate(np.zeros_like(point.cap[0]), point), state)
    assert str(failed[0]) == "linear solve produced non-finite update"
    assert state.factored is None


class _ConeEdgeLayout(grid.GridLayout):
    """The grid layout whose admissible set ends just above the heights
    `edge`: a prediction towards smaller sigma, which raises the graph,
    leaves it."""

    edge = np.inf

    def evaluate(self, v, at):
        above = np.flatnonzero(at.cap[0] + v > self.edge + 1e-12)
        if above.size:
            raise AdmissibilityLostError(above)
        return super().evaluate(v, at)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call appends to the returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(0) or fn(*args))
    return calls


class TestOneEvaluationPerState:
    """Every Jacobian reads the jet, curvatures and table that the residual
    of its state built: a solve derives them once per residual evaluation.
    The solution's curvatures come from the jet of the converged iterate,
    so it builds no jet of its own."""

    def test_radial(self, monkeypatch):
        # the Jacobian derived the jet and the curvature pair again: in a
        # pass of the benchmark's ball-radial jobs 285 of 759 were repeats
        residuals = _count_calls(monkeypatch, solver, "residual")
        derivatives = _count_calls(monkeypatch, solver, "_radial_derivatives")
        pairs = _count_calls(monkeypatch, hypgeom, "radial_curvature_pair")
        solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5, grid_size=128))
        assert residuals
        assert len(derivatives) == len(residuals)
        # the solution's (points, n) curvature matrix is built from the pair
        assert len(pairs) == len(residuals) + 1

    def test_grid(self, monkeypatch):
        residuals = _count_calls(monkeypatch, grid, "residual_grid")
        tables = _count_calls(monkeypatch, grid, "_table_2d")
        jets = _count_calls(monkeypatch, grid, "_jets")
        solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.5,
            grid_size=32))
        assert residuals
        assert len(tables) == len(jets) == len(residuals)


class TestSolutionFromIterate:
    """A solution takes its curvatures from the jet of the iterate Newton
    converged on, not from stencils of the heights."""

    @pytest.mark.parametrize("domain, grid_size", [
        (hypgeom.Domain.ball(1.0), 128),
        (hypgeom.Domain.ellipse(1.5, 1.0), 32),
    ], ids=["ball", "ellipse"])
    def test_curvatures_of_converged_state(self, domain, grid_size):
        cfg = solver.SolverConfig(spec=H2H1, domain=domain, sigma_target=0.5,
                                  grid_size=grid_size)
        layout = solver._layout(cfg)
        states, solution = [], layout.solution
        layout.solution = lambda it: states.append(it.u) or solution(it)
        sol = solver.solve_on(layout, cfg)
        jet = layout.evaluate(states[-1], _at(layout, sol.sigma, sol.epsilon)).lin[0]
        if isinstance(layout, grid.GridLayout):
            kappa, w = grid.principal_curvatures_2d(*jet)
            kappa, w = kappa[layout.image], w[layout.image]
        else:
            kappa, w = hypgeom.radial_principal_curvatures(*jet, H2H1.n)
            kappa, w = kappa[0], w[0]
        assert np.array_equal(sol.kappa, kappa) and np.array_equal(sol.w, w)

    def test_kappa_max_converges_below_roundoff(self):
        # from the stencils of the heights, kappa_max - sigma fell by 20.8
        # from N = 2048 to 16384, where second order gives 64: the 1/h^2
        # round-off of the heights read 1.12e-7 at N = 16384
        err = {}
        for grid_size in (2048, 16384):
            sol = solver.continuation_solve(solver.SolverConfig(
                spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.2,
                grid_size=grid_size))
            err[grid_size] = sol.report.kappa_max - 0.2
        assert err[2048] / err[16384] >= 60.0


class TestPredictor:
    """The Euler predictor from a converged ellipse state at sigma = 0.6,
    epsilon = 0.1, with the Jacobian factored there."""

    @staticmethod
    def converged(layout_class=grid.GridLayout):
        """The layout, the Newton state with the kept factorization, and the
        converged heights."""
        layout = layout_class(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 32)
        state, point = solver.NewtonState(), _at(layout, 0.6, 0.1)
        seed = layout.evaluate(np.zeros_like(point.cap[0]), point)
        it, _, _, _ = solver._newton_solve(layout, seed, state)
        state.factored = layout.factor(it.lin)
        return layout, state, solver._heights(it)

    @staticmethod
    def moved(layout, u, sigma):
        """The heights u as a state at (sigma, 0.1), and that point."""
        at = _at(layout, sigma, 0.1)
        return u - at.cap[0], at

    def predicted_norm(self, layout, state, u, sigma):
        v, at = self.moved(layout, u, sigma)
        pred = solver._predict(layout, v, at, state)
        assert np.array_equal(pred.res, layout.evaluate(pred.u, at).res)
        return np.max(np.abs(pred.res))

    def test_cuts_the_residual(self):
        layout, state, u = self.converged()
        plain = np.max(np.abs(layout.evaluate(*self.moved(layout, u, 0.55)).res))
        assert self.predicted_norm(layout, state, u, 0.55) <= plain / 5.0

    def test_second_order(self):
        # the predicted residual is O(dsigma^2): halving the step quarters it
        layout, state, u = self.converged()
        full = self.predicted_norm(layout, state, u, 0.55)
        half = self.predicted_norm(layout, state, u, 0.575)
        assert full >= 3.0 * half

    def test_inadmissible_prediction_falls_back(self):
        layout, state, u = self.converged(_ConeEdgeLayout)
        layout.edge = u
        v, at = self.moved(layout, u, 0.55)
        start = solver._predict(layout, v, at, state)
        assert start.u is v and state.rejected == 1
        assert np.array_equal(start.res, layout.evaluate(v, at).res)
        # Newton refactors at u instead of trying the rejected chord step again
        assert state.factored is None

    def test_rejected_prediction_is_tried_once(self, monkeypatch):
        # Newton's first chord step repeated a rejected prediction and
        # counted it twice.  The report counts every state the layout
        # rejects, 14, 9 and 3 of them here, and none is tried twice
        rejected = []
        evaluate = grid.GridLayout.evaluate

        def spy(layout, v, at):
            try:
                return evaluate(layout, v, at)
            except AdmissibilityLostError:
                rejected.append((at.point(), v.tobytes()))
                raise

        monkeypatch.setattr(grid.GridLayout, "evaluate", spy)
        for sigma, u0 in [(0.01, 0.9869165659830836), (0.05, 0.9663307436693871),
                          (0.2, 0.8763129309957661)]:
            rejected.clear()
            sol = solver.continuation_solve(solver.SolverConfig(
                spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=sigma,
                grid_size=64))
            assert rejected
            assert sol.report.admissibility_violations == len(rejected)
            assert len(set(rejected)) == len(rejected)
            assert abs(sol.u0 - u0) <= 1e-12


class _ContinuedLayout(solver.RadialLayout):
    """The radial layout without exact seeding: the march solves sigma =
    0.8 from the cap, steps to its sigma, then continues in the boundary
    height."""

    exact_seed = False


class _BadSeedLayout(solver.RadialLayout):
    """The radial layout whose seeds at `bad_sigma`, the rows of no
    deviation there, are evaluated with a negative height, so that Newton
    from them fails at once."""

    bad_sigma = 0.3

    def evaluate(self, v, at):
        seeds = (at.sigma[:, 0] == self.bad_sigma) & ~v.any(axis=-1)
        if seeds.any():
            v = v.copy()
            v[seeds, 10] = -0.5
        return super().evaluate(v, at)


class _FailOnceLayout(solver.RadialLayout):
    """The radial layout without exact seeding whose residual raises
    NonConvergenceError once, at the (sigma, epsilon) point `fail_at`."""

    exact_seed = False
    fail_at = (0.5, 0.025)

    def evaluate(self, u, at):
        if at.point() == self.fail_at:
            self.fail_at = None
            raise NonConvergenceError("forced")
        return super().evaluate(u, at)


class _FailOnceGridLayout(grid.GridLayout):
    """The grid layout whose residual raises NonConvergenceError once, at
    sigma `fail_at`."""

    fail_at = 0.5

    def evaluate(self, v, at):
        if at.sigma[0, 0] == self.fail_at:
            self.fail_at = None
            raise NonConvergenceError("forced")
        return super().evaluate(v, at)


BALL_FAMILIES = {
    "h1h0-n2": CurvatureSpec.consecutive_quotient(1, 2),
    "h2h1-n2": CurvatureSpec.consecutive_quotient(2, 2),
    "h2h1-n4": CurvatureSpec.consecutive_quotient(2, 4),
    "h4h3-n4": CurvatureSpec.consecutive_quotient(4, 4),
    "h2root-n3": CurvatureSpec.kth_root(2, 3),
    "h3h1root-n4": CurvatureSpec.general_quotient(3, 1, 4),
}


class TestExactSeed:
    @pytest.mark.parametrize("sigma", [0.5, 0.2])
    @pytest.mark.parametrize("spec", BALL_FAMILIES.values(), ids=BALL_FAMILIES.keys())
    def test_matches_continuation(self, spec, sigma):
        cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=sigma, grid_size=512)
        seeded = solver.solve_on(solver.RadialLayout(spec, cfg.domain, 512), cfg)
        continued = solver.solve_on(_ContinuedLayout(spec, cfg.domain, 512), cfg)
        assert abs(seeded.u0 - continued.u0) <= 1e-10
        assert len(seeded.report.newton_iterations) == len(cfg.epsilon_schedule)
        assert seeded.report.u0_by_epsilon.keys() == continued.report.u0_by_epsilon.keys()
        assert seeded.report.final_residual <= 1e-10

    def test_rescues_small_sigma(self):
        # the seeded rows converge with no rejected trial; without seeds the
        # march from sigma = 0.8 converges too, in 9 steps, one rejected
        spec = CurvatureSpec.consecutive_quotient(4, 4)
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=spec, domain=hypgeom.Domain.ball(1.0), sigma_target=0.05,
            grid_size=1024))
        assert sol.report.final_residual <= 1e-10
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.05, sol.epsilon)
        assert abs(sol.u0 - cap.apex_height) <= 1e-4
        assert sol.report.admissibility_violations == 0

    def test_small_sigma_factors_once_per_iteration(self):
        # the first and the last two steps counted one factorization more
        # than iterations (iterations [3, 3, 3, 3, 3, 6, 6, 4], factorizations
        # [4, 3, 3, 3, 3, 7, 6, 4]): a failed step had factored
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=CurvatureSpec.consecutive_quotient(4, 4), domain=hypgeom.Domain.ball(1.0),
            sigma_target=0.05, grid_size=1024))
        assert sol.report.factorizations == sol.report.newton_iterations
        assert sol.report.final_residual <= 1e-10
        assert abs(sol.u0 - 0.9511813892746974) <= 1e-12

    def test_failed_seed_falls_back_to_continuation(self):
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.3, grid_size=128)
        continued = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        sol = solver.solve_on(_BadSeedLayout(H2H1, cfg.domain, 128), cfg)
        # sigma = 0.8 and the step to sigma at the first height, then warm
        # starts: the continuation's steps
        assert np.array_equal(sol.u, continued.u)
        assert sol.report.newton_iterations == continued.report.newton_iterations
        assert sol.report.u0_by_epsilon == continued.report.u0_by_epsilon

    def test_failed_step_is_bisected(self):
        # the step to 0.025 fails once; the march takes the midpoint 0.0375
        # from 0.05, then 0.025: one step more than the plain march
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        plain = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        sol = solver.solve_on(_FailOnceLayout(H2H1, cfg.domain, 128), cfg)
        assert len(plain.report.newton_iterations) == 9
        assert len(sol.report.newton_iterations) == 10
        assert list(sol.report.u0_by_epsilon) == list(cfg.epsilon_schedule)
        assert abs(sol.u0 - plain.u0) <= 1e-12

    def test_first_step_from_a_converged_height_is_bisected(self):
        # the step from the first height 0.1 to 0.05 fails once; the march
        # of the later heights starts where its state converged, so it takes
        # the midpoint 0.075 instead of raising NonConvergenceError
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        plain = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        layout = _FailOnceLayout(H2H1, cfg.domain, 128)
        layout.fail_at = (0.5, 0.05)
        sol = solver.solve_on(layout, cfg)
        assert len(sol.report.newton_iterations) == 10
        assert list(sol.report.u0_by_epsilon) == list(cfg.epsilon_schedule)
        assert abs(sol.u0 - plain.u0) <= 1e-12

    def test_march_seeds_only_listed_points(self, monkeypatch):
        # H_1 on K_2 at sigma = 0.002: the stacked seed row of eps = 0.05
        # fails, and the march bisects from 0.1 towards it.  Only the
        # schedule's heights, and (SIGMA_START, 0.1) when the first height
        # fails, start from the cap: every midpoint is a step
        seeded = []
        get, solve_at = solver.Seeds.get, solver._solve_at

        def spy_get(seeds, point, state):
            before = seeds.solved
            solution = get(seeds, point, state)
            if seeds.solved is not before:  # a new stack
                seeded.extend(seeds.solved)
            return solution

        def spy_solve_at(layout, it, at, state):
            if it is None:
                seeded.append(at.point())
            return solve_at(layout, it, at, state)

        monkeypatch.setattr(solver.Seeds, "get", spy_get)
        monkeypatch.setattr(solver, "_solve_at", spy_solve_at)
        cfg = solver.SolverConfig(spec=CurvatureSpec.kth_root(1, 2),
                                  domain=hypgeom.Domain.ball(1.0), sigma_target=0.002,
                                  grid_size=512)
        with pytest.raises(NonConvergenceError) as exc:
            solver.continuation_solve(cfg)
        assert str(exc.value) == ("backtracking exhausted 20 halvings at "
                                  "sigma=0.002, eps=0.058007812500000006")
        schedule = cfg.epsilon_schedule
        listed = {(0.002, e) for e in schedule} | {(solver.SIGMA_START, schedule[0])}
        assert seeded
        assert set(seeded) <= listed

    def test_midpoint_steps_end_in_the_same_error(self):
        # H_1 on K_2 at sigma = 0.001, N = 1024: Newton from the cap
        # converges at one of the bisection midpoints, and the step taken
        # there instead ends the march in the same error
        cfg = solver.SolverConfig(spec=CurvatureSpec.kth_root(1, 2),
                                  domain=hypgeom.Domain.ball(1.0), sigma_target=0.001,
                                  grid_size=1024)
        with pytest.raises(NonConvergenceError) as exc:
            solver.continuation_solve(cfg)
        assert str(exc.value) == ("backtracking exhausted 20 halvings at "
                                  "sigma=0.001, eps=0.051953125")


def _fixed_step_march(layout, cfg):
    """The solve of cfg on layout along the reference path: the sigma
    schedule in steps of 0.05 from SIGMA_START at the first boundary height,
    which the march walked before it jumped to its sigma, then the later
    heights, given to solver._march as explicit points.  Returns the
    solution and the center heights at sigma, keyed by boundary height."""
    sigma, schedule = cfg.sigma_target, cfg.epsilon_schedule
    steps, direction = [solver.SIGMA_START], 1.0 if sigma > solver.SIGMA_START else -1.0
    while direction * (sigma - (steps[-1] + direction * 0.05)) > 1e-12:
        steps.append(steps[-1] + direction * 0.05)
    points = ([(s, schedule[0]) for s in dict.fromkeys(steps + [sigma])]
              + [(sigma, e) for e in schedule[1:]])
    it, _, _, u0_by_point = solver._march(layout, None, points, solver.NewtonState(),
                                          solver.Seeds(layout, points))
    return layout.solution(it), {e: u0 for (s, e), u0 in u0_by_point.items() if s == sigma}


class TestSigmaJump:
    """A march with no converged start solves (SIGMA_START, epsilon) from
    the layout's seed and steps from there to its sigma, bisecting on
    failure: the path changed from the fixed 0.05-step sigma schedule, the
    answer did not."""

    @pytest.mark.parametrize("sigma", [0.9, 0.5, 0.2, 0.05])
    def test_ellipse_matches_fixed_steps(self, sigma):
        # 0.9 jumps up from 0.8, the others down
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                  sigma_target=sigma, grid_size=32)
        sol = solver.continuation_solve(cfg)
        ref, _ = _fixed_step_march(grid.GridLayout(H2H1, cfg.domain, 32), cfg)
        assert len(sol.report.newton_iterations) == 2 + len(cfg.epsilon_schedule) - 1
        for new, old in zip((sol.u0, *sol.summary()), (ref.u0, *ref.summary())):
            assert abs(new - old) <= 1e-8 * abs(old)

    @pytest.mark.parametrize("sigma", [0.9, 0.2])
    def test_ball_matches_fixed_steps(self, sigma):
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=sigma, grid_size=128)
        sol = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        _, u0_by_epsilon = _fixed_step_march(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        assert sol.report.u0_by_epsilon.keys() == u0_by_epsilon.keys()
        for e, u0 in u0_by_epsilon.items():
            assert abs(sol.report.u0_by_epsilon[e] - u0) <= 1e-10

    def test_no_step_at_sigma_start(self):
        # at sigma = SIGMA_START the solve from the seed is the first point
        # itself: one step per boundary height, none of 0 iterations
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=solver.SIGMA_START, grid_size=128)
        report = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg).report
        iters = report.newton_iterations
        assert len(iters) == len(cfg.epsilon_schedule) and min(iters) > 0

    def test_failed_jump_is_bisected(self, monkeypatch):
        # the jump from 0.8 to 0.5 at the first height fails once; the march
        # takes the midpoint 0.65, then 0.5: one step more than the plain march
        steps, solve_at = [], solver._solve_at

        def spy(layout, it, at, state):
            steps.append(at.point())
            return solve_at(layout, it, at, state)

        monkeypatch.setattr(solver, "_solve_at", spy)
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        plain = solver.solve_on(_ContinuedLayout(H2H1, cfg.domain, 128), cfg)
        layout = _FailOnceLayout(H2H1, cfg.domain, 128)
        layout.fail_at = (0.5, 0.1)
        steps.clear()
        sol = solver.solve_on(layout, cfg)
        assert steps[:4] == [(0.8, 0.1), (0.5, 0.1), (0.5 * (0.8 + 0.5), 0.1), (0.5, 0.1)]
        assert len(sol.report.newton_iterations) == len(plain.report.newton_iterations) + 1
        assert abs(sol.u0 - plain.u0) <= 1e-12


class TestContinuation:
    def test_h1_cap_oracle(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=512)
        sol = solver.continuation_solve(cfg)
        exact = math.sqrt(1.0 / 3.0)
        assert abs(sol.u0 - exact) < 1e-3
        assert sol.report.converged
        assert sol.report.final_residual <= 1e-10
        assert sol.report.admissibility_violations == 0

    def test_near_one_sigma(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.95, grid_size=512)
        sol = solver.continuation_solve(cfg)
        exact = math.sqrt(0.05 / 1.95)
        assert abs(sol.u0 - exact) < 1e-3

    def test_limit_problem_direct(self):
        # the schedule ends at 0: the cap through the rim, reached by the
        # same continuation as every positive height
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=512,
                                  epsilon_min=0.0)
        sol = solver.continuation_solve(cfg)
        assert abs(sol.u0 - math.sqrt(1.0 / 3.0)) < 1e-4
        assert sol.report.epsilon == 0.0
        assert list(sol.report.u0_by_epsilon)[-1] == 0.0

    def test_ellipse_solves_on_the_config_layout(self, monkeypatch):
        # every domain's layout is built by _layout: the ellipse branch that
        # built its own grid.GridLayout is gone
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                  sigma_target=0.5, grid_size=32)
        plain = solver.continuation_solve(cfg)
        made = []

        class Recorded(grid.GridLayout):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver, "_layout", lambda c: Recorded(c.spec, c.domain, c.grid_size))
        sol = solver.continuation_solve(cfg)
        assert made == [sol.layout]
        assert sol.u0 == plain.u0

    def test_interior_jets_admissible(self):
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.3, grid_size=128)
        sol = solver.continuation_solve(cfg)
        rho = sol.layout.rho
        up, upp = solver._radial_derivatives(sol.u, rho[1] - rho[0])
        for i in (0, 40, 100, 127):
            jet = oracles.radial_jet(sol.u[i], up[i], upp[i], rho[i], 2)
            assert np.max(np.abs(jet.kappa - np.sort(sol.kappa[i])[::-1])) < 1e-8

    def test_jacobian_cross_check_converged_solution(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.4, grid_size=256))
        ab = _radial_jacobian(sol.u, H2H1, sol.layout.rho)
        ab_cd = _jacobian_centred(sol.u, H2H1, sol.layout.rho, 2)
        scale = np.max(np.abs(ab_cd))
        assert np.max(np.abs(ab - ab_cd)) / scale < 1e-6


class TestSweep:
    def test_h1_oracle_rows(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.9, grid_size=512)
        sigmas = [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]
        rows = solver.sweep_sigma(cfg, sigmas)
        for row in rows:
            exact = math.sqrt((1 - row["sigma"]) / (1 + row["sigma"]))
            assert row["converged"]
            assert abs(row["u0"] - exact) < 1e-3
            assert abs(row["kappa_max"] - row["sigma"]) < 1e-3
            assert row["min_nu_vertical"] >= row["sigma"] - 0.01
            assert row["below_sigma0"] == (row["sigma"] < 0.3703)

    def test_requires_descending(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        with pytest.raises(ValueError):
            solver.sweep_sigma(cfg, [0.2, 0.5])

    @pytest.mark.parametrize("domain, grid_size", [
        (hypgeom.Domain.ball(1.0), 128),
        (hypgeom.Domain.ellipse(1.5, 1.0), 32),
    ], ids=["ball", "ellipse"])
    def test_warm_matches_cold(self, domain, grid_size):
        cfg = solver.SolverConfig(spec=H2H1, domain=domain,
                                  sigma_target=0.6, grid_size=grid_size)
        rows = solver.sweep_sigma(cfg, [0.6, 0.5])
        cold = solver.continuation_solve(
            solver.SolverConfig(spec=H2H1, domain=domain,
                                sigma_target=0.5, grid_size=grid_size))
        warm_row = rows[1]
        assert abs(warm_row["u0"] - cold.u0) < 1e-8

    def test_failed_warm_row_is_bisected(self, monkeypatch):
        # the step from the converged row at 0.6 to 0.5 fails once; the row
        # takes the midpoint 0.55 instead of recording NonConvergenceError
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                  sigma_target=0.6, grid_size=32)
        plain = solver.sweep_sigma(cfg, [0.6, 0.5])
        monkeypatch.setattr(solver, "_layout",
                            lambda c: _FailOnceGridLayout(c.spec, c.domain, c.grid_size))
        rows = solver.sweep_sigma(cfg, [0.6, 0.5])
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert abs(rows[1]["u0"] - plain[1]["u0"]) < 1e-8

    def test_failed_middle_row_leaves_later_rows(self, monkeypatch):
        # the rows share one Newton state; a failed row's error ends that
        # row alone, not every later row
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        monkeypatch.setattr(solver, "_layout",
                            lambda c: _SingularAtLayout(c.spec, c.domain, c.grid_size))
        rows = solver.sweep_sigma(cfg, [0.5, 0.3, 0.2])
        assert [row["status"] for row in rows] == ["ok", "failed: SingularJacobianError", "ok"]
        cold = solver.continuation_solve(replace(cfg, sigma_target=0.2))
        assert abs(rows[2]["u0"] - cold.u0) <= 1e-10

    def test_ball_rows_start_from_cap(self):
        # warm starts from the previous sigma took 4-5 iterations per row; a
        # row of the sweep's stack comes out bit for bit as the solve at its
        # sigma
        sigmas = [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]
        for spec in H2H1, CurvatureSpec.consecutive_quotient(4, 4):
            cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                      sigma_target=sigmas[0], grid_size=512)
            rows = solver.sweep_sigma(cfg, sigmas)
            assert all(row["converged"] for row in rows)
            assert all(row["iterations"] <= 3 for row in rows[1:])
            for row in rows:
                cold = solver.continuation_solve(replace(cfg, sigma_target=row["sigma"]))
                assert row["u0"] == cold.u0
                assert (row["kappa_max"], row["min_nu_vertical"]) == cold.summary()

    def test_ball_sweep_is_one_stack(self, monkeypatch):
        # every point of a ball sweep, the first row's schedule and each
        # later row's (sigma, epsilon_min), is seeded as a row of one stack:
        # one set of caps and one Newton solve, where each later row was a
        # solve of its own (6 and 6)
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.9, grid_size=512)
        caps = _count_calls(monkeypatch, solver, "_cap_differences")
        solves = _count_calls(monkeypatch, solver, "_newton_solve")
        rows = solver.sweep_sigma(cfg, [0.9, 0.7, 0.5, 0.3, 0.2, 0.1])
        assert all(row["status"] == "ok" for row in rows)
        assert len(caps) == 1 and len(solves) == 1

    # goldens of the failure paths, taken before the sweep was one stack
    @pytest.mark.parametrize("spec, grid_size, sigmas, iterations, u0", [
        (CurvatureSpec.kth_root(1, 2), 512, [0.5, 0.01, 0.002, 0.001], [16, 9, 0, 0],
         [0.5776826671575664, 0.9896500117975304]),
        (H2H1, 16, [0.5, 0.001, 0.0005], [24, 12, 4], None),
        (H2H1, 8, [0.9, 0.05, 0.01], [16, 7, 5], None),
    ], ids=["h1k2-N512", "h2h1-N16", "h2h1-N8"])
    def test_failure_path_goldens(self, spec, grid_size, sigmas, iterations, u0):
        # H_1 on K_2: the sigma = 0.01 row's seeded row fails, and the
        # predicted, bisected march from the sigma = 0.5 iterate reaches it;
        # the two smallest sigmas fail row by row.  On coarse grids the
        # later rows' seeded rows fail and their marches take over
        cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=sigmas[0], grid_size=grid_size)
        rows = solver.sweep_sigma(cfg, sigmas)
        assert [row["iterations"] for row in rows] == iterations
        # a failed row reports no iterations, and every golden row that
        # converged took some
        assert [row["status"] for row in rows] == [
            "ok" if count else "failed: NonConvergenceError" for count in iterations]
        if u0 is not None:
            assert [row["u0"] for row in rows[:len(u0)]] == u0

    def test_failed_first_row_runs_the_continuation(self, monkeypatch):
        # every Jacobian row at sigma 0.5 is singular: the first row fails,
        # the next runs the full continuation as a solve at its sigma does,
        # and the last takes its row of the sweep's stack
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        monkeypatch.setattr(solver, "_layout",
                            lambda c: _SingularSigmaLayout(c.spec, c.domain, c.grid_size))
        rows = solver.sweep_sigma(cfg, [0.5, 0.3, 0.2])
        assert [row["status"] for row in rows] == ["failed: SingularJacobianError", "ok", "ok"]
        cold = [solver.continuation_solve(replace(cfg, sigma_target=row["sigma"]))
                for row in rows[1:]]
        assert [row["u0"] for row in rows[1:]] == [sol.u0 for sol in cold]
        assert rows[1]["iterations"] == sum(cold[0].report.newton_iterations)
        assert rows[2]["iterations"] == cold[1].report.newton_iterations[-1]


class _SingularSigmaLayout(solver.RadialLayout):
    """The radial layout whose Jacobian rows at sigma `singular` are all
    zeros; lin carries each row's sigma as a column."""

    singular = 0.5

    def evaluate(self, v, at):
        it = super().evaluate(v, at)
        return it._replace(lin=(it.lin, at.sigma))

    def factor(self, lin):
        lin, sigma = lin
        ab = super().factor(lin)
        ab.reshape(3, -1, ab.shape[-1])[:, sigma[:, 0] == self.singular] = 0.0
        return ab

    def solution(self, it):
        return super().solution(it._replace(lin=it.lin[0]))


class _SingularAtLayout(solver.RadialLayout):
    """The radial layout without exact seeding whose Jacobian is all zeros
    at sigma `singular`, read from the point of the last evaluation."""

    exact_seed = False
    singular = 0.3

    def evaluate(self, v, at):
        self.evaluated_at = at.sigma
        return super().evaluate(v, at)

    def factor(self, lin):
        ab = super().factor(lin)
        return 0.0 * ab if self.evaluated_at[0, 0] == self.singular else ab


class TestRefine:
    def test_observed_order(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        study = solver.refine_study(cfg, 3)
        assert all(r["converged"] for r in study["rows"])
        assert 1.7 <= study["observed_order"] <= 2.3
        assert study["kappa_max_drift"] <= 0.01

    def test_failed_level_breaks_the_run(self, monkeypatch):
        # with N = 128 failed in 64 -> 512, no three converged levels are
        # consecutive (differences across the gap give order 4.31 where the
        # unbroken run gives 2.00), and the drift comes from 256 -> 512
        solve = solver.continuation_solve

        def failing_at_128(cfg):
            if cfg.grid_size == 128:
                raise NonConvergenceError("forced")
            return solve(cfg)

        monkeypatch.setattr(solver, "continuation_solve", failing_at_128)
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=64)
        study = solver.refine_study(cfg, 4)
        assert [r["converged"] for r in study["rows"]] == [True, False, True, True]
        assert "observed_order" not in study
        a, b = study["rows"][2]["kappa_max"], study["rows"][3]["kappa_max"]
        assert study["kappa_max_drift"] == abs(b - a) / abs(a)

    def test_minimum_levels(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        with pytest.raises(ValueError):
            solver.refine_study(cfg, 1)


class TestSchedules:
    def test_epsilon_default(self):
        sched = solver.default_epsilon_schedule()
        assert sched[0] == 0.1 and sched[-1] == 1e-3
        assert all(b < a for a, b in zip(sched, sched[1:]))

    @pytest.mark.parametrize("epsilon_min", [-1e-3, math.nan, math.inf, -math.inf, 0.1])
    def test_epsilon_bound_checked(self, epsilon_min):
        # a negative bound never ended the halving, and nan, inf or a bound
        # of at least 0.1 gave a one-height schedule
        with pytest.raises(ValueError, match=r"epsilon_min must lie in \[0, 0.1\)"):
            solver.default_epsilon_schedule(epsilon_min)

    def test_epsilon_zero_appends_limit(self):
        # the halving alone ended at 0.0 after 1073 heights
        sched = solver.default_epsilon_schedule(0.0)
        assert sched == solver.default_epsilon_schedule() + (0.0,)
        assert len(sched) == 9

    @pytest.mark.parametrize("epsilon_min", [0.1, -1e-3, math.nan, math.inf, -math.inf])
    def test_epsilon_min_checked(self, epsilon_min):
        # the one range rule of the smallest boundary height, as the CLI's
        with pytest.raises(ValueError, match=r"epsilon_min must lie in \[0, 0.1\)"):
            solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
                                grid_size=128, epsilon_min=epsilon_min)

    def test_schedule_follows_epsilon_min(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
                                  grid_size=128, epsilon_min=0.0)
        assert cfg.epsilon_schedule == solver.default_epsilon_schedule(0.0)
        assert replace(cfg, epsilon_min=1e-2).epsilon_schedule[-1] == 1e-2
        with pytest.raises(AttributeError):
            cfg.epsilon_schedule = (0.1,)

    @pytest.mark.parametrize("grid_size", [0, 2, True, 8.0])
    def test_grid_size_checked(self, grid_size):
        # 0 and 2 raised IndexError on balls, True IndexError, 8.0 TypeError
        with pytest.raises(ValueError, match=f"grid_size must be an int of at least {solver.MIN_GRID}"):
            solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
                                grid_size=grid_size)

    def test_invalid_config(self):
        # checked at construction
        with pytest.raises(ValueError):
            solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                sigma_target=1.5, grid_size=128)

    @pytest.mark.parametrize("spec", [CurvatureSpec.consecutive_quotient(3, 3),
                                      CurvatureSpec.consecutive_quotient(2, 3)],
                             ids=["h3h2-n3", "h2h1-n3"])
    def test_ellipse_needs_planar_spec(self, spec):
        # before the check, H3/H2 ran into an IndexError on the grid path
        # and H2/H1 into a NonConvergenceError
        with pytest.raises(ValueError, match="need n = 2, got n=3"):
            solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                sigma_target=0.5, grid_size=32)

    def test_frozen(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.5, grid_size=128)
        with pytest.raises(FrozenInstanceError):
            cfg.sigma_target = 1.5
        with pytest.raises(ValueError):
            replace(cfg, sigma_target=1.5)


class TestGridPath:
    def test_circle_matches_cap(self):
        cfg = solver.SolverConfig(spec=H1, domain=hypgeom.Domain.ellipse(1.0, 1.0),
                                  sigma_target=0.5, grid_size=64)
        sol = solver.continuation_solve(cfg)
        exact = math.sqrt(1.0 / 3.0)
        assert isinstance(sol.layout, grid.GridLayout)
        assert abs(sol.u0 - exact) < 2e-2  # staircase boundary is first order
        assert sol.report.final_residual <= 1e-8

    def test_ellipse_solve(self):
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.3, 0.9),
                                  sigma_target=0.4, grid_size=48)
        sol = solver.continuation_solve(cfg)
        assert sol.report.converged
        assert np.min(sol.u) > 0.0
        assert sol.report.min_nu_vertical >= 0.4 - 0.05

    def test_ellipse_limit_problem(self):
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                  sigma_target=0.5, grid_size=64,
                                  epsilon_min=0.0)
        sol = solver.continuation_solve(cfg)
        assert sol.report.converged and sol.report.epsilon == 0.0
        assert 0.0 < sol.report.u0_by_epsilon[1e-3] - sol.u0 < 1e-3

    def test_every_step_iterates(self):
        # two steps at the first height, to sigma = 0.8 from the seed and
        # from there to sigma, then one per boundary height after the first
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0),
                                  sigma_target=0.5, grid_size=32)
        iters = solver.continuation_solve(cfg).report.newton_iterations
        assert len(iters) == 2 + len(cfg.epsilon_schedule) - 1
        assert min(iters) > 0

    def test_interior_solve_matches_full_system(self):
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 24)
        U = _at(layout, 0.5, 0.1).cap[0]
        # residual at the next boundary height: nonzero on Dirichlet nodes,
        # as after a step of the epsilon continuation
        at = _at(layout, 0.5, 0.05)
        it = layout.evaluate(U - at.cap[0], at)
        rhs = -it.res
        assert np.max(np.abs(rhs[0, ~layout.inside.ravel()])) == pytest.approx(0.05)
        J = _jacobian_grid_full(_unfold(layout, U), H2H1, layout).tocsc()
        full = spsolve(J, _unfold(layout, rhs).ravel()).reshape(layout.mask.shape)
        quadrant = layout.solve(layout.factor(it.lin), rhs)
        bound = 1e-10 * np.max(np.abs(full))
        assert np.max(np.abs(quadrant.ravel() - full.ravel()[_quadrant_nodes(layout)])) <= bound
        # off the quadrant the full-box solve departs from mirror symmetry by
        # its own rounding: its x- and y-differences add the two neighbours
        # in opposite orders on the two sides of an axis, and the partials
        # and the solve carry that rounding on
        asymmetry = max(np.max(np.abs(full - full[::-1, :])), np.max(np.abs(full - full[:, ::-1])))
        assert np.max(np.abs(_unfold(layout, quadrant) - full)) <= bound + asymmetry

    @staticmethod
    def symmetric_state(grid_size, epsilon):
        """Quadrant heights off the cap seed at (0.5, 0.1) by seeded noise at
        the interior nodes, as the deviation v from the reference heights at
        (0.5, epsilon), a stack of one row; the stack of that point; the
        heights the residual there reads; and the layout they live on."""
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), grid_size)
        U = _at(layout, 0.5, 0.1).cap[0].copy()
        U.reshape(layout.shape)[layout.inside] += 1e-5 * np.random.default_rng(7).standard_normal(
            np.count_nonzero(layout.inside))
        at = _at(layout, 0.5, epsilon)
        v = U - at.cap[0]
        return layout, v, at, at.cap[0] + v

    @pytest.mark.parametrize("grid_size", [32, 24])  # ny = 22 (even), 17 (odd)
    def test_quadrant_residual_is_full_box_residual(self, grid_size):
        layout, v, at, U = self.symmetric_state(grid_size, 0.05)
        full = _residual_grid_full(_unfold(layout, U), H2H1, 0.5, 0.05, layout)
        assert np.array_equal(layout.evaluate(v, at).res[0],
                              full.ravel()[_quadrant_nodes(layout)])

    @pytest.mark.parametrize("grid_size", [32, 24])
    def test_quadrant_jacobian_is_folded_full_box_jacobian(self, grid_size):
        # a column of a full-box node adds into the column of its mirror
        # image in the quadrant
        layout, v, at, U = self.symmetric_state(grid_size, 0.05)
        J = _jacobian_grid_full(_unfold(layout, U), H2H1, layout)
        rows = _quadrant_nodes(layout)[layout.inside.ravel()]
        fold = layout.fold.ravel()
        P = csr_matrix((np.ones(fold.size), (np.arange(fold.size), fold)),
                       shape=(fold.size, layout.inside.size))
        folded = (J[rows] @ P).toarray()
        J_ii, J_ib = grid._jacobian_grid(layout.evaluate(v, at).lin, H2H1, layout)
        ins = layout.inside.ravel()
        scale = np.max(np.abs(folded))
        assert np.max(np.abs(J_ii.toarray() - folded[:, ins])) <= 1e-12 * scale
        assert np.max(np.abs(J_ib.toarray()[:, ~ins] - folded[:, ~ins])) <= 1e-12 * scale
        assert J_ib[:, ins].nnz == 0

    def test_unfolded_solution(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.5,
            grid_size=32))
        # (0.8, 0.1) from the seed, the jump to sigma, one step per later
        # boundary height
        assert sol.report.newton_iterations == [8, 13, 14, 19, 6, 4, 5, 5, 4]
        assert sol.report.factorizations == [2, 1, 0, 0, 1, 0, 0, 0, 0]
        U = _unfold(sol.layout, sol.u)
        assert np.array_equal(U, U[::-1, :]) and np.array_equal(U, U[:, ::-1])
        X, Y = np.meshgrid(sol.layout.xs, sol.layout.ys, indexing="ij")
        box = (X / 1.5) ** 2 + Y**2 < 1.0
        box[0, :] = box[-1, :] = box[:, 0] = box[:, -1] = False
        assert np.array_equal(sol.layout.mask, box)
        nx, ny = U.shape
        cx, cy = nx // 2, ny // 2
        assert np.array_equal(sol.u, U[cx:, cy:])
        # every kappa row is the quadrant curvature at the node's mirror image
        layout = grid.GridLayout(H2H1, sol.layout.domain, 32)
        kappa, w = grid.principal_curvatures_2d(*grid._jets(U[cx:, cy:], layout))
        row = {node: k for k, node in enumerate(zip(*np.nonzero(layout.inside)))}
        for k, (i, j) in enumerate(zip(*np.nonzero(sol.layout.mask))):
            image = row[max(i, nx - 1 - i) - cx, max(j, ny - 1 - j) - cy]
            assert np.array_equal(sol.kappa[k], kappa[image]) and sol.w[k] == w[image]

    @pytest.mark.parametrize("spec", [H1, H2H1, CurvatureSpec.kth_root(2, 2),
                                      CurvatureSpec.general_quotient(2, 1, 2)],
                             ids=["h1h0", "h2h1", "h2root", "gq21"])
    def test_pointwise_f_matches_curvatures(self, spec):
        # f from (1, tr A, det A) against eval_f at the eigenvalues of A, on
        # jets inside the cone by a margin: at its rim e_1 or e_2 is a
        # difference of much larger terms, which the two routes round
        # differently, so their relative gap is unbounded there
        rng = np.random.default_rng(11)
        jet = [rng.uniform(0.2, 2.0, 4000), *rng.standard_normal((5, 4000))]
        kappa, _ = grid.principal_curvatures_2d(*jet)
        ok = kappa.sum(axis=1) > 0.05 * np.abs(kappa).sum(axis=1)
        if spec.cone_index == 2:
            ok &= kappa[:, 1] > 0.05 * kappa[:, 0]
        jet = [v[ok] for v in jet]
        f = symfunc.eval_f(spec, kappa[ok])
        assert ok.sum() > 1000
        pointwise = symfunc.f_of_table(spec, grid._table_2d(*jet)[0])
        assert np.max(np.abs(pointwise - f) / np.abs(f)) <= 1e-13

    def test_inadmissible_nodes_match_curvatures(self):
        # the circle's cap seed at N = 256 leaves K_2 near the rim: the sign
        # test of the table lists the nodes the curvatures list
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.0, 1.0), 256)
        at = _at(layout, 0.8, 0.1)
        kappa, _ = grid.principal_curvatures_2d(*grid._jets(at.cap[0], layout))
        expected = np.flatnonzero(~symfunc.cone_contains(kappa, H2H1.cone_index))
        with pytest.raises(AdmissibilityLostError) as info:
            layout.evaluate(np.zeros_like(at.cap[0]), at)
        assert expected.size and info.value.nodes == expected.tolist()

    @pytest.mark.parametrize("spec", [H1, H2H1, CurvatureSpec.kth_root(2, 2)],
                             ids=["h1h0", "h2h1", "h2root"])
    def test_jet_partials_match_centred_differences(self, spec):
        rng = np.random.default_rng(5)
        jet = [rng.uniform(0.2, 2.0, 4000), *rng.standard_normal((5, 4000))]
        # both curvatures above 0.05, inside every cone: nearer the rim of
        # K_2 the root's derivatives blow up, and with them the truncation
        # error of the difference quotients
        kappa, _ = grid.principal_curvatures_2d(*jet)
        jet = [v[kappa[:, 1] > 0.05] for v in jet]
        for exact, centred in zip(_jet_partials(spec, jet),
                                  _grid_partials_centred(spec, jet)):
            assert np.max(np.abs(exact - centred)) <= 1e-6 * np.max(np.abs(centred))

    def test_jet_partials_at_umbilic_centre(self):
        # on the circle's cap seed the centre node, quadrant node 0, has
        # Du = 0, uxy = 0 and uxx = uyy exactly: kappa_1 = kappa_2 there
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.0, 1.0), 32)
        jet = grid._jets(_at(layout, 0.5, 0.1).cap[0], layout)
        kappa, _ = grid.principal_curvatures_2d(*jet)
        assert kappa[0, 0] == kappa[0, 1]
        for exact, centred in zip(_jet_partials(H2H1, jet),
                                  _grid_partials_centred(H2H1, jet)):
            assert np.all(np.isfinite(exact))
            assert np.max(np.abs(exact - centred)) <= 1e-6 * np.max(np.abs(centred))

    @pytest.mark.parametrize("grid_size, bound", [(16, 1e-4), (64, 1e-6)])
    def test_jacobian_cross_check(self, grid_size, bound, monkeypatch):
        layout, v, at, _ = self.symmetric_state(grid_size, 0.1)
        lin = layout.evaluate(v, at).lin
        J_ii, J_ib = grid._jacobian_grid(lin, H2H1, layout)
        monkeypatch.setattr(grid, "_jet_partials", _grid_partials_centred)
        C_ii, C_ib = grid._jacobian_grid(lin, H2H1, layout)
        scale = abs(C_ii).max()
        assert abs(J_ii - C_ii).max() <= bound * scale
        assert abs(J_ib - C_ib).max() <= bound * scale

    def test_rim_nodes_mirror(self):
        # at N = 30 the 1.5 x 1 rim passes through nodes, and rounding of
        # the grid coordinates puts some of them inside on one side of an
        # axis only; the layout decides on the quadrant and mirrors
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 30)
        X, Y = np.meshgrid(layout.xs, layout.ys, indexing="ij")
        box = (X / 1.5) ** 2 + Y**2 < 1.0
        assert not np.array_equal(box, box[::-1, :])
        mask = layout.mask
        assert np.array_equal(mask, mask[::-1, :]) and np.array_equal(mask, mask[:, ::-1])

    @pytest.mark.parametrize("axes, grid_size", [((1.5, 1.0), 32), ((1.0, 1.0), 64),
                                                 ((1.5, 1.0), 30)])
    def test_touches_boundary_is_mask_neighbour_test(self, axes, grid_size):
        # oracle: the full-box test of the estimate checks before the layout
        # answered it, at every interior node of the box in box order
        layout = grid.GridLayout(H2H1, hypgeom.Domain.ellipse(*axes), grid_size)
        mask = layout.mask
        ii, jj = np.nonzero(mask)
        want = ~(mask[ii - 1, jj] & mask[ii + 1, jj] & mask[ii, jj - 1] & mask[ii, jj + 1])
        assert want.any() and not want.all()
        assert np.array_equal(layout.touches_boundary, want)

    def test_grid_curvatures_match_pointwise(self):
        # closed-form 2x2 eigenvalues against the per-point jet constructor
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.uniform(0.2, 2.0)
            Du = rng.normal(size=2)
            M = rng.normal(size=(2, 2))
            D2u = 0.5 * (M + M.T)
            kappa, w = grid.principal_curvatures_2d(
                u, Du[0], Du[1], D2u[0, 0], D2u[1, 1], D2u[0, 1])
            jet = oracles.hyperbolic_shape(u, Du, D2u)
            assert np.allclose(np.sort(kappa), np.sort(jet.kappa), atol=1e-10)


def _initial_grid(layout, sigma, epsilon):
    """Oracle for the grid seed: the cap of the inscribed ball at the point,
    carried along the elliptical level sets so that it meets the boundary
    height on the rim, as the grid layout built its first Newton state when
    that state was the heights themselves."""
    a, b = layout.domain.params
    X, Y = np.meshgrid(layout.xs[layout.xs.size // 2:], layout.ys[layout.ys.size // 2:],
                       indexing="ij")
    level = (X / a) ** 2 + (Y / b) ** 2
    cap = hypgeom.make_cap_with_boundary_height(b, sigma, epsilon)
    U = cap.height(np.minimum(np.sqrt(level), 1.0) * b).ravel()
    U[~layout.interior] = epsilon
    return U[None]


class TestReferenceHeights:
    """Both layouts solve for the deviation of the heights from the
    reference heights At.cap[0] that `at` builds with every point."""

    LAYOUTS = {
        "ball": lambda: solver.RadialLayout(H2H1, hypgeom.Domain.ball(1.0), 64),
        "ellipse": lambda: grid.GridLayout(H2H1, hypgeom.Domain.ellipse(1.5, 1.0), 32),
    }
    POINTS = [(0.8, 0.1), (0.5, 1e-3), (0.5, 0.0)]

    @staticmethod
    def dirichlet(layout):
        """The flags of the Dirichlet nodes in a row of the layout."""
        if isinstance(layout, grid.GridLayout):
            return ~layout.interior
        return np.arange(layout.nodes) == layout.nodes - 1

    @pytest.mark.parametrize("make", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_epsilon_on_dirichlet_nodes(self, make):
        layout = make()
        at = layout.at(self.POINTS)
        assert at.cap[0].shape == (len(self.POINTS), layout.nodes)
        for row, (_, epsilon) in zip(at.cap[0], self.POINTS):
            assert np.all(row[self.dirichlet(layout)] == epsilon)

    @pytest.mark.parametrize("point", POINTS)
    def test_grid_seed_is_the_carried_cap(self, point):
        layout = self.LAYOUTS["ellipse"]()
        at = layout.at([point])
        seed = solver.Iterate(np.zeros_like(at.cap[0]), None, None, at)
        assert np.array_equal(solver._heights(seed), _initial_grid(layout, *point))

    @pytest.mark.parametrize("make", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_moved_state_keeps_its_heights(self, make):
        # the state at (0.8, 0.1), where a march with no converged start
        # begins on either layout, converged and moved to each other point
        # as the deviation from that point's reference heights
        layout = make()
        it, _, _, _ = solver._solve_at(layout, None, layout.at(self.POINTS[:1]),
                                       solver.NewtonState())
        heights = solver._heights(it)
        for point in self.POINTS[1:]:
            at = layout.at([point])
            moved = solver.Iterate(heights - at.cap[0], None, None, at)
            assert np.all(np.abs(solver._heights(moved) - heights) <= np.spacing(heights))



class TestLayoutProtocol:
    """solver.Layout is the one statement of the layout contract: both
    layouts meet it, and the code written against a layout reads nothing
    else of it."""

    MEMBERS = {"spec", "nodes", "newton_tol", "keeps_factorization", "exact_seed",
               "touches_boundary", "at", "evaluate", "factor", "solve", "u0", "solution"}
    # the functions and classes that take a layout as an argument
    GENERIC = ("_evaluate", "newton_step", "_newton_solve", "_predict", "_solve_at", "Seeds",
               "_march", "solve_on")

    def test_members(self):
        methods = {name for name, value in vars(solver.Layout).items()
                   if callable(value) and not name.startswith("_")}
        assert set(solver.Layout.__annotations__) | methods == self.MEMBERS

    @pytest.mark.parametrize("make", TestReferenceHeights.LAYOUTS.values(),
                             ids=TestReferenceHeights.LAYOUTS.keys())
    def test_layouts_meet_the_protocol(self, make):
        layout = make()
        assert isinstance(layout, solver.Layout)
        assert solver.Layout not in type(layout).__mro__  # met, not inherited

    @pytest.mark.parametrize("domain, grid_size", [
        (hypgeom.Domain.ball(1.0), 128),
        (hypgeom.Domain.ellipse(1.5, 1.0), 32),
    ], ids=["ball", "ellipse"])
    def test_solutions_hold_a_layout(self, domain, grid_size):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=H2H1, domain=domain, sigma_target=0.5, grid_size=grid_size))
        assert isinstance(sol.layout, solver.Layout)

    def test_other_objects_are_no_layout(self):
        assert not isinstance(object(), solver.Layout)
        assert not isinstance(_LineLayout(), solver.Layout)

    def test_generic_code_reads_only_members(self):
        tree = ast.parse(Path(solver.__file__).read_text())
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

        def is_layout(node):
            # `layout`, or `self.layout` in Seeds
            return (isinstance(node, ast.Name) and node.id == "layout") or (
                isinstance(node, ast.Attribute) and node.attr == "layout"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

        read = {node.attr for name in self.GENERIC for node in ast.walk(defs[name])
                if isinstance(node, ast.Attribute) and is_layout(node.value)}
        assert {"at", "evaluate", "factor", "solve", "exact_seed", "nodes"} <= read
        assert read <= self.MEMBERS, read - self.MEMBERS

def _outcome(layout, points):
    """The seeded Newton solution of `points` as one stack, read through
    solver.Seeds: the trial iterates the stack rejected, and per point
    (u, res, iterations, factorizations), or None where the row failed."""
    assert len(points) * layout.nodes <= solver.STACK_NODES
    state, seeds = solver.NewtonState(), solver.Seeds(layout, points)
    solved = [seeds.get(point, state) for point in points]
    return state.rejected, [None if s is None else (s[0].u[s[1]][0], s[0].res[s[1]][0], *s[2:4])
                            for s in solved]


def _same_outcome(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]


def _alone(layout, point):
    """The seeded Newton solve of one point as a stack of one row: the
    rejected trial count and (u, res, iterations, factorizations)."""
    at = _at(layout, *point)
    state = solver.NewtonState()
    it, count, nf, errors = solver._newton_solve(
        layout, layout.evaluate(np.zeros_like(at.cap[0]), at), state)
    assert not errors
    return state.rejected, (it.u[0], it.res[0], count[0], nf[0])


class TestStackedRows:
    """Every scheduled boundary height of a ball is solved as a row of a
    stack; each row must come out exactly as the same point solved alone."""

    FAMILIES = {
        "h2h1-n2": CurvatureSpec.consecutive_quotient(2, 2),
        "h4h3-n4": CurvatureSpec.consecutive_quotient(4, 4),
        "gq31-n4": CurvatureSpec.general_quotient(3, 1, 4),
    }

    @pytest.mark.parametrize("epsilon_min", [1e-3, 0.0])
    @pytest.mark.parametrize("grid_size", [64, 512])
    @pytest.mark.parametrize("spec", FAMILIES.values(), ids=FAMILIES.keys())
    def test_row_is_the_point_alone(self, spec, grid_size, epsilon_min):
        # at sigma = 0.05 and N = 512 the first row converges an iteration
        # before the others, which go on as a smaller stack
        for sigma in (0.5, 0.05):
            cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                      sigma_target=sigma, grid_size=grid_size,
                                      epsilon_min=epsilon_min)
            points = [(sigma, e) for e in cfg.epsilon_schedule]
            rejected, stacked = _outcome(solver.RadialLayout(spec, cfg.domain, grid_size), points)
            assert all(solution is not None for solution in stacked)
            alone = [_alone(solver.RadialLayout(spec, cfg.domain, grid_size), point)
                     for point in points]
            for row, (_, want) in zip(stacked, alone):
                _same_outcome(row, want)
            assert rejected == sum(r for r, _ in alone)

    def test_inadmissible_seeds_fail_alone(self):
        # H_1 on K_2 at sigma = 0.01: the caps sampled at the four smallest
        # heights leave the cone, and the other rows converge
        spec = CurvatureSpec.kth_root(1, 2)
        cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.01, grid_size=512)
        points = [(0.01, e) for e in cfg.epsilon_schedule]
        layout = solver.RadialLayout(spec, cfg.domain, 512)
        rejected, stacked = _outcome(layout, points)
        assert [solution is None for solution in stacked] == [False] * 4 + [True] * 4
        total = 0
        for point, row in zip(points, stacked):
            if row is None:
                at = _at(layout, *point)
                with pytest.raises(AdmissibilityLostError):
                    layout.evaluate(np.zeros_like(at.cap[0]), at)
            else:
                r, want = _alone(solver.RadialLayout(spec, cfg.domain, 512), point)
                _same_outcome(row, want)
                total += r
        assert rejected == total

    def test_inadmissible_rows_read_from_the_error(self, monkeypatch):
        # the residual names the rows it found outside the cone: the eight
        # seeds take one evaluation as a stack and one for the four
        # admissible rows, where a search a row at a time took ten
        spec = CurvatureSpec.kth_root(1, 2)
        cfg = solver.SolverConfig(spec=spec, domain=hypgeom.Domain.ball(1.0),
                                  sigma_target=0.01, grid_size=512)
        points = [(0.01, e) for e in cfg.epsilon_schedule]
        layout = solver.RadialLayout(spec, cfg.domain, 512)
        at = layout.at(points)
        seeds = np.zeros_like(at.cap[0])
        residuals = _count_calls(monkeypatch, solver, "residual")
        it, kept = solver._evaluate(layout, seeds, at)
        assert len(residuals) == 2
        assert kept == [0, 1, 2, 3] and it.u.shape == (4, 513)
        # each dropped row is inadmissible alone, and each kept row's
        # residual is the one it has alone
        for i in range(len(points)):
            single, single_kept = solver._evaluate(layout, seeds[[i]], _at(layout, *points[i]))
            if i in kept:
                assert single_kept == [0] and np.array_equal(single.res[0], it.res[kept.index(i)])
            else:
                assert single is None and single_kept == []
        residuals.clear()
        state, stack = solver.NewtonState(), solver.Seeds(layout, points)
        solved = [stack.get(point, state) for point in points]
        assert len(residuals) == 2 + max(s[2] for s in solved if s is not None)

    def test_caps_built_once_and_layout_unchanged(self, monkeypatch):
        # the caps of a seeded schedule are built with its stack, once, and
        # travel with its iterates: the layout keeps no cache of them, and a
        # solve and a sweep leave it as construction left it
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.2,
                                  grid_size=512)
        layout = solver.RadialLayout(H2H1, cfg.domain, 512)
        before = dict(vars(layout))
        arrays = {key: value.copy() for key, value in before.items()
                  if isinstance(value, np.ndarray)}
        caps = _count_calls(monkeypatch, solver, "_cap_differences")
        monkeypatch.setattr(solver, "_layout", lambda c: layout)
        sol = solver.continuation_solve(cfg)
        assert len(sol.report.newton_iterations) == 8 and len(caps) == 1
        rows = solver.sweep_sigma(cfg, [0.2, 0.1])
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert vars(layout).keys() == before.keys()
        assert all(vars(layout)[key] is value for key, value in before.items())
        assert all(np.array_equal(before[key], value) for key, value in arrays.items())

    def test_stacks_keep_to_the_node_budget(self, monkeypatch):
        # a sweep of 46 sigmas at N = 512 seeds 53 points, more than one
        # stack of STACK_NODES nodes holds: they are solved in consecutive
        # stacks within the budget, each point once, and every row comes out
        # as in the same sweep solved a point at a time
        cfg = solver.SolverConfig(spec=H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
                                  grid_size=512)
        sigmas = [round(0.95 - 0.02 * i, 2) for i in range(46)]
        stacks, get = [], solver.Seeds.get

        def spy(seeds, point, state):
            before = seeds.solved
            solution = get(seeds, point, state)
            if seeds.solved is not before:  # a new stack
                stacks.append((len(seeds.solved), seeds.layout.nodes))
            return solution

        monkeypatch.setattr(solver.Seeds, "get", spy)
        rows = solver.sweep_sigma(cfg, sigmas)
        assert all(row["status"] == "ok" for row in rows)
        assert len(stacks) > 1
        assert all(count == 1 or count * nodes <= solver.STACK_NODES for count, nodes in stacks)
        assert sum(count for count, _ in stacks) == len(cfg.epsilon_schedule) + len(sigmas) - 1
        monkeypatch.setattr(solver, "STACK_NODES", 1)
        # a float's repr round-trips, so equal reprs are equal bits
        assert repr(solver.sweep_sigma(cfg, sigmas)) == repr(rows)

    def test_broken_rows_fail_alone(self):
        # the Jacobian of one row is singular and that of another has a NaN:
        # the stacked solve fails, each row is solved alone, those two fail
        # with the error each records as a stack of one row, and the others
        # keep their bits
        layout = _BrokenRowsLayout(H2H1, hypgeom.Domain.ball(1.0), 64)
        points = [(0.5, e) for e in solver.default_epsilon_schedule()]
        at = layout.at(points)
        state = solver.NewtonState()
        it, count, nf, errors = solver._newton_solve(
            layout, layout.evaluate(np.zeros_like(at.cap[0]), at), state)
        broken = [i for i, p in enumerate(points) if p[1] in (layout.singular, layout.nan)]
        assert sorted(errors) == broken
        total = 0
        for i, point in enumerate(points):
            if i in broken:
                alone, at = solver.NewtonState(), _at(layout, *point)
                _, _, failed = _step(layout, layout.evaluate(np.zeros_like(at.cap[0]), at), alone)
                assert isinstance(failed[0], SingularJacobianError)
                assert type(errors[i]) is SingularJacobianError
                assert str(errors[i]) == str(failed[0])
                total += alone.rejected
            else:
                r, want = _alone(solver.RadialLayout(H2H1, layout.domain, 64), point)
                _same_outcome((it.u[i], it.res[i], count[i], nf[i]), want)
                total += r
        assert state.rejected == total
        texts = {points[i][1]: str(error) for i, error in errors.items()}
        assert texts[layout.singular] == "singular matrix"
        assert texts[layout.nan] == "linear solve produced non-finite update"

    def test_rows_backtrack_alone(self):
        # r(u) = u - sigma, admissible below 0.8: the row at sigma = 1 rejects
        # its full step and takes half of it, the row at 0.5 takes its full
        # step, each as it does alone
        layout = _StackedLineLayout()
        points = [(0.5, 0.0), (1.0, 0.0)]
        state = solver.NewtonState()
        it, norm, _ = _step(layout, layout.evaluate(np.zeros((2, 1)), layout.at(points)), state)
        assert np.array_equal(it.u, [[0.5], [0.5]]) and np.array_equal(norm, [0.0, 0.5])
        assert state.rejected == 1 and state.factorizations == 1
        rejected = []
        for row in range(2):
            alone, point = solver.NewtonState(), layout.at(points[row:row + 1])
            single, _, _ = _step(layout, layout.evaluate(np.zeros((1, 1)), point), alone)
            assert np.array_equal(single.u[0], it.u[row]) and alone.factorizations == 1
            rejected.append(alone.rejected)
        assert rejected == [0, 1] and state.rejected == sum(rejected)

    @pytest.mark.parametrize("floor, message", [
        (0.3, "backtracking exhausted 20 halvings at sigma=0.5, eps=0.2"),
        (None, r"Newton stalled at residual \S+ \(sigma=0.5, eps=0.2\)"),
    ], ids=["backtracking", "stall"])
    def test_failed_row_names_its_point(self, floor, message):
        # the middle row of three cuts its residual slowly: with a floor it
        # exhausts its backtracking, without one it stalls, each after the
        # other rows converged, as the one row left stepping.  Its error
        # names its own point, and the other rows come out as they do alone
        layout = _SlowRowLayout()
        layout.floor = floor
        points = [(0.3, 0.1), (0.5, 0.2), (0.7, 0.3)]
        state = solver.NewtonState()
        it, count, _, errors = solver._newton_solve(
            layout, layout.evaluate(np.zeros((3, 1)), layout.at(points)), state)
        assert list(errors) == [1] and re.fullmatch(message, str(errors[1]))
        assert count[0] == count[2] == 1 < count[1]
        if floor is None:
            assert count[1] == solver.MAX_NEWTON_ITERS
        for row in (0, 2):
            alone = solver.NewtonState()
            single, single_count, _, single_errors = solver._newton_solve(
                layout, layout.evaluate(np.zeros((1, 1)), layout.at(points[row:row + 1])), alone)
            assert not single_errors and single_count[0] == count[row]
            assert np.array_equal(single.u[0], it.u[row])


class _SlowRowLayout:
    """r(u) = u - sigma per row, whose Jacobian reads 10 on the row at the
    boundary height `slow`, so that each Newton step cuts that row's
    residual by 0.9 only; with a `floor`, the residual of that row never
    rises above -floor, which its steps then cannot decrease."""

    keeps_factorization = False
    newton_tol = 1e-10
    slow, floor = 0.2, None

    def at(self, points):
        return solver.At.of(points, (np.zeros((len(points), 1)),))

    def evaluate(self, u, at):
        slow = at.epsilon == self.slow
        res = u - at.sigma
        if self.floor is not None:
            res = np.where(slow, np.minimum(res, -self.floor), res)
        return solver.Iterate(u, res, np.where(slow, 10.0, 1.0), at)

    def factor(self, lin):
        return lin

    def solve(self, J, rhs):
        return rhs / J


class _BrokenRowsLayout(solver.RadialLayout):
    """The radial layout whose Jacobian is all zeros at the boundary height
    `singular` and has a NaN on its diagonal at `nan`; lin carries each
    row's boundary height as a column."""

    singular, nan = 0.05, 0.0125

    def evaluate(self, v, at):
        it = super().evaluate(v, at)
        return it._replace(lin=(it.lin, at.epsilon))

    def factor(self, lin):
        lin, epsilon = lin
        ab = super().factor(lin)
        rows = ab.reshape(3, -1, ab.shape[-1])
        rows[:, epsilon[:, 0] == self.singular] = 0.0
        rows[1, epsilon[:, 0] == self.nan, 5] = np.nan
        return ab


class _StackedLineLayout:
    """r(u) = u - sigma per row of a stack, admissible only below 0.8; the
    error names the rows at fault."""

    keeps_factorization = False
    newton_tol = 1e-10

    def at(self, points):
        return solver.At.of(points, (np.zeros((len(points), 1)),))

    def evaluate(self, u, at):
        bad = np.flatnonzero(u >= 0.8)
        if bad.size:
            raise AdmissibilityLostError(bad, row_size=u.shape[-1])
        return solver.Iterate(u, u - at.sigma, u, at)

    def factor(self, u):
        return np.ones_like(u)

    def solve(self, J, rhs):
        return rhs / J
