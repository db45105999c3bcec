"""Tensor-grid solver path for ellipse domains (n = 2).

The ellipse is embedded in its bounding box; nodes strictly inside the
ellipse are unknowns of the curvature equation, every other node carries the
Dirichlet boundary height.  The nine-point linearization is assembled from
per-node partials of f(kappa[jet]) taken by centered differences in the local
jet variables -- the same device as the radial path, and for the same reason:
differencing the assembled residual folds probe truncation error through the
stiff stencil map.

Only the interior equations form the linear system: their Jacobian splits
into the interior block J_ii, factored by SuperLU under a minimum-degree
ordering of J_ii + J_ii^T, and the coupling J_ib to the Dirichlet nodes,
whose update is their own right-hand side.  The factorization is costly
enough that the Newton driver keeps it for chord steps.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

# `solver` imports this module too; each uses the other's names only at call time
from . import hypgeom, solver, symfunc
from .errors import AdmissibilityError, AdmissibilityLostError, SingularJacobianError


class GridLayout:
    """Node heights on the ellipse's bounding box.  Nodes strictly inside
    the ellipse, off the outer frame, are unknowns of the curvature
    equation; every other node carries the boundary height.  The Jacobian
    holds the interior rows of the nine-point linearization, split into
    the interior block and the coupling to Dirichlet nodes; the driver
    reuses its factorization across Newton iterations and for the Euler
    predictor of each continuation step.  The cap seed solves no ellipse
    problem exactly, so the driver continues from it in sigma, then in the
    boundary height.  Newton stops at a residual sup-norm of 1e-8."""

    keeps_factorization = True
    exact_seed = False
    newton_tol = 1e-8

    def __init__(self, spec: symfunc.CurvatureSpec, domain: hypgeom.Domain, grid_size: int):
        self.spec, self.domain = spec, domain
        a, b = domain.params
        nx = grid_size + 1
        ny = max(int(round(grid_size * b / a)), 8) + 1
        self.xs = np.linspace(-a, a, nx)
        self.ys = np.linspace(-b, b, ny)
        self.hx = self.xs[1] - self.xs[0]
        self.hy = self.ys[1] - self.ys[0]
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        # squared elliptical level of every node: 1 on the rim
        self.level = (X / a) ** 2 + (Y / b) ** 2
        inside = self.level < 1.0
        # interior unknowns need the full nine-point neighborhood on the grid
        inside[0, :] = inside[-1, :] = False
        inside[:, 0] = inside[:, -1] = False
        self.inside = inside

    @property
    def shape(self):
        return self.inside.shape

    def residual(self, U, sigma, epsilon):
        return residual_grid(U, self.spec, sigma, epsilon, self)

    def jacobian(self, U):
        return _jacobian_grid(U, self.spec, self)

    def factor(self, J):
        J_ii, J_ib = J
        try:
            lu = splu(J_ii, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularJacobianError(str(exc)) from exc
        return lu, J_ib

    def solve(self, factored, rhs):
        """Dirichlet rows are identity, so their update is their right-hand
        side; the interior update solves J_ii d_i = rhs_i - J_ib d_b."""
        lu, J_ib = factored
        delta = rhs.copy()
        ins = self.inside.ravel()
        delta[ins] = lu.solve(rhs[ins] - J_ib @ rhs)
        return delta.reshape(self.shape)

    def initial(self, sigma, epsilon):
        """Cap of the inscribed ball, carried along the elliptical level sets
        so it meets the boundary height on the rim."""
        b = self.domain.params[1]
        cap = hypgeom.make_cap_with_boundary_height(b, sigma, epsilon)
        U = cap.height(np.minimum(np.sqrt(self.level), 1.0) * b)
        U[~self.inside] = epsilon
        return U

    def u0(self, U):
        return float(np.max(U[self.inside]))

    def summary(self, U):
        """(largest interior curvature, smallest interior nu^{n+1})."""
        kappa, w = _interior_curvatures(U, self)
        return float(np.max(kappa)), float(np.min(1.0 / w))

    def solution(self, U, sigma, epsilon, report=None):
        kappa, w = _interior_curvatures(U, self)
        ins = self.inside
        return solver.GraphSolution(
            domain=self.domain, spec=self.spec, sigma=sigma, epsilon=epsilon, kind="grid",
            u=U[ins].copy(), kappa=kappa, nu_vertical=1.0 / w, w=w, report=report,
            xs=self.xs, ys=self.ys, mask=ins, u2d=U,
        )


def _jet_fields(U: np.ndarray, layout: GridLayout):
    """Centered first/second differences of the full node array; values on
    the outermost frame are never used (the frame is Dirichlet)."""
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


def principal_curvatures_2d(u, ux, uy, uxx, uyy, uxy):
    """Vectorized hyperbolic principal curvatures of a 2-D graph; closed-form
    eigenvalues of the symmetrized shape operator.  Returns (kappa, w) with
    kappa[..., 0] >= kappa[..., 1]."""
    w = np.sqrt(1.0 + ux**2 + uy**2)
    c = 1.0 / (w * (1.0 + w))
    # gamma = I - c * Du Du^T
    g11 = 1.0 - c * ux * ux
    g12 = -c * ux * uy
    g22 = 1.0 - c * uy * uy
    # M = gamma D2u gamma (symmetric)
    t11 = g11 * uxx + g12 * uxy
    t12 = g11 * uxy + g12 * uyy
    t21 = g12 * uxx + g22 * uxy
    t22 = g12 * uxy + g22 * uyy
    m11 = t11 * g11 + t12 * g12
    m12 = t11 * g12 + t12 * g22
    m22 = t21 * g12 + t22 * g22
    a11 = u * m11 / w + 1.0 / w
    a12 = u * m12 / w
    a22 = u * m22 / w + 1.0 / w
    mean = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    return np.stack([mean + rad, mean - rad], axis=-1), w


def _interior_curvatures(U: np.ndarray, layout: GridLayout):
    ins = layout.inside
    Ux, Uy, Uxx, Uyy, Uxy = _jet_fields(U, layout)
    return principal_curvatures_2d(U[ins], Ux[ins], Uy[ins], Uxx[ins], Uyy[ins], Uxy[ins])


def residual_grid(U: np.ndarray, spec: symfunc.CurvatureSpec, sigma: float,
                  epsilon: float, layout: GridLayout) -> np.ndarray:
    """Flat residual over all nodes: f(kappa) - sigma at interior unknowns,
    u - epsilon on Dirichlet nodes."""
    ins = layout.inside
    bad = np.flatnonzero((U[ins] <= 0.0))
    if bad.size:
        raise AdmissibilityLostError(bad, "non-positive height at interior nodes")
    kappa, _ = _interior_curvatures(U, layout)
    try:
        f = symfunc.eval_f(spec, kappa)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices) from exc
    res = U - epsilon
    res[ins] = f - sigma
    return res.ravel()


def _jacobian_grid(U: np.ndarray, spec: symfunc.CurvatureSpec,
                   layout: GridLayout, step: float = 1e-6):
    """Interior rows of the sparse nine-point Jacobian: centered differences
    of the pointwise map (u, ux, uy, uxx, uyy, uxy) -> f(kappa), assembled
    with exact stencil weights.  Returns (J_ii, J_ib): the interior block in
    CSC over interior unknowns (numbered in node order), and the coupling
    to Dirichlet nodes in CSR over all nodes, zero in interior columns."""
    ins = layout.inside
    hx, hy = layout.hx, layout.hy
    Ux, Uy, Uxx, Uyy, Uxy = _jet_fields(U, layout)
    jet = [U[ins], Ux[ins], Uy[ins], Uxx[ins], Uyy[ins], Uxy[ins]]

    def G(vals):
        kappa, _ = principal_curvatures_2d(*vals)
        return symfunc.eval_f(spec, kappa, check_cone=False)

    parts = []
    for j in range(6):
        d = step * (1.0 + np.abs(jet[j]))
        hi = list(jet)
        lo = list(jet)
        hi[j] = jet[j] + d
        lo[j] = jet[j] - d
        parts.append((G(hi) - G(lo)) / (2.0 * d))
    c_u, c_x, c_y, c_xx, c_yy, c_xy = parts

    nx, ny = layout.shape
    flat = np.arange(nx * ny).reshape(nx, ny)
    unknown = np.full((nx, ny), -1)
    unknown[ins] = np.arange(c_u.size)
    ii, jj = np.nonzero(ins)
    center = unknown[ii, jj]
    rows, cols, vals = [], [], []

    def add(di, dj, coeff):
        rows.append(center)
        cols.append(flat[ii + di, jj + dj])
        vals.append(coeff)

    add(0, 0, c_u - 2.0 * c_xx / hx**2 - 2.0 * c_yy / hy**2)
    add(1, 0, c_x / (2.0 * hx) + c_xx / hx**2)
    add(-1, 0, -c_x / (2.0 * hx) + c_xx / hx**2)
    add(0, 1, c_y / (2.0 * hy) + c_yy / hy**2)
    add(0, -1, -c_y / (2.0 * hy) + c_yy / hy**2)
    cross = c_xy / (4.0 * hx * hy)
    add(1, 1, cross)
    add(-1, -1, cross)
    add(1, -1, -cross)
    add(-1, 1, -cross)

    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    col_unknown = unknown.ravel()[cols]
    inner = col_unknown >= 0
    m = c_u.size
    J_ii = csc_matrix((vals[inner], (rows[inner], col_unknown[inner])), shape=(m, m))
    J_ib = csr_matrix((vals[~inner], (rows[~inner], cols[~inner])), shape=(m, nx * ny))
    return J_ii, J_ib


def continuation_solve_grid(cfg):
    """Continuation solve of a resolved ellipse config on its tensor grid."""
    return solver.solve_on(GridLayout(cfg.spec, cfg.domain, cfg.grid_size), cfg)
