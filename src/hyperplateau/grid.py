"""Tensor-grid solver path for ellipse domains (n = 2).

The ellipse is centred and axis-aligned, so the problem is symmetric under
the reflections x -> -x and y -> -y: f(kappa) depends on the jet only
through its principal curvatures, which the reflections leave unchanged
(they flip the signs of u_x or u_y together with u_xy, and every product of
them in `principal_curvatures_2d` either keeps its sign or enters squared,
so even the rounded values agree), and the nine-point stencils map onto
themselves.  The state is therefore one quadrant of the ellipse's bounding
box.  A node across a symmetry axis stands for its mirror image in the
quadrant, found through a fold map computed once per layout.  The discrete
problem is then exactly symmetric (on the whole box the differences add a
node's two neighbours in opposite orders on the two sides of an axis, so
they agree only up to rounding), and the solution on the whole box is the
quadrant state unfolded.

Quadrant nodes strictly inside the ellipse are unknowns of the curvature
equation, every other quadrant node carries the Dirichlet boundary height.
The nine-point linearization is assembled from the per-node partials of
f(kappa[jet]) in the local jet variables, by the chain rule through
symfunc.grad_f and the closed-form derivatives of the shape operator (see
_jet_partials), with the exact stencil weights -- as on the radial path.

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

# nine-point stencil offsets (di, dj): centre, then x, y and diagonal
# neighbours, in the order of the rows `_jets` gathers and of the Jacobian's
# coefficient blocks
STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _fold(count: int) -> np.ndarray:
    """Quadrant index of each of `count` nodes along one axis: the mirror
    image max(i, count - 1 - i), shifted to start at count // 2.  With an odd
    count the axis runs through a node; with an even count it lies between
    two nodes, and the ghost of the first quadrant node is the node itself."""
    i = np.arange(count)
    return np.maximum(i, count - 1 - i) - count // 2


class GridLayout:
    """Node heights on the quadrant x >= 0, y >= 0 of the ellipse's bounding
    box: the full box's nodes i >= nx // 2, j >= ny // 2, outer frame
    included.  Quadrant nodes strictly inside the ellipse, off the outer
    frame, are unknowns of the curvature equation, numbered in quadrant node
    order (residual rows, Jacobian columns and the node lists of
    AdmissibilityLostError use this numbering); every other quadrant node
    carries the boundary height.  Computed once: `fold` maps every node of
    the full box to the flat quadrant index of its mirror image, `stencil`
    holds the folded nine-point neighbourhood of every unknown, and
    `unknown` the number of every quadrant node (-1 on Dirichlet nodes).
    Whether a node is inside is decided on the quadrant and mirrored, so
    the discrete problem keeps the reflection symmetry even where rounding
    puts a rim node on different sides of the rim in different quadrants.
    The Jacobian holds the interior rows of the nine-point linearization,
    split into the interior block and the coupling to Dirichlet nodes; the
    driver reuses its factorization across Newton iterations and for the
    Euler predictor of each continuation step.  The cap seed solves no
    ellipse problem exactly, so the driver continues from it in sigma, then
    in the boundary height.  Newton stops at a residual sup-norm of 1e-8."""

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
        cx, cy = nx // 2, ny // 2
        X, Y = np.meshgrid(self.xs[cx:], self.ys[cy:], indexing="ij")
        # squared elliptical level of every quadrant node: 1 on the rim
        self.level = (X / a) ** 2 + (Y / b) ** 2
        inside = self.level < 1.0
        # interior unknowns need the full nine-point neighborhood on the grid
        inside[-1, :] = inside[:, -1] = False
        self.inside = inside
        self.fold = _fold(nx)[:, None] * inside.shape[1] + _fold(ny)[None, :]
        # interior nodes of the full box: the quadrant's, mirrored
        self.mask = inside.ravel()[self.fold]
        ii, jj = np.nonzero(inside)
        self.stencil = np.stack([self.fold[ii + cx + di, jj + cy + dj] for di, dj in STENCIL])
        self.unknown = np.full(inside.size, -1)
        self.unknown[inside.ravel()] = np.arange(ii.size)
        # COO entries of the Jacobian, blocks in STENCIL order: the columns
        # are folded neighbours, so a mirror coupling is a duplicate entry
        # that the conversion to CSC/CSR sums
        rows = np.tile(np.arange(ii.size), len(STENCIL))
        cols = self.stencil.ravel()
        self._inner = self.unknown[cols] >= 0
        self._ii = (rows[self._inner], self.unknown[cols[self._inner]])
        self._ib = (rows[~self._inner], cols[~self._inner])

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
        """The quadrant state unfolded onto the full box: `u2d` over every
        node, `mask` its interior nodes, and `u`, `kappa` and `w` at those
        nodes in full-box node order."""
        kappa, w = _interior_curvatures(U, self)
        u2d = U.ravel()[self.fold]
        image = self.unknown[self.fold[self.mask]]
        return solver.GraphSolution(
            domain=self.domain, spec=self.spec, sigma=sigma, epsilon=epsilon, kind="grid",
            u=u2d[self.mask], kappa=kappa[image], nu_vertical=1.0 / w[image], w=w[image],
            report=report, xs=self.xs, ys=self.ys, mask=self.mask, u2d=u2d,
        )


def _jets(U: np.ndarray, layout: GridLayout):
    """Height and centered first/second differences at every interior
    unknown, from its nine stencil neighbours gathered through the fold."""
    hx, hy = layout.hx, layout.hy
    c, e, w, n, s, ne, sw, se, nw = U.ravel()[layout.stencil]
    return (
        c,
        (e - w) / (2.0 * hx),
        (n - s) / (2.0 * hy),
        (e - 2.0 * c + w) / hx**2,
        (n - 2.0 * c + s) / hy**2,
        (ne - se - nw + sw) / (4.0 * hx * hy),
    )


def _shape_2d(ux, uy, uxx, uyy, uxy):
    """w = sqrt(1 + |Du|^2), c = 1/(w (1 + w)), gamma = I - c Du Du^T and
    M = gamma D2u gamma of a 2-D graph, the symmetric matrices as their
    (11, 12, 22) entries."""
    w = np.sqrt(1.0 + ux**2 + uy**2)
    c = 1.0 / (w * (1.0 + w))
    g11 = 1.0 - c * ux * ux
    g12 = -c * ux * uy
    g22 = 1.0 - c * uy * uy
    t11 = g11 * uxx + g12 * uxy
    t12 = g11 * uxy + g12 * uyy
    t21 = g12 * uxx + g22 * uxy
    t22 = g12 * uxy + g22 * uyy
    m11 = t11 * g11 + t12 * g12
    m12 = t11 * g12 + t12 * g22
    m22 = t21 * g12 + t22 * g22
    return w, c, (g11, g12, g22), (m11, m12, m22)


def principal_curvatures_2d(u, ux, uy, uxx, uyy, uxy):
    """Vectorized hyperbolic principal curvatures of a 2-D graph; closed-form
    eigenvalues of the symmetrized shape operator A = (u M + I)/w.  Returns
    (kappa, w) with kappa[..., 0] >= kappa[..., 1]."""
    w, _, _, (m11, m12, m22) = _shape_2d(ux, uy, uxx, uyy, uxy)
    a11 = u * m11 / w + 1.0 / w
    a12 = u * m12 / w
    a22 = u * m22 / w + 1.0 / w
    mean = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    return np.stack([mean + rad, mean - rad], axis=-1), w


def _jet_partials(spec: symfunc.CurvatureSpec, jet):
    """Partials of f(kappa[jet]) in the jet (u, ux, uy, uxx, uyy, uxy): by
    the chain rule, sum_i f_i dkappa_i = tr(G dA) with the f_i from one
    symfunc.grad_f call and G = sum_i f_i e_i e_i^T over the unit
    eigenvectors of A = (u M + I)/w,

        G = (f_1 + f_2)/2 I + (f_1 - f_2) (A - tr A/2 I)/(kappa_1 - kappa_2).

    The traceless part of A has eigenvalues +-(kappa_1 - kappa_2)/2, so the
    second term is bounded; it is 0 where kappa_1 = kappa_2 (f_1 = f_2
    there).  tr(G dA) is then closed-form in each jet variable: A is linear
    in u and in D2u, and depends on Du through w and gamma."""
    u, ux, uy, uxx, uyy, uxy = jet
    kappa, _ = principal_curvatures_2d(*jet)
    f = symfunc.grad_f(spec, kappa, check_cone=False)
    w, c, (g11, g12, g22), (m11, m12, m22) = _shape_2d(ux, uy, uxx, uyy, uxy)
    uw = u / w
    # traceless part [[d, a12], [a12, -d]] of A, with eigenvalues +-rad
    d = 0.5 * uw * (m11 - m22)
    a12 = uw * m12
    rad = np.sqrt(d**2 + a12**2)
    q = np.divide(f[:, 0] - f[:, 1], 2.0 * rad, out=np.zeros_like(rad), where=rad > 0.0)
    s = 0.5 * (f[:, 0] + f[:, 1])
    G11, G12, G22 = s + q * d, q * a12, s - q * d
    # gamma G, then K = gamma G gamma: dA/dD2u = u gamma dD2u gamma / w
    p11 = g11 * G11 + g12 * G12
    p12 = g11 * G12 + g12 * G22
    p21 = g12 * G11 + g22 * G12
    p22 = g12 * G12 + g22 * G22
    K11 = p11 * g11 + p12 * g12
    K12 = p11 * g12 + p12 * g22
    K22 = p21 * g12 + p22 * g22
    # Q = D2u gamma G + G gamma D2u: tr(G dM) = tr(dgamma Q) along Du
    Q11 = 2.0 * (uxx * p11 + uxy * p21)
    Q12 = uxx * p12 + uxy * p22 + uxy * p11 + uyy * p21
    Q22 = 2.0 * (uxy * p12 + uyy * p22)
    Qx = Q11 * ux + Q12 * uy
    Qy = Q12 * ux + Q22 * uy
    # dA/du_k = -A u_k/w^2 + (u/w) dM/du_k, dgamma/du_k = -dc/du_k Du Du^T
    # - c (e_k Du^T + Du e_k^T), and dc/du_k = -c^2 (1 + 2w) u_k/w
    fk = f[:, 0] * kappa[:, 0] + f[:, 1] * kappa[:, 1]  # tr(G A)
    along = -fk / w**2 + uw * c**2 * (1.0 + 2.0 * w) / w * (ux * Qx + uy * Qy)
    return (
        (G11 * m11 + 2.0 * G12 * m12 + G22 * m22) / w,
        along * ux - 2.0 * uw * c * Qx,
        along * uy - 2.0 * uw * c * Qy,
        uw * K11,
        uw * K22,
        2.0 * uw * K12,
    )


def _interior_curvatures(U: np.ndarray, layout: GridLayout):
    return principal_curvatures_2d(*_jets(U, layout))


def residual_grid(U: np.ndarray, spec: symfunc.CurvatureSpec, sigma: float,
                  epsilon: float, layout: GridLayout) -> np.ndarray:
    """Flat residual over all quadrant nodes: f(kappa) - sigma at interior
    unknowns, u - epsilon on Dirichlet nodes.  AdmissibilityLostError lists
    the offending unknowns by their number among the quadrant's interior
    nodes."""
    jet = _jets(U, layout)
    bad = np.flatnonzero(jet[0] <= 0.0)
    if bad.size:
        raise AdmissibilityLostError(bad, "non-positive height at interior nodes")
    kappa, _ = principal_curvatures_2d(*jet)
    try:
        f = symfunc.eval_f(spec, kappa)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices) from exc
    res = U - epsilon
    res[layout.inside] = f - sigma
    return res.ravel()


def _jacobian_grid(U: np.ndarray, spec: symfunc.CurvatureSpec, layout: GridLayout):
    """Interior rows of the sparse nine-point Jacobian: the chain-rule
    partials of the pointwise map (u, ux, uy, uxx, uyy, uxy) -> f(kappa)
    (see _jet_partials), assembled with exact stencil weights into the
    folded neighbour columns.  Returns (J_ii, J_ib): the interior block in
    CSC over the quadrant's interior unknowns, and the coupling to
    Dirichlet nodes in CSR over all quadrant nodes, zero in interior
    columns."""
    hx, hy = layout.hx, layout.hy
    c_u, c_x, c_y, c_xx, c_yy, c_xy = _jet_partials(spec, _jets(U, layout))

    cross = c_xy / (4.0 * hx * hy)
    vals = np.concatenate([  # one block per STENCIL offset
        c_u - 2.0 * c_xx / hx**2 - 2.0 * c_yy / hy**2,
        c_x / (2.0 * hx) + c_xx / hx**2,
        -c_x / (2.0 * hx) + c_xx / hx**2,
        c_y / (2.0 * hy) + c_yy / hy**2,
        -c_y / (2.0 * hy) + c_yy / hy**2,
        cross,
        cross,
        -cross,
        -cross,
    ])
    m = c_u.size
    J_ii = csc_matrix((vals[layout._inner], layout._ii), shape=(m, m))
    J_ib = csr_matrix((vals[~layout._inner], layout._ib), shape=(m, layout.inside.size))
    return J_ii, J_ib


def continuation_solve_grid(cfg):
    """Continuation solve of a resolved ellipse config on its tensor grid."""
    return solver.solve_on(GridLayout(cfg.spec, cfg.domain, cfg.grid_size), cfg)
