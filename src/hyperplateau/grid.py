"""Tensor-grid layout for ellipse domains (n = 2), which meets
solver.Layout.

The ellipse is centred and axis-aligned, so the problem is symmetric under
the reflections x -> -x and y -> -y.  f depends on the jet only through
e_1 = tr A and e_2 = det A of the shape operator A (see _table_2d), and a
reflection flips the signs of u_x or u_y together with u_xy.  In tr A and
det A these enter squared or in products with another flipped factor (u_x
u_xx + u_y u_xy flips with u_x, for instance), and a sum whose terms all
flip flips exactly, so even the rounded values agree.  The nine-point
stencils map onto themselves too.  The state is therefore one quadrant of
the ellipse's bounding box, and a node across a symmetry axis stands for
its mirror image in the quadrant, found through a fold map computed once
per layout.  The discrete problem is then exactly symmetric (on the whole
box the differences add a node's two neighbours in opposite orders on the
two sides of an axis, so they agree only up to rounding), and the state on
the whole box is the quadrant state unfolded.

f comes from the table (1, tr A, det A) through symfunc.f_of_table, with no
eigenvalues, and the nine-point linearization from its closed-form partials
in the jet (see _jet_partials), with the exact stencil weights.
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
    box, as one row: the full box's nodes i >= nx // 2, j >= ny // 2, outer
    frame included.  Quadrant nodes strictly inside the ellipse, off the
    outer frame, are unknowns of the curvature equation, flagged by
    `interior` and numbered in quadrant node order (residual rows, Jacobian
    columns and the node lists of AdmissibilityLostError use this
    numbering); every other quadrant node is a Dirichlet node.  Computed
    once: `fold` maps every node of the full box to the flat quadrant index
    of its mirror image, `stencil` holds the folded nine-point neighbourhood
    of every unknown, and `unknown` the number of every quadrant node (-1 on
    Dirichlet nodes).  Whether a node is inside is decided on the quadrant
    and mirrored, so the discrete problem keeps the reflection symmetry even
    where rounding puts a rim node on different sides of the rim in
    different quadrants.  The reference heights are the cap of the inscribed
    ball carried along the elliptical level sets, which solves no ellipse
    problem exactly.  A solution reports the full box's interior nodes
    `mask` in box order, each with the curvatures of the unknown it mirrors,
    `image`."""

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
        level = (X / a) ** 2 + (Y / b) ** 2
        inside = level < 1.0
        # the radius in the inscribed ball whose cap height a node's
        # reference height carries: b sqrt(level), b on and past the rim
        self.radius = (np.minimum(np.sqrt(level), 1.0) * b).ravel()
        # interior unknowns need the full nine-point neighborhood on the grid
        inside[-1, :] = inside[:, -1] = False
        self.inside = inside
        self.interior = inside.ravel()
        self.nodes = inside.size
        self.fold = _fold(nx)[:, None] * inside.shape[1] + _fold(ny)[None, :]
        # interior nodes of the full box: the quadrant's, mirrored
        self.mask = self.interior[self.fold]
        ii, jj = np.nonzero(inside)
        self.stencil = np.stack([self.fold[ii + cx + di, jj + cy + dj] for di, dj in STENCIL])
        self.unknown = np.full(inside.size, -1)
        self.unknown[self.interior] = np.arange(ii.size)
        self.image = self.unknown[self.fold[self.mask]]
        # an x- or y-neighbour of a node is Dirichlet exactly when it is for
        # the node's mirror image
        self.touches_boundary = np.any(self.unknown[self.stencil[1:5]] < 0, axis=0)[self.image]
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

    def at(self, points):
        """The points with their reference heights (g,)."""
        b = self.domain.params[1]
        g = np.empty((len(points), self.nodes))
        for row, (sigma, epsilon) in zip(g, points):
            row[:] = hypgeom.make_cap_with_boundary_height(b, sigma, epsilon).height(self.radius)
            row[~self.interior] = epsilon
        return solver.At.of(points, (g,))

    def evaluate(self, v, at):
        return solver.Iterate(v, *residual_grid(v, self.spec, at.sigma[:, 0], at.cap[0], self),
                              at)

    def factor(self, lin):
        """The interior block J_ii, factored by SuperLU under a
        minimum-degree ordering of J_ii + J_ii^T, and the coupling J_ib to
        the Dirichlet nodes (see _jacobian_grid)."""
        J_ii, J_ib = _jacobian_grid(lin, self.spec, self)
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
        delta[0][self.interior] = lu.solve(rhs[0][self.interior] - J_ib @ rhs[0])
        return delta

    def u0(self, U):
        return float(np.max(U.ravel()[self.interior]))

    def solution(self, it):
        """The quadrant heights of the one-row iterate `it`, with `kappa` and
        `w` from its residual's jet at the full box's interior nodes."""
        kappa, w = principal_curvatures_2d(*it.lin[0])
        sigma, epsilon = it.at.point()
        return solver.GraphSolution(layout=self, u=solver._heights(it).reshape(self.shape),
                                    sigma=sigma, epsilon=epsilon, kappa=kappa[self.image],
                                    w=w[self.image])


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


def principal_curvatures_2d(u, ux, uy, uxx, uyy, uxy):
    """Hyperbolic principal curvatures of a 2-D graph, for the reports
    (solution): eigenvalues of A = (u M + I)/w, M = gamma D2u gamma,
    gamma = I - c Du Du^T, c = 1/(w (1 + w)), in closed form from the mean
    and the traceless part of A.  Returns (kappa, w), kappa[..., 0] >= kappa[..., 1]."""
    w = np.sqrt(1.0 + ux**2 + uy**2)
    c = 1.0 / (w * (1.0 + w))
    g11 = 1.0 - c * ux * ux
    g12 = -c * ux * uy
    g22 = 1.0 - c * uy * uy
    t11 = g11 * uxx + g12 * uxy
    t12 = g11 * uxy + g12 * uyy
    t21 = g12 * uxx + g22 * uxy
    t22 = g12 * uxy + g22 * uyy
    a11 = u * (t11 * g11 + t12 * g12) / w + 1.0 / w
    a12 = u * (t11 * g12 + t12 * g22) / w
    a22 = u * (t21 * g12 + t22 * g22) / w + 1.0 / w
    mean = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    return np.stack([mean + rad, mean - rad], axis=-1), w


def _table_2d(u, ux, uy, uxx, uyy, uxy):
    """Table (1, e_1, e_2) = (1, tr A, det A) of A = (u M + I)/w, shape
    (3, points), and the terms its partials reuse.  With det gamma = 1/w,
    gamma^2 = I - Du Du^T/w^2, p = D2u Du and q = Du . p:

        tr A = (u (Lap u - q/w^2) + 2)/w,
        det A = (u^2 det D2u/w^2 + u (Lap u - q/w^2) + 1)/w^2."""
    w2 = 1.0 + ux**2 + uy**2
    w = np.sqrt(w2)
    px, py = ux * uxx + uy * uxy, ux * uxy + uy * uyy  # p = D2u Du
    r = (ux * px + uy * py) / w2
    t = uxx + uyy - r  # tr M
    det = uxx * uyy - uxy**2  # w^2 det M
    e = np.stack([np.ones_like(u), (u * t + 2.0) / w, (u * u * det / w2 + u * t + 1.0) / w2])
    return e, (w, w2, px, py, r, t, det)


def _jet_partials(spec: symfunc.CurvatureSpec, jet, e, terms, f):
    """Partials of f in the jet (u, ux, uy, uxx, uyy, uxy), given with the
    table e and terms that _table_2d built from it and f on that table: by
    the chain rule f_1 de_1 + f_2 de_2, with f_q = df/de_q from
    symfunc.df_of_table and the closed-form partials of e_1 = tr A and e_2
    = det A.  No eigenvalue or eigenprojector of A enters, so an umbilic
    node (kappa_1 = kappa_2) needs no special case.  tr M = Lap u - q/w^2 is linear in D2u and has
    d(tr M)/du_x = -2 (p_x - u_x q/w^2)/w^2; a = f_1/w + f_2/w^2 collects
    the terms in u tr M, b = f_2 u^2/w^4 those in det D2u."""
    u, ux, uy, uxx, uyy, uxy = jet
    w, w2, px, py, r, t, det = terms
    _, f1, f2 = symfunc.df_of_table(spec, e, f)
    a, bu = f1 / w + f2 / w2, f2 * u / w2**2
    au, b = a * u, bu * u
    s = f1 * e[1] + 2.0 * (f2 * e[2] + b * det)
    return (
        a * t + 2.0 * bu * det,
        -(2.0 * au * (px - ux * r) + ux * s) / w2,
        -(2.0 * au * (py - uy * r) + uy * s) / w2,
        au * (1.0 - ux * ux / w2) + b * uyy,
        au * (1.0 - uy * uy / w2) + b * uxx,
        -2.0 * (au * ux * uy / w2 + b * uxy),
    )


def residual_grid(v: np.ndarray, spec: symfunc.CurvatureSpec, sigma: np.ndarray, g: np.ndarray,
                  layout: GridLayout):
    """Residual of the one-row stack v of deviations from the reference
    heights g at its point (f - sigma at interior unknowns, f from the table
    of _table_2d at the jet of the heights g + v, and v = u - g on Dirichlet
    nodes) and lin = (jet, table, terms, f), which _jacobian_grid reads.
    AdmissibilityLostError lists by their number among the quadrant's
    interior nodes the unknowns of non-positive height, else those outside
    the cone by the signs of the table (symfunc.check_table)."""
    jet = _jets(g + v, layout)
    bad = np.flatnonzero(jet[0] <= 0.0)
    if bad.size:
        raise AdmissibilityLostError(bad, "non-positive height at interior nodes")
    e, terms = _table_2d(*jet)
    try:
        symfunc.check_table(spec, e)
    except AdmissibilityError as exc:
        raise AdmissibilityLostError(exc.indices) from exc
    f = symfunc.f_of_table(spec, e)
    res = v.copy()
    res[0][layout.interior] = f - sigma[0]
    return res, (jet, e, terms, f)


def _jacobian_grid(lin, spec: symfunc.CurvatureSpec, layout: GridLayout):
    """Interior rows of the sparse nine-point Jacobian from what the
    residual built (`lin`): the chain-rule partials of the pointwise map
    (u, ux, uy, uxx, uyy, uxy) -> f(kappa) (see _jet_partials), assembled
    with exact stencil weights into the folded neighbour columns.  Returns
    (J_ii, J_ib): the interior block in CSC over the quadrant's interior
    unknowns, and the coupling to Dirichlet nodes in CSR over all quadrant
    nodes, zero in interior columns."""
    hx, hy = layout.hx, layout.hy
    c_u, c_x, c_y, c_xx, c_yy, c_xy = _jet_partials(spec, *lin)

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
    """Continuation solve of an ellipse config on its tensor grid."""
    return solver.solve_on(GridLayout(cfg.spec, cfg.domain, cfg.grid_size), cfg)
