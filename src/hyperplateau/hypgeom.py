"""Vertical graphs in the upper half-space model: normals, Euclidean and
hyperbolic shape operators, principal curvatures, and the umbilic spherical
caps / horospheres used as closed-form oracles.

Conventions: the normal is the upward Euclidean unit normal (the one pointing
toward the unbounded region above a graph over a bounded domain); with it the
umbilic cap of parameter sigma has all hyperbolic principal curvatures equal
to sigma > 0, and a horizontal graph (horosphere) has curvature one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHeightError, UnsupportedSolutionError

SHAPE_BALL = "ball"
SHAPE_ELLIPSE = "ellipse"


@dataclass(frozen=True)
class Domain:
    """Planar domain whose boundary is the prescribed curve at infinity."""

    n: int
    shape: str
    params: tuple

    @classmethod
    def ball(cls, radius: float, n: int = 2) -> "Domain":
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return cls(n, SHAPE_BALL, (float(radius),))

    @classmethod
    def ellipse(cls, a_axis: float, b_axis: float) -> "Domain":
        if not a_axis >= b_axis > 0:
            raise ValueError("ellipse needs a_axis >= b_axis > 0")
        return cls(2, SHAPE_ELLIPSE, (float(a_axis), float(b_axis)))


@dataclass
class PointJet:
    """Per-point bundle of graph data and both shape operators."""

    u: float
    Du: np.ndarray
    D2u: np.ndarray
    w: float
    nu: np.ndarray
    nu_vertical: float
    A_euclid: np.ndarray
    A_hyp: np.ndarray
    kappa: np.ndarray  # sorted descending


def upward_normal(Du) -> tuple[np.ndarray, float]:
    """Unit upward normal (-Du/w, 1/w) and w = sqrt(1 + |Du|^2)."""
    Du = np.asarray(Du, dtype=float)
    w = math.sqrt(1.0 + float(Du @ Du))
    nu = np.append(-Du / w, 1.0 / w)
    return nu, w


def _gamma(Du: np.ndarray, w: float) -> np.ndarray:
    n = Du.shape[0]
    return np.eye(n) - np.outer(Du, Du) / (w * (1.0 + w))


def euclidean_shape(Du, D2u) -> np.ndarray:
    """Symmetrized shape operator of a Euclidean graph, (1/w) gamma D2u gamma;
    eigenvalues are the principal curvatures w.r.t. the upward normal."""
    Du = np.asarray(Du, dtype=float)
    D2u = np.asarray(D2u, dtype=float)
    w = math.sqrt(1.0 + float(Du @ Du))
    g = _gamma(Du, w)
    return (g @ D2u @ g) / w


def hyperbolic_shape(u, Du, D2u) -> PointJet:
    """Full jet at one point; eigenvalues of A_hyp = u A_euclid + (1/w) I are
    the hyperbolic principal curvatures w.r.t. the upward normal."""
    u = float(u)
    if u <= 0.0:
        raise DegenerateHeightError(f"graph height must be positive, got {u}")
    Du = np.asarray(Du, dtype=float)
    D2u = np.asarray(D2u, dtype=float)
    n = Du.shape[0]
    nu, w = upward_normal(Du)
    A_e = euclidean_shape(Du, D2u)
    A_h = u * A_e + (1.0 / w) * np.eye(n)
    kappa = np.sort(np.linalg.eigvalsh(A_h))[::-1]
    return PointJet(
        u=u, Du=Du, D2u=D2u, w=w, nu=nu, nu_vertical=1.0 / w,
        A_euclid=A_e, A_hyp=A_h, kappa=kappa,
    )


@dataclass(frozen=True)
class CapSolution:
    """Umbilic spherical cap over a ball of radius R with u = 0 at the rim.

    The Euclidean sphere has radius r = R/sqrt(1 - sigma^2) and center height
    c = -sigma r < 0; all hyperbolic principal curvatures equal sigma.
    """

    R: float
    sigma: float
    r: float
    c: float

    def height(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = self.c + np.sqrt(np.maximum(self.r**2 - rho**2, 0.0))
        return float(out) if out.ndim == 0 else out

    def dheight(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.sqrt(self.r**2 - rho**2)
        out = -rho / s
        return float(out) if out.ndim == 0 else out

    def d2height(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.sqrt(self.r**2 - rho**2)
        out = -(self.r**2) / s**3
        return float(out) if out.ndim == 0 else out

    @property
    def apex_height(self) -> float:
        return self.c + self.r

    def jet(self, x) -> PointJet:
        """Jet of the cap at a base point x (|x| < R), any dimension."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rho2 = float(x @ x)
        s = math.sqrt(self.r**2 - rho2)
        u = self.c + s
        Du = -x / s
        D2u = -(np.eye(x.shape[0]) / s + np.outer(x, x) / s**3)
        return hyperbolic_shape(u, Du, D2u)


def make_cap(R: float, sigma: float) -> CapSolution:
    """Exact umbilic solution for the ball of radius R with f(kappa) = sigma."""
    if R <= 0:
        raise ValueError("R must be positive")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    r = R / math.sqrt(1.0 - sigma**2)
    return CapSolution(R=R, sigma=sigma, r=r, c=-sigma * r)


def make_cap_with_boundary_height(R: float, sigma: float, epsilon: float) -> CapSolution:
    """Umbilic cap with kappa = sigma everywhere and height epsilon at the
    rim |x| = R; smooth admissible solution of the epsilon-regularized
    Dirichlet problem for every normalized curvature function."""
    if R <= 0:
        raise ValueError("R must be positive")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    q = 1.0 - sigma**2
    r = (epsilon * sigma + math.sqrt(epsilon**2 * sigma**2 + q * (R**2 + epsilon**2))) / q
    return CapSolution(R=R, sigma=sigma, r=r, c=-sigma * r)


def radial_jet(u: float, up: float, upp: float, rho: float, n: int = 2) -> PointJet:
    """Jet of a radially symmetric graph at distance rho from the axis,
    built in the radial-adapted frame.  At rho = 0 the tangential curvature
    uses the analytic limit u'(rho)/rho -> u''(0)."""
    if u <= 0.0:
        raise DegenerateHeightError(f"graph height must be positive, got {u}")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if rho == 0.0:
        Du = np.zeros(n)
        D2u = upp * np.eye(n)
    else:
        Du = np.zeros(n)
        Du[0] = up
        D2u = np.diag([upp] + [up / rho] * (n - 1))
    return hyperbolic_shape(u, Du, D2u)


def radial_curvature_pair(u, up, upp, rho):
    """Vectorized radial and tangential hyperbolic curvatures of a radial
    graph, kappa_rad = u u''/w^3 + 1/w and kappa_tan = u u'/(rho w) + 1/w
    with w = sqrt(1 + u'^2), and u'/rho -> u'' at the axis.  Returns
    (kappa_rad, kappa_tan, w)."""
    u = np.asarray(u, dtype=float)
    up = np.asarray(up, dtype=float)
    upp = np.asarray(upp, dtype=float)
    rho = np.asarray(rho, dtype=float)
    w = np.sqrt(1.0 + up**2)
    k_rad_e = upp / w**3
    k_tan_e = np.divide(up, rho * w, out=k_rad_e.copy(), where=rho > 0.0)
    inv_w = 1.0 / w
    return u * k_rad_e + inv_w, u * k_tan_e + inv_w, w


def radial_principal_curvatures(u, up, upp, rho, n: int):
    """Vectorized hyperbolic principal curvatures of a radial graph.

    Returns (kappa, w): kappa has shape (..., n) with the radial curvature in
    column 0 and the (n-1)-fold tangential curvature in the rest (see
    radial_curvature_pair).
    """
    k_rad, k_tan, w = radial_curvature_pair(u, up, upp, rho)
    kappa = np.concatenate(
        [k_rad[..., None], np.repeat(k_tan[..., None], n - 1, axis=-1)], axis=-1
    )
    return kappa, w


def check_lemma21_ii(solution) -> float:
    """Discrete check of the surface-gradient identity for the vertical
    normal component along the radial principal direction:

        d(nu^{n+1})/ds = -(u_s/u) (kappa_radial - nu^{n+1})

    with s the hyperbolic arclength of the profile curve.  The left side is
    formed with first-order forward differences of the grid values, so the
    returned worst residual converges to zero at first order in the grid
    spacing.  Radial solutions only.
    """
    if getattr(solution, "kind", None) != "radial":
        raise UnsupportedSolutionError("lemma check needs a radial solution")
    rho = solution.rho
    u = solution.u
    h = rho[1] - rho[0]
    up = solution.up
    w = solution.w
    nu = solution.nu_vertical
    k_rad = solution.kappa[:, 0]
    # forward difference in rho, converted to hyperbolic arclength via
    # ds = (w/u) drho; evaluated at interior nodes 1..N-1
    dnu = (nu[2:] - nu[1:-1]) / h
    i = slice(1, len(rho) - 1)
    lhs = (u[i] / w[i]) * dnu
    rhs = -(up[i] / w[i]) * (k_rad[i] - nu[i])
    return float(np.max(np.abs(lhs - rhs)))
