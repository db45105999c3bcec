"""Vertical graphs in the upper half-space model: their domains, the umbilic
spherical caps that solve the problem on balls in closed form, and the
hyperbolic principal curvatures of a radial graph.

Conventions: the normal is the upward Euclidean unit normal (the one pointing
toward the unbounded region above a graph over a bounded domain); with it the
umbilic cap of parameter sigma has all hyperbolic principal curvatures equal
to sigma > 0, and a horizontal graph (horosphere) has curvature one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SHAPE_BALL = "ball"
SHAPE_ELLIPSE = "ellipse"

MAX_EXTENT = 1e100  # largest radius or semi-axis; the cap's r**2 overflows past 1e154


def check_sigma(sigma: float) -> None:
    """Raise ValueError unless 0 < sigma < 1, the curvatures of caps."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")


@dataclass(frozen=True)
class Domain:
    """Domain bounded by the prescribed curve at infinity, built by `ball` or
    `ellipse`, which check its sizes; its dimension is the spec's n."""

    shape: str
    params: tuple

    @classmethod
    def ball(cls, radius: float) -> "Domain":
        if not 0.0 < radius <= MAX_EXTENT:
            raise ValueError(f"ball radius must be positive and finite, at most "
                             f"{MAX_EXTENT:g}, got {radius}")
        return cls(SHAPE_BALL, (float(radius),))

    @classmethod
    def ellipse(cls, a_axis: float, b_axis: float) -> "Domain":
        if not MAX_EXTENT >= a_axis >= b_axis > 0.0:
            raise ValueError(f"ellipse needs finite a_axis >= b_axis > 0, at most "
                             f"{MAX_EXTENT:g}, got {a_axis}, {b_axis}")
        return cls(SHAPE_ELLIPSE, (float(a_axis), float(b_axis)))

    def check_dimension(self, n: int) -> None:
        """Raise ValueError unless the domain lies in R^n."""
        if self.shape == SHAPE_ELLIPSE and n != 2:
            raise ValueError(f"ellipse domains are planar: need n = 2, got n={n!r}")


@dataclass(frozen=True)
class CapSolution:
    """Umbilic spherical cap over a ball of radius R, built by
    make_cap_with_boundary_height.

    The Euclidean sphere has radius r, R/sqrt(1 - sigma^2) when the cap
    meets the rim at height 0, and center height c = -sigma r < 0; all
    hyperbolic principal curvatures equal sigma.
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

    @property
    def apex_height(self) -> float:
        return self.c + self.r


def make_cap_with_boundary_height(R: float, sigma: float, epsilon: float) -> CapSolution:
    """Umbilic cap with kappa = sigma everywhere and height epsilon at the
    rim |x| = R; smooth admissible solution of the epsilon-regularized
    Dirichlet problem for every normalized curvature function."""
    if R <= 0:
        raise ValueError("R must be positive")
    check_sigma(sigma)
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    q = 1.0 - sigma**2
    r = (epsilon * sigma + math.sqrt(epsilon**2 * sigma**2 + q * (R**2 + epsilon**2))) / q
    return CapSolution(R=R, sigma=sigma, r=r, c=-sigma * r)


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
