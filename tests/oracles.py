"""Oracles shared by the test modules.  No command runs them; each reaches
a quantity of the paper by a route of its own, for the tests to hold the
package's analytic or closed-form computation against:

- the shape operator of a graph in any dimension, its curvatures found by
  eigvalsh, for the cap, the horosphere and the radial and grid curvatures;
- the spectral extension F(A) = f(eigenvalues) with its gradient F^{ij},
  and the second contraction of F with its difference quotients;
- the sampled suprema of the two gradient assumptions (1.3) and (1.4);
- a condition report as text, for failure messages;
- the discrete check of lemma 2.1(ii) on radial solutions.
"""

import math
from dataclasses import dataclass

import numpy as np

from hyperplateau import solver, symfunc
from hyperplateau.errors import UnsupportedSolutionError
from hyperplateau.symfunc import CurvatureSpec

# ---------------------------------------------------------------------------
# Graph geometry


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
        raise ValueError(f"graph height must be positive, got {u}")
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


def cap_jet(cap, x) -> PointJet:
    """Jet of the cap (hypgeom.CapSolution) at a base point x (|x| < R), any
    dimension."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rho2 = float(x @ x)
    s = math.sqrt(cap.r**2 - rho2)
    u = cap.c + s
    Du = -x / s
    D2u = -(np.eye(x.shape[0]) / s + np.outer(x, x) / s**3)
    return hyperbolic_shape(u, Du, D2u)


def radial_jet(u: float, up: float, upp: float, rho: float, n: int = 2) -> PointJet:
    """Jet of a radially symmetric graph at distance rho from the axis,
    built in the radial-adapted frame.  At rho = 0 the tangential curvature
    uses the analytic limit u'(rho)/rho -> u''(0)."""
    if u <= 0.0:
        raise ValueError(f"graph height must be positive, got {u}")
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


# ---------------------------------------------------------------------------
# Matrix calculus of the curvature functions


def monotone_difference_quotients(spec: CurvatureSpec, kappa) -> np.ndarray:
    """Matrix of (f_i - f_j)/(kappa_i - kappa_j), i != j; diagonal is zero.

    Near-equal pairs use the analytic limit f_ii - f_ij so the matrix stays
    continuous across repeated principal curvatures.
    """
    arr = symfunc._as_kappa(kappa, spec.n)
    if arr.ndim != 1:
        raise ValueError("monotone_difference_quotients takes a single point")
    g = symfunc.grad_f(spec, arr)
    h = symfunc.hessian_f(spec, arr)
    n = spec.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dk = arr[i] - arr[j]
            if abs(dk) < 1e-8 * (1.0 + abs(arr[i])):
                out[i, j] = h[i, i] - h[i, j]
            else:
                out[i, j] = (g[i] - g[j]) / dk
    return out


def F_value_and_Fij(A, spec: CurvatureSpec):
    """Spectral extension F(A) = f(eigenvalues) and its gradient matrix F^{ij}.

    F^{ij} = sum_m f_m v_m v_m^T in the eigenbasis; well defined for repeated
    eigenvalues.
    """
    M = np.asarray(A, dtype=float)
    if M.shape != (spec.n, spec.n):
        raise ValueError(f"expected {spec.n}x{spec.n} matrix, got {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(M).max())):
        raise ValueError("matrix must be symmetric")
    lam, V = np.linalg.eigh(0.5 * (M + M.T))
    F = symfunc.eval_f(spec, lam)
    g = symfunc.grad_f(spec, lam)
    Fij = (V * g) @ V.T
    return F, 0.5 * (Fij + Fij.T)


def second_contraction(kappa, B, spec: CurvatureSpec) -> float:
    """Second directional derivative d^2/dt^2 F(diag(kappa) + tB) at t = 0:
    f_ij B_ii B_jj plus the off-diagonal difference-quotient sum."""
    arr = symfunc._as_kappa(kappa, spec.n)
    Bm = np.asarray(B, dtype=float)
    if Bm.shape != (spec.n, spec.n) or not np.allclose(Bm, Bm.T, atol=1e-12 * (1 + np.abs(Bm).max())):
        raise ValueError("B must be a symmetric n x n matrix")
    h = symfunc.hessian_f(spec, arr)
    q = monotone_difference_quotients(spec, arr)
    diag = np.diag(Bm)
    val = float(diag @ h @ diag)
    off = ~np.eye(spec.n, dtype=bool)
    val += float(np.sum(q[off] * (Bm**2)[off]))
    return val


# ---------------------------------------------------------------------------
# The gradient assumptions (1.3) and (1.4), sampled


def sup_gradient_sum(spec: CurvatureSpec, sample_count: int, seed: int) -> float:
    """Empirical supremum of sum_i f_i over K_k for f = H_k/H_{k-1}.

    Includes near-boundary refinement (the supremum k is approached as
    H_k -> 0); finite by construction and reproducible given the seed.
    """
    if spec.family != symfunc.CONSECUTIVE_QUOTIENT:
        raise ValueError("sup_gradient_sum applies to the consecutive quotient family")
    rng = np.random.default_rng(seed)
    samples = symfunc.sample_cone(spec.n, spec.k, sample_count, seed)
    m = max(1, sample_count // 10)
    deep = symfunc.push_toward_boundary(samples[:m].copy(), spec.k, rng, 1.0 - 1e-8)
    allpts = np.concatenate([samples, deep], axis=0)
    allpts = allpts[symfunc._in_cone(allpts, spec.cone_index)]
    sums = np.sum(symfunc.grad_f(spec, allpts), axis=-1)
    return float(np.max(sums))


def sup_ratio_assumption(spec: CurvatureSpec, sample_count: int, seed: int) -> float:
    """Empirical supremum of kappa_i f_i / f over samples of K_{k+1} and
    indices with kappa_i > 0; bounded by 1/(k-l)."""
    if spec.family not in (symfunc.GENERAL_QUOTIENT, symfunc.KTH_ROOT):
        raise ValueError("sup_ratio_assumption applies to quotient/root families on K_{k+1}")
    rng = np.random.default_rng(seed)
    samples = symfunc.sample_cone(spec.n, spec.required_cone, sample_count, seed)
    m = max(1, sample_count // 10)
    deep = symfunc.push_toward_boundary(samples[:m].copy(), spec.required_cone, rng, 1.0 - 1e-6)
    allpts = np.concatenate([samples, deep], axis=0)
    allpts = allpts[symfunc._in_cone(allpts, spec.required_cone)]
    f = symfunc.eval_f(spec, allpts)
    g = symfunc.grad_f(spec, allpts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(allpts > 0, allpts * g / f[:, None], -np.inf)
    return float(np.max(ratios))


def condition_text(report: symfunc.ConditionReport) -> str:
    """The condition report as text, one line per record."""
    lines = [f"condition report: {report.spec.describe()}  seed={report.seed}"]
    if report.cone_violations:
        lines.append(f"  cone violations: {report.cone_violations}  FAIL")
    for r in report.records:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"  ({r.condition})  samples={r.samples}  worst_margin={r.worst_margin:.3e}"
            f"  tol={r.tolerance:.1e}  {status}"
        )
    lines.append(f"  overall: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Lemma 2.1(ii)


def check_lemma21_ii(solution: solver.GraphSolution) -> float:
    """Discrete check of the surface-gradient identity for the vertical
    normal component along the radial principal direction:

        d(nu^{n+1})/ds = -(u_s/u) (kappa_radial - nu^{n+1})

    with s the hyperbolic arclength of the profile curve.  The left side is
    formed with first-order forward differences of the grid values, so the
    returned worst residual converges to zero at first order in the grid
    spacing.  Radial solutions only.
    """
    layout = solution.layout
    if not isinstance(layout, solver.RadialLayout):
        raise UnsupportedSolutionError("lemma check needs a radial solution")
    rho, u, w, nu = layout.rho, solution.u, solution.w, solution.nu_vertical
    up, _ = solver._radial_derivatives(u, rho[1] - rho[0])
    # forward difference in rho, converted to hyperbolic arclength via
    # ds = (w/u) drho; w and nu are given at the interior nodes 0..N-1, so
    # it is evaluated at nodes 1..N-2
    dnu = (nu[2:] - nu[1:-1]) / (rho[1] - rho[0])
    i = slice(1, len(nu) - 1)
    lhs = (u[i] / w[i]) * dnu
    rhs = -(up[i] / w[i]) * (solution.kappa[i, 0] - nu[i])
    return float(np.max(np.abs(lhs - rhs)))
