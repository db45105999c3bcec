"""Numerical instantiation of the curvature-estimate machinery: the gradient
estimate on solutions, the constants a, eta, lambda, theta, mu, M0 with their
index sets at the maximizer of the test function, and the standalone
algebraic sub-inequalities of the interior estimate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import symfunc
from .solver import GraphSolution

GRADIENT_TOL = 0.01


def eta_of(a):
    """Positive root of a eta^2 - 2 eta - 2 = 0, elementwise for an array."""
    if np.any(a <= 0):
        raise ValueError("a must be positive")
    return (1.0 + np.sqrt(1.0 + 2.0 * a)) / a


def theta_window(a, lam):
    """The admissible interval [lower, upper) for theta, elementwise for
    arrays; nonempty (with theta > 0) exactly when lower > 0, i.e. lambda <
    a^2/(8 - a^2).  fmin, as min(1.0, x), keeps upper = 1.0 at x = NaN."""
    lower = a**2 / 8.0 + lam * (a**2 / 8.0 - 1.0)
    upper = np.fmin(1.0, a**2 / 4.0 + lam * (a**2 / 4.0 - 1.0))
    return lower, upper, (lower > 0.0) & (lower < upper)


def _window_threshold(a, eta):
    """The kappa1 above which the theta window at lambda = eta/kappa1 is nonempty."""
    return eta * (8.0 - a**2) / a**2


@dataclass
class EstimateConstants:
    a: float
    eta: float
    kappa1: float
    lam: float
    theta: float | None
    mu: float | None
    M0: float
    x0_index: int
    window: tuple
    window_empty: bool
    kappa1_threshold: float  # window nonempty iff kappa1 > this
    boundary_attained: bool

    def to_dict(self) -> dict:
        """Every field, with lam written as "lambda" and window as the list
        "theta_window"."""
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        out["theta_window"] = list(out.pop("window"))
        return out


@dataclass
class IndexSets:
    J: list
    L: list
    Neg: list


def gradient_estimate_check(solution: GraphSolution):
    """(min nu_vertical over interior nodes, pass); pass iff the minimum is
    at least sigma - GRADIENT_TOL."""
    min_nu = solution.summary()[1]
    return min_nu, min_nu >= solution.sigma - GRADIENT_TOL


def estimate_constants(solution: GraphSolution):
    """Constants of the interior curvature estimate, evaluated at the grid
    maximizer of kappa_max/(nu_vertical - a) over the solution's nodes,
    every one interior, with a = (min nu_vertical)/2; x0_index numbers the
    maximizer among them.

    When the maximizer touches a Dirichlet node the interior analysis does
    not apply; the result is labelled boundary_attained rather than
    silently reinterpreted.  theta is the midpoint of its window; when the
    window is empty, theta and mu are None and the kappa1 threshold for
    nonemptiness is reported.
    """
    kappa, nu = solution.kappa, solution.nu_vertical
    min_nu = float(np.min(nu))
    if min_nu <= 0.0:
        raise ValueError("estimate constants need min nu_vertical > 0")
    a = min_nu / 2.0
    kmax = np.max(kappa, axis=-1)
    test = kmax / (nu - a)
    i0 = int(np.argmax(test))
    M0 = float(test[i0])
    kappa1 = float(kmax[i0])
    eta = eta_of(a)
    lam = eta / kappa1
    lower, upper, nonempty = theta_window(a, lam)
    threshold = _window_threshold(a, eta)
    theta = mu = None
    if nonempty:
        theta = 0.5 * (lower + upper)
        mu = (theta + lam) / (1.0 + lam)

    consts = EstimateConstants(
        a=a, eta=eta, kappa1=kappa1, lam=lam, theta=theta, mu=mu, M0=M0,
        x0_index=i0, window=(lower, upper), window_empty=not nonempty,
        kappa1_threshold=threshold, boundary_attained=bool(solution.layout.touches_boundary[i0]),
    )
    sets = index_sets(np.asarray(kappa[i0], dtype=float), float(nu[i0]),
                      eta, theta, solution.spec)
    return consts, sets


def index_sets(kappa: np.ndarray, nu_vertical: float, eta: float,
               theta: float | None, spec: symfunc.CurvatureSpec) -> IndexSets:
    """Partition of the indices at one point: Neg collects kappa_i <= -eta;
    the rest of {-eta < kappa_i < nu_vertical} splits into J (theta f_i < f_1)
    and L (theta f_i >= f_1)."""
    g = np.atleast_2d(symfunc.grad_f(spec, kappa, check_cone=False))[0]
    f1 = g[int(np.argmax(kappa))]
    J, L, Neg = [], [], []
    for i, (k, fi) in enumerate(zip(kappa, g)):
        if k <= -eta:
            Neg.append(i)
        elif k < nu_vertical:
            if theta is not None and theta * fi >= f1:
                L.append(i)
            else:
                J.append(i)
    return IndexSets(J=J, L=L, Neg=Neg)


def algebraic_subinequalities(samples: int, seed: int) -> dict:
    """Property report over random draws for the four algebraic ingredients
    of the interior estimate plus the exact-root identity for eta.

    (i)   a in (0, 1/2], kappa <= -eta(a):  a kappa^2 + 2 kappa - 2 >= 0.
    (ii)  a in (0, 1/2], nu in [2a, 1], kappa in the window (-eta, nu] where
          the L-sum applies it:
          (a - 2mu/a) kappa^2 + (4mu/a) kappa nu + a - (2mu/a) nu^2
          >= (a/2) kappa^2 + a^2 kappa + a/2 > 0.
          The difference of the two sides is a quadratic in kappa whose
          discriminant is (a^2-1)(1-4t) + 4t(nu-a)^2 with mu = t a^2; it is
          nonpositive for every kappa exactly when
          t <= t* = (1-a^2)/(4[(nu-a)^2 + 1-a^2]), and 1/8 <= t* <= 1/4 on
          the stated (a, nu) ranges.  The estimate only needs one admissible
          mu, and the lower endpoint mu = a^2/8 always qualifies; mu is
          therefore sampled from [a^2/8, t* a^2] (the upper end a^2/4 of the
          nominal window admits counterexamples for negative kappa).
    (iii) discriminant a^4 - a^2 < 0 for a in (0, 1).
    (iv)  theta_window's nonemptiness verdict iff kappa1 > eta (8 - a^2)/a^2.
    """
    rng = np.random.default_rng(seed)
    report = {"samples": int(samples), "seed": int(seed), "checks": {}}

    def record(name, margins):
        margins = np.asarray(margins, dtype=float)
        report["checks"][name] = {
            "violations": int(np.sum(margins < 0.0)),
            "worst_margin": float(np.min(margins)),
        }

    a = rng.uniform(1e-3, 0.5, samples)
    eta = eta_of(a)

    # exact-root identity
    root_residual = float(np.max(np.abs(a * eta**2 - 2.0 * eta - 2.0)))
    report["root_identity_residual"] = root_residual

    # each check below runs as its draws arrive, and drops its arrays after
    # their last use; only a and eta live through all of them

    # (i): summand positivity at kappa <= -eta
    kap = -eta
    kap -= rng.exponential(5.0, samples)
    record("summand_positive", a * kap**2 + 2.0 * kap - 2.0)
    del kap

    # (ii): the mu-window quadratic bound, both inequalities; mu is drawn
    # from [1/8, t*] and scaled by a^2 in place
    nu = rng.uniform(2.0 * a, 1.0)
    mu = rng.uniform(1.0 / 8.0, (1.0 - a**2) / (4.0 * ((nu - a) ** 2 + 1.0 - a**2)))
    mu *= a**2
    kap2 = rng.uniform(-eta, nu)
    lhs = (a - 2.0 * mu / a) * kap2**2 + (4.0 * mu / a) * kap2 * nu \
        + a - (2.0 * mu / a) * nu**2
    del mu, nu
    mid = 0.5 * a * kap2**2 + a**2 * kap2 + 0.5 * a
    del kap2
    lhs -= mid
    record("mu_window_reduction", lhs)
    del lhs
    record("reduced_quadratic_positive", mid)
    del mid

    # (iii): negative discriminant
    a3 = rng.uniform(1e-6, 1.0 - 1e-12, samples)
    record("negative_discriminant", -(a3**4 - a3**2))
    del a3

    # (iv): window nonemptiness criterion
    kappa1 = rng.exponential(200.0, samples)
    kappa1 += 1e-6
    nonempty = theta_window(a, eta / kappa1)[2]
    criterion = kappa1 > _window_threshold(a, eta)
    report["checks"]["window_criterion"] = {
        "violations": int(np.sum(nonempty != criterion)),
        "worst_margin": 0.0 if np.all(nonempty == criterion) else -1.0,
    }

    report["passed"] = (
        all(c["violations"] == 0 for c in report["checks"].values())
        and root_residual <= 1e-10
    )
    return report
