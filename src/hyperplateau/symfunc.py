"""Normalized elementary symmetric polynomials, Garding cones and the three
curvature-function families H_k/H_{k-1}, (H_k/H_l)^{1/(k-l)}, H_k^{1/k}.

All point-wise operations are vectorized over a leading batch axis: a
"kappa" argument may be shaped (n,) or (..., n).  Values, gradients and
Hessians are analytic (no finite differences anywhere in this module).

f, its gradient and its Hessian come from one pass (_derivatives), of
which eval_f, grad_f, hessian_f and check_conditions each make one call.
It checks kappa once and copies it once to component-major order, shape
(n, points), where each elementary symmetric table is built once by the
prefix recurrence, only up to the highest order read: the cone index for
membership, k for f, k-1 and l-1 for the n tables of the gradient (leaving
one component out), k-2 and l-2 for those of the Hessian (leaving two
out).  Each entry is bitwise that of the full row-major table, and the
cone test is read from the table of f (check_table).  f_of_table and
df_of_table give f and its partials in e_0..e_k from any table, such as
the grid path's (1, tr A, det A) or pair_table's closed-form table of a
vector with all but one component equal, such as the radial path's
curvatures (kappa_rad, kappa_tan, ..., kappa_tan).

The cone sampler works on arrays it built itself and tests membership
without re-checking them.  K_n is the positive orthant, so the sampler
tests it by the signs of the components; on the points it draws this is
bitwise the verdict of the table (see _member).  cone_contains and the
cone check of the pass keep the table rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AdmissibilityError

CONSECUTIVE_QUOTIENT = "consecutive_quotient"
GENERAL_QUOTIENT = "general_quotient"
KTH_ROOT = "kth_root"


@dataclass(frozen=True)
class CurvatureSpec:
    """One member of the three curvature-function families.

    Every family is of the form f = (H_k / H_l)^(1/(k-l)) with H_0 = 1:
    the consecutive quotient has l = k-1, the k-th root has l = 0.
    ``cone_index`` is the Garding cone K_j used for admissibility checks;
    direct construction is unvalidated on purpose (negative controls), use
    the classmethods for checked construction.
    """

    family: str
    n: int
    k: int
    l: int
    cone_index: int

    @classmethod
    def consecutive_quotient(cls, k: int, n: int) -> "CurvatureSpec":
        if not (2 <= n and 1 <= k <= n):
            raise ValueError(f"consecutive quotient needs 1 <= k <= n, n >= 2; got k={k}, n={n}")
        return cls(CONSECUTIVE_QUOTIENT, n, k, k - 1, k)

    @classmethod
    def general_quotient(cls, k: int, l: int, n: int) -> "CurvatureSpec":
        if not (2 <= n and 1 <= l < k <= n):
            raise ValueError(f"general quotient needs 1 <= l < k <= n, n >= 2; got k={k}, l={l}, n={n}")
        return cls(GENERAL_QUOTIENT, n, k, l, min(k + 1, n))

    @classmethod
    def kth_root(cls, k: int, n: int) -> "CurvatureSpec":
        if not (2 <= n and 1 <= k <= n):
            raise ValueError(f"k-th root needs 1 <= k <= n, n >= 2; got k={k}, n={n}")
        return cls(KTH_ROOT, n, k, 0, min(k + 1, n))

    @property
    def power(self) -> float:
        """Outer exponent 1/(k-l)."""
        return 1.0 / (self.k - self.l)

    @property
    def required_cone(self) -> int:
        """Smallest cone index in which the family is admissible."""
        if self.family == CONSECUTIVE_QUOTIENT:
            return self.k
        return min(self.k + 1, self.n)

    @property
    def vanishing_cone(self) -> int:
        """Cone K_k on whose boundary f vanishes (H_k -> 0)."""
        return self.k

    def describe(self) -> str:
        if self.family == CONSECUTIVE_QUOTIENT:
            name = f"H_{self.k}/H_{self.k - 1}"
        elif self.family == KTH_ROOT:
            name = f"H_{self.k}^(1/{self.k})"
        else:
            name = f"(H_{self.k}/H_{self.l})^(1/{self.k - self.l})"
        return f"{name} on K_{self.cone_index}, n={self.n}"


def _as_kappa(kappa, n: int | None = None) -> np.ndarray:
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ValueError("kappa must have at least 2 entries along the last axis")
    if not np.all(np.isfinite(arr)):
        raise ValueError("kappa entries must be finite")
    if n is not None and arr.shape[-1] != n:
        raise ValueError(f"kappa has {arr.shape[-1]} entries, spec expects n={n}")
    return arr


def _columns(arr: np.ndarray) -> np.ndarray:
    """Component-major copy of a (..., n) batch: shape (n, points), one
    contiguous row per component."""
    n = arr.shape[-1]
    return np.ascontiguousarray(arr.reshape(-1, n).T)


def _batch(values: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Component-major values, shape (..., points), back in the layout of
    the (..., n) batch `arr`: points first, C-contiguous."""
    out = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    return out.reshape(arr.shape[:-1] + values.shape[:-1])


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def _per_point(values: np.ndarray, arr: np.ndarray):
    """Per-point values (points,) of the batch `arr`; a numpy scalar when
    `arr` is a single point.  numpy's scalar power (libm's pow) and its
    vectorized array power can differ in the last bit, and a single point
    takes the scalar one."""
    return values[0] if arr.ndim == 1 else values


def _esym_rows(cols: np.ndarray, order: int, rows=None) -> np.ndarray:
    """e_0..e_order of the components `rows` (default: all; in increasing
    index order) of a component-major batch, shape (order+1, points); the
    input is not checked.

    Single-pass prefix recurrence e_j += kappa_i e_{j-1}, cut at `order`:
    every e_j it returns gets the same operations in the same order as in
    the full table, so neither the cut nor the left-out components change a
    bit of it.  The product with e_0 = 1 is exact and is skipped.
    """
    if rows is None:
        rows = range(cols.shape[0])
    e = np.zeros((order + 1, cols.shape[1]))
    e[0] = 1.0
    term = np.empty(cols.shape[1])
    for step, i in enumerate(rows):
        for j in range(min(step + 1, order), 1, -1):
            np.multiply(cols[i], e[j - 1], out=term)
            e[j] += term
        if order:
            e[1] += cols[i]
    return e


def _positive(e: np.ndarray, k: int) -> np.ndarray:
    """Membership in K_k from a table holding e_0..e_k (at least)."""
    return np.all(e[1 : k + 1] > 0.0, axis=0)


def _member(cols: np.ndarray, k: int) -> np.ndarray:
    """Unchecked membership in K_k of a component-major batch (n, points)
    of sampler points: by the signs of the components for K_n, the positive
    orthant, and by the e-table otherwise.

    On the sampler's points the sign rule is bitwise the table rule.  Box
    draws are 0 or at least ~4e-16 in magnitude, and the points built from
    them by bisection and by pushing toward the boundary stay far above the
    underflow threshold, so no rounded product of components flushes to 0,
    and a rounded product of nonzero floats keeps its exact sign.  With all
    components positive every table entry is a sum of positive products;
    with a zero component e_n is +-0; with an odd number of negative ones
    e_n < 0.  With an even number some e_j, j < n, is negative (Descartes'
    rule of signs) by far more than its rounding error.  Over the 28
    condition-suite families (n <= 4) at sample seeds 0-2, the smallest
    nonzero component tested is 1e-22, and that e_j is at least 0.27 of
    the sum of its terms' magnitudes.  tests/test_symfunc.py compares the
    two rules on draws, bisection midpoints and signed zeros."""
    if k == cols.shape[0]:
        ok = cols[0] > 0.0
        for c in cols[1:]:
            ok &= c > 0.0
        return ok
    return _positive(_esym_rows(cols, k), k)


def _in_cone(points: np.ndarray, k: int) -> np.ndarray:
    """Unchecked membership in K_k of an (m, n) batch of sampler points (see
    _member).  The sign test of K_n reads the columns of the row-major batch
    in place; the other cones build their table on a component-major copy."""
    return _member(points.T if k == points.shape[-1] else _columns(points), k)


def _binoms(n: int) -> np.ndarray:
    return np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)


def _check_cone_index(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} out of range 1..{n}")


def cone_contains(kappa, k: int):
    """Strict membership in the Garding cone K_k = {H_j > 0, 1 <= j <= k}."""
    arr = _as_kappa(kappa)
    _check_cone_index(k, arr.shape[-1])
    ok = _positive(_esym_rows(_columns(arr), k), k).reshape(arr.shape[:-1])
    return bool(ok) if ok.ndim == 0 else ok


def check_table(spec: CurvatureSpec, e: np.ndarray) -> None:
    """Raise AdmissibilityError with the flat indices of the points outside
    K_{cone_index}, from a table holding e_0..e_{cone_index} (at least)."""
    bad = np.flatnonzero(~_positive(e, spec.cone_index))
    if bad.size:
        raise AdmissibilityError(
            f"{bad.size} point(s) outside K_{spec.cone_index} for {spec.describe()}", bad)


def f_of_table(spec: CurvatureSpec, e: np.ndarray):
    """f = ((e_k/C(n,k))/(e_l/C(n,l)))^p per point from a component-major
    table holding e_0..e_k, unchecked; NaN where p != 1 and the quotient is
    not positive.  A one-point table, shape (rows,), keeps numpy's scalar
    power (see _per_point)."""
    n, k, l = spec.n, spec.k, spec.l
    g = (e[k] / math.comb(n, k)) / (e[l] / math.comb(n, l))
    if spec.power == 1.0:
        return g
    with np.errstate(invalid="ignore"):
        return np.where(g > 0, np.abs(g) ** spec.power, np.nan)


def df_of_table(spec: CurvatureSpec, e: np.ndarray, f) -> np.ndarray:
    """Partials of f_of_table in the rows of the table, inside K_k, given f
    = f_of_table(spec, e): as f = (H_k/H_l)^p, df = p f (de_k/e_k -
    de_l/e_l), and the other rows are 0."""
    pf = spec.power * f
    out = np.zeros_like(e)
    out[spec.k] = pf / e[spec.k]
    if spec.l:
        out[spec.l] = -pf / e[spec.l]
    return out


def pair_table(r, t, m: int, order: int) -> np.ndarray:
    """e_0..e_order of the vector (r, t, ..., t) with m copies of t, shape
    (order+1, points), by the closed form

        e_j = C(m, j) t^j + C(m, j-1) r t^(j-1) = (C(m, j) t + C(m, j-1) r) t^(j-1),

    unchecked.  Its partials follow from it: de_j/dr = C(m, j-1) t^(j-1),
    which is e_{j-1} of (t, t, ..., t) = pair_table(t, t, m-1, ...), and
    the sum of de_j/dkappa_i over the m copies of t is m e_{j-1} of (r, t,
    ..., t) with m-1 copies, m pair_table(r, t, m-1, ...)."""
    t = np.asarray(t, dtype=float)
    e = np.empty((order + 1,) + t.shape)
    e[0] = 1.0
    power = None  # t^(j-1) from j = 2 on
    for j in range(1, order + 1):
        row = np.multiply(t, math.comb(m, j), out=e[j])
        row += r if j == 1 else math.comb(m, j - 1) * r
        if j > 1:
            power = t if power is None else power * t
            row *= power
    return e


def _derivatives(spec: CurvatureSpec, kappa, order: int, check_cone: bool):
    """(f,) of the batch kappa, with order 1 (f, gradient), with order 2
    (f, gradient, Hessian); see eval_f, grad_f and hessian_f.  The
    derivative of e_q in component i is e_{q-1} of the other components,
    its second derivative in i != j e_{q-2} of the components other than i
    and j, and 0 in i = j.  The Hessian is built points-major: each entry i <= j is
    computed over the points, written to [:, i, j] and [:, j, i], and gets
    the operations of the matrix formula

        g_ij = H_k,ij/H_l - (H_k,i H_l,j + H_k,j H_l,i)/H_l^2
               - H_k H_l,ij/H_l^2 + 2 H_k H_l,i H_l,j/H_l^3,
        f_ij = p(p-1) g^(p-2) g_i g_j + p g^(p-1) g_ij   (g = H_k/H_l, p != 1),

    in this order; it is symmetric bit for bit, since + and * commute."""
    arr = _as_kappa(kappa, spec.n)
    cols = _columns(arr)
    n, k, l, p = spec.n, spec.k, spec.l, spec.power
    e = _esym_rows(cols, max(k, spec.cone_index) if check_cone else k)
    if check_cone:
        check_table(spec, e)
    f = _scalar(np.reshape(f_of_table(spec, e[:, 0] if arr.ndim == 1 else e), arr.shape[:-1]))
    if order == 0:
        return (f,)
    binom = _binoms(n)
    Hk = _per_point(e[k] / binom[k], arr)
    Hl = _per_point(e[l] / binom[l], arr)
    dHk = np.empty(cols.shape)
    dHl = np.zeros(cols.shape)
    for i in range(n):
        rest = _esym_rows(cols, k - 1, [r for r in range(n) if r != i])
        dHk[i] = rest[k - 1] / binom[k]
        if l >= 1:
            dHl[i] = rest[l - 1] / binom[l]
    gi = (dHk * Hl - Hk * dHl) / Hl**2
    fi = gi
    if p != 1.0:
        with np.errstate(invalid="ignore"):
            scale = p * np.abs(Hk / Hl) ** (p - 1.0)
        fi = scale * gi
    grad = _batch(fi, arr)
    if order == 1:
        return f, grad
    # the powers of the matrix terms are array powers, for a single point too
    Hk_, Hl_ = np.atleast_1d(Hk), np.atleast_1d(Hl)
    Hl2, Hl3, twoHk = Hl_**2, Hl_**3, 2.0 * Hk_
    if p != 1.0:
        g_ = np.atleast_1d(np.abs(Hk / Hl))
        c2, c1 = p * (p - 1.0) * g_ ** (p - 2.0), p * g_ ** (p - 1.0)
    zero = np.zeros(cols.shape[1])
    out = np.empty((cols.shape[1], n, n))
    for i in range(n):
        for j in range(i, n):
            d2k = d2l = zero
            if i != j and k >= 2:
                rest = _esym_rows(cols, k - 2, [r for r in range(n) if r != i and r != j])
                d2k = rest[k - 2] / binom[k]
                if l >= 2:
                    d2l = rest[l - 2] / binom[l]
            gij = (
                d2k / Hl_
                - (dHk[i] * dHl[j] + dHk[j] * dHl[i]) / Hl2
                - Hk_ * d2l / Hl2
                + twoHk * (dHl[i] * dHl[j]) / Hl3
            )
            if p != 1.0:
                gij = c2 * (gi[i] * gi[j]) + c1 * gij
            out[:, i, j] = out[:, j, i] = gij
    return f, grad, out.reshape(arr.shape[:-1] + (n, n))


def eval_f(spec: CurvatureSpec, kappa, check_cone: bool = True):
    """Value of the curvature function; degree-1 homogeneous, f(1,...,1) = 1.
    With check_cone, a point outside K_{cone_index} raises AdmissibilityError
    listing the flat indices of every such point."""
    return _derivatives(spec, kappa, 0, check_cone)[0]


def grad_f(spec: CurvatureSpec, kappa, check_cone: bool = True):
    """Analytic gradient (f_1, ..., f_n); strictly positive on the cone."""
    return _derivatives(spec, kappa, 1, check_cone)[1]


def hessian_f(spec: CurvatureSpec, kappa, check_cone: bool = True):
    """Analytic Hessian (..., n, n); negative semidefinite on the cone with
    the radial direction kappa as a null direction (see _derivatives)."""
    return _derivatives(spec, kappa, 2, check_cone)[2]


# ---------------------------------------------------------------------------
# Cone sampling

# draws from [-SAMPLE_BOX, SAMPLE_BOX]^n; BOUNDARY_FRACTION pushed toward the boundary
SAMPLE_BOX, BOUNDARY_FRACTION, BISECTION_STEPS = 3.0, 0.2, 60
# the largest n the sampler takes: a box draw lands in the top cone K_n, the
# positive orthant, about once in 2^n draws, so at n = 16 the 10 000 rounds
# of _draw_in_cone ran out after about 5 s
MAX_DIMENSION = 8


def _draw_in_cone(rng, n: int, cone_index: int, count: int) -> np.ndarray:
    got = []
    have = 0
    for _ in range(10_000):
        cand = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(max(4 * count, 256), n))
        keep = cand[_in_cone(cand, cone_index)]
        if keep.size:
            got.append(keep)
            have += keep.shape[0]
        if have >= count:
            break
    else:
        raise RuntimeError(f"cone sampler failed to fill K_{cone_index} in R^{n}")
    return np.concatenate(got, axis=0)[:count]


def _exterior_points(rng, m: int, n: int, cone_index: int) -> np.ndarray:
    out = np.empty((m, n))
    need = np.ones(m, dtype=bool)
    for _ in range(10_000):
        if not need.any():
            return out
        cand = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(int(need.sum()), n))
        ext = ~_in_cone(cand, cone_index)
        idx = np.flatnonzero(need)[ext]
        out[idx] = cand[ext]
        need[idx] = False
    raise RuntimeError("could not find exterior directions")


def boundary_points(rng, inside: np.ndarray, cone_index: int) -> np.ndarray:
    """For each interior point, a boundary point of K_{cone_index} found by
    bisection along a segment toward a random exterior point.  The bisection
    runs on component-major copies of the segment ends and tests each
    midpoint with _member: by its signs on K_n, by its e-table otherwise."""
    inside = np.atleast_2d(_as_kappa(inside))
    m, n = inside.shape
    _check_cone_index(cone_index, n)
    lo = _columns(inside)
    hi = _columns(_exterior_points(rng, m, n, cone_index))
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        ok = _member(mid, cone_index)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return np.ascontiguousarray((0.5 * (lo + hi)).T)


def push_toward_boundary(samples: np.ndarray, cone_index: int, rng, t) -> np.ndarray:
    """Move each sample toward a boundary point of K_{cone_index}: result is
    a + t(b - a) with b on the boundary; t close to 1 means nearly degenerate."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (samples.shape[0],))
    b = boundary_points(rng, samples, cone_index)
    cand = samples + t[:, None] * (b - samples)
    ok = _in_cone(_as_kappa(cand), cone_index)
    return np.where(ok[:, None], cand, samples)


def sample_cone(n: int, cone_index: int, count: int, seed: int) -> np.ndarray:
    """Rejection sampling of K_{cone_index} from the box (see SAMPLE_BOX), with
    a fraction of points scaled toward sampled boundary points for coverage
    of the near-degenerate region.  Deterministic given seed.  Raises
    ValueError for n above MAX_DIMENSION, before drawing."""
    if n > MAX_DIMENSION:
        raise ValueError(f"n must be at most {MAX_DIMENSION}, got {n}")
    _check_cone_index(cone_index, n)
    rng = np.random.default_rng(seed)
    samples = _draw_in_cone(rng, n, cone_index, count)
    m = int(BOUNDARY_FRACTION * count)
    if m:
        idx = rng.choice(count, size=m, replace=False)
        t = rng.uniform(0.9, 0.999, size=m)
        samples[idx] = push_toward_boundary(samples[idx], cone_index, rng, t)
    return samples


# ---------------------------------------------------------------------------
# Structural conditions (2.1)-(2.6) and the partial-derivative assumptions


@dataclass
class ConditionRecord:
    condition: str
    samples: int
    worst_margin: float
    tolerance: float
    passed: bool


@dataclass
class ConditionReport:
    spec: CurvatureSpec
    seed: int
    sample_count: int
    cone_violations: int
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.cone_violations == 0 and all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        """Every field, the spec as its description, and the verdict."""
        return {**asdict(self), "spec": self.spec.describe(), "passed": self.passed}


# Round-off allowance of condition 2.2, in units of n * eps * max|H_ij| per
# sample.  Over sample seeds 0..399 (1e4 samples) of the five root-power
# families on K_n, n = 3, 4, the computed largest eigenvalue above 1e-8 is at
# most 0.16 of a unit, at max|H_ij| up to 3e9.
CONCAVITY_ROUNDOFF = 1.0


def check_conditions(spec: CurvatureSpec, sample_count: int, seed: int) -> ConditionReport:
    """Sampled verification of ellipticity, concavity, boundary vanishing,
    normalization, homogeneity and the large-entry lower bound, plus the
    partial-derivative assumption relevant to the family.  Failures are
    recorded, never raised."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    # the draws of conditions 2.3, 2.5 and 2.6 come from a stream of their
    # own: sample_cone seeds default_rng(seed), whose first draws would
    # otherwise be the boundary targets of 2.3 again
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = spec.n
    samples = sample_cone(n, spec.cone_index, sample_count, seed)
    ok = _in_cone(samples, spec.required_cone)
    violations = int(np.size(ok) - np.count_nonzero(ok))
    valid = samples[ok]
    report = ConditionReport(spec, seed, sample_count, violations)

    if valid.shape[0] == 0:
        report.records.append(ConditionRecord("2.1", 0, float("-inf"), 1e-9, False))
        return report

    f, g, h = _derivatives(spec, valid, 2, check_cone=False)
    m = valid.shape[0]

    # (2.1) ellipticity: every partial derivative strictly positive
    margin = float(np.min(g))
    report.records.append(ConditionRecord("2.1", m, margin, 1e-9, margin >= -1e-9))

    # (2.2) concavity: Hessian eigenvalues below tolerance.  The largest is
    # 0, along the radial direction, and is computed with a round-off that
    # grows with the Hessian towards the cone boundary; the margin is net of
    # each sample's round-off allowance CONCAVITY_ROUNDOFF * n * eps * max|H|
    lam_max = np.linalg.eigvalsh(h)[:, -1]
    allowance = CONCAVITY_ROUNDOFF * n * np.finfo(float).eps * np.max(np.abs(h), axis=(-2, -1))
    margin = float(np.min(allowance - lam_max))
    report.records.append(ConditionRecord("2.2", m, margin, 1e-8, margin >= -1e-8))

    # (2.3) positivity inside, decay to zero along rays to the boundary of
    # the vanishing cone K_k (where H_k -> 0).  Boundary targets are kept to
    # the generic stratum H_k = 0, H_j > 0 for j < k; on lower strata the
    # quotient families need not extend continuously by zero.
    margin = float(np.min(f))
    pool = valid[: min(4 * 32, m)]
    b = boundary_points(rng, pool, spec.vanishing_cone)
    if spec.k > 1:
        e_b = _esym_rows(_columns(b), spec.k - 1)
        generic = np.all(e_b[1:] > 1e-2, axis=0)
    else:
        generic = np.ones(b.shape[0], dtype=bool)
    b, a = b[generic][:32], pool[generic][:32]
    if a.shape[0]:
        # the four ray distances and, as a fifth slice, the pool points a
        dists = (1e-3, 1e-6, 1e-9, 1e-12)
        rays = b + np.array(dists)[:, None, None] * (a - b)
        vals = eval_f(spec, np.concatenate([rays, a[None]]), check_cone=False)
        vals, fa = vals[:-1], vals[-1]
        if np.any(np.isnan(vals)):
            margin = -1.0
        else:
            # decay to (near) zero, monotone over the asymptotic distances
            margin = min(margin, float(np.min(vals[1:-1] - vals[2:] + 1e-12)))
            margin = min(margin, float(np.min(0.01 * (1.0 + fa) - vals[-1])))
    report.records.append(ConditionRecord("2.3", m, margin, 1e-9, margin >= -1e-9))

    # (2.4) normalization f(1,...,1) = 1
    err = abs(eval_f(spec, np.ones(n), check_cone=False) - 1.0)
    report.records.append(ConditionRecord("2.4", 1, -err, 1e-9, err <= 1e-9))

    # (2.5) degree-1 homogeneity
    t = rng.uniform(0.1, 10.0, size=m)
    ft = eval_f(spec, valid * t[:, None], check_cone=False)
    rel = np.abs(ft - t * f) / (1.0 + np.abs(t * f))
    margin = float(-np.max(rel))
    report.records.append(ConditionRecord("2.5", m, margin, 1e-9, margin >= -1e-9))

    # (2.6) uniform lower bound after a large last entry, near (1,...,1)
    eps0, delta0, big = 0.1, 0.1, 1e3
    m6 = min(1000, sample_count)
    dirs = rng.normal(size=(m6, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lam = np.ones(n) + rng.uniform(0.0, delta0, size=(m6, 1)) * dirs
    lam_shift = lam.copy()
    lam_shift[:, -1] += big
    fshift = eval_f(spec, lam_shift, check_cone=False)
    margin = float(np.min(fshift - (1.0 + eps0)))
    report.records.append(ConditionRecord("2.6", m6, margin, 1e-9, margin >= -1e-9))

    # family-specific partial-derivative assumption
    if spec.family == CONSECUTIVE_QUOTIENT:
        bound = float(max(spec.k, n - spec.k + 1))
        margin = float(bound - np.max(np.sum(g, axis=-1)))
        report.records.append(ConditionRecord("1.3", m, margin, 1e-8, margin >= -1e-8))
    else:
        pos = valid > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(pos, valid * g / f[:, None], -np.inf)
        margin = float(1.0 / (spec.k - spec.l) - np.max(ratios))
        report.records.append(ConditionRecord("1.4", m, margin, 1e-8, margin >= -1e-8))

    return report
