"""Unit and property tests for the symmetric-function calculus."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperplateau import symfunc
from hyperplateau.errors import AdmissibilityError
from hyperplateau.symfunc import CurvatureSpec

import oracles


def esym_bruteforce(kappa, k):
    """Subset-enumeration oracle for e_k; independent of the recurrence."""
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(kappa, k))


def esym_table(kappa) -> np.ndarray:
    """All unnormalized elementary symmetric values e_0..e_n, shape (..., n+1),
    from the package's component-major recurrence."""
    arr = symfunc._as_kappa(kappa)
    return symfunc._batch(symfunc._esym_rows(symfunc._columns(arr), arr.shape[-1]), arr)


def _order_k(kappa, k: int):
    """n and e_k of a checked kappa, shaped like its batch."""
    arr = symfunc._as_kappa(kappa)
    n = arr.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range 0..{n}")
    return n, symfunc._esym_rows(symfunc._columns(arr), k)[k].reshape(arr.shape[:-1])


def elementary_symmetric(kappa, k: int):
    """Unnormalized e_k(kappa); e_0 = 1."""
    _, ek = _order_k(kappa, k)
    return symfunc._scalar(ek)


def normalized_Hk(kappa, k: int):
    """H_k = e_k / binom(n, k), so H_k(1,...,1) = 1."""
    n, ek = _order_k(kappa, k)
    return symfunc._scalar(ek / math.comb(n, k))


class TestElementarySymmetric:
    def test_worked_examples(self):
        assert elementary_symmetric([1, 2, 3], 1) == 6
        assert elementary_symmetric([1, 2, 3], 2) == 11
        assert elementary_symmetric([1, 2, 3], 3) == 6
        assert elementary_symmetric([1, 2, 3], 0) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], -1)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, kappa):
        for k in range(len(kappa) + 1):
            got = elementary_symmetric(kappa, k)
            want = esym_bruteforce(kappa, k)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-9)

    def test_normalized_examples(self):
        assert normalized_Hk([3, 1], 1) == 2
        assert normalized_Hk([2, 2], 2) == 4
        for n in range(2, 6):
            ones = np.ones(n)
            for k in range(n + 1):
                assert normalized_Hk(ones, k) == pytest.approx(1.0)


def esym_prefix_rowmajor(arr):
    """Oracle for the component-major tables: the row-major prefix
    recurrence they replaced, e_0..e_m along the last axis, untruncated."""
    m = arr.shape[-1]
    e = np.zeros(arr.shape[:-1] + (m + 1,))
    e[..., 0] = 1.0
    for i in range(m):
        for j in range(i + 1, 0, -1):
            e[..., j] += arr[..., i] * e[..., j - 1]
    return e


def cone_rowmajor(arr, k):
    return np.all(esym_prefix_rowmajor(arr)[..., 1 : k + 1] > 0.0, axis=-1)


def boundary_points_rowmajor(rng, inside, k, box=3.0, iters=60):
    """Oracle for symfunc.boundary_points: the row-major bisection with
    masked assignment it replaced, drawing the same exterior points."""
    inside = np.atleast_2d(np.asarray(inside, dtype=float))
    m, n = inside.shape
    hi = np.empty((m, n))
    need = np.ones(m, dtype=bool)
    while need.any():
        cand = rng.uniform(-box, box, size=(int(need.sum()), n))
        ext = ~cone_rowmajor(cand, k)
        idx = np.flatnonzero(need)[ext]
        hi[idx] = cand[ext]
        need[idx] = False
    lo = inside.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = cone_rowmajor(mid, k)
        lo[ok] = mid[ok]
        hi[~ok] = mid[~ok]
    return 0.5 * (lo + hi)


def oracle_batches(n, seed):
    """A single point, an (a, b, n) batch and a near-boundary batch of
    every cone K_k in R^n."""
    rng = np.random.default_rng(seed)
    yield rng.uniform(-3.0, 3.0, size=n)
    yield rng.uniform(-3.0, 3.0, size=(4, 5, n))
    for k in range(1, n + 1):
        inside = symfunc.sample_cone(n, k, 40, seed=seed + k)
        yield symfunc.push_toward_boundary(inside, k, rng, 1.0 - 1e-9)


class TestConeContains:
    def test_examples(self):
        assert symfunc.cone_contains([1, 1, 1], 3)
        assert symfunc.cone_contains([3, -1], 1)
        assert not symfunc.cone_contains([3, -1], 2)
        assert not symfunc.cone_contains([-1, -1], 1)

    def test_strict_boundary(self):
        # H_2(1, -1) = -1/... e_2 = -1 -> not in K_2; H_1 = 0 -> not in K_1
        assert not symfunc.cone_contains([1.0, -1.0], 1)

    def test_batched(self):
        pts = np.array([[1.0, 1.0], [1.0, -2.0]])
        got = symfunc.cone_contains(pts, 1)
        assert got.tolist() == [True, False]

    @pytest.mark.parametrize("k", [0, 4])
    def test_cone_index_checked(self, k):
        # the sampler tests membership unchecked, so it checks k itself
        rng = np.random.default_rng(0)
        for call in (lambda: symfunc.cone_contains(np.ones(3), k),
                     lambda: symfunc.sample_cone(3, k, 10, seed=1),
                     lambda: symfunc.boundary_points(rng, np.ones(3), k),
                     lambda: symfunc.push_toward_boundary(np.ones((1, 3)), k, rng, 0.5)):
            with pytest.raises(ValueError, match="out of range"):
                call()

    def test_dimension_bounded(self):
        # a box draw lands in K_16 about once in 2^16: the sampler ran out of
        # rounds after about 5 s and raised a RuntimeError
        spec = CurvatureSpec.consecutive_quotient(16, 16)
        for call in (lambda: symfunc.sample_cone(16, 16, 1000, 0),
                     lambda: symfunc.check_conditions(spec, 1000, 0),
                     lambda: oracles.sup_gradient_sum(spec, 1000, 0)):
            with pytest.raises(ValueError, match="n must be at most 8, got 16"):
                call()


ALL_SPECS = (
    CurvatureSpec.consecutive_quotient(2, 3),
    CurvatureSpec.consecutive_quotient(3, 3),
    CurvatureSpec.general_quotient(2, 1, 3),
    CurvatureSpec.general_quotient(3, 1, 4),
    CurvatureSpec.kth_root(2, 3),
    CurvatureSpec.kth_root(3, 4),
)


class TestComponentMajorTables:
    """The component-major tables, truncated or with components left out,
    are bitwise equal to the row-major ones."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_table_and_every_order(self, n):
        for arr in oracle_batches(n, seed=n):
            want = esym_prefix_rowmajor(arr)
            table = esym_table(arr)
            assert table.flags.c_contiguous and np.array_equal(table, want)
            cols = symfunc._columns(arr)
            for order in range(n + 1):
                got = symfunc._esym_rows(cols, order)
                assert got.shape[0] == order + 1
                assert np.array_equal(got, want.reshape(-1, n + 1)[:, : order + 1].T)
                assert np.array_equal(elementary_symmetric(arr, order), want[..., order])
                if order:
                    assert np.array_equal(symfunc.cone_contains(arr, order),
                                          cone_rowmajor(arr, order))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_components_left_out(self, n):
        for arr in oracle_batches(n, seed=10 + n):
            cols = symfunc._columns(arr)
            drops = [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))
            for drop in drops:
                want = esym_prefix_rowmajor(np.delete(arr, drop, axis=-1))
                want = want.reshape(-1, n - len(drop) + 1).T
                rest = [r for r in range(n) if r not in drop]
                for order in range(n - len(drop) + 1):
                    got = symfunc._esym_rows(cols, order, rest)
                    assert np.array_equal(got, want[: order + 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_boundary_points_bisection(self, n):
        for k in range(1, n + 1):
            inside = symfunc.sample_cone(n, k, 50, seed=20 + k)
            got = symfunc.boundary_points(np.random.default_rng(k), inside, k)
            want = boundary_points_rowmajor(np.random.default_rng(k), inside, k)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.describe())
    def test_admissibility_error_indices(self, spec):
        pts = np.random.default_rng(spec.n + spec.k).uniform(-1.0, 3.0, size=(6, 50, spec.n))
        outside = np.flatnonzero(~symfunc.cone_contains(pts, spec.cone_index))
        assert 0 < outside.size < pts.size // spec.n
        for fn in (symfunc.eval_f, symfunc.grad_f, symfunc.hessian_f):
            with pytest.raises(AdmissibilityError) as exc:
                fn(spec, pts)
            assert exc.value.indices == outside.tolist()
            assert all(type(i) is int for i in exc.value.indices)
        with pytest.raises(AdmissibilityError) as exc:
            symfunc.eval_f(spec, pts[0, outside[0]])
        assert exc.value.indices == [0]


class TestPairTable:
    """pair_table's closed form against the recurrence table of the vector
    (r, t, ..., t)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_esym_table(self, n):
        rng = np.random.default_rng(100 + n)
        r, t = rng.uniform(-3.0, 3.0, size=(2, 500))
        kappa = np.column_stack([r] + [t] * (n - 1))
        want = esym_table(kappa).T
        # relative to the sum of the magnitudes of each e_j's terms, the
        # scale of its rounding error, which sign cancellation leaves
        scale = esym_table(np.abs(kappa)).T
        for order in range(n + 1):
            got = symfunc.pair_table(r, t, n - 1, order)
            assert got.shape == (order + 1, 500)
            assert np.all(np.abs(got - want[: order + 1]) <= 1e-13 * scale[: order + 1])

    def test_partials(self):
        # de_j/dr and the sum of de_j/dt_i over the m copies of t
        rng = np.random.default_rng(7)
        r, t = rng.uniform(0.1, 2.0, size=(2, 50))
        m, step = 3, 1e-6

        def table(r, t):
            return symfunc.pair_table(r, t, m, 4)

        dr = (table(r + step, t) - table(r - step, t)) / (2 * step)
        dt = (table(r, t + step) - table(r, t - step)) / (2 * step)
        assert np.allclose(dr[1:], symfunc.pair_table(t, t, m - 1, 3), rtol=1e-8, atol=1e-8)
        assert np.allclose(dt[1:], m * symfunc.pair_table(r, t, m - 1, 3), rtol=1e-8, atol=1e-8)


class TestOrthantRule:
    """The sampler tests K_n, the positive orthant, by the signs of the
    components; on its draws, its bisection midpoints and at signed zeros
    that is bitwise the verdict of the e-table."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampler_draws(self, n):
        rng = np.random.default_rng(40 + n)
        draws = rng.uniform(-3.0, 3.0, size=(40_000, n))
        assert np.array_equal(symfunc._in_cone(draws, n), cone_rowmajor(draws, n))
        # candidates pushed almost onto the boundary, as push_toward_boundary builds them
        inside = draws[cone_rowmajor(draws, n)][:500]
        b = symfunc.boundary_points(rng, inside, n)
        near = inside + rng.uniform(0.9, 1.0, size=(inside.shape[0], 1)) * (b - inside)
        assert np.array_equal(symfunc._in_cone(near, n), cone_rowmajor(near, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bisection_midpoints(self, n):
        rng = np.random.default_rng(50 + n)
        lo = symfunc.sample_cone(n, n, 500, seed=50 + n)
        hi = symfunc._exterior_points(rng, lo.shape[0], n, n)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = cone_rowmajor(mid, n)
            assert np.array_equal(symfunc._in_cone(mid, n), ok)
            assert np.array_equal(symfunc._member(symfunc._columns(mid), n), ok)
            lo[ok] = mid[ok]
            hi[~ok] = mid[~ok]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signed_zeros_and_negatives(self, n):
        # every combination of an entry of 1.5, the smallest nonzero box
        # draw, +0, -0 and two negative entries
        values = (1.5, 4.4e-16, 0.0, -0.0, -4.4e-16, -1.0)
        pts = np.array(list(itertools.product(values, repeat=n)))
        got = symfunc._in_cone(pts, n)
        assert np.array_equal(got, cone_rowmajor(pts, n))
        assert np.array_equal(got, np.all(pts > 0.0, axis=1))


def hessian_einsum(spec, kappa):
    """Oracle for symfunc.hessian_f: the component-major (n, n, points)
    matrix formula it replaced, with outer products by einsum, moved to the
    points-major layout at the end."""
    arr = symfunc._as_kappa(kappa, spec.n)
    cols = symfunc._columns(arr)
    n, k, l, p = spec.n, spec.k, spec.l, spec.power
    binom = symfunc._binoms(n)
    e = symfunc._esym_rows(cols, k)
    Hk = symfunc._per_point(e[k] / binom[k], arr)
    Hl = symfunc._per_point(e[l] / binom[l], arr)
    dHk = np.empty(cols.shape)
    dHl = np.zeros(cols.shape)
    for i in range(n):
        rest = symfunc._esym_rows(cols, k - 1, [r for r in range(n) if r != i])
        dHk[i] = rest[k - 1] / binom[k]
        if l >= 1:
            dHl[i] = rest[l - 1] / binom[l]
    d2Hk = np.zeros((n, n, cols.shape[1]))
    d2Hl = np.zeros((n, n, cols.shape[1]))
    if k >= 2:
        for i, j in itertools.combinations(range(n), 2):
            rest = symfunc._esym_rows(cols, k - 2, [r for r in range(n) if r not in (i, j)])
            d2Hk[i, j] = d2Hk[j, i] = rest[k - 2] / binom[k]
            if l >= 2:
                d2Hl[i, j] = d2Hl[j, i] = rest[l - 2] / binom[l]
    Hk_, Hl_ = np.atleast_1d(Hk), np.atleast_1d(Hl)
    outer_kl = np.einsum("i...,j...->ij...", dHk, dHl)
    outer_ll = np.einsum("i...,j...->ij...", dHl, dHl)
    gij = (
        d2Hk / Hl_
        - (outer_kl + np.swapaxes(outer_kl, 0, 1)) / Hl_**2
        - Hk_ * d2Hl / Hl_**2
        + 2.0 * Hk_ * outer_ll / Hl_**3
    )
    if p != 1.0:
        g = Hk / Hl
        gi = (dHk * Hl - Hk * dHl) / Hl**2
        outer_gg = np.einsum("i...,j...->ij...", gi, gi)
        g_ = np.atleast_1d(np.abs(g))
        gij = p * (p - 1.0) * g_ ** (p - 2.0) * outer_gg + p * g_ ** (p - 1.0) * gij
    return symfunc._batch(gij, arr)


def families_up_to_4():
    specs = []
    for n in range(2, 5):
        for k in range(1, n + 1):
            specs.append(CurvatureSpec.consecutive_quotient(k, n))
            specs.append(CurvatureSpec.kth_root(k, n))
            if k + 1 < n:
                specs.append(CurvatureSpec(symfunc.KTH_ROOT, n, k, 0, n))
            specs.extend(CurvatureSpec.general_quotient(k, l, n) for l in range(1, k))
    return specs


class TestPointsMajorHessian:
    @pytest.mark.parametrize("spec", families_up_to_4(), ids=lambda s: s.describe())
    def test_bitwise_einsum_formula(self, spec):
        pts = symfunc.sample_cone(spec.n, spec.cone_index, 400, seed=spec.n + 10 * spec.k)
        for batch in (pts, pts.reshape(20, 20, spec.n)):
            got = symfunc.hessian_f(spec, batch)
            assert got.shape == batch.shape + (spec.n,) and got.flags.c_contiguous
            assert np.array_equal(got, hessian_einsum(spec, batch))
            assert np.array_equal(got, np.swapaxes(got, -1, -2))
        for point in list(pts[:25]) + [np.ones(spec.n)]:
            got = symfunc.hessian_f(spec, point)
            assert got.shape == (spec.n, spec.n)
            assert np.array_equal(got, hessian_einsum(spec, point))
            assert np.array_equal(got, got.T)


class TestOnePass:
    @pytest.mark.parametrize("spec", families_up_to_4(), ids=lambda s: s.describe())
    def test_check_conditions_builds_each_drop_one_table_once(self, spec, monkeypatch):
        # f, its gradient and its Hessian of the sample batch come from one
        # pass: the n tables that leave one component out are built once
        built = []
        esym_rows = symfunc._esym_rows

        def spy(cols, order, rows=None):
            if rows is not None and len(rows) == cols.shape[0] - 1:
                built.append(cols.shape[1])
            return esym_rows(cols, order, rows)

        monkeypatch.setattr(symfunc, "_esym_rows", spy)
        report = symfunc.check_conditions(spec, 500, seed=3)
        batch = report.records[0].samples
        assert batch > 0
        assert built.count(batch) == spec.n

    @pytest.mark.parametrize("spec", families_up_to_4(), ids=lambda s: s.describe())
    def test_check_conditions_calls_eval_f_once_per_batch(self, spec, monkeypatch):
        # one call each for (2.3), whose pool points ride with the four ray
        # distances as a fifth slice, (2.4), (2.5) and (2.6)
        calls = []
        eval_f = symfunc.eval_f

        def spy(spec, kappa, check_cone=True):
            calls.append(np.shape(kappa))
            return eval_f(spec, kappa, check_cone)

        monkeypatch.setattr(symfunc, "eval_f", spy)
        report = symfunc.check_conditions(spec, 500, seed=3)
        assert len(calls) == 4
        assert calls[0][0] == 5
        assert report.passed


class TestEvalF:
    def test_normalization(self):
        for spec in ALL_SPECS:
            assert symfunc.eval_f(spec, np.ones(spec.n)) == pytest.approx(1.0)

    def test_h1_is_mean(self):
        spec = CurvatureSpec.consecutive_quotient(1, 2)
        assert symfunc.eval_f(spec, [2.0, 4.0]) == pytest.approx(3.0)

    def test_gq_diagonal(self):
        spec = CurvatureSpec.general_quotient(2, 1, 2)
        for t in (0.5, 1.0, 7.0):
            assert symfunc.eval_f(spec, [t, t]) == pytest.approx(t)

    def test_kth_root_example(self):
        spec = CurvatureSpec.kth_root(2, 3)
        assert symfunc.eval_f(spec, [1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_cone_violation_raises(self):
        spec = CurvatureSpec.consecutive_quotient(2, 2)
        with pytest.raises(AdmissibilityError):
            symfunc.eval_f(spec, [3.0, -1.0])

    @given(st.floats(0.11, 9.9))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, t):
        kappa = np.array([0.5, 1.0, 2.0])
        for spec in ALL_SPECS[:3]:
            if spec.n != 3:
                continue
            f1 = symfunc.eval_f(spec, kappa)
            ft = symfunc.eval_f(spec, t * kappa)
            assert ft == pytest.approx(t * f1, rel=1e-10)


def fd_gradient(spec, kappa, h=1e-6):
    kappa = np.asarray(kappa, dtype=float)
    g = np.empty_like(kappa)
    for i in range(kappa.size):
        e = np.zeros_like(kappa)
        e[i] = h
        g[i] = (symfunc.eval_f(spec, kappa + e) - symfunc.eval_f(spec, kappa - e)) / (2 * h)
    return g


class TestDerivatives:
    def test_h1_gradient(self):
        spec = CurvatureSpec.consecutive_quotient(1, 3)
        g = symfunc.grad_f(spec, [1.0, 2.0, 5.0])
        assert np.allclose(g, 1.0 / 3.0)

    def test_grad_matches_fd(self):
        spec = CurvatureSpec.kth_root(2, 3)
        kappa = np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(symfunc.grad_f(spec, kappa) - fd_gradient(spec, kappa))) < 1e-7

    def test_euler_identity_at_ones(self):
        for spec in ALL_SPECS:
            g = symfunc.grad_f(spec, np.ones(spec.n))
            assert np.sum(g) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_positive_on_samples(self):
        for spec in ALL_SPECS:
            pts = symfunc.sample_cone(spec.n, spec.cone_index, 500, seed=3)
            g = symfunc.grad_f(spec, pts)
            assert np.min(g) > 0.0

    def test_h1_hessian_zero(self):
        spec = CurvatureSpec.consecutive_quotient(1, 3)
        H = symfunc.hessian_f(spec, [1.0, 2.0, 3.0])
        assert np.max(np.abs(H)) < 1e-14

    def test_hessian_null_direction(self):
        for spec in ALL_SPECS:
            kappa = np.linspace(1.0, 2.0, spec.n)
            H = symfunc.hessian_f(spec, kappa)
            assert np.max(np.abs(H @ kappa)) < 1e-9

    def test_hessian_matches_fd(self):
        spec = CurvatureSpec.kth_root(2, 2)
        kappa = np.array([1.0, 3.0])
        h = 1e-5
        H = symfunc.hessian_f(spec, kappa)
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2); ei[i] = h
                ej = np.zeros(2); ej[j] = h
                fd = (symfunc.eval_f(spec, kappa + ei + ej)
                      - symfunc.eval_f(spec, kappa + ei - ej)
                      - symfunc.eval_f(spec, kappa - ei + ej)
                      + symfunc.eval_f(spec, kappa - ei - ej)) / (4 * h * h)
                assert H[i, j] == pytest.approx(fd, abs=1e-5)

    def test_hessian_concave(self):
        for spec in ALL_SPECS:
            pts = symfunc.sample_cone(spec.n, spec.cone_index, 200, seed=11)
            for p in pts:
                eig = np.linalg.eigvalsh(symfunc.hessian_f(spec, p))
                assert eig.max() < 1e-8


class TestDifferenceQuotients:
    def test_nonpositive_offdiag(self):
        for spec in ALL_SPECS:
            pts = symfunc.sample_cone(spec.n, spec.cone_index, 300, seed=5)
            for p in pts:
                Q = oracles.monotone_difference_quotients(spec, p)
                off = Q[~np.eye(spec.n, dtype=bool)]
                assert off.max() <= 1e-9

    def test_equal_entries_limit(self):
        spec = CurvatureSpec.kth_root(2, 3)
        Q = oracles.monotone_difference_quotients(spec, [1.0, 1.0, 2.0])
        H = symfunc.hessian_f(spec, [1.0, 1.0, 2.0])
        assert Q[0, 1] == pytest.approx(H[0, 0] - H[0, 1], abs=1e-6)


class TestMatrixCalculus:
    def rng_spd_pair(self, seed, spec):
        rng = np.random.default_rng(seed)
        kappa = symfunc.sample_cone(spec.n, spec.cone_index, 1, seed=seed)[0]
        B = rng.normal(size=(spec.n, spec.n))
        return kappa, 0.5 * (B + B.T)

    def test_F_on_diagonal(self):
        spec = CurvatureSpec.kth_root(2, 3)
        kappa = np.array([1.0, 2.0, 3.0])
        val, Fij = oracles.F_value_and_Fij(np.diag(kappa), spec)
        assert val == pytest.approx(symfunc.eval_f(spec, kappa))
        assert np.allclose(np.diag(Fij), symfunc.grad_f(spec, kappa), atol=1e-10)

    def test_F_orthogonal_invariance(self):
        spec = CurvatureSpec.consecutive_quotient(2, 3)
        kappa = np.array([0.5, 1.0, 3.0])
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = Q @ np.diag(kappa) @ Q.T
        val, Fij = oracles.F_value_and_Fij(A, spec)
        assert val == pytest.approx(symfunc.eval_f(spec, kappa), rel=1e-10)
        # F^{ij} transforms covariantly
        _, Fd = oracles.F_value_and_Fij(np.diag(kappa), spec)
        assert np.allclose(Fij, Q @ Fd @ Q.T, atol=1e-9)

    def test_Fij_matches_fd(self):
        spec = CurvatureSpec.kth_root(2, 3)
        kappa, B = self.rng_spd_pair(42, spec)
        A = np.diag(kappa)
        _, Fij = oracles.F_value_and_Fij(A, spec)
        h = 1e-6
        fd = np.zeros_like(A)
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = E[j, i] = h
                vp, _ = oracles.F_value_and_Fij(A + E, spec)
                vm, _ = oracles.F_value_and_Fij(A - E, spec)
                fd[i, j] = (vp - vm) / (4 * h) * (2.0 if i == j else 1.0)
        # dF/dA_ij for symmetric perturbation: off-diagonals appear twice
        assert np.max(np.abs(np.diag(fd) - np.diag(Fij))) < 1e-7
        assert fd[0, 1] == pytest.approx(2 * Fij[0, 1], abs=1e-6)

    def test_second_contraction_concavity(self):
        for spec in ALL_SPECS[:4]:
            for seed in range(20):
                kappa, B = self.rng_spd_pair(seed, spec)
                val = oracles.second_contraction(kappa, B, spec)
                assert val <= 1e-8
