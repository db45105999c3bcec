"""The two quantitative gradient assumptions, checked against independent
brute-force oracles.

The oracle side deliberately avoids the package's analytic machinery: e_k by
subset enumeration, partial derivatives by deleting an entry, and the
gradient-sum supremum by a dense grid over a cone cross-section.
"""

import itertools
import math

import numpy as np
import pytest

from hyperplateau import symfunc
from hyperplateau.symfunc import CurvatureSpec

import oracles


def esym(kappa, k):
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(kappa, k))


def Hk(kappa, k):
    return esym(kappa, k) / math.comb(len(kappa), k)


def grad_sum_oracle(kappa, k):
    """Sum of partials of H_k/H_{k-1} via the subset-deletion identity
    d e_k / d kappa_i = e_{k-1}(kappa with entry i removed)."""
    n = len(kappa)
    ek = esym(kappa, k)
    ek1 = esym(kappa, k - 1)
    ck = math.comb(n, k)
    ck1 = math.comb(n, k - 1)
    total = 0.0
    for i in range(n):
        rest = kappa[:i] + kappa[i + 1:]
        dek = esym(rest, k - 1)
        dek1 = esym(rest, k - 2) if k >= 2 else 0.0
        total += (dek / ck * (ek1 / ck1) - (ek / ck) * dek1 / ck1) / (ek1 / ck1) ** 2
    return total


class TestIdentityConvention:
    def test_normalized_identity(self):
        """H_k = kappa_i dH_k/dkappa_i + (C(n,k+1)/C(n,k)) dH_{k+1}/dkappa_i
        under the normalized convention -- settles the convention question."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            kappa = list(rng.uniform(0.2, 3.0, n))
            for k in range(0, n):
                for i in range(n):
                    rest = kappa[:i] + kappa[i + 1:]
                    dHk = esym(rest, k - 1) / math.comb(n, k) if k >= 1 else 0.0
                    dHk1 = esym(rest, k) / math.comb(n, k + 1)
                    lhs = Hk(kappa, k)
                    rhs = kappa[i] * dHk + (math.comb(n, k + 1) / math.comb(n, k)) * dHk1
                    assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGradientSum:
    def test_h1_is_exact(self):
        spec = CurvatureSpec.consecutive_quotient(1, 3)
        assert oracles.sup_gradient_sum(spec, 2000, seed=0) == pytest.approx(1.0)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            oracles.sup_gradient_sum(CurvatureSpec.kth_root(2, 3), 100, seed=0)

    def test_reproducible_across_seeds(self):
        spec = CurvatureSpec.consecutive_quotient(2, 2)
        a = oracles.sup_gradient_sum(spec, 50000, seed=1)
        b = oracles.sup_gradient_sum(spec, 50000, seed=2)
        assert abs(a - b) < 1e-3

    def test_matches_dense_grid_oracle_n2(self):
        """Dense grid over the cross-section {kappa_1 + kappa_2 = 1} of K_2,
        walked toward the cone boundary: the sup of the gradient sum for
        H_2/H_1, n = 2.  Under the normalized convention the sum is
        2 - H_2 H_0 / H_1^2 -> sup 2 (not the unnormalized n - k + 1 = 1)."""
        spec = CurvatureSpec.consecutive_quotient(2, 2)
        sup_pkg = oracles.sup_gradient_sum(spec, 100000, seed=9)
        # oracle: kappa = (t, 1 - t) with H_2 > 0, scan t toward the boundary
        best = 0.0
        for t in np.linspace(0.5, 1.0 - 1e-9, 200001):
            kappa = [t, 1.0 - t]
            if esym(kappa, 2) <= 0.0:
                continue
            best = max(best, grad_sum_oracle(kappa, 2))
        assert sup_pkg == pytest.approx(best, abs=1e-3)
        assert best == pytest.approx(2.0, abs=1e-3)

    def test_bounded_by_convention_constant(self):
        # normalized convention: sup over K_k is k; the unnormalized claim is
        # n - k + 1; the measured value must respect max(k, n - k + 1)
        for n in range(2, 5):
            for k in range(2, n + 1):
                spec = CurvatureSpec.consecutive_quotient(k, n)
                sup = oracles.sup_gradient_sum(spec, 20000, seed=4)
                assert math.isfinite(sup)
                assert sup <= max(k, n - k + 1) + 1e-6


class TestRatioAssumption:
    def test_kth_root_ones(self):
        spec = CurvatureSpec.kth_root(1, 3)
        g = symfunc.grad_f(spec, np.ones(3))
        assert g[0] * 1.0 / 1.0 == pytest.approx(1.0 / 3.0)

    def test_bounds(self):
        cases = [
            (CurvatureSpec.kth_root(2, 3), 1.0 / 2.0),
            (CurvatureSpec.kth_root(3, 4), 1.0 / 3.0),
            (CurvatureSpec.general_quotient(3, 1, 4), 1.0 / 2.0),
            (CurvatureSpec.general_quotient(2, 1, 3), 1.0),
        ]
        for spec, bound in cases:
            sup = oracles.sup_ratio_assumption(spec, 20000, seed=2)
            assert sup <= bound + 1e-8

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            oracles.sup_ratio_assumption(CurvatureSpec.consecutive_quotient(2, 3), 100, seed=0)

    def test_matches_pointwise_oracle(self):
        """kappa_i f_i / f computed from subset-enumeration partials."""
        spec = CurvatureSpec.general_quotient(3, 1, 4)
        pts = symfunc.sample_cone(4, 4, 200, seed=8)
        p = 1.0 / (spec.k - spec.l)
        for kappa in pts:
            f = symfunc.eval_f(spec, kappa)
            g = symfunc.grad_f(spec, kappa)
            kl = list(kappa)
            Hk_, Hl_ = Hk(kl, 3), Hk(kl, 1)
            for i in range(4):
                rest = kl[:i] + kl[i + 1:]
                dHk = esym(rest, 2) / math.comb(4, 3)
                dHl = esym(rest, 0) / math.comb(4, 1)
                ratio_f = (Hk_ / Hl_) ** p
                gi = p * ratio_f * (dHk / Hk_ - dHl / Hl_)
                assert g[i] == pytest.approx(gi, rel=1e-9)
                assert f == pytest.approx(ratio_f, rel=1e-10)
