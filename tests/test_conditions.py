"""Structural condition suite over every curvature family, plus negative
controls proving the checker can fail."""

import itertools
import math

import numpy as np
import pytest

from hyperplateau import symfunc
from hyperplateau.symfunc import CurvatureSpec

import oracles


def record(report, condition):
    """The record of `condition` in a condition report."""
    for r in report.records:
        if r.condition == condition:
            return r
    raise KeyError(condition)


def all_families(max_n=4):
    specs = []
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            specs.append(CurvatureSpec.consecutive_quotient(k, n))
            specs.append(CurvatureSpec.kth_root(k, n))
            for l in range(1, k):
                specs.append(CurvatureSpec.general_quotient(k, l, n))
    return specs


@pytest.mark.parametrize("spec", all_families(), ids=lambda s: s.describe())
def test_conditions_pass(spec):
    report = symfunc.check_conditions(spec, 2000, seed=123)
    assert report.passed, oracles.condition_text(report)
    ids = {r.condition for r in report.records}
    assert {"2.1", "2.2", "2.3", "2.4", "2.5", "2.6"} <= ids


def test_condition_26_margin_linear_case():
    # f = H_1: f(1,...,1, 1+R) = 1 + R/n, far above 1 + eps_0 at R = 1e3
    spec = CurvatureSpec.kth_root(1, 3)
    report = symfunc.check_conditions(spec, 500, seed=5)
    rec = next(r for r in report.records if r.condition == "2.6")
    assert rec.passed
    assert rec.worst_margin > 100.0


def test_negative_control_flags_cone_violations():
    # evaluating a K_3 function on K_1 samples must be reported, not hidden
    bad = CurvatureSpec(symfunc.KTH_ROOT, n=3, k=2, l=0, cone_index=1)
    report = symfunc.check_conditions(bad, 2000, seed=7)
    assert not report.passed
    assert report.cone_violations > 0


def test_determinism():
    spec = CurvatureSpec.consecutive_quotient(2, 3)
    r1 = symfunc.check_conditions(spec, 1000, seed=42)
    r2 = symfunc.check_conditions(spec, 1000, seed=42)
    assert r1.to_dict() == r2.to_dict()


def _hessian_mp(spec, kappa, mp):
    """Oracle Hessian of f = (H_k/H_l)^(1/(k-l)) in mpmath arithmetic at the
    current precision, by differentiating the polynomials H_j exactly."""
    x = [mp.mpf(float(v)) for v in kappa]
    n = spec.n

    def f(*y):
        def H(j):
            terms = (mp.fprod(c) for c in itertools.combinations(y, j))
            return mp.fsum(terms) / math.comb(n, j) if j else mp.mpf(1)
        return (H(spec.k) / H(spec.l)) ** (mp.mpf(1) / (spec.k - spec.l))

    hess = mp.matrix(n, n)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        order = [0] * n
        order[i] += 1
        order[j] += 1
        hess[i, j] = hess[j, i] = mp.diff(f, x, tuple(order))
    return hess


def test_condition_22_roundoff_near_cone_boundary():
    # (H_4/H_1)^(1/3) at sample seed 0: one sample, with a curvature 1e-6,
    # has |H_ij| up to 1.6e9 and a computed largest eigenvalue 5e-8, above
    # the absolute 1e-8 but 3e-17 of the Hessian; in 50 digits it is 0
    mpmath = pytest.importorskip("mpmath")
    spec = CurvatureSpec.general_quotient(4, 1, 4)
    samples = symfunc.sample_cone(spec.n, spec.cone_index, 10000, 0)
    valid = samples[np.atleast_1d(symfunc.cone_contains(samples, spec.required_cone))]
    h = symfunc.hessian_f(spec, valid, check_cone=False)
    lam_max = np.linalg.eigvalsh(h)[:, -1]
    worst = int(np.argmax(lam_max))
    scale = np.max(np.abs(h[worst]))
    assert lam_max[worst] > 1e-8 and scale > 1e9
    with mpmath.workdps(50):
        exact = mpmath.eigsy(_hessian_mp(spec, valid[worst], mpmath))[0]
        assert max(exact) <= 1e-30 * scale
    report = symfunc.check_conditions(spec, 10000, seed=0)
    assert record(report, "2.2").passed, oracles.condition_text(report)


def test_negative_control_flags_concavity_violation(monkeypatch):
    # a +1e-6 eigenvalue at moderate |H| is far above any round-off
    spec = CurvatureSpec.consecutive_quotient(2, 3)
    derivatives = symfunc._derivatives

    def shifted(*args, **kwargs):
        out = derivatives(*args, **kwargs)
        return out[:2] + tuple(h + 1e-6 * np.eye(3) for h in out[2:])

    monkeypatch.setattr(symfunc, "_derivatives", shifted)
    rec = record(symfunc.check_conditions(spec, 2000, seed=123), "2.2")
    assert not rec.passed
    assert rec.worst_margin <= -0.9e-6
