"""Graph geometry in the upper half-space model: normals, shape operators,
and umbilic oracles."""

import math

import numpy as np
import pytest

from hyperplateau import hypgeom
from hyperplateau.symfunc import CurvatureSpec

import oracles


def d2height(cap, rho):
    """u'' of the cap (hypgeom.CapSolution) at distance rho from the axis."""
    rho = np.asarray(rho, dtype=float)
    s = np.sqrt(cap.r**2 - rho**2)
    out = -(cap.r**2) / s**3
    return float(out) if out.ndim == 0 else out


class TestNormals:
    def test_flat_graph(self):
        nu, w = oracles.upward_normal([0.0, 0.0])
        assert w == 1.0
        assert np.allclose(nu, [0, 0, 1])

    def test_tilted(self):
        nu, w = oracles.upward_normal([1.0, 0.0])
        assert w == pytest.approx(math.sqrt(2))
        assert nu[-1] == pytest.approx(1 / math.sqrt(2))
        assert np.linalg.norm(nu) == pytest.approx(1.0)


class TestShapes:
    def test_horosphere(self):
        # u = const: A_hyp = I/w = I, every curvature 1
        jet = oracles.hyperbolic_shape(2.5, [0.0, 0.0], np.zeros((2, 2)))
        assert np.allclose(jet.kappa, 1.0, atol=1e-12)

    def test_degenerate_height(self):
        with pytest.raises(ValueError, match="graph height must be positive"):
            oracles.hyperbolic_shape(0.0, [0.0], np.zeros((1, 1)))

    def test_euclidean_sphere(self):
        # lower hemisphere graph of the unit sphere: euclidean curvature 1
        x = np.array([0.3, 0.1])
        s = math.sqrt(1 - x @ x)
        Du = x / s
        D2u = np.eye(2) / s + np.outer(x, x) / s**3
        A = oracles.euclidean_shape(Du, D2u)
        assert np.allclose(np.linalg.eigvalsh(A), 1.0, atol=1e-12)


class TestCapOracle:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_umbilic(self, sigma):
        cap = hypgeom.make_cap_with_boundary_height(1.0, sigma, 0.0)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            t = rng.uniform(0, 2 * math.pi)
            rho = rng.uniform(0, 0.999)
            jet = oracles.cap_jet(cap, [rho * math.cos(t), rho * math.sin(t)])
            worst = max(worst, np.max(np.abs(jet.kappa - sigma)))
        assert worst <= 1e-10

    def test_geometry(self):
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.5, 0.0)
        assert cap.r == pytest.approx(1.0 / math.sqrt(0.75))
        assert cap.c == pytest.approx(-0.5 * cap.r)
        assert cap.apex_height == pytest.approx(math.sqrt(1.0 / 3.0))
        assert cap.height(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_height_variant(self):
        for sigma in (0.2, 0.5, 0.8):
            for eps in (0.1, 1e-3):
                cap = hypgeom.make_cap_with_boundary_height(1.0, sigma, eps)
                assert cap.height(1.0) == pytest.approx(eps, abs=1e-12)
                jet = oracles.cap_jet(cap, [0.3, 0.4])
                assert np.max(np.abs(jet.kappa - sigma)) < 1e-10

    def test_higher_dimension_umbilic(self):
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.4, 0.0)
        jet = oracles.cap_jet(cap, [0.2, 0.1, 0.3])
        assert np.max(np.abs(jet.kappa - 0.4)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            hypgeom.make_cap_with_boundary_height(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            hypgeom.make_cap_with_boundary_height(-1.0, 0.5, 0.0)


class TestRadialJet:
    def test_matches_full_jet_on_cap(self):
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.6, 0.0)
        rho = 0.37
        jet_r = oracles.radial_jet(cap.height(rho), cap.dheight(rho),
                                   d2height(cap, rho), rho, n=2)
        jet_f = oracles.cap_jet(cap, [rho, 0.0])
        assert np.allclose(np.sort(jet_r.kappa), np.sort(jet_f.kappa), atol=1e-12)

    def test_axis_limit(self):
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.6, 0.0)
        jet = oracles.radial_jet(cap.height(0.0), 0.0, d2height(cap, 0.0), 0.0, n=3)
        assert np.allclose(jet.kappa, 0.6, atol=1e-12)

    def test_vectorized_curvatures_match(self):
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.3, 0.0)
        rho = np.linspace(0.0, 0.9, 50)
        kappa, w = hypgeom.radial_principal_curvatures(
            cap.height(rho), cap.dheight(rho), d2height(cap, rho), rho, 2)
        assert np.max(np.abs(kappa - 0.3)) < 1e-10


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            hypgeom.Domain.ellipse(1.0, 2.0)

    @pytest.mark.parametrize("make", [
        lambda: hypgeom.Domain.ball(0.0),
        lambda: hypgeom.Domain.ball(math.nan),
        lambda: hypgeom.Domain.ball(math.inf),
        lambda: hypgeom.Domain.ball(1e155),
        lambda: hypgeom.Domain.ellipse(math.inf, 1.0),
        lambda: hypgeom.Domain.ellipse(1.5, math.nan),
        lambda: hypgeom.Domain.ellipse(1e154, 1e154),
    ], ids=["ball-zero", "ball-nan", "ball-inf", "ball-huge", "ellipse-inf", "ellipse-nan",
            "ellipse-huge"])
    def test_sizes_positive_finite_and_bounded(self, make):
        with pytest.raises(ValueError):
            make()

    def test_largest_extent_accepted(self):
        assert hypgeom.Domain.ball(hypgeom.MAX_EXTENT).params == (1e100,)
        assert hypgeom.Domain.ellipse(1e100, 1e100).params == (1e100, 1e100)

    def test_dimension(self):
        hypgeom.Domain.ball(1.0).check_dimension(4)
        hypgeom.Domain.ellipse(1.5, 1.0).check_dimension(2)
        with pytest.raises(ValueError, match="need n = 2, got n=3"):
            hypgeom.Domain.ellipse(1.5, 1.0).check_dimension(3)
