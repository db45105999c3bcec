"""Verification-machinery tests: the eta root, theta-window, index sets,
constants on solutions, algebraic property suite, and the discrete
normal-component identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperplateau import grid, hypgeom, solver, verify
from hyperplateau.errors import UnsupportedSolutionError
from hyperplateau.symfunc import CurvatureSpec

import oracles


class TestEta:
    def test_reference_value(self):
        assert verify.eta_of(0.25) == pytest.approx(4 * (1 + math.sqrt(1.5)), rel=1e-12)

    @given(st.floats(1e-3, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_root_identity(self, a):
        eta = verify.eta_of(a)
        assert abs(a * eta**2 - 2 * eta - 2) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify.eta_of(0.0)


class TestThetaWindow:
    @given(st.floats(1e-3, 0.5), st.floats(1e-6, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_criterion_equivalence(self, a, lam):
        lower, upper, nonempty = verify.theta_window(a, lam)
        assert nonempty == (lam < a**2 / (8 - a**2))
        if nonempty:
            assert 0.0 < lower < upper <= 1.0
            # midpoint theta maps into the mu window
            theta = 0.5 * (lower + upper)
            mu = (theta + lam) / (1 + lam)
            assert a**2 / 8 - 1e-12 <= mu <= a**2 / 4 + 1e-12


class TestGradientEstimate:
    def test_horosphere(self):
        # the horizontal graph u = 0.5: kappa = 1 and w = 1 at every
        # interior node
        layout = solver.RadialLayout(CurvatureSpec.consecutive_quotient(1, 2),
                                     hypgeom.Domain.ball(1.0), 128)
        sol = solver.GraphSolution(layout=layout, u=np.full(129, 0.5), sigma=1.0 - 1e-9,
                                   epsilon=0.5, kappa=np.ones((128, 2)), w=np.ones(128))
        min_nu, ok = verify.gradient_estimate_check(sol)
        assert min_nu == pytest.approx(1.0)
        assert ok

    def test_cap_boundary_value(self):
        # at height eps -> 0 the cap's vertical normal approaches sigma
        cap = hypgeom.make_cap_with_boundary_height(1.0, 0.5, 0.0)
        jet = oracles.cap_jet(cap, [1.0 - 1e-10, 0.0])
        assert jet.nu_vertical == pytest.approx(0.5, abs=1e-4)

    def test_solved_below_sigma0(self):
        cfg = solver.SolverConfig(
            spec=CurvatureSpec.consecutive_quotient(2, 2),
            domain=hypgeom.Domain.ball(1.0), sigma_target=0.2, grid_size=256)
        sol = solver.continuation_solve(cfg)
        min_nu, ok = verify.gradient_estimate_check(sol)
        assert ok
        assert min_nu >= 0.19


class TestEstimateConstants:
    def cap_solution(self, sigma=0.5, eps=1e-3, N=512):
        return solver.cap_solution(CurvatureSpec.consecutive_quotient(1, 2),
                                   hypgeom.Domain.ball(1.0), sigma, N, eps)

    def test_cap_m0_formula(self):
        sol = self.cap_solution()
        consts, sets = verify.estimate_constants(sol)
        # umbilic: kappa_max = sigma everywhere, maximizer where nu is least
        nu_min = float(np.min(sol.nu_vertical))
        assert consts.a == pytest.approx(nu_min / 2)
        assert consts.M0 == pytest.approx(0.5 / (nu_min - consts.a), rel=1e-12)
        assert consts.boundary_attained

    def test_index_sets_partition(self):
        sol = self.cap_solution()
        consts, sets = verify.estimate_constants(sol)
        n = sol.spec.n
        all_indices = sorted(sets.J + sets.L + sets.Neg)
        assert len(set(all_indices)) == len(all_indices)
        assert set(all_indices) <= set(range(n))

    def test_window_empty_reported_not_clamped(self):
        sol = self.cap_solution()
        consts, _ = verify.estimate_constants(sol)
        # kappa1 = sigma = 0.5 is far below the threshold; window must be empty
        assert consts.window_empty
        assert consts.theta is None and consts.mu is None
        assert consts.kappa1 < consts.kappa1_threshold

    def test_ellipse_grid_solution(self):
        # every reported node of a grid solution is interior; the maximizer,
        # node 112 in full-box order, has a Dirichlet neighbour
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=CurvatureSpec.consecutive_quotient(2, 2),
            domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.5, grid_size=32))
        assert verify.gradient_estimate_check(sol) == (0.5589138827977633, True)
        consts, _ = verify.estimate_constants(sol)
        assert consts.x0_index == 112
        assert consts.boundary_attained is True


class TestAlgebra:
    def test_zero_violations(self):
        rep = verify.algebraic_subinequalities(100000, seed=31)
        assert rep["passed"]
        for name, chk in rep["checks"].items():
            assert chk["violations"] == 0, name
        assert rep["root_identity_residual"] <= 1e-10

    def test_summand_root_is_tight(self):
        # at kappa = -eta the summand vanishes by construction of eta
        a = 0.25
        eta = verify.eta_of(a)
        assert a * eta**2 - 2 * eta - 2 == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        r1 = verify.algebraic_subinequalities(10000, seed=5)
        r2 = verify.algebraic_subinequalities(10000, seed=5)
        assert r1 == r2

    @pytest.mark.parametrize("samples", [1, 7, 10_000, 100_000])
    def test_report_is_the_whole_batch_report(self, samples):
        # the same draws in the same order, each formula in its order
        assert verify.algebraic_subinequalities(samples, seed=31) \
            == oracles.algebraic_subinequalities(samples, seed=31)

    def test_memory_per_sample(self):
        # arrays dropped after their last use: about 64 B per sample, against
        # 120 when every draw lived to the end
        peak = oracles.traced_peak(lambda: verify.algebraic_subinequalities(100_000, seed=31))
        assert peak / 100_000 <= 80


class TestLemma21ii:
    def make_solution(self, grid_size, sigma=0.5):
        return solver.cap_solution(CurvatureSpec.consecutive_quotient(1, 2),
                                   hypgeom.Domain.ball(1.0), sigma, grid_size, 1e-3)

    def test_first_order_refinement(self):
        r512 = oracles.check_lemma21_ii(self.make_solution(512))
        r1024 = oracles.check_lemma21_ii(self.make_solution(1024))
        ratio = r1024 / r512
        assert 0.35 <= ratio <= 0.65  # halves within +-30%

    def test_requires_radial(self):
        class Fake:
            layout = grid.GridLayout(CurvatureSpec.consecutive_quotient(1, 2),
                                     hypgeom.Domain.ellipse(1.5, 1.0), 16)
        with pytest.raises(UnsupportedSolutionError):
            oracles.check_lemma21_ii(Fake())
