"""Reduced half-line problem: exact spectrum, FD check, quotients."""

import math
import re

import numpy as np
import pytest

from conebounds import (AccuracyWarning, DomainError, SolverError,
                        UsageError, e_constant, exact_reduced_spectrum,
                        fd_halfline_spectrum, full_gauge, lambda_from_gauge,
                        moments, optimal_transverse_gauge)
from conftest import (cone_quotient, fd_halfline_eigs, rayleigh_quotient_1d,
                      section_nodes)

AXIAL = (0.0, 0.0, 1.0)
GRID = (12.0, 4000)


def optimal_full_gauge(section):
    return full_gauge(AXIAL, optimal_transverse_gauge(section))


class TestLambdaFromGauge:
    def test_unit_disc_axial(self, unit_disc):
        lam = lambda_from_gauge(optimal_full_gauge(unit_disc), unit_disc)
        assert lam == pytest.approx(1.0 / 8.0, rel=1e-14)

    def test_quadrature_cross_check(self, unit_triangle):
        L = full_gauge((0.4, -1.2, 0.8),
                       optimal_transverse_gauge(unit_triangle))
        lam = lambda_from_gauge(L, unit_triangle)
        pts, w = section_nodes(unit_triangle, order=20)
        vals = pts @ L.T
        integral = float(np.sum(w * np.sum(vals * vals, axis=1)))
        assert lam == pytest.approx(integral / moments(unit_triangle).area,
                                    rel=1e-10)

    def test_zero_gauge_rejected(self, unit_disc):
        with pytest.raises(DomainError):
            lambda_from_gauge(np.zeros((3, 2)), unit_disc)

    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_quadratic_scaling(self, t, unit_disc):
        L = optimal_full_gauge(unit_disc)
        assert lambda_from_gauge(t * L, unit_disc) == pytest.approx(
            t * t * lambda_from_gauge(L, unit_disc), rel=1e-14)

    def test_shape_validation(self, unit_disc):
        with pytest.raises(UsageError):
            lambda_from_gauge(np.ones((2, 2)), unit_disc)
        x3_dependent = np.ones((3, 3))
        with pytest.raises(UsageError):
            lambda_from_gauge(x3_dependent, unit_disc)

    def test_lambda_equals_e_squared_for_optimal_gauge(self, unit_triangle):
        # the optimal gauge realizes lam = e(B, w)^2
        lam = lambda_from_gauge(optimal_full_gauge(unit_triangle),
                                unit_triangle)
        e = e_constant(AXIAL, unit_triangle)
        assert lam == pytest.approx(e * e, rel=1e-13)


class TestExactSpectrum:
    def test_unit_lambda(self):
        assert list(exact_reduced_spectrum(1.0, 3)) == [3.0, 7.0, 11.0]

    def test_sqrt_scaling(self):
        assert exact_reduced_spectrum(4.0, 1)[0] == 6.0

    def test_disc_value(self):
        val = exact_reduced_spectrum(0.125, 1)[0]
        assert val == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
        assert val == pytest.approx(1.06066, abs=5e-6)

    def test_matches_disc_bound(self, unit_disc):
        e = e_constant(AXIAL, unit_disc)
        assert exact_reduced_spectrum(e * e, 1)[0] == pytest.approx(
            3.0 * e, rel=1e-14)

    def test_simple_and_increasing(self):
        vals = exact_reduced_spectrum(2.7, 6)
        assert np.all(np.diff(vals) > 0)

    def test_errors(self):
        with pytest.raises(DomainError):
            exact_reduced_spectrum(0.0, 1)
        with pytest.raises(DomainError):
            exact_reduced_spectrum(-1.0, 1)
        with pytest.raises(UsageError):
            exact_reduced_spectrum(1.0, 0)


#: Values of ``lam`` from the least subnormal to near the float maximum.
EXTREME_LAMS = [5e-324, 1e-320, 1e-8, 1.0, 1e8, 1e299, 1e300, 1.7e308]


class TestFdSpectrum:
    def test_unit_lambda_reference_grid(self):
        vals = fd_halfline_spectrum(1.0, n_max=3)
        assert abs(vals[0] - 3.0) < 1e-3
        assert abs(vals[1] - 7.0) < 1e-3
        assert abs(vals[2] - 11.0) < 5e-3

    def test_library_matrix_is_the_reference_assembly(self):
        # the one matrix the library solves is the tests-side assembly at
        # lam = 1 on 4000 interior points of (0, 12), bit for bit
        assert np.array_equal(fd_halfline_spectrum(1.0, 3),
                              fd_halfline_eigs(1.0, 12.0, 4000, 3))

    def test_unitary_scaling_exact_on_matched_grids(self):
        # lam=16 on [0,6] is unitarily the lam=1 problem on [0,12]:
        # the FD matrices match entrywise up to the factor 4
        v16 = fd_halfline_eigs(16.0, 6.0, 4000, 3)
        v1 = fd_halfline_spectrum(1.0, n_max=3)
        assert np.allclose(v16, 4.0 * v1, rtol=1e-9)
        assert np.allclose(v16, [12.0, 28.0, 44.0], rtol=2e-3)

    def test_second_order_convergence(self):
        # n chosen so h halves exactly: 12/601, 12/1202, 12/2404
        errs = [abs(fd_halfline_eigs(1.0, 12.0, n)[0] - 3.0)
                for n in (600, 1201, 2403)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_simplicity_gaps(self):
        for lam in (1.0, 4.0):
            vals = fd_halfline_spectrum(lam, n_max=3)
            gaps = np.diff(vals)
            assert np.all(gaps >= 3.9 * math.sqrt(lam))

    def test_a_stray_ground_value_warns(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda *a, **k: np.array([3.5]))
        with pytest.warns(AccuracyWarning):
            fd_halfline_spectrum(1.0, n_max=1)

    def test_a_failed_eigensolve_is_a_solver_error(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(SolverError, match="no convergence"):
            fd_halfline_spectrum(1.0)

    def test_good_grid_does_not_warn(self, recwarn):
        fd_halfline_spectrum(1.0, n_max=1)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, AccuracyWarning)]

    @pytest.mark.parametrize("lam", EXTREME_LAMS)
    def test_scaling_identity_at_extreme_lam(self, lam, recwarn):
        vals = fd_halfline_spectrum(lam, 3)
        assert np.array_equal(vals,
                              math.sqrt(lam) * fd_halfline_spectrum(1.0, 3))
        exact = exact_reduced_spectrum(lam, 3)
        assert np.all(np.abs(vals - exact) <= 1e-5 * exact)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, AccuracyWarning)]

    def test_errors(self):
        with pytest.raises(DomainError):
            fd_halfline_spectrum(-1.0)
        with pytest.raises(DomainError):
            fd_halfline_spectrum(math.inf)
        with pytest.raises(UsageError):
            fd_halfline_spectrum(1.0, n_max=0)
        with pytest.raises(UsageError):
            fd_halfline_spectrum(1.0, n_max=4001)


class TestRayleighQuotient1d:
    """The Simpson quotient oracle of ``conftest``; ``GRID`` is the
    ``lam = 1`` grid of the library's finite-difference matrix."""

    def test_gaussian_ground_state(self):
        # u = exp(-x^2/2) makes U = x u the first odd Hermite function
        val = rayleigh_quotient_1d(lambda x: math.exp(-x * x / 2.0), 1.0,
                                   *GRID,
                                   du=lambda x: -x * math.exp(-x * x / 2.0))
        assert val == pytest.approx(3.0, abs=1e-6)

    def test_gaussian_with_stencil_derivative(self):
        val = rayleigh_quotient_1d(lambda x: math.exp(-x * x / 2.0), 1.0,
                                   *GRID)
        assert val == pytest.approx(3.0, abs=1e-6)

    def test_exponential_is_above_ground(self):
        with pytest.warns(AccuracyWarning):
            # exp(-x) has only decayed to ~6e-6 at the default truncation,
            # which the tail check flags; the quotient is still valid
            val = rayleigh_quotient_1d(lambda x: math.exp(-x), 1.0, *GRID)
        assert val > 3.0
        val = rayleigh_quotient_1d(lambda x: math.exp(-x), 1.0, 25.0, 5000)
        assert val > 3.0

    def test_width_scan_minimized_at_one(self):
        def quotient(t):
            return rayleigh_quotient_1d(
                lambda x: math.exp(-t * x * x / 2.0), 1.0, *GRID,
                du=lambda x: -t * x * math.exp(-t * x * x / 2.0))

        ts = [0.5, 0.75, 1.0, 1.3, 1.7]
        vals = [quotient(t) for t in ts]
        assert ts[int(np.argmin(vals))] == 1.0
        assert min(vals) == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 2.7])
    def test_min_max_lower_bound(self, lam):
        rng = np.random.default_rng(61)
        floor = 3.0 * math.sqrt(lam) - 1e-9
        for _ in range(20):
            a, b, c = rng.uniform(-1.0, 1.0, 3)
            s = rng.uniform(0.8, 1.6)
            if abs(a) + abs(b) + abs(c) < 0.1:
                a = 1.0

            def u(x, a=a, b=b, c=c, s=s):
                return (a + b * x + c * x * x) * math.exp(-s * x * x / 2.0)

            assert rayleigh_quotient_1d(u, lam, 12.0 * lam ** -0.25,
                                        4000) >= floor

    @pytest.mark.parametrize("a, b, c, s", [
        (1.0, 0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.7),
        (0.3, -0.9, 0.5, 1.2), (-0.2, 0.4, 0.7, 1.6)])
    def test_difference_derivative_matches_analytic(self, a, b, c, s):
        # (a + b x + c x^2) exp(-s x^2 / 2); the first three are Gaussians
        def u(x):
            return (a + b * x + c * x * x) * math.exp(-s * x * x / 2.0)

        def du(x):
            return (b + 2.0 * c * x - s * x * (a + b * x + c * x * x)) \
                * math.exp(-s * x * x / 2.0)

        exact = rayleigh_quotient_1d(u, 1.0, *GRID, du=du)
        assert rayleigh_quotient_1d(u, 1.0, *GRID) == pytest.approx(exact,
                                                                    rel=1e-9)

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError):
            rayleigh_quotient_1d(lambda x: 0.0, 1.0, *GRID)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            rayleigh_quotient_1d(lambda x: math.exp(-x * x), -1.0, *GRID)

    @pytest.mark.parametrize("grid", [(12.0 * 1e-300 ** -0.25, 4000),
                                      (1e150, 16), (1e-150, 16)])
    def test_unresolved_profile_names_the_grid(self, grid):
        # every node but x = 0, where the weight x^2 vanishes, reads the
        # profile as 0.0: the grid, not the profile, is at fault
        x_max, n = grid
        with pytest.raises(DomainError, match=re.escape(
                f"x_max = {x_max:g}, n = {n}: the grid does not resolve")):
            rayleigh_quotient_1d(lambda x: math.exp(-x * x / 2.0), 1e-300,
                                 x_max, n)


class TestConeQuotientConsistency:
    """The solid-cone oracle against the half-line quotient it reduces to."""

    def test_unit_disc_adapted_gaussian(self, unit_disc):
        # the lam-adapted Gaussian u = exp(-sqrt(lam) x^2 / 2) is the ground
        # profile, so both quotients sit at the bottom value 3 sqrt(lam)
        lam = 0.125
        s = math.sqrt(lam)
        three_d, one_d = cone_quotient(
            lambda x: math.exp(-s * x * x / 2.0),
            lambda x: -s * x * math.exp(-s * x * x / 2.0),
            optimal_full_gauge(unit_disc), unit_disc)
        assert three_d == pytest.approx(one_d, rel=1e-4)
        assert one_d == pytest.approx(3.0 * math.sqrt(lam), rel=1e-6)

    def test_unit_disc_plain_gaussian(self, unit_disc):
        # exp(-x^2/2) is not the lam=1/8 ground profile; the quotients
        # still agree, at the analytic value
        # (int (1+lam) x^4 e^{-x^2}) / (int x^2 e^{-x^2}) = 27/16
        three_d, one_d = cone_quotient(
            lambda x: math.exp(-x * x / 2.0),
            lambda x: -x * math.exp(-x * x / 2.0),
            optimal_full_gauge(unit_disc), unit_disc)
        assert three_d == pytest.approx(one_d, rel=1e-4)
        assert one_d == pytest.approx(27.0 / 16.0, rel=1e-6)

    def test_square_symmetric_gauge(self, centered_square):
        three_d, one_d = cone_quotient(
            lambda x: math.exp(-x * x / 2.0),
            lambda x: -x * math.exp(-x * x / 2.0),
            optimal_full_gauge(centered_square), centered_square)
        assert three_d == pytest.approx(one_d, rel=1e-4)

    def test_zero_gauge_limit(self, unit_disc):
        three_d, one_d = cone_quotient(
            lambda x: math.exp(-x * x / 2.0),
            lambda x: -x * math.exp(-x * x / 2.0), np.zeros((3, 2)),
            unit_disc)
        assert three_d == pytest.approx(one_d, rel=1e-4)
        # pure kinetic quotient of the Gaussian under the x^2 weight
        assert one_d == pytest.approx(1.5, rel=1e-6)
