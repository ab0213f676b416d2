"""Optimal transverse gauge, the section constant e, and the linear bounds."""

import math

import numpy as np
import pytest

from conebounds import (Disc, DomainError, MagneticField, Polygon,
                        TransverseGauge, UsageError, circular_cone_asymptotics,
                        e_constant, full_gauge, min_transverse_norm_sq,
                        moments, optimal_transverse_gauge,
                        rayleigh_upper_bounds, scale_section,
                        sector_asymptotics)
from conftest import (brute_force_gauge, random_field, random_star_polygon,
                      section_nodes)


def rect(l, L):
    return Polygon([(-l, -L), (l, -L), (l, L), (-l, L)])


def rect_e(field, l, L):
    # closed form for [-l,l]x[-L,L]
    b1, b2, b3 = field
    return math.sqrt(b3 ** 2 * l * l * L * L / (l * l + L * L)
                     + b1 * b1 * L * L + b2 * b2 * l * l) / math.sqrt(3.0)


class TestOptimalGauge:
    def test_disc_symmetric_potential(self, unit_disc):
        g = optimal_transverse_gauge(unit_disc)
        assert np.allclose(g.matrix, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)

    def test_square_symmetric_potential(self, centered_square):
        g = optimal_transverse_gauge(centered_square)
        assert np.allclose(g.matrix, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)

    def test_unit_triangle(self, unit_triangle):
        g = optimal_transverse_gauge(unit_triangle)
        assert np.allclose(g.matrix, [[0.25, -0.5], [0.5, -0.25]], atol=1e-15)

    def test_unit_curl_always(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = optimal_transverse_gauge(random_star_polygon(rng))
            assert g.curl == pytest.approx(1.0, abs=1e-15)

    def test_zero_m1_gives_off_diagonal_form(self, centered_square, unit_disc):
        for s in (centered_square, unit_disc):
            g = optimal_transverse_gauge(s)
            assert g.a == 0.0 and g.d == 0.0

    def test_usage_error_on_non_section(self):
        with pytest.raises(UsageError):
            optimal_transverse_gauge(3.0)
        with pytest.raises(UsageError):
            min_transverse_norm_sq(None)


class TestBruteForceAgreement:
    def sections(self):
        rng = np.random.default_rng(17)
        out = [Disc((0, 0), 1.0), rect(2.0, 1.0),
               Polygon([(0, 0), (1, 0), (0, 1)])]
        out += [random_star_polygon(rng) for _ in range(10)]
        return out

    def test_matrices_agree(self):
        for s in self.sections():
            closed = optimal_transverse_gauge(s)
            brute = brute_force_gauge(s)
            assert np.allclose(brute.matrix, closed.matrix,
                               rtol=1e-10, atol=1e-12)

    def test_norms_agree(self):
        for s in self.sections():
            m = moments(s)
            val = m.linear_norm_sq(brute_force_gauge(s).matrix)
            assert val == pytest.approx(min_transverse_norm_sq(m), rel=1e-10)

    def test_perturbations_never_beat_optimum(self, unit_triangle):
        m = moments(unit_triangle)
        best = min_transverse_norm_sq(m)
        g0 = optimal_transverse_gauge(m)
        rng = np.random.default_rng(101)
        for _ in range(100):
            da, db, dd = rng.normal(scale=0.3, size=3)
            g = TransverseGauge(g0.a + da, g0.b + db,
                                1.0 + g0.b + db, g0.d + dd)
            assert abs(g.curl - 1.0) <= 1e-12
            assert m.linear_norm_sq(g.matrix) >= best - 1e-12

    def test_min_norm_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            assert min_transverse_norm_sq(random_star_polygon(rng)) > 0.0


class TestEConstant:
    def test_unit_disc_axial(self, unit_disc):
        e = e_constant((0, 0, 1), unit_disc)
        assert e == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-14)

    def test_square_transverse(self, centered_square):
        e = e_constant((1, 0, 0), centered_square)
        assert e == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_zero_field(self, unit_disc):
        assert e_constant((0, 0, 0), unit_disc) == 0.0

    def test_rectangle_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            l, L = rng.uniform(0.2, 3.0, 2)
            field = random_field(rng)
            e = e_constant(field, rect(l, L))
            assert e == pytest.approx(rect_e(field, l, L), rel=1e-12)

    def test_field_validation(self, unit_disc):
        with pytest.raises(UsageError):
            e_constant((1, 0), unit_disc)
        with pytest.raises(UsageError):
            e_constant((1, 0, np.nan), unit_disc)


class TestNormAxioms:
    @pytest.mark.parametrize("section_name",
                             ["unit_disc", "centered_square", "unit_triangle"])
    def test_triangle_inequality_and_scaling(self, section_name, request):
        section = request.getfixturevalue(section_name)
        m = moments(section)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            b1 = random_field(rng)
            b2 = random_field(rng)
            c = rng.normal()
            e1, e2 = e_constant(b1, m), e_constant(b2, m)
            assert e_constant(b1 + b2, m) <= e1 + e2 + 1e-12
            assert e_constant(c * b1, m) == pytest.approx(
                abs(c) * e1, rel=1e-12, abs=1e-15)

    def test_definiteness(self, unit_triangle):
        m = moments(unit_triangle)
        rng = np.random.default_rng(37)
        for _ in range(50):
            field = random_field(rng)
            if np.linalg.norm(field) > 1e-8:
                assert e_constant(field, m) > 0.0


class TestHomogeneityAndStructure:
    @pytest.mark.parametrize("eps", [0.1, 2.0])
    def test_dilation_degree_one(self, eps, unit_disc, unit_triangle):
        rng = np.random.default_rng(41)
        for section in (unit_disc, unit_triangle):
            field = random_field(rng)
            e = e_constant(field, section)
            e_s = e_constant(field, scale_section(section, eps))
            assert e_s == pytest.approx(eps * e, rel=1e-14)

    def test_field_power_of_two_scaling_is_exact(self, unit_triangle,
                                                 centered_square):
        # |B| and e are computed on the field scaled to unit size, so a
        # power-of-two scale of the field comes out bit for bit, far past
        # where the squares of its components underflow or overflow
        rng = np.random.default_rng(59)
        js = {-1000, 1000, *rng.integers(-1000, 1001, 40).tolist()}
        for section in (unit_triangle, centered_square):
            m = moments(section)
            field = random_field(rng)
            e = e_constant(field, m)
            norm = MagneticField.from_any(field).norm
            for j in sorted(js):
                scaled = [math.ldexp(b, j) for b in field]
                assert e_constant(scaled, m) == math.ldexp(e, j)
                assert MagneticField.from_any(scaled).norm == \
                    math.ldexp(norm, j)

    def test_two_factor_form(self):
        # e(B, w) = |w|^(1/2) * |B| * e(B/|B|, w rescaled to unit area)
        rng = np.random.default_rng(43)
        for _ in range(10):
            section = random_star_polygon(rng)
            field = random_field(rng, scale=2.0)
            nb = np.linalg.norm(field)
            area = moments(section).area
            unit_area = scale_section(section, 1.0 / math.sqrt(area))
            assert moments(unit_area).area == pytest.approx(1.0, rel=1e-13)
            lhs = e_constant(field, section)
            rhs = math.sqrt(area) * nb * e_constant(field / nb, unit_area)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_decomposition_consistency(self):
        # e^2 splits into the gauge term and the forced vertical term
        rng = np.random.default_rng(47)
        sections = [Disc((0.3, -0.2), 1.1), rect(1.5, 0.7),
                    random_star_polygon(rng)]
        for section in sections:
            m = moments(section)
            field = random_field(rng)
            b1, b2, b3 = field
            vertical = b1 * b1 * m.M0 - 2 * b1 * b2 * m.M1 + b2 * b2 * m.M2
            e_sq = (b3 * b3 * min_transverse_norm_sq(m) + vertical) / m.area
            assert e_constant(field, m) ** 2 == pytest.approx(
                e_sq, rel=1e-12, abs=1e-15)

    def test_e_is_l2_norm_of_full_gauge(self, unit_triangle):
        # |w| e^2 = int |A(x)|^2 dx for the assembled optimal gauge,
        # checked by quadrature with no moment formulas involved
        rng = np.random.default_rng(53)
        field = random_field(rng)
        m = moments(unit_triangle)
        L = full_gauge(field, optimal_transverse_gauge(m))
        pts, w = section_nodes(unit_triangle, order=20)
        vals = (pts @ L.T)
        integral = float(np.sum(w * np.sum(vals * vals, axis=1)))
        assert e_constant(field, m) ** 2 == pytest.approx(
            integral / m.area, rel=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(59)
        base = random_star_polygon(rng)
        field = random_field(rng)
        e0 = e_constant(field, base)
        for theta in (0.3, 1.2, 2.5):
            ct, st = math.cos(theta), math.sin(theta)
            R = np.array([[ct, -st], [st, ct]])
            rotated = Polygon(base.vertices @ R.T)
            b_plane = R @ field[:2]
            e1 = e_constant((b_plane[0], b_plane[1], field[2]), rotated)
            assert e1 == pytest.approx(e0, rel=1e-12)


class TestFullGauge:
    def test_structure(self, unit_disc):
        g = optimal_transverse_gauge(unit_disc)
        L = full_gauge((2.0, -1.0, 3.0), g)
        assert L.shape == (3, 2)
        assert np.allclose(L[:2], 3.0 * g.matrix)
        assert np.allclose(L[2], [1.0, 2.0])  # (-b2, b1)

    def test_plane_curl_matches_b3(self):
        g = TransverseGauge(0.2, -0.7, 0.3, 0.1)
        L = full_gauge((0, 0, 2.5), g)
        assert L[1, 0] - L[0, 1] == pytest.approx(2.5, rel=1e-15)

    def test_rejects_inadmissible_gauge(self):
        with pytest.raises(UsageError):
            full_gauge((0, 0, 1), TransverseGauge(0.0, 0.0, 0.5, 0.0))


class TestRayleighUpperBounds:
    def test_small_cone_disc(self):
        for alpha in (math.pi / 6, math.pi / 4):
            for beta in (0.0, math.pi / 4, math.pi / 2):
                r = math.tan(alpha / 2.0)
                res = rayleigh_upper_bounds(
                    (0.0, math.sin(beta), math.cos(beta)), Disc((0, 0), r), 1)
                expected = (3.0 * r * math.sqrt(1 + math.sin(beta) ** 2)
                            / 2.0 ** 1.5)
                assert res.bounds[0][1] == pytest.approx(expected, rel=1e-13)

    def test_linear_ladder(self, unit_disc):
        res = rayleigh_upper_bounds((0, 0, 1), unit_disc, 4)
        assert [n for n, _ in res.bounds] == [1, 2, 3, 4]
        vals = [v for _, v in res.bounds]
        assert vals[1] / vals[0] == pytest.approx(7.0 / 3.0, rel=1e-15)
        for n, v in res.bounds:
            assert v == pytest.approx((4 * n - 1) * res.e, rel=1e-15)

    def test_rectangle_bounds(self):
        l, L = 0.8, 1.7
        field = (0.3, -1.1, 0.9)
        res = rayleigh_upper_bounds(field, rect(l, L), 2)
        e = rect_e(field, l, L)
        assert res.e == pytest.approx(e, rel=1e-12)
        assert res.bounds[1][1] == pytest.approx(7 * e, rel=1e-12)

    def test_json_shape(self, unit_disc):
        doc = rayleigh_upper_bounds((0, 0, 1), unit_disc, 2).to_json_dict()
        assert set(doc) == {"e", "transverseNormSq", "gauge", "bounds"}
        assert doc["gauge"] == [[0.0, -0.5], [0.5, 0.0]]
        assert doc["bounds"] == [[1, 3 * doc["e"]], [2, 7 * doc["e"]]]

    def test_invalid_n(self, unit_disc):
        with pytest.raises(UsageError):
            rayleigh_upper_bounds((0, 0, 1), unit_disc, 0)


class TestReferenceAsymptotics:
    def test_sector_third_pi(self):
        val = sector_asymptotics(math.pi / 3.0)
        assert val == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)),
                                    rel=1e-14)
        assert val == pytest.approx(0.604600, abs=5e-7)

    def test_sector_coefficient(self):
        alpha = 0.02
        assert sector_asymptotics(alpha) == pytest.approx(
            alpha / math.sqrt(3.0), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.0, math.pi / 4, math.pi / 2])
    def test_circular_cone(self, beta):
        alpha = 0.01
        val = circular_cone_asymptotics(alpha, beta=beta)
        expected = (3.0 * math.sqrt(1.0 + math.sin(beta) ** 2)
                    * alpha / 2.0 ** 2.5)
        assert val == pytest.approx(expected, rel=1e-14)

    def test_circular_cone_nth_ladder(self):
        alpha = 0.05
        first = circular_cone_asymptotics(alpha, n=1)
        second = circular_cone_asymptotics(alpha, n=2)
        assert first == circular_cone_asymptotics(alpha)
        assert second / first == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_matches_small_disc_bound(self):
        # the first-order term agrees with the exact disc bound as alpha -> 0
        alpha, beta = 1e-3, math.pi / 4
        r = math.tan(alpha / 2.0)
        exact = rayleigh_upper_bounds(
            (0.0, math.sin(beta), math.cos(beta)),
            Disc((0, 0), r), 1).bounds[0][1]
        lead = circular_cone_asymptotics(alpha, beta=beta)
        assert exact == pytest.approx(lead, rel=1e-5)

    def test_errors(self):
        for asymptotics in (sector_asymptotics, circular_cone_asymptotics):
            with pytest.raises(DomainError):
                asymptotics(-0.1)
            with pytest.raises(DomainError):
                asymptotics(0.0)
        with pytest.raises(UsageError, match="^n must be at least 1$"):
            circular_cone_asymptotics(0.1, n=0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_latitude_is_a_domain_error(self, beta):
        with pytest.raises(DomainError, match="^latitude beta must be finite$"):
            circular_cone_asymptotics(0.1, beta=beta)


class TestMagneticField:
    def test_from_any_roundtrip(self):
        f = MagneticField.from_any([1.0, -2.0, 0.5])
        assert MagneticField.from_any(f) is f
        assert np.array_equal(f.as_array(), [1.0, -2.0, 0.5])
        assert f.norm == pytest.approx(math.sqrt(5.25), rel=1e-15)
