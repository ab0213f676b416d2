"""Robin analogue: explicit model energies and the convex-cone upper bound."""

import math

import numpy as np
import pytest

from conebounds import (BoundaryProfile, Disc, DomainError, Polygon,
                        UsageError, centroid, moments, robin_best_axis_bound,
                        robin_cone_upper_bound, robin_scaling_exponent,
                        robin_wedge_energy)

from conftest import quad_robin_bound, random_star_polygon

SQUARE = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
TRIANGLE = Polygon([(0.0, 0.0), (3.0, 0.0), (0.5, 1.5)])
PENTAGON = Polygon([(math.cos(t), math.sin(t))
                    for t in np.linspace(0.0, 2.0 * math.pi, 5,
                                         endpoint=False) + 0.3])


def circular_cone_section(alpha):
    """Plane section of the circular cone with opening alpha."""
    return Disc(center=(0.0, 0.0), radius=math.tan(alpha / 2.0))


class TestModelEnergies:
    def test_right_wedge(self):
        # -1/sin^2(pi/4) = -2
        assert robin_wedge_energy(math.pi / 2.0) == pytest.approx(
            -2.0, rel=1e-14)

    def test_flat_wedge_is_half_space(self):
        assert robin_wedge_energy(math.pi) == -1.0

    def test_reflex_branch_is_flat(self):
        assert robin_wedge_energy(1.5 * math.pi) == -1.0
        assert robin_wedge_energy(1.9 * math.pi) == -1.0

    def test_continuity_at_pi(self):
        below = robin_wedge_energy(math.pi - 1e-7)
        above = robin_wedge_energy(math.pi + 1e-7)
        assert below == pytest.approx(-1.0, abs=1e-6)
        assert above == -1.0

    def test_monotone_blowup_for_sharp_wedges(self):
        alphas = np.linspace(0.1, math.pi, 40)
        vals = [robin_wedge_energy(a) for a in alphas]
        assert all(v <= -1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert robin_wedge_energy(0.01) < -4e4

    def test_alpha_out_of_range(self):
        for bad in (0.0, -0.3, 2.0 * math.pi, 7.0):
            with pytest.raises(DomainError):
                robin_wedge_energy(bad)


class TestProfileConstruction:
    def test_centered_disc_profile_is_constant(self):
        # one (radius, offset) row; offset 0 is the constant polar profile
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=1.7))
        assert prof.disc
        assert prof.pieces.tolist() == [[1.7, 0.0]]

    def test_off_center_disc_profile(self):
        disc = Disc(center=(0.3, -0.1), radius=1.0)
        prof = BoundaryProfile.from_disc(disc, axis=(0.0, 0.0))
        (radius, offset), = prof.pieces
        assert radius == 1.0
        assert offset == pytest.approx(math.hypot(0.3, 0.1), rel=1e-15)

    def test_square_profile_has_one_piece_per_edge(self):
        prof = BoundaryProfile.from_polygon(SQUARE)
        assert not prof.disc
        assert prof.pieces.shape == (4, 2)
        assert prof.pieces[:, 0].sum() == pytest.approx(8.0, rel=1e-15)

    def test_square_profile_values(self):
        # about the centre every edge has length 2 at distance 1; the axis
        # (0.5, 0) moves the right edge closer and the left one away
        prof = BoundaryProfile.from_polygon(SQUARE, axis=(0.0, 0.0))
        assert prof.pieces.tolist() == [[2.0, 1.0]] * 4
        shifted = BoundaryProfile.from_polygon(SQUARE, axis=(0.5, 0.0))
        assert np.allclose(shifted.pieces[:, 1], [1.0, 0.5, 1.0, 1.5],
                           rtol=1e-15)

    def test_polygon_profile_hits_vertices(self):
        # each row's edge joins consecutive vertices: its length is their
        # distance and h the height of the triangle (centroid, v_i, v_i+1)
        tri = Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
        prof = BoundaryProfile.from_polygon(tri)
        c = centroid(tri)
        for (length, h), p, q in zip(prof.pieces, tri.vertices,
                                     np.roll(tri.vertices, -1, axis=0)):
            assert length == pytest.approx(math.dist(p, q), rel=1e-15)
            (ux, uy), (wx, wy) = p - c, q - c
            twice_area = abs(ux * wy - uy * wx)
            assert h == pytest.approx(twice_area / length, rel=1e-14)

    def test_star_polygons_about_centroid(self):
        # the fan of triangles about the axis: sum(length * h) = 2 * area
        rng = np.random.default_rng(11)
        for _ in range(10):
            poly = random_star_polygon(rng, n_vertices=7)
            length, h = BoundaryProfile.from_polygon(poly).pieces.T
            assert np.all(h > 0.0)
            assert length @ h == pytest.approx(2.0 * moments(poly).area,
                                               rel=1e-13)

    def test_nonconvex_polygon_bad_axis(self):
        # arrow: centroid sits outside the star-shaped kernel of the notch
        arrow = Polygon([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0), (0.0, 4.0)])
        with pytest.raises(DomainError):
            BoundaryProfile.from_polygon(arrow, axis=(2.0, 2.0))

    def test_axis_on_polygon_vertex(self):
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(DomainError):
            BoundaryProfile.from_polygon(square, axis=(1.0, 1.0))

    def test_axis_outside_polygon(self):
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(DomainError):
            BoundaryProfile.from_polygon(square, axis=(3.0, 0.0))

    def test_disc_axis_on_or_outside_rim(self):
        disc = Disc(center=(0.0, 0.0), radius=1.0)
        for axis in ((1.0, 0.0), (1.5, 0.0)):
            with pytest.raises(DomainError):
                BoundaryProfile.from_disc(disc, axis=axis)

    def test_axis_shape_checked(self):
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(UsageError):
            BoundaryProfile.from_polygon(square, axis=(1.0, 2.0, 3.0))

    def test_from_section_dispatch(self):
        assert len(BoundaryProfile.from_section(
            Disc(center=(0.0, 0.0), radius=1.0)).pieces) == 1
        tri = Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
        assert len(BoundaryProfile.from_section(tri).pieces) == 3
        with pytest.raises(UsageError):
            BoundaryProfile.from_section("disc")

    def test_scaled_profile(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=2.0))
        small = prof.scaled(0.25)
        assert small.disc
        assert small.pieces.tolist() == [[0.5, 0.0]]
        tri = BoundaryProfile.from_polygon(TRIANGLE)
        assert np.array_equal(tri.scaled(0.5).pieces, 0.5 * tri.pieces)
        with pytest.raises(DomainError):
            prof.scaled(0.0)


class TestConeUpperBound:
    def test_circular_cone_closed_form(self):
        # constant b = tan(alpha/2): sigma = 1/sin(alpha/2) and the
        # averages collapse, so the bound is exactly -1/sin(alpha/2)^2
        for alpha in (math.pi / 6.0, math.pi / 3.0, math.pi / 2.0):
            prof = BoundaryProfile.from_section(circular_cone_section(alpha))
            want = -1.0 / math.sin(alpha / 2.0) ** 2
            assert robin_cone_upper_bound(prof) == pytest.approx(want,
                                                                 rel=1e-10)

    def test_right_circular_cone_matches_right_wedge_value(self):
        prof = BoundaryProfile.from_section(
            circular_cone_section(math.pi / 2.0))
        assert robin_cone_upper_bound(prof) == pytest.approx(-2.0, rel=1e-10)

    def test_square_below_half_space(self):
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        bound = robin_cone_upper_bound(BoundaryProfile.from_polygon(square))
        assert bound <= -1.0

    def test_always_below_half_space(self):
        # sigma >= 1 pointwise, so the averaged quotient is >= 1
        rng = np.random.default_rng(23)
        sections = [Disc(center=(0.0, 0.0), radius=0.3),
                    Disc(center=(0.2, -0.5), radius=2.0),
                    Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])]
        sections += [random_star_polygon(rng, n_vertices=6)
                     for _ in range(5)]
        for section in sections:
            prof = BoundaryProfile.from_section(section)
            assert robin_cone_upper_bound(prof) <= -1.0

    def test_rotation_invariance(self):
        tri = Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
        base = robin_cone_upper_bound(BoundaryProfile.from_polygon(tri))
        for theta in (0.4, 1.9, 3.5):
            c, s = math.cos(theta), math.sin(theta)
            rot = Polygon([(c * x - s * y, s * x + c * y)
                           for x, y in [(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)]])
            val = robin_cone_upper_bound(BoundaryProfile.from_polygon(rot))
            assert val == pytest.approx(base, rel=1e-12)

    def test_off_center_axis_same_disc(self):
        # same geometric cone, different parametrization axis: the bound is
        # axis-dependent but must stay a valid upper bound below -1, and it
        # improves (falls) away from the symmetric axis, since
        # oint sqrt(1 + h^2) ds is convex in the axis and even about the centre
        disc = Disc(center=(0.0, 0.0), radius=1.0)
        centered = robin_cone_upper_bound(BoundaryProfile.from_disc(disc))
        shifted = robin_cone_upper_bound(
            BoundaryProfile.from_disc(disc, axis=(0.4, 0.0)))
        assert shifted <= -1.0
        assert centered == pytest.approx(-2.0, rel=1e-10)
        assert shifted <= centered + 1e-12

    def test_shrinking_sections_blow_up(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=1.0))
        vals = [robin_cone_upper_bound(prof.scaled(eps))
                for eps in (1.0, 0.5, 0.25)]
        assert vals[0] > vals[1] > vals[2]
        # constant profile: bound(eps) = -(1 + 1/eps^2) exactly
        assert vals[2] == pytest.approx(-17.0, rel=1e-10)


class TestQuadratureOracle:
    """The edge sums and the rim trapezoid rule against adaptive quadrature
    of the polar profile (``conftest.quad_robin_bound``)."""

    EPSILONS = (1.0, 0.3, 0.05)

    def check(self, section, axis=None):
        prof = BoundaryProfile.from_section(section, axis=axis)
        for eps in self.EPSILONS:
            got = robin_cone_upper_bound(prof.scaled(eps))
            want = quad_robin_bound(section, axis=axis, eps=eps)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("section", [SQUARE, TRIANGLE, PENTAGON],
                             ids=["square", "triangle", "pentagon"])
    def test_polygons_about_centroid_and_shifted(self, section):
        self.check(section)
        self.check(section, axis=centroid(section) + (0.1, -0.05))

    def test_random_star_polygons(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            self.check(random_star_polygon(rng, n_vertices=7))

    @pytest.mark.parametrize("center, radius, axis", [
        ((0.0, 0.0), 1.0, None), ((0.5, -0.2), 0.7, None),
        ((0.5, -0.2), 1.0, (0.3, 0.0)), ((0.5, -0.2), 1.0, (0.5, 0.79)),
        ((0.0, 0.0), 100.0, (99.0, 0.0))])
    def test_discs(self, center, radius, axis):
        self.check(Disc(center=center, radius=radius), axis=axis)


class TestScalingExponent:
    def test_small_disc_ladder(self):
        # |bound(eps)| = 1 + 1/(eps*R)^2; R small keeps the additive 1
        # from polluting the slope
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=0.2))
        expo = robin_scaling_exponent(prof, [1.0, 0.5, 0.25, 0.1])
        assert expo == pytest.approx(-2.0, abs=0.05)

    def test_small_square_ladder(self):
        square = Polygon([(-0.2, -0.2), (0.2, -0.2), (0.2, 0.2), (-0.2, 0.2)])
        prof = BoundaryProfile.from_polygon(square)
        expo = robin_scaling_exponent(prof, [1.0, 0.5, 0.25, 0.1])
        assert expo == pytest.approx(-2.0, abs=0.1)

    def test_exponent_sharpens_for_smaller_sections(self):
        ladder = [1.0, 0.5, 0.25, 0.1]
        expos = []
        for radius in (1.0, 0.3, 0.1):
            prof = BoundaryProfile.from_disc(
                Disc(center=(0.0, 0.0), radius=radius))
            expos.append(robin_scaling_exponent(prof, ladder))
        diffs = [abs(e + 2.0) for e in expos]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 0.01

    def test_too_few_points(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=0.2))
        with pytest.raises(UsageError):
            robin_scaling_exponent(prof, [1.0, 0.1])

    def test_degenerate_ladder(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=0.2))
        with pytest.raises(UsageError):
            robin_scaling_exponent(prof, [1.0, 1.0, 1.0])

    def test_narrow_ladder(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=0.2))
        with pytest.raises(UsageError):
            robin_scaling_exponent(prof, [1.0, 0.7, 0.5])

    def test_nonpositive_epsilon(self):
        prof = BoundaryProfile.from_disc(Disc(center=(0.0, 0.0), radius=0.2))
        with pytest.raises(DomainError):
            robin_scaling_exponent(prof, [1.0, 0.5, -0.1])


def scan_bound(polygon, n=301):
    """Least bound over an ``n x n`` grid on the bounding box, computed
    straight from the vertices, skipping axes the polygon is not
    star-shaped about."""
    v = polygon.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n),
                         np.linspace(lo[1], hi[1], n))
    p = np.column_stack([gx.ravel(), gy.ravel()])
    d = np.roll(v, -1, axis=0) - v
    length = np.hypot(d[:, 0], d[:, 1])
    rel = p[:, None, :] - v[None, :, :]
    h = (d[:, 0] * rel[..., 1] - d[:, 1] * rel[..., 0]) / length
    inside = np.all(h > 0.0, axis=1)
    ratio = (np.sqrt(1.0 + h[inside] ** 2) @ length) / (h[inside] @ length)
    return -float(np.max(ratio)) ** 2


class TestBestAxis:
    def test_never_worse_than_centroid(self):
        rng = np.random.default_rng(7)
        polys = [SQUARE, TRIANGLE, PENTAGON]
        polys += [random_star_polygon(rng, n_vertices=6) for _ in range(3)]
        for poly in polys:
            best, axis = robin_best_axis_bound(poly)
            assert np.asarray(axis).shape == (2,)
            centroid_bound = robin_cone_upper_bound(
                BoundaryProfile.from_polygon(poly))
            assert best <= centroid_bound + 1e-12
            assert best <= scan_bound(poly) + 1e-12
        # the arrow's centroid lies outside its kernel; the scan still holds
        arrow = Polygon([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0), (0.0, 4.0)])
        assert robin_best_axis_bound(arrow)[0] <= scan_bound(arrow) + 1e-12

    def test_square_optimum_is_minus_golden_ratio_squared(self):
        # about a corner: two edges at distance 0 and two at distance 2
        best, axis = robin_best_axis_bound(SQUARE)
        assert best == pytest.approx(-2.618033988749895, rel=1e-12)
        assert np.abs(axis).tolist() == [1.0, 1.0]

    def test_triangle_optimum(self):
        # about the vertex (3, 0) two edges pass through the axis and the
        # third lies 4.5 / sqrt(2.5) away; 2 * area = 4.5
        best, axis = robin_best_axis_bound(TRIANGLE)
        want = (3.0 + math.sqrt(8.5) + math.sqrt(2.5 + 4.5 ** 2)) / 4.5
        assert best == pytest.approx(-want * want, rel=1e-14)
        assert axis.tolist() == [3.0, 0.0]

    def test_disc_optimum_is_on_the_rim(self):
        # the bound falls as the axis moves out, so the limit on the rim
        # is the least: h = R (1 + cos psi) there
        from scipy.integrate import quad

        disc = Disc(center=(0.5, -0.2), radius=1.0)
        best, axis = robin_best_axis_bound(disc)
        mean = quad(lambda t: math.sqrt(1.0 + (1.0 + math.cos(t)) ** 2),
                    0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13)[0] \
            / (2.0 * math.pi)
        assert best == pytest.approx(-mean * mean, rel=1e-14)
        assert best == pytest.approx(-2.2897, abs=1e-4)
        assert math.dist(axis, disc.center) == pytest.approx(1.0, rel=1e-15)
        inner = robin_cone_upper_bound(
            BoundaryProfile.from_disc(disc, axis=(1.49, -0.2)))
        assert best < inner < robin_cone_upper_bound(
            BoundaryProfile.from_disc(disc))

    def test_not_star_shaped(self):
        # a U: the inner sides of its two arms face each other
        u = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (2.0, 3.0),
                     (2.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)])
        with pytest.raises(DomainError):
            robin_best_axis_bound(u)
