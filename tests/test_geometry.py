"""Sections, exact moments, tangent substructures, spherical projection."""

import math
from collections import Counter

import numpy as np
import pytest

from conebounds import (BoundaryProfile, Disc, DomainError, GeometryError,
                        Polygon, UsageError, centroid,
                        circular_cone_asymptotics, concentration_threshold,
                        cone_faces, cylinder_energy, disc_moments, e_constant,
                        essential_spectrum_limit, exact_reduced_spectrum,
                        fd_halfline_spectrum, moments, polygon_moments,
                        rayleigh_upper_bounds, scale_section,
                        section_from_json, sector_asymptotics,
                        spherical_vertex_opening, truncated_domain_edges)
from conebounds.cli import RunConfig, execute_config
from conftest import (ScalarPolygon, project_P, projection_jacobian,
                      quad_moments, random_star_polygon, section_nodes)


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0)])

    def test_zero_area(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (2, 0)])

    def test_repeated_vertex(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_near_coincident_vertices_within_tolerance(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (1 + 1e-14, 1e-14), (0, 1)])

    def test_self_intersection(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie

    def test_spike(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (2, 0), (1, 0), (1, 1)])

    def test_nonfinite(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (np.inf, 0), (0, 1)])

    def test_clockwise_input_reversed(self):
        ccw = Polygon([(0, 0), (1, 0), (0, 1)])
        cw = Polygon([(0, 0), (0, 1), (1, 0)])
        assert not ccw.reoriented
        assert cw.reoriented
        assert np.allclose(sorted(map(tuple, cw.vertices)),
                           sorted(map(tuple, ccw.vertices)))
        m1, m2 = polygon_moments(ccw), polygon_moments(cw)
        assert m1.area == m2.area > 0

    def test_nonconvex_polygon_accepted(self):
        arrow = Polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
        assert arrow.n_vertices == 5
        assert polygon_moments(arrow).area > 0

    def test_disc_validation(self):
        with pytest.raises(GeometryError):
            Disc((0, 0), 0.0)
        with pytest.raises(GeometryError):
            Disc((0, 0), -1.0)
        with pytest.raises(GeometryError):
            Disc((np.nan, 0), 1.0)


def validation_outcome(cls, vertices) -> str:
    """``"ok"`` or the ``GeometryError`` message of building ``cls(vertices)``."""
    try:
        cls(vertices)
    except GeometryError as exc:
        return str(exc)
    return "ok"


class TestPolygonValidationAgainstScalarOracle:
    def test_seeded_polygons_match_the_scalar_loops(self):
        # a third on a 5x5 integer lattice, where collinear and touching
        # edges are common; a third uniform; a third star polygons, half
        # of them with two vertices swapped
        rng = np.random.default_rng(9)
        kinds = Counter()
        for k in range(2400):
            n = int(rng.integers(3, 11))
            if k % 3 == 0:
                v = rng.integers(0, 5, size=(n, 2)).astype(float)
            elif k % 3 == 1:
                v = rng.uniform(-1.0, 1.0, size=(n, 2))
            else:
                th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
                r = rng.uniform(0.3, 1.2, n)
                v = np.column_stack([r * np.cos(th), r * np.sin(th)])
                if k % 2:
                    a, b = rng.integers(0, n, 2)
                    v[[a, b]] = v[[b, a]]
            want = validation_outcome(ScalarPolygon, v)
            assert validation_outcome(Polygon, v) == want, v.tolist()
            kinds[want.split(" (")[0].split(" at vertex")[0]] += 1
        # every branch of both checks was reached, accepting and rejecting
        assert kinds["ok"] >= 500
        assert kinds["zero-angle spike"] >= 100
        assert kinds["boundary self-intersects"] >= 500

    @pytest.mark.parametrize("vertices, message", [
        # vertex 3 lies on edge 0
        ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], "edges 0 and 2"),
        # edge 3 lies along edge 0
        ([(0, 0), (4, 0), (4, 1), (3, 0), (1, 0), (0, 1)], "edges 0 and 2"),
        ([(2, 0), (5, 0), (4, 1), (4, 0), (0, 0), (1, -2)], "edges 0 and 2"),
        ([(0, 0), (2, 2), (2, 0), (0, 1)], "edges 0 and 2"),   # bowtie
        ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 0)], "spike at vertex 0"),
        ([(2, 0), (2, 1), (1, 1), (1, 0), (0, 0)], "spike at vertex 4"),
    ])
    def test_touching_overlapping_spikes_and_bowtie(self, vertices, message):
        got = validation_outcome(Polygon, vertices)
        assert message in got
        assert got == validation_outcome(ScalarPolygon, vertices)

    def test_4096_vertex_star_accepted_and_its_crossing_variant_rejected(self):
        th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        r = 1.0 + 0.3 * np.cos(7.0 * th)
        v = np.column_stack([r * np.cos(th), r * np.sin(th)])
        assert Polygon(v).n_vertices == 4096
        v[[2048, 2049]] = v[[2049, 2048]]
        with pytest.raises(GeometryError,
                           match=r"self-intersects \(edges 2047 and 2049\)"):
            Polygon(v)


class TestPolygonMoments:
    def test_centered_square(self, centered_square):
        m = polygon_moments(centered_square)
        assert m.area == pytest.approx(4.0, abs=1e-15)
        assert m.m0 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m.m1 == pytest.approx(0.0, abs=1e-15)
        assert m.m2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_unit_triangle(self, unit_triangle):
        m = polygon_moments(unit_triangle)
        assert m.area == pytest.approx(0.5, abs=1e-15)
        assert m.M0 == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert m.M1 == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert m.M2 == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert m.m0 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert m.m1 == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_triangle_against_quadrature_oracle(self, unit_triangle):
        area, q0, q1, q2 = quad_moments(unit_triangle)
        m = polygon_moments(unit_triangle)
        assert m.area == pytest.approx(area, rel=1e-13)
        assert m.M0 == pytest.approx(q0, rel=1e-13)
        assert m.M1 == pytest.approx(q1, rel=1e-13)
        assert m.M2 == pytest.approx(q2, rel=1e-13)

    def test_recentered_rectangle_has_zero_m1(self):
        # [0,2]x[0,4] translated to the origin: reflection symmetry across
        # both axes forces the mixed moment to vanish
        rect = Polygon([(x - 1.0, y - 2.0)
                        for x, y in [(0, 0), (2, 0), (2, 4), (0, 4)]])
        assert abs(polygon_moments(rect).m1) <= 1e-14

    def test_reflection_symmetric_polygon_has_zero_m1(self):
        # symmetric under x1 -> -x1; x1*x2 is odd under that map
        pent = Polygon([(-1, 0), (1, 0), (1.5, 1), (0, 2), (-1.5, 1)])
        assert abs(polygon_moments(pent).m1) <= 1e-14

    def test_central_symmetry_alone_does_not_kill_m1(self):
        # the antipodal map leaves x1*x2 invariant, so a tilted centrally
        # symmetric hexagon keeps a genuinely nonzero mixed moment
        hexagon = [(1.3, 0.2), (0.4, 1.1), (-0.9, 0.8)]
        hexagon += [(-x, -y) for x, y in hexagon]
        m = polygon_moments(Polygon(hexagon))
        _, _, q1, _ = quad_moments(Polygon(hexagon))
        assert m.M1 == pytest.approx(q1, rel=1e-12)
        assert abs(m.m1) > 1e-3

    def test_random_polygons_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            poly = random_star_polygon(rng, n_vertices=7)
            area, q0, q1, q2 = quad_moments(poly)
            m = polygon_moments(poly)
            assert m.area == pytest.approx(area, rel=1e-12)
            assert m.M0 == pytest.approx(q0, rel=1e-12, abs=1e-13)
            assert m.M1 == pytest.approx(q1, rel=1e-12, abs=1e-13)
            assert m.M2 == pytest.approx(q2, rel=1e-12, abs=1e-13)


class TestDiscMoments:
    def test_centered_unit_disc(self, unit_disc):
        m = disc_moments(unit_disc)
        assert m.area == pytest.approx(math.pi, rel=1e-15)
        assert m.m0 == pytest.approx(0.25, rel=1e-15)
        assert m.m1 == 0.0
        assert m.m2 == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 3, math.pi / 2])
    def test_small_cone_disc_area(self, alpha):
        r = math.tan(alpha / 2.0)
        m = disc_moments(Disc((0, 0), r))
        assert m.area == pytest.approx(math.pi * r * r, rel=1e-15)

    def test_offcenter_closed_form(self):
        c1, c2, r = 0.7, -0.4, 1.3
        m = disc_moments(Disc((c1, c2), r))
        assert m.m0 == pytest.approx(r * r / 4.0 + c2 * c2, rel=1e-14)
        assert m.m1 == pytest.approx(c1 * c2, rel=1e-14)
        assert m.m2 == pytest.approx(r * r / 4.0 + c1 * c1, rel=1e-14)

    def test_offcenter_against_quadrature_oracle(self):
        disc = Disc((0.7, -0.4), 1.3)
        area, q0, q1, q2 = quad_moments(disc)
        m = disc_moments(disc)
        assert m.area == pytest.approx(area, rel=1e-12)
        assert m.M0 == pytest.approx(q0, rel=1e-12)
        assert m.M1 == pytest.approx(q1, rel=1e-12)
        assert m.M2 == pytest.approx(q2, rel=1e-12)


@pytest.mark.parametrize("section", [
    Disc((0.7, -0.4), 1.3),
    Polygon([(0.3, 0.2), (2.1, 0.5), (1.7, 1.9), (0.9, 1.1), (0.2, 1.4)]),
], ids=["disc", "polygon"])
def test_moments_are_python_floats(section):
    m = moments(section)
    assert [type(v) for v in (m.area, m.M0, m.M1, m.M2)] == [float] * 4


class TestMomentInvariants:
    def test_positivity_and_gram_sign(self):
        rng = np.random.default_rng(11)
        sections = [random_star_polygon(rng, n_vertices=k) for k in (4, 5, 8)]
        sections += [Disc(rng.uniform(-1, 1, 2), rng.uniform(0.2, 2.0))
                     for _ in range(3)]
        for s in sections:
            m = moments(s)
            assert m.area > 0
            assert m.m0 > 0 and m.m2 > 0
            assert m.m0 * m.m2 - m.m1 * m.m1 >= -1e-15 * m.m0 * m.m2

    def test_translation_matches_quadrature_oracle(self, unit_triangle):
        shifted = Polygon(unit_triangle.vertices + np.array([0.8, -1.1]))
        area, q0, q1, q2 = quad_moments(shifted)
        m = polygon_moments(shifted)
        assert m.area == pytest.approx(area, rel=1e-13)
        assert m.M0 == pytest.approx(q0, rel=1e-13)
        assert m.M1 == pytest.approx(q1, rel=1e-13)
        assert m.M2 == pytest.approx(q2, rel=1e-13)

    def test_gram_identity_double_integral(self, unit_disc, centered_square,
                                           unit_triangle):
        # M0*M2 - M1^2 = (1/2) * iint (x1 x2' - x1' x2)^2 over w x w
        from conftest import section_nodes
        for section in (unit_disc, centered_square, unit_triangle):
            pts, w = section_nodes(section, order=20)
            x1, x2 = pts[:, 0], pts[:, 1]
            cross = x1[:, None] * x2[None, :] - x1[None, :] * x2[:, None]
            dbl = 0.5 * float(np.einsum("i,j,ij->", w, w, cross * cross))
            m = moments(section)
            gram = m.M0 * m.M2 - m.M1 * m.M1
            assert gram == pytest.approx(dbl, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 2.0, 10.0])
    def test_scaling_law(self, eps, centered_square, unit_disc):
        for s in (centered_square, unit_disc):
            m = moments(s)
            ms = moments(scale_section(s, eps))
            assert ms.area == pytest.approx(eps ** 2 * m.area, rel=1e-14)
            for k in ("m0", "m1", "m2"):
                assert getattr(ms, k) == pytest.approx(
                    eps ** 2 * getattr(m, k), rel=1e-13, abs=1e-16)

    @pytest.mark.parametrize("section", [
        Polygon(1e77 * np.array([(0, 0), (1, 0), (1, 1), (0, 1)])),
        Disc((0.0, 0.0), 1e160)])
    def test_overflowing_moments_are_a_geometry_error(self, section):
        # M1 of the square is inf and the disc's area is inf; every bound
        # read from them would be nan
        with pytest.raises(GeometryError, match="moments overflow"):
            moments(section)

    def test_side_1e200_square_is_an_overflow(self):
        # its shoelace area is inf: too large, not numerically zero
        with pytest.raises(GeometryError, match="moments overflow"):
            Polygon(1e200 * np.array([(0, 0), (1, 0), (1, 1), (0, 1)]))

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1e157, 1e156], [0, 1e150]],
        [[-1e308, 0], [1e308, 0], [0, 1e308]]])
    def test_diameter_too_large_for_the_corner_tests(self, vertices):
        # the first has a finite area, but the spike and crossing tests
        # multiply coordinate differences of up to 1e157; the second spans
        # more than the float range.  Both are rejected before anything
        # overflows (no numpy warning)
        with pytest.raises(GeometryError, match="^section moments overflow"):
            Polygon(vertices)

    def test_diameter_below_the_overflow_limit_builds(self):
        # 2 diam^2 = 2e306 is finite
        p = Polygon([[0, 0], [1e153, 1e152], [0, 1e150]])
        assert p.n_vertices == 3

    def test_side_1e76_square_keeps_its_bound(self):
        # [0, s]^2 under the axial field: e = sqrt(7/96) s
        s = 1e76
        square = Polygon(s * np.array([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert e_constant((0, 0, 1), square) == pytest.approx(
            math.sqrt(7.0 / 96.0) * s, rel=1e-15)


class TestScaleSection:
    def test_unit_disc_doubled(self, unit_disc):
        m = moments(scale_section(unit_disc, 2.0))
        assert m.m0 == pytest.approx(1.0, rel=1e-15)

    def test_square_halved(self, centered_square):
        m = moments(scale_section(centered_square, 0.5))
        assert m.m0 == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_identity_scale(self, unit_triangle):
        s = scale_section(unit_triangle, 1.0)
        assert np.array_equal(s.vertices, unit_triangle.vertices)

    def test_bad_scale(self, unit_disc):
        with pytest.raises(GeometryError):
            scale_section(unit_disc, 0.0)
        with pytest.raises(GeometryError):
            scale_section(unit_disc, -2.0)


_SQUARE = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
_SQUARE_JSON = {"polygon": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
_DISC = Disc((0.0, 0.0), 1.0)


def _sweep_bound(eps):
    return execute_config(RunConfig(
        command="sweep.bound", section=_SQUARE_JSON,
        field_components=(0.0, 0.0, 1.0), epsilons=(eps,)))


class TestInputChecks:
    """Every site of the positive-number rule, the count rule and the
    polygon-only rule raises its own exception class and message."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call, error, message", [
        (lambda x: scale_section(_SQUARE, x), GeometryError,
         "scale factor must be positive"),
        (_sweep_bound, GeometryError, "scale factor must be positive"),
        (lambda x: Disc((0.0, 0.0), x), GeometryError,
         "disc radius must be positive"),
        (lambda x: concentration_threshold((0, 0, 1), _SQUARE, 1.0)(x),
         DomainError, "eps must be positive"),
        (lambda x: truncated_domain_edges(_SQUARE, x), DomainError,
         "eps must be positive"),
        (lambda x: BoundaryProfile.from_section(_SQUARE).scaled(x),
         DomainError, "eps must be positive"),
        (exact_reduced_spectrum, DomainError, "lam must be positive"),
        (fd_halfline_spectrum, DomainError, "lam must be positive"),
        (sector_asymptotics, DomainError, "opening alpha must be positive"),
        (circular_cone_asymptotics, DomainError,
         "opening alpha must be positive"),
    ])
    def test_positive_number(self, call, error, message, value):
        with pytest.raises(DomainError) as info:
            call(value)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: rayleigh_upper_bounds((0, 0, 1), _SQUARE, 0),
         "n_max must be at least 1"),
        (lambda: exact_reduced_spectrum(1.0, 0), "n_max must be at least 1"),
        (lambda: fd_halfline_spectrum(1.0, 0), "n_max must be at least 1"),
        (lambda: circular_cone_asymptotics(0.1, n=0), "n must be at least 1"),
        (lambda: cylinder_energy((0, 0, 1), _DISC, 0.5),
         "cylinder estimates need a polygonal section"),
        (lambda: essential_spectrum_limit((0, 0, 1), _DISC, [0.1], 0.5),
         "essential spectrum estimates need a polygonal section"),
        (lambda: truncated_domain_edges(_DISC, 0.1),
         "edge reports need a polygonal section"),
    ])
    def test_count_and_polygon_only(self, call, message):
        with pytest.raises(UsageError) as info:
            call()
        assert type(info.value) is UsageError
        assert str(info.value) == message


class TestCentroid:
    def test_square(self, centered_square):
        assert np.allclose(centroid(centered_square), [0.0, 0.0])

    def test_triangle(self, unit_triangle):
        assert np.allclose(centroid(unit_triangle), [1 / 3, 1 / 3])

    def test_disc(self):
        assert np.allclose(centroid(Disc((0.3, -0.7), 2.0)), [0.3, -0.7])


class TestSectionQuadrature:
    """The test oracle's section rules: polar grid and signed triangle fan."""

    def test_disc_area_and_moment(self, unit_disc):
        pts, w = section_nodes(unit_disc, order=10)
        assert float(np.sum(w)) == pytest.approx(math.pi, rel=1e-12)
        assert float(np.sum(w * pts[:, 0] ** 2)) == pytest.approx(
            math.pi / 4, rel=1e-12)

    def test_nonconvex_polygon_area(self):
        arrow = Polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
        pts, w = section_nodes(arrow, order=16)
        assert float(np.sum(w)) == pytest.approx(
            polygon_moments(arrow).area, rel=1e-12)


def edge_openings(polygon, eps):
    """Every cone-edge opening, one ``spherical_vertex_opening`` each."""
    return np.array([spherical_vertex_opening(polygon, i, eps)
                     for i in range(polygon.n_vertices)])


def plane_corner_angle(polygon, i):
    """Interior angle at vertex ``i``, swept counterclockwise from the edge
    to the next vertex to the edge to the previous one."""
    v = polygon.vertices.tolist()
    (px, py), (x, y), (nx, ny) = (v[i - 1], v[i],
                                  v[(i + 1) % polygon.n_vertices])
    ux, uy, wx, wy = px - x, py - y, nx - x, ny - y
    return math.atan2(wx * uy - wy * ux, wx * ux + wy * uy) % (2 * math.pi)


class TestTangentSubstructures:
    # the reference cylinder over the section is the cone at eps = 0: one
    # vertical half-space per side, one wedge per corner at the plane angle
    def test_square_inventory(self, centered_square):
        faces = cone_faces(centered_square, 0)
        ops = edge_openings(centered_square, 0)
        assert faces.shape == (4, 3) and ops.shape == (4,)
        assert ops == pytest.approx([math.pi / 2] * 4, abs=1e-12)
        assert np.all(faces[:, 2] == 0.0)
        assert np.linalg.norm(faces, axis=1) == pytest.approx(
            [1.0] * 4, abs=1e-14)

    def test_square_outward_normals(self, centered_square):
        faces = cone_faces(centered_square, 0)
        normals = sorted((round(nx, 12), round(ny, 12))
                         for nx, ny, _ in faces.tolist())
        assert normals == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]

    def test_triangle_openings(self, unit_triangle):
        ops = sorted(edge_openings(unit_triangle, 0))
        assert ops == pytest.approx([math.pi / 4, math.pi / 4, math.pi / 2],
                                    abs=1e-12)

    def test_hexagon_openings(self):
        phi = 2.0 * np.pi * np.arange(6) / 6.0
        hexa = Polygon(np.column_stack([np.cos(phi), np.sin(phi)]))
        assert edge_openings(hexa, 0) == pytest.approx(
            [2 * math.pi / 3] * 6, abs=1e-12)

    def test_reflex_corner_opening(self):
        arrow = Polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
        ops = edge_openings(arrow, 0)
        assert any(op > math.pi for op in ops)
        assert sum(ops) == pytest.approx((5 - 2) * math.pi, abs=1e-9)

    def test_straight_corner_opens_to_pi(self, centered_square):
        # vertex 1 sits between collinear neighbours: the section is valid,
        # the two cone faces over its sides are coplanar, the edge is flat
        flat = Polygon([(-1, -1), (0, -1), (1, -1), (1, 1), (-1, 1)])
        for eps in (0.0, 0.05, 0.3, 1.2):
            got = edge_openings(flat, eps)
            assert got[1] == pytest.approx(math.pi, abs=1e-12)
            assert np.delete(got, 1) == pytest.approx(
                edge_openings(centered_square, eps), abs=1e-12)

    def test_zero_angle_corner_still_raises(self):
        # a spike 1e-10 wide at vertex 4: simple, so Polygon accepts it,
        # but its tip has no tangent wedge
        spiky = Polygon([(0, 0), (1, 0), (1, 1), (0.5 + 1e-10, 1), (0.5, 3),
                         (0.5, 1), (0, 1)])
        for eps in (0.0, 0.3):
            with pytest.raises(GeometryError, match="vertex 4"):
                spherical_vertex_opening(spiky, 4, eps)
        with pytest.raises(GeometryError, match="vertex 4"):
            truncated_domain_edges(spiky, 0.3)

    def test_lateral_edges_are_the_vertex_openings(self):
        # truncated_domain_edges reads all openings in one pass; each equals
        # the one-vertex opening bit for bit
        rng = np.random.default_rng(9)
        for _ in range(20):
            poly = random_star_polygon(rng, int(rng.integers(3, 9)))
            for eps in (1.0, 0.3, 0.01):
                lateral = [op for _, op in
                           truncated_domain_edges(poly, eps).lateral]
                assert lateral == edge_openings(poly, eps).tolist()


class TestProjectP:
    def test_apex_direction(self):
        assert np.allclose(project_P((0.0, 0.0), 1.0), [0, 0, 1])

    def test_diagonal_point(self):
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(project_P((1.0, 0.0), 1.0), [s, 0, s], atol=1e-15)

    def test_norm_equals_t(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xp = rng.uniform(-2, 2, 2)
            t = rng.uniform(0.1, 5.0)
            assert np.linalg.norm(project_P(xp, t)) == pytest.approx(
                t, rel=1e-14)

    def test_invalid_t(self):
        with pytest.raises(GeometryError):
            project_P((0.0, 0.0), 0.0)

    def test_jacobian_identity_at_apex(self):
        jac = projection_jacobian((0.0, 0.0), 1.0)
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_jacobian_deviation_linear_envelope(self, centered_square):
        # max deviation over eps*w is <= C*eps with one constant C
        # fitted at the coarsest eps
        ladder = [0.2, 0.1, 0.05, 0.025]
        devs = []
        for eps in ladder:
            grid = np.linspace(-eps, eps, 7)
            dev = max(np.linalg.norm(
                projection_jacobian((gx, gy), 1.0) - np.eye(3), ord=2)
                for gx in grid for gy in grid)
            devs.append(dev)
        c_fit = devs[0] / ladder[0] * 1.05
        for eps, dev in zip(ladder, devs):
            assert dev <= c_fit * eps
        assert all(a > b for a, b in zip(devs, devs[1:]))


class TestSphericalVertexOpening:
    def test_right_angle_at_origin_exact_for_any_eps(self):
        # both edges meet at the apex ray, which the conical lift fixes
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        for eps in (1.0, 0.3, 0.05, 2.0):
            op = spherical_vertex_opening(tri, 0, eps)
            assert op == pytest.approx(math.pi / 2, abs=1e-12)

    def test_square_opening_tends_to_plane_angle(self, centered_square):
        op = spherical_vertex_opening(centered_square, 0, 1e-4)
        assert op == pytest.approx(math.pi / 2, abs=1e-6)

    def test_square_linear_envelope(self, centered_square):
        # |opening(eps) - pi/2| <= C*eps with C fitted at the coarsest eps
        ladder = [0.4, 0.2, 0.1, 0.05]
        devs = [abs(spherical_vertex_opening(centered_square, 0, e)
                    - math.pi / 2) for e in ladder]
        c_fit = devs[0] / ladder[0] * 1.05
        for eps, dev in zip(ladder, devs):
            assert dev <= c_fit * eps
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_generic_pentagon_face_normal_dihedral_and_quadratic_decay(self):
        # off-centre, no symmetry; vertex 3 is reflex
        poly = Polygon([(0.3, 0.2), (2.1, 0.5), (1.7, 1.9), (0.9, 1.1),
                        (0.2, 1.4)])
        v = poly.vertices
        n = poly.n_vertices
        assert [plane_corner_angle(poly, i) > math.pi for i in range(n)] == \
            [False, False, False, True, False]

        def lift(q, eps):
            return np.array([eps * q[0], eps * q[1], 1.0])

        # small ladder: on coarser ones the eps^4 terms dominate the fit
        ladder = (0.02, 0.01, 0.005, 0.0025)
        for i in range(n):
            a, p, b = v[(i - 1) % n], v[i], v[(i + 1) % n]
            alpha = plane_corner_angle(poly, i)
            for eps in (2.0, 0.7, 0.1) + ladder:
                n1 = np.cross(lift(a, eps), lift(p, eps))
                n2 = np.cross(lift(p, eps), lift(b, eps))
                faces = cone_faces(poly, eps)
                assert np.allclose(faces[i - 1], -n1 / np.linalg.norm(n1),
                                   rtol=0.0, atol=1e-14)
                assert np.allclose(faces[i], -n2 / np.linalg.norm(n2),
                                   rtol=0.0, atol=1e-14)
                ang = math.atan2(np.linalg.norm(np.cross(n1, n2)), n1 @ n2)
                want = math.pi - ang if alpha < math.pi else math.pi + ang
                op = spherical_vertex_opening(poly, i, eps)
                assert op == pytest.approx(want, abs=1e-12)
            devs = [abs(spherical_vertex_opening(poly, i, eps) - alpha)
                    for eps in ladder]
            slope = np.polyfit(np.log(ladder), np.log(devs), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.01)

    def test_openings_stay_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            poly = random_star_polygon(rng, n_vertices=6)
            for i in range(poly.n_vertices):
                op = spherical_vertex_opening(poly, i, 0.7)
                assert 0.0 < op < 2.0 * math.pi

    def test_reflex_corner_stays_reflex_for_small_eps(self):
        arrow = Polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
        reflex = [i for i in range(5)
                  if plane_corner_angle(arrow, i) > math.pi][0]
        op = spherical_vertex_opening(arrow, reflex, 0.05)
        assert op > math.pi

    def test_bad_eps(self, centered_square):
        for eps in (-1e-300, -0.3, math.nan, math.inf):
            with pytest.raises(GeometryError):
                spherical_vertex_opening(centered_square, 0, eps)
            with pytest.raises(GeometryError):
                cone_faces(centered_square, eps)
        # eps (v_{i+1} x v_i) overflows: an error, not a row of nan
        big = Polygon(1e5 * centered_square.vertices)
        with pytest.raises(GeometryError, match="overflows"):
            cone_faces(big, 1e300)

    def test_eps_zero_is_interior_angle(self):
        # the cylinder's wedges open at the plane corner angles, reflex
        # corners included
        poly = Polygon([(0.3, 0.2), (2.1, 0.5), (1.7, 1.9), (0.9, 1.1),
                        (0.2, 1.4)])
        for i in range(poly.n_vertices):
            assert spherical_vertex_opening(poly, i, 0.0) == pytest.approx(
                plane_corner_angle(poly, i), abs=1e-14)


class TestSectionJson:
    @pytest.mark.parametrize("doc", [
        {},
        {"polygon": [[0, 0], [1, 0], [0, 1]], "disc": {}},
        {"poly": [[0, 0], [1, 0], [0, 1]]},
        {"polygon": "nope"},
        {"polygon": [[0, 0], [1], [0, 1]]},
        {"disc": {"center": [0, 0]}},
        {"disc": {"center": [0, 0], "radius": "one"}},
        {"disc": {"center": [0, 0, 0], "radius": 1.0}},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(UsageError):
            section_from_json(doc)

    def test_degenerate_still_geometry_error(self):
        # well-formed document, mathematically inadmissible content
        with pytest.raises(GeometryError):
            section_from_json({"polygon": [[0, 0], [1, 0], [2, 0]]})

    # a JSON true is a Python bool, which is an int: without its own check
    # the first document would be built as the unit triangle
    @pytest.mark.parametrize("doc", [
        {"polygon": [[True, 0], [0, True], [0, 0]]},
        {"disc": {"center": [True, 0.0], "radius": 1.0}},
        {"disc": {"center": [0.0, 0.0], "radius": True}},
    ], ids=["vertex", "centre", "radius"])
    def test_booleans_are_not_numbers(self, doc):
        with pytest.raises(UsageError):
            section_from_json(doc)
