"""Model operators: de Gennes, half-space sigma, cylinders, cones, corners."""

import math
import warnings

import numpy as np
import pytest

from conebounds import geometry, models
from conebounds import (Disc, DomainError, EnergyEstimate, MagneticField,
                        Polygon, UsageError, concentration_threshold,
                        cylinder_energy, degennes_mu, e_constant,
                        essential_spectrum_limit, halfspace_sigma, theta0,
                        theta0_detail, truncated_domain_edges)
from conebounds.models import (SHEAR_ANGLE, _sigma_cached, degennes_basis,
                               rayleigh_ritz_mu, rayleigh_ritz_sigma,
                               sigma_basis)
from conftest import (fd_degennes_mu, fd_halfspace_sigma, per_face_channel_ends,
                      random_field, random_star_polygon)

# the centred square with a straight corner at (0, -1)
FLAT_CORNER = [(-1, -1), (0, -1), (1, -1), (1, 1), (-1, 1)]


class TestDeGennes:
    def test_mu_at_zero(self):
        # even reflection maps the Neumann problem onto the full-line
        # oscillator, whose ground energy is exactly 1
        assert degennes_mu(0.0).mu == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [-8.0, -5.0, -3.0, -1.0, 0.0, 0.77, 2.0,
                                    3.0])
    def test_finite_difference_cross_check(self, xi):
        assert degennes_mu(xi).mu == pytest.approx(fd_degennes_mu(xi),
                                                   rel=2e-5)

    def test_far_negative_xi(self):
        assert degennes_mu(-5.0).mu > 25.0

    def test_large_negative_growth(self):
        # potential minimum (t - xi)^2 >= xi^2 at t = 0 dominates; the rest
        # is an Airy boundary layer of size (2|xi|)^(2/3)
        for xi in (-3.0, -5.0, -8.0):
            mu = degennes_mu(xi).mu
            assert xi * xi < mu < xi * xi + 2.2 * abs(xi) ** (2.0 / 3.0)

    def test_stationarity_at_minimizer(self):
        res = theta0_detail()
        d = 1e-3
        deriv = (degennes_mu(res.xi + d).mu
                 - degennes_mu(res.xi - d).mu) / (2.0 * d)
        assert abs(deriv) <= 1e-4

    def test_lipschitz_continuity(self):
        d = 1e-3
        for xi in np.linspace(-1.0, 2.0, 16):
            gap = abs(degennes_mu(xi + d).mu - degennes_mu(xi).mu)
            assert gap <= 3.0 * d * (1.0 + abs(xi))

    def test_nonfinite_xi(self):
        with pytest.raises(DomainError):
            degennes_mu(math.inf)


class TestTheta0:
    def test_value_window(self):
        t = theta0()
        assert 0.5900 < t < 0.5903
        # the literature value is 0.5901061249...
        assert 0.5901061249 <= t <= 0.5901061250

    def test_strictly_above_half_with_margin(self):
        assert theta0() > 0.5 + 0.08

    def test_below_interior_energy(self):
        assert theta0() < 1.0

    def test_minimizer_identity(self):
        # at the minimum, mu(xi*) = xi*^2
        res = theta0_detail()
        assert abs(res.mu - res.xi ** 2) <= 1e-10

    def test_basis_doubling_stable(self):
        # nested Rayleigh-Ritz spaces: the least value can only go down,
        # up to eigensolver roundoff (~1e-11 relative)
        for xi in np.append(np.linspace(-8.0, 12.0, 81), theta0_detail().xi):
            t_max, n = degennes_basis(xi)
            small = rayleigh_ritz_mu(xi, t_max, n)
            big = rayleigh_ritz_mu(xi, t_max, 2 * n)
            assert small == degennes_mu(xi).mu
            assert big <= small * (1.0 + 1e-10)
            assert abs(small - big) <= 1e-9 * small


def born_oppenheimer(theta):
    """``Theta_0 cos + sqrt(mu''(xi_0)/2) sin``, ``mu''`` by differences."""
    det = theta0_detail()
    d = 1e-2
    mu2 = (degennes_mu(det.xi + d).mu - 2.0 * det.mu
           + degennes_mu(det.xi - d).mu) / d ** 2
    return det.mu * math.cos(theta) + math.sqrt(mu2 / 2.0) * math.sin(theta)


class TestHalfspaceSigma:
    def test_normal_field(self):
        # the Dirichlet end at t_max = 60 costs (pi / 120)^2 = 6.9e-4, so
        # the solve is 1.0007; sigma <= 1 is a theorem, and 1 is returned
        assert halfspace_sigma(math.pi / 2.0) == 1.0

    def test_tangent_field_delegates_to_theta0(self):
        assert halfspace_sigma(0.0) == theta0()

    def test_roundoff_angle_is_tangent(self):
        # a field tangent to a cone face comes out at ~1e-17 rad; the 2d
        # solver there returns a value above the Landau level
        assert halfspace_sigma(4e-17) == theta0()

    def test_uncached_solves_are_bitwise_equal(self):
        # a value that drifts in its last digits between solves would make
        # reports differ between runs
        a, b = (_sigma_cached.__wrapped__(0.7) for _ in range(2))
        assert a == b

    def test_monotone_on_either_side_of_the_shear_angle(self):
        # sigma is nondecreasing (Lu-Pan 2000), and the ess estimates read
        # the face channel at the least field angle on that account; the
        # Rayleigh-Ritz value keeps it exactly on each basis, and drops by
        # 5.6e-6 where the basis switches
        below = [halfspace_sigma(t)
                 for t in np.linspace(0.0, SHEAR_ANGLE - 1e-9, 129)]
        above = [halfspace_sigma(t)
                 for t in np.linspace(SHEAR_ANGLE, math.pi / 2.0, 129)]
        for vals in (below, above):
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 0.0 < below[-1] - above[0] <= 1e-5
        assert below[0] == theta0()
        assert above[-1] == 1.0

    def test_range(self):
        for t in (0.2, 0.7, 1.3):
            v = halfspace_sigma(t)
            assert theta0() - 1e-6 <= v <= 1.0 + 2e-2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            halfspace_sigma(-0.1)
        with pytest.raises(DomainError):
            halfspace_sigma(math.pi / 2.0 + 0.1)

    @pytest.mark.parametrize("theta", [0.01, 0.05])
    def test_small_angle_is_born_oppenheimer_without_warning(self, theta):
        # a fixed s box used to lose the mode at s ~ sqrt(Theta_0) / theta
        # here and warn; the basis now follows it.  Born-Oppenheimer:
        # sigma ~ Theta_0 cos + sqrt(mu''(xi_0)/2) sin, error O(theta^2)
        _sigma_cached.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = halfspace_sigma(theta)
        assert abs(val - born_oppenheimer(theta)) <= 0.1 * theta ** 2 + 1e-5

    @pytest.mark.parametrize("theta", [0.01, 0.05, 0.2, SHEAR_ANGLE - 1e-9,
                                       SHEAR_ANGLE, 0.5, 0.7, 0.9])
    def test_doubling_the_basis_never_raises_the_value(self, theta):
        # nested Rayleigh-Ritz spaces: the least value can only go down
        kappa, centre, scale, t_max, n_x, n_t = sigma_basis(theta)
        small = rayleigh_ritz_sigma(theta, kappa, centre, scale, t_max,
                                    n_x, n_t)
        big = rayleigh_ritz_sigma(theta, kappa, centre, scale, t_max,
                                  2 * n_x, 2 * n_t)
        assert small == halfspace_sigma(theta)
        assert big <= small + 1e-12
        assert small - big <= 1e-5

    @pytest.mark.parametrize("theta", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2,
                                       0.3, 0.5, 0.7, 0.9, 1.2,
                                       math.pi / 2.0])
    def test_close_to_a_converged_reference(self, theta):
        # 4x the basis and a 1.5x longer t interval
        kappa, centre, scale, t_max, n_x, n_t = sigma_basis(theta)
        # the reference shares the truncation in t, so it too is capped at
        # the Landau level
        ref = min(1.0, rayleigh_ritz_sigma(theta, kappa, centre, scale,
                                           1.5 * t_max, 2 * n_x, 2 * n_t))
        val = halfspace_sigma(theta)
        assert val >= ref - 1e-8
        assert val - ref <= (1e-4 if theta <= 0.9 else 2e-3)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    def test_finite_difference_cross_check(self, theta):
        # the default FD grid is off by ~1e-3 (upward) at these angles
        assert abs(fd_halfspace_sigma(theta) - halfspace_sigma(theta)) <= 2e-3

    def test_continuous_at_the_zero_snap(self):
        # both sides are Rayleigh-Ritz values, 2e-9 apart
        zero = halfspace_sigma(0.0)
        assert zero <= halfspace_sigma(2e-12) <= zero + 1e-8


class TestEnergyEstimate:
    def test_two_sided_ordering(self):
        with pytest.raises(DomainError):
            EnergyEstimate(source="x", lower=2.0, upper=1.0)

    def test_json_form(self):
        est = EnergyEstimate(source="s", lower=1.0, upper=2.0)
        assert est.to_json_dict() == {"kind": "TwoSided", "source": "s",
                                      "lower": 1.0, "upper": 2.0}


#: Sections of the assembly check: the square, the triangle and a
#: non-convex pentagon (reflex corner at (1, 0.7)).
ASSEMBLY_SECTIONS = {
    "square": [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "pentagon": [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 0.7), (0.0, 2.0)],
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_SECTIONS))
@pytest.mark.parametrize("field", [(0.0, 0.0, 1.0), (0.3, -0.4, 0.8)])
@pytest.mark.parametrize("c_floor", [0.3, 0.7])
def test_every_rung_is_the_least_channel(name, field, c_floor):
    # each end of every rung is |B| times the least face channel at the
    # cone_faces angles, the lower end also floored at c_floor
    section = Polygon(ASSEMBLY_SECTIONS[name])
    ladder = [0.6, 0.3, 0.1, 0.02]
    want = [per_face_channel_ends(field, section, eps, c_floor)
            for eps in ladder]
    got = essential_spectrum_limit(field, section, ladder, c_floor)
    assert [(est.lower, est.upper) for _, est in got] == want


def _seeded_section(kind, rng):
    if kind == "square":
        corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        return Polygon(rng.uniform(-0.3, 0.3, 2)
                       + rng.uniform(0.5, 1.5) * corners)
    if kind == "star":
        # ten vertices on alternating radii: five reflex corners
        phi = rng.uniform(0.0, 2.0 * math.pi) \
            + np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        r = np.where(np.arange(10) % 2 == 0, 1.0, rng.uniform(0.35, 0.6))
        return Polygon(np.column_stack([r * np.cos(phi), r * np.sin(phi)])
                       + rng.uniform(-0.3, 0.3, 2))
    return random_star_polygon(rng, {"triangle": 3, "pentagon": 5}[kind])


@pytest.mark.parametrize("kind", ["square", "triangle", "pentagon", "star"])
@pytest.mark.parametrize("seed", [1, 2])
def test_least_angle_estimate_equals_the_per_face_oracle(kind, seed):
    # sigma(theta) is nondecreasing, so reading it at the least face angle
    # gives the per-face minimum bit for bit
    rng = np.random.default_rng(seed)
    section = _seeded_section(kind, rng)
    ladder = [0.5, 0.2, 0.05]
    for field in [(0.0, 0.0, 1.0), tuple(random_field(rng))]:
        got = [(est.lower, est.upper) for _, est in
               essential_spectrum_limit(field, section, ladder, 0.1)]
        cyl = cylinder_energy(field, section, 0.1)
        got.append((cyl.lower, cyl.upper))
        want = [per_face_channel_ends(field, section, eps, 0.1)
                for eps in ladder + [0.0]]
        assert got == want


def test_seeded_corpus_rungs_are_the_least_face_sigma():
    # random star sections, fields and floors: on every ess rung and on the
    # cylinder, upper is |B| sigma at the least face angle and lower is
    # |B| min(sigma, c_floor), bit for bit.  The corpus includes sharp
    # corners whose small-opening value alpha / sqrt(3) lies below that
    # sigma: a leading-order wedge value, which sets neither end
    rng = np.random.default_rng(27)
    ladder = [1.0, 0.3, 0.1]
    below_face = 0
    for _ in range(30):
        section = random_star_polygon(rng, int(rng.integers(3, 9)))
        field = tuple(random_field(rng))
        c_floor = float(rng.uniform(0.05, 1.0))
        b = MagneticField.from_any(field)
        got = [est for _, est in
               essential_spectrum_limit(field, section, ladder, c_floor)]
        got.append(cylinder_energy(field, section, c_floor))
        for eps, est in zip(ladder + [0.0], got):
            faces = geometry.cone_faces(section, eps)
            thetas = np.arcsin(np.minimum(
                1.0, np.abs(faces @ b.as_array()) / b.norm))
            sigma = halfspace_sigma(float(thetas.min()))
            assert est.upper == b.norm * sigma
            assert est.lower == b.norm * min(sigma, c_floor)
            least_opening = min(
                geometry.spherical_vertex_opening(section, i, eps)
                for i in range(section.n_vertices))
            below_face += least_opening / math.sqrt(3.0) < sigma
    assert below_face >= 10


def test_face_angles_straddling_the_shear_angle():
    # the Rayleigh-Ritz sigma drops by 5.6e-6 where its basis switches, so
    # faces just either side of SHEAR_ANGLE give ends above the per-face
    # minimum by at most that jump, never below it
    bx, by = math.sin(SHEAR_ANGLE - 1e-7), math.sin(SHEAR_ANGLE + 1e-7)
    field = (bx, by, math.sqrt(1.0 - bx * bx - by * by))
    square = Polygon(ASSEMBLY_SECTIONS["square"])
    est = cylinder_energy(field, square, 1.0)
    lower, upper = per_face_channel_ends(field, square, 0.0, 1.0)
    assert 0.0 < est.lower - lower <= 1e-5
    assert 0.0 < est.upper - upper <= 1e-5


PENTAGON = [(0.3, -0.8), (1.2, -0.2), (0.9, 1.0), (-0.4, 1.1), (-1.0, -0.3)]


@pytest.mark.parametrize("vertices, field", [
    # three congruent faces, whose field angles agree up to roundoff
    ([(math.cos(a), math.sin(a)) for a in
      (math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6)], (0.0, 0.0, 1.0)),
    (ASSEMBLY_SECTIONS["square"], (0.3, -0.4, 0.8)),
    (PENTAGON, (0.0, 0.0, 1.0)),
])
def test_one_sigma_solve_per_rung(vertices, field):
    _sigma_cached.cache_clear()
    essential_spectrum_limit(field, Polygon(vertices), [0.4, 0.2, 0.1], 0.5)
    assert _sigma_cached.cache_info().misses == 3


def test_one_sigma_solve_per_cylinder():
    _sigma_cached.cache_clear()
    cylinder_energy((0.3, -0.4, 0.8), Polygon(ASSEMBLY_SECTIONS["square"]),
                    0.5)
    assert _sigma_cached.cache_info().misses == 1


class TestCylinderEnergy:
    def test_axial_square_upper_is_theta0(self, centered_square):
        est = cylinder_energy((0, 0, 1), centered_square, c_floor=0.3)
        assert est.kind == "TwoSided"
        # every side plane contains the field, so the face channel sits at
        # sigma(0) = Theta_0
        assert est.upper == pytest.approx(theta0(), rel=1e-12)
        assert est.lower <= est.upper

    def test_floor_dominates_lower(self, centered_square):
        est = cylinder_energy((0, 0, 1), centered_square, c_floor=0.3)
        assert est.lower == pytest.approx(0.3, rel=1e-14)

    def test_sharp_triangle_upper_is_theta0(self, unit_triangle):
        # the pi/4 corners do not lower the upper end: their small-opening
        # value (pi/4) / sqrt(3) = 0.453 is leading-order only, not a bound
        est = cylinder_energy((0, 0, 1), unit_triangle, c_floor=0.3)
        assert est.upper == theta0()
        assert est.lower == 0.3

    def test_homogeneity(self, centered_square):
        one = cylinder_energy((0.3, -0.4, 0.8), centered_square, 0.4)
        two = cylinder_energy((0.6, -0.8, 1.6), centered_square, 0.4)
        assert two.lower == pytest.approx(2.0 * one.lower, rel=1e-14)
        assert two.upper == pytest.approx(2.0 * one.upper, rel=1e-14)

    def test_zero_field(self, centered_square):
        est = cylinder_energy((0, 0, 0), centered_square, 0.5)
        assert est.lower == 0.0 and est.upper == 0.0
        assert "zero" in est.source

    def test_positive_for_nonzero_field(self, centered_square):
        est = cylinder_energy((0, 1, 0), centered_square, 0.2)
        assert est.lower > 0.0

    def test_usage_errors(self, unit_disc, centered_square):
        with pytest.raises(UsageError):
            cylinder_energy((0, 0, 1), unit_disc, 0.3)
        with pytest.raises(UsageError):
            cylinder_energy((0, 0, 1), centered_square, 0.0)
        with pytest.raises(UsageError):
            cylinder_energy((0, 0, 1), centered_square, 1.5)

    def test_straight_corner_matches_square(self, centered_square):
        flat = Polygon(FLAT_CORNER)
        for field in ((0, 0, 1), (0.3, -0.4, 0.8)):
            want = cylinder_energy(field, centered_square, 0.3)
            got = cylinder_energy(field, flat, 0.3)
            assert got.lower == pytest.approx(want.lower, abs=1e-12)
            assert got.upper == pytest.approx(want.upper, abs=1e-12)


class TestEssentialSpectrumLimit:
    def test_square_ladder_converges_to_cylinder(self, centered_square):
        cyl = cylinder_energy((0, 0, 1), centered_square, c_floor=0.3)
        ladder = [0.4, 0.2, 0.1, 0.05]
        est = essential_spectrum_limit((0, 0, 1), centered_square, ladder,
                                       c_floor=0.3)
        assert [eps for eps, _ in est] == ladder
        devs = [abs(ee.upper - cyl.upper) for _, ee in est]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 0.06
        for _, ee in est:
            assert ee.kind == "TwoSided"
            assert ee.lower == pytest.approx(cyl.lower, rel=1e-14)

    def test_cube_root_envelope(self, centered_square):
        # qualitative rate: deviations under C eps^(1/3), C fitted at the
        # coarsest rung
        cyl = cylinder_energy((0, 0, 1), centered_square, c_floor=0.3)
        ladder = [0.4, 0.2, 0.1, 0.05]
        est = essential_spectrum_limit((0, 0, 1), centered_square, ladder,
                                       c_floor=0.3)
        devs = [abs(ee.upper - cyl.upper) for _, ee in est]
        c_fit = devs[0] / ladder[0] ** (1.0 / 3.0) * 1.01
        for eps, dev in zip(ladder, devs):
            assert dev <= c_fit * eps ** (1.0 / 3.0)

    def test_field_tangent_to_a_face_up_to_roundoff(self, centered_square):
        # (0, 0.3, 1) lies in the face over the edge y = 1 at eps = 0.3,
        # so the face channel is Theta_0 |B| and sits below every other
        field = (0.0, 0.3, 1.0)
        (_, est), = essential_spectrum_limit(field, centered_square, [0.3],
                                             c_floor=1.0)
        want = theta0() * math.sqrt(0.3 ** 2 + 1.0)
        assert est.lower == pytest.approx(want, abs=1e-12)
        assert est.upper == pytest.approx(want, abs=1e-12)

    def test_straight_corner_matches_square(self, centered_square):
        flat = Polygon(FLAT_CORNER)
        for field in ((0, 0, 1), (0.3, -0.4, 0.8)):
            want = essential_spectrum_limit(field, centered_square, [0.3, 0.1],
                                            c_floor=0.3)
            got = essential_spectrum_limit(field, flat, [0.3, 0.1],
                                           c_floor=0.3)
            for (eps_w, w), (eps_g, g) in zip(want, got):
                assert eps_g == eps_w
                assert g.lower == pytest.approx(w.lower, abs=1e-12)
                assert g.upper == pytest.approx(w.upper, abs=1e-12)

    def test_tiny_eps_is_the_cylinder(self, centered_square):
        # at eps = 1e-170 the face normals' z parts square to below the
        # smallest double, so every channel is the cylinder's
        for field in ((0, 0, 1), (0.3, -0.4, 0.8)):
            (_, est), = essential_spectrum_limit(field, centered_square,
                                                 [1e-170], c_floor=0.3)
            cyl = cylinder_energy(field, centered_square, c_floor=0.3)
            assert (est.lower, est.upper) == (cyl.lower, cyl.upper)

    def test_zero_field_flagged(self, centered_square):
        est = essential_spectrum_limit((0, 0, 0), centered_square,
                                       [0.4, 0.2], c_floor=0.3)
        for _, ee in est:
            assert ee.lower == 0.0 and ee.upper == 0.0
            assert "zero" in ee.source

    def test_ladder_must_decrease(self, centered_square):
        with pytest.raises(DomainError):
            essential_spectrum_limit((0, 0, 1), centered_square,
                                     [0.1, 0.2], c_floor=0.3)
        with pytest.raises(DomainError):
            essential_spectrum_limit((0, 0, 1), centered_square,
                                     [0.2, -0.1], c_floor=0.3)
        with pytest.raises(DomainError):
            essential_spectrum_limit((0, 0, 1), centered_square, [],
                                     c_floor=0.3)

    def test_non_polygon_rejected(self, unit_disc):
        with pytest.raises(UsageError):
            essential_spectrum_limit((0, 0, 1), unit_disc, [0.1], c_floor=0.3)


class TestConcentrationThreshold:
    def test_unit_disc_axial(self, unit_disc):
        thr = concentration_threshold((0, 0, 1), unit_disc, c_floor=1.0)
        assert thr.epsilon_star == pytest.approx(math.sqrt(2.0) / 3.0,
                                                 rel=1e-12)

    def test_field_scale_invariance(self, unit_disc):
        one = concentration_threshold((0, 0, 1), unit_disc, 1.0)
        two = concentration_threshold((0, 0, 2), unit_disc, 1.0)
        assert two.epsilon_star == pytest.approx(one.epsilon_star, rel=1e-14)

    def test_floor_below_half(self, unit_disc):
        thr = concentration_threshold((0, 0, 1), unit_disc, c_floor=0.4)
        e = e_constant((0, 0, 1), unit_disc)
        assert thr.epsilon_star == pytest.approx(0.4 / (3.0 * e), rel=1e-13)

    def test_verdict_both_sides(self, unit_disc):
        thr = concentration_threshold((0, 0, 1), unit_disc, 1.0)
        star = thr.epsilon_star
        below = thr(star / 2.0)
        assert below.holds
        assert below.vertex_bound == pytest.approx(
            3.0 * (star / 2.0) * e_constant((0, 0, 1), unit_disc), rel=1e-14)
        assert below.vertex_bound < thr.floor_used
        above = thr(2.0 * star)
        assert not above.holds
        assert above.vertex_bound >= thr.floor_used

    def test_holds_matches_direct_inequality(self, unit_triangle):
        thr = concentration_threshold((0.5, -0.2, 1.0), unit_triangle, 0.7)
        e = e_constant((0.5, -0.2, 1.0), unit_triangle)
        norm = math.sqrt(0.25 + 0.04 + 1.0)
        for eps in (0.01, 0.1, 0.3, 1.0, 3.0):
            verdict = thr(eps)
            assert verdict.holds == (3.0 * eps * e < min(0.7, 0.5) * norm)

    def test_zero_field_degenerate(self, unit_disc):
        thr = concentration_threshold((0, 0, 0), unit_disc, 1.0)
        assert thr.degenerate
        assert thr.epsilon_star == math.inf
        assert thr(0.5).holds

    def test_power_of_two_field_scales_keep_eps_star(self, centered_square):
        # |B| and e(B, w) are computed on the field scaled to unit size, so
        # the square's eps* = 1/sqrt(6) holds bit for bit from 2^-1000 to
        # 2^1000, far past where the squares of the field underflow or
        # overflow
        want = concentration_threshold((0, 0, 1), centered_square,
                                       1.0).epsilon_star
        assert want == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-15)
        for j in range(-1000, 1001, 8):
            thr = concentration_threshold((0, 0, math.ldexp(1.0, j)),
                                          centered_square, 1.0)
            assert not thr.degenerate
            assert thr.epsilon_star == want

    def test_bad_eps(self, unit_disc):
        thr = concentration_threshold((0, 0, 1), unit_disc, 1.0)
        with pytest.raises(DomainError):
            thr(0.0)
        with pytest.raises(DomainError):
            thr(-1.0)


class TestTruncatedEdges:
    def test_square_small_eps_limits(self, centered_square):
        rep = truncated_domain_edges(centered_square, 1e-5)
        for _, op in rep.lateral:
            assert op == pytest.approx(math.pi / 2.0, abs=1e-6)
        for _, op in rep.top:
            assert op == pytest.approx(math.pi / 2.0, abs=1e-4)

    def test_square_top_closed_form(self, centered_square):
        # the lateral faces of the lifted square tilt by atan(eps), so the
        # rim dihedral is pi/2 - atan(eps) exactly
        for eps in (0.1, 0.3, 0.7):
            rep = truncated_domain_edges(centered_square, eps)
            for _, op in rep.top:
                assert op == pytest.approx(math.pi / 2.0 - math.atan(eps),
                                           rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-300, 1e-170, 1e-8, 0.3, 1e8, 1e170,
                                     1e300])
    def test_square_closed_forms_at_extreme_eps(self, centered_square, eps):
        # lateral pi/2 + arcsin(eps^2 / (1 + eps^2)) and rim atan(1/eps),
        # both written so that no intermediate overflows
        lateral = math.pi / 2 + math.atan2(eps, math.hypot(1 / eps,
                                                           math.sqrt(2)))
        rim = math.atan2(1.0, eps)
        rep = truncated_domain_edges(centered_square, eps)
        assert [op for _, op in rep.lateral] == pytest.approx([lateral] * 4,
                                                              rel=1e-12)
        assert [op for _, op in rep.top] == pytest.approx([rim] * 4,
                                                          rel=1e-12)
        assert rep.beta0 == pytest.approx(min(rim, 2 * math.pi - lateral),
                                          rel=1e-12)

    def test_square_certifies_beta0(self, centered_square):
        rep = truncated_domain_edges(centered_square, 0.3)
        assert rep.eps == 0.3
        all_ops = [op for _, op in rep.lateral] + [op for _, op in rep.top]
        assert len(rep.lateral) == 4 and len(rep.top) == 4
        for op in all_ops:
            assert 0.3 < op < 2.0 * math.pi - 0.3
        assert rep.beta0 >= 0.3

    def test_triangle_lateral_limits(self, unit_triangle):
        rep = truncated_domain_edges(unit_triangle, 1e-5)
        ops = sorted(op for _, op in rep.lateral)
        assert ops == pytest.approx([math.pi / 4, math.pi / 4, math.pi / 2],
                                    abs=1e-4)

    def test_dart_rim_is_the_true_dihedral(self):
        # the centroid (0, 5/6) lies outside the lines of edges 1 and 2
        verts = [(0.0, 2.0), (-1.0, -1.0), (0.0, 1.5), (1.0, -1.0)]
        eps = 0.3
        rep = truncated_domain_edges(Polygon(verts), eps)
        assert len(rep.top) == 4
        for i, op in rep.top:
            p, q = (np.array([eps * x, eps * y, 1.0])
                    for x, y in (verts[i], verts[(i + 1) % 4]))
            along = (q - p) / np.linalg.norm(q - p)
            # the top face points inward to the left of the CCW rim edge
            inward = np.array([-along[1], along[0], 0.0])
            # the lateral face runs down from the rim edge towards the apex
            down = -p - (-p @ along) * along
            down /= np.linalg.norm(down)
            assert op == pytest.approx(math.acos(inward @ down), abs=1e-12)

    def test_straight_corner_opens_to_pi(self, centered_square):
        rep = truncated_domain_edges(Polygon(FLAT_CORNER), 0.3)
        sq = truncated_domain_edges(centered_square, 0.3)
        lateral = [op for _, op in rep.lateral]
        assert lateral[1] == pytest.approx(math.pi, abs=1e-12)
        assert lateral[:1] + lateral[2:] == pytest.approx(
            [op for _, op in sq.lateral], abs=1e-12)
        # the square's bottom rim edge, split in two at the straight corner
        top = [op for _, op in rep.top]
        assert top[:1] + top[2:] == pytest.approx([op for _, op in sq.top],
                                                  abs=1e-12)
        assert top[1] == pytest.approx(top[0], abs=1e-12)
        assert rep.beta0 == pytest.approx(sq.beta0, abs=1e-12)

    def test_errors(self, unit_disc, centered_square):
        with pytest.raises(UsageError):
            truncated_domain_edges(unit_disc, 0.1)
        with pytest.raises(DomainError):
            truncated_domain_edges(centered_square, 0.0)


def test_cone_faces_built_once_per_edges_call_and_ess_rung(
        monkeypatch, centered_square):
    # every face and edge channel of one cone is read off one cone_faces
    # array; count the calls through both names it is reached by
    calls, cone_faces = [], geometry.cone_faces

    def counted(*args):
        calls.append(args)
        return cone_faces(*args)

    for module in (geometry, models):
        monkeypatch.setattr(module, "cone_faces", counted)
    truncated_domain_edges(centered_square, 0.3)
    assert len(calls) == 1
    calls.clear()
    essential_spectrum_limit((0.3, -0.4, 1.0), centered_square,
                             [0.4, 0.2, 0.1], c_floor=0.5)
    assert len(calls) == 3
