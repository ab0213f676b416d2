"""Model operators for the bottom of the essential spectrum.

A cone over a small section concentrates its low spectrum near the apex,
while the essential spectrum is governed by what the boundary looks like
far from the apex: flat space in the interior, half-spaces along the
faces, wedges along the edges.  The corresponding scalar model energies
(per unit field strength) are

* interior: 1 (the Landau level),
* half-space whose boundary plane makes the unsigned angle ``theta``
  with the field: ``sigma(theta)``, the bottom of a Schroedinger operator
  on a half-plane, computed by Rayleigh-Ritz on a theta-adapted spectral
  basis (an upper bound); ``sigma(0)`` is the de Gennes constant
  ``Theta_0 ~ 0.59`` and ``sigma(pi/2) = 1``, nondecreasing in between
  (Lu-Pan 2000),
* wedge of opening ``alpha``: no closed form and no proven upper value
  here; a trusted caller-supplied floor ``c_floor`` is used from below.

Combining the three classes gives two-sided estimates
(:class:`EnergyEstimate`: ``source``, ``lower``, ``upper``) for the
essential energy of sharpening cones and of the reference cylinder over a
section, which is the cone at ``eps = 0``.  Both are one function,
``_tangent_estimate``: it reads the face channel off one
:func:`~conebounds.geometry.cone_faces` array per call.  ``sigma`` grows
with the field angle, so it is read at the least one: one solve per ladder
rung.  That value bounds one tangent model from above, so the least of
them too, and ``sigma <= 1`` covers the interior: it is the upper end.
The wedges enter only the lower end, through ``c_floor``; the
small-opening asymptote ``|B| alpha / sqrt(3)`` is leading-order only and
is not used as a bound.  An explicit threshold says when the apex bound
drops below every non-apex channel, certifying corner concentration.

Every half-space energy here (the de Gennes band ``mu(xi)``, ``Theta_0``
and ``sigma(theta)``) is a Rayleigh-Ritz value on a spectral basis, so an
upper bound.  The two-sided estimates use ``sigma`` at both ends, so their
lower ends are not proven lower bounds yet; sources say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SolverError, UsageError
from .gauge import MagneticField, e_constant
from .geometry import Polygon, Section, _edge_openings, cone_faces, moments


@dataclass(frozen=True)
class DeGennesResult:
    xi: float
    mu: float


@dataclass(frozen=True)
class EnergyEstimate:
    """Two-sided energy estimate ``lower <= upper`` with its provenance.

    ``kind`` is always ``TwoSided``; it is kept in the JSON form, which
    reports carry.
    """

    source: str
    lower: float
    upper: float
    kind = "TwoSided"

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise DomainError("two-sided estimate with lower > upper")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "source": self.source,
                "lower": self.lower, "upper": self.upper}


# ---------------------------------------------------------------------------
# de Gennes operator on the half-line

def degennes_mu(xi: float) -> DeGennesResult:
    """Lowest Neumann eigenvalue of ``-u'' + (t - xi)^2 u`` on the half-line.

    A Rayleigh-Ritz value (:func:`rayleigh_ritz_mu` on
    :func:`degennes_basis`), so an upper bound for ``mu(xi)``.
    ``mu(0) = 1`` exactly, and ``mu`` attains its minimum ``Theta_0`` at
    ``xi = sqrt(Theta_0)``.
    """
    x = float(xi)
    if not math.isfinite(x):
        raise DomainError("xi must be finite")
    return DeGennesResult(xi=x, mu=rayleigh_ritz_mu(x, *degennes_basis(x)))


def degennes_basis(xi: float) -> tuple[float, int]:
    """``(t_max, n)`` of the basis at ``xi``.

    The mode sits at ``t ~ max(0, xi)`` with width ~1, so ``t_max =
    max(10, xi + 10)``.  ``n = 2.8 t_max`` polynomials already keep a
    doubling of the basis below 1e-10 relative on ``xi`` in ``[-8, 24]``;
    ``n = 16 ceil(t_max / 5) >= 3.2 t_max`` (32 up to ``xi = 0``) stops
    growing at ``xi = 70``, past which the value is still an upper bound
    but less accurate.
    """
    t_max = max(10.0, xi + 10.0)
    return t_max, 16 * math.ceil(min(t_max, 80.0) / 5.0)


def rayleigh_ritz_mu(xi: float, t_max: float, n: int) -> float:
    """Least Rayleigh-Ritz value of the de Gennes operator at ``xi``.

    The basis is the ``t`` factor of :func:`rayleigh_ritz_sigma`: the
    ``n`` polynomials of :func:`_legendre_grams` on ``[0, t_max]`` that
    vanish at ``t_max``, so enlarging ``n`` never raises the value.
    """
    t1, t2, dt, _ = _legendre_grams(n)
    ham = dt / t_max ** 2 + t_max ** 2 * t2 - 2.0 * xi * t_max * t1 \
        + xi * xi * np.eye(n)
    return _lowest_eigenvalue(ham, "de Gennes")


def theta0() -> float:
    """The de Gennes constant: ``min over xi`` of :func:`degennes_mu`."""
    return theta0_detail().mu


@lru_cache(maxsize=1)
def theta0_detail() -> DeGennesResult:
    """``Theta_0`` and its minimizer by the fixed point ``xi <- sqrt(mu(xi))``.

    ``mu'(xi) = (xi^2 - mu(xi)) u_xi(0)^2`` for the normalized ground state
    ``u_xi``, so the minimizer is the fixed point, where the map has zero
    slope: the iteration converges quadratically.  The returned ``mu`` is
    a Rayleigh-Ritz value at the returned ``xi``, an upper bound for
    ``Theta_0``.
    """
    xi = math.sqrt(0.59)
    for _ in range(50):
        res = degennes_mu(xi)
        xi = math.sqrt(res.mu)
        if abs(xi - res.xi) <= 1e-12:
            return res
    raise SolverError("de Gennes fixed point did not converge")


# ---------------------------------------------------------------------------
# half-space model

#: Field angles at or below this are 0 for :func:`halfspace_sigma`.  A field
#: tangent to a face can come out of the face normal at ~1e-17 rad; the
#: slope of ``sigma`` at 0 is below 1, so snapping moves the value by less
#: than this.
ZERO_ANGLE_ATOL = 1e-12

#: Below this field angle the Rayleigh-Ritz basis follows the boundary
#: (de Gennes) mode, above it the Landau mode sheared along the field.
SHEAR_ANGLE = 0.35


def halfspace_sigma(theta: float) -> float:
    """Ground energy of the half-space with field at angle ``theta`` to the wall.

    For ``theta`` in ``(0, pi/2]`` this is the bottom of
    ``-d2/ds2 - d2/dt2 + (t cos(theta) - s sin(theta))^2`` on the half-plane
    ``t > 0`` with Neumann at ``t = 0``, computed by Rayleigh-Ritz on a
    basis adapted to ``theta`` (:func:`sigma_basis`), so the value bounds
    ``sigma`` from above.  ``sigma <= 1`` (the Landau level) is a theorem,
    so a solve above 1, which the truncation in ``t`` gives near ``pi/2``,
    is returned as 1.  The operator degenerates as ``theta -> 0`` (the
    minimizing frequency escapes in ``s``), so ``theta <= ZERO_ANGLE_ATOL``
    is delegated to the de Gennes constant, a Rayleigh-Ritz value too.

    ``sigma`` is nondecreasing from ``Theta_0`` to 1 (Lu and Pan,
    J. Differential Equations, 2000), which lets the essential-energy
    estimates solve at the least face angle only.  The Rayleigh-Ritz value
    is nondecreasing on either side of :data:`SHEAR_ANGLE` and drops by
    5.6e-6 across it, where the basis switches.
    """
    th = float(theta)
    if not (0.0 <= th <= math.pi / 2.0 + 1e-12):
        raise DomainError("theta must lie in [0, pi/2]")
    if th <= ZERO_ANGLE_ATOL:
        return theta0()
    return _sigma_cached(th)


@lru_cache(maxsize=256)
def _sigma_cached(theta: float) -> float:
    return min(1.0, rayleigh_ritz_sigma(theta, *sigma_basis(theta)))


def sigma_basis(theta: float) -> tuple[float, float, float, float, int, int]:
    """``(kappa, centre, scale, t_max, n_x, n_t)`` of the basis at ``theta``.

    Below :data:`SHEAR_ANGLE` the mode is a de Gennes profile in ``t``
    sitting where ``s sin(theta) = sqrt(Theta_0 cos(theta))``, with
    Born-Oppenheimer width ``~ sin(theta)^(-1/2)`` in ``s``.  Above it the
    potential is ``(x sin(theta))^2`` in the sheared ``x = s - t cot(theta)``
    (a Landau mode of width ``1/sin(theta)``), and the mode decays in ``t``
    like ``exp(-sqrt(1 - sigma) t / sin(theta))`` with
    ``1 - sigma ~ 0.15 cos(theta)^4``; ``t_max`` is sized for that, up to
    60, where the Dirichlet end costs ``(pi / 120)^2 < 7e-4`` at ``pi/2``.
    """
    c, s = math.cos(theta), math.sin(theta)
    if theta < SHEAR_ANGLE:
        return (0.0, math.sqrt(theta0() * c) / s, 1.3 / math.sqrt(s),
                7.0, 16, 16)
    t_max = min(60.0, max(10.0, 18.0 * s / c ** 2))
    return c / s, 0.0, 0.8 / s, t_max, 10, 24


def rayleigh_ritz_sigma(theta: float, kappa: float, centre: float,
                        scale: float, t_max: float, n_x: int, n_t: int
                        ) -> float:
    """Least Rayleigh-Ritz value of the half-plane operator on a tensor basis.

    In ``x = s - kappa t = centre + scale * xi`` the quadratic form reads
    ``(1 + kappa^2) |w_x|^2 - 2 kappa w_x w_t + |w_t|^2 + V |w|^2`` with
    ``V = (p t + r + q xi)^2``, ``p = cos - kappa sin``, ``r = -centre sin``,
    ``q = -scale sin``.  The basis is the first ``n_x`` Hermite functions of
    ``xi`` times the polynomials of degree ``<= n_t`` on ``[0, t_max]`` that
    vanish at ``t_max`` (extended by zero): it lies in the form domain and
    leaves the Neumann condition at ``t = 0`` natural, so the value bounds
    ``sigma(theta)`` from above, and enlarging ``n_x`` or ``n_t`` never
    raises it.  ``V`` is quadratic, so each block is a Kronecker product of
    1-d Gram matrices that Gauss quadrature gives exactly.
    """
    c, s = math.cos(theta), math.sin(theta)
    p, r, q = c - kappa * s, -centre * s, -scale * s
    x1, x2, dx, cx = _hermite_grams(n_x)
    t1, t2, dt, ct = _legendre_grams(n_t)
    ix, it = np.eye(n_x), np.eye(n_t)
    h_x = (1.0 + kappa ** 2) / scale ** 2 * dx + q * q * x2 \
        + 2.0 * r * q * x1 + r * r * ix
    h_t = dt / t_max ** 2 + (p * t_max) ** 2 * t2 + 2.0 * p * r * t_max * t1
    ham = np.kron(h_x, it) + np.kron(ix, h_t) \
        + 2.0 * p * q * t_max * np.kron(x1, t1) \
        - kappa / (scale * t_max) * (np.kron(cx, ct.T) + np.kron(cx.T, ct))
    return _lowest_eigenvalue(ham, "half-plane")


def _lowest_eigenvalue(ham: np.ndarray, what: str) -> float:
    try:
        return float(np.linalg.eigvalsh(ham)[0])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} eigensolve failed: {exc}") from exc


def _grams(f: np.ndarray, d: np.ndarray, t: np.ndarray) -> tuple:
    """``(<f t f>, <f t^2 f>, <d d>, <d f>)`` from weighted node values."""
    out = tuple(np.ascontiguousarray(m) for m in
                ((f * t) @ f.T, (f * t * t) @ f.T, d @ d.T, d @ f.T))
    for m in out:
        m.setflags(write=False)  # shared through the cache
    return out


@lru_cache(maxsize=16)
def _hermite_grams(n: int) -> tuple:
    """Gram matrices of the orthonormal Hermite functions ``h_0..h_{n-1}``.

    ``h_k = H_k(xi) exp(-xi^2/2)`` with normalized Hermite polynomials
    ``H_k``; ``h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}``.  Every
    integrand is ``exp(-xi^2)`` times a polynomial of degree ``<= 2n``, so
    ``n + 1`` Gauss-Hermite nodes integrate it exactly.
    """
    xi, w = np.polynomial.hermite.hermgauss(n + 1)
    h = np.empty((n + 1, xi.size))
    h[0] = math.pi ** -0.25
    h[1] = math.sqrt(2.0) * xi * h[0]
    for k in range(1, n):
        h[k + 1] = (math.sqrt(2.0 / (k + 1)) * xi * h[k]
                    - math.sqrt(k / (k + 1)) * h[k - 1])
    k = np.arange(n)[:, None]
    below = np.vstack([np.zeros_like(xi), h[:n - 1]])
    d = np.sqrt(k / 2.0) * below - np.sqrt((k + 1) / 2.0) * h[1:]
    g = np.sqrt(w)
    return _grams(h[:n] * g, d * g, xi)


@lru_cache(maxsize=16)
def _legendre_grams(n: int) -> tuple:
    """Gram matrices of an orthonormal basis of ``{deg <= n, f(1) = 0}``.

    The polynomials live on ``[0, 1]``; they are built from ``P_j - P_{j+1}``
    (``j < n``) in ``tau = 2t - 1`` and orthonormalized by Cholesky.
    ``n + 2`` Gauss-Legendre nodes integrate every product exactly.  On ``[0, T]`` the basis ``T^(-1/2) f(t/T)``
    scales the matrices by ``T``, ``T^2``, ``T^-2`` and ``T^-1``.
    """
    leg = np.polynomial.legendre
    tau, w = leg.leggauss(n + 2)
    v = leg.legvander(tau, n)
    dv = leg.legvander(tau, n - 1) @ leg.legder(np.eye(n + 1))
    g = np.sqrt(w / 2.0)
    f = (v[:, :n] - v[:, 1:]).T * g
    d = 2.0 * (dv[:, :n] - dv[:, 1:]).T * g
    chol = np.linalg.cholesky(f @ f.T)
    return _grams(np.linalg.solve(chol, f), np.linalg.solve(chol, d),
                  (tau + 1.0) / 2.0)


# ---------------------------------------------------------------------------
# cylinders and sharpening cones

#: How the face and wedge channels of the two-sided estimates are obtained.
_SIGMA_SOURCE = ("sigma by Rayleigh-Ritz on a theta-adapted spectral basis "
                 "(upper bound), also used at the lower end, which is "
                 "therefore not a proven lower bound; wedges floored at "
                 "c_floor")


def _check_c_floor(c_floor: float) -> float:
    c = float(c_floor)
    if not (0.0 < c <= 1.0):
        raise UsageError("c_floor must lie in (0, 1]")
    return c


def _checked_inputs(field, section: Section, c_floor: float,
                    what: str) -> tuple[MagneticField, float]:
    b = MagneticField.from_any(field)
    c = _check_c_floor(c_floor)
    if not isinstance(section, Polygon):
        raise UsageError(f"{what} estimates need a polygonal section")
    return b, c


def _tangent_estimate(b: MagneticField, section: Polygon, eps: float,
                      c_floor: float, source: str) -> EnergyEstimate:
    """Two-sided estimate from the tangent models of the cone over
    ``eps * section``, the reference cylinder at ``eps = 0``: one half-space
    per row of :func:`cone_faces`, at the angle ``arcsin(|N . B| / |B|)`` to
    the field.  Per unit field, the upper end is the least face ``sigma``,
    the lower end the least of that and ``c_floor``, which stands for the
    edges.  Both ``sigma`` and ``c_floor`` are at most 1, the interior.

    ``sigma`` is nondecreasing in the field angle (Lu-Pan 2000), so it is
    read at the least angle: one ``sigma`` solve per call.  The
    Rayleigh-Ritz ``sigma`` is monotone on either side of
    :data:`SHEAR_ANGLE` but drops by 5.6e-6 across it, where the basis
    switches; face angles straddling it within about 1e-5 rad can give
    ends up to that much above the least Rayleigh-Ritz value over the
    faces.  The upper end is still an upper bound: the true least face
    value is ``sigma(theta_min)``, below its Rayleigh-Ritz value."""
    norm = b.norm
    if norm == 0.0:
        return EnergyEstimate(source="zero field", lower=0.0, upper=0.0)
    faces = cone_faces(section, eps)
    thetas = np.arcsin(np.minimum(1.0, np.abs(faces @ b.as_array()) / norm))
    sigma = halfspace_sigma(float(thetas.min()))
    return EnergyEstimate(source=source + _SIGMA_SOURCE,
                          lower=norm * min(sigma, c_floor),
                          upper=norm * sigma)


def cylinder_energy(field, section: Section, c_floor: float) -> EnergyEstimate:
    """Two-sided estimate for the reference cylinder over a polygonal section.

    The cylinder ``w x R`` is the cone over ``eps * w`` at ``eps = 0``.  Its
    tangent models are full space in the interior, one half-space per side
    (boundary plane spanned by the edge and the axis), one axis-parallel
    wedge per corner with the plane opening angle.  The upper value is
    ``|B|`` times the least side ``sigma``, a Rayleigh-Ritz upper bound; the
    lower value is the least of that and ``c_floor * |B|``, the floor the
    caller trusts for the wedges, and so is not a proven lower bound.
    Homogeneous of degree one in the field.
    """
    b, c = _checked_inputs(field, section, c_floor, "cylinder")
    return _tangent_estimate(b, section, 0.0, c, "cylinder tangent models; ")


def essential_spectrum_limit(field, section: Section, epsilons,
                             c_floor: float
                             ) -> list[tuple[float, EnergyEstimate]]:
    """Two-sided essential-energy estimates for the cone over each ``eps * w``.

    The tangent models of the cone away from the apex are read off on the
    unit sphere: one half-space per lateral face (plane through the origin
    and two consecutive lifted vertices), one wedge per cone edge, floored
    at ``c_floor``.  As ``eps -> 0`` the face planes tend to the cylinder's
    vertical planes, so these estimates converge to :func:`cylinder_energy`,
    which is the same computation at ``eps = 0``.
    """
    b, c = _checked_inputs(field, section, c_floor, "essential spectrum")
    eps_list = [float(e) for e in epsilons]
    if not eps_list or any(not (e > 0.0) for e in eps_list):
        raise DomainError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("epsilons must be strictly decreasing")
    return [(eps, _tangent_estimate(
        b, section, eps, c, f"cone tangent models at eps={eps:g}; "))
        for eps in eps_list]


# ---------------------------------------------------------------------------
# corner concentration

@dataclass(frozen=True)
class ConcentrationVerdict:
    """Outcome of the apex-vs-rest comparison at one sharpness ``eps``;
    the threshold, the floor and degeneracy are read off the
    :class:`ConcentrationThreshold` that gave it."""

    epsilon: float
    vertex_bound: float
    holds: bool


class ConcentrationThreshold:
    """Threshold ``eps* = min(c_floor, 1/2) |B| / (3 e(B, w))``.

    For ``eps < eps*`` the apex channel (first eigenvalue bound
    ``3 eps e(B, w)``) sits strictly below every non-apex tangent channel:
    interior ``|B|``, faces at least ``Theta_0 |B| > |B|/2``, edges at
    least ``c_floor |B|``.  Calling the object at a given ``eps`` returns
    the verdict: the apex bound there and whether it is below the floor.
    Invariant under rescaling of the field.  A zero ``e`` (zero field)
    makes the threshold infinite; that is reported with ``degenerate=True``
    rather than as an error.
    """

    def __init__(self, field, section: Section, c_floor: float) -> None:
        b = MagneticField.from_any(field)
        c = _check_c_floor(c_floor)
        self.e = e_constant(b, moments(section))
        self.floor_used = min(c, 0.5) * b.norm
        self.degenerate = self.e == 0.0
        self.epsilon_star = math.inf if self.degenerate \
            else self.floor_used / (3.0 * self.e)

    def __call__(self, eps: float) -> ConcentrationVerdict:
        e = float(eps)
        if not (e > 0.0) or not math.isfinite(e):
            raise DomainError("eps must be positive")
        vertex_bound = 3.0 * e * self.e
        holds = True if self.degenerate else vertex_bound < self.floor_used
        return ConcentrationVerdict(epsilon=e, vertex_bound=vertex_bound,
                                    holds=holds)


def concentration_threshold(field, section: Section,
                            c_floor: float) -> ConcentrationThreshold:
    """Build the concentration test for a field and section; see the class."""
    return ConcentrationThreshold(field, section, c_floor)


# ---------------------------------------------------------------------------
# edges of the truncated solid

@dataclass(frozen=True)
class TruncatedEdgeReport:
    """Edge openings of the truncated cone ``{x in cone(eps*w), x3 < 1}``.

    ``lateral`` holds one ``(vertex_index, opening)`` per cone edge,
    ``top``     one ``(edge_index, opening)`` per rim edge where a lateral
    face meets the cut plane; rim openings tend to ``pi/2`` as the cone
    sharpens.  ``beta0`` is the best certified uniform bound with
    ``beta0 <= opening <= 2*pi - beta0`` for every edge.
    """

    eps: float
    lateral: tuple[tuple[int, float], ...]
    top: tuple[tuple[int, float], ...]
    beta0: float


def truncated_domain_edges(section: Section, eps: float) -> TruncatedEdgeReport:
    """Openings of all edges of the truncated cone over ``eps * section``."""
    if not isinstance(section, Polygon):
        raise UsageError("edge reports need a polygonal section")
    e = float(eps)
    if not (e > 0.0) or not math.isfinite(e):
        raise DomainError("eps must be positive")
    faces = cone_faces(section, e)
    lateral = _edge_openings(section, faces, np.arange(section.n_vertices))
    # the cut plane's outward normal is +z, so the rim opening is
    # pi - arccos(n_z), taken by atan2 to keep it accurate near 0 and pi
    top = np.arctan2(np.hypot(faces[:, 0], faces[:, 1]), -faces[:, 2])
    both = np.concatenate([lateral, top])
    return TruncatedEdgeReport(
        eps=e, lateral=tuple(enumerate(lateral.tolist())),
        top=tuple(enumerate(top.tolist())),
        beta0=float(min(both.min(), 2.0 * math.pi - both.max())))
