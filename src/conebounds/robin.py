"""Robin Laplacian on sharp cones: the attractive-boundary analogue.

The Laplacian with boundary condition ``du/dn = u`` (attractive Robin,
unit coupling) has ground energy -1 on a half-space, and on a wedge of
opening ``alpha``

    E = -1 / sin(alpha/2)^2   for alpha in (0, pi],
    E = -1                    for alpha in [pi, 2*pi),

so sharp wedges plunge like ``-4/alpha^2``.  Cones behave the same way:
describing the section boundary in polar coordinates about a chosen axis
point by a positive profile ``b(phi)``, a sharp cone obeys the upper bound

    E  <=  - ( int sigma(phi) b(phi)^2 dphi / int b(phi)^2 dphi )^2,
    sigma = sqrt(1 + b^-2 + b'^2 b^-4),

with equality in the rotationally symmetric case: a disc profile of
radius ``tan(alpha/2)`` reproduces the circular-cone value
``-1/sin(alpha/2)^2``.  Scaling the profile by ``eps`` therefore sends the
bound to minus infinity like ``eps^-2``, the Robin counterpart of the
linear-in-``eps`` collapse of the magnetic bounds.

The axis point is the caller's choice and defaults to the section
centroid; the profile construction rejects sections that are not
star-shaped about the chosen axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, UsageError
from .geometry import Disc, Polygon, Section, centroid

#: Valid kinds for :func:`robin_model_energy`.
ROBIN_MODEL_KINDS = ("halfSpace", "wedge")


def robin_model_energy(kind: str, alpha: float | None = None) -> float:
    """Exact Robin ground energies of the flat models (unit coupling)."""
    if kind == "halfSpace":
        return -1.0
    if kind != "wedge":
        raise UsageError(f"unknown robin model kind {kind!r}; "
                         f"expected one of {ROBIN_MODEL_KINDS}")
    if alpha is None:
        raise UsageError("wedge energy needs an opening alpha")
    a = float(alpha)
    if not (0.0 < a < 2.0 * math.pi):
        raise DomainError("wedge opening must lie in (0, 2*pi)")
    if a >= math.pi:
        return -1.0
    return -1.0 / math.sin(0.5 * a) ** 2


@dataclass(frozen=True)
class ProfilePiece:
    """One smooth arc of the polar boundary profile."""

    phi_lo: float
    phi_hi: float
    b: Callable[[float], float]
    db: Callable[[float], float]


class BoundaryProfile:
    """Piecewise-smooth polar description ``r = b(phi)`` of a section boundary.

    Pieces are contiguous, cover total angle ``2*pi``, and carry analytic
    derivatives.  Build with :meth:`from_polygon` or :meth:`from_disc`.
    """

    def __init__(self, pieces: list[ProfilePiece]) -> None:
        if not pieces:
            raise UsageError("profile needs at least one piece")
        total = 0.0
        for k, p in enumerate(pieces):
            span = p.phi_hi - p.phi_lo
            if not (span > 0.0):
                raise UsageError(f"piece {k} has nonpositive angular span")
            total += span
            if k and abs(pieces[k - 1].phi_hi - p.phi_lo) > 1e-12:
                raise UsageError("profile pieces must be contiguous")
        if abs(total - 2.0 * math.pi) > 1e-9:
            raise DomainError("profile pieces must cover total angle 2*pi")
        for k, p in enumerate(pieces):
            probe = np.linspace(p.phi_lo, p.phi_hi, 17)
            if any(not (p.b(x) > 0.0) for x in probe):
                raise DomainError(f"profile must be positive (piece {k})")
        self.pieces = list(pieces)

    @classmethod
    def from_polygon(cls, polygon: Polygon, axis=None) -> "BoundaryProfile":
        """Polar profile of a polygon about an interior axis point.

        Each edge at distance ``d`` from the axis, with outward normal at
        angle ``phi_e``, contributes ``b(phi) = d / cos(phi - phi_e)`` on
        the angular interval its endpoints subtend.  The polygon must be
        star-shaped about the axis; otherwise some ray misses its edge and
        the construction raises.
        """
        ax = np.asarray(axis, dtype=float) if axis is not None \
            else centroid(polygon)
        if ax.shape != (2,):
            raise UsageError("axis must be a plane point")
        v = polygon.vertices - ax
        n = len(v)
        scale = float(np.abs(v).max())
        phi0 = math.atan2(v[0][1], v[0][0])
        pieces = []
        lo = phi0
        for i in range(n):
            p, q = v[i], v[(i + 1) % n]
            d_edge = q - p
            length = math.hypot(d_edge[0], d_edge[1])
            nx, ny = d_edge[1] / length, -d_edge[0] / length  # outward for CCW
            dist = float(p[0] * nx + p[1] * ny)
            if dist <= 1e-12 * scale:
                raise DomainError(
                    "axis is not strictly inside, or section is not "
                    "star-shaped about it")
            span = (math.atan2(q[1], q[0]) - math.atan2(p[1], p[0])) \
                % (2.0 * math.pi)
            if not (0.0 < span < math.pi):
                raise DomainError("section is not star-shaped about the axis")
            phi_e = math.atan2(ny, nx)
            mid = lo + 0.5 * span
            # unwrap the foot angle next to this piece
            phi_e += round((mid - phi_e) / (2.0 * math.pi)) * 2.0 * math.pi
            pieces.append(ProfilePiece(
                phi_lo=lo, phi_hi=lo + span,
                b=lambda t, d=dist, f=phi_e: d / math.cos(t - f),
                db=lambda t, d=dist, f=phi_e:
                    d * math.sin(t - f) / math.cos(t - f) ** 2))
            lo += span
        if abs((lo - phi0) - 2.0 * math.pi) > 1e-9:
            raise DomainError("edges do not wind once about the axis; "
                              "section is not star-shaped about it")
        return cls(pieces)

    @classmethod
    def from_disc(cls, disc: Disc, axis=None) -> "BoundaryProfile":
        """Polar profile of a disc; constant when the axis is the centre."""
        ax = np.asarray(axis, dtype=float) if axis is not None \
            else disc.center.copy()
        if ax.shape != (2,):
            raise UsageError("axis must be a plane point")
        off = disc.center - ax
        c = math.hypot(off[0], off[1])
        r = disc.radius
        if c >= r * (1.0 - 1e-12):
            raise DomainError("axis must lie strictly inside the disc")
        if c == 0.0:
            return cls([ProfilePiece(0.0, 2.0 * math.pi,
                                     b=lambda t, rr=r: rr,
                                     db=lambda t: 0.0)])
        phi_c = math.atan2(off[1], off[0])

        def b(t, c=c, r=r, f=phi_c):
            s = math.sin(t - f)
            return c * math.cos(t - f) + math.sqrt(r * r - c * c * s * s)

        def db(t, c=c, r=r, f=phi_c):
            s, co = math.sin(t - f), math.cos(t - f)
            return -c * s - c * c * s * co / math.sqrt(r * r - c * c * s * s)

        return cls([ProfilePiece(phi_c, phi_c + 2.0 * math.pi, b=b, db=db)])

    @classmethod
    def from_section(cls, section: Section, axis=None) -> "BoundaryProfile":
        if isinstance(section, Polygon):
            return cls.from_polygon(section, axis=axis)
        if isinstance(section, Disc):
            return cls.from_disc(section, axis=axis)
        raise UsageError(f"not a section: {section!r}")

    def scaled(self, eps: float) -> "BoundaryProfile":
        """Profile of the section dilated by ``eps``."""
        e = float(eps)
        if not (e > 0.0) or not math.isfinite(e):
            raise DomainError("eps must be positive")
        return BoundaryProfile([
            ProfilePiece(p.phi_lo, p.phi_hi,
                         b=lambda t, f=p.b: e * f(t),
                         db=lambda t, f=p.db: e * f(t))
            for p in self.pieces])


def robin_cone_upper_bound(profile: BoundaryProfile) -> float:
    """Upper bound for the Robin cone energy from the polar profile.

    Evaluates ``-(int sigma b^2 / int b^2)^2`` with
    ``sigma = sqrt(1 + b^-2 + b'^2 b^-4)`` by adaptive quadrature piece by
    piece (absolute tolerance 1e-12 each, pieces split exactly at the
    break angles).  Always at most -1, the half-space value.
    """
    from scipy.integrate import quad

    num = 0.0
    den = 0.0
    err = 0.0
    for p in profile.pieces:
        def f_num(t, pp=p):
            bb = pp.b(t)
            dd = pp.db(t)
            sig = math.sqrt(1.0 + 1.0 / bb ** 2 + dd ** 2 / bb ** 4)
            return sig * bb * bb

        def f_den(t, pp=p):
            return pp.b(t) ** 2

        v1, e1 = quad(f_num, p.phi_lo, p.phi_hi, epsabs=1e-12,
                      epsrel=1e-12, limit=200)
        v2, e2 = quad(f_den, p.phi_lo, p.phi_hi, epsabs=1e-12,
                      epsrel=1e-12, limit=200)
        num += v1
        den += v2
        err += e1 + e2
    if den <= 0.0:
        raise DomainError("degenerate profile: zero squared mass")
    if err > 1e-8 * max(num, den):
        raise AccuracyError("profile quadrature did not converge")
    ratio = num / den
    return -ratio * ratio


def robin_scaling_exponent(profile: BoundaryProfile, epsilons) -> float:
    """Log-log slope of the cone bound magnitude against profile scale.

    Needs at least three scales spanning a decade; the bound behaves like
    ``-C eps^-2`` for small ``eps``, so the slope approaches -2.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise UsageError("need at least three epsilon values")
    if any(not (e > 0.0) for e in eps):
        raise DomainError("epsilons must be positive")
    if max(eps) / min(eps) < 10.0 * (1.0 - 1e-9):
        raise UsageError("epsilon values must span at least a decade")
    vals = [abs(robin_cone_upper_bound(profile.scaled(e))) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    return float(slope)


def robin_best_axis_bound(section: Section, refine: int = 3):
    """Optional axis scan: least cone bound over a small grid of interior axes.

    Tries the centroid plus points pulled toward each vertex (polygons) or
    the centre (discs); axes that break star-shapedness are skipped.
    Returns ``(bound, axis)``.  Off the default path: the plain
    :func:`robin_cone_upper_bound` never scans.
    """
    cands = [centroid(section)]
    if isinstance(section, Polygon) and refine > 0:
        c = centroid(section)
        for t in np.linspace(0.15, 0.6, int(refine)):
            for v in section.vertices:
                cands.append((1.0 - t) * c + t * v)
    best = (math.inf, None)
    for ax in cands:
        try:
            val = robin_cone_upper_bound(
                BoundaryProfile.from_section(section, axis=ax))
        except DomainError:
            continue
        if val < best[0]:
            best = (val, np.asarray(ax, dtype=float))
    if best[1] is None:
        raise DomainError("no admissible axis found")
    return best
