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

The polar profile itself is never built.  With ``h`` the distance from the
axis to the tangent line of the boundary and ``ds`` the arc length,
``sigma b^2 dphi = sqrt(1 + h^2) ds`` and ``b^2 dphi = h ds``, so

    E  <=  - ( oint sqrt(1 + h^2) ds / oint h ds )^2,   oint h ds = 2 |w|.

On a polygon ``h`` is constant along each edge and both integrals are
sums over the edges.  On a disc of radius ``r`` whose centre lies ``c``
from the axis, ``h = r + c cos(psi)`` at rim angle ``psi``: about the
centre the bound is ``-(1 + r^-2)``, and off the centre the rim integral
is the periodic trapezoid rule, its nodes doubled from 32 until two
successive values agree to 1e-15 relative.

The axis point is the caller's choice and defaults to the section
centroid; the profile construction rejects sections that are not
star-shaped about the chosen axis.  :func:`robin_best_axis_bound` finds
the best axis exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AccuracyError, DomainError, UsageError
from .geometry import Disc, Polygon, Section, _cross, centroid


def robin_wedge_energy(alpha: float) -> float:
    """Exact Robin ground energy of the wedge of opening ``alpha`` (unit
    coupling): ``-1 / sin(alpha/2)^2`` up to ``pi``, then -1, the
    half-space value."""
    a = float(alpha)
    if not (0.0 < a < 2.0 * math.pi):
        raise DomainError("wedge opening must lie in (0, 2*pi)")
    if a >= math.pi:
        return -1.0
    return -1.0 / math.sin(0.5 * a) ** 2


def _edge_support(vertices: np.ndarray, points: np.ndarray):
    """Edge lengths ``(n,)`` and the distances ``h[k, i]`` from ``points[k]``
    to the line of edge ``i``, positive on the inner side of a
    counterclockwise polygon."""
    d = np.roll(vertices, -1, axis=0) - vertices
    length = np.hypot(d[:, 0], d[:, 1])
    return length, _cross(d, points[:, None, :] - vertices) / length


def _axis(axis, default: np.ndarray) -> np.ndarray:
    ax = default if axis is None else np.asarray(axis, dtype=float)
    if ax.shape != (2,):
        raise UsageError("axis must be a plane point")
    return ax


@dataclass(frozen=True, eq=False)
class BoundaryProfile:
    """Support data of a section boundary about an axis point.

    ``pieces`` holds one row ``(length, h)`` per polygon edge, ``h`` the
    distance from the axis to the edge's line; for a disc (``disc`` true)
    it holds the one row ``(radius, offset)``, ``offset`` the distance from
    the axis to the centre.  Build with :meth:`from_section`.
    """

    pieces: np.ndarray
    disc: bool = False

    @classmethod
    def from_polygon(cls, polygon: Polygon, axis=None) -> "BoundaryProfile":
        """Edge rows of a polygon about an axis point, by default the centroid.

        The polygon is simple, so every ``h`` being positive is the same as
        the axis lying strictly inside and the polygon being star-shaped
        about it.
        """
        ax = _axis(axis, centroid(polygon))
        length, (h,) = _edge_support(polygon.vertices, ax[None, :])
        if not np.all(h > 1e-12 * np.abs(polygon.vertices - ax).max()):
            raise DomainError(
                "axis is not strictly inside, or section is not "
                "star-shaped about it")
        return cls(np.column_stack([length, h]))

    @classmethod
    def from_disc(cls, disc: Disc, axis=None) -> "BoundaryProfile":
        """Radius and axis offset of a disc; the axis defaults to the centre."""
        off = disc.center - _axis(axis, disc.center)
        c = math.hypot(off[0], off[1])
        r = disc.radius
        if not (c < r * (1.0 - 1e-12)):  # a NaN axis fails here too
            raise DomainError("axis must lie strictly inside the disc")
        return cls(np.array([[r, c]]), disc=True)

    @classmethod
    def from_section(cls, section: Section, axis=None) -> "BoundaryProfile":
        if isinstance(section, Polygon):
            return cls.from_polygon(section, axis=axis)
        if isinstance(section, Disc):
            return cls.from_disc(section, axis=axis)
        raise UsageError(f"not a section: {section!r}")

    @property
    def method(self) -> str:
        """How :func:`robin_cone_upper_bound` evaluates this profile:
        ``"exact"`` (a closed form) for a polygon or a disc about its
        centre, ``"quadrature"`` (the rim trapezoid rule) for a disc about
        any other axis."""
        return "quadrature" if self.disc and self.pieces[0, 1] != 0.0 \
            else "exact"

    def scaled(self, eps: float) -> "BoundaryProfile":
        """Profile of the section dilated by ``eps`` about the axis."""
        e = float(eps)
        if not (e > 0.0) or not math.isfinite(e):
            raise DomainError("eps must be positive")
        return replace(self, pieces=e * self.pieces)


def _rim_mean(r: float, c: float) -> float:
    """Mean of ``sqrt(1 + h^2)``, ``h = r + c cos(psi)``, over the rim angle.

    Periodic trapezoid rule; each doubling adds the midpoints of the
    previous nodes.  The error falls geometrically, at a rate set by how
    near the branch points ``h = +-i`` come to the real ``psi`` axis, so the
    node count depends on ``r`` and ``c`` (512 nodes for ``r = 100``,
    ``c = 99``).
    """
    def mean(psi):
        return float(np.mean(np.sqrt(1.0 + (r + c * np.cos(psi)) ** 2)))

    n = 32
    value = mean(np.arange(n) * (2.0 * math.pi / n))
    while n < 1 << 20:
        new = 0.5 * (value + mean((np.arange(n) + 0.5) * (2.0 * math.pi / n)))
        n *= 2
        if abs(new - value) <= 1e-15 * new:
            return new
        value = new
    raise AccuracyError("rim trapezoid rule did not converge in 2^20 nodes")


def robin_cone_upper_bound(profile: BoundaryProfile) -> float:
    """Upper bound ``-(oint sqrt(1 + h^2) ds / oint h ds)^2`` for the Robin
    cone energy.

    One sum over the edges of a polygon; for a disc, ``-(1 + r^-2)`` about
    the centre and the rim trapezoid rule elsewhere.  Always below -1, the
    half-space value, since ``sqrt(1 + h^2) > h``.
    """
    if profile.disc:
        r, c = map(float, profile.pieces[0])
        if c == 0.0:
            return -(1.0 + 1.0 / (r * r))
        ratio = _rim_mean(r, c) / r
    else:
        length, h = profile.pieces.T
        ratio = float(length @ np.sqrt(1.0 + h * h) / (length @ h))
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


def _clip(poly: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The part of the convex polygon ``poly`` left of the line ``a -> b``."""
    s = _cross(b - a, poly - a)
    s1 = np.roll(s, -1)
    cut = s * s1 < 0.0
    t = np.divide(s, s - s1, out=np.zeros_like(s), where=cut)
    crossing = poly + t[:, None] * (np.roll(poly, -1, axis=0) - poly)
    keep = np.column_stack([s >= 0.0, cut]).ravel()
    return np.stack([poly, crossing], axis=1).reshape(-1, 2)[keep]


def robin_best_axis_bound(section: Section):
    """Least cone bound over all axis points, and an axis that attains it.

    ``oint h ds = 2|w|`` does not depend on the axis, and
    ``oint sqrt(1 + h^2) ds`` is convex in it because each edge's ``h`` is
    affine in it, so over the kernel (the axes the section is star-shaped
    about) the least bound sits at a kernel vertex.  The kernel is the
    bounding box clipped by the inner half-plane of every edge.  A kernel
    vertex is on the boundary, where :meth:`BoundaryProfile.from_polygon`
    refuses the axis; the bound there is the limit of the bounds of
    interior axes, so it is a valid bound too.  For a disc every rim point
    is optimal.  Returns ``(bound, axis)``.
    """
    if isinstance(section, Disc):
        r = section.radius
        rim = BoundaryProfile(np.array([[r, r]]), disc=True)
        return robin_cone_upper_bound(rim), section.center + np.array([r, 0.0])
    if not isinstance(section, Polygon):
        raise UsageError(f"not a section: {section!r}")
    v = section.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    kernel = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        kernel = _clip(kernel, a, b)
    area = 0.5 * float(np.sum(_cross(kernel, np.roll(kernel, -1, axis=0))))
    if not area > 1e-12 * float(np.prod(hi - lo)):
        raise DomainError("section is not star-shaped about any interior point")
    length, h = _edge_support(v, kernel)
    best = int(np.argmax(np.sqrt(1.0 + h * h) @ length))
    vertex = BoundaryProfile(np.column_stack([length, h[best]]))
    return robin_cone_upper_bound(vertex), kernel[best]
