"""Plane sections of a cone and their exact second moments.

A cone here is the dilation-invariant set ``{x3 > 0, (x1/x3, x2/x3) in w}``
for a bounded plane section ``w``.  Everything spectral about the cone that
this package bounds is driven by three numbers, the second moments of the
section

    M0 = int_w x2^2,   M1 = int_w x1*x2,   M2 = int_w x1^2,

together with the area.  For polygons the moments are computed in closed
form edge by edge (Green's theorem), for discs from the classical formulas,
so no quadrature error enters the bounds.

The module also carries the geometric bookkeeping needed by the spectral
estimates: the outward normals of the lateral cone faces (:func:`cone_faces`)
and from them the opening of the tangent wedge along a cone edge (a
dihedral angle, equal to the interior angle of the spherical section at the
corresponding vertex).  Both take ``eps = 0``, the reference cylinder over
the section, whose tangent models (one half-space per side, one wedge per
corner at the plane angle) are thus the same computation as the cone's.
The radial projection that compares a sharp cone with a thin cylinder,
and the quadrature nodes that check the moments, live with the tests
(``tests/conftest.py::project_P`` and ``section_nodes``).

Conventions: angles in radians, vertices normalized to counterclockwise
order, no implicit recentring of sections.  A separate helper reports the
centroid when a caller wants to recentre explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, UsageError

# Relative tolerance used to flag coincident vertices and zero-length edges.
DEGENERACY_RTOL = 1e-12

# Message of the GeometryError for a section too large for double precision.
_OVERFLOW = ("section moments overflow: the section is too large for "
             "double precision")

# Edge pairs that ``Polygon._check_simple`` tests per numpy pass; bounds the
# temporaries of one pass to a few MB whatever the vertex count.
_PAIR_BLOCK = 1 << 14


def _cross(u, w):
    """``u x w`` of plane vectors, broadcast over leading axes."""
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _shoelace(v: np.ndarray):
    """Coordinates, their cyclic successors and the shoelace terms.

    Returns ``x, y, xn, yn, c`` with ``xn[i] = x[i+1]`` (cyclic) and
    ``c = x*yn - xn*y``; ``sum(c)`` is twice the signed area.
    """
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return x, y, xn, yn, x * yn - xn * y


class Polygon:
    """Simple polygon section, vertices stored counterclockwise.

    Parameters
    ----------
    vertices : array_like, shape (n, 2)
        Corner coordinates in order.  Clockwise input is accepted and
        silently reversed; the ``reoriented`` attribute records that.

    Raises
    ------
    GeometryError
        Fewer than three vertices, coincident consecutive vertices
        (within ``DEGENERACY_RTOL`` times the diameter), a diameter too
        large for the corner and crossing tests (``2 diam^2`` overflows,
        about 9.5e153 across) or an area that overflows, zero area, a
        zero-angle spike, or a self-intersecting boundary.

    Notes
    -----
    The spike test is one numpy expression over all corners.  The
    simplicity test compares every pair of non-adjacent edges, ``n^2 / 2``
    pairs, in numpy passes over blocks of whole rows of about ``2^14``
    pairs each, so its temporaries stay at a few MB for any ``n`` (a
    4096-vertex polygon takes 0.85 s on a 2-vCPU host).  Both keep the float
    expressions of a scalar test, collinear touching included, and name
    the first offending vertex or edge pair ``(i, j)``, ``i < j``.
    """

    def __init__(self, vertices) -> None:
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 plane vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        with np.errstate(over="ignore"):  # an inf diameter is refused below
            diam = float(np.ptp(v, axis=0).max())
        if diam == 0.0:
            raise GeometryError("polygon has zero diameter")
        # the corner and crossing tests subtract products of coordinate
        # differences, each at most diam^2
        if math.isinf(2.0 * diam * diam):
            raise GeometryError(_OVERFLOW)
        tol = DEGENERACY_RTOL * diam
        edges = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= tol):
            raise GeometryError("coincident consecutive vertices")
        with np.errstate(over="ignore", invalid="ignore"):
            area2 = float(np.sum(_shoelace(v)[-1]))
        if not math.isfinite(area2):
            raise GeometryError(_OVERFLOW)
        if abs(area2) <= tol * diam:
            raise GeometryError("polygon area is numerically zero")
        self.reoriented = area2 < 0.0
        if self.reoriented:
            v = v[::-1].copy()
        self.vertices = v
        self._check_spikes()
        self._check_simple()

    def _check_spikes(self) -> None:
        # zero interior angle means the two edges overlap: a spike
        cross, dot = _corner_turns(self.vertices, np.arange(self.n_vertices))
        spike = (cross == 0.0) & (dot > 0.0)
        if spike.any():
            raise GeometryError(f"zero-angle spike at vertex {np.argmax(spike)}")

    def _check_simple(self) -> None:
        # edge k runs from a[k] to b[k]; rows i0 <= i < i1 are tested against
        # every later edge j, adjacent pairs (which share a vertex by
        # construction) masked out, so the first hit in row-major order is
        # the first pair (i, j) in lexicographic order
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        n = len(a)
        i0 = 0
        while i0 < n - 2:
            i1 = min(n - 2, i0 + max(1, _PAIR_BLOCK // (n - i0)))
            i = np.arange(i0, i1)[:, None]
            j = np.arange(i0 + 2, n)[None, :]
            hit = _segments_intersect(a[i], b[i], a[j], b[j])
            hit &= (j > i + 1) & ((i > 0) | (j < n - 1))
            if hit.any():
                r, c = np.unravel_index(np.argmax(hit), hit.shape)
                raise GeometryError(f"boundary self-intersects "
                                    f"(edges {i0 + r} and {i0 + 2 + c})")
            i0 = i1

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polygon({self.vertices.tolist()!r})"


class Disc:
    """Disc section with arbitrary centre."""

    def __init__(self, center, radius: float) -> None:
        c = np.asarray(center, dtype=float)
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise GeometryError("disc centre must be a finite 2-vector")
        self.center = c
        self.radius = scale_factor(radius, "disc radius")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Disc(center={self.center.tolist()!r}, radius={self.radius!r})"


Section = Polygon | Disc


# The three predicates below broadcast over leading axes of ``(..., 2)``
# point arrays and keep the float expressions of a scalar evaluation, so
# every accept/reject decision of ``Polygon._check_simple`` is exact.

def _orient(p, q, r) -> np.ndarray:
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _on_segment(p, q, r) -> np.ndarray:
    # r collinear with pq: does r lie within the bounding box of pq?
    return ((np.minimum(p[..., 0], q[..., 0]) <= r[..., 0])
            & (r[..., 0] <= np.maximum(p[..., 0], q[..., 0]))
            & (np.minimum(p[..., 1], q[..., 1]) <= r[..., 1])
            & (r[..., 1] <= np.maximum(p[..., 1], q[..., 1])))


def _segments_intersect(a, b, c, d) -> np.ndarray:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    proper = (((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0))
              & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0))
    # collinear touching: an endpoint of one segment lies on the other
    return (proper
            | ((o1 == 0) & _on_segment(a, b, c))
            | ((o2 == 0) & _on_segment(a, b, d))
            | ((o3 == 0) & _on_segment(c, d, a))
            | ((o4 == 0) & _on_segment(c, d, b)))


@dataclass(frozen=True)
class Moments:
    """Area and second moments of a section.

    ``M0, M1, M2`` are the raw integrals of ``x2^2``, ``x1*x2``, ``x1^2``;
    ``m0, m1, m2`` the same divided by the area.
    """

    area: float
    M0: float
    M1: float
    M2: float

    @property
    def m0(self) -> float:
        return self.M0 / self.area

    @property
    def m1(self) -> float:
        return self.M1 / self.area

    @property
    def m2(self) -> float:
        return self.M2 / self.area

    def linear_norm_sq(self, rows) -> float:
        """Exact ``int_w |L x|^2 dx`` for the linear map ``L`` with the
        given rows ``(l1, l2)``, ``x -> (l1 x1 + l2 x2, ...)``."""
        return sum(p * p * self.M2 + 2.0 * p * q * self.M1 + q * q * self.M0
                   for p, q in rows)

    def as_dict(self) -> dict:
        return {"area": self.area, "M0": self.M0, "M1": self.M1,
                "M2": self.M2, "m0": self.m0, "m1": self.m1, "m2": self.m2}


def polygon_moments(polygon: Polygon) -> Moments:
    """Exact area and second moments of a simple polygon.

    Green's theorem turns each area integral into a sum over boundary
    edges.  With ``ci = x_i*y_{i+1} - x_{i+1}*y_i`` (indices cyclic):

        area      = sum(ci) / 2
        int x^2   = sum((x_i^2 + x_i x_{i+1} + x_{i+1}^2) ci) / 12
        int x*y   = sum((x_i y_{i+1} + 2 x_i y_i + 2 x_{i+1} y_{i+1}
                         + x_{i+1} y_i) ci) / 24
        int y^2   = sum((y_i^2 + y_i y_{i+1} + y_{i+1}^2) ci) / 12
    """
    # a sum that overflows is reported by ``moments``
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, xn, yn, c = _shoelace(polygon.vertices)
        area = 0.5 * float(np.sum(c))
        ix2 = float(np.sum((x * x + x * xn + xn * xn) * c)) / 12.0
        ixy = float(np.sum((x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y) * c)) / 24.0
        iy2 = float(np.sum((y * y + y * yn + yn * yn) * c)) / 12.0
    return Moments(area=area, M0=iy2, M1=ixy, M2=ix2)


def disc_moments(disc: Disc) -> Moments:
    """Moments of a disc: ``m2 = R^2/4 + c1^2``, ``m1 = c1 c2``, ``m0 = R^2/4 + c2^2``."""
    c1, c2 = disc.center.tolist()
    r = disc.radius
    area = math.pi * r * r
    quarter = 0.25 * r * r
    return Moments(area=area,
                   M0=area * (quarter + c2 * c2),
                   M1=area * (c1 * c2),
                   M2=area * (quarter + c1 * c1))


def moments(section: Section) -> Moments:
    """Area and second moments of a polygon or a disc.

    Raises ``GeometryError`` when one of them is not finite: the second
    moments grow like the fourth power of the size, so a section about
    1e77 across overflows, and every bound read from it would be ``nan``.
    """
    if isinstance(section, Polygon):
        m = polygon_moments(section)
    elif isinstance(section, Disc):
        m = disc_moments(section)
    else:
        raise UsageError(f"not a section: {section!r}")
    if not all(map(math.isfinite, (m.area, m.M0, m.M1, m.M2))):
        raise GeometryError(_OVERFLOW)
    return m


def centroid(section: Section) -> np.ndarray:
    """Centroid of a section (no recentring is ever done implicitly)."""
    if isinstance(section, Disc):
        return section.center.copy()
    x, y, xn, yn, c = _shoelace(section.vertices)
    area = 0.5 * float(np.sum(c))
    cx = float(np.sum((x + xn) * c)) / (6.0 * area)
    cy = float(np.sum((y + yn) * c)) / (6.0 * area)
    return np.array([cx, cy])


def scale_factor(value, name="scale factor", error=GeometryError) -> float:
    """``value`` as a float, after checking that it is a positive finite
    number (a dilation, a radius, a coupling, an opening); otherwise raises
    ``error("<name> must be positive")``."""
    x = float(value)
    if not (x > 0.0) or not math.isfinite(x):
        raise error(f"{name} must be positive")
    return x


def scale_section(section: Section, eps: float) -> Section:
    """Dilate a section by ``eps`` about the origin."""
    e = scale_factor(eps)
    if isinstance(section, Disc):
        return Disc(e * section.center, e * section.radius)
    if isinstance(section, Polygon):
        return Polygon(e * section.vertices)
    raise UsageError(f"not a section: {section!r}")


# ---------------------------------------------------------------------------
# corner angles, cone faces and cone-edge openings

def _corner_turns(v: np.ndarray, idx: np.ndarray):
    """``(w x u, w . u)`` at the vertices ``idx`` of ``v``, with ``u`` and
    ``w`` the edges from each to its previous and its next vertex."""
    u = v[(idx - 1) % len(v)] - v[idx]
    w = v[(idx + 1) % len(v)] - v[idx]
    return _cross(w, u), w[:, 0] * u[:, 0] + w[:, 1] * u[:, 1]


def _corner_angles(polygon: Polygon, idx: np.ndarray) -> np.ndarray:
    """Interior corner angles at the vertices ``idx``, in (0, 2*pi).

    Reflex corners of nonconvex polygons give angles above pi, a straight
    corner (collinear neighbours) gives pi.  Raises ``GeometryError`` at
    the first of them that is numerically 0 or 2*pi: the tangent wedge is
    not defined there.
    """
    # interior lies to the left of the oriented boundary, so sweep
    # counterclockwise from the outgoing edge to the reversed incoming one
    ang = np.arctan2(*_corner_turns(polygon.vertices, idx)) % (2.0 * math.pi)
    bad = np.minimum(ang, 2.0 * math.pi - ang) < 1e-9
    if bad.any():
        raise GeometryError(
            f"degenerate corner angle at vertex {idx[np.argmax(bad)]}")
    return ang


def cone_faces(polygon: Polygon, eps: float) -> np.ndarray:
    """Outward unit normals of the lateral faces of the cone over ``eps * polygon``.

    Row ``i`` belongs to the face through the lifted vertices
    ``L(v_i), L(v_{i+1})``, ``L(q) = (eps*q, 1)``.  It is
    ``(d_y, -d_x, eps (v_{i+1} x v_i))`` normalized, ``d = v_{i+1} - v_i``,
    the direction of ``L(v_{i+1}) x L(v_i)`` for ``eps > 0``.  For
    counterclockwise vertices it points out of the cone whether or not the
    polygon is convex, since its product with ``L(q)`` is
    ``-eps cross(d, q - v_i)``.  ``eps = 0`` is the reference cylinder over
    the polygon: the rows are its horizontal outward side normals.  Each
    row is divided by its largest entry before it is normalized, so no
    square overflows or underflows; an ``eps`` so large that
    ``eps (v_{i+1} x v_i)`` overflows raises ``GeometryError``.
    """
    e = float(eps)
    if not (e >= 0.0) or not math.isfinite(e):
        raise GeometryError("eps must be finite and nonnegative")
    x, y, xn, yn, c = _shoelace(polygon.vertices)
    if math.isinf(e * float(np.abs(c).max())):
        raise GeometryError("eps times the polygon overflows")
    rows = np.column_stack([yn - y, x - xn, -e * c])
    rows /= np.abs(rows).max(axis=1)[:, None]
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _edge_openings(polygon: Polygon, faces: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    # the dihedral angle between rows i-1 and i of ``cone_faces`` through
    # the inside of the cone; central projection keeps corner convexity, so
    # an edge is reflex exactly where its plane corner is
    alpha = _corner_angles(polygon, idx)
    prev, face = faces[idx - 1], faces[idx]
    between = np.arctan2(np.linalg.norm(np.cross(prev, face), axis=1),
                         np.sum(prev * face, axis=1))
    return np.where(alpha > math.pi, math.pi + between, math.pi - between)


def spherical_vertex_opening(polygon: Polygon, i: int, eps: float) -> float:
    """Opening of the tangent wedge along the cone edge through vertex ``i``.

    The cone over the section scaled by ``eps`` has a one-dimensional edge
    through ``(eps*v, 1)`` for each polygon vertex ``v``.  The tangent wedge
    along that edge is bounded by the planes of the two adjacent lateral
    faces; its opening is their dihedral angle measured through the inside
    of the cone, equal to the interior angle of the spherical section at
    the corresponding vertex.  As ``eps -> 0`` the opening converges to the
    plane corner angle ``alpha`` at rate ``eps^2``: up to the factor ``eps``
    the adjacent face normals are ``(a2 - p2, p1 - a1, eps (a x p))``, so
    the opening is even in ``eps`` and equals ``alpha + c eps^2 + O(eps^4)``,
    with ``c = 0`` when the vertex sits at the origin (there the opening
    is ``alpha`` for every ``eps``).

    The angle is read off the outward face normals of :func:`cone_faces`:
    ``pi - angle(n_{i-1}, n_i)`` at a convex edge and ``pi + angle`` at a
    reflex one, the reflex side taken from the plane corner, which keeps
    reflex corners of nonconvex sections correct.  A straight corner gives
    ``pi``: its two faces are coplanar.  At ``eps = 0`` the opening is the
    plane corner angle.  Raises ``GeometryError`` at a corner of angle
    (numerically) 0 or ``2*pi``.  Nothing in the essential-energy
    estimates reads the openings: the wedge channel enters them only
    through the caller's floor.
    :func:`~conebounds.models.truncated_domain_edges` gives every edge of
    the truncated cone at once.
    """
    return float(_edge_openings(polygon, cone_faces(polygon, eps),
                                np.array([i % polygon.n_vertices]))[0])


# ---------------------------------------------------------------------------
# JSON interchange

def _is_number(x) -> bool:
    # a JSON boolean is a Python bool, which is an int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_point(p) -> bool:
    return (isinstance(p, (list, tuple)) and len(p) == 2
            and all(map(_is_number, p)))


def section_from_json(obj: dict) -> Section:
    """Build a section from ``{"polygon": [[x, y], ...]}`` or
    ``{"disc": {"center": [x, y], "radius": r}}``."""
    if not isinstance(obj, dict):
        raise UsageError("section JSON must be an object")
    keys = set(obj.keys())
    if keys == {"polygon"}:
        verts = obj["polygon"]
        if not (isinstance(verts, list) and all(map(_is_point, verts))):
            raise UsageError("polygon must be a list of [x, y] pairs")
        return Polygon(verts)
    if keys == {"disc"}:
        d = obj["disc"]
        if not (isinstance(d, dict) and set(d.keys()) == {"center", "radius"}):
            raise UsageError('disc must be {"center": [x, y], "radius": r}')
        if not _is_point(d["center"]):
            raise UsageError("disc centre must be [x, y]")
        if not _is_number(d["radius"]):
            raise UsageError("disc radius must be a number")
        return Disc(d["center"], d["radius"])
    raise UsageError('section JSON must have exactly one of "polygon", "disc"')
