"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own algorithms: moments
are integrated by tensor-product Gauss-Legendre rules assembled from
scratch (triangle fan for polygons, polar grid for discs), so closed-form
moment code is cross-checked against an independent route;
``cone_quotient`` integrates a height profile's magnetic quotient over the
solid cone with the same section rules, the check of the half-line
reduction that the library states by algebra; ``rayleigh_quotient_1d``
is the Simpson quotient of a trial profile on an explicit grid, and
``fd_halfline_eigs`` assembles the three-point half-line matrix for any
``lam`` and grid, the reference for the library's one matrix at
``lam = 1``; the optimal gauge is recomputed from finite differences of
its quadratic objective; the half-plane energy ``sigma(theta)`` is
cross-checked by finite differences against the library's spectral
Rayleigh-Ritz solve, and so is the de Gennes band ``mu(xi)``
(``fd_degennes_mu``);
``per_face_channel_ends`` solves ``sigma`` on every face of a cone and
takes the least face channel, the reference for the library's estimate,
which solves once, at the least face angle; the
radial projection of the cone onto a thin cylinder, with its Jacobian,
gives the cone-versus-cylinder deviation checks; ``quad_robin_bound``
integrates the Robin cone bound over the polar boundary profile with
adaptive quadrature, the reference for the edge sums of ``robin``; and
``ScalarPolygon`` validates polygons by scalar loops over corners and edge
pairs, the reference for the vectorised checks of ``Polygon``; and
``reference_dumps_report`` serializes a report by one recursive call per
value, the reference for the one-pass writer of ``cli.dumps_report``.
"""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conebounds import (AccuracyWarning, Disc, DomainError, GeometryError,
                        MagneticField, Moments, Polygon, TransverseGauge,
                        UsageError, centroid, cone_faces, halfspace_sigma,
                        lambda_from_gauge, moments)


# ---------------------------------------------------------------------------
# quadrature nodes on a section (independent of the closed-form moments)

def polygon_nodes(vertices, order=24):
    """Nodes and weights integrating over a star-shaped polygon.

    Fan of triangles from the first vertex, each mapped from the unit
    square by a Duffy-type collapse; weights carry the signed triangle
    jacobian, so reentrant fans still integrate correctly.
    """
    v = np.asarray(vertices, dtype=float)
    g, w = leggauss(order)
    u = 0.5 * (g + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wuu, wvv = np.meshgrid(wu, wu, indexing="ij")
    pts = []
    wts = []
    for i in range(1, len(v) - 1):
        a, b, c = v[0], v[i], v[i + 1]
        jac = (b[0] - a[0]) * (c[1] - b[1]) - (c[0] - b[0]) * (b[1] - a[1])
        x = a[0] + uu * (b[0] - a[0]) + uu * vv * (c[0] - b[0])
        y = a[1] + uu * (b[1] - a[1]) + uu * vv * (c[1] - b[1])
        pts.append(np.column_stack([x.ravel(), y.ravel()]))
        wts.append((wuu * wvv * uu * jac).ravel())
    return np.vstack(pts), np.concatenate(wts)


def disc_nodes(center, radius, n_r=24, n_phi=48):
    g, w = leggauss(n_r)
    r = 0.5 * radius * (g + 1.0)
    wr = 0.5 * radius * w * r
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    x = center[0] + rr * np.cos(pp)
    y = center[1] + rr * np.sin(pp)
    ww = np.broadcast_to(wr[:, None] * wphi, rr.shape)
    return np.column_stack([x.ravel(), y.ravel()]), ww.ravel()


def section_nodes(section, order=24):
    if isinstance(section, Polygon):
        return polygon_nodes(section.vertices, order=order)
    if isinstance(section, Disc):
        return disc_nodes(section.center, section.radius,
                          n_r=order, n_phi=2 * order)
    raise TypeError(f"not a section: {section!r}")


def quad_moments(section, order=24):
    """Moment oracle (area, M0, M1, M2) by direct quadrature."""
    pts, w = section_nodes(section, order=order)
    x, y = pts[:, 0], pts[:, 1]
    return (float(np.sum(w)), float(np.sum(w * y * y)),
            float(np.sum(w * x * y)), float(np.sum(w * x * x)))


# ---------------------------------------------------------------------------
# solid-cone quotient of a height profile (independent of the 1D reduction)

def cone_quotient(phi, dphi, gauge, section):
    """``(three_d, one_d)``: two quotients of one height profile ``phi``.

    ``three_d`` integrates ``|A(x)|^2 phi(x3)^2 + phi'(x3)^2`` over the cone
    truncated at ``12 lam^(-1/4)`` (at 12 when ``lam = 0``), with the linear
    gauge ``A(x) = gauge @ (x1, x2)`` evaluated height by height at the
    physical points ``t (x1, x2)``: an order-16 section rule times 160
    Gauss-Legendre heights with the ``t^2`` Jacobian.  ``one_d`` is the
    half-line quotient on the same heights, with ``lam = ||A||^2 / |w|``
    from the library's moments.  The reduction says they are equal.
    """
    a = np.asarray(gauge, dtype=float)
    lam = lambda_from_gauge(a, section) if np.any(a) else 0.0
    t_max = 12.0 * (lam ** -0.25 if lam > 0.0 else 1.0)
    pts, wts = section_nodes(section, order=16)
    area = float(np.sum(wts))
    g, gw = leggauss(160)
    t = 0.5 * t_max * (g + 1.0)
    jac = 0.5 * t_max * gw * t * t
    phi_v = np.array([phi(s) for s in t])
    dphi_v = np.array([dphi(s) for s in t])
    gauge_sq = np.array([wts @ np.sum((s * pts @ a.T) ** 2, axis=1)
                         for s in t])
    den = float(jac @ phi_v ** 2)
    three_d = jac @ (gauge_sq * phi_v ** 2 + area * dphi_v ** 2) / (area * den)
    one_d = jac @ (dphi_v ** 2 + lam * t * t * phi_v ** 2) / den
    return float(three_d), float(one_d)


# ---------------------------------------------------------------------------
# the half-line form on an explicit grid (the library solves on one grid)

def rayleigh_quotient_1d(u, lam, x_max, n, du=None):
    """Quotient ``p[lam](u) / int |u|^2 x^2 dx`` for a trial profile.

    ``u`` is a callable on ``[0, x_max]``; its derivative is ``du`` when
    given, otherwise the difference quotient of ``u`` over
    ``[x - h, x + h]``, ``h = 1e-6 x_max / 12``, with the lower end cut at 0
    so that ``u`` is only sampled on the half-line.  Integrals use composite
    Simpson on ``n`` intervals of ``[0, x_max]`` (rounded up to even).
    Warns when ``u`` has not decayed at ``x_max`` (``u^2 x^3`` there above
    ``1e-8`` times the denominator).  The quotient of any admissible
    nonzero trial is at least the ground value ``3 sqrt(lam)``.
    """
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be nonnegative")
    m = int(n) + int(n) % 2
    x = np.linspace(0.0, x_max, m + 1)
    w = np.where(np.arange(m + 1) % 2, 4.0, 2.0) * (x[1] / 3.0)
    w[0] = w[-1] = x[1] / 3.0

    uv = np.fromiter(map(u, x), float)
    if du is not None:
        dv = np.fromiter(map(du, x), float)
    else:
        h = 1e-6 * x_max / 12.0
        lo, hi = np.maximum(x - h, 0.0), x + h
        dv = (np.fromiter(map(u, hi), float)
              - np.fromiter(map(u, lo), float)) / (hi - lo)
    x2 = x * x
    den = float(w @ (uv * uv * x2))
    if den < 1e-300:
        raise DomainError(
            f"trial function vanishes on the grid x_max = {x_max:g}, "
            f"n = {n}: the grid does not resolve the profile")
    tail = abs(uv[-1]) * x[-1]
    if tail * tail * x[-1] > 1e-8 * den:
        warnings.warn("trial function has not decayed at x_max",
                      AccuracyWarning, stacklevel=2)
    return float(w @ ((dv * dv + lam * x2 * uv * uv) * x2)) / den


def fd_halfline_eigs(lam, x_max, n, n_max=1):
    """Low eigenvalues of ``-U'' + lam x^2 U``, ``U(0) = 0``, on ``(0, x_max)``
    by finite differences.

    The three-point matrix on ``n`` interior points with Dirichlet
    truncation at ``x_max``, assembled for the given ``lam`` and grid.  At
    ``lam = 1`` on ``(12, 4000)`` it is the library's one matrix, so the
    refinement order seen here on other grids speaks for that matrix.
    """
    from scipy.linalg import eigh_tridiagonal

    h = x_max / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = np.full(n, 2.0 / h ** 2) + lam * x * x
    off = np.full(n - 1, -1.0 / h ** 2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, n_max - 1),
                            eigvals_only=True)


# ---------------------------------------------------------------------------
# optimal gauge by its normal equations (independent of the closed form)

def brute_force_gauge(m) -> TransverseGauge:
    """Minimize the gauge norm numerically, without the closed form.

    Parametrize the unit-curl constraint as ``[[t0, t1], [1 + t1, t2]]``
    and minimize ``f(t) = int_w |A'|^2``.  Because ``f`` is quadratic,
    finite differences with unit step recover its Hessian and gradient
    exactly, and the stationary point comes from one 3x3 linear solve.
    """
    mm = m if isinstance(m, Moments) else moments(m)

    def f(t) -> float:
        return mm.linear_norm_sq(
            TransverseGauge(t[0], t[1], 1.0 + t[1], t[2]).matrix)

    eye = np.eye(3)
    f0 = f(np.zeros(3))
    grad = np.array([(f(eye[i]) - f(-eye[i])) / 2.0 for i in range(3)])
    hess = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            hess[i, j] = f(eye[i] + eye[j]) - f(eye[i]) - f(eye[j]) + f0
    try:
        t = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"normal equations are singular: {exc}") from exc
    return TransverseGauge(a=float(t[0]), b=float(t[1]),
                           c=1.0 + float(t[1]), d=float(t[2]))


# ---------------------------------------------------------------------------
# radial projection of the cone (compares a sharp cone with a cylinder)

def project_P(xp, t: float) -> np.ndarray:
    """Map ``(x', t)`` to the point at distance ``t`` on the ray through ``(x', 1)``.

    This is the radial graph parametrization of the cone over the section:
    ``P(x', t) = t * (x'_1, x'_2, 1) / |(x'_1, x'_2, 1)|``.  At ``x' = 0``
    its Jacobian is the identity, and the deviation from the identity grows
    linearly with ``|x'|``; that is what makes a sharp cone comparable to a
    thin cylinder.
    """
    x = np.asarray(xp, dtype=float)
    if x.shape != (2,):
        raise UsageError("x' must be a plane point")
    tt = float(t)
    if not (tt > 0.0) or not math.isfinite(tt):
        raise GeometryError("t must be positive")
    s = math.sqrt(1.0 + x[0] * x[0] + x[1] * x[1])
    return np.array([tt * x[0] / s, tt * x[1] / s, tt / s])


def projection_jacobian(xp, t: float = 1.0, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of :func:`project_P` at ``(x', t)``."""
    x0 = np.asarray(xp, dtype=float)
    jac = np.zeros((3, 3))
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = step
        up = project_P(x0 + dp[:2], t + dp[2])
        dn = project_P(x0 - dp[:2], t - dp[2])
        jac[:, j] = (up - dn) / (2.0 * step)
    return jac


# ---------------------------------------------------------------------------
# half-plane energy by finite differences (independent of conebounds.models)

def fd_halfspace_sigma(theta, s_half=10.0, t_max=20.0, n_s=159, n_t=160):
    """Bottom of ``-d2/ds2 - d2/dt2 + (t cos - s sin)^2`` on ``t > 0``.

    5-point finite differences on ``(-s_half, s_half) x [0, t_max)``,
    Dirichlet on the artificial sides and Neumann at ``t = 0`` through a
    mirror ghost node (symmetrized), solved by shift-invert Lanczos.  The
    box does not follow ``theta``: below ~0.1 rad the mode at
    ``s ~ sqrt(Theta_0 cos) / sin`` leaves it and the value is wrong.
    """
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    hs = 2.0 * s_half / (n_s + 1)
    ht = t_max / n_t
    s = -s_half + hs * np.arange(1, n_s + 1)
    t = ht * np.arange(n_t)  # t = 0 is the physical Neumann boundary
    ls = sparse.diags([np.full(n_s - 1, -1.0 / hs ** 2),
                       np.full(n_s, 2.0 / hs ** 2),
                       np.full(n_s - 1, -1.0 / hs ** 2)], [-1, 0, 1])
    off_t = np.full(n_t - 1, -1.0 / ht ** 2)
    off_t[0] = -math.sqrt(2.0) / ht ** 2  # symmetrized Neumann coupling
    lt = sparse.diags([off_t, np.full(n_t, 2.0 / ht ** 2), off_t], [-1, 0, 1])
    ham = sparse.kron(sparse.identity(n_t), ls) \
        + sparse.kron(lt, sparse.identity(n_s))
    tt, ss = np.meshgrid(t, s, indexing="ij")
    pot = (tt * math.cos(theta) - ss * math.sin(theta)) ** 2
    ham = (ham + sparse.diags(pot.ravel())).tocsc()
    # every off-diagonal entry is negative, so the ground state has one
    # sign and the constant start vector overlaps it
    val = eigsh(ham, k=1, sigma=0.0, which="LM", v0=np.ones(n_s * n_t),
                return_eigenvectors=False)
    return float(val[0])


# ---------------------------------------------------------------------------
# tangent channels face by face (the reference for models._tangent_estimate)

def per_face_channel_ends(field, section, eps, c_floor):
    """``(lower, upper)`` essential-energy ends of the cone over ``eps * w``.

    ``sigma`` is solved at the field angle of every row of ``cone_faces``;
    the upper end is ``|B|`` times the least ``sigma`` value, the lower end
    ``|B|`` times the least of the ``sigma`` values and ``c_floor``, the
    floor for the edges.  ``eps = 0`` is the reference cylinder.
    """
    b = MagneticField.from_any(field)
    faces = cone_faces(section, eps)
    thetas = np.arcsin(np.minimum(1.0, np.abs(faces @ b.as_array()) / b.norm))
    sigmas = [halfspace_sigma(th) for th in thetas.tolist()]
    return b.norm * min(sigmas + [c_floor]), b.norm * min(sigmas)


# ---------------------------------------------------------------------------
# de Gennes band by finite differences (independent of conebounds.models)

def fd_degennes_mu(xi, x_max=None, n=3000):
    """Lowest Neumann eigenvalue of ``-u'' + (t - xi)^2 u`` on ``[0, x_max]``.

    Second-order scheme; the Neumann condition at 0 enters through the
    mirror ghost point, symmetrized by a diagonal similarity so a
    tridiagonal symmetric eigensolver applies.  Dirichlet truncation at
    ``x_max`` (default ``max(15, xi + 12)``).  Not a bound either way:
    ``mu(0)`` comes out 1.6e-6 below the exact 1.
    """
    from scipy.linalg import eigh_tridiagonal

    if x_max is None:
        x_max = max(15.0, xi + 12.0)
    h = x_max / n
    t = h * np.arange(n)  # node 0 is the Neumann end; x_max is Dirichlet
    diag = np.full(n, 2.0 / h ** 2) + (t - xi) ** 2
    off = np.full(n - 1, -1.0 / h ** 2)
    off[0] = -math.sqrt(2.0) / h ** 2
    val = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                           eigvals_only=True)
    return float(val[0])


# ---------------------------------------------------------------------------
# Robin cone bound by adaptive quadrature of the polar profile
# (independent of the edge sums of conebounds.robin)

def _polar_pieces(section, axis):
    """``(phi_lo, phi_hi, b, db)`` arcs of the polar profile ``r = b(phi)``.

    A polygon edge at distance ``d`` from the axis, with outward normal at
    angle ``phi_e``, gives ``b = d / cos(phi - phi_e)`` on the angle its
    endpoints subtend; a disc gives one arc, constant about its centre.
    """
    if isinstance(section, Disc):
        ax = section.center if axis is None else np.asarray(axis, float)
        off = section.center - ax
        c, r = math.hypot(off[0], off[1]), section.radius
        if c >= r * (1.0 - 1e-12):
            raise DomainError("axis must lie strictly inside the disc")
        if c == 0.0:
            return [(0.0, 2.0 * math.pi, lambda t: r, lambda t: 0.0)]
        f = math.atan2(off[1], off[0])

        def b(t):
            s = math.sin(t - f)
            return c * math.cos(t - f) + math.sqrt(r * r - c * c * s * s)

        def db(t):
            s, co = math.sin(t - f), math.cos(t - f)
            return -c * s - c * c * s * co / math.sqrt(r * r - c * c * s * s)

        return [(f, f + 2.0 * math.pi, b, db)]
    ax = centroid(section) if axis is None else np.asarray(axis, float)
    v = section.vertices - ax
    n = len(v)
    scale = float(np.abs(v).max())
    lo = phi0 = math.atan2(v[0][1], v[0][0])
    pieces = []
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        length = math.hypot(*(q - p))
        nx, ny = (q - p)[1] / length, -(q - p)[0] / length
        dist = float(p[0] * nx + p[1] * ny)
        if dist <= 1e-12 * scale:
            raise DomainError("axis is not strictly inside, or section is "
                              "not star-shaped about it")
        span = (math.atan2(q[1], q[0]) - math.atan2(p[1], p[0])) \
            % (2.0 * math.pi)
        if not (0.0 < span < math.pi):
            raise DomainError("section is not star-shaped about the axis")
        phi_e = math.atan2(ny, nx)
        # unwrap the foot angle next to this piece
        phi_e += round((lo + 0.5 * span - phi_e) / (2.0 * math.pi)) \
            * 2.0 * math.pi
        pieces.append((lo, lo + span,
                       lambda t, d=dist, f=phi_e: d / math.cos(t - f),
                       lambda t, d=dist, f=phi_e:
                           d * math.sin(t - f) / math.cos(t - f) ** 2))
        lo += span
    if abs((lo - phi0) - 2.0 * math.pi) > 1e-9:
        raise DomainError("edges do not wind once about the axis")
    return pieces


def quad_robin_bound(section, axis=None, eps=1.0):
    """``-(int sigma b^2 / int b^2)^2``, ``sigma = sqrt(1 + b^-2 + b'^2 b^-4)``,
    for the profile of the section dilated by ``eps`` about the axis: scipy
    ``quad`` on each arc, 1e-12 absolute and relative."""
    from scipy.integrate import quad

    num = den = 0.0
    for lo, hi, b, db in _polar_pieces(section, axis):
        def f_num(t):
            bb, dd = eps * b(t), eps * db(t)
            return math.sqrt(1.0 + bb ** -2 + dd ** 2 / bb ** 4) * bb * bb

        num += quad(f_num, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        den += quad(lambda t: (eps * b(t)) ** 2, lo, hi, epsabs=1e-12,
                    epsrel=1e-12, limit=200)[0]
    return -(num / den) ** 2


# ---------------------------------------------------------------------------
# polygon validation by scalar loops (independent of the vectorised checks)

def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r) -> bool:
    # r collinear with pq: does r lie within the bounding box of pq?
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _segments_intersect(a, b, c, d) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 \
            and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


class ScalarPolygon(Polygon):
    """``Polygon`` whose spike and simplicity checks are scalar loops.

    Every corner and every pair of non-adjacent edges is tested one at a
    time, with the same float expressions as the vectorised checks, so the
    two must agree on every outcome and every error message.  O(n^2)
    Python calls: keep ``n`` small.
    """

    def _check_spikes(self) -> None:
        v = self.vertices
        n = len(v)
        for i in range(n):
            u = v[i - 1] - v[i]
            w = v[(i + 1) % n] - v[i]
            # zero interior angle means the two edges overlap: a spike
            if float(w[0] * u[1] - w[1] * u[0]) == 0.0 and np.dot(w, u) > 0.0:
                raise GeometryError(f"zero-angle spike at vertex {i}")

    def _check_simple(self) -> None:
        v = self.vertices
        n = len(v)
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex by construction
                c, d = v[j], v[(j + 1) % n]
                if _segments_intersect(a, b, c, d):
                    raise GeometryError(
                        f"boundary self-intersects (edges {i} and {j})")


# ---------------------------------------------------------------------------
# report serialization by recursion (independent of the one-pass writer)

def _reference_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def reference_dumps_report(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, one call per value."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_dumps_report(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: "
                 f"{reference_dumps_report(v, indent + 1)}"
                 for k, v in obj.items()]
        if not items:
            return "{}"
        return ("{\n" + ",\n".join(pad_in + s for s in items)
                + "\n" + pad + "}")
    raise UsageError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# random sections and fields

def random_star_polygon(rng, n_vertices=6, center_span=0.5):
    """Random simple polygon, star-shaped about a random interior point."""
    c = rng.uniform(-center_span, center_span, size=2)
    raw = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    # separate angles so no two vertices nearly coincide
    raw = (raw + np.linspace(0.0, 2.0 * np.pi, n_vertices, endpoint=False)) / 2.0
    radii = rng.uniform(0.4, 1.3, size=n_vertices)
    verts = np.column_stack([c[0] + radii * np.cos(raw),
                             c[1] + radii * np.sin(raw)])
    return Polygon(verts)


def random_field(rng, scale=1.0):
    return scale * rng.standard_normal(3)


# ---------------------------------------------------------------------------
# standard sections

@pytest.fixture
def unit_disc():
    return Disc(center=(0.0, 0.0), radius=1.0)


@pytest.fixture
def centered_square():
    return Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


@pytest.fixture
def unit_triangle():
    return Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.fixture
def origin_square():
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
