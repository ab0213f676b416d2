"""Independent output checks for the benchmark.

Nothing here calls ``conebounds``: every expected value is recomputed from
the generated input by a different route than the library's, and every
check returns a list of problem strings (empty when the output is right).
A non-empty list makes the op count as failed.

Routes:

* polygon moments from a triangle fan with the exact per-triangle second
  moments (the library sums Green's-theorem edge terms);
* disc moments, disc bounds and disc Robin bounds in closed form;
* ``e(B, w)`` from the moments by the paper's formula, then the
  ``(4n-1) e`` ladder and the dilation identity ``e(B, eps w) = eps e``;
* lateral edge openings of the truncated cone through Gauss-Bonnet: their
  sum minus ``(n-2) pi`` is the cone's solid angle, which is summed over a
  fan of spherical triangles (Van Oosterom-Strackee);
* top rim openings directly, as the angle between the two half-planes that
  meet along each rim edge (the library's known defect, the supplement on
  edges whose line has the centroid outside, is counted, not failed);
* the Robin profile bound of a convex polygon in closed form: on the piece
  of edge ``i`` the profile is ``d_i / cos``, so ``sigma = sqrt(1 + d_i^-2)``
  is constant there and the bound is ``-(sum_i sigma_i A_i / A)^2`` with
  ``A_i`` the fan triangle on edge ``i`` seen from the axis;
* the Robin wedge ``-1/sin^2(alpha/2)``, the half-line spectrum
  ``sqrt(lam)(4n - 1)`` and the de Gennes constant from the literature.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for moments and ``e`` against the library.
MOMENT_RTOL = 1e-10
#: Relative tolerance for the exact ladder and dilation identities.
IDENTITY_RTOL = 1e-12
#: Absolute tolerance (radians) for edge openings.
ANGLE_ATOL = 1e-9
#: The Robin quadrature runs at 1e-12 absolute per piece.
ROBIN_RTOL = 1e-9
#: De Gennes constant Theta_0 = 0.5901061249... (Dauge-Helffer).
THETA0 = 0.5901061249
#: The library's 1D grids resolve Theta_0 and the half-line spectrum to
#: about 2e-6 relative; this tolerance leaves a factor of five.
FD_RTOL = 1e-5


def close(got, want, rtol, scale=None) -> bool:
    """``|got - want| <= rtol * scale``, the scale defaulting to ``|want|``."""
    s = abs(want) if scale is None else scale
    return abs(float(got) - float(want)) <= rtol * max(s, 1e-300)


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


# ---------------------------------------------------------------------------
# moments and e

def fan_moments(vertices) -> dict:
    """Area and raw second moments of a simple CCW polygon by triangle fan."""
    v = np.asarray(vertices, dtype=float)
    p, q, r = v[0], v[1:-1], v[2:]
    area = 0.5 * _cross(q - p, r - p)
    x = np.stack([np.full(len(q), p[0]), q[:, 0], r[:, 0]])
    y = np.stack([np.full(len(q), p[1]), q[:, 1], r[:, 1]])
    sx, sy = x.sum(axis=0), y.sum(axis=0)
    xx = (np.sum(x * x, axis=0) + sx * sx) / 12.0   # = (x.x + sum_{i<j} x_i x_j)/6
    yy = (np.sum(y * y, axis=0) + sy * sy) / 12.0
    xy = (np.sum(x * y, axis=0) + sx * sy) / 12.0
    a = float(area.sum())
    cx = float(np.sum(area * sx)) / (3.0 * a)
    cy = float(np.sum(area * sy)) / (3.0 * a)
    return {"area": a, "M0": float(np.sum(area * yy)),
            "M1": float(np.sum(area * xy)), "M2": float(np.sum(area * xx)),
            "centroid": (cx, cy)}


def disc_moments(center, radius) -> dict:
    c1, c2 = map(float, center)
    r = float(radius)
    a = math.pi * r * r
    return {"area": a, "M0": a * (r * r / 4.0 + c2 * c2), "M1": a * c1 * c2,
            "M2": a * (r * r / 4.0 + c1 * c1), "centroid": (c1, c2)}


def section_moments(obj: dict) -> dict:
    if "disc" in obj:
        return disc_moments(obj["disc"]["center"], obj["disc"]["radius"])
    return fan_moments(obj["polygon"])


def e_constant(field, mom: dict) -> float:
    b1, b2, b3 = map(float, field)
    a = mom["area"]
    m0, m1, m2 = mom["M0"] / a, mom["M1"] / a, mom["M2"] / a
    rad = (b3 * b3 * (m0 * m2 - m1 * m1) / (m0 + m2)
           + b1 * b1 * m0 - 2.0 * b1 * b2 * m1 + b2 * b2 * m2)
    return math.sqrt(max(rad, 0.0))


def check_moments(got: dict, mom: dict) -> list[str]:
    scale = abs(mom["M0"]) + abs(mom["M2"])
    out = []
    if not close(got["area"], mom["area"], MOMENT_RTOL):
        out.append(f"area {got['area']!r} != {mom['area']!r}")
    for k in ("M0", "M1", "M2"):
        if not close(got[k], mom[k], MOMENT_RTOL, scale):
            out.append(f"{k} {got[k]!r} != {mom[k]!r}")
    return out


def check_ladder(e_got: float, bounds, e_want: float) -> list[str]:
    """``e`` against the oracle, and every bound equal to ``(4n-1) e``."""
    out = []
    if not close(e_got, e_want, MOMENT_RTOL):
        out.append(f"e {e_got!r} != {e_want!r}")
    for n, b in bounds:
        if not close(b, (4 * int(n) - 1) * e_got, IDENTITY_RTOL):
            out.append(f"bound {n} is {b!r}, not (4n-1)e")
    return out


def check_sweep(rows, e_unit: float) -> list[str]:
    """``e(B, eps w) = eps e(B, w)`` and ``bound1 = 3 e`` on every rung."""
    out = []
    for row in rows:
        if not close(row["e"], row["eps"] * e_unit, IDENTITY_RTOL):
            out.append(f"e at eps={row['eps']} is {row['e']!r}, "
                       f"not eps*e={row['eps'] * e_unit!r}")
        if not close(row["bound1"], 3.0 * row["e"], IDENTITY_RTOL):
            out.append(f"bound1 at eps={row['eps']} is not 3e")
    return out


def check_concentration(eps_star, floor_used, vertex_bound, holds, field,
                        e_want, c_floor, eps) -> list[str]:
    bn = math.sqrt(sum(float(c) ** 2 for c in field))
    floor = min(c_floor, 0.5) * bn
    out = []
    if not close(floor_used, floor, IDENTITY_RTOL):
        out.append(f"floor {floor_used!r} != {floor!r}")
    if not close(eps_star, floor / (3.0 * e_want), MOMENT_RTOL):
        out.append(f"eps* {eps_star!r} != {floor / (3.0 * e_want)!r}")
    if not close(vertex_bound, 3.0 * eps * e_want, MOMENT_RTOL):
        out.append(f"vertex bound {vertex_bound!r} != 3 eps e")
    if bool(holds) != (vertex_bound < floor_used):
        out.append("verdict disagrees with its own comparison")
    return out


# ---------------------------------------------------------------------------
# edges of the truncated cone

def cone_solid_angle(vertices, eps: float) -> float:
    """Solid angle of the cone over ``eps * polygon`` (signed fan sum)."""
    v = np.asarray(vertices, dtype=float)
    p = np.column_stack([eps * v, np.ones(len(v))])
    a, b, c = p[0], p[1:-1], p[2:]
    la, lb, lc = (np.linalg.norm(a), np.linalg.norm(b, axis=1),
                  np.linalg.norm(c, axis=1))
    num = np.einsum("ij,j->i", np.cross(b, c), a)
    den = la * lb * lc + (b @ a) * lc + (c @ a) * lb + np.sum(b * c, axis=1) * la
    return float(np.sum(2.0 * np.arctan2(num, den)))


def rim_openings(vertices, eps: float) -> np.ndarray:
    """Interior dihedral angle along each rim edge of the truncated cone."""
    v = eps * np.asarray(vertices, dtype=float)
    d = np.roll(v, -1, axis=0) - v
    length = np.hypot(d[:, 0], d[:, 1])
    inward = np.column_stack([-d[:, 1], d[:, 0]]) / length[:, None]
    e = d / length[:, None]
    to_apex = -np.column_stack([v, np.ones(len(v))])
    along = np.sum(to_apex[:, :2] * e, axis=1)
    down = to_apex - np.column_stack([along[:, None] * e, np.zeros(len(v))])
    down /= np.linalg.norm(down, axis=1)[:, None]
    cosang = np.sum(inward * down[:, :2], axis=1)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def rim_flipped(vertices) -> np.ndarray:
    """Rim edges whose line has the polygon's centroid on its outer side.

    The library orients each top face by the centroid ray, so on exactly
    these edges its face normal points inwards and the rim opening it
    reports is the supplement ``pi - theta`` of the true opening.
    """
    v = np.asarray(vertices, dtype=float)
    d = np.roll(v, -1, axis=0) - v
    c = np.asarray(fan_moments(v)["centroid"])
    return _cross(d, c - v) < 0.0


def check_edges(vertices, eps: float, lateral, top, beta0) -> tuple[list[str], int]:
    """Problems with an edge report, and the number of known rim defects.

    A rim opening that comes out as the supplement of the true one, on an
    edge whose line has the centroid on its outer side (:func:`rim_flipped`),
    is a known defect of the library: it is counted apart from the problems
    instead of failing the op.  Any other wrong rim opening is a problem.
    """
    n = len(vertices)
    out = []
    if [i for i, _ in lateral] != list(range(n)) or \
            [i for i, _ in top] != list(range(n)):
        return [f"edge report does not list {n} lateral and {n} rim edges"], 0
    excess = sum(op for _, op in lateral) - (n - 2) * math.pi
    omega = cone_solid_angle(vertices, eps)
    if abs(excess - omega) > ANGLE_ATOL * n:
        out.append(f"lateral openings sum to solid angle {excess!r}, "
                   f"cone has {omega!r}")
    openings = [op for _, op in lateral] + [op for _, op in top]
    if not all(0.0 < op < 2.0 * math.pi for op in openings):
        out.append("edge opening outside (0, 2 pi)")
    want_beta0 = min(min(openings), 2.0 * math.pi - max(openings))
    if not close(beta0, want_beta0, IDENTITY_RTOL):
        out.append(f"beta0 {beta0!r} is not the least margin {want_beta0!r}")
    got = np.array([op for _, op in top], dtype=float)
    rim = rim_openings(vertices, eps)
    wrong = ~(np.abs(got - rim) <= ANGLE_ATOL)
    known = wrong & (np.abs(got - (math.pi - rim)) <= ANGLE_ATOL) \
        & rim_flipped(vertices)
    for i in np.flatnonzero(wrong & ~known):
        out.append(f"rim edge {i} opening {got[i]!r}, want {rim[i]!r}")
    return out, int(np.sum(known))


# ---------------------------------------------------------------------------
# Robin

def robin_wedge(alpha: float) -> float:
    return -1.0 if alpha >= math.pi else -1.0 / math.sin(0.5 * alpha) ** 2


def robin_polygon_bound(vertices, axis) -> float:
    """Closed-form profile bound of a convex polygon about ``axis``."""
    v = np.asarray(vertices, dtype=float) - np.asarray(axis, dtype=float)
    w = np.roll(v, -1, axis=0)
    tri = 0.5 * _cross(v, w)                          # area seen from the axis
    dist = 2.0 * tri / np.hypot(*(w - v).T)           # axis-to-edge distance
    ratio = float(np.sum(np.sqrt(1.0 + dist ** -2) * tri) / np.sum(tri))
    return -ratio * ratio


def robin_disc_bound(radius: float) -> float:
    """Profile bound of a disc about its centre: ``-(1 + R^-2)``."""
    return -(1.0 + float(radius) ** -2)


def check_robin(got: float, want: float) -> list[str]:
    out = []
    if not got <= -1.0:
        out.append(f"Robin bound {got!r} above the half-space value -1")
    if not close(got, want, ROBIN_RTOL):
        out.append(f"Robin bound {got!r} != closed form {want!r}")
    return out


# ---------------------------------------------------------------------------
# essential spectrum

def check_ess(rows, eps_ladder, field, c_floor: float) -> list[str]:
    """``min(Theta_0, c_floor)|B| <= lower <= upper <= |B|`` on every rung."""
    bn = math.sqrt(sum(float(c) ** 2 for c in field))
    floor = min(THETA0, c_floor) * bn
    tol = 1e-12 * bn
    out = []
    if [float(e) for e, _ in rows] != [float(e) for e in eps_ladder]:
        return [f"ess rungs {[e for e, _ in rows]} != {list(eps_ladder)}"]
    for eps, est in rows:
        lo, up = est.lower, est.upper
        if lo is None or up is None:
            out.append(f"eps={eps}: estimate is not two-sided")
        elif not (floor - tol <= lo <= up <= bn + tol):
            out.append(f"eps={eps}: violates {floor:.6g} <= {lo!r} <= "
                       f"{up!r} <= {bn:.6g}")
    return out
