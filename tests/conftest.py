"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own algorithms: moments
are integrated by tensor-product Gauss-Legendre rules assembled from
scratch (triangle fan for polygons, polar grid for discs), so closed-form
moment code is cross-checked against an independent route; the half-plane
energy ``sigma(theta)`` is cross-checked by finite differences against the
library's spectral Rayleigh-Ritz solve.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conebounds import Disc, Polygon


# ---------------------------------------------------------------------------
# quadrature nodes (independent of conebounds.geometry.section_quadrature)

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
