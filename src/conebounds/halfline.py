"""The weighted half-line operator behind the cone upper bounds.

Evaluating the magnetic quadratic form of a cone on functions of the
vertical coordinate only, with a linear gauge ``A(x) = L (x1, x2)``,
collapses the three-dimensional quotient to

    p[lam](u) = int_0^inf (|u'|^2 + lam x^2 |u|^2) x^2 dx     on L2(x^2 dx),

where ``lam = ||A||_{L2(w)}^2 / |w|`` is the mean squared gauge over the
section.  The substitution ``U = x u`` turns ``p[lam]`` into the Dirichlet
half-line oscillator ``-U'' + lam x^2 U``, ``U(0) = 0``, whose spectrum is
exactly ``sqrt(lam) * (4n - 1)``, all eigenvalues simple.  With the optimal
gauge, ``lam = e(B, w)^2``, which is where the ``(4n - 1) e`` bounds come
from.

The module provides the exact spectrum, a second-order finite difference
check on a truncated interval, quadrature evaluation of ``p[lam]`` on trial
functions, and a consistency check that evaluates the full 3D quotient of
a profile over the solid cone by quadrature and compares it with the 1D
quotient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError, UsageError
from .geometry import Moments, Section, moments, section_quadrature


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the truncated half-line, ``n`` interior points on (0, x_max)."""

    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (self.x_max > 0.0) or not math.isfinite(self.x_max):
            raise UsageError("x_max must be positive")
        if int(self.n) < 16:
            raise UsageError("grid needs at least 16 interior points")


def default_grid(lam: float) -> GridSpec:
    """Truncation scales with the oscillator length: ``x_max = 12 lam^(-1/4)``."""
    if not (lam > 0.0):
        raise DomainError("lam must be positive")
    return GridSpec(x_max=12.0 * lam ** -0.25, n=4000)


def _as_gauge_matrix(gauge) -> np.ndarray:
    arr = np.asarray(gauge, dtype=float)
    if arr.shape == (3, 3):
        if np.any(arr[:, 2] != 0.0):
            raise UsageError("gauge must not depend on x3")
        arr = arr[:, :2]
    if arr.shape != (3, 2) or not np.all(np.isfinite(arr)):
        raise UsageError("gauge must be a 3x2 matrix acting on (x1, x2)")
    return arr


def lambda_from_gauge(gauge, section: Section | Moments) -> float:
    """Mean squared gauge ``||A||^2_{L2(w)} / |w|`` from exact moments.

    ``gauge`` is the 3x2 matrix of a linear, x3-independent vector
    potential.  The zero gauge is rejected: it corresponds to no magnetic
    field and the reduced problem below needs ``lam > 0``.
    """
    arr = _as_gauge_matrix(gauge)
    m = section if isinstance(section, Moments) else moments(section)
    total = 0.0
    for r in range(3):
        total += (arr[r, 0] ** 2 * m.M2 + 2.0 * arr[r, 0] * arr[r, 1] * m.M1
                  + arr[r, 1] ** 2 * m.M0)
    lam = total / m.area
    if lam <= 0.0:
        raise DomainError("zero gauge: lam must be positive")
    return lam


def exact_reduced_spectrum(lam: float, n_max: int = 3) -> np.ndarray:
    """Eigenvalues ``sqrt(lam) * (4n - 1)``, ``n = 1 .. n_max`` (all simple)."""
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be positive")
    if int(n_max) < 1:
        raise UsageError("n_max must be at least 1")
    n = np.arange(1, int(n_max) + 1)
    return math.sqrt(lam) * (4.0 * n - 1.0)


def fd_halfline_spectrum(lam: float, grid: GridSpec | None = None,
                         n_max: int = 3) -> np.ndarray:
    """Low eigenvalues of ``-U'' + lam x^2 U``, ``U(0) = 0``, by finite differences.

    Second-order three-point scheme on ``n`` interior points of
    ``(0, x_max)`` with Dirichlet truncation at ``x_max`` (the eigenfunctions
    decay like a Gaussian there, so the truncation error is far below the
    scheme error).  Emits :class:`AccuracyWarning` when the lowest eigenvalue
    strays more than 10 percent from its exact value.
    """
    from scipy.linalg import eigh_tridiagonal

    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be positive")
    if int(n_max) < 1:
        raise UsageError("n_max must be at least 1")
    g = grid if grid is not None else default_grid(lam)
    n = int(g.n)
    h = g.x_max / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = np.full(n, 2.0 / h ** 2) + lam * x * x
    off = np.full(n - 1, -1.0 / h ** 2)
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, int(n_max) - 1),
                            eigvals_only=True)
    exact1 = 3.0 * math.sqrt(lam)
    if abs(vals[0] - exact1) / exact1 > 0.1:
        warnings.warn("grid too coarse for the reduced spectrum",
                      AccuracyWarning, stacklevel=2)
    return vals


def _derivative_samples(u_vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    n = len(u_vals)
    if n < 7:
        raise UsageError("need at least 7 samples for the derivative stencil")
    d = np.empty(n)
    d[2:-2] = (-u_vals[4:] + 8.0 * u_vals[3:-1]
               - 8.0 * u_vals[1:-3] + u_vals[:-4]) / (12.0 * h)
    # one-sided fourth-order stencils at the ends
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = np.dot(c, u_vals[:5]) / h
    d[1] = np.dot(c, u_vals[1:6]) / h
    d[-1] = -np.dot(c, u_vals[-1:-6:-1]) / h
    d[-2] = -np.dot(c, u_vals[-2:-7:-1]) / h
    return d


def rayleigh_quotient_1d(u, lam: float, grid: GridSpec | None = None,
                         du=None) -> float:
    """Quotient ``p[lam](u) / int |u|^2 x^2 dx`` for a trial profile.

    ``u`` is a callable on ``[0, x_max]``; its derivative is taken
    analytically when ``du`` is given, otherwise by a fourth-order stencil
    on the sampling grid.  Integrals use composite Simpson.  The quotient
    of any admissible nonzero trial is at least the ground value
    ``3 sqrt(lam)``.
    """
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be nonnegative")
    g = grid if grid is not None else default_grid(lam if lam > 0.0 else 1.0)
    n = int(g.n)
    if n % 2 == 1:
        n += 1  # Simpson needs an even interval count
    x = np.linspace(0.0, g.x_max, n + 1)
    h = x[1] - x[0]
    uv = np.asarray([float(u(xx)) for xx in x])
    w = x * x
    den_ig = uv * uv * w
    den = _simpson(den_ig, h)
    if den <= 0.0 or den < 1e-300:
        raise DomainError("trial function vanishes in the weighted norm")
    tail = abs(uv[-1]) * g.x_max
    if tail * tail * g.x_max > 1e-8 * den:
        warnings.warn("trial function has not decayed at x_max",
                      AccuracyWarning, stacklevel=2)
    dv = (np.asarray([float(du(xx)) for xx in x]) if du is not None
          else _derivative_samples(uv, h))
    num = _simpson((dv * dv + lam * w * uv * uv) * w, h)
    return num / den


def _simpson(vals: np.ndarray, h: float) -> float:
    s = vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-1:2])
    return float(s * h / 3.0)


def cone_quotient_consistency(phi, gauge, section: Section,
                              truncation: float | None = None, dphi=None,
                              section_order: int = 16,
                              axial_points: int = 160) -> tuple[float, float]:
    """Same profile, two quotients: solid-cone quadrature vs the 1D form.

    The left value integrates ``|A(x)|^2 phi(x3)^2 + phi'(x3)^2`` over the
    truncated solid cone by quadrature, evaluating the gauge at physical
    points of the cone (section nodes scaled by height, Gauss-Legendre in
    the height with the ``x3^2`` Jacobian of the radial-graph coordinates).
    The right value is the 1D quotient with ``lam = ||A||^2 / |w|``.  For
    profiles that have decayed at the truncation height the two agree to
    quadrature accuracy; a sizable gap indicates a broken reduction, which
    is exactly what this check is for.

    Returns ``(three_d, one_d)``.
    """
    arr = _as_gauge_matrix(gauge)
    m = moments(section)
    sq = arr[0, 0] ** 2 + arr[1, 0] ** 2 + arr[2, 0] ** 2 \
        + arr[0, 1] ** 2 + arr[1, 1] ** 2 + arr[2, 1] ** 2
    lam = 0.0 if sq == 0.0 else lambda_from_gauge(arr, m)
    t_max = truncation if truncation is not None else \
        12.0 * (lam ** -0.25 if lam > 0.0 else 1.0)
    if not (t_max > 0.0):
        raise DomainError("truncation height must be positive")

    pts, wts = section_quadrature(section, order=section_order)
    tg, tw = np.polynomial.legendre.leggauss(int(axial_points))
    t = 0.5 * t_max * (tg + 1.0)
    wt = 0.5 * t_max * tw

    if dphi is None:
        hh = 1e-6 * t_max / 12.0
        dphi_v = np.array([(phi(tt + hh) - phi(tt - hh)) / (2.0 * hh) for tt in t])
    else:
        dphi_v = np.array([float(dphi(tt)) for tt in t])
    phi_v = np.array([float(phi(tt)) for tt in t])
    if abs(phi_v[-1]) * t_max > 1e-6 * math.sqrt(max(np.sum(phi_v ** 2), 1e-300)):
        warnings.warn("profile has not decayed at the truncation height",
                      AccuracyWarning, stacklevel=2)

    num3 = 0.0
    den3 = 0.0
    for tt, ww, pv, dv in zip(t, wt, phi_v, dphi_v):
        # physical plane coordinates on the slice at height tt
        xs = tt * pts
        asq = (arr[0, 0] * xs[:, 0] + arr[0, 1] * xs[:, 1]) ** 2 \
            + (arr[1, 0] * xs[:, 0] + arr[1, 1] * xs[:, 1]) ** 2 \
            + (arr[2, 0] * xs[:, 0] + arr[2, 1] * xs[:, 1]) ** 2
        jac = ww * tt * tt
        num3 += jac * float(np.sum(wts * (asq * pv * pv + dv * dv)))
        den3 += jac * float(np.sum(wts)) * pv * pv
    if den3 <= 0.0:
        raise DomainError("profile vanishes on the truncated cone")
    three_d = num3 / den3

    w2 = t * t
    num1 = float(np.sum(wt * (dphi_v ** 2 + lam * w2 * phi_v ** 2) * w2))
    den1 = float(np.sum(wt * phi_v ** 2 * w2))
    return three_d, num1 / den1
