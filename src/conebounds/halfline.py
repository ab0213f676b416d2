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
quotient.  Both quotients sample a profile the same way (its derivative is
the given one, else one central difference) and compute ``p[lam]`` by one
formula that owns the one decay warning; they differ only in their nodes:
Simpson on the grid for the 1D quotient, and for the solid cone 160
Gauss-Legendre heights times an order-16 section rule.
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
    lam = m.linear_norm_sq(arr) / m.area
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


def _samples(u, du, x: np.ndarray, x_max: float):
    """Values of the profile ``u`` at the nodes ``x`` and of its derivative.

    The derivative is ``du`` when given, otherwise the difference quotient
    of ``u`` over ``[x - h, x + h]``, ``h = 1e-6 x_max / 12``, with the
    lower end cut at 0 so that ``u`` is only sampled on the half-line.
    """
    def at(f, pts):
        return np.array([float(f(p)) for p in pts])

    if du is not None:
        return at(u, x), at(du, x)
    h = 1e-6 * x_max / 12.0
    lo, hi = np.maximum(x - h, 0.0), x + h
    return at(u, x), (at(u, hi) - at(u, lo)) / (hi - lo)


def _quotient(uv: np.ndarray, dv: np.ndarray, x: np.ndarray, w: np.ndarray,
              lam: float) -> float:
    """``p[lam](u) / int |u|^2 x^2`` from samples at the nodes ``x`` and
    quadrature weights ``w``; warns when ``u`` has not decayed at the last
    node (``u^2 x^3`` there above ``1e-8`` times the denominator)."""
    x2 = x * x
    den = float(w @ (uv * uv * x2))
    if den < 1e-300:
        raise DomainError("trial function vanishes in the weighted norm")
    tail = abs(uv[-1]) * x[-1]
    if tail * tail * x[-1] > 1e-8 * den:
        warnings.warn("trial function has not decayed at x_max",
                      AccuracyWarning, stacklevel=3)
    return float(w @ ((dv * dv + lam * x2 * uv * uv) * x2)) / den


def rayleigh_quotient_1d(u, lam: float, grid: GridSpec | None = None,
                         du=None) -> float:
    """Quotient ``p[lam](u) / int |u|^2 x^2 dx`` for a trial profile.

    ``u`` is a callable on ``[0, x_max]``; its derivative is ``du`` when
    given, otherwise a central difference of step ``1e-6 x_max / 12``.
    Integrals use composite Simpson on the grid's nodes.  Warns when ``u``
    has not decayed at ``x_max`` (``u^2 x^3`` there above ``1e-8`` times
    the denominator).  The quotient of any admissible nonzero trial is at
    least the ground value ``3 sqrt(lam)``.
    """
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be nonnegative")
    g = grid if grid is not None else default_grid(lam if lam > 0.0 else 1.0)
    n = int(g.n) + int(g.n) % 2  # Simpson needs an even interval count
    x = np.linspace(0.0, g.x_max, n + 1)
    w = np.where(np.arange(n + 1) % 2, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    return _quotient(*_samples(u, du, x, g.x_max), x, w * (x[1] / 3.0), lam)


def cone_quotient_consistency(phi, gauge, section: Section,
                              truncation: float | None = None,
                              dphi=None) -> tuple[float, float]:
    """Same profile, two quotients: solid-cone quadrature vs the 1D form.

    The left value integrates ``|A(x)|^2 phi(x3)^2 + phi'(x3)^2`` over the
    truncated solid cone by quadrature, evaluating the gauge at physical
    points of the cone (order-16 section nodes scaled by height, 160
    Gauss-Legendre heights with the ``x3^2`` Jacobian of the radial-graph
    coordinates).  The right value is the 1D quotient with
    ``lam = ||A||^2 / |w|`` on the same heights.  ``phi'`` and the decay
    warning are those of :func:`rayleigh_quotient_1d`, with the truncation
    height as ``x_max``.  For profiles that have decayed at the truncation
    height the two agree to quadrature accuracy; a sizable gap indicates a
    broken reduction, which is exactly what this check is for.  The gauge
    is evaluated over blocks of heights, at most about ``2^16`` points
    (1.5 MB per array) at a time, so memory does not grow with the section's
    node count (256 per fan triangle of a polygon).

    Returns ``(three_d, one_d)``.
    """
    arr = _as_gauge_matrix(gauge)
    lam = lambda_from_gauge(arr, section) if np.any(arr * arr) else 0.0
    t_max = truncation if truncation is not None else \
        12.0 * (lam ** -0.25 if lam > 0.0 else 1.0)
    if not (t_max > 0.0):
        raise DomainError("truncation height must be positive")

    pts, wts = section_quadrature(section, order=16)
    tg, tw = np.polynomial.legendre.leggauss(160)
    t = 0.5 * t_max * (tg + 1.0)
    wt = 0.5 * t_max * tw
    phi_v, dphi_v = _samples(phi, dphi, t, t_max)
    one_d = _quotient(phi_v, dphi_v, t, wt, lam)

    # the gauge at the physical points t * (x1, x2) of every slice, a block
    # of heights at a time so that about 2^16 points are held at once
    step = max(1, 65536 // wts.size)
    gauge_sq = np.empty_like(t)
    for k in range(0, t.size, step):
        a = t[k:k + step, None, None] * pts @ arr.T
        gauge_sq[k:k + step] = np.sum(a * a, axis=2) @ wts
    jac = wt * t * t
    area = float(np.sum(wts))
    num3 = jac @ (gauge_sq * phi_v ** 2 + area * dphi_v ** 2)
    return float(num3) / (area * float(jac @ phi_v ** 2)), one_d
