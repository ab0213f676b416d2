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
check on a truncated interval, and the quotient of ``p[lam]`` on trial
profiles by Simpson's rule.  For a linear gauge the 3D quotient of a
height profile equals this 1D quotient by algebra; the solid-cone
quadrature that checks it numerically lives with the tests
(``tests/conftest.py::cone_quotient``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError, SolverError, UsageError
from .geometry import Moments, Section, moments


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the truncated half-line ``(0, x_max)``.

    ``n`` counts the interior points for the finite-difference solver, and
    the Simpson intervals (rounded up to even) for
    :func:`rayleigh_quotient_1d`.  The spacing ``x_max / (n + 1)`` must
    square to a positive finite number.
    """

    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (self.x_max > 0.0) or not math.isfinite(self.x_max):
            raise UsageError("x_max must be positive")
        if int(self.n) < 16:
            raise UsageError("grid needs at least 16 interior points")
        h = self.x_max / (int(self.n) + 1)
        if not (0.0 < h * h < math.inf):
            raise UsageError("grid spacing squared underflows or overflows")


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
    if int(n_max) > n:
        raise UsageError("n_max exceeds the grid's interior points")
    h = g.x_max / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = np.full(n, 2.0 / h ** 2) + lam * x * x
    if not math.isfinite(diag[-1]):  # the largest entry
        raise UsageError("finite-difference matrix overflows on this grid")
    off = np.full(n - 1, -1.0 / h ** 2)
    try:
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, int(n_max) - 1),
                                eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"half-line eigensolve failed: {exc}") from exc
    exact1 = 3.0 * math.sqrt(lam)
    if abs(vals[0] - exact1) / exact1 > 0.1:
        warnings.warn("grid too coarse for the reduced spectrum",
                      AccuracyWarning, stacklevel=2)
    return vals




def rayleigh_quotient_1d(u, lam: float, grid: GridSpec | None = None,
                         du=None) -> float:
    """Quotient ``p[lam](u) / int |u|^2 x^2 dx`` for a trial profile.

    ``u`` is a callable on ``[0, x_max]``; its derivative is ``du`` when
    given, otherwise the difference quotient of ``u`` over
    ``[x - h, x + h]``, ``h = 1e-6 x_max / 12``, with the lower end cut at 0
    so that ``u`` is only sampled on the half-line.  Integrals use composite
    Simpson on the grid's nodes.  Warns when ``u`` has not decayed at
    ``x_max`` (``u^2 x^3`` there above ``1e-8`` times the denominator).  The
    quotient of any admissible nonzero trial is at least the ground value
    ``3 sqrt(lam)``.
    """
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be nonnegative")
    g = grid if grid is not None else default_grid(lam if lam > 0.0 else 1.0)
    n = int(g.n) + int(g.n) % 2  # Simpson needs an even interval count
    x = np.linspace(0.0, g.x_max, n + 1)
    w = np.where(np.arange(n + 1) % 2, 4.0, 2.0) * (x[1] / 3.0)
    w[0] = w[-1] = x[1] / 3.0

    uv = np.fromiter(map(u, x), float)
    if du is not None:
        dv = np.fromiter(map(du, x), float)
    else:
        h = 1e-6 * g.x_max / 12.0
        lo, hi = np.maximum(x - h, 0.0), x + h
        dv = (np.fromiter(map(u, hi), float)
              - np.fromiter(map(u, lo), float)) / (hi - lo)
    x2 = x * x
    den = float(w @ (uv * uv * x2))
    if den < 1e-300:
        raise DomainError("trial function vanishes in the weighted norm")
    tail = abs(uv[-1]) * x[-1]
    if tail * tail * x[-1] > 1e-8 * den:
        warnings.warn("trial function has not decayed at x_max",
                      AccuracyWarning, stacklevel=2)
    return float(w @ ((dv * dv + lam * x2 * uv * uv) * x2)) / den
