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

The module provides the exact spectrum and a second-order finite
difference check of it.  The dilation ``x -> lam^(1/4) x`` maps ``p[lam]``
onto ``sqrt(lam)`` times ``p[1]``, so the check solves once, at
``lam = 1``, and scales.  For a linear gauge the 3D quotient of a height
profile equals the quotient of ``p[lam]`` by algebra; the solid-cone
quadrature that checks it numerically and the Simpson quotient of trial
profiles live with the tests (``tests/conftest.py::cone_quotient`` and
``rayleigh_quotient_1d``).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AccuracyWarning, DomainError, SolverError, UsageError
from .geometry import Moments, Section, moments


def lambda_from_gauge(gauge, section: Section | Moments) -> float:
    """Mean squared gauge ``||A||^2_{L2(w)} / |w|`` from exact moments.

    ``gauge`` is the 3x2 matrix of a linear, x3-independent vector
    potential, as :func:`~conebounds.gauge.full_gauge` returns it.  The
    zero gauge is rejected: it corresponds to no magnetic field and the
    reduced problem below needs ``lam > 0``.
    """
    arr = np.asarray(gauge, dtype=float)
    if arr.shape != (3, 2) or not np.all(np.isfinite(arr)):
        raise UsageError("gauge must be a 3x2 matrix acting on (x1, x2)")
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


def fd_halfline_spectrum(lam: float, n_max: int = 3) -> np.ndarray:
    """Low eigenvalues of ``-U'' + lam x^2 U``, ``U(0) = 0``, by finite differences.

    The dilation ``x -> lam^(1/4) x`` maps the problem at ``lam`` onto
    ``sqrt(lam)`` times the problem at ``lam = 1``, and the three-point
    matrix on ``(0, 12 lam^(-1/4))`` inherits this entry by entry.  So the
    matrix is assembled once, at ``lam = 1``: second-order three-point
    scheme on 4000 interior points of ``(0, 12)`` with Dirichlet truncation
    at 12 (the eigenfunctions decay like a Gaussian there, so the
    truncation error is far below the scheme error).  Its eigenvalues,
    times ``sqrt(lam)``, are returned, which holds for every positive
    finite ``lam``.  Emits :class:`AccuracyWarning` when the lowest
    ``lam = 1`` eigenvalue strays more than 10 percent from 3.
    """
    from scipy.linalg import eigh_tridiagonal

    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError("lam must be positive")
    if int(n_max) < 1:
        raise UsageError("n_max must be at least 1")
    n = 4000
    if int(n_max) > n:
        raise UsageError("n_max exceeds the grid's interior points")
    h = 12.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = np.full(n, 2.0 / h ** 2) + x * x
    off = np.full(n - 1, -1.0 / h ** 2)
    try:
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, int(n_max) - 1),
                                eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"half-line eigensolve failed: {exc}") from exc
    if abs(vals[0] - 3.0) / 3.0 > 0.1:
        warnings.warn("grid too coarse for the reduced spectrum",
                      AccuracyWarning, stacklevel=2)
    return math.sqrt(lam) * vals
