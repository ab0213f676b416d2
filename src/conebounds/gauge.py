"""Gauge optimization and the linear eigenvalue upper bounds.

For a constant magnetic field ``B`` and a cone over a plane section ``w``,
the low Rayleigh quotients of the magnetic Neumann Laplacian satisfy

    E_n  <=  (4n - 1) * e(B, w),

where ``e(B, w)`` is computed from the mean second moments of the section:

    e^2 = B3^2 * (m0 m2 - m1^2) / (m0 + m2)
          + B2^2 m2 + B1^2 m0 - 2 B1 B2 m1.

The first term is the squared L2 norm (per unit area) of the optimal
transverse gauge: among linear plane fields ``A'(x) = W x`` with
``W21 - W12 = 1`` (unit curl), the L2(w) norm is minimized by

    W0 = [[M1, -M2], [M0, -M1]] / (M0 + M2),

and the minimum equals ``(M0 M2 - M1^2) / (M0 + M2)``.  (Stationarity
of the quadratic objective fixes the off-diagonal entries: the b3-axis
moment M2 = int x1^2 weights the first component, M0 = int x2^2 the
second, and swapping them breaks both the normal equations and the
stated minimum whenever M0 != M2.)  The remaining
terms are the forced vertical component ``A3 = B1 x2 - B2 x1``, whose
L2 norm no gauge freedom can reduce.  ``e`` is a norm in ``B`` and is
homogeneous of degree one under dilation of the section.

The test suite checks the closed form against an independent route, a
finite-difference solve of the same normal equations
(``tests/conftest.py::brute_force_gauge``), to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .geometry import Moments, Section, moments

#: Curl mismatch above which a transverse gauge is not admissible.
CURL_TOL = 1e-12


@dataclass(frozen=True)
class MagneticField:
    """Constant field with components ``(b1, b2, b3)``; ``b3`` is the cone axis."""

    b1: float
    b2: float
    b3: float

    @classmethod
    def from_any(cls, value) -> "MagneticField":
        if isinstance(value, MagneticField):
            return value
        arr = np.asarray(value, dtype=float).ravel()
        if arr.shape != (3,) or not np.all(np.isfinite(arr)):
            raise UsageError("magnetic field must be three finite components")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3])

    @property
    def norm(self) -> float:
        return math.sqrt(self.b1 ** 2 + self.b2 ** 2 + self.b3 ** 2)


@dataclass(frozen=True)
class TransverseGauge:
    """Linear plane field ``A'(x) = [[a, b], [c, d]] x`` with unit curl ``c - b = 1``."""

    a: float
    b: float
    c: float
    d: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def curl(self) -> float:
        return self.c - self.b

    def is_admissible(self, tol: float = CURL_TOL) -> bool:
        return abs(self.curl - 1.0) <= tol

    def norm_sq_over(self, m: Moments) -> float:
        """Exact ``int_w |A'(x)|^2 dx`` from the section moments."""
        return m.linear_norm_sq(((self.a, self.b), (self.c, self.d)))


def _require_moments(m) -> Moments:
    if isinstance(m, Moments):
        if m.area <= 0.0 or m.M0 + m.M2 <= 0.0:
            raise DomainError("moments must come from a nondegenerate section")
        return m
    if isinstance(m, (type(None), int, float)):
        raise UsageError("expected Moments or a Section")
    return _require_moments(moments(m))


def optimal_transverse_gauge(m: Moments | Section) -> TransverseGauge:
    """The unit-curl linear plane field of least L2 norm on the section."""
    mm = _require_moments(m)
    s = mm.M0 + mm.M2
    return TransverseGauge(a=mm.M1 / s, b=-mm.M2 / s, c=mm.M0 / s, d=-mm.M1 / s)


def min_transverse_norm_sq(m: Moments | Section) -> float:
    """Minimum of ``int_w |A'|^2`` over unit-curl gauges: ``(M0 M2 - M1^2)/(M0 + M2)``."""
    mm = _require_moments(m)
    return (mm.M0 * mm.M2 - mm.M1 * mm.M1) / (mm.M0 + mm.M2)


def e_constant(field, m: Moments | Section) -> float:
    """The section constant ``e(B, w)`` in the linear bounds ``E_n <= (4n-1) e``."""
    b = MagneticField.from_any(field)
    mm = _require_moments(m)
    rad = (b.b3 ** 2 * (mm.m0 * mm.m2 - mm.m1 ** 2) / (mm.m0 + mm.m2)
           + b.b2 ** 2 * mm.m2 + b.b1 ** 2 * mm.m0 - 2.0 * b.b1 * b.b2 * mm.m1)
    # the quadratic form is positive semidefinite; clip roundoff only
    if rad < 0.0:
        if rad < -1e-13 * (b.norm ** 2) * (mm.m0 + mm.m2):
            raise DomainError("negative energy form: inconsistent moments")
        rad = 0.0
    return math.sqrt(rad)


def full_gauge(field, transverse: TransverseGauge) -> np.ndarray:
    """Assemble the 3x2 matrix of a full linear gauge for the field.

    The plane part is the transverse gauge scaled by ``b3`` (so its plane
    curl is ``b3``), and the vertical component is the forced
    ``A3(x) = b1 x2 - b2 x1``.  The result ``L`` acts as ``A(x) = L @ (x1, x2)``.
    """
    b = MagneticField.from_any(field)
    if not transverse.is_admissible(tol=1e-9):
        raise UsageError("transverse gauge must have unit curl")
    return np.array([[b.b3 * transverse.a, b.b3 * transverse.b],
                     [b.b3 * transverse.c, b.b3 * transverse.d],
                     [-b.b2, b.b1]])


@dataclass(frozen=True)
class BoundResult:
    """Eigenvalue upper bounds for one field and section."""

    e: float
    transverse_norm_sq: float
    gauge: TransverseGauge
    bounds: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {"e": self.e,
                "transverseNormSq": self.transverse_norm_sq,
                "gauge": [[self.gauge.a, self.gauge.b],
                          [self.gauge.c, self.gauge.d]],
                "bounds": [[n, v] for n, v in self.bounds]}


def rayleigh_upper_bounds(field, m: Moments | Section, n_max: int = 3) -> BoundResult:
    """Upper bounds ``E_n <= (4n - 1) e(B, w)`` for ``n = 1 .. n_max``."""
    if int(n_max) < 1:
        raise UsageError("n_max must be at least 1")
    b = MagneticField.from_any(field)
    mm = _require_moments(m)
    e = e_constant(b, mm)
    return BoundResult(
        e=e,
        transverse_norm_sq=min_transverse_norm_sq(mm),
        gauge=optimal_transverse_gauge(mm),
        bounds=tuple((n, (4 * n - 1) * e) for n in range(1, int(n_max) + 1)))


#: Valid kinds for :func:`reference_asymptotics`.
ASYMPTOTIC_KINDS = ("sector", "circularCone", "circularConeNth")


def reference_asymptotics(kind: str, alpha: float, *, beta: float = 0.0,
                          n: int = 1, field_norm: float = 1.0) -> float:
    """Leading small-opening term of the reference geometries.

    ``sector``           plane sector of opening alpha:    |B| alpha / sqrt(3)
                         (the wedge of opening alpha has the same leading
                         term: ``models.wedge_energy_upper``)
    ``circularCone``     circular cone of opening alpha, field at latitude
                         beta from the axis plane:
                         |B| sqrt(1 + sin^2 beta) * 3 alpha / 2^(5/2)
    ``circularConeNth``  same with (4n - 1) in place of 3.
    """
    if kind not in ASYMPTOTIC_KINDS:
        raise UsageError(f"unknown asymptotic kind {kind!r}; "
                         f"expected one of {ASYMPTOTIC_KINDS}")
    a = float(alpha)
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError("opening alpha must be positive")
    bn = float(field_norm)
    if bn < 0.0 or not math.isfinite(bn):
        raise DomainError("field norm must be nonnegative")
    if kind == "sector":
        return bn * a / math.sqrt(3.0)
    k = int(n)
    if kind == "circularCone":
        k = 1
    elif k < 1:
        raise UsageError("n must be at least 1")
    lat = math.sqrt(1.0 + math.sin(float(beta)) ** 2)
    return bn * lat * (4 * k - 1) * a / (2.0 ** 2.5)
