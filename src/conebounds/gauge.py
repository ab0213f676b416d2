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
from .geometry import Moments, Section, moments, scale_factor


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

    def _scaled(self) -> tuple[int, float, float, float]:
        """``(k, b1 2^-k, b2 2^-k, b3 2^-k)``, the largest of the three in
        ``[1/2, 1)``.  ``|B|`` and ``e(B, w)`` are homogeneous of degree one,
        so they are computed on these, whose largest square neither
        overflows nor underflows, and multiplied back by ``2^k``, which is
        exact; the zero field gives ``k = 0``."""
        k = math.frexp(max(abs(self.b1), abs(self.b2), abs(self.b3)))[1]
        return (k, math.ldexp(self.b1, -k), math.ldexp(self.b2, -k),
                math.ldexp(self.b3, -k))

    @property
    def norm(self) -> float:
        k, b1, b2, b3 = self._scaled()
        return _times_2_to(math.sqrt(b1 ** 2 + b2 ** 2 + b3 ** 2), k)


def _times_2_to(x: float, k: int) -> float:
    """``x 2^k``, rounded once; ``inf`` past the float range, as a float
    product would give."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


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
    k, b1, b2, b3 = MagneticField.from_any(field)._scaled()
    mm = _require_moments(m)
    rad = (b3 ** 2 * (mm.m0 * mm.m2 - mm.m1 ** 2) / (mm.m0 + mm.m2)
           + b2 ** 2 * mm.m2 + b1 ** 2 * mm.m0 - 2.0 * b1 * b2 * mm.m1)
    # the quadratic form is positive semidefinite; clip roundoff only
    if rad < 0.0:
        if rad < -1e-13 * (b1 ** 2 + b2 ** 2 + b3 ** 2) * (mm.m0 + mm.m2):
            raise DomainError("negative energy form: inconsistent moments")
        rad = 0.0
    return _times_2_to(math.sqrt(rad), k)


def full_gauge(field, transverse: TransverseGauge) -> np.ndarray:
    """Assemble the 3x2 matrix of a full linear gauge for the field.

    The plane part is the transverse gauge scaled by ``b3`` (so its plane
    curl is ``b3``), and the vertical component is the forced
    ``A3(x) = b1 x2 - b2 x1``.  The result ``L`` acts as ``A(x) = L @ (x1, x2)``.
    """
    b = MagneticField.from_any(field)
    if not abs(transverse.curl - 1.0) <= 1e-9:
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


def _at_least_one(count, name: str) -> int:
    """``count`` as an int, after checking that it is at least 1; otherwise
    raises ``UsageError("<name> must be at least 1")``."""
    if int(count) < 1:
        raise UsageError(f"{name} must be at least 1")
    return int(count)


def rayleigh_upper_bounds(field, m: Moments | Section, n_max: int = 3) -> BoundResult:
    """Upper bounds ``E_n <= (4n - 1) e(B, w)`` for ``n = 1 .. n_max``."""
    k = _at_least_one(n_max, "n_max")
    b = MagneticField.from_any(field)
    mm = _require_moments(m)
    e = e_constant(b, mm)
    return BoundResult(
        e=e,
        transverse_norm_sq=min_transverse_norm_sq(mm),
        gauge=optimal_transverse_gauge(mm),
        bounds=tuple((n, (4 * n - 1) * e) for n in range(1, k + 1)))


def sector_asymptotics(alpha: float) -> float:
    """Leading small-opening term of the plane sector of opening ``alpha``,
    per unit field: ``alpha / sqrt(3)``.

    It is the leading term of the wedge of opening ``alpha`` too, for fields
    in its bisector plane or tangent to a face; a leading-order value, not a
    bound, so the essential-energy estimates do not use it.
    """
    return scale_factor(alpha, "opening alpha", DomainError) / math.sqrt(3.0)


def circular_cone_asymptotics(alpha: float, *, beta: float = 0.0,
                              n: int = 1) -> float:
    """Leading small-opening term of the ``n``-th eigenvalue of the circular
    cone of opening ``alpha``, per unit field, the field at latitude ``beta``
    from the axis plane: ``sqrt(1 + sin^2 beta) (4n - 1) alpha / 2^(5/2)``.
    """
    a = scale_factor(alpha, "opening alpha", DomainError)
    bt = float(beta)
    if not math.isfinite(bt):
        raise DomainError("latitude beta must be finite")
    k = _at_least_one(n, "n")
    lat = math.sqrt(1.0 + math.sin(bt) ** 2)
    return lat * (4 * k - 1) * a / (2.0 ** 2.5)
