"""Sections, moments, gauge optimization, and the eigenvalue bound ladder.

The bound machinery has exactly one geometric input: the area-normalized
second moments m0 = avg(x2^2), m1 = avg(x1 x2), m2 = avg(x1^2) of the
plane section w. Everything else is linear algebra: the energy constant

    e(B, w)^2 = b3^2 (m0 m2 - m1^2)/(m0 + m2) + b1^2 m0 - 2 b1 b2 m1
                + b2^2 m2

bounds the n-th lowest Rayleigh quotient of the magnetic Neumann
Laplacian on the cone over w through E_n <= (4n - 1) e(B, w).

This script walks a disc, a rectangle, and an irregular polygon through
the full pipeline and cross-checks the rectangle against its closed form.
"""

import math

import numpy as np

from conebounds import (Disc, Polygon, TransverseGauge, e_constant,
                        min_transverse_norm_sq, moments,
                        optimal_transverse_gauge, rayleigh_upper_bounds,
                        reference_asymptotics)

# --- moments of three sections --------------------------------------------

disc = Disc(center=(0.0, 0.0), radius=1.0)
rect = Polygon([(-2.0, -1.0), (2.0, -1.0), (2.0, 1.0), (-2.0, 1.0)])
blob = Polygon([(1.3, 0.2), (0.4, 1.1), (-0.9, 0.8),
                (-1.3, -0.2), (-0.4, -1.1), (0.9, -0.8)])

for name, section in (("unit disc", disc), ("2x1 rectangle", rect),
                      ("hexagonal blob", blob)):
    m = moments(section)
    print(f"{name:15s} area = {m.area:8.5f}   "
          f"m0, m1, m2 = {m.m0:9.6f} {m.m1:9.6f} {m.m2:9.6f}")

# --- the optimal transverse gauge -----------------------------------------

# Among all linear plane potentials with unit curl, one minimizes the
# L2(w) norm; its matrix is a rational function of the raw moments, and
# Moments.linear_norm_sq gives the exact norm of any linear map.
# Adding [[da, db], [db, dd]] keeps the curl at 1 and spans the whole
# unit-curl family, so no such shift may lower the norm.
rng = np.random.default_rng(0)
for name, section in (("disc", disc), ("blob", blob)):
    m = moments(section)
    g = optimal_transverse_gauge(m)
    best = m.linear_norm_sq(g.matrix)
    excess = min(
        m.linear_norm_sq(TransverseGauge(g.a + da, g.b + db, g.c + db,
                                         g.d + dd).matrix) - best
        for da, db, dd in rng.uniform(-0.5, 0.5, (200, 3)))
    print(f"optimal gauge ({name}):")
    print(np.array2string(g.matrix, precision=6, suppress_small=True))
    print(f"  curl = {g.curl:.3f}, norm^2 = {best:.6f} "
          f"(closed form {min_transverse_norm_sq(m):.6f}); 200 unit-curl "
          f"shifts: smallest excess {excess:.2e} > 0")

# --- bound ladders ---------------------------------------------------------

field = (0.0, 0.0, 1.0)
res = rayleigh_upper_bounds(field, disc, n_max=4)
print(f"\nunit disc, axial field: e = {res.e:.12f} "
       f"(exact value 1/(2 sqrt 2) = {1 / (2 * math.sqrt(2)):.12f})")
for n, b in res.bounds:
    print(f"  E_{n} <= {b:.12f}   (= (4*{n} - 1) e)")

# --- rectangle closed form -------------------------------------------------

# For the rectangle [-l, l] x [-L, L] the whole pipeline collapses to
#   e = sqrt(b3^2 l^2 L^2 / (l^2 + L^2) + b1^2 L^2 + b2^2 l^2) / sqrt(3)
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(5):
    half_l, half_L = 10.0 ** rng.uniform(-1, 1, 2)
    b1, b2, b3 = rng.standard_normal(3)
    rect = Polygon([(-half_l, -half_L), (half_l, -half_L),
                    (half_l, half_L), (-half_l, half_L)])
    got = e_constant((b1, b2, b3), moments(rect))
    want = math.sqrt((b3 * half_l * half_L) ** 2 / (half_l ** 2 + half_L ** 2)
                     + (b1 * half_L) ** 2 + (b2 * half_l) ** 2) / math.sqrt(3)
    worst = max(worst, abs(got - want) / want)
print(f"\nrandom rectangles vs closed form: worst relative error {worst:.2e}")

# --- sharp circular cones --------------------------------------------------

# As the half-opening alpha shrinks, the disc-section bound divided by
# alpha approaches the circular-cone limit (3 / 2^{5/2}) sqrt(1 + sin^2 b).
alpha = 0.01
print("\nsharp circular cone, n = 1 bound versus its small-angle limit:")
for beta in (0.0, math.pi / 4, math.pi / 2):
    sec = Disc(center=(0.0, 0.0), radius=math.tan(alpha / 2))
    fld = (0.0, math.sin(beta), math.cos(beta))
    (_, b1), = rayleigh_upper_bounds(fld, sec, n_max=1).bounds
    lim = reference_asymptotics("circularCone", alpha, beta=beta)
    print(f"  beta = {beta:5.3f}: bound/alpha = {b1 / alpha:.8f}, "
          f"limit/alpha = {lim / alpha:.8f}")
