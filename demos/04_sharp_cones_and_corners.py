"""Sharp cones: essential-spectrum estimates and corner concentration.

Shrinking the section w_eps = eps * w makes the bound e(B, w_eps) =
eps * e(B, w) vanish linearly while the bottom of the essential spectrum
converges to the value of the reference cylinder over w. As soon as
3 eps e(B, w) drops below the certified floor of the essential spectrum,
the lowest Rayleigh quotients are genuine discrete eigenvalues with
eigenfunctions concentrating at the cone tip. This script computes the
two-sided cylinder estimate, tracks the cone estimates along an eps
ladder, solves for the concentration threshold eps*, and reports the
edge openings of the truncated domain used in practical computations.
"""

import math

from conebounds import (Disc, Polygon, concentration_threshold,
                        cylinder_energy, essential_spectrum_limit,
                        rayleigh_upper_bounds, truncated_domain_edges)

SQUARE = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
FIELD = (0.0, 0.0, 1.0)

# --- the reference cylinder ---------------------------------------------------

cyl = cylinder_energy(FIELD, SQUARE, c_floor=0.5)
print(f"cylinder over the square, axial unit field:")
print(f"  lower bound {cyl.lower:.6f} (certified floor), "
      f"upper bound {cyl.upper:.6f} ({cyl.source})")

# --- essential estimates along the eps ladder --------------------------------

print("\neps     ess lower   ess upper   gap to cylinder upper")
for eps, est in essential_spectrum_limit(FIELD, SQUARE, (0.4, 0.2, 0.1, 0.05),
                                         0.5):
    print(f"{eps:4.2f}    {est.lower:.6f}    {est.upper:.6f}    "
          f"{abs(est.upper - cyl.upper):.4f}")

# --- concentration threshold --------------------------------------------------

disc = Disc(center=(0.0, 0.0), radius=1.0)
thr = concentration_threshold(FIELD, disc, c_floor=1.0)
print(f"\nunit disc: e = {thr.e:.6f}, floor used = {thr.floor_used:.3f}, "
      f"eps* = {thr.epsilon_star:.12f} (exact sqrt(2)/3 = "
      f"{math.sqrt(2.0) / 3.0:.12f})")
for eps in (thr.epsilon_star / 2.0, 2.0 * thr.epsilon_star):
    v = thr(eps)
    print(f"  eps = {eps:.4f}: vertex bound {v.vertex_bound:.4f} "
          f"{'<' if v.holds else '>='} floor, concentration "
          f"{'certified' if v.holds else 'not certified'}")

# --- truncated-domain edges ----------------------------------------------------

# Cutting the cone at unit height leaves lateral edges (one per section
# vertex) and top rim edges (one per side); all of their openings must
# stay away from 0 and 2 pi for the corner analysis to apply.
rep = truncated_domain_edges(SQUARE, eps=0.3)
print(f"\ntruncated square cone at eps = 0.3:")
print(f"  lateral openings: "
      f"{', '.join(f'{op:.4f}' for _, op in rep.lateral)}")
print(f"  top rim openings: {', '.join(f'{op:.4f}' for _, op in rep.top)}")
print(f"  beta0 = {rep.beta0:.4f} "
      f"(every opening lies in [beta0, 2 pi - beta0])")
