"""The attractive Robin analogue of the magnetic cone bounds.

For the Laplacian with boundary condition dn u = u, the half space has
ground energy -1 and the wedge of opening alpha has -1/sin^2(alpha/2)
for alpha in (0, pi] (flat, -1, beyond). For a convex cone whose section
is star-shaped about an axis point, parametrizing the boundary by a polar
profile r = b(phi) gives the upper bound

    E <= -( int sigma b^2 dphi / int b^2 dphi )^2,
    sigma = sqrt(1 + b^{-2} + b'^2 b^{-4}),

which blows up like -C eps^{-2} as the section shrinks. With h the
distance from the axis to the tangent line, the integrands are
sqrt(1 + h^2) ds and h ds, so a polygon's bound is a sum over its edges
and the best axis is a vertex of the kernel of the section.
"""

import math

from conebounds import (BoundaryProfile, Disc, Polygon,
                        robin_best_axis_bound, robin_cone_upper_bound,
                        robin_scaling_exponent, robin_wedge_energy)

# --- explicit model energies ---------------------------------------------------

print("alpha (deg)   wedge energy")
for alpha in (math.pi / 6, math.pi / 3, math.pi / 2, math.pi,
              1.5 * math.pi):
    print(f"{math.degrees(alpha):9.1f}     "
          f"{robin_wedge_energy(alpha):12.6f}")
print("(the 180-degree wedge is the half space, energy -1)")

# --- circular cones reproduce the wedge formula --------------------------------

# The section of the circular cone of opening alpha is a disc of radius
# tan(alpha/2); the profile is constant, the averages collapse, and the
# bound must land on -1/sin^2(alpha/2) exactly.
print("\ncircular cones: profile bound vs closed form")
for alpha in (math.pi / 6, math.pi / 3, math.pi / 2):
    prof = BoundaryProfile.from_section(
        Disc(center=(0.0, 0.0), radius=math.tan(alpha / 2.0)))
    got = robin_cone_upper_bound(prof)
    want = -1.0 / math.sin(alpha / 2.0) ** 2
    print(f"  alpha = {math.degrees(alpha):5.1f} deg: {got:.10f} "
          f"(closed form {want:.10f})")

# --- polygonal sections ----------------------------------------------------------

square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
tri = Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
for name, sec in (("square", square), ("triangle", tri)):
    centroid_bound = robin_cone_upper_bound(BoundaryProfile.from_section(sec))
    best, axis = robin_best_axis_bound(sec)
    print(f"{name}: centroid-axis bound {centroid_bound:.6f}, "
          f"exact best axis ({axis[0]:.3f}, {axis[1]:.3f}) "
          f"gives {best:.6f}")

# --- the eps^{-2} blow-up ----------------------------------------------------------

small = BoundaryProfile.from_section(Disc(center=(0.0, 0.0), radius=0.2))
print("\nscaled small disc: eps, bound")
for eps in (1.0, 0.5, 0.25, 0.1):
    print(f"  {eps:4.2f}  {robin_cone_upper_bound(small.scaled(eps)):12.4f}")
expo = robin_scaling_exponent(small, (1.0, 0.5, 0.25, 0.1))
print(f"log-log slope of |bound| vs eps: {expo:.4f} (limit -2)")
