"""Model operators: the de Gennes constant and the half-space energy curve.

Two reference energies recur in every localization argument for magnetic
Neumann problems. The de Gennes constant Theta0 is the infimum over xi of
the ground energy mu(xi) of -d^2/dt^2 + (t - xi)^2 on the half line with
a Neumann condition at 0; it sits strictly between 1/2 and 1. The
half-space energy sigma(theta) interpolates monotonically from Theta0
(field tangent to the boundary) up to 1 (field normal to the boundary).
"""

import math

import numpy as np

from conebounds import degennes_mu, halfspace_sigma, theta0, theta0_detail

# --- the band function mu(xi) ------------------------------------------------

print("xi        mu(xi)")
for xi in np.linspace(-1.0, 2.0, 13):
    print(f"{xi:+.3f}   {degennes_mu(xi).mu:.8f}")

det = theta0_detail()
print(f"\nTheta0 = {det.mu:.10f} at xi* = {det.xi:.10f}")
print(f"xi*^2 = {det.xi ** 2:.10f} (equals Theta0 at the minimum, a "
      f"classical identity)")
print(f"strictly above 1/2: {det.mu > 0.5}, strictly below 1: {det.mu < 1.0}")

# --- sigma(theta) -------------------------------------------------------------

# theta = 0 is delegated to Theta0, the minimum of the 1D band; interior
# angles use a Rayleigh-Ritz solve on a theta-adapted spectral basis of the
# half plane, with the same polynomials in t.
print("\ntheta (deg)   sigma(theta)")
thetas = np.linspace(0.0, math.pi / 2.0, 7)
vals = [halfspace_sigma(th) for th in thetas]
for th, s in zip(thetas, vals):
    print(f"{math.degrees(th):8.1f}      {s:.6f}")
print(f"monotone nondecreasing: "
      f"{all(b >= a - 1e-3 for a, b in zip(vals, vals[1:]))}")
print(f"endpoints: sigma(0) = Theta0 = {theta0():.6f}, "
      f"sigma(pi/2) = {vals[-1]:.6f} (model value 1)")
