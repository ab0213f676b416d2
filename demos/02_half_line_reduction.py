"""The one-dimensional reduction behind the cone bounds.

Restricting the quadratic form to functions of the height alone turns the
3D problem into a weighted half-line form

    p[lam](u) = int (|u'|^2 + lam x^2 |u|^2) x^2 dx,
    lam = ||A0||^2_{L2(w)} / |w|,

whose spectrum is known in closed form: sqrt(lam) (4n - 1). This script
checks the finite-difference discretization against those values, shows
that one finite-difference matrix serves every lam, probes the quotient of
p[lam] around the exact ground profile, and integrates a test profile over
the solid cone by quadrature (a 16 x 32 polar rule on the disc times 160
Gauss-Legendre heights, written out below) to show that it reproduces the
1D quotient on the same heights.
"""

import math

import numpy as np

from conebounds import (Disc, exact_reduced_spectrum, fd_halfline_spectrum,
                        full_gauge, lambda_from_gauge, moments,
                        optimal_transverse_gauge)


def heights(lam):
    """160 Gauss-Legendre heights on (0, 12 lam^(-1/4)), and their weights
    times the t^2 of the half-line measure."""
    t_max = 12.0 * lam ** -0.25
    g, gw = np.polynomial.legendre.leggauss(160)
    t = 0.5 * t_max * (g + 1.0)
    return t, 0.5 * t_max * gw * t * t


def quotient_1d(phi, dphi, lam, t, jac):
    """p[lam](phi) / int phi^2 x^2 dx on the heights t with weights jac."""
    phi_v, dphi_v = np.vectorize(phi)(t), np.vectorize(dphi)(t)
    return jac @ (dphi_v ** 2 + lam * t * t * phi_v ** 2) / (jac @ phi_v ** 2)


# --- lam from the optimal gauge --------------------------------------------

disc = Disc(center=(0.0, 0.0), radius=1.0)
gauge = full_gauge((0.0, 0.0, 1.0), optimal_transverse_gauge(moments(disc)))
lam = lambda_from_gauge(gauge, disc)
print(f"unit disc, axial field: lam = {lam:.6f} (exact 1/8)")

# --- exact vs finite-difference spectrum ------------------------------------

exact = exact_reduced_spectrum(lam, n_max=3)
fd = fd_halfline_spectrum(lam, n_max=3)
print("n   sqrt(lam)(4n-1)      FD eigenvalue        difference")
for n, (ev, ef) in enumerate(zip(exact, fd), start=1):
    print(f"{n}   {ev:.12f}   {ef:.12f}   {ef - ev:+.2e}")

# --- one matrix serves every lam --------------------------------------------

# The dilation x -> lam^(1/4) x maps the problem at lam onto sqrt(lam) times
# the problem at lam = 1, and the three-point matrix on (0, 12 lam^(-1/4))
# inherits this entry by entry. So the solver assembles one matrix, at
# lam = 1, and returns sqrt(lam) times its eigenvalues.
fd1 = fd_halfline_spectrum(1.0, n_max=3)
print("\nfd(lam) = sqrt(lam) fd(1), from the least subnormal to near "
      "overflow:")
for lam_k in (5e-324, 1e-8, 1.0, 1e8, 1.7e308):
    v = fd_halfline_spectrum(lam_k, n_max=3)
    ex = exact_reduced_spectrum(lam_k, n_max=3)
    err = np.max(np.abs(v - ex) / ex)
    print(f"  lam = {lam_k:8.1e}: E1 = {v[0]:.6e}, bit-equal to "
          f"sqrt(lam) fd(1): {np.array_equal(v, math.sqrt(lam_k) * fd1)}, "
          f"max relative error {err:.2e}")

# --- quotients around the ground profile -------------------------------------

# The adapted Gaussian exp(-sqrt(lam) x^2 / 2) is the exact minimizer; any
# width perturbation must raise the quotient above 3 sqrt(lam).
print(f"\nquotient of width-t Gaussians at lam = 1 (minimum 3 at t = 1):")
t1, jac1 = heights(1.0)
for w in (0.6, 0.8, 1.0, 1.25, 1.6):
    q = quotient_1d(lambda x: math.exp(-w * x * x / 2.0),
                    lambda x: -w * x * math.exp(-w * x * x / 2.0),
                    1.0, t1, jac1)
    print(f"  t = {w:4.2f}: quotient = {q:.8f}")

# --- solid cone versus half line ---------------------------------------------

# Quadrature over the cone truncated at height 12 lam^(-1/4), with the gauge
# evaluated at the physical points t (x1, x2), equals the weighted 1D
# quotient of the same height profile.
g, gw = np.polynomial.legendre.leggauss(16)
r, wr = 0.5 * (g + 1.0), 0.25 * gw * (g + 1.0)    # radii, with Jacobian r
ang = 2.0 * np.pi * np.arange(32) / 32
pts = np.column_stack([np.outer(r, np.cos(ang)).ravel(),
                       np.outer(r, np.sin(ang)).ravel()])
wts = np.repeat(wr * (2.0 * np.pi / 32), 32)
t, jac = heights(lam)                             # height weights times t^2
mean_sq = np.array([wts @ np.sum((s * pts @ gauge.T) ** 2, axis=1)
                    for s in t]) / np.sum(wts)    # mean |A|^2 at each height
for label, phi, dphi in (
        ("exp(-x^2/2)",
         lambda x: math.exp(-x * x / 2.0),
         lambda x: -x * math.exp(-x * x / 2.0)),
        ("x exp(-x^2/2)",
         lambda x: x * math.exp(-x * x / 2.0),
         lambda x: (1.0 - x * x) * math.exp(-x * x / 2.0))):
    phi_v, dphi_v = np.vectorize(phi)(t), np.vectorize(dphi)(t)
    three_d = jac @ (mean_sq * phi_v ** 2 + dphi_v ** 2) / (jac @ phi_v ** 2)
    one_d = quotient_1d(phi, dphi, lam, t, jac)
    print(f"profile {label:15s}: 3D quadrature {three_d:.10f}, "
          f"1D quotient {one_d:.10f}")
