"""The inner Riccati-type equation and its distinguished solution.

Two independent routes to the landing constant eta0(0): direct integration
of  d(eta)/du = 2/(4 eta - c_p u^p)  from the two-term asymptotic seed, and
the normalized equation  d(etabar)/d(ubar) = 1/(etabar + ubar^p)  mapped
back through the scaling constants.  The deviation from the null-cline
obeys the strict sandwich 0 < |w| < (1/p)|ubar|^{1-p} (1 + margin).
"""

import math

import numpy as np

from slidekick.inner import (
    alpha_beta,
    distinguished_solution,
    eta1_check,
    eta_at_zero_via_normalization,
    normalized_solution,
)
from slidekick.regularization import phi_polynomial

for p in (2, 3, 4):
    prof = phi_polynomial(p)
    sol = distinguished_solution(p, prof.c_p)
    dual = eta_at_zero_via_normalization(p, prof.c_p)
    al, be = alpha_beta(p, prof.c_p)
    print(f"p = {p}: c_p = {prof.c_p:+.4f}  eta0(0) = {sol.eta_at_0:.10f} "
          f"(normalized route: {dual:.10f})  alpha = {al:+.4f}, beta = {be:.4f}")

print("\nnormalized deviation sandwich on ubar in [-20, -0.5]:")
for p in (2, 3, 4):
    ns = normalized_solution(p)
    mask = (ns.ubar <= -0.5) & (ns.ubar >= -20)
    ratio = np.abs(ns.deviation()[mask]) * p * np.abs(ns.ubar[mask]) ** (p - 1)
    print(f"  p = {p}: |w| * p |u|^(p-1) in [{ratio.min():.4f}, {ratio.max():.4f}]  (< 1.5)")

print("\nfirst-order correction eta1 ~ (phi^(p+1)(1)/(4 (p+1)!)) u^{p+1}:")
for p in (2, 3):
    prof = phi_polynomial(p)
    rep = eta1_check(p, prof.c_p, prof.deriv(1.0, p + 1) / math.factorial(p + 1))
    print(f"  p = {p}: log-log slope of eta1 = {rep.slope:.4f}   (expected {p + 1})")
