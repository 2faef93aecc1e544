"""Sliding bifurcations through the regularized return map.

Three phenomenologies at desk scale: the grazing-sliding dichotomy (an
attracting germ keeps its orbit through the bifurcation, a repelling germ
loses both orbits in a saddle-node near mu = |Delta| eps), the semistable
tangent orbit of the Coulomb oscillator, and the sliding homoclinic loop
whose periodic orbit dies at mu~ = -alpha+ + O(eps).
"""

import numpy as np

from slidekick.bifurcation import (
    centre_semistability,
    grazing_sliding_scan,
    homoclinic_scan,
    stribeck_attractor,
)
from slidekick.models import model
from slidekick.regularization import phi_linear, phi_polynomial

eps = 1e-3

print("grazing-sliding, attracting germ (Delta > 0):")
desc = model("grazing-family", variant="attracting")
delta = desc.facts["delta"]
diag = grazing_sliding_scan(desc, phi_linear(), eps, np.linspace(-delta * eps, 2 * delta * eps, 9))
for pt in diag.points:
    xs = ", ".join(f"{f.x:+.6f} ({f.stability})" for f in pt.fixed_points) or "absent"
    print(f"  mu = {pt.mu:+.2e}: {xs}")

print("\ngrazing-sliding, repelling germ (saddle-node):")
descr = model("grazing-family", variant="repelling")
adelta = abs(descr.facts["delta"])
diagr = grazing_sliding_scan(descr, phi_linear(), eps, np.linspace(0, 1.5 * adelta * eps, 7))
for pt in diagr.points:
    print(f"  mu = {pt.mu:+.2e}: {len(pt.fixed_points)} fixed point(s)")
print(f"  saddle-node (minimum of H) at mu = {diagr.collision_mu:.4e}  (|Delta| eps = {adelta * eps:.4e})")

print("\nCoulomb semistability (eps = 1e-3):")
rep = centre_semistability(model("coulomb"), phi_polynomial(2), eps)
print(f"  tangent orbit at x = {rep.x_tangent:.6f}, residual {rep.tangent_residual:.1e}")
print(f"  exterior iterates monotone: {rep.exterior_monotone}, final gaps {[f'{g:.1e}' for g in rep.exterior_final_gaps]}")

print("\nStribeck attractor (eps = 1e-2):")
res = stribeck_attractor(model("stribeck"), phi_polynomial(2), 1e-2)
print(f"  fixed point {res.fixed_point:.6f} ({res.stability}), Hausdorff to the sliding cycle {res.hausdorff_upper:.2e}")

print("\nsliding homoclinic (nu = 0.15, eps = 1e-3):")
make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
scan = homoclinic_scan(make, phi_linear(), eps, [0.0], bisect=True)
print(f"  alpha+ = {scan.alpha_plus:.4f}; orbit at tangency exists: {scan.probes[0].exists}")
print(f"  homoclinic parameter mu~* = {scan.mu_tilde_star:.4f}  (-alpha+ = {-scan.alpha_plus:.4f})")
