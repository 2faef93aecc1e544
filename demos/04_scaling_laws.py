"""Universal scaling of the regularized fold map.

Sweeping eps over two decades, the strip-exit abscissa follows
eps^{p/(2p-1)} and the landing deviation from x0+ + alpha+ eps follows
eps^{2p/(2p-1)}, with the prefactor of the latter set by the inner
constant: beta+ eta0(0)^2.
"""

from slidekick.inner import distinguished_solution
from slidekick.models import model
from slidekick.poincare import landing_scan, map_P_epsilon, normal_form_constants
from slidekick.regularization import RegularizedSystem, phi_polynomial

nf = model("normal-fold")
y0 = 0.25
tc = normal_form_constants(y0)[0]  # the germ of X+
eps_list = [1e-6, 3e-6, 1e-5, 3e-5, 1e-4]

for p in (2, 3):
    scan = landing_scan(nf.system, phi_polynomial(p), eps_list, y0, -0.8, constants=tc)
    print(f"p = {p}:")
    print(f"  exit slope      {scan.exit_fit.slope:.4f}  (law {p / (2 * p - 1):.4f}, r^2 = {scan.exit_fit.r_squared:.6f})")
    print(f"  deviation slope {scan.deviation_fit.slope:.4f}  (law {2 * p / (2 * p - 1):.4f}, r^2 = {scan.deviation_fit.r_squared:.6f})")

poly2 = phi_polynomial(2)
eta0 = distinguished_solution(2, poly2.c_p).eta_at_0
print("\nprefactor of the eps^{4/3} deviation (p = 2):")
for eps in (1e-4, 1e-5, 1e-6):
    r = map_P_epsilon(RegularizedSystem(nf.system, poly2, eps), y0, -0.8, fold=0.0)
    lhs = (r.x - (tc.x0 + tc.alpha * eps)) / eps ** (4 / 3)
    print(f"  eps = {eps:7.0e}: measured {lhs:.6f}   beta+ eta0(0)^2 = {tc.beta * eta0**2:.6f}")
