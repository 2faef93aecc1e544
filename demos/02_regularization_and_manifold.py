"""Transition profiles and the attracting Fenichel manifold in the strip.

The piecewise linear profile leaves the strip at
x1 = 2 eps - 16 eps^2 + 448 eps^3 - ...; the C^{p-1} profiles bend the slow
manifold near the fold and the exit abscissa collapses to the eps^{p/(2p-1)}
law.  The trace is continued as a graph over x, switched to a graph over v
where m0' blows up, and checked against the isolating-block inequalities.
"""

from slidekick.models import model
from slidekick.regularization import RegularizedSystem, phi_linear, phi_polynomial
from slidekick.slow_manifold import SlowManifoldExpansion, trace_manifold, verify_sandwich

nf = model("normal-fold")

print("profile gallery at v = 0.5:")
for prof in (phi_linear(), phi_polynomial(2), phi_polynomial(3)):
    print(f"  {prof.name:<9} phi(0.5) = {prof(0.5):+.6f}   phi^(p)(1-) = {prof.phi_p_at_1:+.4f}")

exp = SlowManifoldExpansion(phi_polynomial(2))
print("\nFenichel terms for poly(2): n0(0.5) = %.6f, n1(0.5) = %.6f" % (exp.n0(0.5), exp.n1(0.5)))

print("\nlinear strip exits (x1 = 2 eps - 16 eps^2 + 448 eps^3 - ...):")
for eps in (1e-2, 1e-3, 1e-4):
    tr = trace_manifold(RegularizedSystem(nf.system, phi_linear(), eps), -1.0, 1.0)
    r2 = (tr.exit_x - 2 * eps) / eps**2
    r3 = (tr.exit_x - 2 * eps + 16 * eps**2) / eps**3
    r4 = (r3 - 448) / eps
    print(f"  eps = {eps:7.0e}: x1 = {tr.exit_x:.8f}   (x1 - 2eps)/eps^2 = {r2:+.2f}"
          f"   (x1 - 2eps + 16eps^2)/eps^3 = {r3:+.0f}   remainder/eps^4 = {r4:+.0f}")

print("\npoly(2) exits against the inner constant eta0(0) = 0.8899976:")
for eps in (1e-4, 1e-5, 1e-6):
    R = RegularizedSystem(nf.system, phi_polynomial(2), eps)
    tr = trace_manifold(R, -1.0, 1.0)
    print(f"  eps = {eps:7.0e}: exit/eps^(2/3) = {tr.exit_x / eps ** (2 / 3):.6f}")

R = RegularizedSystem(nf.system, phi_polynomial(2), 1e-4)
tr = trace_manifold(R, -1.0, 1.0)
rep = verify_sandwich(R, tr, "outer_block_p", M=50.0, delta=0.2, lambda1=0.2)
print(f"\nouter-block sandwich (p=2, eps=1e-4): {rep.count} points, "
      f"fraction inside = {rep.fraction_ok:.3f}, min margins = "
      f"({rep.min_margin_lower:.2e}, {rep.min_margin_upper:.2e})")
