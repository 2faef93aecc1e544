"""Acceptance suite: one function per criterion, shared by the CLI and tests.

Each criterion returns a CriterionResult with the measured quantities, the
stated expectation and tolerance, and the wall time.  Criteria are
implemented exactly as stated; two of them probe constants that the derived
dynamics place outside the stated tolerance (the linear strip-exit
remainder and the repelling-germ presence window) and are reported honestly
rather than loosened -- see the repository notes for the analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from slidekick.bifurcation import (
    centre_semistability,
    find_periodic_orbit,
    grazing_sliding_scan,
    homoclinic_scan,
    stribeck_attractor,
)
from slidekick.inner import (
    _integrate_normalized,
    distinguished_solution,
    normalized_seed,
    normalized_solution,
)
from slidekick.models import model
from slidekick.poincare import landing_scan, map_P_epsilon, normal_form_constants
from slidekick.regularization import RegularizedSystem, phi_linear, phi_polynomial
from slidekick.slow_manifold import (
    contraction_probe,
    invariance_residual,
    trace_manifold,
)

SANDWICH_MARGIN = 0.5  # frozen K = (1/p)(1 + margin) for criterion 5


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    expected: str
    runtime: float
    limit: float
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return (
            f"[{self.status}] {self.number:>2}. {self.name}: measured {self.measured}; "
            f"expected {self.expected} ({self.runtime:.1f}s / limit {self.limit:.0f}s)"
        )


def criterion_1() -> CriterionResult:
    """Linear-profile map: P_eps constant at x0+ + alpha+ eps to O(eps^2)."""
    t0 = time.perf_counter()
    nf = model("normal-fold", check=False)
    lin = phi_linear()
    y0 = 0.25
    worst_err = worst_spread = 0.0
    ok = True
    for eps in (1e-2, 1e-3, 1e-4):
        R = RegularizedSystem(nf.system, lin, eps)
        vals = [map_P_epsilon(R, y0, x, fold=0.0).x for x in (-0.9, -0.7, -0.5)]
        err = max(abs(v - (0.5 - eps)) for v in vals)
        spread = max(vals) - min(vals)
        worst_err = max(worst_err, err / eps**2)
        worst_spread = max(worst_spread, spread / eps**2)
        ok = ok and err <= 10 * eps**2 and spread <= 10 * eps**2
    dt = time.perf_counter() - t0
    return CriterionResult(
        1, "linear-profile map", ok and dt < 10.0,
        f"|P-(1/2-eps)| <= {worst_err:.2f} eps^2, spread <= {worst_spread:.2f} eps^2",
        "both <= 10 eps^2", dt, 10.0,
    )


def criterion_2() -> CriterionResult:
    """Linear strip exit x1 within 5 eps^2 of 2 eps (true remainder is 16 eps^2)."""
    t0 = time.perf_counter()
    nf = model("normal-fold", check=False)
    lin = phi_linear()
    worst = 0.0
    ok = True
    for eps in (1e-2, 1e-3, 1e-4):
        R = RegularizedSystem(nf.system, lin, eps)
        tr = trace_manifold(R, -1.0, 1.0)
        dev = abs(tr.exit_x - 2 * eps)
        worst = max(worst, dev / eps**2)
        ok = ok and dev <= 5 * eps**2
    dt = time.perf_counter() - t0
    return CriterionResult(
        2, "linear strip exit", ok and dt < 5.0,
        f"|x1 - 2 eps| <= {worst:.1f} eps^2",
        "<= 5 eps^2", dt, 5.0,
        detail="the invariant-manifold series gives x1 = 2 eps - 16 eps^2 + O(eps^3); "
        "the stated 5 eps^2 tolerance is below the true remainder (see notes)",
    )


def criterion_3() -> CriterionResult:
    """Exit-abscissa and landing-deviation exponents for p = 2 and p = 3."""
    t0 = time.perf_counter()
    nf = model("normal-fold", check=False)
    y0 = 0.25
    tc = normal_form_constants(y0)
    eps_list = [1e-6, 3e-6, 1e-5, 3e-5, 1e-4]
    parts = []
    ok = True
    for p in (2, 3):
        scan = landing_scan(nf.system, phi_polynomial(p), eps_list, y0, -0.8, constants=tc)
        s_exit, s_dev = scan.exit_fit.slope, scan.deviation_fit.slope
        want_exit = p / (2 * p - 1)
        want_dev = 2 * p / (2 * p - 1)
        ok = ok and abs(s_exit - want_exit) <= 0.02 and scan.exit_fit.r_squared >= 0.999
        ok = ok and abs(s_dev - want_dev) <= 0.03 and scan.deviation_fit.r_squared >= 0.999
        parts.append(f"p={p}: exit {s_exit:.4f} (want {want_exit:.4f}), dev {s_dev:.4f} (want {want_dev:.4f})")
    dt = time.perf_counter() - t0
    return CriterionResult(
        3, "exponent law", ok and dt < 120.0,
        "; ".join(parts), "slopes p/(2p-1) +- 0.02 and 2p/(2p-1) +- 0.03, r^2 >= 0.999",
        dt, 120.0,
    )


def criterion_4() -> CriterionResult:
    """Prefactor of the eps^{4/3} landing deviation against the inner constant."""
    t0 = time.perf_counter()
    nf = model("normal-fold", check=False)
    poly2 = phi_polynomial(2)
    y0, eps = 0.25, 1e-6
    tc = normal_form_constants(y0)
    sol = distinguished_solution(2, poly2.c_p)
    ok_inner = sol.estimated_error <= 1e-8
    R = RegularizedSystem(nf.system, poly2, eps)
    r = map_P_epsilon(R, y0, -0.8, fold=0.0)
    lhs = (r.x - (tc.x0_plus + tc.alpha_plus * eps)) / eps ** (4.0 / 3.0)
    rhs = tc.beta_plus * sol.eta_at_0**2
    rel = abs(lhs - rhs) / abs(rhs)
    dt = time.perf_counter() - t0
    return CriterionResult(
        4, "inner-equation prefactor", rel <= 0.10 and ok_inner and dt < 60.0,
        f"ratio deviation {100 * rel:.2f}% (eta0(0) = {sol.eta_at_0:.8f} +- {sol.estimated_error:.1e})",
        "within 10% of beta+ eta0(0)^2, eta0 stable to 1e-8", dt, 60.0,
    )


def criterion_5() -> CriterionResult:
    """Normalized distinguished solution: strict sandwich and seed stability."""
    t0 = time.perf_counter()
    ok = True
    worst_ratio = 0.0
    for p in (2, 3, 4):
        ns = normalized_solution(p)
        ub = np.linspace(-20.0, -0.5, 100)
        # interpolate the deviation, not etabar itself: the -ubar^p part is
        # huge and its interpolation error would swamp the O(|u|^{1-p}) gap
        w = np.interp(ub, ns.ubar, ns.deviation())
        bound = -(1.0 + SANDWICH_MARGIN) / (p * ub ** (p - 1))
        # strictly between the null-cline and the margin curve
        inside = (np.sign(w) == np.sign(bound)) & (np.abs(w) > 0.0) & (np.abs(w) < np.abs(bound))
        ok = ok and bool(inside.all())
        worst_ratio = max(worst_ratio, float(np.max(np.abs(w) / np.abs(bound))))
    # seed perturbation: +1e-6 relative at the seed changes etabar(0) < 1e-8
    base = normalized_solution(2).etabar_at_0
    w0 = (normalized_seed(2, -30.0) + 900.0) * (1 + 1e-6)
    kick = abs(float(_integrate_normalized(2, -30.0, w_seed=w0).z[0]) - base)
    ok = ok and kick < 1e-8
    dt = time.perf_counter() - t0
    return CriterionResult(
        5, "distinguished-solution sandwich", ok and dt < 5.0,
        f"max |w|/bound = {worst_ratio:.3f}, seed kick {kick:.2e}",
        f"strict sandwich with margin {SANDWICH_MARGIN}, kick < 1e-8", dt, 5.0,
    )


def criterion_6() -> CriterionResult:
    """Exponential attraction: linear pair bound and p=2 landing coincidence."""
    t0 = time.perf_counter()
    nf = model("normal-fold", check=False)
    eps_lin = 1e-3
    R1 = RegularizedSystem(nf.system, phi_linear(), eps_lin)
    rep = contraction_probe(R1, [-0.1, -0.05], milestones=np.array([-0.05, 0.0]))
    sep0 = rep.separations[(0, 1)][0]
    sep_end = rep.separations[(0, 1)][1]
    bound = sep0 * math.exp(-(0.0 - (-0.05)) / (2 * eps_lin))
    ok_lin = sep_end <= max(bound, 1e-10)

    eps2 = 1e-4
    R2 = RegularizedSystem(nf.system, phi_polynomial(2), eps2)
    starts = [-0.3, -0.2, -0.1]
    assert all(x <= -(eps2**0.45) for x in starts)
    rep2 = contraction_probe(R2, starts)
    spread = max(rep2.exit_points) - min(rep2.exit_points)
    ok_p2 = spread <= 1e-8
    dt = time.perf_counter() - t0
    return CriterionResult(
        6, "exponential attraction", ok_lin and ok_p2 and dt < 30.0,
        f"linear sep(0) = {sep_end:.2e} (bound {max(bound, 1e-10):.2e}); p=2 exit spread {spread:.2e}",
        "sep within e^{-(x-x0)/2eps} (1e-10 floor); spread <= 1e-8", dt, 30.0,
    )


def criterion_7a() -> CriterionResult:
    """Grazing-sliding, attracting germ: unbroken branch over [-D eps, 2 D eps]."""
    t0 = time.perf_counter()
    desc = model("grazing-family", variant="attracting", check=False)
    eps = 1e-3
    delta = desc.facts["delta"]
    grid = np.linspace(-delta * eps, 2 * delta * eps, 13)
    diag = grazing_sliding_scan(desc, phi_linear(), eps, grid)
    present = diag.present()
    dt = time.perf_counter() - t0
    return CriterionResult(
        7, "grazing-sliding (attracting)", bool(present.all()) and dt < 60.0,
        f"fixed point at {int(present.sum())}/{len(present)} grid values",
        "branch spans mu in [-D eps, 2 D eps] without gap", dt, 60.0,
    )


def criterion_7b() -> CriterionResult:
    """Grazing-sliding, repelling germ: presence dichotomy at +-0.5 |D| eps."""
    t0 = time.perf_counter()
    desc = model("grazing-family", variant="repelling", check=False)
    eps = 1e-3
    adelta = abs(desc.facts["delta"])
    lin = phi_linear()
    at_plus = find_periodic_orbit(desc, lin, eps, +0.5 * adelta * eps)
    at_minus = find_periodic_orbit(desc, lin, eps, -0.5 * adelta * eps)
    present_plus = len(at_plus.fixed_points) > 0
    present_minus = len(at_minus.fixed_points) > 0
    # locate the actual collision for the record
    grid = np.linspace(0.0, 1.5 * adelta * eps, 16)
    diag = grazing_sliding_scan(desc, lin, eps, grid)
    ok = present_plus and not present_minus
    dt = time.perf_counter() - t0
    return CriterionResult(
        7, "grazing-sliding (repelling)", ok and dt < 60.0,
        f"present at +0.5|D|eps: {present_plus}, at -0.5|D|eps: {present_minus}; "
        f"measured collision mu ~ {diag.collision_mu if diag.collision_mu is not None else float('nan'):.2e}",
        "present at +0.5|D|eps and absent at -0.5|D|eps",
        dt, 60.0,
        detail="the saddle-node sits at mu = |Delta| eps (1 + o(1)) -- the return map "
        "contracts into its own image only once gamma < Delta eps -- so no orbit "
        "exists anywhere in (-|Delta| eps, |Delta| eps) and the probe +0.5|D|eps "
        "lies inside that window (see notes)",
    )


def criterion_8() -> CriterionResult:
    """Coulomb semistability: tangent orbit fixed, exterior funnel, interior identity."""
    t0 = time.perf_counter()
    desc = model("coulomb", check=False)
    rep = centre_semistability(desc, phi_polynomial(2), 1e-3, y0=0.25, max_iter=1500)
    ok = (
        rep.tangent_residual <= 1e-9
        and rep.exterior_monotone
        and all(g <= 1e-6 for g in rep.exterior_final_gaps)
        and all(r <= 1e-8 for r in rep.interior_residuals)
    )
    dt = time.perf_counter() - t0
    return CriterionResult(
        8, "Coulomb semistability", ok and dt < 60.0,
        f"tangent {rep.tangent_residual:.1e}; exterior gaps <= {max(rep.exterior_final_gaps):.1e} "
        f"(monotone: {rep.exterior_monotone}); interior <= {max(rep.interior_residuals):.1e}",
        "fixed to 1e-9; increasing to within 1e-6; identity to 1e-8", dt, 60.0,
    )


def criterion_9() -> CriterionResult:
    """Stribeck attractor: unique fixed point, upper arc 5 eps-close to the cycle."""
    t0 = time.perf_counter()
    desc = model("stribeck", check=False)
    parts = []
    ok = True
    for eps in (1e-2, 1e-3):
        res = stribeck_attractor(desc, phi_polynomial(2), eps, y0=0.25)
        ok = ok and res.n_fixed_points == 1 and res.stability == "attracting"
        ok = ok and res.hausdorff_upper <= 5 * eps
        parts.append(f"eps={eps:g}: d_H={res.hausdorff_upper:.2e} (5eps={5 * eps:.0e}), n={res.n_fixed_points}")
    dt = time.perf_counter() - t0
    return CriterionResult(
        9, "Stribeck attractor", ok and dt < 60.0,
        "; ".join(parts), "unique attracting fixed point, Hausdorff <= 5 eps", dt, 60.0,
    )


def criterion_10() -> CriterionResult:
    """Sliding homoclinic: presence window and the bisected homoclinic parameter."""
    t0 = time.perf_counter()
    eps = 1e-3
    lin = phi_linear()

    def make(mu_raw: float):
        return model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)

    pre = homoclinic_scan(make, lin, eps, [0.0], y0=0.25, bisect=False)
    ap = pre.alpha_plus
    scan = homoclinic_scan(make, lin, eps, [0.0, -0.5 * ap, -1.5 * ap], y0=0.25, bisect=True)
    e0, e05, e15 = (p.exists for p in scan.probes)
    dev = abs(scan.mu_tilde_star + ap) if scan.mu_tilde_star is not None else float("inf")
    # half-eps cross-check freezes the O(eps) constant
    scan_half = homoclinic_scan(make, lin, eps / 2, [], y0=0.25, bisect=True)
    dev_half = abs(scan_half.mu_tilde_star + scan_half.alpha_plus) if scan_half.mu_tilde_star else float("inf")
    ok = e0 and e05 and (not e15) and dev <= 0.2 and dev_half <= 0.2
    dt = time.perf_counter() - t0
    return CriterionResult(
        10, "homoclinic bifurcation", ok and dt < 120.0,
        f"exists at mu~ in (0, -a+/2): ({e0}, {e05}); absent at -1.5a+: {not e15}; "
        f"|mu~* + a+| = {dev:.3f} (half-eps: {dev_half:.3f}, C = {dev / eps:.0f})",
        "present/present/absent and |mu~* + alpha+| <= 0.2", dt, 120.0,
    )


def criterion_11() -> CriterionResult:
    """Invariance-equation residual of n0 + eps n1 is O(eps^2) with one constant."""
    t0 = time.perf_counter()
    poly2 = phi_polynomial(2)
    sup = {}
    for eps in (1e-3, 1e-4, 1e-5):
        vs = np.linspace(-0.9, 0.8, 400)
        sup[eps] = max(abs(invariance_residual(poly2, eps, v)) for v in vs)
    ratios = [sup[e] / e**2 for e in sup]
    spread = max(ratios) / min(ratios)
    C = max(ratios)
    dt = time.perf_counter() - t0
    return CriterionResult(
        11, "expansion residuals", spread < 2.0 and dt < 5.0,
        f"sup residual / eps^2 in [{min(ratios):.3f}, {max(ratios):.3f}] (C = {C:.3f})",
        "same C across eps (ratio within factor 2)", dt, 5.0,
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7a,
    criterion_7b,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all(selection=None) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if selection and fn.__name__ not in selection:
            continue
        results.append(fn())
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
