"""The four benchmark workloads: inputs from the seed, operations, checks.

A workload is built from its seed alone.  ``setup`` imports slidekick and
builds the models and profiles (this is the timed set-up); ``round(r)``
returns the operations of round ``r``; every round runs the same
operations, only the seed-derived inputs differ.  Each operation's output
is checked against a computation made apart from the program or against a
property the method must have; the checks run outside the timed region.

The modules of the program are looked up at call time (``self.sk.poincare
.map_P_epsilon``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import types
from dataclasses import dataclass, field
from typing import Any, Callable

Y0 = 0.25  # outer section {y = y0} of every map, as in the acceptance criteria
SANDWICH_MARGIN = 0.5  # criterion 5: |w| < (1 + margin) / (p |u|^(p-1))


@dataclass
class Op:
    """One timed operation and what became of it."""

    label: str
    key: tuple
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    result: Any = None
    start: tuple = ()  # yardstick marks around the call
    end: tuple = ()
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def import_program() -> types.SimpleNamespace:
    import slidekick
    import slidekick.bifurcation
    import slidekick.fields
    import slidekick.inner
    import slidekick.integrator
    import slidekick.models
    import slidekick.poincare
    import slidekick.regularization
    import slidekick.slow_manifold

    return types.SimpleNamespace(
        bifurcation=slidekick.bifurcation,
        fields=slidekick.fields,
        inner=slidekick.inner,
        models=slidekick.models,
        poincare=slidekick.poincare,
        regularization=slidekick.regularization,
    )


@functools.cache
def airy_zeros() -> tuple[float, float]:
    """First zeros a1 of Ai and a1' of Ai' (scipy.special, not slidekick).
    Called from the checks only, so set-up does not import scipy.special."""
    from scipy.special import ai_zeros

    a, ap, _, _ = ai_zeros(1)
    return float(a[0]), float(ap[0])


def c_p_closed_form(p: int) -> float:
    """phi^(p)(1)/p! of the poly(p) profile phi' ~ (1 - v^2)^(p-1).

    With N = int_0^1 (1 - s^2)^(p-1) ds = (2p-2)!! / (2p-1)!!, the
    (p-1)-th derivative of (1 - v)^(p-1) (1 + v)^(p-1) at v = 1 gives
    c_p = (-2)^(p-1) / (p N).
    """
    n = math.prod(range(2, 2 * p - 1, 2)) / math.prod(range(1, 2 * p, 2))
    return (-2.0) ** (p - 1) / (p * n)


def inner_alpha(p: int, c_p: float) -> float:
    """Scaling etabar = alpha eta that sends the inner equation to
    d(etabar)/d(ubar) = 1/(etabar + ubar^p); negative for odd p."""
    return (1.0 if p % 2 == 0 else -1.0) * (2.0 ** (p - 2) * abs(c_p)) ** (1.0 / (2 * p - 1))


def landing_deviation(x_out: float, eps: float) -> float:
    """P_eps(x) - (x0+ + alpha+ eps) with the normal-form germ
    x0+ = sqrt(y0), alpha+ = -1/(2 sqrt(y0))."""
    r = math.sqrt(Y0)
    return x_out - (r - eps / (2.0 * r))


def _fail_if(cond: bool, message: str) -> list[str]:
    return [message] if cond else []


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sk: types.SimpleNamespace | None = None

    def setup(self) -> None:
        self.sk = import_program()
        self.build()

    def build(self) -> None:
        """Build the workload's models and profiles."""

    def fields_for_probe(self) -> list:
        """(field, points) pairs for the fields.eval_us probe."""
        nf = self.sk.models.model("normal-fold", check=False).system
        pts = [(-0.8, 0.25), (-0.3, 1e-3), (0.1, 0.0), (0.5, 0.25)]
        return [(nf.x_plus, pts), (nf.x_minus, pts)]

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def before(self, op: Op) -> None:
        """Runs untimed just before ``op``."""

    def round_checks(self, ops: list[Op]) -> None:
        """Checks that need every operation of one round."""

    def run_checks(self, ops: list[Op]) -> None:
        """Checks that need every operation of the run."""


# ---------------------------------------------------------------------------


class FoldMapSweep(Workload):
    """map_P_epsilon on normal-fold over profiles x eps, fresh probes."""

    name = "fold-map-sweep"
    min_rounds = 2  # landing independence needs two probes per (profile, eps)
    EPS = (1e-3, 1e-4, 1e-5, 1e-6)
    PROBE_LO, PROBE_HI = -0.80, -0.75  # well left of the tangent orbit x ~ -0.5
    GRID = 1_000_000

    def __init__(self, seed):
        super().__init__(seed)
        self._used: set[int] = set()

    def build(self):
        self.nf = self.sk.models.model("normal-fold", check=True)
        reg = self.sk.regularization
        self.profiles = [(1, reg.phi_linear()), (2, reg.phi_polynomial(2)), (3, reg.phi_polynomial(3))]

    def _probe(self) -> float:
        # abscissae never repeat within a run, so no operation repeats
        while True:
            k = self.rng.randrange(self.GRID)
            if k not in self._used:
                self._used.add(k)
                return self.PROBE_LO + (self.PROBE_HI - self.PROBE_LO) * k / self.GRID

    def round(self, r):
        ops = []
        for p, prof in self.profiles:
            for eps in self.EPS:
                x = self._probe()
                ops.append(Op(
                    label=f"map_P_epsilon[{prof.name}, eps={eps:g}, x={x:.6f}]",
                    key=(r, p, eps),
                    call=self._map_call(prof, eps, x),
                    check=self._map_check(p, eps, x),
                ))
        return ops

    def _map_call(self, prof, eps, x):
        def call():
            R = self.sk.regularization.RegularizedSystem(self.nf.system, prof, eps)
            return self.sk.poincare.map_P_epsilon(R, Y0, x, fold=self.nf.facts["fold_x"])
        return call

    def _map_check(self, p, eps, x):
        def check(res) -> list[str]:
            if res.flags.get("out_of_domain", True):
                return ["orbit missed the strip"]
            # first integral y - x^2 of X+ = (1, 2x): stages P and Pbar
            x_in_ref = -math.sqrt(x * x + eps - Y0)
            x_out_ref = math.sqrt(res.flags["x_exit"] ** 2 - eps + Y0)
            out = _fail_if(abs(res.flags["x_in"] - x_in_ref) > 1e-9,
                           f"stage P: x_in {res.flags['x_in']!r} vs {x_in_ref!r}")
            out += _fail_if(abs(res.x - x_out_ref) > 1e-9, f"stage Pbar: x_out {res.x!r} vs {x_out_ref!r}")
            dev = landing_deviation(res.x, eps)
            if p == 1:
                out += _fail_if(abs(dev) > 10 * eps**2, f"linear: |P - (x0+ + alpha+ eps)| = {abs(dev):.3e} > 10 eps^2")
            if p == 2:
                # beta+ eta0(0)^2 eps^(4/3), beta+ = 1/(2 sqrt(y0)), eta0(0) = -a1'/alpha
                eta0 = -airy_zeros()[1] / inner_alpha(2, c_p_closed_form(2))
                want = eta0**2 / (2.0 * math.sqrt(Y0)) * eps ** (4.0 / 3.0)
                out += _fail_if(abs(dev - want) > 0.10 * abs(want), f"poly(2) prefactor: {dev:.4e} vs {want:.4e}")
            return out
        return check

    def round_checks(self, ops):
        for p, _prof in self.profiles[1:]:
            mine = [o for o in ops if o.key[1] == p and not o.failed]
            if len(mine) < 2:
                continue
            slope = _loglog_slope([o.key[2] for o in mine], [landing_deviation(o.result.x, o.key[2]) for o in mine])
            want = 2 * p / (2 * p - 1)
            if abs(slope - want) > 0.03:
                for o in mine:
                    o.problems.append(f"poly({p}) deviation exponent {slope:.4f}, want {want:.4f} +- 0.03")

    def run_checks(self, ops):
        groups: dict[tuple, list[Op]] = {}
        for o in ops:
            if o.key[1] >= 2 and not o.failed:
                groups.setdefault(o.key[1:], []).append(o)
        for (p, eps), mine in groups.items():
            xs = [o.result.x for o in mine]
            if len(xs) >= 2 and max(xs) - min(xs) > 1e-8:
                for o in mine:
                    o.problems.append(f"poly({p}) eps={eps:g}: landing spread {max(xs) - min(xs):.2e} > 1e-8")


# ---------------------------------------------------------------------------


class InnerSolve(Workload):
    """Cold distinguished/normalized solutions for p = 2, 3, 4 and Omega0."""

    name = "inner-solve"
    P = (2, 3, 4)

    def build(self):
        self.c_p = {p: c_p_closed_form(p) for p in self.P}

    def round(self, r):
        ops = []
        for p in self.P:
            ops.append(Op(f"distinguished_solution[p={p}]", (r, "direct", p),
                          lambda p=p: self.sk.inner.distinguished_solution(p, self.c_p[p]),
                          self._direct_check(p)))
            ops.append(Op(f"normalized_solution[p={p}]", (r, "normalized", p),
                          lambda p=p: self.sk.inner.normalized_solution(p), self._normalized_check(p)))
        ops.append(Op("omega0", (r, "omega0", 2), lambda: self.sk.inner.omega0(), self._omega_check))
        # the seed orders the operations; every operation starts cold
        self.rng.shuffle(ops)
        return ops

    def before(self, op):
        # a `slidekick inner` invocation pays the cold solve
        inner = self.sk.inner
        inner.distinguished_solution.cache_clear()
        inner.normalized_solution.cache_clear()
        inner.omega0.cache_clear()

    def _direct_check(self, p):
        def check(sol) -> list[str]:
            out = _fail_if(not math.isfinite(sol.eta_at_0), "eta0(0) not finite")
            out += _fail_if(sol.estimated_error > 1e-8, f"eta0(0) unstable: {sol.estimated_error:.2e}")
            return out
        return check

    def _normalized_check(self, p):
        def check(ns) -> list[str]:
            out = []
            if p == 2:
                # du/deta = eta + u^2 is an Airy Riccati equation: etabar0(0) = -a1'
                a1p = airy_zeros()[1]
                out += _fail_if(abs(ns.etabar_at_0 + a1p) > 1e-10,
                                f"etabar0(0) = {ns.etabar_at_0!r}, -a1' = {-a1p!r}")
            # criterion 5: the deviation lies strictly between the null-cline
            # and the margin curve on ubar in [-20, -0.5]
            import numpy as np

            ub = np.linspace(-20.0, -0.5, 100)
            w = np.interp(ub, ns.ubar, ns.deviation())
            bound = -(1.0 + SANDWICH_MARGIN) / (p * ub ** (p - 1))
            inside = (np.sign(w) == np.sign(bound)) & (np.abs(w) > 0.0) & (np.abs(w) < np.abs(bound))
            out += _fail_if(not bool(inside.all()), f"p={p}: deviation leaves the sandwich")
            return out
        return check

    def _omega_check(self, om) -> list[str]:
        a1 = airy_zeros()[0]
        return _fail_if(abs(om + a1) > 1e-8, f"Omega0 = {om!r}, -a1 = {-a1!r}")

    def round_checks(self, ops):
        by = {o.key[1:]: o for o in ops}
        for p in self.P:
            d, n = by.get(("direct", p)), by.get(("normalized", p))
            if d is None or n is None or d.failed or n.failed:
                continue
            via_norm = n.result.etabar_at_0 / inner_alpha(p, self.c_p[p])
            if abs(d.result.eta_at_0 - via_norm) > 1e-8:
                msg = f"p={p}: direct {d.result.eta_at_0!r} vs normalized {via_norm!r}"
                d.problems.append(msg)
                n.problems.append(msg)


# ---------------------------------------------------------------------------


class ReturnMap(Workload):
    """Stribeck attractor and Coulomb semistability (criteria 8 and 9)."""

    name = "return-map"
    STRIBECK_EPS = 1e-2
    COULOMB_EPS = 1e-3
    N_EXTERIOR = 2
    N_INTERIOR = 2

    def build(self):
        models, reg = self.sk.models, self.sk.regularization
        self.coulomb = models.model("coulomb", check=True)
        self.stribeck = models.model("stribeck", check=True)
        self.poly2 = reg.phi_polynomial(2)

    def fields_for_probe(self):
        pts = [(0.2, 0.25), (0.5, 1e-3), (1.0, 0.0), (1.3, 0.25)]
        return [(f, pts) for d in (self.coulomb, self.stribeck) for f in (d.system.x_plus, d.system.x_minus)]

    def round(self, r):
        # exterior starts x_bar - span k/n replay the same orbit after one
        # return, so the span changes the inputs, not the work
        ext_span = 0.15 + 0.10 * self.rng.random()
        int_span = 0.15 + 0.07 * self.rng.random()
        return [
            Op(f"stribeck_attractor[poly(2), eps={self.STRIBECK_EPS:g}]", (r, "stribeck"),
               lambda: self.sk.bifurcation.stribeck_attractor(self.stribeck, self.poly2, self.STRIBECK_EPS, y0=Y0),
               self._stribeck_check),
            Op(f"centre_semistability[poly(2), eps={self.COULOMB_EPS:g}, span={ext_span:.4f}]",
               (r, "coulomb"),
               lambda: self.sk.bifurcation.centre_semistability(
                   self.coulomb, self.poly2, self.COULOMB_EPS, y0=Y0,
                   n_exterior=self.N_EXTERIOR, n_interior=self.N_INTERIOR,
                   exterior_span=ext_span, interior_span=int_span, max_iter=1500),
               self._coulomb_check),
        ]

    def _stribeck_check(self, res) -> list[str]:
        eps = self.STRIBECK_EPS
        out = _fail_if(res.n_fixed_points != 1, f"{res.n_fixed_points} fixed points, want 1")
        out += _fail_if(res.stability != "attracting", f"fixed point is {res.stability}")
        out += _fail_if(not res.hausdorff_upper <= 5 * eps, f"Hausdorff {res.hausdorff_upper:.3e} > 5 eps")
        return out

    def _coulomb_check(self, rep) -> list[str]:
        out = _fail_if(not rep.tangent_residual <= 1e-9, f"tangent residual {rep.tangent_residual:.2e}")
        out += _fail_if(not rep.exterior_monotone, "exterior iterates not monotone")
        out += _fail_if(len(rep.exterior_final_gaps) != self.N_EXTERIOR, "missing exterior starts")
        out += _fail_if(any(not g <= 1e-6 for g in rep.exterior_final_gaps),
                        f"exterior gaps {rep.exterior_final_gaps}")
        out += _fail_if(any(not e <= 1e-8 for e in rep.interior_residuals),
                        f"interior residuals {rep.interior_residuals}")
        return out


# ---------------------------------------------------------------------------


class HomoclinicScan(Workload):
    """homoclinic_scan on saddle-homoclinic (nu = 0.15) with bisection."""

    name = "homoclinic-scan"
    EPS = 5e-4
    NU = 0.15
    # probe windows in mu_tilde; the fitted |alpha+| of this family is about
    # 2.36, so the first lies below |alpha+|/2 and the second above 1.5|alpha+|
    PRESENT = (0.4, 1.0)
    ABSENT = (3.8, 4.4)

    def build(self):
        self.saddle = self.sk.models.model("saddle-homoclinic", nu=self.NU, check=True)
        self.linear = self.sk.regularization.phi_linear()

    def fields_for_probe(self):
        pts = [(-0.2, 0.25), (0.0, 1e-3), (0.5, 0.0), (1.0, 0.5)]
        return [(self.saddle.system.x_plus, pts), (self.saddle.system.x_minus, pts)]

    def _make(self, mu_raw: float):
        return self.sk.models.model("saddle-homoclinic", mu=mu_raw, nu=self.NU, check=False)

    def round(self, r):
        probes = [0.0, self.rng.uniform(*self.PRESENT), self.rng.uniform(*self.ABSENT)]
        label = "homoclinic_scan[linear, eps=5e-4, probes=" + ", ".join(f"{m:.4f}" for m in probes) + "]"
        return [Op(label, (r, "scan"),
                   lambda: self.sk.bifurcation.homoclinic_scan(
                       self._make, self.linear, self.EPS, probes, y0=Y0, bisect=True),
                   self._check)]

    def _check(self, scan) -> list[str]:
        a = abs(scan.alpha_plus)
        out = []
        for probe in scan.probes:
            if probe.mu_tilde <= 0.5 * a:
                out += _fail_if(not probe.exists, f"no orbit at mu~ = {probe.mu_tilde:.4f} <= |alpha+|/2")
            elif probe.mu_tilde >= 1.5 * a:
                out += _fail_if(probe.exists, f"orbit at mu~ = {probe.mu_tilde:.4f} >= 1.5 |alpha+|")
            else:
                out.append(f"probe mu~ = {probe.mu_tilde:.4f} inside the undecided window (alpha+ = {scan.alpha_plus:.4f})")
        if scan.mu_tilde_star is None:
            out.append("bisection found no homoclinic parameter")
        else:
            out += _fail_if(abs(scan.mu_tilde_star + scan.alpha_plus) > 0.2,
                            f"|mu~* + alpha+| = {abs(scan.mu_tilde_star + scan.alpha_plus):.3f} > 0.2")
        return out


WORKLOADS = {w.name: w for w in (FoldMapSweep, InnerSolve, ReturnMap, HomoclinicScan)}
