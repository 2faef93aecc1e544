"""Fenichel expansion terms, numerical continuation of the attracting slow
manifold through the strip, and the sandwich/isolating-block checks.

All strip integrations use the orbit equations rather than time
parametrization: as a graph v(x) while the manifold is a graph over x, and
as a graph x(v) near the fold where m0' blows up.  Stiff steppers keep the
cost independent of 1/eps along the attracting branch: ``strip_crossing``
steps at ``integrator.STIFF``, ``trace_manifold`` and ``contraction_probe``
at ``integrator.STIFF_TIGHT``.

A repeat ``strip_crossing`` of one ``RegularizedSystem`` joins the passage
recorded by an earlier one.  Orbits entering the strip contract onto the
attracting Fenichel manifold (Fenichel, J. Diff. Eq. 31, 1979; Krupa &
Szmolyan, SIAM J. Math. Anal. 33, 2001), so after a fast layer a few eps
wide all of them leave at one exit, up to exponentially small terms.  The
new orbit is shot once, with the join test as one more stop: at the first
recorded step end at least L = 20 eps beyond both entries, where it lies
within 1e-10 in v of the record, the recorded exit is returned; otherwise
the shot goes on as the plain crossing.  Records are kept per R in a
module-private store of at most 32 (least recently used evicted), each of
at most 512 step ends.  A result can therefore depend, at about 1e-12, on
which crossing of an R came first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from slidekick.errors import ConfigError, NumericalFailure
from slidekick.integrator import STIFF, STIFF_TIGHT, Stop, shoot
from slidekick.regularization import RegularizationProfile, RegularizedSystem


class HyperbolicityLost(ConfigError):
    """Normal hyperbolicity failed before the seed point."""


class StripCrossingFailed(NumericalFailure):
    """The strip transit never returned to the upper boundary."""


@dataclass(frozen=True)
class SlowManifoldExpansion:
    """Closed-form terms of the slow-manifold expansions, from solving the
    invariance equation formally for the normal-form pair.

    x-graph: m(x; eps) = m0(x) + eps*m1(x) + O(eps^2) for x <= 0.
    v-graph: n(v; eps) = n0(v) + eps*n1(v) + O(eps^2) on (-1, 1].  n0 and
    m0 are mutual inverses on the shared range.

    n0(v) = (phi(v) - 1) / (2 (phi(v) + 1)),  n1 = 1/(2 n0'), and on the
    x-graph side m0 = phi^{-1}((1+2x)/(1-2x)), m1 = -(m0')^2 / 2.
    """

    profile: RegularizationProfile

    def n0(self, v: float) -> float:
        w = self.profile.eval(v)
        return 0.5 * (w - 1.0) / (w + 1.0)

    def dn0(self, v: float) -> float:
        phi = self.profile
        return phi.deriv(v, 1) / (1.0 + phi.eval(v)) ** 2

    def n1(self, v: float) -> float:
        phi = self.profile
        return (1.0 + phi.eval(v)) ** 2 / (2.0 * phi.deriv(v, 1))

    def dn1(self, v: float) -> float:
        phi = self.profile
        w, d1, d2 = phi.eval(v), phi.deriv(v, 1), phi.deriv(v, 2)
        return (1.0 + w) * (2.0 * d1 * d1 - (1.0 + w) * d2) / (2.0 * d1 * d1)

    def m0(self, x: float) -> float:
        return self.profile.inverse((1.0 + 2.0 * x) / (1.0 - 2.0 * x))

    def dm0(self, x: float) -> float:
        return 4.0 / ((1.0 - 2.0 * x) ** 2 * self.profile.deriv(self.m0(x), 1))

    def m1(self, x: float) -> float:
        dm0 = self.dm0(x)
        return -0.5 * dm0 * dm0


def invariance_residual(profile: RegularizationProfile, eps: float, v: float) -> float:
    """Residual of (1 + 2n + phi(v)(2n-1)) n' - eps (1 + phi(v)) for the
    truncated expansion n = n0 + eps*n1 (analytic derivatives)."""
    exp = SlowManifoldExpansion(profile)
    w = profile.eval(v)
    n = exp.n0(v) + eps * exp.n1(v)
    dn = exp.dn0(v) + eps * exp.dn1(v)
    return (1.0 + 2.0 * n + w * (2.0 * n - 1.0)) * dn - eps * (1.0 + w)


@dataclass
class ManifoldTrace:
    """Samples (x, v) along the numerically continued attracting manifold."""

    x: np.ndarray
    v: np.ndarray
    exit_x: float | None = None  # abscissa where the trace reached v = to_v


def _orbit_equation(R: RegularizedSystem, *, timed: bool = False):
    """The strip orbit equation dv/dx = B2 / (eps B1), its Jacobian, and the
    same equation as a graph over v, dx/dv = eps B1 / B2.

    (B1, B2)(x, v) is the blend ``R.mix`` at y = offset + eps v with weight
    phi(v): one ``mix`` and one ``profile.eval`` per call, on plain floats
    (the state's NumPy scalar is converted once; the digits are the same).
    ``timed`` appends the transit-time quadrature dt/dx = 1/B1 as a second
    component.  The Jacobian keeps the dominant v-derivative of the blend,
    the profile term phi'(v) (X+ - X-)/2; the O(eps) field y-derivatives
    only precondition the Newton iterations of LSODA's stiff (BDF) mode and
    are dropped.
    """
    eps, off, mix, ev, deriv = R.epsilon, R.base.offset, R.mix, R.profile.eval, R.profile.deriv
    xp, xm = R.base.x_plus.func, R.base.x_minus.func

    def rhs(x, z):
        v = float(z[0])
        b1, b2 = mix(x, off + eps * v, ev(v))
        return [b2 / (eps * b1), 1.0 / b1] if timed else [b2 / (eps * b1)]

    def jac(x, z):
        v = float(z[0])
        y = off + eps * v
        b1, b2 = mix(x, y, ev(v))
        fp, fm, dw = xp(x, y), xm(x, y), deriv(v, 1)
        d1, d2 = 0.5 * dw * (fp[0] - fm[0]), 0.5 * dw * (fp[1] - fm[1])
        dv = (d2 * b1 - b2 * d1) / (eps * b1 * b1)
        return [[dv, 0.0], [-d1 / (b1 * b1), 0.0]] if timed else [[dv]]

    def over_v(v, z):
        b1, b2 = mix(float(z[0]), off + eps * v, ev(v))
        return [eps * b1 / b2]

    return rhs, jac, over_v


def trace_manifold(
    R: RegularizedSystem,
    from_x: float,
    to_v: float = 1.0,
) -> ManifoldTrace:
    """Continue the attracting Fenichel manifold from x = from_x.

    The trace is seeded with m0 + eps*m1 (the seed error dies at rate
    exp(-c (x - from_x)/eps) before the turning region), integrated as a
    graph over x up to v = to_v, and for p >= 2 switched to a graph over v
    at v = 0.8 where m0' is no longer bounded; each leg is sampled on 1200
    points (600 on the v-graph).  The extended linear system is traced past
    the strip with a ``to_v`` above 1 and an R on a p = 1 profile built as
    phi(v) = v, which does not clamp (``phi_linear`` clamps at |v| = 1).
    A ``to_v`` at or below the seed is a ``ConfigError``.
    """
    exp = SlowManifoldExpansion(R.profile)
    eps = R.epsilon

    # the normal components are checked before the seed: m0 has its pole at f2p = f2m
    f2p, f2m = R.base.normal_components(from_x)
    v_seed = exp.m0(from_x) + eps * exp.m1(from_x) if f2p < f2m else None
    if v_seed is None or R.profile.deriv(v_seed, 1) <= 0.0:
        raise HyperbolicityLost(f"seed at x={from_x} is not normally attracting")
    if not to_v > v_seed:  # the upward stop would never fire
        raise ConfigError(f"to_v={to_v} must lie above the seed v={v_seed} at x={from_x}")

    rhs, jac, over_v = _orbit_equation(R)

    xs_all: list[np.ndarray] = []
    vs_all: list[np.ndarray] = []

    stops = [Stop(0, to_v, 1)]
    if to_v > 0.8 and R.profile.p >= 2:
        stops.append(Stop(0, 0.8, 1))

    shot = shoot(rhs, (from_x, from_x + 50.0), [v_seed], stops, jac=jac, dense=True, **STIFF_TIGHT)
    grid = np.linspace(shot.ts[0], shot.t, 1200)
    xs_all.append(grid)
    vs_all.append(shot.dense(grid)[0])

    exit_x: float | None = None
    if shot.stop == 0:
        exit_x = shot.t
    elif shot.stop == 1:
        # switch to the v-graph for the fold passage
        leg = shoot(over_v, (float(shot.z[0]), to_v), [shot.t], dense=True, **STIFF_TIGHT)
        grid2 = np.linspace(leg.ts[0], leg.t, 600)
        vs_all.append(grid2)
        xs_all.append(leg.dense(grid2)[0])
        exit_x = float(leg.z[0])

    return ManifoldTrace(
        x=np.concatenate(xs_all),
        v=np.concatenate(vs_all),
        exit_x=exit_x,
    )


@dataclass
class SandwichReport:
    count: int
    fraction_ok: float
    min_margin_lower: float
    min_margin_upper: float


def sandwich_margins(
    R: RegularizedSystem,
    trace: ManifoldTrace,
    which: str,
    *,
    K: float = 10.0,
    M: float = 50.0,
    delta: float = 0.2,
    lambda1: float = 0.2,
    lam: float = 0.45,
    x_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point margins of one of the isolating-block inequalities.

    ``linear_conf``:   m0 - eps*K <= v(x) <= m0          on x in x_range
    ``outer_block_p``: n0 <= x(v) <= n0 + M*eps/(1-v)^{p-1}
                       on 1-delta <= v <= 1-eps^lambda1
    ``graph_over_x_p``: m0 - eps*K/|x|^{(2p-2)/p} <= v(x) <= m0
                       on x <= -eps^lam

    Returns (mask, lower, upper), one entry per trace point: the mask of
    the points in the inequality's range and the lower and upper margins,
    which are NaN outside it.  The inequality holds where both are >= 0.
    """
    eps = R.epsilon
    exp = SlowManifoldExpansion(R.profile)
    p = R.profile.p

    if which == "linear_conf":
        lo_x, hi_x = x_range if x_range is not None else (float(trace.x.min()), 0.25)
        mask = (trace.x >= lo_x) & (trace.x <= hi_x)
        xs, vs = trace.x[mask], trace.v[mask]
        m0 = np.array([(1.0 + 2.0 * x) / (1.0 - 2.0 * x) for x in xs])
        lower = vs - (m0 - eps * K)
        upper = m0 - vs
    elif which == "outer_block_p":
        v_lo, v_hi = 1.0 - delta, 1.0 - eps**lambda1
        mask = (trace.v >= v_lo) & (trace.v <= v_hi)
        xs, vs = trace.x[mask], trace.v[mask]
        n0 = np.array([exp.n0(v) for v in vs])
        lower = xs - n0
        upper = n0 + M * eps / np.abs(1.0 - vs) ** (p - 1) - xs
    elif which == "graph_over_x_p":
        hi_x = -(eps**lam)
        lo_x = x_range[0] if x_range is not None else float(trace.x.min())
        mask = (trace.x >= lo_x) & (trace.x <= hi_x)
        xs, vs = trace.x[mask], trace.v[mask]
        m0 = np.array([exp.m0(x) for x in xs])
        lower = vs - (m0 - eps * K / np.abs(xs) ** ((2.0 * p - 2.0) / p))
        upper = m0 - vs
    else:
        raise ConfigError(f"unknown sandwich kind {which!r}")

    margins = np.full((2, len(trace.x)), np.nan)
    margins[:, mask] = lower, upper
    return mask, margins[0], margins[1]


def verify_sandwich(R: RegularizedSystem, trace: ManifoldTrace, which: str, **bounds) -> SandwichReport:
    """Check one of the isolating-block inequalities of
    :func:`sandwich_margins` (``bounds`` are its keywords) along a trace.

    The smallest margins are reported; the fraction of points satisfying the
    inequality must be 1.0.  An empty range is a vacuous pass.
    """
    mask, lower, upper = sandwich_margins(R, trace, which, **bounds)
    lower, upper = lower[mask], upper[mask]
    count = int(mask.sum())
    if count == 0:
        return SandwichReport(0, 1.0, np.inf, np.inf)
    ok = (lower >= 0.0) & (upper >= 0.0)
    return SandwichReport(
        count=count,
        fraction_ok=float(np.mean(ok)),
        min_margin_lower=float(lower.min()),
        min_margin_upper=float(upper.min()),
    )


@dataclass
class ContractionReport:
    exit_points: list[float]
    # separations[(i, j)][k] = |v_i - v_j| at milestone k (NaN where undefined)
    separations: dict[tuple[int, int], np.ndarray]


def contraction_probe(
    R: RegularizedSystem,
    x0_list: list[float],
    milestones: np.ndarray | None = None,
) -> ContractionReport:
    """Drop orbits from (x0, v=1) and measure pairwise separations.

    Orbits are integrated as graphs v(x) through the strip until they return
    to v = 1, at most up to x = 0.5; separations |v_i(x) - v_j(x)| are reported at the requested x
    milestones, and the strip-exit abscissae are collected (their spread is
    the landing-independence diagnostic).
    """
    rhs, jac, _over_v = _orbit_equation(R)
    shots = []
    for x0 in x0_list:
        shot = shoot(rhs, (x0, 0.5), [1.0], [Stop(0, 1.0, 1)], jac=jac, dense=True, **STIFF_TIGHT)
        if shot.stop is None:
            raise StripCrossingFailed(f"orbit from x0={x0} did not return to v=1")
        shots.append(shot)
    exits = [shot.t for shot in shots]

    if milestones is None:
        milestones = np.linspace(max(x0_list), 0.0, 5)
    milestones = np.asarray(milestones, dtype=float)

    seps: dict[tuple[int, int], np.ndarray] = {}
    for i in range(len(x0_list)):
        for j in range(i + 1, len(x0_list)):
            vals = np.full(len(milestones), np.nan)
            for k, xm in enumerate(milestones):
                si, sj = shots[i], shots[j]
                if si.ts[0] <= xm <= si.t and sj.ts[0] <= xm <= sj.t:
                    vals[k] = abs(float(si.dense(xm)[0]) - float(sj.dense(xm)[0]))
            seps[(i, j)] = vals

    return ContractionReport(exit_points=exits, separations=seps)


@dataclass(frozen=True)
class _Passage:
    """One recorded strip crossing: its entry, its step ends and its exit."""

    entry: float
    knots: np.ndarray  # rows x_k, v_k, t_k at the accepted step ends
    exit: float
    time: float


_JOIN_L = 20.0  # the join knot lies at least this many eps beyond the entries
_JOIN_TOL = 1e-10  # largest |v(x_k) - v_k| that joins the recorded passage
_STORE_SIZE = 32  # recorded passages, least recently used evicted first
_STORE_KNOTS = 512  # knots kept per passage; longer ones keep every k-th
_passages: OrderedDict[RegularizedSystem, _Passage] = OrderedDict()


def strip_crossing(
    R: RegularizedSystem,
    x_enter: float,
    *,
    x_limit: float,
) -> tuple[float, float]:
    """Cross the strip from (x_enter, v=1) back to v=1: the middle map.

    Returns (x_exit, transit_time).  Time is recovered
    by the quadrature dt/dx = 1/B1 alongside the orbit equation.  Raises
    ``StripCrossingFailed`` if the orbit leaves through the bottom or never
    returns (which cannot happen for entries left of the tangency while the
    lower field pushes up).

    A repeat crossing of the same ``R`` joins the passage recorded for it
    (landing independence as an algorithm).  Every orbit that enters the
    strip contracts onto the attracting slow manifold at the rate
    exp(-int lambda / eps), so after its fast layer it follows the recorded
    orbit to the recorded exit up to exponentially small terms.  The new
    orbit is shot once, at the same settings, from the entry to ``x_limit``
    with one stop more: the join test at the first recorded step end x_k at
    least L = 20 eps beyond both entries.  Its root x = x_k is accepted
    where |v(x_k) - v_k| <= 1e-10, and the recorded exit is returned with
    transit time t(x_k) + T_rec - t_k (v and t read off the step's
    interpolant).  A stop that fires first is handled as in a full
    crossing.  A missed join is passed over, so the shot goes on as the
    plain crossing, to the bit, with no step spent twice; so it does where
    no such x_k lies left of ``x_limit``.  The crossing whose entry lies
    farthest left is kept as the record.  The store holds at most 32
    passages (least recently used evicted) of at most 512 step ends each (a
    longer crossing keeps every k-th), under 0.5 MB; no dense output is
    kept.
    """
    rhs, jac, _over_v = _orbit_equation(R, timed=True)
    stops = [Stop(0, 1.0, 1), Stop(0, -1.0, -1)]
    rec = _passages.get(R)
    if rec is not None:
        _passages.move_to_end(R)
        xs, vs, ts = rec.knots
        k = int(np.searchsorted(xs, max(x_enter, rec.entry) + _JOIN_L * R.epsilon))
        if k < len(xs) and xs[k] <= x_limit:
            # the join test: a root whose v misses v_k is passed over, and the
            # shot goes on as the plain crossing
            x_k, v_k = float(xs[k]), vs[k]
            stops.append(Stop(g=lambda x, z: x - x_k, direction=1, accept=lambda z: abs(z[0] - v_k) <= _JOIN_TOL))

    shot = shoot(rhs, (x_enter, x_limit), [1.0, 0.0], stops, jac=jac, **STIFF)
    if shot.stop == 1:
        raise StripCrossingFailed(f"orbit from x={x_enter} fell through the strip")
    if shot.stop is None or (shot.stop == 2 and rec.exit > x_limit):
        raise StripCrossingFailed(f"orbit from x={x_enter} did not return to v=1 by x={x_limit}")
    if shot.stop == 2:
        return rec.exit, float(shot.z[1] + (rec.time - ts[k]))
    if rec is None or x_enter < rec.entry:
        stride = -(-len(shot.ts) // _STORE_KNOTS)
        knots = np.vstack([shot.ts[::stride], shot.zs[:, ::stride]])
        _passages[R] = _Passage(x_enter, knots, shot.t, float(shot.z[1]))
        if len(_passages) > _STORE_SIZE:
            _passages.popitem(last=False)
    return shot.t, float(shot.z[1])
