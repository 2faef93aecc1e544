"""Return-map fixed points and the sliding bifurcation scans.

The return map R = P^e o P_eps is a strong contraction on the flattened
interval (its Lipschitz constant scales like a positive power of eps), so
the Stribeck fixed point is found by direct iteration and certified unique
on sampled slopes; the grazing family's fixed points are the level crossings
of one mu-free function, and its saddle-node is that function's minimum.
Scans over the family parameter reproduce the grazing-sliding dichotomy, the
centre/semistable case and the homoclinic loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from slidekick.errors import ConfigError, NumericalFailure
from slidekick.fields import PlanarField, filippov_flow, sign_changes
from slidekick.integrator import EXTERIOR, NoArrival, PoincareResult, Section, Stop, _brentq, shoot
from slidekick.models import ModelDescriptor, saddle_eigen
from slidekick.poincare import (
    exterior_map,
    fit_tangency_constants,
    map_P_epsilon,
    normal_form_constants,
)
from slidekick.regularization import RegularizationProfile, RegularizedSystem
from slidekick.slow_manifold import strip_crossing


class IterationDiverged(NumericalFailure):
    pass


class SaddleNotResolved(NumericalFailure):
    pass


@dataclass
class FixedPoint:
    x: float
    stability: str  # attracting | repelling | neutral


def _stability(R: Callable[[float], float], x: float, dx: float = 1e-6) -> str:
    slope = (R(x + dx) - R(x - dx)) / (2.0 * dx)
    if abs(abs(slope) - 1.0) <= 1e-3:
        return "neutral"
    return "attracting" if abs(slope) < 1.0 else "repelling"


def iterate_to_fixed_point(R: Callable[[float], float], x0: float) -> float:
    """Direct iteration to a step of 1e-10 within 200 maps; raises
    IterationDiverged if increments grow."""
    x = x0
    prev_step = math.inf
    for _ in range(200):
        try:
            x_new = R(x)
        except NoArrival as exc:
            raise IterationDiverged(f"orbit left the map domain at x={x}") from exc
        step = abs(x_new - x)
        if step <= 1e-10:
            return x_new
        if step > 1.5 * prev_step and step > 1e-9:
            raise IterationDiverged(f"increments grew at x={x_new}")
        prev_step = step
        x = x_new
    raise IterationDiverged(f"no convergence after 200 iterations (step={step:g})")


# ---------------------------------------------------------------------------
# grazing-sliding (synthetic germ family over the normal-fold inner dynamics)


@dataclass
class BranchPoint:
    mu: float
    fixed_points: list[FixedPoint]
    gamma: float
    delta: float


@dataclass
class BranchDiagram:
    points: list[BranchPoint]
    collision_mu: float | None = None  # the saddle-node: the interior minimum of H

    def present(self) -> np.ndarray:
        return np.array([len(p.fixed_points) > 0 for p in self.points])


def grazing_sliding_scan(
    desc: ModelDescriptor,
    profile: RegularizationProfile,
    eps: float,
    mu_grid,
) -> BranchDiagram:
    """Fixed-point branches over a mu grid for the grazing family.

    The germ is affine in mu, pe_mu(z) = pe_0(z) + s mu with s the germ's
    gamma sign, and the eps-regularized cross map G does not depend on mu.
    So R_mu(x) - x = s (mu - H(x)) with the mu-free H(x) = s (x - pe_0(G(x))),
    and the fixed points of every member are the level crossings H = mu.
    H is tabulated once on 17 points across the flat/pure transition around
    the tangent orbit xbar (the orbit grazing the strip boundary), widened
    by one point on each outer branch that holds a root of some member (H is
    affine there, with slope s on the flattened side and s (1 + c) on the
    pure side); each crossing is rooted with ``_brentq`` to 1e-13.  Every
    reported point satisfies |R(x*) - x*| <= 1e-8 under the full numerical
    map.

    The attracting germ keeps a branch through mu = 0 (handing over from the
    flattened fixed point to the untouched X+ orbit).  For the repelling
    germ H has an interior minimum, where the attracting and repelling
    roots meet: it is located with Brent's method and ``collision_mu`` is
    H there, whatever the mu grid; members below it have no fixed point.
    """
    facts = desc.facts
    y0, c, s = facts["y0"], facts["c"], facts["gamma_sign"]
    pe0 = facts["exterior_factory"](0.0)
    R_eps = RegularizedSystem(desc.system, profile, eps)
    R_eps.check_section(y0)  # the tangent orbit xbar grazes the strip top from above y0

    @cache  # shared by every member: G does not depend on mu
    def G(x: float) -> float:
        return map_P_epsilon(R_eps, y0, x, fold=facts["fold_x"]).x

    def H(x: float) -> float:
        return s * (x - pe0(G(x)))

    mus = [float(mu) for mu in mu_grid]
    xbar = -math.sqrt(y0 - eps)    # orbit through (xbar, y0) grazes y = eps
    xs = np.linspace(xbar - 8e-3, xbar + 1e-3, 17).tolist()
    lo = min((xs[0] + (mu - H(xs[0])) / s for mu in mus), default=xs[0]) - 1e-3
    hi = max((xs[-1] + (mu - H(xs[-1])) / (s * (1.0 + c)) for mu in mus), default=xs[-1]) + 1e-3
    xs = [lo] * (lo < xs[0]) + xs + [hi] * (hi > xs[-1])
    collision_mu = None
    k = int(np.argmin([H(x) for x in xs]))
    if 0 < k < len(xs) - 1:
        sn = minimize_scalar(H, bracket=(xs[k - 1], xs[k], xs[k + 1]), method="brent")
        xs, collision_mu = sorted({*xs, sn.x}), float(sn.fun)

    plus, minus = normal_form_constants(y0)
    pts: list[BranchPoint] = []
    for mu in mus:
        pe = facts["exterior_factory"](mu)
        R = lambda x: pe(G(x))
        level = lambda x: H(x) - mu
        found: list[FixedPoint] = []
        for a, b in sign_changes(level, xs):
            x = a if a == b else _brentq(level, a, b, xtol=1e-13)
            if abs(R(x) - x) <= 1e-8 and all(abs(f.x - x) >= 1e-9 for f in found):
                found.append(FixedPoint(x=x, stability=_stability(R, x, dx=1e-7)))
        pts.append(BranchPoint(mu=mu, fixed_points=found, gamma=pe(plus.x0) - minus.x0,
                               delta=facts["delta"]))
    return BranchDiagram(points=pts, collision_mu=collision_mu)


# ---------------------------------------------------------------------------
# centre / semistable case (Coulomb)


@dataclass
class SemistabilityReport:
    x_tangent: float
    tangent_residual: float
    exterior_monotone: bool
    exterior_final_gaps: list[float]
    interior_residuals: list[float]


def centre_semistability(
    desc: ModelDescriptor,
    profile: RegularizationProfile,
    eps: float,
    *,
    y0: float = 0.25,
    n_exterior: int = 5,
    n_interior: int = 5,
    exterior_span: float = 0.2,
    interior_span: float = 0.2,
    max_iter: int = 1500,
) -> SemistabilityReport:
    """Verify the three signatures of the semistable tangent orbit.

    (a) the X+ orbit tangent to the strip boundary is fixed under the return
    map, (b) exterior starts produce strictly increasing iterates converging
    to it, until they are within 1e-6, (c) interior starts come back to
    themselves (the centre's identity return map restricted outside the
    strip).
    """
    facts = desc.facts
    R_eps = RegularizedSystem(desc.system, profile, eps)
    R_eps.check_section(y0)  # the tangent orbit grazes the strip top from above y0
    fold_x = facts["fold_x"]
    x_bar = facts["tangent_orbit_x"](eps, y0)
    pe = facts["exterior_exact"]
    p_down = lambda x: facts["P_exact"](x, eps, y0)
    p_up = lambda x: facts["Pbar_exact"](x, eps, y0)

    @cache  # after one return the exterior starts replay the same orbit
    def return_map(x: float) -> float:
        if x >= x_bar:
            # the orbit clears the strip: exact circle return (identity)
            return x
        x_in = p_down(x)
        x_exit, _t = strip_crossing(R_eps, x_in, x_limit=fold_x + 0.45)
        return pe(p_up(x_exit))

    # (a) tangent orbit fixed: follow the actual flow, not the closed form
    res_tan = abs(_full_loop_return(desc, x_bar, y0) - x_bar)

    # (b) exterior iterates
    monotone = True
    gaps: list[float] = []
    for k in range(1, n_exterior + 1):
        x = x_bar - exterior_span * k / n_exterior
        count = 0
        while count < max_iter:
            x_new = return_map(x)
            if x_new <= x:
                if x_new < x - 1e-12:
                    monotone = False
                break
            x = x_new
            count += 1
            if x_bar - x <= 1e-6:
                break
        gaps.append(x_bar - x)

    # (c) interior returns
    interior: list[float] = []
    for k in range(1, n_interior + 1):
        x = x_bar + interior_span * k / n_interior
        interior.append(abs(_full_loop_return(desc, x, y0) - x))

    return SemistabilityReport(
        x_tangent=x_bar,
        tangent_residual=res_tan,
        exterior_monotone=monotone,
        exterior_final_gaps=gaps,
        interior_residuals=interior,
    )


def _full_loop_return(desc: ModelDescriptor, x: float, y0: float) -> float:
    """One full revolution of the X+ centre orbit through (x, y0), numerically.

    The section {y = y0} is crossed twice per revolution (once on the far
    side of the centre), so two section-to-section hops close the loop.
    """
    far = exterior_map(desc.system.x_plus, (x, y0), Section(y0)).x
    return exterior_map(desc.system.x_plus, (far, y0), Section(y0)).x


# ---------------------------------------------------------------------------
# sliding homoclinic to a saddle


@dataclass
class HomoclinicProbe:
    mu_tilde: float
    mu: float
    exists: bool
    fixed_point: float | None


@dataclass
class HomoclinicScan:
    probes: list[HomoclinicProbe]
    mu_tilde_star: float | None
    alpha_plus: float


def _stable_separatrix(desc: ModelDescriptor) -> Callable[[float], float]:
    """Landing of W^s(saddle) on {y = level}: the first crossing of one dense
    backward shot (at ``EXTERIOR``, ``exterior_map``'s setting) down the
    saddle's loop-side branch to its lowest point or the switching line.
    Raises ``NoArrival``, naming the level, if the branch never comes down
    to it."""
    w, V = saddle_eigen(desc)
    if not (w[0] > 0.0 > w[1]):
        raise SaddleNotResolved(f"eigenvalues {w} are not a saddle pair")
    (sx, sy), v = desc.facts["saddle"], (-V[:, 1] if V[0, 1] > 0 else V[:, 1])
    fld = desc.system.x_plus.negated()
    shot = shoot(fld.rhs, (0.0, 200.0), (sx + 1e-8 * v[0], sy + 1e-8 * v[1]),
                 [Stop(1, desc.system.offset, -1), Stop(g=lambda t, z: fld(z[0], z[1])[1], direction=1)],
                 dense=True, **EXTERIOR)

    def landing(level: float) -> float:
        k = int(np.argmax(shot.zs[1] <= level))  # the first step end at or below the level
        if k == 0:
            raise NoArrival(f"W^s of the saddle never comes down to y = {level}")
        t = _brentq(lambda t: shot.dense(t)[1] - level, shot.ts[k - 1], shot.ts[k], xtol=1e-14)
        return float(shot.dense(t)[0])

    return landing


def homoclinic_family(make_model: Callable[[float], ModelDescriptor], *,
                      y0: float = 0.25) -> tuple[float, Callable[..., HomoclinicScan]]:
    """The eps-free half of the sliding-homoclinic family, built once.

    ``make_model(mu_raw)`` builds the member with raw vertical shift mu_raw;
    the bifurcation parameter is the section displacement mu = x0+ - x0^s.
    Member 0 must declare ``shifts_with_mu`` (member mu_raw is member 0 moved
    up by mu_raw), else ``ConfigError`` before any shot: one shot from its
    saddle lands W^s of every member, on y0 - mu_raw.  That shot, mu's
    linearization and the grazing member (mu = 0) are made here, with the
    two constants the scan reads from that member: alpha+ from its X+ germ
    (9 shots), and x0-, one backward landing of its fold point (each
    member's P_eps starts 0.05 left of it).  Returns ``(alpha_plus, scan)``;
    ``scan(profile, eps, mu_tilde_probes, *, bisect=True)`` probes
    mu = mu_tilde * eps and roots the homoclinic value mu_tilde^* (where the
    exterior map loses the landing interval) on the landing's gap to W^s:
    ``integrator._brentq`` (xtol 2e-12, brentq's default) in mu_raw on the
    member's P_eps landing on y0 minus its W^s landing there, between the
    members at mu_tilde = 0 and 2|alpha+| once the orbit exists at the first
    and not at the second; mu_tilde^* is mu at the root, over eps.
    """
    base = make_model(0.0)
    if not base.facts.get("shifts_with_mu"):
        raise ConfigError(f"{base.id}: the homoclinic scan needs member 0's fact shifts_with_mu")
    stable_landing = _stable_separatrix(base)

    def mu_paper(mu_raw: float) -> float:
        desc = make_model(mu_raw) if mu_raw else base
        x0p = exterior_map(desc.system.x_plus, (desc.fold().x, desc.system.offset), Section(y0)).x
        return x0p - stable_landing(y0 - mu_raw)

    # linearize mu_paper(mu_raw) once; each inversion is a secant iteration
    # whose first step is this linearization
    m0 = mu_paper(0.0)
    dm = (mu_paper(1e-4) - m0) / 1e-4
    if dm == 0.0:
        raise SaddleNotResolved("mu does not move with mu_raw: the secant for mu_raw has no slope")

    def raw_for(mu_target: float) -> float:
        r_prev, f_prev = 0.0, m0 - mu_target
        r = -f_prev / dm
        for _ in range(20):
            f = mu_paper(r) - mu_target
            if f == 0.0:
                return r
            if f == f_prev:
                raise SaddleNotResolved(f"secant for mu_raw stalled at mu={mu_target}, mu_raw={r}")
            step = f * (r - r_prev) / (f - f_prev)
            r_prev, f_prev, r = r, f, r - step
            if abs(step) <= 1e-12:
                return r
        raise SaddleNotResolved(f"secant for mu_raw did not converge at mu={mu_target}")

    # the germ of X+ and the minus pseudo-separatrix belong to the grazing
    # member of the family (where the stable manifold is tangent to the
    # switching line); with dissipation that member sits at a nonzero raw shift
    raw0 = raw_for(0.0)
    anchor = make_model(raw0)
    fold_x = anchor.fold().x
    alpha_plus = fit_tangency_constants(anchor.system.x_plus, fold_x, y0).alpha
    x0_minus = exterior_map(anchor.system.x_plus.negated(), (fold_x, 0.0), Section(y0)).x

    def scan(profile, eps: float, mu_tilde_probes, *, bisect: bool = True) -> HomoclinicScan:
        @cache  # each member's landing serves both its existence check and its gap
        def member(mu_raw: float):
            desc = make_model(mu_raw)
            f = desc.fold().x
            R_eps = RegularizedSystem(desc.system, profile, eps)
            return desc, f, R_eps, map_P_epsilon(R_eps, y0, x0_minus - 0.05, fold=f).x

        def gap(mu_raw: float) -> float:
            return member(mu_raw)[3] - stable_landing(y0 - mu_raw)

        @cache  # a probe at mu_tilde = 0 and the bracket's lower end share raw0
        def orbit_exists(mu_raw: float) -> tuple[bool, float | None]:
            desc, f, R_eps, landing = member(mu_raw)
            sec_m = Section(y0, "x<0", id="outer-")

            def back(x: float) -> float | None:
                try:
                    return exterior_map(desc.system.x_plus, (x, y0), sec_m, floor_margin=eps / 2, t_max=400.0).x
                except NoArrival:
                    return None

            x1 = back(landing)
            # one more composition confirms the contraction fixed point
            x2 = None if x1 is None else back(map_P_epsilon(R_eps, y0, x1, fold=f).x)
            return x2 is not None, x2

        probes: list[HomoclinicProbe] = []
        for mt in mu_tilde_probes:
            ok, fp = orbit_exists(raw_for(mt * eps) if mt else raw0)
            probes.append(HomoclinicProbe(mu_tilde=float(mt), mu=mt * eps, exists=ok, fixed_point=fp))

        mt_star = None
        if bisect:
            # the orbit dies at mu_tilde = -alpha+ + O(eps^{1/(2p-1)}) for poly(p),
            # O(eps) for the linear profile; the bracket's upper end lies twice as far out
            mt_hi = 2.0 * abs(alpha_plus)
            lo, hi = raw0, raw_for(mt_hi * eps)
            if orbit_exists(lo)[0] and not orbit_exists(hi)[0]:
                g_lo, g_hi = gap(lo), gap(hi)
                if g_lo * g_hi > 0.0:
                    raise SaddleNotResolved(f"the landing's gap to W^s has one sign on the existence "
                                            f"bracket: {g_lo:g} at mu_raw={lo}, {g_hi:g} at mu_raw={hi}")
                mt_star = mu_paper(_brentq(gap, lo, hi, xtol=2e-12)) / eps
        return HomoclinicScan(probes=probes, mu_tilde_star=mt_star, alpha_plus=alpha_plus)

    return alpha_plus, scan


def homoclinic_scan(
    make_model: Callable[[float], ModelDescriptor],
    profile: RegularizationProfile,
    eps: float,
    mu_tilde_probes,
    *,
    y0: float = 0.25,
    bisect: bool = True,
) -> HomoclinicScan:
    """One scan of a fresh ``homoclinic_family``; scans at several eps should share one."""
    return homoclinic_family(make_model, y0=y0)[1](profile, eps, mu_tilde_probes, bisect=bisect)


# ---------------------------------------------------------------------------
# Stribeck attractor (sliding periodic orbit of the dry-friction oscillator)


@dataclass
class StribeckResult:
    fixed_point: float
    stability: str
    n_fixed_points: int
    hausdorff_upper: float
    gamma: float


def _directed_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Largest distance from points of P to the polyline Q (point-to-segment).

    Exact: the result equals, to the bit, the max over P of the min over
    every segment of Q of the per-pair formula below. The search is pruned,
    not the formula. For the index only, each segment is cut into pieces no
    longer than twice the median segment, or than a third of the mean one if
    that is longer (so there are at most four pieces per segment on
    average), and a k-d tree (scipy's cKDTree) holds the piece midpoints. A point is
    measured against the segments of its k = 8 nearest midpoints. A segment
    none of whose pieces is among them lies at least r_k - h away, where r_k
    is the k-th midpoint distance and h the largest piece half-length; when
    that bound exceeds the best candidate by more than any rounding, the
    candidate is the minimum. A point without that proof is queried again
    with 4k midpoints, up to every piece. On the Stribeck arcs nearly every
    point is settled by its first query, so a call costs about
    (|P| + |Q|) log |Q| tree work and 8 |P| pairs instead of |P| |Q|.
    Points go in chunks of 4096 / k, so a temporary holds at most 4096
    pairs (k pairs once k passes 4096) and on the first query all of them
    together stay under 1 MB.
    """
    if len(P) == 0:
        return 0.0
    if len(Q) < 2:
        return math.inf
    a = Q[:-1]
    d = Q[1:] - a
    L2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    length = np.sqrt(L2)
    L2[L2 == 0.0] = 1.0
    cap = max(2.0 * float(np.median(length)), length.sum() / (3 * len(a))) or 1.0
    pieces = np.maximum(np.ceil(length / cap), 1.0).astype(np.intp)
    seg = np.repeat(np.arange(len(a)), pieces)
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    frac = (np.arange(len(seg)) - first + 0.5) / pieces[seg]
    tree = cKDTree(a[seg] + frac[:, None] * d[seg])
    h = 0.5 * float((length / pieces).max())
    slack = 1e-9 * (1.0 + max(np.abs(P).max(), np.abs(Q).max()))  # far above any rounding
    ax, ay, dx, dy = a[:, 0].copy(), a[:, 1].copy(), d[:, 0].copy(), d[:, 1].copy()

    def dist(px, py, s):
        # the per-pair formula, points (m, 1) against segments s (m, k)
        t = np.clip(((px - ax[s]) * dx[s] + (py - ay[s]) * dy[s]) / L2[s], 0.0, 1.0)
        ex = px - (ax[s] + t * dx[s])
        ey = py - (ay[s] + t * dy[s])
        return np.sqrt(ex * ex + ey * ey)

    nearest = np.empty(len(P))
    todo, k = np.arange(len(P)), 8
    while todo.size:
        k = min(k, len(seg))
        step = max(1, 4096 // k)
        left = []
        for lo in range(0, len(todo), step):
            idx = todo[lo:lo + step]
            r, j = tree.query(P[idx], k)
            r, j = r.reshape(len(idx), k), j.reshape(len(idx), k)
            best = dist(P[idx, 0, None], P[idx, 1, None], seg[j]).min(axis=1)
            done = (r[:, -1] - h > best + slack) | (k == len(seg))
            nearest[idx[done]] = best[done]
            left.append(idx[~done])
        todo, k = np.concatenate(left), 4 * k
    return float(nearest.max())


def _n_fixed_points(R: Callable[[float], float], lo: float, hi: float) -> int:
    """1 if R maps 5 samples of I = [lo, hi] into I with every difference
    quotient below 1 in modulus (Banach's theorem, on sampled slopes), else
    the number of sign changes of R(x) - x on 48 points of I."""
    xs = np.linspace(lo, hi, 5)
    rs = np.array([R(x) for x in xs])
    if np.all((lo <= rs) & (rs <= hi)) and np.all(np.abs(np.diff(rs) / np.diff(xs)) < 1.0):
        return 1
    return len(sign_changes(lambda x: R(x) - x, np.linspace(lo, hi, 48)))


def stribeck_family(desc: ModelDescriptor, *, y0: float = 0.25) -> Callable[..., StribeckResult]:
    """The eps-free half of the Stribeck attractor, built once: the fold,
    its two shots to {y = y0} (forward along X+ to x0+, backward to x0-)
    and the Filippov sliding cycle.  Returns ``attractor(profile, eps)``,
    which locates the attracting periodic orbit of the regularized model and
    measures how far its upper arc sits from the sliding cycle.

    The fixed point x* is shown unique by ``_n_fixed_points`` on sampled slopes:
    evidence, not a proof, as the 48-point count it falls back to was.

    The fold map is memoized for the length of one ``attractor`` call, so
    the orbit at x* reuses the certificate's middle sample: a call makes 9
    fold maps (2 iterations, 5 samples, 2 for the stability slope), each
    followed by one exterior return, and one exterior return of x0+ (the
    first return of the unstable pseudo-separatrix)."""
    fold = desc.fold()
    fold_pt = (fold.x, desc.system.offset)
    x0p = exterior_map(desc.system.x_plus, fold_pt, Section(y0)).x
    x0m = exterior_map(desc.system.x_plus.negated(), fold_pt, Section(y0)).x

    # Filippov sliding cycle: upper arc from the fold exit until sliding,
    # closed by the sliding segment on the switching line
    traj0 = filippov_flow(desc.system, (fold.x, 0.0), "sliding", t_max=200.0, max_step=0.02)
    x_land = traj0.end[1]
    slide = np.column_stack([np.linspace(x_land, fold.x, 200), np.zeros(200)])
    cycle0 = np.vstack([np.column_stack([traj0.x, traj0.y]), slide])
    half = Section(y0, "x<0", id="half-1", edge=fold.x)

    def attractor(profile: RegularizationProfile, eps: float) -> StribeckResult:
        R_eps = RegularizedSystem(desc.system, profile, eps)

        def pe(z: float) -> float:
            return exterior_map(desc.system.x_plus, (z, y0), half, floor_margin=eps / 2, t_max=200.0).x

        @cache  # the certificate's middle sample is x*, whose orbit is traced below
        def P_eps(x: float) -> PoincareResult:
            return map_P_epsilon(R_eps, y0, x, fold=fold.x)

        def R(x: float) -> float:
            return pe(P_eps(x).x)

        x1 = pe(x0p)  # the first return of the unstable pseudo-separatrix
        x_star = iterate_to_fixed_point(R, x1)
        n_fixed = _n_fixed_points(R, x_star - 0.25, min(x_star + 0.25, fold.x - 1e-3))

        # upper arc of the regularized orbit: X+ from the strip exit around to
        # the next strip entry (Z_eps = X+ above the strip)
        arc_eps = _upper_arc(desc.system.x_plus, P_eps(x_star).flags["x_exit"], eps, t_max=200.0)

        # the eps-closeness of the regularized orbit holds against the whole
        # sliding cycle; cutting both curves at y = eps would instead compare
        # the O(eps^{p/(2p-1)}) strip exit against the cycle's O(sqrt(eps))
        # boundary crossing (the stated non-uniformity of the limit)
        mask0 = traj0.y > eps
        arc0 = np.column_stack([traj0.x[mask0], traj0.y[mask0]])
        dist = max(_directed_hausdorff(arc_eps, cycle0), _directed_hausdorff(arc0, arc_eps))
        return StribeckResult(
            fixed_point=x_star,
            stability=_stability(R, x_star, dx=1e-5),
            n_fixed_points=n_fixed,
            hausdorff_upper=dist,
            gamma=x1 - x0m,
        )

    return attractor


def stribeck_attractor(
    desc: ModelDescriptor,
    profile: RegularizationProfile,
    eps: float,
    *,
    y0: float = 0.25,
) -> StribeckResult:
    """One attractor of a fresh ``stribeck_family``; attractors at several eps should share one."""
    return stribeck_family(desc, y0=y0)(profile, eps)


def _upper_arc(field: PlanarField, x_exit: float, eps: float, *, t_max: float) -> np.ndarray:
    shot = shoot(field.rhs, (1e-9, t_max), [x_exit, eps], [Stop(1, eps, -1)], dense=True, **EXTERIOR)
    if shot.stop is None:
        raise NoArrival(f"upper arc: never returned to y = {eps}; last state t={shot.t}, x={shot.z[0]}, y={shot.z[1]}")
    pts = shot.dense(np.linspace(shot.ts[0], shot.t, 6000))
    return np.column_stack([pts[0], pts[1]])
