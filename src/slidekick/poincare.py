"""The fold Poincare map of the regularized system and its asymptotics.

P_eps is assembled from three stages: P carries a point of the outer
section {y = y0, x < fold} down to the strip boundary under X+ alone, the
middle map crosses the strip along the attracting manifold, and Pbar lifts
the exit back to {y = y0, x > fold}.  The tangency constants x0, alpha,
beta of Prop-type quadratic germs are centered differences of landings, and
the exit abscissa / landing deviation are fitted against powers of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from slidekick.errors import ConfigError, NumericalFailure
from slidekick.fields import FilippovSystem, PlanarField
from slidekick.integrator import EXTERIOR, TOUCH, EventNotBracketed, NoArrival, PoincareResult, Section, Stop, shoot
from slidekick.regularization import RegularizedSystem
from slidekick.slow_manifold import strip_crossing


class TangentialCrossing(NumericalFailure):
    """A pseudo-separatrix meets the outer section tangentially."""


class FitRejected(NumericalFailure):
    """An exponent fit fell below the r^2 acceptance bar, or a value had no logarithm."""


_H = 1e-3  # the germ stencil's step; at 1e-2 its alpha is up to 1e-5 off on saddle-homoclinic


@dataclass(frozen=True)
class TangencyConstants:
    """Quadratic germ of one field's landing map near the fold.

    Landings on {y = y0} from a point (x, y) near the fold obey
    x0 + alpha*y + beta*x^2 + O(xy, y^2, x^3) in fold-centered coordinates,
    so alpha = dL/dy and beta = d^2L/dx^2 / 2 at the fold orbit.  The
    germ of X+ has alpha < 0 < beta, that of the backward field -X+ (the
    minus pseudo-separatrix) alpha > 0 > beta.  From
    :func:`fit_tangency_constants`, x0 is a landing (about 1e-13), alpha
    holds about 1e-10 and beta only a few 1e-7 (see there).
    """

    fold_x: float
    x0: float
    alpha: float
    beta: float


def _stage_P(x_plus: PlanarField, x: float, y0: float, y_strip: float) -> tuple[float, float, bool]:
    """Stage P: ride X+ from (x, y0) down to the strip boundary.

    Returns (time, abscissa, entered) of the first of two level stops: the
    strip top going down (the entry), or y0 going up (the landing of an
    orbit that misses the strip).  A dip below the strip top inside one
    step is found at its turn (``integrator.shoot``).
    """
    shot = shoot(x_plus.rhs, (0.0, 1e3), [x, y0], [Stop(1, y_strip, -1), Stop(1, y0, 1)], **EXTERIOR)
    if shot.stop is None:
        raise NoArrival(f"stage P: orbit from ({x}, {y0}) reached neither y = {y_strip} nor y0 again; "
                        f"last state t={shot.t}, x={shot.z[0]}, y={shot.z[1]}")
    return shot.t, float(shot.z[0]), shot.stop == 0


def fit_tangency_constants(field: PlanarField, fold_x: float, y0: float) -> TangencyConstants:
    """The germ of ``field``'s landings L(dx, dy) on {y = y0} from (fold_x + dx, dy),
    from 9 shots: x0 = L(0, 0), and alpha and beta from the centered differences
    Da(k) = (L(0, k) - L(0, -k)) / 2k and Db(k) = (L(k, 0) + L(-k, 0) - 2 x0) / 2k^2
    Richardson-extrapolated as (4 D(h/2) - D(h)) / 3 with h = ``_H``.  The starts
    (0, -k) lie below Sigma, where ``field`` is read as a smooth field.  The germ
    of the minus pseudo-separatrix is that of ``x_plus.negated()``.

    The landings hold about 1e-13.  alpha divides their differences by h, so
    it holds about 1e-10 (Coulomb's mirror germs agree to 5.6e-11); beta has
    a rounding floor of a few 1e-7, because Db(h/2) divides them by
    2 (h/2)^2 = 5e-7 (the mirror germs' beta agree to 1.8e-7 only).
    """
    def land(dx: float, dy: float) -> float:
        return exterior_map(field, (fold_x + dx, dy), Section(y0)).x

    try:
        x0 = land(0.0, 0.0)
    except EventNotBracketed as exc:
        raise TangentialCrossing(f"the fold itself lies on y0={y0}") from exc
    if abs(field(x0, y0)[1]) < 1e-8:
        raise TangentialCrossing(f"separatrix meets y0={y0} tangentially at x={x0}")
    da = [(land(0.0, k) - land(0.0, -k)) / (2.0 * k) for k in (_H, _H / 2)]
    db = [(land(k, 0.0) + land(-k, 0.0) - 2.0 * x0) / (2.0 * k * k) for k in (_H, _H / 2)]
    return TangencyConstants(fold_x, x0, (4.0 * da[1] - da[0]) / 3.0, (4.0 * db[1] - db[0]) / 3.0)


def normal_form_constants(y0: float) -> tuple[TangencyConstants, TangencyConstants]:
    """Closed-form germs (plus, minus) of the normal-form pair: x0 = +-sqrt(y0),
    alpha = -+1/(2 sqrt(y0)), beta = +-1/(2 sqrt(y0))."""
    r = math.sqrt(y0)
    a = 1.0 / (2.0 * r)
    return TangencyConstants(0.0, r, -a, a), TangencyConstants(0.0, -r, a, -a)


def map_P_epsilon(
    R: RegularizedSystem,
    y0: float,
    x: float,
    *,
    fold: float,
) -> PoincareResult:
    """Full numerical transit {y=y0, x<fold} -> {y=y0, x>fold} through the strip.

    Orbits whose X+ arc stays above the strip never feel the regularization;
    they are returned with the ``out_of_domain`` flag set and the pure-X+
    landing (P_eps = P0 trivially there), stage P's own hit of y0.  The
    flags record the strip entry and exit abscissae; the strip crossing
    gives up 0.4 right of the fold.  The domain is the part of
    {y = y0, x < fold} where X+ points down and the orbit's first-order dip
    below y0 is at least ``integrator.TOUCH`` (about 3e-7 from the normal
    fold): a start elsewhere, or a section at or below the strip top, is a
    ``ConfigError`` raised before any shot.
    """
    y_strip = R.check_section(y0)
    f = R.base.x_plus(x, y0)
    if not (x < fold and f[1] < 0.0):
        raise ConfigError(f"start x={x} must lie left of the fold x={fold}, where X+ points down across y0={y0}")
    rate = R.base.x_plus.jacobian(x, y0)[1] @ f  # dX2+/dt: the orbit dips X2+^2 / (2 rate) below y0
    dip = f[1] * f[1] / (2.0 * rate) if rate > 0.0 else np.inf
    if dip < TOUCH:  # stage P would not see the landing back on y0
        raise ConfigError(f"start x={x} lies too close to the fold x={fold}: its orbit dips {dip:.1e} "
                          f"below y0={y0}, inside the {TOUCH:g} touch tolerance")

    t_in, x_in, entered = _stage_P(R.base.x_plus, x, y0, y_strip)
    if not entered:
        # stage P's landing back on y0: a grazing orbit untouched by regularization
        return PoincareResult(x=x_in, time=float("nan"), flags={"out_of_domain": True})
    x_exit, t_mid = strip_crossing(R, x_in, x_limit=fold + 0.4)
    # stage Pbar: from below the section the first crossing is upward
    up = exterior_map(R.base.x_plus, (x_exit, y_strip), Section(y0))

    return PoincareResult(
        x=up.x,
        time=t_in + t_mid + up.time,
        flags={"out_of_domain": False, "x_in": x_in, "x_exit": x_exit},
    )


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    r_squared: float
    dropped_largest: bool = False


def _fit_epsilons(epsilons) -> np.ndarray:
    # the eps of a log-log fit: positive, finite, and at least two distinct ones for a line
    eps = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(eps) & (eps > 0.0)):
        raise ConfigError(f"epsilons must be positive and finite, got {eps}")
    if len(np.unique(eps)) < 2:
        raise ConfigError(f"a power-law fit needs at least two distinct epsilons, got {eps}")
    return eps


def fit_power_law(epsilons, values, *, r2_min: float = 0.999, allow_drop: bool = True) -> ExponentFit:
    """Least-squares slope of log|value| against log eps.

    If the largest eps sits more than 3x the RMS of the other residuals off
    the line (pre-asymptotic contamination), it is dropped once and the fit
    redone.  Fits with r^2 below ``r2_min`` are rejected, and so are values
    that are zero or not finite, which have no logarithm; an eps that is not
    positive and finite, or fewer than two distinct eps, is a ``ConfigError``.
    """
    eps = _fit_epsilons(epsilons)
    val = np.abs(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(val) & (val > 0.0)):
        raise FitRejected(f"no log-log fit through zero or non-finite values {val}")
    order = np.argsort(eps)
    eps, val = eps[order], val[order]

    def _fit(e, v):
        X = np.log(e)
        Y = np.log(v)
        A = np.vstack([X, np.ones_like(X)]).T
        coef, _res, _rank, _sv = np.linalg.lstsq(A, Y, rcond=None)
        resid = Y - A @ coef
        ss_tot = float(np.sum((Y - Y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
        return coef, resid, r2

    coef, resid, r2 = _fit(eps, val)
    dropped = False
    if allow_drop and len(eps) >= 4:
        # judge the largest eps against the line through the others: a
        # pre-asymptotic point contaminates its own fit's residuals
        coef_r, resid_r, r2_r = _fit(eps[:-1], val[:-1])
        rms_rest = float(np.sqrt(np.mean(resid_r**2)))
        pred_err = abs(math.log(val[-1]) - (coef_r[0] * math.log(eps[-1]) + coef_r[1]))
        if pred_err > 3.0 * max(rms_rest, 1e-12):
            coef, resid, r2 = coef_r, resid_r, r2_r
            dropped = True
    if r2 < r2_min:
        raise FitRejected(f"r^2 = {r2:.6f} < {r2_min}")
    return ExponentFit(
        slope=float(coef[0]),
        r_squared=r2,
        dropped_largest=dropped,
    )


@dataclass
class LandingScan:
    epsilons: np.ndarray
    exits: np.ndarray       # strip-exit abscissa relative to the fold
    deviations: np.ndarray  # P_eps(x) - x0+ - alpha+ eps
    exit_fit: ExponentFit
    deviation_fit: ExponentFit


def landing_scan(
    base: FilippovSystem,
    profile,
    eps_list,
    y0: float,
    probe_x: float,
    *,
    constants: TangencyConstants,
) -> LandingScan:
    """Sweep eps, collect strip exits and landing deviations, fit exponents.

    ``constants`` is the germ of X+ (it reads its fold_x, x0 and alpha).  The
    exit abscissa scales like eps^{p/(2p-1)} and the deviation of the
    landing from x0+ + alpha+ eps like eps^{2p/(2p-1)}.  A probe whose X+
    orbit misses the strip has no exit: ``NoArrival`` names it and the eps.
    An eps list the fits would reject is a ``ConfigError`` before the first map.
    """
    eps_arr, fx = _fit_epsilons(eps_list), constants.fold_x
    exits, devs = [], []
    for eps in eps_list:
        R = RegularizedSystem(base, profile, eps)
        r = map_P_epsilon(R, y0, probe_x, fold=fx)
        if r.flags["out_of_domain"]:
            raise NoArrival(f"landing scan: the X+ orbit from probe x={probe_x} misses the strip at eps={eps} "
                            f"and lands back on y0 at x={r.x}")
        exits.append(r.flags["x_exit"] - fx)
        devs.append(r.x - (constants.x0 + constants.alpha * eps))
    return LandingScan(
        epsilons=eps_arr,
        exits=np.asarray(exits),
        deviations=np.asarray(devs),
        exit_fit=fit_power_law(eps_arr, exits),
        deviation_fit=fit_power_law(eps_arr, devs),
    )


def exterior_map(
    field: PlanarField,
    start,
    section_to: Section,
    *,
    t_max: float = 1e3,
    floor_margin: float | None = None,
) -> PoincareResult:
    """Landing of the orbit of ``field`` from ``start`` on ``section_to``.

    This is the one section map of the package: the exterior return P^e,
    the stage Pbar of P_eps, the fold-orbit landings, and,
    along ``field.negated()``, every backward landing, shot at
    ``integrator.EXTERIOR``.  A dip below the section inside one step is
    found at its turn (``integrator.shoot``).  ``NoArrival`` is raised when
    the orbit escapes before coming back; in the sliding-homoclinic setting
    that is the meaningful signal that the exterior map has lost its
    domain.  With ``floor_margin`` the orbit is also considered lost if it
    dips below {y = floor_margin}.  Either message names the stage and the
    last state reached.
    """
    stops = [section_to.stop()]
    if floor_margin is not None:
        stops.append(Stop(1, floor_margin, -1))
    shot = shoot(field.rhs, (0.0, t_max), start, stops, **EXTERIOR)
    if shot.stop == 0:
        return PoincareResult(x=float(shot.z[0]), time=shot.t)
    why = "dipped below the floor margin" if shot.stop else f"never reached y = {section_to.y0}"
    raise NoArrival(f"exterior: orbit from {start} {why}; last state t={shot.t}, x={shot.z[0]}, y={shot.z[1]}")

