"""Planar vector fields, the Filippov pair, and the sliding dynamics on the
switching line.

The switching manifold is a horizontal line Sigma = {y = offset}.  The upper
field X+ is assumed to have a visible quadratic tangency (fold) with Sigma,
the lower field X- crosses Sigma transversally pointing up.  Orbits of the
non-smooth system concatenate X+/X- arcs with crossing transitions and with
sliding segments governed by the Filippov convex combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Literal

import numpy as np

from slidekick.errors import ConfigError, NumericalFailure
from slidekick.integrator import NoArrival, Section, StepLimitExceeded, Stop, Trajectory, TrajectoryEvent, _brentq, shoot


class NotSliding(ConfigError):
    """The queried point is not in the sliding region."""


class NoSignChange(NumericalFailure):
    """The fold bracket does not contain a sign change of X2+."""


class MultipleRoots(NumericalFailure):
    """More than one sign change of X2+ detected at scan resolution."""


class EscapeRegion(NumericalFailure):
    """A Filippov orbit was started in (or reached) the escaping set."""


@dataclass(frozen=True)
class PlanarField:
    """A smooth planar vector field with value and Jacobian evaluation.

    ``func(x, y)`` returns the two field components.  Jacobians are central
    finite differences with step ``1e-6 * max(1, |x|, |y|)``, which is
    accurate enough for sign-level classification of tangencies.  :meth:`rhs`
    hands ``func`` the state as plain floats, whose ``+ - * /`` round as
    NumPy's scalars do at about half the cost; a division by zero (or a
    float overflow), which a NumPy scalar would have turned into inf, is
    raised as ``NumericalFailure`` naming the field and the point.
    """

    func: Callable[[float, float], tuple[float, float]]
    name: str = ""

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        fx, fy = self.func(x, y)
        return float(fx), float(fy)

    def jacobian(self, x: float, y: float) -> np.ndarray:
        h = 1e-6 * max(1.0, abs(x), abs(y))
        fxp = self.func(x + h, y)
        fxm = self.func(x - h, y)
        fyp = self.func(x, y + h)
        fym = self.func(x, y - h)
        return np.array(
            [
                [(fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)],
                [(fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)],
            ]
        )

    def rhs(self, t: float, z: np.ndarray) -> list[float]:
        """Right-hand side in the ``rhs(t, z)`` signature of the ODE solvers."""
        x, y = z.tolist()
        try:
            fx, fy = self.func(x, y)
        except ArithmeticError as exc:
            raise NumericalFailure(f"field {self.name or self.func!r}: {exc} at (x, y) = ({x!r}, {y!r})") from exc
        return [fx, fy]

    def negated(self) -> "PlanarField":
        """The time-reversed field (for backward integration)."""
        f = self.func

        def backward(x: float, y: float) -> tuple[float, float]:
            fx, fy = f(x, y)
            return -fx, -fy

        return PlanarField(backward, name=f"-{self.name}")


@dataclass(frozen=True)
class FilippovSystem:
    """Ordered pair (X+, X-) with switching line y = offset.

    ``offset`` defaults to 0; the dry-friction models use a nonzero physical
    offset.  Within the neighbourhood of the fold, X2-(x, offset) > 0 is
    assumed (transversality of the lower field).
    """

    x_plus: PlanarField
    x_minus: PlanarField
    offset: float = 0.0

    def normal_components(self, x: float) -> tuple[float, float]:
        """(X2+, X2-) evaluated on the switching line."""
        return self.x_plus(x, self.offset)[1], self.x_minus(x, self.offset)[1]


class RegionClass(Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    ESCAPING = "escaping"
    TANGENCY_PLUS = "tangency_plus"
    TANGENCY_MINUS = "tangency_minus"


@dataclass(frozen=True)
class FoldPoint:
    """A quadratic tangency of X+ with the switching line."""

    x: float
    visible: bool
    direction: int  # sign of X1+ at the fold


def classify_point(system: FilippovSystem, x: float) -> RegionClass:
    """Classify a point of the switching line.

    Sliding requires X2+ < 0 < X2-, crossing X2+ * X2- > 0, escaping
    X2+ > 0 > X2-.  A normal component smaller than 1e-10 times the local
    field magnitude marks a tangency of the corresponding field.
    """
    fp = system.x_plus(x, system.offset)
    fm = system.x_minus(x, system.offset)
    fp2, fm2 = fp[1], fm[1]
    # tol scales with the local field magnitude so near-misses at double
    # precision are separated from genuine folds
    tol = 1e-10 * max(1.0, abs(fp[0]), abs(fp2), abs(fm[0]), abs(fm2))
    if abs(fp2) <= tol:
        return RegionClass.TANGENCY_PLUS
    if abs(fm2) <= tol:
        return RegionClass.TANGENCY_MINUS
    if fp2 < 0.0 < fm2:
        return RegionClass.SLIDING
    if fp2 > 0.0 > fm2:
        return RegionClass.ESCAPING
    return RegionClass.CROSSING


def sliding_field(system: FilippovSystem, x: float) -> float:
    """Filippov sliding drift xdot = (X1+ X2- - X1- X2+) / (X2- - X2+).

    This is the unique convex combination of X+ and X- whose normal
    component vanishes on the sliding segment.
    """
    if classify_point(system, x) is not RegionClass.SLIDING:
        raise NotSliding(f"x={x} is not in the sliding region")
    return _drift(system, x)


def _drift(system: FilippovSystem, x: float) -> float:
    # the formula of sliding_field, without the sliding-region check
    y0 = system.offset
    f1p, f2p = system.x_plus(x, y0)
    f1m, f2m = system.x_minus(x, y0)
    return (f1p * f2m - f1m * f2p) / (f2m - f2p)


def sign_changes(g: Callable[[float], float], xs) -> list[tuple[float, float]]:
    """Grid cells (xs[i], xs[i+1]) across which g changes sign, and
    degenerate cells (x, x) at grid points where g vanishes, the last grid
    point included."""
    vals = [g(x) for x in xs]
    cells = []
    for a, b, ga, gb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if ga == 0.0:
            cells.append((float(a), float(a)))
        elif ga * gb < 0.0:
            cells.append((float(a), float(b)))
    if vals[-1] == 0.0:
        cells.append((float(xs[-1]), float(xs[-1])))
    return cells


def find_fold(system: FilippovSystem, bracket: tuple[float, float]) -> FoldPoint:
    """Locate the tangency of X+ within ``bracket`` and classify it.

    Scans for sign changes of X2+(., offset), read off X+'s ``func`` on
    plain floats, on 401 points; exactly one change is required, then the
    root is polished with Brent's method (``integrator._brentq``) to 1e-12.
    Visibility follows the sign of d/dx X2+ times X1+ at the root.
    """
    func, offset = system.x_plus.func, system.offset

    def x2(x: float) -> float:
        return func(x, offset)[1]

    cells = sign_changes(x2, np.linspace(bracket[0], bracket[1], 401).tolist())
    if not cells:
        raise NoSignChange(f"X2+ does not change sign on {bracket}")
    if len(cells) > 1:
        raise MultipleRoots(f"{len(cells)} sign changes of X2+ on {bracket}")
    lo, hi = cells[0]
    x_f = lo if lo == hi else _brentq(x2, lo, hi, xtol=1e-12)
    residual = x2(x_f)
    if abs(residual) > 1e-10:
        raise NoSignChange(f"root polish failed, residual {residual:g}")
    dfx = system.x_plus.jacobian(x_f, system.offset)[1, 0]
    f1 = system.x_plus(x_f, system.offset)[0]
    return FoldPoint(x=x_f, visible=bool(dfx * f1 > 0.0), direction=int(math.copysign(1, f1)))


def _arrival(system: FilippovSystem, x: float) -> tuple[str, str]:
    """Regime and event kind at the point (x, offset) of Sigma: a slide
    (``slide_start``), a tangency left into V+ (``fold_exit``), or in the
    crossing set the side X2- points to (``switch_plus``, ``switch_minus``).
    The escaping set raises ``EscapeRegion``."""
    cls = classify_point(system, x)
    if cls is RegionClass.ESCAPING:
        raise EscapeRegion(f"the orbit is in the escaping set at x={x}")
    if cls is RegionClass.SLIDING:
        return "slide", "slide_start"
    if cls is RegionClass.CROSSING:
        side = "plus" if system.normal_components(x)[1] > 0 else "minus"
        return side, f"switch_{side}"
    return "plus", "fold_exit"


def filippov_flow(
    system: FilippovSystem,
    start: tuple[float, float],
    stop: Section | float | Literal["sliding"],
    *,
    t_max: float = 1e3,
    max_step: float = 0.05,
) -> Trajectory:
    """Flow of the non-smooth system Z from ``start``.

    The orbit concatenates X+/X- arcs, crossing transitions, sliding
    segments governed by :func:`sliding_field`, and the exit at a visible
    fold along the unstable pseudo-separatrix of X+.  ``stop`` is a
    :class:`~slidekick.integrator.Section`, a final time, or ``"sliding"``,
    which ends the flow at its first ``slide_start``; ``NoArrival``, naming
    the last state, is raised when ``t_max`` runs out before either of the
    last two.  A start on Sigma and every hit of Sigma follow one rule
    (:func:`_arrival`); a graze of Sigma in V+ is a fold exit.  An arc that
    starts with vanishing normal velocity first steps 1e-10 in time along
    its field, so that its own stops do not fire at once.

    Events are annotated in order: ``cross_section``, ``slide_start``,
    ``slide_end``, ``fold_exit`` and the region switches.
    """
    y_sw = system.offset
    sec = stop if isinstance(stop, Section) else None
    t_final = t_max if sec is not None or stop == "sliding" else float(stop)

    t0, x0, y0 = 0.0, float(start[0]), float(start[1])
    if abs(y0 - y_sw) <= 1e-14:
        regime, _ = _arrival(system, x0)
    else:
        regime = "plus" if y0 > y_sw else "minus"
    arcs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    events: list[TrajectoryEvent] = []

    for _ in range(200):
        if regime == "slide":
            stops = [Stop(g=lambda t, z: system.x_plus(z[0], y_sw)[1]),
                     Stop(g=lambda t, z: system.x_minus(z[0], y_sw)[1])]
            shot = shoot(lambda t, z: [_drift(system, z[0])], (t0, t_final), [x0], stops)
            arcs.append((shot.ts, shot.zs[0], np.full_like(shot.ts, y_sw)))
            t0, x0, y0 = shot.t, float(shot.z[0]), y_sw
            if shot.stop is not None:
                # the slide reached the fold of X+ (exit along W^u into V+) or
                # a tangency of X- (into V-)
                events.append(TrajectoryEvent(t0, "slide_end", (x0, y_sw)))
                regime = "minus" if shot.stop else "plus"
                if regime == "plus":
                    events.append(TrajectoryEvent(t0, "fold_exit", (x0, y_sw)))
        else:
            field = system.x_plus if regime == "plus" else system.x_minus
            toward = -1 if regime == "plus" else +1  # direction of approach to Sigma

            # the one restart rule: step off a start with vanishing normal velocity
            f_at = field(x0, y0)
            if abs(f_at[1]) <= 1e-12 * max(1.0, abs(f_at[0])):
                t0 += 1e-10
                x0 += 1e-10 * f_at[0]
                y0 += 1e-10 * f_at[1]

            # tangential contact with Sigma shows up as an extremum of y close
            # to the line (a minimum in V+, a maximum in V-); extrema away
            # from the line are passed over
            stops = [
                Stop(1, y_sw, toward),
                Stop(g=lambda t, z: field(z[0], z[1])[1], direction=-toward,
                     accept=lambda z: abs(z[1] - y_sw) <= 1e-9),
            ]
            if sec is not None:
                stops.append(sec.stop())
            shot = shoot(field.rhs, (t0, t_final), [x0, y0], stops, max_step=max_step)
            arcs.append((shot.ts, shot.zs[0], shot.zs[1]))
            t0, x0, y0 = shot.t, float(shot.z[0]), float(shot.z[1])

            if shot.stop == 2:
                events.append(TrajectoryEvent(t0, f"cross_section:{sec.id}", (x0, y0)))
                break
            if shot.stop == 0 or shot.stop == 1 and regime == "plus":
                regime, kind = _arrival(system, x0) if shot.stop == 0 else ("plus", "fold_exit")
                events.append(TrajectoryEvent(t0, kind, (x0, y_sw)))
                y0 = y_sw
        arrived = (regime == "slide" and stop == "sliding"
                   or sec is not None and abs(y0 - sec.y0) <= 1e-12 and sec.contains(x0))
        if arrived or t0 >= t_final - 1e-14:
            if not arrived and (sec is not None or stop == "sliding"):
                target = "a slide" if sec is None else f"y = {sec.y0}"
                raise NoArrival(f"filippov flow: t_max={t_max} ran out before {target}; "
                                f"last state t={t0}, x={x0}, y={y0} ({regime})")
            break
    else:
        raise StepLimitExceeded("hybrid flow did not terminate within 200 segments")
    t, x, y = (np.concatenate(a) for a in zip(*arcs))
    return Trajectory(t, x, y, events)
