"""Event-located shooting: the one place where the package calls an ODE solver.

:func:`shoot` integrates ``rhs(t, z)`` with scipy's ``solve_ivp`` until the
first of a list of :class:`Stop` conditions fires.  A stop is a level of one
state component (``z[component]`` crossing ``level``) or the zero of a
scalar ``g(t, z)``.  It has a crossing direction (+1 upward, -1 downward,
0 either way) and an optional ``accept(z)`` predicate.  Event location follows
Shampine & Thompson (Comput. Math. Appl. 39, 2000): sign changes are found
step by step and the root is bracketed on the step's interpolant.  On top of
that, the primitive handles three cases:

- step-off: a start within 1e-13 of a level that it would cross at once is
  advanced 1e-11 in time along ``rhs``, so the zero residual of the start is
  not reported as the hit.  A start on an accepted level with no velocity
  across it raises ``EventNotBracketed``;
- accept and restart: a root whose state fails ``accept`` (a crossing on the
  wrong half-line) is stepped past, and the integration restarts from there;
- polish: the hit of a level stop gets one Newton correction of its time,
  with the rate taken from ``rhs``.  That puts the event residual at rounding
  level (the <= 1e-12 event contract).  A general ``g`` keeps the bracketed
  root (4 ulp in time).

Each stage picks its stepper.  The exterior maps and stage P of the fold
map use the explicit Dormand-Prince 8(5,3) pair DOP853 at rtol 1e-12, atol
1e-14 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.10).  The other
orbits outside the switching strip (Filippov flows, the densely sampled
Stribeck upper arc) use the default of :func:`shoot`, the explicit
Runge-Kutta 5(4) pair.  The strip orbit equations (``slow_manifold``) are
stiff: the passage along the attracting slow manifold would force O(1/eps)
explicit steps.  The strip crossing, the middle map of every fold and
return map, steps with LSODA (Petzold, SIAM J. Sci. Stat. Comput. 4, 1983)
at rtol 1e-12, atol 1e-14 and an analytic Jacobian; its compiled steps cost
about a tenth of scipy's Python-level Radau.  It does not run at 1e-11: there LSODA can stay in its non-stiff
Adams mode along the whole manifold, at steps of order eps (about 13,000
steps instead of about 650 on some linear eps = 1e-4 crossings).  The
manifold trace and the contraction probe use Radau IIA with analytic
Jacobians.  Both routes of the inner equation (``inner``) step with LSODA
and analytic Jacobians: the unscaled equation and its first-order
correction at rtol 3e-14, atol 1e-16, the normalized one at rtol 1e-12,
atol 1e-14.

:func:`integrate` builds annotated trajectories on top of :func:`shoot`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate import Radau as _ScipyRadau
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import get_lapack_funcs
from scipy.optimize import brentq, minimize_scalar

from slidekick.errors import NumericalFailure

if TYPE_CHECKING:
    from slidekick.fields import PlanarField

_RESTARTS = 64  # budget of wrong-half-line roots stepped past in one shot


class StepLimitExceeded(NumericalFailure):
    pass


class StepSizeUnderflow(NumericalFailure):
    """Stiffness collapse: the stepper could not advance."""


class EventNotBracketed(NumericalFailure):
    """A start sits on a section with no outgoing velocity to bracket."""


class NoArrival(NumericalFailure):
    """The orbit left the domain of definition before reaching the target."""


@dataclass(frozen=True)
class Stop:
    """A terminal stop condition of :func:`shoot`.

    With ``g`` unset the stop is the level ``z[component] = level``.
    Otherwise it is the zero of ``g(t, z)``.  ``direction`` selects upward
    (+1), downward (-1) or either (0) crossings.  A root whose state fails
    ``accept`` is stepped past.
    """

    component: int | None = None
    level: float = 0.0
    direction: int = 0
    accept: Callable[[np.ndarray], bool] | None = None
    g: Callable[[float, np.ndarray], float] | None = None


@dataclass
class Shot:
    """Outcome of one :func:`shoot`."""

    stop: int | None  # index of the stop that fired; None if t_span ran out
    t: float  # the (polished) hit, or the end of t_span
    z: np.ndarray
    ts: np.ndarray  # accepted step times; the last one is (t, z)
    zs: np.ndarray  # states at ts, one column per time
    dense: OdeSolution | None
    n_steps: int
    min_step: float


# real and complex getrf/getrs, keyed by dtype character
_GETRF = {k: get_lapack_funcs(("getrf",), (np.zeros(1, dtype=k),))[0] for k in "dD"}
_GETRS = {k: get_lapack_funcs(("getrs",), (np.zeros(1, dtype=k),))[0] for k in "dD"}


class Radau(_ScipyRadau):
    """scipy's Radau IIA with its dense LU calls made straight to LAPACK.

    ``lu_factor`` and ``lu_solve`` spend more time on argument checks and
    batch dispatch than on the 1x1 and 2x2 systems of the strip and inner
    equations.  The same getrf/getrs routines run on the same arrays, so
    every digit is unchanged; a non-finite array still goes through scipy's
    checked path and raises the same ``ValueError``.  The class keeps
    scipy's name, so solver statistics grouped by method name still read
    "radau".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.J, np.ndarray):
            return  # sparse Jacobians keep scipy's splu path

        def lu(A):
            self.nlu += 1
            if not np.isfinite(A).all():
                return lu_factor(A, overwrite_a=True)
            lu_, piv, info = _GETRF[A.dtype.char](A, overwrite_a=True)
            if info > 0:
                warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                              LinAlgWarning, stacklevel=2)
            return lu_, piv

        def solve_lu(LU, b):
            if not np.isfinite(b).all():
                return lu_solve(LU, b, overwrite_b=True)
            x, _info = _GETRS[LU[0].dtype.char](LU[0], LU[1], b, overwrite_b=True)
            return x

        self.lu = lu
        self.solve_lu = solve_lu


def _event(stop: Stop):
    if stop.g is None:
        def ev(t, z, i=stop.component, c=stop.level):
            return z[i] - c
    else:
        def ev(t, z, g=stop.g):
            return g(t, z)
    ev.terminal = True
    ev.direction = stop.direction
    return ev


def shoot(
    rhs: Callable,
    t_span: tuple[float, float],
    z0,
    stops: "list[Stop] | tuple[Stop, ...]" = (),
    *,
    jac: Callable | None = None,
    method: str = "RK45",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = np.inf,
    dense: bool = False,
) -> Shot:
    """Integrate ``rhs`` forward over ``t_span`` until the first accepted stop.

    Returns the index of the stop that fired (``None`` when ``t_span`` ran
    out first), the hit, the accepted steps, the dense solution if
    ``dense`` is set, the step count and the smallest step.  Raises
    ``EventNotBracketed`` for a start on an accepted level with zero rate,
    ``StepSizeUnderflow`` on stiffness collapse, and ``NoArrival`` when the
    restart budget for rejected roots runs out.
    """
    t_cur, t_end = float(t_span[0]), float(t_span[1])
    z_cur = np.asarray(z0, dtype=float)
    for s in stops:
        if s.g is None and abs(z_cur[s.component] - s.level) <= 1e-13:
            f0 = np.asarray(rhs(t_cur, z_cur), dtype=float)
            rate = f0[s.component]
            if rate * s.direction >= 0.0:
                if rate == 0.0 and (s.accept is None or s.accept(z_cur)):
                    raise EventNotBracketed("start lies on a stop level with zero outgoing velocity")
                t_cur += 1e-11
                z_cur = z_cur + 1e-11 * f0
                break

    events = [_event(s) for s in stops] or None
    extra = {"jac": jac} if jac is not None else {}
    ts: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    parts: list[OdeSolution] = []
    n_steps, min_step = 0, np.inf
    solver = Radau if method == "Radau" else method
    for _ in range(_RESTARTS):
        sol = solve_ivp(rhs, (t_cur, t_end), z_cur, method=solver, rtol=rtol, atol=atol,
                        max_step=max_step, dense_output=dense, events=events, **extra)
        if sol.status == -1:
            if "step size" in sol.message.lower():
                raise StepSizeUnderflow(sol.message)
            raise NumericalFailure(sol.message)
        n_steps += len(sol.t) - 1
        steps = np.diff(sol.t)
        if np.any(steps > 0.0):
            min_step = min(min_step, float(steps[steps > 0.0].min()))
        ts.append(sol.t)
        zs.append(sol.y)
        if dense:
            parts.append(sol.sol)
        fired = None if events is None else next((k for k, te in enumerate(sol.t_events) if te.size), None)
        t, z = float(sol.t[-1]), sol.y[:, -1]
        if fired is not None:
            s = stops[fired]
            f = np.asarray(rhs(t, z), dtype=float)
            if s.g is None and f[s.component] != 0.0 and np.isfinite(f[s.component]):
                # the bracketed root is within a few ulp, so a first-order
                # move of the state along rhs is exact to rounding
                dt = -(z[s.component] - s.level) / f[s.component]
                t, z = t + dt, z + dt * f
                sol.t[-1], sol.y[:, -1] = t, z
            if s.accept is not None and not s.accept(z):
                h = max(1e-12, 1e-12 * abs(t))
                t_cur, z_cur = t + h, z + h * f
                continue
        return Shot(
            stop=fired,
            t=float(t),
            z=np.array(z),
            ts=np.concatenate(ts),
            zs=np.concatenate(zs, axis=1),
            dense=_joined(parts) if dense else None,
            n_steps=n_steps,
            min_step=float(min_step) if n_steps else 0.0,
        )
    raise NoArrival("restart budget for rejected stop crossings exhausted")


def _joined(parts: list[OdeSolution]) -> OdeSolution:
    # the last interpolant of each part also covers the step-past gap to the
    # next part's start
    if len(parts) == 1:
        return parts[0]
    ts = np.concatenate([p.ts[:-1] for p in parts[:-1]] + [parts[-1].ts])
    return OdeSolution(ts, [i for p in parts for i in p.interpolants])


@dataclass(frozen=True)
class Section:
    """A horizontal Poincare section {y = y0} restricted to a half-line.

    ``half`` keeps x < edge ("x<0"), x > edge ("x>0") or the whole line
    ("all"); the half-line's end point ``edge`` defaults to 0.
    """

    y0: float
    half: str = "all"  # "x<0" | "x>0" | "all"
    id: str = ""
    edge: float = 0.0

    def contains(self, x: float) -> bool:
        if self.half == "x<0":
            return x < self.edge
        if self.half == "x>0":
            return x > self.edge
        return True

    def stop(self) -> Stop:
        """Stop at a crossing of the section, in either direction, on its half-line."""
        return Stop(1, self.y0, accept=None if self.half == "all" else lambda z: self.contains(z[0]))


@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: str
    location: tuple[float, float]


@dataclass
class Trajectory:
    """Time-ordered states with event annotations."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    events: list[TrajectoryEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def end(self) -> tuple[float, float, float]:
        return float(self.t[-1]), float(self.x[-1]), float(self.y[-1])


@dataclass(frozen=True)
class PoincareResult:
    """Image of one application of a section-to-section map."""

    x: float
    time: float
    flags: dict[str, object] = field(default_factory=dict)


def _strip_notes(shot: Shot, strip: float, center: float) -> list[TrajectoryEvent]:
    """Entries into and exits from the band |y - center| <= strip, located
    on the dense output like scipy's own events.

    Each step is first split where y turns (the bounded minima of +y and
    -y inside it), so a step that passes through the band, or dips into it
    and back out, still shows a sign change at each band edge it crosses.
    """
    def h(t: float) -> float:
        return float(shot.dense(t)[1]) - center

    knots = [shot.dense.ts[0]]
    for a, b, step in zip(shot.dense.ts[:-1], shot.dense.ts[1:], shot.dense.interpolants):
        turns = (minimize_scalar(lambda t: s * step(t)[1], bounds=(a, b), method="bounded").x for s in (1.0, -1.0))
        knots += sorted(turns) + [b]
    hs = np.array([h(t) for t in knots])
    eps4 = 4 * np.finfo(float).eps
    notes = []
    for edge in (-strip, strip):
        above = hs > edge
        for k in np.nonzero(above[:-1] != above[1:])[0]:
            te = float(brentq(lambda t: h(t) - edge, knots[k], knots[k + 1], xtol=eps4, rtol=eps4))
            # from above the upper edge, or from below the lower one, is an entry
            kind = "enter_strip" if above[k] == (edge > 0) else "exit_strip"
            z = shot.dense(te)
            notes.append(TrajectoryEvent(te, kind, (float(z[0]), float(z[1]))))
    return sorted(notes, key=lambda e: e.t)


def integrate(
    field: "PlanarField",
    start: tuple[float, float],
    until: "Section | float | Callable[[float, float, float], float]",
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "RK45",
    max_step: float = np.inf,
    t_max: float = 1e4,
    strip: float | None = None,
    strip_center: float = 0.0,
) -> Trajectory:
    """Integrate ``field`` from ``start`` until a stopping condition.

    ``until`` is a :class:`Section`, a final time, or a scalar event
    function ``g(t, x, y)`` whose root stops the integration.  Section
    crossings are Newton-polished.  If ``strip`` is given, entry/exit of the
    band |y - strip_center| <= strip is annotated.

    Raises ``StepSizeUnderflow`` on stiffness collapse and
    ``EventNotBracketed`` for a start lying on the target section with
    vanishing outgoing velocity.
    """
    if isinstance(until, Section):
        stops, t_end, kind = [until.stop()], t_max, f"cross_section:{until.id}"
    elif callable(until):
        stops, t_end, kind = [Stop(g=lambda t, z: until(t, z[0], z[1]))], t_max, "predicate"
    else:
        stops, t_end, kind = [], float(until), ""
    shot = shoot(field.rhs, (0.0, t_end), start, stops, method=method, rtol=rtol, atol=atol,
                 max_step=max_step, dense=strip is not None)
    if stops and shot.stop is None:
        raise NoArrival("integration reached t_max before the stopping condition")
    notes = [] if strip is None else _strip_notes(shot, strip, strip_center)
    if stops:
        notes.append(TrajectoryEvent(shot.t, kind, (float(shot.z[0]), float(shot.z[1]))))
    return Trajectory(shot.ts, shot.zs[0], shot.zs[1], notes)
