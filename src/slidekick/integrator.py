"""Event-located shooting: the one place where the package steps an ODE solver.

:func:`shoot` steps a solver one step at a time, in one loop for every
method, until the first of a list of :class:`Stop` conditions fires.  A
stop is a level of one state component (``z[component]`` crossing
``level``) or the zero of a scalar ``g(t, z)``.  It has a crossing
direction (+1 upward, -1 downward, 0 either way) and an optional
``accept(z)`` predicate.  Event location is ``solve_ivp``'s, after Shampine
& Thompson (Comput. Math. Appl. 39, 2000): sign changes are found step by
step and the root is bracketed on the step's interpolant.  Every bracketed
root in the package is found by :func:`_brentq`, on ``_zeros._brentq``,
the compiled Brent routine that ``scipy.optimize.brentq`` wraps, with
brentq's NaN check kept in the one closure it is handed: the iterates and
the roots are ``brentq``'s to the bit, without its Python wrapper.  On top
of that, the primitive handles four cases, in either direction of time:

- step-off: a start within 1e-13 of a level that it would cross at once is
  advanced 1e-11 in time along ``rhs``, so the zero residual of the start is
  not reported as the hit.  A start on an accepted level with no velocity
  across it raises ``EventNotBracketed``;
- accept: a root whose state fails ``accept`` (a crossing on the wrong
  half-line) is passed over; the next root of the same step is tried, and
  stepping goes on;
- polish: the hit of a level stop gets one Newton correction of its time,
  with the rate taken from ``rhs``.  That puts the event residual at rounding
  level (the <= 1e-12 event contract).  A general ``g`` keeps the bracketed
  root (4 ulp in time);
- turn: a level can be crossed and recrossed inside one step, with no sign
  change at the step's ends (a graze).  When the component's rate, taken
  along the direction of integration, changes sign over a step in which z
  first moved toward the level, :func:`_turn` roots that rate on the
  interpolant; if z there lies beyond the level by
  more than 1e-13, the crossing in the stop's direction is bracketed on
  its side of the turn and treated like any other root (Esposito, Kumar &
  Pappas, HSCC 2001).  A start exactly on a level that it leaves against
  the stop's direction counts from the side it comes from, so its return
  is found at the turn and the start itself is never the hit.  One turn
  per step is seen (opposite rates at the step's ends).  ``_Lsoda`` reads
  the rates off its Nordsieck record, so no stepper calls ``rhs`` for them.

Each stage picks its stepper from one table, the read-only keyword sets
:data:`EXTERIOR`, :data:`STIFF` and :data:`STIFF_TIGHT` passed as
``shoot(..., **NAME)``; each names its users and the reason for its values.
``shoot``'s defaults are :data:`EXTERIOR`'s method and tolerances.  scipy's
Radau IIA is selectable as ``method="Radau"`` for tight reference solves;
no stage of the package uses it.

Radau is scipy's ``OdeSolver`` object.  DOP853 steps on
:class:`_Dop853`, scipy ``DOP853``'s tableau and step control on Python
floats, without scipy's per-step arrays (about two thirds of the time per
step); its stage sums are exact, so its digits lie within rounding of
scipy's.  LSODA steps on :class:`_Lsoda`, built on scipy's ``lsoda``
integrator class with no ``ode`` object: a step is one direct call of its
compiled runner, with no Python wrapper around ``rhs``, and its steps,
states, ``nfev``, ``njev`` and ``nlu`` are scipy ``LSODA``'s to the bit.
All of them expose ``step()``, ``t``, ``t_old``, ``y``, the rates ``f`` at
a step's end, ``direction`` and ``status``, and one loop steps them; the type
of the stepper fixes, once per shot, what a step leaves for dense output and
how ``f`` is scaled (``_Lsoda``'s is h f, its Nordsieck record's column 1).
scipy 1.17.1's runner never frees the work arrays it steps on, so an ended
LSODA shot gives its pair to a free list, and the next stepper reuses it.

Dense output is scipy's interpolant of each step, joined as ``OdeSolution``
joins them.  An LSODA step builds no interpolant object: it records its
end, step size, order and Nordsieck history, read off the work arrays as
scipy's ``LSODA.dense_output`` reads them, and :class:`_NordsieckSolution`
evaluates the records (a bracketed root, its own step's record) to
scipy's digits.  A tier-1 test pins the stepper's states, counts and
records to a parallel scipy ``LSODA`` and its ``dense_output()`` at every
step.

:func:`integrate` joins :func:`shoot`'s shots from event to event into
annotated trajectories; a band's edges are level stops like any other.
"""

from __future__ import annotations

import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from math import fsum
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.integrate import OdeSolution, OdeSolver, Radau, _ode
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.base import ConstantDenseOutput
from scipy.integrate._ivp.common import select_initial_step, validate_tol
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import _zeros

from slidekick.errors import ConfigError, NumericalFailure

if TYPE_CHECKING:
    from slidekick.fields import PlanarField


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
    """A terminal stop condition of :func:`shoot`: the level ``z[component]
    = level`` with ``g`` unset, else the zero of ``g(t, z)``.  ``direction``
    selects upward (+1), downward (-1) or either (0) crossings.  A root whose
    state fails ``accept`` is passed over."""

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
    dense: OdeSolution | _NordsieckSolution | None
    n_steps: int
    nfev: int  # the solver's own rhs calls (not the step-off, LSODA start-rate, turn or polish ones)
    min_step: float  # the smallest nonzero |step|
    njev: int  # the solver's Jacobian evaluations
    nlu: int  # the solver's LU decompositions
    method: str  # the stepper that took the steps: "DOP853", "LSODA" or "Radau"
    n_bdf: int = 0  # LSODA steps taken in BDF (stiff) mode, iwork[18] = 2; 0 for the other methods


# the brentq tolerance of solve_ivp's event location: _brentq hands it to scipy's
# compiled Brent routine (_zeros._brentq), with brentq's NaN check kept
_EPS4 = 4 * np.finfo(float).eps
TOUCH = 1e-13  # a level this close to the state is touched: the step-off and turn tolerance
_RTOL_FLOOR = 100 * np.finfo(float).eps  # validate_tol raises a smaller rtol to this, with a warning
_FREE_WORK: dict[tuple[int, int], list] = {}  # (rwork, iwork) pairs of ended LSODA shots, by their lengths

# Orbits outside the strip: poincare.exterior_map (exterior returns, stage Pbar, every
# landing), poincare._stage_P, bifurcation._stable_separatrix, the Stribeck upper arc
# bifurcation._upper_arc and, at its own cap, fields.filippov_flow, on the Dormand-Prince
# 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10), stepped by _Dop853.
# At rtol 1e-11 the landings lie 3-5x farther from a tight reference; at 1e-12
# those near the fold are within 5e-12 of DOP853 at rtol 1e-13.  The cap (a
# graze is found at its turn, not by it) keeps exterior_map's landings within
# the 1e-12 of a tier-1 test of the separatrix shot's, so they all share it:
# without it two saddle-homoclinic W^s landings lie 1.2e-12 and 2.3e-12 off.
# The arc's 6000 dense samples need no tighter cap: DOP853's seventh-order
# interpolant (II.6) keeps them within 4e-12 of DOP853 at rtol 3e-14.
EXTERIOR = MappingProxyType({"method": "DOP853", "rtol": 1e-12, "atol": 1e-14, "max_step": 0.25})
# The stiff orbits: slow_manifold.strip_crossing (the middle map of every fold
# and return map), inner._integrate_normalized and cli.cmd_simulate --eps, on
# LSODA (Petzold, SIAM J. Sci. Stat. Comput. 4, 1983).  A strip crossing takes
# O(1/eps) explicit steps; LSODA's compiled ones cost about a fiftieth of scipy's
# Radau at the same tolerances (normal fold, poly(2), eps = 1e-4: 1376 steps of
# about 6.1 us against 3038 Radau steps in 0.54 s), and its exits and the
# normalized inner etabar0(0) (p = 2, 3, 4) lie within 1e-11 and 3e-11 of Radau
# at rtol 1e-13.  At rtol 1e-11 LSODA can stay in its non-stiff Adams mode along
# the whole manifold at steps of order eps: about 13,000 steps instead of about
# 650 on some linear eps = 1e-4 crossings (Shot.n_bdf counts the BDF steps).
STIFF = MappingProxyType({"method": "LSODA", "rtol": 1e-12, "atol": 1e-14})
# Stiff orbits held to about 1e-13: both legs of slow_manifold.trace_manifold,
# slow_manifold.contraction_probe, inner._integrate_unscaled and
# inner.eta1_check (the same denominator).  At rtol 1e-12 the linear strip exit
# of criterion 2 misses 1e-13, and the p = 4 inner grid's interpolant reads
# 3.5e-10 against its 1e-10 contract, even with the 0.01 step cap.
STIFF_TIGHT = MappingProxyType({"method": "LSODA", "rtol": 3e-14, "atol": 1e-16})


def _gap(stop: Stop, t: float, z: np.ndarray) -> float:  # the stop's signed distance
    return z[stop.component] - stop.level if stop.g is None else stop.g(t, z)


def _crossed(g: float, g_new: float, direction: int) -> bool:
    # scipy's rule: a zero at either end of the step counts as a crossing
    up, down = g <= 0 and g_new >= 0, g >= 0 and g_new <= 0
    return up if direction > 0 else down if direction < 0 else up or down


def shoot(
    rhs: Callable,
    t_span: tuple[float, float],
    z0,
    stops: "list[Stop] | tuple[Stop, ...]" = (),
    *,
    jac: Callable | None = None,
    method: str = EXTERIOR["method"],
    rtol: float = EXTERIOR["rtol"],
    atol: float = EXTERIOR["atol"],
    max_step: float = np.inf,
    dense: bool = False,
) -> Shot:
    """Integrate ``rhs`` over ``t_span``, either way, until the first accepted stop.

    Steps the ``method`` solver (DOP853 at ``EXTERIOR``'s tolerances by
    default, LSODA or Radau) in one loop: :class:`_Dop853`, :class:`_Lsoda`
    and scipy's ``OdeSolver`` for Radau.  The stops whose
    sign changed over a step, in their direction, are rooted on the step's
    interpolant, and so is a level stop's crossing hidden behind a turn
    inside the step; the roots are tried in the order of integration and the
    first with an accepted state fires.

    Returns the index of the stop that fired (``None`` when ``t_span`` ran out
    first), the hit, the accepted steps, the dense solution if ``dense`` is
    set, the step count, the solver's ``rhs`` call, Jacobian and LU counts,
    the smallest nonzero |step|, the method and, for LSODA, the steps taken
    in BDF mode.  DOP853's ``nfev`` is 12 per attempted step, 2 for the
    start's rate and the initial step's probe, and 3 per interpolant built:
    every step of a dense shot, else each step whose roots or turn are looked
    at.  The dense solution maps a time or an array of times to ``(n,)`` or
    ``(n, m)`` values; it is an ``OdeSolution`` except for LSODA, whose steps
    are recorded (at most 13 n floats of Nordsieck history per step) and
    evaluated to the digits of ``OdeSolution``.  On the p = 4 inner shot a
    recorded step costs about 2.6 us more than a bare one, against 6.9 us
    with one scipy ``LsodaDenseOutput`` per step.

    Raises ``EventNotBracketed`` for a start on an accepted level with zero
    rate, ``StepSizeUnderflow`` when the solver's step size collapses and
    ``NumericalFailure`` with the solver's message on any other failure (for
    LSODA: its istate, scipy's text for it and the last (t, z) reached, also
    for a step that cannot advance), and ``ConfigError``, before any ``rhs``
    call, on a non-finite ``t_span`` or ``z0``.
    """
    t_cur, t_end = float(t_span[0]), float(t_span[1])
    z_cur = np.asarray(z0, dtype=float)
    if not all(map(math.isfinite, (t_cur, t_end, *z_cur.tolist()))):
        raise ConfigError(f"shoot needs a finite t_span and z0, got t_span={t_span}, z0={z_cur.tolist()}")
    d, f0 = 1.0 if t_end >= t_cur else -1.0, None  # the direction of integration; rhs at the start, if probed
    for s in stops:
        if s.g is None and abs(z_cur[s.component] - s.level) <= TOUCH:
            f0 = np.asarray(rhs(t_cur, z_cur), dtype=float)
            rate = d * f0[s.component]  # along the direction of integration
            if rate * s.direction >= 0.0:
                if rate == 0.0 and (s.accept is None or s.accept(z_cur)):
                    raise EventNotBracketed("start lies on a stop level with zero outgoing velocity")
                t_cur, z_cur, f0 = t_cur + d * 1e-11, z_cur + d * 1e-11 * f0, None
                break

    lsoda = method == "LSODA"
    if lsoda:  # the probe's rhs at the start, if it did not step off, is LSODA's start rate
        stepper = _Lsoda(rhs, t_cur, z_cur, t_end, rtol=rtol, atol=atol, max_step=max_step, jac=jac, f0=f0)
    else:
        extra = {"jac": jac} if jac is not None else {}
        stepper = _SOLVERS[method](rhs, t_cur, z_cur, t_end, rtol=rtol, atol=atol, max_step=max_step, **extra)
    try:
        ts, zs, parts, fired = _step_loop(stepper, rhs, stops, dense)
        nfev, njev, nlu, n_bdf = int(stepper.nfev), int(stepper.njev), int(stepper.nlu), stepper.n_bdf if lsoda else 0
    finally:
        if lsoda:
            stepper.release()
    ts = np.array(ts)
    steps = np.abs(ts[1:] - ts[:-1])  # before the polished hit replaces the root
    # both evaluators keep views of ts, so the polished hit bounds the last segment
    out = (_NordsieckSolution if lsoda else OdeSolution)(ts, parts) if dense else None
    if fired is not None:
        ts[-1], zs[:, -1] = fired[1]  # the polished hit replaces the bracketed root
    return Shot(stop=None if fired is None else fired[0], t=float(ts[-1]), z=np.array(zs[:, -1]), ts=ts, zs=zs,
                dense=out, n_steps=len(ts) - 1, nfev=nfev, min_step=float(steps[steps > 0.0].min(initial=np.inf)),
                njev=njev, nlu=nlu, method=method, n_bdf=n_bdf)


def _first_hit(stops, brackets, sol, rhs, last, d):
    # the roots bracketed in one step, in the order of integration (direction d) on its interpolant sol:
    # the first whose polished state is accepted fires, as (k, hit, root,
    # z_root).  Like solve_ivp, a root on the last step's end keeps last's z.
    # A bracket of zero length (an LSODA step that left t unchanged) is its own root
    roots = [(a if a == b else _brentq(lambda u, s=stops[k]: _gap(s, u, sol(u)), a, b), k)
             for a, b, k in brackets]
    for root, k in sorted(roots, key=lambda rk: (d * rk[0], rk[1])):
        s, z_root = stops[k], last[1] if last is not None and root == last[0] else sol(root)
        hit = root, z_root
        if s.g is None:
            # one Newton step of a level stop's hit time along rhs: the root is
            # within a few ulp, so the first-order move is exact to rounding
            f = np.asarray(rhs(root, z_root), dtype=float)
            if f[s.component] != 0.0 and np.isfinite(f[s.component]):
                dt = -(z_root[s.component] - s.level) / f[s.component]
                hit = root + dt, z_root + dt * f
        if s.accept is None or s.accept(hit[1]):
            return k, hit, root, z_root
    return None


def _step_loop(stepper, rhs, stops, dense):
    # the one step loop, for _Lsoda, _Dop853 and scipy's Radau alike: the state is read once per step
    # as floats, the stop values and one rate per level stop are updated in place, and a stop is rooted
    # on the step's interpolant only where its sign changed or where a level's crossing hides behind a turn
    lsoda, d = isinstance(stepper, _Lsoda), float(stepper.direction)
    # what a step leaves for dense output (scipy's interpolant or _Lsoda's record), its interpolant, and how
    # its end rates are read: f[c] * w has the sign of z[c]'s rate along the direction of integration, and
    # scales() gives the positive factors that make the values at the step's start and end that rate
    part_of, interpolant, w, scales = ((stepper.record, _record_interpolant, 1.0, stepper.scales) if lsoda else
                                       (stepper.dense_output, lambda p: p, d, lambda: (1.0, 1.0)))
    y, f, sol = stepper.y, stepper.f, None
    n, ts, zs, parts, fired = len(y), [stepper.t], y.tolist(), [], None
    g_old = [_gap(s, stepper.t, y) for s in stops]
    r_old = [0.0 if s.g is not None else f[s.component] * w for s in stops]  # f[c] * w at the step's start
    specs = [(k, s.component, s.level, s.g, s.direction) for k, s in enumerate(stops)]
    for k, s in enumerate(stops):
        if s.g is None and g_old[k] == 0.0:
            # a start on the level that leaves it against the stop's direction
            # (it was not stepped off) counts from the side it comes from, so
            # a return inside the first step is rooted at the turn, not at t0
            g_old[k] = -r_old[k]
    while fired is None and stepper.status == "running":
        message = stepper.step()
        if message is not None:
            raise (StepSizeUnderflow if "step size" in message.lower() else NumericalFailure)(message)
        y, f, sol = stepper.y, stepper.f, None  # new objects at each step, but _Lsoda writes in place
        t, z = stepper.t, y.tolist()
        part = part_of() if dense else None
        brackets = []
        for k, c, level, g, direction in specs:
            g0, r0 = g_old[k], r_old[k]
            g1 = g_old[k] = z[c] - level if g is None else g(t, y)
            r1 = r_old[k] = f[c] * w if g is None else 0.0  # a general g has no turn
            if not g0 * g1 > 0.0:  # only a stop whose sign changed (or that touched zero) can have crossed
                if _crossed(g0, g1, direction):
                    brackets.append((stepper.t_old, t, k))
            elif r0 * g0 < 0.0 < r1 * g0:
                # z moved toward the level and then away, on one side of it at both ends
                sol, t_old, (s0, s1) = sol or interpolant(part or part_of()), stepper.t_old, scales()
                t_turn = _turn(lambda u: d * rhs(u, sol(u))[c], t_old, t, r0 * s0, r1 * s1)
                side = np.sign(g0)
                if side * (sol(t_turn)[c] - level) < -TOUCH:  # beyond the level: it crossed and came back
                    brackets += [(a, b, k) for a, b, way in ((t_old, t_turn, -side), (t_turn, t, side))
                                 if direction in (0, way)]
        if brackets:
            last = (ts[-1], np.array(zs[-n:])) if dense and len(ts) > 1 else None
            fired = _first_hit(stops, brackets, sol or interpolant(part or part_of()), rhs, last, d)
            t, z = (t, z) if fired is None else (fired[2], fired[3].tolist())
        if not (dense and len(ts) > 1 and t == ts[-1]):  # a root on the last step's end adds no segment
            ts.append(t)
            zs += z
            if dense:
                parts.append(part)
    return ts, np.array(zs).reshape(-1, n).T, parts, fired


class _Dop853:
    """scipy ``DOP853``'s tableau and step control on Python floats: the
    initial step of ``select_initial_step`` at error order 7, the err5/err3
    norm, safety 0.9, step factors in [0.2, 10] at exponent -1/8 and the
    10-ulp minimum step, below which a step fails with scipy's text.  Each
    component keeps its stage rates in one list, and each stage sum is the
    correctly rounded ``math.fsum`` of its products, so the digits depend on
    neither BLAS nor the Python version and lie within rounding of scipy's.
    :meth:`dense_output` returns scipy's ``Dop853DenseOutput``, its ``F``
    formed as ``DOP853`` forms it from 3 more stages."""

    # stage k's weights; stage 12 (A[12] = B, C[12] = 1) is the step's end and its rate
    A = [tuple(row[:k]) for k, row in enumerate(dop853_coefficients.A.tolist())]
    C, E5, E3, D = (getattr(dop853_coefficients, k).tolist() for k in ("C", "E5", "E3", "D"))
    njev = nlu = 0

    def __init__(self, rhs, t0: float, y0: np.ndarray, t_bound: float, *, rtol: float, atol: float,
                 max_step: float):
        if not (isinstance(rtol, float) and isinstance(atol, float) and rtol >= _RTOL_FLOOR and atol >= 0.0):
            rtol, atol = validate_tol(rtol, atol, len(y0))  # DOP853's check, where it can change or reject one
        if not max_step > 0:
            raise ValueError("`max_step` must be positive.")
        self.rhs, self.t, self.t_old, self.t_bound, self.max_step = rhs, t0, None, t_bound, max_step
        self.y, self.rtol, self.atol = np.array(y0, dtype=float), float(rtol), float(atol)
        self._y, self.f = self.y.tolist(), list(rhs(t0, self.y))
        self.direction, self.status, self.nfev = 1.0 if t_bound >= t0 else -1.0, "running", 1 + (t_bound != t0)
        self.h_abs = float(select_initial_step(rhs, t0, self.y, t_bound, max_step, np.asarray(self.f, dtype=float),
                                               self.direction, 7, rtol, atol))  # its probe is the second call
        self._cols = [[0.0] * 16 for _ in self._y]  # [i][k]: stage k's rate of component i

    def _stages(self, t: float, y: list, h: float, first: int, stop: int) -> np.ndarray:
        # stages first..stop-1 of the step of size h from (t, y), as rk_step
        # forms them; returns the last stage's state
        cols, rhs, A, C = self._cols, self.rhs, self.A, self.C
        for k in range(first, stop):
            z = np.array([yi + fsum(map(mul, A[k], ci)) * h for yi, ci in zip(y, cols)])
            for ci, v in zip(cols, rhs(t + C[k] * h, z)):
                ci[k] = v
        return z

    def step(self) -> str | None:
        """One step, as ``OdeSolver.step`` takes it; returns the failure text or None."""
        t, d, t_bound, y, cols = self.t, self.direction, self.t_bound, self._y, self._cols
        if t == t_bound:  # the zero-length span's one empty step
            self.t_old, self.status = t, "finished"
            return None
        for ci, v in zip(cols, self.f):
            ci[0] = v
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs, rejected = self.max_step if self.h_abs > self.max_step else max(self.h_abs, min_step), False
        while True:  # RungeKutta._step_impl's loop
            if h_abs < min_step:
                self.status = "failed"
                return OdeSolver.TOO_SMALL_STEP
            t_new = t_bound if d * (t + h_abs * d - t_bound) > 0 else t + h_abs * d
            h = t_new - t
            h_abs = abs(h)
            y_arr = self._stages(t, y, h, 1, 13)
            y_new, e5, e3 = y_arr.tolist(), 0.0, 0.0
            self.nfev += 12
            for yi, vi, ci in zip(y, y_new, cols):
                scale = self.atol + max(abs(yi), abs(vi)) * self.rtol
                a, b = fsum(map(mul, self.E5, ci)) / scale, fsum(map(mul, self.E3, ci)) / scale
                e5, e3 = e5 + a * a, e3 + b * b
            denom = e5 + 0.01 * e3
            error_norm = h_abs * e5 / math.sqrt(denom * len(y)) if denom else 0.0
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm ** -0.125), True
        self.t_old, self.t, self.h_abs, self._y_old = t, t_new, h_abs, self.y
        self._y, self.y, self.f = y_new, y_arr, [ci[12] for ci in cols]
        if d * (t_new - t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> Dop853DenseOutput | ConstantDenseOutput:
        """The last step's interpolant, from 3 more stages (3 rhs calls)."""
        t_old, t, cols = self.t_old, self.t, self._cols
        h = t - t_old  # DOP853.h_previous
        if t == t_old:
            return ConstantDenseOutput(t_old, t, self.y)
        y_old = self._y_old.tolist()
        self._stages(t_old, y_old, h, 13, 16)
        self.nfev += 3
        F = [[dy, h * ci[0] - dy, 2 * dy - h * (ci[12] + ci[0]), *(h * fsum(map(mul, r, ci)) for r in self.D)]
             for dy, ci in ((yi - yo, ci) for yi, yo, ci in zip(self._y, y_old, cols))]
        return Dop853DenseOutput(t_old, t, self._y_old, np.array(F).T)


_SOLVERS = {"DOP853": _Dop853, "Radau": Radau}  # LSODA steps on _Lsoda


class _Lsoda:
    """LSODA stepped one step at a time on the compiled runner of scipy's
    ``lsoda`` integrator class, with the settings of scipy's ``LSODA``: its
    tolerance check, ``rwork[0] = t_bound`` and ``itask = 5`` (one step that
    does not pass ``t_bound``).  No ``ode`` object is built, a step is one
    runner call that writes ``y`` in place, and ``rhs`` has no wrapper.
    The runner keeps a reference to its ``rwork`` and ``iwork`` on every step,
    so the stepper takes a free pair from ``_FREE_WORK`` if there is one, every
    slot rewritten as ``reset`` wrote it, and :meth:`release` gives it back;
    ``list.pop`` and ``append`` are atomic, so no two steppers share a pair."""

    def __init__(self, rhs, t0: float, y0: np.ndarray, t_bound: float, *, rtol: float, atol: float,
                 max_step: float, jac: Callable | None, f0=None):
        if not (isinstance(rtol, float) and isinstance(atol, float) and rtol >= _RTOL_FLOOR and atol >= 0.0):
            rtol, atol = validate_tol(rtol, atol, len(y0))  # LSODA's check, where it can change or reject one
        self.lsoda = lsoda = _ode.lsoda(rtol=rtol, atol=atol, max_step=0.0 if max_step == np.inf else max_step)
        lsoda.reset(len(y0), jac is not None)  # a max_step of 0 is no bound
        lsoda.rwork[0], self.y = t_bound, np.array(y0, dtype=float)
        with suppress(IndexError):  # no free pair: step on reset's
            rwork, iwork = _FREE_WORK.setdefault((lsoda.rwork.size, lsoda.iwork.size), []).pop()
            rwork[:], iwork[:] = lsoda.rwork, lsoda.iwork  # nothing of the pair's last shot survives
            lsoda.rwork, lsoda.iwork = rwork, iwork
        # f is the Nordsieck record's column 1, h f, read in place; until the first step writes it, it
        # holds the start's rate (f0, else one rhs call) at h = +-1, the direction of integration
        n, self._rw, self.direction = len(y0), memoryview(lsoda.rwork), 1.0 if t_bound >= t0 else -1.0
        self.f, lsoda.rwork[11] = self._rw[20 + n:20 + 2 * n], self.direction
        lsoda.rwork[20 + n:20 + 2 * n] = self.direction * np.asarray(rhs(t0, self.y) if f0 is None else f0)
        # rhs, y, t, tout, rtol, atol, itask, istate, rwork, iwork, jac, jt, f/jac params and the saved state
        self._args = [rhs, self.y, t0, t_bound, rtol, atol, 5, 1, lsoda.rwork, lsoda.iwork, jac or (lambda: None),
                      lsoda.call_args[6], (), 1, (), lsoda.state_doubles, lsoda.state_ints]
        self.t, self.t_old, self.t_bound, self.status = t0, None, t_bound, "running"
        self.n_bdf, self._method_used = 0, memoryview(lsoda.iwork)  # [18]: 1 after an Adams step, 2 after a BDF one
        self._runner = lsoda.runner  # the compiled step, looked up once

    def step(self) -> None:
        """One step, as ``OdeSolver.step`` takes it (a zero-length span is one
        empty step) and counted in ``n_bdf`` if taken in BDF mode.  A failure warns
        with scipy's text, then raises ``NumericalFailure`` with the istate, its
        message and the last state; so does a step that ends at a t that is not
        finite, or that leaves t where it was with a state that is not finite."""
        t, args = self.t, self._args
        if t == self.t_bound:
            self.t_old, self.status = t, "finished"
            return
        args[2], self.h_old = t, self._rw[11]  # the h of f at the step's start
        _y, t_new, istate = self._runner(*args)
        if istate < 0:
            message = self.lsoda.messages.get(istate)
            warnings.warn(f"lsoda: {message or f'Unexpected istate={istate:d}'}", stacklevel=2)
            raise NumericalFailure(f"LSODA failed with istate {istate} ({message or 'unknown istate'}) "
                                   f"at t={t_new!r}, z={self.y.tolist()}")
        if t_new == t or not math.isfinite(t_new):
            # a step shorter than ulp(t) leaves t as it was and can recover; a t
            # that is not finite, or a stuck t with a state that is not, never does
            if not (math.isfinite(t_new) and np.isfinite(self.y).all()):
                raise NumericalFailure(f"LSODA cannot advance (istate {istate}) at t={t_new!r}, z={self.y.tolist()}")
        args[7], self.t_old, self.t = 2, t, t_new  # istate 2 continues the integration
        self.n_bdf += self._method_used[18] == 2
        if self.direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"

    def release(self) -> None:
        """Free the work arrays for the next stepper; this one is not read again."""
        _FREE_WORK[self.lsoda.rwork.size, self.lsoda.iwork.size].append((self.lsoda.rwork, self.lsoda.iwork))

    nfev = property(lambda self: self.lsoda.iwork[11])
    njev = nlu = property(lambda self: self.lsoda.iwork[12])  # LSODA evaluates the Jacobian once per LU

    def scales(self) -> tuple[float, float]:
        """1/|h| at the last step's start and end: ``f`` times these are the
        rates there along the direction of integration, with no ``rhs`` call."""
        return 1.0 / abs(self.h_old), 1.0 / abs(self._rw[11])

    def record(self) -> tuple[float, float, int, np.ndarray]:
        """The last step's ``(t, h, order, yh)``: its end and the Nordsieck
        history, read as scipy 1.17's ``LSODA._dense_output_impl`` reads it."""
        iwork, rwork, n = self.lsoda.iwork, self.lsoda.rwork, len(self.y)
        order, h = iwork[13], rwork[11]  # the last step's order, the next step's size
        # rwork holds yh column by column; the record is C-ordered (n, order + 1)
        yh = rwork[20:20 + (order + 1) * n].reshape(order + 1, n).T.copy()
        if iwork[14] < order:
            # an order decrease leaves the last column scaled to the previous step
            yh[:, -1] *= (h / rwork[10]) ** order
        return self.t, h, order, yh


_POWERS = [np.arange(k + 1)[:, None] for k in range(13)]  # LSODA's orders are at most 12


def _record_interpolant(record: tuple[float, float, int, np.ndarray]) -> Callable:
    """One step's interpolant from its :meth:`_Lsoda.record`, with ``LsodaDenseOutput``'s digits."""
    t_end, h, order, yh = record
    p = _POWERS[order][:, 0]
    return lambda u: np.dot(yh, ((u - t_end) / h) ** p)


class _NordsieckSolution:
    """LSODA's dense output over a shot, from one :meth:`_Lsoda.record` per
    step: the digits of ``OdeSolution(ts, [LsodaDenseOutput, ...],
    alt_segment=True)``.  A query picks its segment by ``OdeSolution``'s rule
    (a step time belongs to the step that starts there, times outside ``ts``
    to the end steps), with one ``np.dot`` per segment over its sorted points:
    the power and BLAS kernels round by the group's shape, so one product
    over all points would move digits."""

    def __init__(self, ts: np.ndarray, steps: list):
        self.steps = steps
        self.t_end = np.array([s[0] for s in steps])
        self.h = np.array([s[1] for s in steps])
        self.ascending = ts[-1] >= ts[0]
        self.ts_sorted = ts if self.ascending else ts[::-1]
        self.side = "right" if self.ascending else "left"

    def _segments(self, t):
        last = len(self.steps) - 1
        seg = np.clip(np.searchsorted(self.ts_sorted, t, side=self.side) - 1, 0, last)
        return seg if self.ascending else last - seg

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            return _record_interpolant(self.steps[self._segments(t)])(t)
        rank = np.argsort(t)
        t_sorted = t[rank]
        segs = self._segments(t_sorted)
        x = (t_sorted - self.t_end[segs]) / self.h[segs]
        out = np.empty((self.steps[0][3].shape[0], t.size))
        cuts = [0, *(np.flatnonzero(segs[1:] != segs[:-1]) + 1).tolist(), t.size]
        for a, b, seg in zip(cuts[:-1], cuts[1:], segs[cuts[:-1]].tolist()):
            order, yh = self.steps[seg][2:]
            out[:, a:b] = np.dot(yh, x[a:b] ** _POWERS[order])
        ys = np.empty_like(out)
        ys[:, rank] = out
        return ys


def _turn(rate: Callable[[float], float], a: float, b: float, rate_a: float, rate_b: float) -> float:
    # the zero of a rate that changes sign over the step [a, b]; the ends keep
    # the rates already in hand, so no end costs a call and the bracket holds
    return _brentq(lambda u: rate_a if u == a else rate_b if u == b else rate(u), a, b)


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float = _EPS4, rtol: float = _EPS4) -> float:
    """``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`` to the bit, on
    the compiled routine it wraps, at its maxiter of 100: the one closure
    handed over keeps brentq's NaN check and ``ValueError`` text, and no
    other Python layer runs per evaluation (brentq's wrapper and NaN layer
    cost about 1 us per evaluation: 82 against 75 us for a 7-evaluation
    root on a DOP853 step's interpolant, 2-core x86-64, Python 3.11).
    For every bracketed root in the package; ``xtol`` and ``rtol`` are not
    checked."""
    def checked(u):
        fu = f(u)
        if fu != fu:
            raise ValueError(f"The function value at x={u} is NaN; solver cannot continue.")
        return fu

    return _zeros._brentq(checked, a, b, xtol, rtol, 100, (), False, True)


@dataclass(frozen=True)
class Section:
    """A horizontal Poincare section {y = y0} restricted to a half-line:
    ``half`` keeps x < edge ("x<0"), x > edge ("x>0") or the whole line
    ("all"); its end point ``edge`` defaults to 0.  Any other ``half``, or a
    ``y0`` or ``edge`` that is not finite, is a ``ConfigError``."""

    y0: float
    half: str = "all"  # "x<0" | "x>0" | "all"
    id: str = ""
    edge: float = 0.0

    def __post_init__(self):
        if self.half not in ("x<0", "x>0", "all"):
            raise ConfigError(f"a section's half must be 'x<0', 'x>0' or 'all', got {self.half!r}")
        if not (math.isfinite(self.y0) and math.isfinite(self.edge)):
            raise ConfigError(f"a section needs a finite y0 and edge, got y0={self.y0}, edge={self.edge}")

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

    @property
    def end(self) -> tuple[float, float, float]:
        return float(self.t[-1]), float(self.x[-1]), float(self.y[-1])


@dataclass(frozen=True)
class PoincareResult:
    """Image of one application of a section-to-section map."""

    x: float
    time: float
    flags: dict[str, object] = field(default_factory=dict)


# integrate's band-edge stops, after the section: (edge side, direction, note)
_EDGES = ((-1.0, 1, "enter_strip"), (-1.0, -1, "exit_strip"), (1.0, -1, "enter_strip"), (1.0, 1, "exit_strip"))


def integrate(
    field: "PlanarField",
    start: tuple[float, float],
    until: "Section | float",
    *,
    t_max: float = 1e4,
    strip: float | None = None,
    strip_center: float = 0.0,
    **settings,
) -> Trajectory:
    """Integrate ``field`` from ``start`` until ``until``, a :class:`Section`
    (its crossing Newton-polished) or a final time, with the solver
    ``settings`` given (``method``, ``rtol``, ``atol``, ``max_step``).
    With ``strip``, entries into and exits from the band |y - strip_center| <=
    strip are annotated: each edge is two level stops, one per direction, so
    ``shoot``'s turn rule finds an edge grazed inside one step.  Each edge
    hit restarts the orbit from the polished hit (``shoot`` steps it off),
    and the shots are joined as :func:`~slidekick.fields.filippov_flow`
    joins its arcs.  Raises ``shoot``'s errors, ``NoArrival``, naming the
    last state, when ``t_max`` runs out before the section, and, before any
    shot, ``ConfigError`` on a ``strip`` that is not positive and finite or a
    ``strip_center`` that is not finite."""
    if strip is not None and not 0.0 < strip < math.inf or not math.isfinite(strip_center):
        raise ConfigError(f"integrate needs a positive, finite strip and a finite strip_center, "
                          f"got strip={strip}, strip_center={strip_center}")
    if isinstance(until, Section):
        stops, t_end, kind = [until.stop()], t_max, f"cross_section:{until.id}"
    else:
        stops, t_end, kind = [], float(until), ""
    first_edge = len(stops)
    if strip is not None:
        stops += [Stop(1, strip_center + side * strip, direction) for side, direction, _ in _EDGES]
    t, z, shots, notes = 0.0, start, [], []
    while True:
        shot = shoot(field.rhs, (t, t_end), z, stops, **settings)
        shots.append(shot)
        t, z = shot.t, shot.z
        if shot.stop is None or shot.stop < first_edge:
            break
        notes.append(TrajectoryEvent(t, _EDGES[shot.stop - first_edge][2], (float(z[0]), float(z[1]))))
    if first_edge:
        if shot.stop is None:
            raise NoArrival(f"integrate: t_max={t_max} ran out before y = {until.y0}; "
                            f"last state t={t}, x={z[0]}, y={z[1]}")
        notes.append(TrajectoryEvent(t, kind, (float(z[0]), float(z[1]))))
    return Trajectory(np.concatenate([s.ts for s in shots]), *np.hstack([s.zs for s in shots]), notes)
