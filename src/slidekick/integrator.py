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
of that, the primitive handles four cases:

- step-off: a start within 1e-13 of a level that it would cross at once is
  advanced 1e-11 in time along ``rhs``, so the zero residual of the start is
  not reported as the hit.  A start on an accepted level with no velocity
  across it raises ``EventNotBracketed``;
- accept: a root whose state fails ``accept`` (a crossing on the wrong
  half-line) is passed over; the next root of the same step, in time order,
  is tried, and stepping goes on;
- polish: the hit of a level stop gets one Newton correction of its time,
  with the rate taken from ``rhs``.  That puts the event residual at rounding
  level (the <= 1e-12 event contract).  A general ``g`` keeps the bracketed
  root (4 ulp in time);
- turn: a level can be crossed and recrossed inside one step, with no sign
  change at the step's ends (a graze).  When the component's rate changes
  sign over a step in which z first moved toward the level, :func:`_turn`
  roots the rate on the interpolant; if z there lies beyond the level by
  more than 1e-13, the crossing in the stop's direction is bracketed on
  its side of the turn and treated like any other root (Esposito, Kumar &
  Pappas, HSCC 2001).  A start exactly on a level that it leaves against
  the stop's direction counts from the side it comes from, so its return
  is found at the turn and the start itself is never the hit.  One turn
  per step is seen (opposite rates at the step's ends).  Only RK45, DOP853
  and Radau hold that rate; LSODA shots keep the end-point rule.

Each stage picks its stepper from one table, the read-only keyword sets
:data:`EXTERIOR`, :data:`STIFF`, :data:`STIFF_TIGHT` and :data:`UPPER_ARC`
passed as ``shoot(..., **NAME)``; each names its users and the reason for
its values.  The Filippov flows keep ``shoot``'s defaults.  scipy's Radau
IIA is selectable as ``method="Radau"`` for tight reference solves; no
stage of the package uses it.

RK45, DOP853 and Radau are scipy's ``OdeSolver`` objects.  LSODA steps on
:class:`_Lsoda`, built on scipy's ``lsoda`` integrator class with no
``ode`` object: a step is one direct call of its compiled runner, with no
Python wrapper around ``rhs``, and its steps, states, ``nfev``, ``njev``
and ``nlu`` are scipy ``LSODA``'s to the bit.  Both expose ``step()``,
``t``, ``t_old``, ``y`` and ``status``, and one loop steps them; the type
of the stepper fixes, once per shot, whether turns are looked for (an
``OdeSolver`` holds the rate ``f``) and what a step leaves for dense output.
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

:func:`integrate` builds annotated trajectories on top of :func:`shoot`.
"""

from __future__ import annotations

import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.integrate import DOP853, RK45, OdeSolution, Radau, _ode
from scipy.integrate._ivp.common import validate_tol
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
    nfev: int  # the solver's own rhs calls (not the step-off, turn or polish ones)
    min_step: float
    njev: int  # the solver's Jacobian evaluations
    nlu: int  # the solver's LU decompositions
    n_bdf: int = 0  # LSODA steps taken in BDF (stiff) mode, iwork[18] = 2; 0 for the other methods


_SOLVERS = {"RK45": RK45, "DOP853": DOP853, "Radau": Radau}  # LSODA steps on _Lsoda
# the brentq tolerance of solve_ivp's event location: _brentq hands it to scipy's
# compiled Brent routine (_zeros._brentq), with brentq's NaN check kept
_EPS4 = 4 * np.finfo(float).eps
TOUCH = 1e-13  # a level this close to the state is touched: the step-off and turn tolerance
_RTOL_FLOOR = 100 * np.finfo(float).eps  # validate_tol raises a smaller rtol to this, with a warning
_FREE_WORK: dict[tuple[int, int], list] = {}  # (rwork, iwork) pairs of ended LSODA shots, by their lengths

# Orbits outside the strip: poincare.exterior_map (exterior returns, stage Pbar,
# every landing), poincare._stage_P and bifurcation._stable_separatrix, on the
# Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10).
# At rtol 1e-11 the landings lie 3-5x farther from a tight reference; at 1e-12
# those near the fold are within 5e-12 of DOP853 at rtol 1e-13.  The cap (a
# graze is found at its turn, not by it) keeps exterior_map's landings within
# the 1e-12 of a tier-1 test of the separatrix shot's, so the three share it:
# without it two saddle-homoclinic W^s landings lie 1.2e-12 and 2.3e-12 off.
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
# The densely sampled Stribeck upper arc, bifurcation._upper_arc: RK45, not
# DOP853, because the 0.02 cap for the dense samples binds, so the eighth-order
# steps would be as many and each costs about twice as much.
UPPER_ARC = MappingProxyType({"method": "RK45", "rtol": 1e-11, "atol": 1e-13, "max_step": 0.02})


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
    method: str = "RK45",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = np.inf,
    dense: bool = False,
) -> Shot:
    """Integrate ``rhs`` forward over ``t_span`` until the first accepted stop.

    Steps the ``method`` solver (LSODA, RK45, DOP853 or Radau) in one loop
    shared by all four.  The stops whose sign changed over a step, in their
    direction, are rooted on the step's interpolant, and so is a level
    stop's crossing hidden behind a turn inside the step; the roots are
    tried in time order and the first with an accepted state fires.  The
    turn is looked for only where the solver holds the rate at the step's
    ends (RK45, DOP853, Radau).  LSODA does not, and one ``rhs`` call per
    step would add about 0.9 us to a 4.9 us strip-crossing step (the
    normal-fold poly(2), eps = 1e-4 crossing from x = -0.8: 1376 steps in
    6.7 ms through ``shoot``, 2-core x86-64, Python 3.11), so LSODA shots
    keep the end-point rule.

    Returns the index of the stop that fired (``None`` when ``t_span`` ran
    out first), the hit, the accepted steps, the dense solution if
    ``dense`` is set, the step count, the solver's ``rhs`` call, Jacobian
    and LU counts, the smallest step and, for LSODA, the steps taken in BDF
    mode.  The dense solution maps a time or an array of times to ``(n,)``
    or ``(n, m)`` values; it is an ``OdeSolution`` except for LSODA, whose
    steps are recorded (at most 13 n floats of Nordsieck history per step)
    and evaluated to the digits of ``OdeSolution``.  On the p = 4 inner
    shot a recorded step costs about 2.6 us more than a bare one, against
    6.9 us with one scipy ``LsodaDenseOutput`` per step.

    Raises ``EventNotBracketed`` for a start on an accepted level with zero
    rate, ``StepSizeUnderflow`` when the solver's step size collapses and
    ``NumericalFailure`` with the solver's message on any other failure (for
    LSODA: its istate, scipy's text for it and the last (t, z) reached, also
    for a step that cannot advance), and
    ``ConfigError``, before any ``rhs`` call, on a non-finite ``t_span`` or ``z0``.
    """
    t_cur, t_end = float(t_span[0]), float(t_span[1])
    z_cur = np.asarray(z0, dtype=float)
    if not all(map(math.isfinite, (t_cur, t_end, *z_cur.tolist()))):
        raise ConfigError(f"shoot needs a finite t_span and z0, got t_span={t_span}, z0={z_cur.tolist()}")
    for s in stops:
        if s.g is None and abs(z_cur[s.component] - s.level) <= TOUCH:
            f0 = np.asarray(rhs(t_cur, z_cur), dtype=float)
            rate = f0[s.component]
            if rate * s.direction >= 0.0:
                if rate == 0.0 and (s.accept is None or s.accept(z_cur)):
                    raise EventNotBracketed("start lies on a stop level with zero outgoing velocity")
                t_cur += 1e-11
                z_cur = z_cur + 1e-11 * f0
                break

    lsoda = method == "LSODA"
    if lsoda:
        stepper = _Lsoda(rhs, t_cur, z_cur, t_end, rtol=rtol, atol=atol, max_step=max_step, jac=jac)
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
    steps = ts[1:] - ts[:-1]  # before the polished hit replaces the root
    # both evaluators keep views of ts, so the polished hit bounds the last segment
    out = (_NordsieckSolution if lsoda else OdeSolution)(ts, parts) if dense else None
    if fired is not None:
        ts[-1], zs[:, -1] = fired[1]  # the polished hit replaces the bracketed root
    return Shot(stop=None if fired is None else fired[0], t=float(ts[-1]), z=np.array(zs[:, -1]), ts=ts, zs=zs,
                dense=out, n_steps=len(ts) - 1, nfev=nfev, min_step=float(steps[steps > 0.0].min(initial=np.inf)),
                njev=njev, nlu=nlu, n_bdf=n_bdf)


def _first_hit(stops, brackets, sol, rhs, last):
    # the roots bracketed in one step, in time order on its interpolant sol:
    # the first whose polished state is accepted fires, as (k, hit, root,
    # z_root).  Like solve_ivp, a root on the last step's end keeps last's z.
    # A bracket of zero length (an LSODA step that left t unchanged) is its own root
    roots = [(a if a == b else _brentq(lambda u, s=stops[k]: _gap(s, u, sol(u)), a, b), k)
             for a, b, k in brackets]
    for root, k in sorted(roots):
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
    # the one step loop, for _Lsoda and the OdeSolvers alike: the state is
    # read once per step as floats, the stop values are updated in place, and
    # a stop is rooted on the step's interpolant only where its sign changed
    # or, with the rates at the step's ends in hand (an OdeSolver's f; _Lsoda
    # holds none), where a level's crossing hides behind a turn
    holds_rate = not isinstance(stepper, _Lsoda)
    # what a step leaves for dense output (scipy's interpolant or _Lsoda's record), and its interpolant
    part_of, interpolant = (stepper.dense_output, lambda p: p) if holds_rate else (stepper.record, _record_interpolant)
    y, sol, f = stepper.y, None, stepper.f if holds_rate else None
    n, ts, zs, parts, fired = len(y), [stepper.t], y.tolist(), [], None
    g_old = [_gap(s, stepper.t, y) for s in stops]
    specs = [(k, s.component, s.level, s.g, s.direction, holds_rate and s.g is None) for k, s in enumerate(stops)]
    for k, s in enumerate(stops):
        if holds_rate and s.g is None and g_old[k] == 0.0:
            # a start on the level that leaves it against the stop's direction
            # (it was not stepped off) counts from the side it comes from, so
            # a return inside the first step is rooted at the turn, not at t0
            g_old[k] = -f[s.component]
    while fired is None and stepper.status == "running":
        message = stepper.step()
        if message is not None:
            raise (StepSizeUnderflow if "step size" in message.lower() else NumericalFailure)(message)
        if holds_rate:  # an OdeSolver's y and f are new arrays at each step; _Lsoda writes its y in place
            y, f_old, f, sol = stepper.y, f, stepper.f, None
        t, z = stepper.t, y.tolist()
        part = part_of() if dense else None
        brackets = []
        for k, c, level, g, direction, turns in specs:
            g0 = g_old[k]
            g_old[k] = g1 = z[c] - level if g is None else g(t, y)
            if not g0 * g1 > 0.0:  # only a stop whose sign changed (or that touched zero) can have crossed
                if _crossed(g0, g1, direction):
                    brackets.append((stepper.t_old, t, k))
            elif turns and f_old[c] * g0 < 0.0 < f[c] * g0:
                # z moved toward the level and then away, on one side of it at both ends
                sol, t_old = sol or interpolant(part or part_of()), stepper.t_old
                t_turn = _turn(lambda u: rhs(u, sol(u))[c], t_old, t, f_old[c], f[c])
                side = np.sign(g0)
                if side * (sol(t_turn)[c] - level) < -TOUCH:  # beyond the level: it crossed and came back
                    brackets += [(a, b, k) for a, b, d in ((t_old, t_turn, -side), (t_turn, t, side))
                                 if direction in (0, d)]
        if brackets:
            last = (ts[-1], np.array(zs[-n:])) if dense and len(ts) > 1 else None
            fired = _first_hit(stops, brackets, sol or interpolant(part or part_of()), rhs, last)
            t, z = (t, z) if fired is None else (fired[2], fired[3].tolist())
        if not (dense and len(ts) > 1 and t == ts[-1]):  # a root on the last step's end adds no segment
            ts.append(t)
            zs += z
            if dense:
                parts.append(part)
    return ts, np.array(zs).reshape(-1, n).T, parts, fired


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
                 max_step: float, jac: Callable | None):
        if not (isinstance(rtol, float) and isinstance(atol, float) and rtol >= _RTOL_FLOOR and atol >= 0.0):
            rtol, atol = validate_tol(rtol, atol, len(y0))  # LSODA's check, where it can change or reject one
        self.lsoda = lsoda = _ode.lsoda(rtol=rtol, atol=atol, max_step=0.0 if max_step == np.inf else max_step)
        lsoda.reset(len(y0), jac is not None)  # a max_step of 0 is no bound
        lsoda.rwork[0], self.y = t_bound, np.array(y0, dtype=float)
        with suppress(IndexError):  # no free pair: step on reset's
            rwork, iwork = _FREE_WORK.setdefault((lsoda.rwork.size, lsoda.iwork.size), []).pop()
            rwork[:], iwork[:] = lsoda.rwork, lsoda.iwork  # nothing of the pair's last shot survives
            lsoda.rwork, lsoda.iwork = rwork, iwork
        # rhs, y, t, tout, rtol, atol, itask, istate, rwork, iwork, jac, jt, f/jac params and the saved state
        self._args = [rhs, self.y, t0, t_bound, rtol, atol, 5, 1, lsoda.rwork, lsoda.iwork, jac or (lambda: None),
                      lsoda.call_args[6], (), 1, (), lsoda.state_doubles, lsoda.state_ints]
        self.t, self.t_old, self.t_bound, self.forward, self.status = t0, None, t_bound, t_bound >= t0, "running"
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
        args[2] = t
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
        if (t_new >= self.t_bound) if self.forward else (t_new <= self.t_bound):
            self.status = "finished"

    def release(self) -> None:
        """Free the work arrays for the next stepper; this one is not read again."""
        _FREE_WORK[self.lsoda.rwork.size, self.lsoda.iwork.size].append((self.lsoda.rwork, self.lsoda.iwork))

    @property
    def nfev(self) -> int:
        return self.lsoda.iwork[11]

    @property
    def njev(self) -> int:  # LSODA evaluates the Jacobian once per LU decomposition
        return self.lsoda.iwork[12]

    nlu = njev

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
    cost about 1 us per evaluation: 97 against 88 us for an 8-evaluation
    root on a DOP853 step).
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
    ("all"), and any other ``half`` is a ``ConfigError``; the half-line's
    end point ``edge`` defaults to 0."""

    y0: float
    half: str = "all"  # "x<0" | "x>0" | "all"
    id: str = ""
    edge: float = 0.0

    def __post_init__(self):
        if self.half not in ("x<0", "x>0", "all"):
            raise ConfigError(f"a section's half must be 'x<0', 'x>0' or 'all', got {self.half!r}")

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


def _strip_notes(shot: Shot, rhs: Callable, strip: float, center: float) -> list[TrajectoryEvent]:
    """Entries into and exits from the band |y - center| <= strip, located
    on the dense output like scipy's own events.  A step whose y-rate changes
    sign between its ends (one ``rhs`` call per step end) is split at its
    turn (:func:`_turn`), so a step that passes through the band, or dips
    into it and back out, shows a sign change at each band edge it crosses.
    A step with two turns (same rate sign at both ends) is not split, and an
    edge it touches and leaves again is not marked."""
    def h(t: float) -> float:
        return float(shot.dense(t)[1]) - center

    rates = [rhs(t, z)[1] for t, z in zip(shot.ts, shot.zs.T)]
    knots = [shot.ts[0]]
    for a, b, ra, rb in zip(shot.ts[:-1], shot.ts[1:], rates[:-1], rates[1:]):
        if ra * rb < 0:
            knots.append(_turn(lambda u: rhs(u, shot.dense(u))[1], a, b, ra, rb))
        knots.append(b)
    hs = np.array([h(t) for t in knots])
    notes = []
    for edge in (-strip, strip):
        above = hs > edge
        for k in np.nonzero(above[:-1] != above[1:])[0]:
            te = _brentq(lambda t: h(t) - edge, knots[k], knots[k + 1])
            # from above the upper edge, or from below the lower one, is an entry
            kind = "enter_strip" if above[k] == (edge > 0) else "exit_strip"
            z = shot.dense(te)
            notes.append(TrajectoryEvent(te, kind, (float(z[0]), float(z[1]))))
    return sorted(notes, key=lambda e: e.t)


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
    (its crossing Newton-polished) or a final time, by one :func:`shoot` with
    the solver ``settings`` given (``method``, ``rtol``, ``atol``, ``max_step``).
    With ``strip``, entries into and exits from the band |y - strip_center| <=
    strip are annotated.  Raises ``shoot``'s errors, and ``NoArrival``, naming
    the last state, when ``t_max`` runs out before the section."""
    if isinstance(until, Section):
        stops, t_end, kind = [until.stop()], t_max, f"cross_section:{until.id}"
    else:
        stops, t_end, kind = [], float(until), ""
    shot = shoot(field.rhs, (0.0, t_end), start, stops, dense=strip is not None, **settings)
    if stops and shot.stop is None:
        raise NoArrival(f"integrate: t_max={t_max} ran out before y = {until.y0}; "
                        f"last state t={shot.t}, x={shot.z[0]}, y={shot.z[1]}")
    notes = [] if strip is None else _strip_notes(shot, field.rhs, strip, strip_center)
    if stops:
        notes.append(TrajectoryEvent(shot.t, kind, (float(shot.z[0]), float(shot.z[1]))))
    return Trajectory(shot.ts, shot.zs[0], shot.zs[1], notes)
