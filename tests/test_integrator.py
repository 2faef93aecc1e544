import ast
import inspect
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import LSODA

import slidekick

from slidekick import bifurcation, fields, inner, integrator, poincare, slow_manifold
from slidekick.bifurcation import _stable_separatrix
from slidekick.cli import _write_trajectory
from slidekick.errors import ConfigError, NumericalFailure
from slidekick.fields import FilippovSystem, PlanarField, filippov_flow, find_fold
from slidekick.inner import distinguished_solution, eta1_check, normalized_solution
from slidekick.integrator import (
    EventNotBracketed,
    NoArrival,
    Section,
    Shot,
    StepSizeUnderflow,
    Trajectory,
    Stop,
    integrate,
    shoot,
)
from slidekick.models import model
from slidekick.poincare import _stage_P, exterior_map
from slidekick.regularization import RegularizedSystem, phi_linear, phi_polynomial
from slidekick.slow_manifold import strip_crossing, trace_manifold


@pytest.fixture(scope="module")
def xplus():
    return PlanarField(lambda x, y: (1.0, 2.0 * x), name="X+")


@pytest.fixture(scope="module")
def xminus():
    return PlanarField(lambda x, y: (0.0, 1.0), name="X-")


def test_parabola_landing(xplus):
    # orbits satisfy y - y0 = x^2 - x0^2; target x = -sqrt(0.64 + 0.25 - 0.39)
    traj = integrate(xplus, (-0.8, 0.39), Section(0.25, "x<0", id="s"))
    assert traj.end[1] == pytest.approx(-math.sqrt(0.5), abs=1e-10)


def test_constant_field_timing(xminus):
    traj = integrate(xminus, (0.3, -0.5), Section(0.0, "all", id="s"))
    t, x, y = traj.end
    assert x == pytest.approx(0.3, abs=1e-12)
    assert t == pytest.approx(0.5, rel=1e-10)
    assert abs(y) < 1e-12


def test_event_residual_polish(xplus):
    traj = integrate(xplus, (-0.8, 0.39), Section(0.25, "x<0", id="s"))
    assert abs(traj.end[2] - 0.25) <= 1e-12


def test_until_time(xplus):
    traj = integrate(xplus, (0.0, 0.0), 2.0)
    assert traj.end[0] == pytest.approx(2.0)
    assert traj.end[1] == pytest.approx(2.0, rel=1e-10)
    assert traj.end[2] == pytest.approx(4.0, rel=1e-10)


def test_event_not_bracketed(xplus):
    with pytest.raises(EventNotBracketed):
        integrate(xplus, (0.0, 0.25), Section(0.25, "all", id="s"))


def test_no_arrival(xplus):
    with pytest.raises(NoArrival):
        integrate(xplus, (0.3, 0.5), Section(0.25, "x<0", id="s"), t_max=5.0)


# y = x^2 - 0.25 along X+ from (-0.8, 0.39) meets the band |y| <= 0.05 on
# both sides of x = 0: in at -sqrt(0.3), out at -sqrt(0.2), back in at
# +sqrt(0.2) and out at +sqrt(0.3), wherever the solver's steps fall
STRIP_NOTES = [("enter_strip", -math.sqrt(0.3)), ("exit_strip", -math.sqrt(0.2)),
               ("enter_strip", math.sqrt(0.2)), ("exit_strip", math.sqrt(0.3))]


def _assert_strip_notes(traj):
    notes = [e for e in traj.events if e.kind.endswith("strip")]
    assert [e.kind for e in notes] == [k for k, _ in STRIP_NOTES]
    for e, (_, x) in zip(notes, STRIP_NOTES):
        assert e.location[0] == pytest.approx(x, abs=1e-9)


def test_strip_annotations(xplus):
    traj = integrate(xplus, (-0.8, 0.39), Section(0.39, "x>0", id="s"), strip=0.05)
    _assert_strip_notes(traj)


# the largest note error over delta = 1e-3, 1e-4 and 1e-6, measured both with
# notes located after the shot on its dense output and with band-edge stops:
# DOP853 1.5e-13 and LSODA 1.9e-10, and with band-edge stops on Radau
# 5.1e-14; the bounds give 2.5x
GRAZE_NOTE_TOL = {"Radau": 1.3e-13, "DOP853": 4e-13, "LSODA": 5e-10}


@pytest.mark.parametrize("method", sorted(GRAZE_NOTE_TOL))
@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-6])
def test_strip_notes_of_an_edge_grazed_inside_one_step(monkeypatch, xplus, method, delta):
    # y = x^2 + 0.05 - delta along X+ from (-0.8, 0.69 - delta) dips below the
    # band's upper edge y = 0.05 at x = -sqrt(delta) and comes back out at
    # +sqrt(delta), both inside one wide step whose ends lie above the band:
    # the entry is found on its side of the step's turn at x = 0
    steps, turn = [], integrator._turn
    monkeypatch.setattr(integrator, "_turn", lambda rate, a, b, *ends: steps.append((a, b)) or turn(rate, a, b, *ends))
    traj = integrate(xplus, (-0.8, 0.69 - delta), Section(0.25, "x>0", id="s"), strip=0.05,
                     method=method, rtol=1e-12, atol=1e-14)
    notes = [e for e in traj.events if e.kind.endswith("strip")]
    assert [e.kind for e in notes] == ["enter_strip", "exit_strip"]
    for e, x in zip(notes, (-math.sqrt(delta), math.sqrt(delta))):
        assert abs(e.location[0] - x) <= GRAZE_NOTE_TOL[method]
        assert e.location[1] == pytest.approx(0.05, abs=1e-15)
    assert any(a < notes[0].t and notes[1].t < b for a, b in steps)  # a turned step spans both notes


@pytest.mark.parametrize("strip, center", [(0.0, 0.0), (-0.05, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                                           (0.05, math.nan), (0.05, -math.inf)])
def test_integrate_rejects_a_bad_strip(strip, center):
    # strip = 0 noted each crossing of y = 0 twice, as exit_strip both times
    # on the way down, and a NaN or infinite strip gave no notes at all
    calls = []
    fld = PlanarField(lambda x, y: calls.append(x) or (1.0, 2.0 * x))
    with pytest.raises(ConfigError, match="strip"):
        integrate(fld, (-0.8, 0.39), Section(0.39, "x>0", id="s"), strip=strip, strip_center=center)
    assert calls == []


@pytest.mark.parametrize("y0, edge", [(math.nan, 0.0), (math.inf, 0.0), (0.25, math.nan), (0.25, -math.inf)])
def test_section_rejects_a_bad_level_or_edge(y0, edge):
    # exterior_map stepped a NaN level to t = 1000 and then raised NoArrival
    with pytest.raises(ConfigError, match="finite"):
        Section(y0, "x<0", edge=edge)


def test_section_edge(xplus):
    a, b = Section(0.25, "x<0", id="h", edge=-0.1), Section(0.25, "x<0", id="h", edge=0.3)
    assert a != b
    # y = x^2 - 0.25 meets y = 0.25 at x = -sqrt(0.5) first; an edge at -0.5
    # rejects that crossing and the orbit goes on to +sqrt(0.5)
    r = exterior_map(xplus, (-0.8, 0.39), Section(0.25, "x>0", edge=-0.5))
    assert r.x == pytest.approx(math.sqrt(0.5), abs=1e-10)
    r = exterior_map(xplus, (-0.8, 0.39), Section(0.25, "x>0", edge=-0.9))
    assert r.x == pytest.approx(-math.sqrt(0.5), abs=1e-10)


def test_section_rejects_an_unknown_half():
    # "x<O" (a letter O) kept both half-lines: contains(5) and contains(-5) were True
    for half in ("x<O", "x < 0", ""):
        with pytest.raises(ConfigError, match="half"):
            Section(0.25, half)
    assert [Section(0.25, h).contains(-5.0) for h in ("x<0", "x>0", "all")] == [True, False, True]


def test_rejected_and_accepted_root_in_one_step(xplus):
    # along y = x^2 - 0.25 the orbit meets y = 0.25 at x = -sqrt(0.5), on the
    # wrong half-line, and then y = 0.2 at x = -sqrt(0.45), in one DOP853 step;
    # the rejected root is passed over and the later one fires
    t_wrong, t_hit = 0.8 - math.sqrt(0.5), 0.8 - math.sqrt(0.45)
    shot = shoot(xplus.rhs, (0.0, 10.0), [-0.8, 0.39], [Section(0.25, "x>0").stop(), Stop(1, 0.2, -1)])
    assert shot.stop == 1
    assert shot.ts[-2] < t_wrong < shot.t
    assert abs(shot.z[1] - 0.2) <= 1e-12
    assert shot.t == pytest.approx(t_hit, abs=1e-12)


def test_rejected_roots_run_to_the_end_of_t_span():
    # circles about (1, 0.25) cross y = 0.25 only at x = 0.5 and x = 1.5:
    # about 95 rejected roots by t = 300, and the shot runs to its end
    centre = PlanarField(lambda x, y: (0.25 - y, x - 1.0))
    shot = shoot(centre.rhs, (0.0, 300.0), [1.5, 0.25], [Section(0.25, "x<0").stop()], method="DOP853",
                 max_step=0.25, rtol=1e-12, atol=1e-14)
    assert shot.stop is None and shot.t == 300.0
    with pytest.raises(NoArrival, match="never reached"):
        exterior_map(centre, (1.5, 0.25), Section(0.25, "x<0"), t_max=300.0)


def test_step_size_collapse_is_typed():
    # z' = z^2 from z = 1 blows up at t = 1
    with pytest.raises(StepSizeUnderflow, match="step size"):
        shoot(lambda t, z: [z[0] * z[0]], (0.0, 2.0), [1.0])


def test_other_solver_failure_keeps_its_message(monkeypatch):
    from scipy.integrate import Radau

    class Failing(Radau):
        def _step_impl(self):
            return False, "Excess work done on this call."

    monkeypatch.setitem(integrator._SOLVERS, "Radau", Failing)
    with pytest.raises(NumericalFailure, match="Excess work") as info:
        shoot(lambda t, z: [-z[0]], (0.0, 1.0), [1.0], method="Radau")
    assert not isinstance(info.value, StepSizeUnderflow)


def _users(name):
    # the lines of the package that import or name ``name``, also as the
    # string of a getattr or import_module call (a mention in a docstring or
    # comment, or a string such as the method name "DOP853", is not a use)
    src = Path(slidekick.__file__).parent
    users = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rsplit(".", 1)[-1] for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "getattr", "import_module", "__import__"):
                names = [a.value.rsplit(".", 1)[-1] for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            else:
                continue
            if name in names:
                users.append(f"{path.name}:{node.lineno}")
    return users


def test_no_module_calls_solve_ivp():
    # shoot steps scipy's OdeSolver itself; no module imports or calls solve_ivp
    assert _users("solve_ivp") == []


def test_no_module_calls_scipy_brentq():
    # every bracketed root goes through integrator._brentq, on the compiled
    # routine brentq wraps; no module imports or calls brentq itself
    assert _users("brentq") == []


def test_no_module_imports_scipys_dop853():
    # method="DOP853" steps on integrator._Dop853; scipy's DOP853 stepper is
    # the tests' reference only, and no module imports or names it
    assert _users("DOP853") == []
    assert integrator._SOLVERS["DOP853"] is integrator._Dop853


def test_one_explicit_stepper_and_shoot_defaults_read_exterior():
    # the Filippov flows ride EXTERIOR, so scipy's RK45 left the package: no
    # module imports or names it, shoot selects _Dop853 or scipy's Radau
    # (LSODA steps on _Lsoda), and its defaults are the EXTERIOR row's but
    # for the step cap
    from scipy.integrate import Radau

    assert _users("RK45") == []
    assert integrator._SOLVERS == {"DOP853": integrator._Dop853, "Radau": Radau}
    defaults = {k: p.default for k, p in inspect.signature(shoot).parameters.items()}
    assert {k: defaults[k] for k in ("method", "rtol", "atol")} == {
        k: integrator.EXTERIOR[k] for k in ("method", "rtol", "atol")}
    assert defaults["max_step"] == math.inf


def test_no_module_selects_radau():
    # Radau is the tests' tight reference only: no module passes
    # method="Radau", and the name selects scipy's own stepper
    from scipy.integrate import Radau

    src = Path(slidekick.__file__).parent
    users = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.keyword) and node.arg == "method"
             and isinstance(node.value, ast.Constant) and node.value.value == "Radau"]
    assert users == []
    assert integrator._SOLVERS["Radau"] is Radau


def test_shot_settings_come_from_the_table():
    # a stage's method and tolerances are written once, in integrator's table:
    # no other module passes method, rtol or atol to shoot or integrate as a
    # literal (a call spreads **EXTERIOR, **STIFF, ... instead)
    src = Path(slidekick.__file__).parent
    literals = []
    for path in sorted(src.glob("*.py")):
        if path.name == "integrator.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("shoot", "integrate")):
                continue
            for kw in node.keywords:
                if kw.arg in ("method", "rtol", "atol"):
                    try:
                        ast.literal_eval(kw.value)
                    except ValueError:
                        continue
                    literals.append(f"{path.name}:{kw.value.lineno} {kw.arg}")
    assert literals == []


def test_every_settings_row_has_a_user():
    # a row of the table that no module spreads as **NAME is dead: delete it
    src = Path(slidekick.__file__).parent
    rows = {name for name, value in vars(integrator).items() if isinstance(value, MappingProxyType)}
    spread = {kw.value.id
              for path in sorted(src.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call)
              for kw in node.keywords if kw.arg is None and isinstance(kw.value, ast.Name)}
    assert "EXTERIOR" in rows
    assert rows - spread == set()


def test_shot_settings_table():
    # the values every stage has been shot at, in read-only keyword sets
    assert dict(integrator.EXTERIOR) == {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14, "max_step": 0.25}
    assert dict(integrator.STIFF) == {"method": "LSODA", "rtol": 1e-12, "atol": 1e-14}
    assert dict(integrator.STIFF_TIGHT) == {"method": "LSODA", "rtol": 3e-14, "atol": 1e-16}
    with pytest.raises(TypeError):
        integrator.STIFF["rtol"] = 1e-11


@pytest.mark.parametrize("method", ["LSODA", "Radau", "DOP853"])
def test_every_stepper_roots_its_turns(monkeypatch, lapack_radau, method):
    # circles about the origin turn at x = -1 once a loop (t = pi, 3 pi and
    # 5 pi by t = 20) without reaching the level x = -2: every stepper roots
    # each turn on its interpolant, with rhs calls that a shot without stops
    # does not make, and the stop never fires.  Radau steps on the faster
    # LAPACK-backed class, with the same digits
    def counted():
        calls = []
        return calls, lambda t, z: calls.append(t) or [z[1], -z[0]]

    turns, turn = [], integrator._turn
    monkeypatch.setattr(integrator, "_turn", lambda *args: turns.append(turn(*args)) or turns[-1])
    with_stop, rhs = counted()
    assert shoot(rhs, (0.0, 20.0), [1.0, 0.0], [Stop(0, -2.0, -1)], method=method).stop is None
    assert turns == pytest.approx([math.pi, 3 * math.pi, 5 * math.pi], abs=1e-6)
    without, rhs = counted()
    shoot(rhs, (0.0, 20.0), [1.0, 0.0], method=method)
    assert len(with_stop) > len(without) and len(turns) == 3


def test_one_step_loop_serves_every_method():
    # every stepper, scipy's OdeSolvers and _Lsoda alike, is stepped in one
    # loop: integrator.py has exactly one while loop that calls .step()
    tree = ast.parse(Path(integrator.__file__).read_text(encoding="utf-8"))
    loops = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.While)
             and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "step"
                     for call in ast.walk(node))]
    assert len(loops) == 1


# x' = 1, y' = 1 - 2x from the origin: y = t - t^2 peaks at 1/4 at t = 1/2.
# At rtol 1e-10, atol 1e-12 Radau steps over [0.111, 1.111], DOP853 over
# [0.248, 1.285] and LSODA over [0.228, 0.913], below y = 0.2 at both ends:
# the crossings of that level at 1/2 -+ sqrt(0.05) hide behind the turn,
# while x crosses 0.8 or 0.25 inside the same step.  DOP853 from (1.5, -0.75)
# down to t = 0 steps over [1.233, 0]; the orbit is symmetric under
# t -> 1 - t, so its stops and hit are the mirror's
HILL_SHOTS = {"Radau": ("Radau", (0.0, 2.0), [0.0, 0.0]), "DOP853": ("DOP853", (0.0, 2.0), [0.0, 0.0]),
              "LSODA": ("LSODA", (0.0, 2.0), [0.0, 0.0]),
              "DOP853-descending": ("DOP853", (1.5, 0.0), [1.5, -0.75])}


def _hill(t, z):
    return [1.0, 1.0 - 2.0 * z[0]]


@pytest.mark.parametrize("hill_shot", HILL_SHOTS.values(), ids=HILL_SHOTS.keys())
@pytest.mark.parametrize("hidden, seen, fires, t_hit", [
    (Stop(1, 0.2), Stop(0, 0.8, 1), 0, 0.5 - math.sqrt(0.05)),
    (Stop(1, 0.2, -1), Stop(0, 0.8, 1), 0, 0.5 + math.sqrt(0.05)),
    (Stop(1, 0.2), Stop(0, 0.25, 1), 1, 0.25),
], ids=["hidden-up-first", "hidden-down-first", "sign-change-first"])
def test_turn_and_sign_change_in_one_step(hill_shot, hidden, seen, fires, t_hit):
    # one step brackets stop A behind its turn and stop B by its sign change;
    # the earlier root along the direction of integration fires, whichever
    # order the stops are given in, within 1e-12 of its level
    method, t_span, z0 = hill_shot
    if t_span[1] < t_span[0]:  # x = t runs down: the mirror t -> 1 - t of the ascending case
        seen, t_hit = Stop(0, 1.0 - seen.level, -seen.direction), 1.0 - t_hit
    plain = shoot(_hill, t_span, z0, method=method, rtol=1e-10, atol=1e-12)
    k = int(np.argmax((plain.ts - 0.5) * (t_span[1] - t_span[0]) > 0.0))  # the step over t = 1/2
    a, b = plain.ts[k - 1], plain.ts[k]
    lo, hi = sorted((a, b))
    assert lo < 0.5 - math.sqrt(0.05) and 0.5 + math.sqrt(0.05) < hi and lo < seen.level < hi
    assert max(plain.zs[1, k - 1], plain.zs[1, k]) < 0.2
    hits = []
    for stops in ([hidden, seen], [seen, hidden]):
        shot = shoot(_hill, t_span, z0, stops, method=method, rtol=1e-10, atol=1e-12)
        fired = stops[shot.stop]
        assert fired is (hidden, seen)[fires] and abs(shot.z[fired.component] - fired.level) <= 1e-12
        assert shot.ts[-2] == a and shot.t == pytest.approx(t_hit, abs=1e-12)
        hits.append((shot.t, *shot.z))
    assert hits[0] == hits[1]


@pytest.mark.parametrize("method", ["LSODA", "Radau", "DOP853"])
def test_step_off_follows_the_direction_of_integration(monkeypatch, method):
    # x' = y, y' = -x from (1, 0) down to t = -10: y = -sin t rises off the
    # level y = 0.  Against a downward stop the start is not stepped off
    # (ts[0] once read 1e-11, outside the span) and the return at -pi fires;
    # an upward stop steps the start off to -1e-11 and fires at -2 pi.  y
    # never moves toward the level and then away, so no turn is rooted
    def circle(t, z):
        return [z[1], -z[0]]

    turns = []
    monkeypatch.setattr(integrator, "_turn", lambda *args: turns.append(args))
    for direction, t0, t_hit in ((-1, 0.0, -math.pi), (1, -1e-11, -2 * math.pi)):
        shot = shoot(circle, (0.0, -10.0), [1.0, 0.0], [Stop(1, 0.0, direction)], method=method)
        assert shot.ts[0] == t0 and shot.stop == 0 and abs(shot.z[1]) <= 1e-12
        assert shot.t == pytest.approx(t_hit, abs=1e-8)
    assert turns == []


@pytest.mark.parametrize("method", ["LSODA", "Radau", "DOP853"])
def test_min_step_of_a_descending_shot(method):
    # z' = z from t = 5 down to 0: min_step read inf on every stepper, as no
    # step was positive; it is the smallest nonzero |step| either way, as in
    # the reference on solve_ivp
    shot = shoot(lambda t, z: [z[0]], (5.0, 0.0), [1.0], method=method)
    steps = np.abs(np.diff(shot.ts))
    assert shot.n_steps > 10 and shot.min_step == steps[steps > 0.0].min() < 1.0
    if method != "DOP853":  # integrator._Dop853 lies within rounding of scipy's steps
        assert shot.min_step == _solve_ivp_shoot(lambda t, z: [z[0]], (5.0, 0.0), [1.0], method=method).min_step


def _solve_ivp_shoot(rhs, t_span, z0, stops=(), *, jac=None, method=integrator.EXTERIOR["method"],
                     rtol=integrator.EXTERIOR["rtol"], atol=integrator.EXTERIOR["atol"], max_step=np.inf, dense=False):
    """``shoot`` written on ``solve_ivp``: the reference of the agreement
    guard.  A root that ``accept`` rejected was stepped past by 1e-12 and
    the solve restarted from there, at most 64 times."""
    from scipy.integrate import OdeSolution, solve_ivp

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

    def event(stop):
        if stop.g is None:
            def ev(t, z, i=stop.component, c=stop.level):
                return z[i] - c
        else:
            def ev(t, z, g=stop.g):
                return g(t, z)
        ev.terminal = True
        ev.direction = stop.direction
        return ev

    events = [event(s) for s in stops] or None
    extra = {"jac": jac} if jac is not None else {}
    ts, zs, parts = [], [], []
    n_steps, nfev, njev, nlu, min_step = 0, 0, 0, 0, np.inf
    for _ in range(64):
        sol = solve_ivp(rhs, (t_cur, t_end), z_cur, method=method, rtol=rtol, atol=atol,
                        max_step=max_step, dense_output=dense, events=events, **extra)
        if sol.status == -1:
            if "step size" in sol.message.lower():
                raise StepSizeUnderflow(sol.message)
            raise NumericalFailure(sol.message)
        n_steps += len(sol.t) - 1
        nfev, njev, nlu = nfev + sol.nfev, njev + sol.njev, nlu + sol.nlu
        steps = np.abs(np.diff(sol.t))
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
                dt = -(z[s.component] - s.level) / f[s.component]
                t, z = t + dt, z + dt * f
                sol.t[-1], sol.y[:, -1] = t, z
            if s.accept is not None and not s.accept(z):
                h = max(1e-12, 1e-12 * abs(t))
                t_cur, z_cur = t + h, z + h * f
                continue
        if len(parts) > 1:
            joined = OdeSolution(np.concatenate([p.ts[:-1] for p in parts[:-1]] + [parts[-1].ts]),
                                 [i for p in parts for i in p.interpolants])
        else:
            joined = parts[0] if dense else None
        return Shot(stop=fired, t=float(t), z=np.array(z), ts=np.concatenate(ts),
                    zs=np.concatenate(zs, axis=1), dense=joined, n_steps=n_steps, nfev=nfev,
                    min_step=float(min_step) if n_steps else 0.0, njev=njev, nlu=nlu, method=method)
    raise NoArrival("restart budget for rejected stop crossings exhausted")


# the second dips to y = -1e-4, below the strip top 1e-3, inside one step:
# solve_ivp flies over the dip, shoot roots its turn and lands on the
# closed-form entry
GRAZING_STAGE_P = (-0.8, -0.5001)


class _LoggedDense:
    """A shot's dense output that logs every query made of it."""

    def __init__(self, dense):
        self.dense, self.queries = dense, []

    def __call__(self, t):
        self.queries.append(t)
        return self.dense(t)


def _probe_shots(shoot_calls, monkeypatch):
    """Every shoot call (arguments and result) of the agreement probe set,
    and the indices of the Filippov flow's; a dense result logs the queries
    that its caller makes of it."""
    modules = (bifurcation, fields, inner, poincare, slow_manifold)
    calls = shoot_calls(*modules)
    record = inner.shoot  # the fixture's recording shoot

    def logged(*args, **kwargs):
        shot = record(*args, **kwargs)
        if shot.dense is not None:
            shot.dense = _LoggedDense(shot.dense)
        return shot

    for mod in modules:
        monkeypatch.setattr(mod, "shoot", logged)
    nf = model("normal-fold")
    for profile, eps in ((phi_polynomial(2), 1e-3), (phi_polynomial(2), 1e-4), (phi_linear(), 1e-4)):
        strip_crossing(RegularizedSystem(nf.system, profile, eps), -0.75, x_limit=0.4)
    for x in GRAZING_STAGE_P:
        _stage_P(nf.system.x_plus, x, 0.25, 1e-3)
    coulomb = model("coulomb")
    fold = find_fold(coulomb.system, coulomb.fold_bracket)
    exterior_map(coulomb.system.x_plus, (fold.x - 0.3, 0.25), Section(0.25, "x>0", edge=fold.x),
                 floor_margin=5e-4)
    n_before = len(calls)
    filippov_flow(FilippovSystem(nf.system.x_plus, nf.system.x_minus), (-0.5, 0.25),
                  Section(0.25, "x>0"))
    flow = range(n_before, len(calls))
    trace_manifold(RegularizedSystem(nf.system, phi_polynomial(2), 1e-3), -1.0, 1.0)
    distinguished_solution.__wrapped__(2, phi_polynomial(2).c_p)
    normalized_solution.__wrapped__(2)
    eta1_check(2, -1.5, 0.3)  # the 2-D state
    _stable_separatrix(model("saddle-homoclinic", nu=0.15))  # DOP853 with dense output
    # scipy's Radau, the one OdeSolver left, stepped by shoot's loop: a level
    # stop that fires, and a dense shot whose g stop fires
    radau = {"method": "Radau", "rtol": 1e-10, "atol": 1e-12}
    logged(nf.system.x_plus.rhs, (0.0, 10.0), [-0.8, 0.1], [Stop(1, 0.0, -1)], **radau)
    logged(nf.system.x_plus.rhs, (0.0, 10.0), [-0.8, 0.1], [Stop(g=lambda t, z: z[0] + 0.5, direction=1)],
           dense=True, **radau)
    return calls, flow


def test_shoot_matches_solve_ivp_bitwise(shoot_calls, monkeypatch):
    # the stepping loop reproduces solve_ivp's steps, event roots, polish,
    # work counts and dense output digit for digit on orbits without a
    # rejected root, except where a crossing hides inside one step; the dense
    # output agrees on every query its callers made (the inner 4001- and
    # 2001-point grids, the manifold trace's 1200 + 600 points, eta1_check's
    # 60 points and its scalar at u = -10)
    calls, flow = _probe_shots(shoot_calls, monkeypatch)
    seen = {(s.method, s.stop, kw.get("dense", False)) for _a, kw, s in calls}
    assert {("LSODA", 0, False), ("DOP853", 1, True), ("Radau", 0, False), ("Radau", 0, True), ("LSODA", 1, True),
            ("LSODA", None, True)} <= seen
    queried = set()
    for k, (args, kwargs, shot) in enumerate(calls):
        assert shot.method == kwargs["method"]
        ref = _solve_ivp_shoot(*args, **kwargs)
        if tuple(args[2]) == (GRAZING_STAGE_P[1], 0.25):
            assert ref.stop != 0 and shot.stop == 0
            assert abs(shot.z[0] + math.sqrt(0.5001**2 + 1e-3 - 0.25)) <= 1e-12
            continue
        if shot.method == "DOP853":
            # the flow's X+ = (1, 2x) has orbits quadratic in t: DOP853's step sizes follow
            # the rounding of its stage sums, as in test_dop853_stepper_agrees_with_scipys_dop853
            _agrees_with_scipys_dop853(args, kwargs, shot, ref, steps_off=int(k in flow))
            continue
        assert (shot.stop, shot.t, shot.n_steps, shot.min_step) == (ref.stop, ref.t, ref.n_steps, ref.min_step)
        assert (shot.njev, shot.nlu, shot.nfev) == (ref.njev, ref.nlu, ref.nfev)
        assert np.array_equal(shot.z, ref.z)
        assert np.array_equal(shot.ts, ref.ts) and np.array_equal(shot.zs, ref.zs)
        assert (shot.dense is None) == (ref.dense is None)
        if ref.dense is not None:
            # at a step time the segment chosen (alt_segment) decides the digits
            u = np.concatenate([np.linspace(ref.ts[0], ref.ts[-1], 50), ref.ts[1:51]])
            assert np.array_equal(shot.dense.dense(u), ref.dense(u))
            for q in shot.dense.queries:
                got, want = shot.dense.dense(q), ref.dense(q)
                assert got.shape == want.shape and np.array_equal(got, want)
            queried |= {np.shape(q) for q in shot.dense.queries}
    assert {(4001,), (2001,), (1200,), (600,), (60,), ()} <= queried


def _agrees_with_scipys_dop853(args, kwargs, shot, ref, tol=1e-13, steps_off=0):
    # integrator._Dop853 sums its stages exactly (math.fsum) where scipy's
    # DOP853 sums them with BLAS, so its digits and step sizes differ from
    # solve_ivp's by rounding; the stop and the step count are the same (up
    # to steps_off), and the hit, the states at its own step ends (read on
    # the reference's interpolant) and its dense output agree within tol
    assert (shot.stop, shot.njev, shot.nlu) == (ref.stop, ref.njev, ref.nlu)
    assert abs(shot.n_steps - ref.n_steps) <= steps_off, (shot.n_steps, ref.n_steps)
    assert abs(shot.t - ref.t) <= tol and np.abs(shot.z - ref.z).max() <= tol
    assert shot.ts[0] == ref.ts[0] and np.array_equal(shot.zs[:, 0], ref.zs[:, 0])
    dense = ref.dense or _solve_ivp_shoot(*args, **{**kwargs, "dense": True}).dense
    assert np.abs(shot.zs[:, :-1] - dense(shot.ts[:-1])).max() <= tol
    if shot.dense is not None:
        own = getattr(shot.dense, "dense", shot.dense)  # the probe set logs its callers' queries
        u = np.linspace(ref.ts[0], min(shot.t, ref.t), 101)
        assert np.abs(own(u) - ref.dense(u)).max() <= tol
        for q in getattr(shot.dense, "queries", ()):
            got, want = own(q), ref.dense(q)
            assert got.shape == want.shape and np.abs(got - want).max() <= tol


def test_dop853_stepper_agrees_with_scipys_dop853(shoot_calls):
    # integrator._Dop853 against solve_ivp(method="DOP853") on the exterior
    # shots: 9 landings, the W^s backward shot and the Stribeck upper arc;
    # the worst hit measured 2.3e-14 apart.  The normal-fold X+ = (1, 2x)
    # has orbits quadratic in t, which the pair integrates exactly: its error
    # estimate is rounding, so its step sizes follow the rounding of the
    # stage sums, and one landing (from x = -0.6) takes 9 steps against
    # scipy's 8, its last one of 0.0036 up to the section
    sh, nf, stribeck = model("saddle-homoclinic", nu=0.15), model("normal-fold"), model("stribeck")
    fold = sh.fold().x
    calls = shoot_calls(poincare, bifurcation)
    for dx in (0.0, -0.01, -0.05, -0.1):
        exterior_map(sh.system.x_plus, (fold + dx, 0.0), Section(0.25))
    exterior_map(sh.system.x_plus.negated(), (fold, 0.0), Section(0.25))
    n_sh = len(calls)
    for x in (-0.8, -0.6, -0.52, -0.3):
        exterior_map(nf.system.x_plus, (x, 0.0), Section(0.25))
    n_nf = len(calls)
    _stable_separatrix(sh)
    bifurcation._upper_arc(stribeck.system.x_plus, 1.01, 1e-2, t_max=200.0)
    assert len(calls) == 11 and {c.shot.method for c in calls} == {"DOP853"}
    assert [c.shot.stop for c in calls] == [0] * 9 + [1, 0]  # W^s stops at its lowest point
    for k, (args, kwargs, shot) in enumerate(calls):
        ref = _solve_ivp_shoot(*args, **kwargs)
        _agrees_with_scipys_dop853(args, kwargs, shot, ref, steps_off=int(n_sh <= k < n_nf))
    # both steppers' steps collapse on the start at fold - 0.2
    for run in (shoot, _solve_ivp_shoot):
        with pytest.raises(StepSizeUnderflow, match="step size"):
            run(sh.system.x_plus.rhs, (0.0, 1e3), [fold - 0.2, 0.0], [Section(0.25).stop()], **integrator.EXTERIOR)


def _step_alongside_lsoda(rhs, t0, z0, t_end, settings):
    """Step ``_Lsoda`` and a fresh ``scipy.integrate.LSODA`` side by side:
    at every step the status, t_old, t and y must agree bitwise, and so must
    nfev/njev/nlu and the Nordsieck record against ``dense_output()``.
    Returns (steps, order decreases, the finished stepper, the reference)."""
    stepper, ref = integrator._Lsoda(rhs, t0, z0, t_end, **settings), LSODA(rhs, t0, z0, t_end, **settings)
    steps = decreases = 0
    while ref.status == "running":
        ref.step()
        stepper.step()
        steps += 1
        assert (stepper.status, stepper.t_old, stepper.t) == (ref.status, ref.t_old, ref.t)
        assert np.array_equal(stepper.y, ref.y)
        assert (stepper.nfev, stepper.njev, stepper.nlu) == (ref.nfev, ref.njev, ref.nlu)
        if ref.t == ref.t_old:  # the zero-length span's one empty step
            continue
        t, h, order, yh = stepper.record()
        dense = ref.dense_output()
        assert (t, h, order + 1) == (dense.t, dense.h, dense.p.size)
        assert yh.flags.c_contiguous and yh.dtype == dense.yh.dtype and np.array_equal(yh, dense.yh)
        decreases += int(stepper.lsoda.iwork[14] < stepper.lsoda.iwork[13])
    return steps, decreases, stepper, ref


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_lsoda_stepper_steps_as_scipys_lsoda(shoot_calls, normal_form, poly2):
    # shoot steps LSODA on scipy's compiled lsoda runner, not on scipy's
    # LSODA object.  At every step of the inner (1-D and 2-D), strip and
    # trace probes, a descending shot (at an rtol that LSODA raises to 100
    # ulp) and a zero-length span, the stepper's state, work counts and
    # Nordsieck record must equal a parallel LSODA run's state, counts and
    # dense_output(), so a scipy that changes the runner's arguments or moves
    # the Nordsieck array fails here, not in a digit
    calls = shoot_calls(inner, slow_manifold)
    distinguished_solution.__wrapped__(4, phi_polynomial(4).c_p)
    eta1_check(2, -1.5, 0.3)
    strip_crossing(RegularizedSystem(normal_form, poly2, 1e-4), -0.75, x_limit=0.4)
    trace_manifold(RegularizedSystem(normal_form, poly2, 1e-3), -1.0, 1.0)
    probes = [(rhs, (shot.ts[0], t_span[1]), shot.zs[:, 0], kwargs) for (rhs, t_span, *_z0), kwargs, shot in calls]
    assert all(kwargs["method"] == "LSODA" for *_, kwargs in probes)
    probes += [(lambda t, z: [z[1], -z[0] - 0.1 * z[1]], (0.0, -40.0), np.array([1.0, 0.0]),
                {"rtol": 1e-15, "atol": 1e-16}),
               (lambda t, z: [-z[0]], (2.0, 2.0), np.array([1.0]), {"rtol": 1e-10, "atol": 1e-12})]
    decreases, dims, steps = 0, set(), 0
    for rhs, (t0, t_end), z0, kwargs in probes:
        settings = {"rtol": kwargs["rtol"], "atol": kwargs["atol"], "max_step": kwargs.get("max_step", np.inf),
                    "jac": kwargs.get("jac")}
        n, d, stepper, ref = _step_alongside_lsoda(rhs, t0, z0, t_end, settings)
        steps, decreases = steps + n, decreases + d
        dims.add(ref.n)
    assert decreases > 0 and dims == {1, 2} and steps > 10000
    assert (ref.t_old, ref.t, stepper.nfev) == (2.0, 2.0, 0)


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_lsoda_shots_share_no_state():
    # plain scalar tolerances skip scipy's tolerance check, which leaves them
    # as they are: after a failed shot (istate -2) and after 1-D and 2-D
    # shots at other tolerances, a 2-D shot with an array atol, shots at rtol
    # 1e-15 (raised to 100 ulp) and shots at the earlier tolerances still
    # step bitwise like a fresh scipy LSODA
    def decay(t, z):
        return [-z[0]]

    def oscillator(t, z):
        return [z[1], -z[0] - 0.1 * z[1]]

    with pytest.warns(UserWarning, match="Excess accuracy"), pytest.raises(NumericalFailure, match="istate -2"):
        shoot(decay, (0.0, 2000.0), [1.0], method="LSODA", atol=0.0)
    shoot(decay, (0.0, 5.0), [1.0], method="LSODA", rtol=1e-8, atol=1e-10)
    shoot(oscillator, (0.0, 5.0), [1.0, 0.0], method="LSODA", rtol=1e-8, atol=1e-10)
    for rhs, z0, settings in ((oscillator, [1.0, 0.0], {"rtol": 1e-10, "atol": np.array([1e-12, 1e-9])}),
                              (oscillator, [1.0, 0.0], {"rtol": 1e-15, "atol": 1e-16}),
                              (decay, [1.0], {"rtol": 1e-15, "atol": 1e-16}),
                              (oscillator, [1.0, 0.0], {"rtol": 1e-8, "atol": 1e-10}),
                              (decay, [1.0], {"rtol": 1e-8, "atol": 1e-10})):
        steps, *_ = _step_alongside_lsoda(rhs, 0.0, np.array(z0), 20.0, {**settings, "max_step": np.inf, "jac": None})
        assert steps > 50


def test_lsoda_shot_after_a_raising_rhs_steps_as_scipys():
    # a shot whose rhs raises mid-integration gives its work arrays back with
    # its state in them; the next stepper of that size takes that very pair
    # and still steps bitwise like a fresh scipy LSODA
    def oscillator(t, z):
        return [z[1], -z[0] - 0.1 * z[1]]

    calls = 0

    def failing(t, z):
        nonlocal calls
        calls += 1
        if calls > 40:
            raise KeyError("rhs failed")
        return oscillator(t, z)

    with pytest.raises(KeyError, match="rhs failed"):
        shoot(failing, (0.0, 20.0), [1.0, 0.0], method="LSODA", rtol=1e-8, atol=1e-10)
    rwork, iwork = integrator._FREE_WORK[52, 22][-1]  # lrw, liw of a 2-D shot without Jacobian
    settings = {"rtol": 1e-10, "atol": 1e-12, "max_step": np.inf, "jac": None}
    steps, _, stepper, _ = _step_alongside_lsoda(oscillator, 0.0, np.array([1.0, 0.0]), 20.0, settings)
    assert stepper.lsoda.rwork is rwork and stepper.lsoda.iwork is iwork and steps > 50


def test_lsoda_shots_grow_no_memory():
    # scipy 1.17.1's runner keeps a reference to the work arrays of every
    # step, so shots that each stepped on their own pair leaked about 0.8 KB
    # apiece; on the reused pairs 2000 shots grow nothing
    def oscillator(t, z):
        return [z[1], -z[0]]

    for _ in range(10):
        shoot(oscillator, (0.0, 0.1), [1.0, 0.0], method="LSODA")
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            shoot(oscillator, (0.0, 0.1), [1.0, 0.0], method="LSODA")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert grown < 64 * 1024


def test_lsoda_shots_in_two_threads_step_as_in_series(monkeypatch):
    # two threads draw on one pool of work arrays: each makes the same 20
    # Coulomb crossings on its own RegularizedSystem, with the interpreter
    # switching threads every 10 us, and its exits, times and shot counts
    # equal a serial run's to the bit
    entries = np.linspace(0.9, 0.999, 20).tolist()
    local, start = threading.local(), threading.Barrier(2)

    def record(*args, **kwargs):
        shot = shoot(*args, **kwargs)
        local.counts.append((shot.n_steps, shot.nfev, shot.njev, shot.nlu, shot.n_bdf))
        return shot

    def crossings(barrier=None):
        local.counts = []
        R = RegularizedSystem(model("coulomb", check=False).system, phi_polynomial(2), 1e-3)
        if barrier is not None:
            barrier.wait()
        return [strip_crossing(R, x, x_limit=1.45) for x in entries], local.counts

    monkeypatch.setattr(slow_manifold, "shoot", record)
    serial = crossings()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [f.result() for f in [pool.submit(crossings, start) for _ in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(serial[1]) == len(entries)
    assert all(run == serial for run in runs)


@pytest.mark.parametrize("method", ["LSODA", "DOP853"])
@pytest.mark.parametrize("t_span, z0", [
    ((0.0, 1.0), [0.1, math.inf]), ((0.0, 1.0), [math.nan, 0.0]), ((math.nan, 1.0), [0.1, 0.0]),
    ((-math.inf, 1.0), [0.1, 0.0]), ((0.0, math.nan), [0.1, 0.0]), ((0.0, math.inf), [0.1, 0.0]),
], ids=["z-inf", "z-nan", "t0-nan", "t0-inf", "t1-nan", "t1-inf"])
def test_shoot_rejects_non_finite_inputs(hang_guard, method, t_span, z0):
    # an infinite z0 entry gave 9 LSODA steps of inf with no error, and a NaN
    # start left LSODA's t at NaN, so the shot never finished; an infinite
    # end, which no caller needs, let a stop that never fires run forever
    calls = []
    with pytest.raises(ConfigError, match="finite"):
        shoot(lambda t, z: calls.append(t) or [1.0, 0.0], t_span, z0, [Stop(0, 0.1, 1)], method=method)
    assert calls == []


def test_lsoda_shot_that_cannot_advance_fails(hang_guard):
    # z' = 8/z from z = 0: LSODA returned istate 2 on every call with t stuck
    # at the start and z NaN, so the shot never finished
    with np.errstate(divide="ignore"), pytest.raises(NumericalFailure, match=r"cannot advance \(istate 2\) at "
                                                                          r"t=-24\.0, z=\[nan\]"):
        shoot(lambda t, z: [8.0 / z[0]], (-24.0, 0.0), [0.0], method="LSODA")


def test_stop_inside_a_zero_length_lsoda_step_fires_there(hang_guard):
    # the p = 13 inner denominator seeded just above its null-cline: LSODA
    # takes a step that leaves t at -24, and the stop changes sign over it.
    # brentq on the bracket [t, t] raised "f(a) and f(b) must have different signs"
    shot = shoot(lambda u, z: [8.0 / z[0] - 16504.858398427157 * u**12], (-24.0, 0.0), [1.3272211193103965e-20],
                 [Stop(0, 0.0, -1)], jac=lambda u, z: [[-8.0 / (z[0] * z[0])]], **integrator.STIFF_TIGHT)
    assert shot.stop == 0
    assert shot.t == -24.0


def test_lsoda_failure_names_istate_and_state():
    # z' = -z at atol 0: the error weight rtol |z| shrinks with z until LSODA
    # is asked for more accuracy than the machine has (istate -2)
    with pytest.warns(UserWarning, match="Excess accuracy"):
        with pytest.raises(NumericalFailure, match=r"istate -2 \(Excess accuracy requested.*\) at t=6\d\d\.\d+, "
                                                   r"z=\[\d\.\d+e-\d+\]") as info:
            shoot(lambda t, z: [-z[0]], (0.0, 2000.0), [1.0], method="LSODA", atol=0.0)
    assert not isinstance(info.value, StepSizeUnderflow)


def test_lsoda_dense_matches_odesolution_everywhere():
    # a descending 2-D shot whose stop fires: the polished hit bounds the last
    # segment, step times pick the step that starts there, queries beyond
    # either end extrapolate the end steps, and unsorted arrays and scalars
    # keep OdeSolution's shapes and digits
    def rhs(t, z):
        return [z[1], -z[0] - 0.1 * z[1]]

    args = (rhs, (0.0, -40.0), [1.0, 0.0], [Stop(0, 2.0, 1)])
    kwargs = {"method": "LSODA", "rtol": 1e-10, "atol": 1e-12, "dense": True}
    shot, ref = shoot(*args, **kwargs), _solve_ivp_shoot(*args, **kwargs)
    assert shot.stop == ref.stop == 0 and np.array_equal(shot.ts, ref.ts)
    assert shot.ts[-1] != ref.dense.interpolants[-1].t  # the polished hit is not the step's end
    u = np.concatenate([shot.ts, np.linspace(1.0, shot.t - 1.0, 301)])
    u = np.random.default_rng(1).permutation(u)
    got = shot.dense(u)
    assert got.shape == (2, u.size) and np.array_equal(got, ref.dense(u))
    for q in (1.0, 0.0, shot.ts[5], shot.t, shot.t - 1.0, np.float64(-3.3), np.array(-3.3)):
        got = shot.dense(q)
        assert got.shape == (2,) and np.array_equal(got, ref.dense(q))


def test_lsoda_shots_build_no_scipy_interpolant(monkeypatch):
    # LSODA's dense output is recorded and a bracketed root is found on its
    # step's Nordsieck record: no LSODA shot builds scipy's interpolant, and
    # the roots are those of solve_ivp, which does build it, to the bit
    from scipy.integrate._ivp.lsoda import LsodaDenseOutput

    built = []
    monkeypatch.setattr(LsodaDenseOutput, "__init__", lambda self, *a: built.append(a))

    def circle(t, z):
        return [z[1], -z[0]]

    free = shoot(circle, (0.0, 20.0), [0.0, 1.0], method="LSODA", dense=True)
    assert free.stop is None and free.n_steps > 100
    distinguished_solution.__wrapped__(2, phi_polynomial(2).c_p)  # its stop never fires
    # y = 0 is crossed at x = 1 (passed over) and then at x = -1 (fires)
    hit = shoot(circle, (0.0, 20.0), [0.0, 1.0], [Stop(1, 0.0, accept=lambda z: z[0] < 0)],
                method="LSODA", dense=True)
    assert hit.stop == 0 and abs(hit.z[0] + 1.0) < 1e-8
    probes = [((circle, (0.0, 20.0), [0.0, 1.0], [Stop(1, 0.0, -1)]), {"dense": dense}) for dense in (False, True)]
    probes.append(((circle, (0.0, 20.0), [0.0, 1.0], [Stop(g=lambda t, z: z[0] + z[1] - 0.5, direction=-1)]), {}))
    shots = [shoot(*args, method="LSODA", **kwargs) for args, kwargs in probes]
    assert built == []
    monkeypatch.undo()
    for shot, (args, kwargs) in zip(shots, probes):
        ref = _solve_ivp_shoot(*args, method="LSODA", **kwargs)
        assert shot.stop == ref.stop == 0
        assert (shot.t, shot.n_steps, shot.nfev) == (ref.t, ref.n_steps, ref.nfev)
        assert np.array_equal(shot.z, ref.z) and np.array_equal(shot.zs, ref.zs)


def test_lsoda_steps_only_on_its_stepper():
    # _Lsoda is the one LSODA path: no module names scipy's LSODA or its
    # interpolant (so none can build one or call its dense_output()), and the
    # stepper has no dense_output() to call
    src = Path(slidekick.__file__).parent
    banned = {"LSODA", "LsodaDenseOutput"}
    users = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rsplit(".", 1)[-1] for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & banned:
                users.append(f"{path.name}:{node.lineno}")
    assert users == []
    assert "LSODA" not in integrator._SOLVERS and not hasattr(integrator._Lsoda, "dense_output")


def test_lsoda_shots_build_no_ode(monkeypatch, normal_form, poly2):
    # the stepper is built on scipy's lsoda integrator class and steps on its
    # compiled runner: a strip crossing, an inner solve and a manifold trace
    # build no scipy.integrate.ode and never go through lsoda.run
    from scipy.integrate import _ode

    counts = {"__init__": 0, "run": 0}
    for cls, name in ((_ode.ode, "__init__"), (_ode.lsoda, "run")):
        def counted(*args, _f=getattr(cls, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    strip_crossing(RegularizedSystem(normal_form, poly2, 1e-3), -0.75, x_limit=0.4)
    distinguished_solution.__wrapped__(2, phi_polynomial(2).c_p)
    trace_manifold(RegularizedSystem(normal_form, poly2, 1e-3), -1.0, 1.0)
    assert counts == {"__init__": 0, "run": 0}
    _ode.ode(lambda t, z: [-z[0]]).set_integrator("lsoda").set_initial_value([1.0]).integrate(0.1)
    assert counts["__init__"] == 1 and counts["run"] >= 1  # the counters see scipy's own path


def test_lsoda_loop_makes_no_extra_rhs_call(monkeypatch, normal_form, poly2, shoot_calls):
    # the pinned normal-fold poly(2), eps = 1e-4 crossing: rhs is called by
    # the stepper (nfev) plus 6 times by shoot itself: once because the entry
    # lies on the level v = 1 of its first stop (the step-off probe, kept as
    # the start's rate), 4 times to root the one turn, at the bottom of the
    # fast layer (the step ends' rates are read off the Nordsieck record),
    # and once for the polish of the hit; the Jacobian only by the stepper
    # (njev).  A Python-level call slipped into the step loop shows here
    counts = {"rhs": 0, "jac": 0}
    orbit_equation = slow_manifold._orbit_equation

    def counted(R, timed=False):
        rhs, jac, over_v = orbit_equation(R, timed=timed)

        def counted_rhs(x, z):
            counts["rhs"] += 1
            return rhs(x, z)

        def counted_jac(x, z):
            counts["jac"] += 1
            return jac(x, z)

        return counted_rhs, counted_jac, over_v

    in_turns, turn = [], integrator._turn

    def counted_turn(*args):
        before = counts["rhs"]
        t_turn = turn(*args)
        in_turns.append(counts["rhs"] - before)
        return t_turn

    monkeypatch.setattr(slow_manifold, "_orbit_equation", counted)
    monkeypatch.setattr(integrator, "_turn", counted_turn)
    calls = shoot_calls(slow_manifold)
    strip_crossing(RegularizedSystem(normal_form, poly2, 1e-4), -0.8, x_limit=0.4)
    (call,) = calls
    assert (call.shot.method, call.shot.n_steps, call.shot.nfev, call.shot.njev) == ("LSODA", 1376, 2281, 112)
    assert in_turns == [4]
    assert counts == {"rhs": call.shot.nfev + 6, "jac": call.shot.njev}


def _lsoda_probes(shoot_calls, normal_form, poly2):
    # the tier-1 LSODA probes: every shot of the p = 4 inner solve (1-D), of
    # eta1_check (2-D), of a strip crossing and of a manifold trace, and a
    # descending 2-D shot at an rtol that LSODA raises to 100 ulp
    calls = shoot_calls(inner, slow_manifold)
    distinguished_solution.__wrapped__(4, phi_polynomial(4).c_p)
    eta1_check(2, -1.5, 0.3)
    strip_crossing(RegularizedSystem(normal_form, poly2, 1e-4), -0.75, x_limit=0.4)
    trace_manifold(RegularizedSystem(normal_form, poly2, 1e-3), -1.0, 1.0)
    probes = [(rhs, (shot.ts[0], t_span[1]), shot.zs[:, 0], kwargs) for (rhs, t_span, *_z0), kwargs, shot in calls]
    return probes + [(lambda t, z: [z[1], -z[0] - 0.1 * z[1]], (0.0, -40.0), np.array([1.0, 0.0]),
                      {"rtol": 1e-15, "atol": 1e-16})]


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_lsoda_step_end_rates_agree_with_rhs(shoot_calls, normal_form, poly2):
    # _Lsoda reads the rate at each step's end off the Nordsieck record
    # (column 1, h f, over |h|: the rate along the direction of integration)
    # with no rhs call; at every step end of the tier-1 LSODA probes it has
    # rhs's sign, and lies within 1e-7 of rhs relative to the largest
    # component (4.4e-8 measured, on eta1_check; 5.1e-9 on the strip
    # crossing).  The two shots
    # of the p = 4 inner denominator are the exception: its rate is the
    # difference of two terms of about 2.5e4, with a Jacobian near -4e9, and
    # BDF's slope of the corrected state lies up to 25% off rhs there (0.25
    # and 8.5e-4 measured), so they are held to 0.5
    worst = []
    for rhs, (t0, t_end), z0, kwargs in _lsoda_probes(shoot_calls, normal_form, poly2):
        stepper = integrator._Lsoda(rhs, t0, z0, t_end, rtol=kwargs["rtol"], atol=kwargs["atol"],
                                    max_step=kwargs.get("max_step", np.inf), jac=kwargs.get("jac"))
        rel = 0.0
        while stepper.status == "running":
            stepper.step()
            got = np.array(stepper.f.tolist()) * stepper.scales()[1]
            want = stepper.direction * np.asarray(rhs(stepper.t, stepper.y))
            assert np.array_equal(np.sign(got), np.sign(want))
            rel = max(rel, np.abs(got - want).max() / np.abs(want).max())
        stepper.release()
        worst.append((rhs.__qualname__.startswith("_riccati_shot"), rel))
    assert len(worst) == 7 and sum(riccati for riccati, _ in worst) == 2
    assert max(rel for riccati, rel in worst if riccati) < 0.5
    assert max(rel for riccati, rel in worst if not riccati) < 1e-7


def test_dop853_exterior_shot_work_is_pinned(shoot_calls):
    # one DOP853 shot's steps, solver calls and rhs calls, pinned as LSODA's
    # are above; a Python-level call slipped into the OdeSolver path shows here
    calls = shoot_calls(poincare)

    def counted(field):
        n = []
        return PlanarField(lambda x, y: n.append(1) or field.func(x, y), name=field.name), n

    # saddle-homoclinic's fold orbit to y = 0.25: 12 steps of 12 stages, 2
    # calls for the first step's size and 3 for the interpolant of the step
    # the crossing is rooted on; rhs adds the polish
    sh = model("saddle-homoclinic", nu=0.15)
    field, n = counted(sh.system.x_plus)
    exterior_map(field, (sh.fold().x, 0.0), Section(0.25))
    assert calls[-1].shot.method == "DOP853"
    assert (calls[-1].shot.n_steps, calls[-1].shot.nfev, len(n)) == (12, 149, 150)
    # a normal-fold stage P that dips below the strip top inside one step: the
    # turn check builds that step's interpolant (3 calls), and rhs adds the
    # 3 calls of the turn's root and the polish
    field, n = counted(model("normal-fold").system.x_plus)
    assert _stage_P(field, GRAZING_STAGE_P[1], 0.25, 1e-3)[2]
    assert (calls[-1].shot.n_steps, calls[-1].shot.nfev, len(n)) == (4, 53, 57)


def _dop853_work(monkeypatch):
    # counts integrator._Dop853's attempted steps (each forms stages 1-11
    # once) and the interpolants it builds (each forms stages 13-15)
    work = {"attempts": 0, "interpolants": 0}
    stages = integrator._Dop853._stages

    def counted(self, t, y, h, first, stop):
        work["attempts" if first == 1 else "interpolants"] += 1
        return stages(self, t, y, h, first, stop)

    monkeypatch.setattr(integrator._Dop853, "_stages", counted)
    return work


@pytest.mark.parametrize("case", ["fold-orbit", "dense-separatrix", "rejected-steps", "blow-up"])
def test_dop853_nfev_rule(monkeypatch, case):
    # a DOP853 shot's nfev is 12 per attempted step (11 stages and the rate
    # at its end), 2 for the start's rate and select_initial_step's probe,
    # and 3 per interpolant built (a dense shot's every step, else the steps
    # whose roots or turns are looked at); the pinned fold orbit's 149 is
    # 12 x 12 + 2 + 3
    work = _dop853_work(monkeypatch)
    if case == "fold-orbit":
        sh = model("saddle-homoclinic", nu=0.15)
        shot = shoot(sh.system.x_plus.rhs, (0.0, 1e3), [sh.fold().x, 0.0], [Section(0.25).stop()],
                     **integrator.EXTERIOR)
        assert (work["attempts"], work["interpolants"], shot.nfev) == (12, 1, 149)
    elif case == "dense-separatrix":
        shots = []
        monkeypatch.setattr(bifurcation, "shoot", lambda *a, **k: shots.append(shoot(*a, **k)) or shots[-1])
        _stable_separatrix(model("saddle-homoclinic", nu=0.15))
        (shot,) = shots
        assert work["interpolants"] == shot.n_steps
    elif case == "rejected-steps":  # van der Pol, mu = 5: 17 of 204 attempts rejected
        shot = shoot(lambda t, z: [z[1], 5.0 * (1 - z[0] ** 2) * z[1] - z[0]], (0.0, 10.0), [2.0, 0.0],
                     method="DOP853", rtol=1e-10, atol=1e-12)
        assert work["attempts"] > shot.n_steps and work["interpolants"] == 0
    else:  # z' = z^2 from 1 up to t = 0.999, dense: 57 of 117 attempts are rejected
        shot = shoot(lambda t, z: [z[0] * z[0]], (0.0, 0.999), [1.0], method="DOP853", rtol=1e-10, atol=1e-12,
                     dense=True)
        assert work["attempts"] > shot.n_steps == work["interpolants"]
    assert shot.method == "DOP853"
    assert shot.nfev == 12 * work["attempts"] + 2 + 3 * work["interpolants"]


def _logged(f):
    us = []
    return lambda u: us.append(u) or f(u), us


def test_brentq_helper_is_brentq_to_the_bit():
    # integrator._brentq calls scipy's compiled Brent routine directly: its
    # iterates and root must be brentq's, and a NaN must raise brentq's
    # ValueError; a scipy that moves or changes _zeros._brentq fails here
    from scipy.optimize import brentq

    lsoda = shoot(lambda t, z: [-z[0] * (1.0 + t)], (0.0, 2.0), [1.0], method="LSODA", dense=True)
    row = integrator._record_interpolant(lsoda.dense.steps[3])
    dop = shoot(lambda t, z: [z[1], -z[0]], (0.0, 6.0), [1.0, 0.0], method="DOP853", dense=True)
    step = dop.dense.interpolants[2]
    sh = model("saddle-homoclinic", check=False)
    poly2 = phi_polynomial(2)
    cases = [
        (lambda u: row(u)[0] - 0.5 * (row(lsoda.ts[3])[0] + row(lsoda.ts[4])[0]), lsoda.ts[3], lsoda.ts[4]),
        (lambda u: step(u)[1] - 0.5 * (step(dop.ts[2])[1] + step(dop.ts[3])[1]), dop.ts[2], dop.ts[3]),
        (lambda u: (u * u - 2.0) * u - 5.0, 2.0, 3.0),
        (lambda u: u - 0.5, 0.5, 1.0),  # the bracket's end is the root
        (lambda x: sh.system.x_plus.func(x, sh.system.offset)[1], *sh.fold_bracket),  # find_fold's X2+
        (lambda v: poly2.eval(v) - 0.3, -1.0, 1.0),  # the profile's inverse
    ]
    # each site's tolerance: event location, the W^s landing, find_fold, the grazing
    # crossings, the profile's inverse and the homoclinic gap (brentq's default xtol)
    tol_pairs = [{"xtol": integrator._EPS4, "rtol": integrator._EPS4}, {"xtol": 1e-14},
                 {"xtol": 1e-12}, {"xtol": 1e-13}, {"xtol": 1e-15}, {"xtol": 2e-12}]
    for f, a, b in cases:
        for tols in tol_pairs:
            g, us = _logged(f)
            ref = brentq(g, a, b, **tols)
            h, vs = _logged(f)
            got = integrator._brentq(h, a, b, **tols)
            assert type(got) is float and got.hex() == ref.hex() and vs == us
    assert integrator._brentq(cases[3][0], 0.5, 1.0) == 0.5
    # NaN at the bracket's end, and at the first iterate
    for f in (lambda u: math.nan, lambda u: u - 0.75 if u in (0.0, 1.0) else math.nan):
        with pytest.raises(ValueError, match="is NaN") as ref:
            brentq(f, 0.0, 1.0, xtol=integrator._EPS4, rtol=integrator._EPS4)
        with pytest.raises(ValueError) as got:
            integrator._brentq(f, 0.0, 1.0)
        assert str(got.value) == str(ref.value)


def test_radau_steps_match_scipy_bitwise():
    # shoot's own loop must reproduce solve_ivp step for step on Radau, the
    # tests' tight reference method: a stiff 2-D problem with an event and a
    # complex LU every step
    from scipy.integrate import solve_ivp

    def rhs(t, z):
        return [z[1], 1e3 * ((1.0 - z[0] * z[0]) * z[1]) - z[0]]

    def jac(t, z):
        return [[0.0, 1.0], [-2e3 * z[0] * z[1] - 1.0, 1e3 * (1.0 - z[0] * z[0])]]

    def ev(t, z):
        return z[0] - 1.5

    ev.terminal = True
    ev.direction = -1
    ref = solve_ivp(rhs, (0.0, 3e3), [2.0, 0.0], method="Radau", jac=jac, rtol=1e-9,
                    atol=1e-11, events=[ev], dense_output=True)
    shot = shoot(rhs, (0.0, 3e3), [2.0, 0.0], [Stop(0, 1.5, -1)], jac=jac, method="Radau",
                 rtol=1e-9, atol=1e-11, dense=True)
    assert shot.stop == 0 and ref.status == 1
    assert shot.n_steps == len(ref.t) - 1 > 50
    assert np.array_equal(shot.ts[:-1], ref.t[:-1])
    assert np.array_equal(shot.zs[:, :-1], ref.y[:, :-1])
    mid = 0.5 * (ref.t[1] + ref.t[2])
    assert np.array_equal(shot.dense(mid), ref.sol(mid))


def test_flow_map_matches_closed_form(xplus):
    # P: {y=y0, x<0} -> {y=eps, x<0} is x -> -sqrt(x^2 + eps - y0), run as
    # exterior_map's landing from {y=y0} and back up
    y0 = 0.25
    for eps in (1e-2, 1e-3, 1e-4):
        for x in (-1.0, -0.8, -0.6):
            xe = exterior_map(xplus, (x, y0), Section(eps, "x<0")).x
            assert xe == pytest.approx(-math.sqrt(x * x + eps - y0), abs=1e-9)
            xb = exterior_map(xplus, (-xe, eps), Section(y0, "x>0")).x
            assert xb == pytest.approx(math.sqrt(xe**2 - eps + y0), abs=1e-9)


@settings(derandomize=True, deadline=None)
@given(x=st.floats(-1.0, -0.55), h=st.floats(1e-4, 0.2))
def test_exterior_map_round_trip(xplus, x, h):
    # the orbit from (x, 0.25) is y = 0.25 + (x + t)^2 - x^2; it first meets
    # {y = h} at -sqrt(x^2 + h - 0.25) and stays below h for a time
    # 2 sqrt(x^2 + h - 0.25) >= 0.45, wider than one capped step, so no
    # step may fly over the crossing
    down = exterior_map(xplus, (x, 0.25), Section(h, "x<0")).x
    assert down == pytest.approx(-math.sqrt(x * x + h - 0.25), abs=1e-9)
    back = exterior_map(xplus.negated(), (down, h), Section(0.25)).x
    assert back == pytest.approx(x, abs=1e-9)


def test_time_reversal(xplus):
    rtol = 1e-10
    fwd = integrate(xplus, (-0.6, 0.3), 1.7, rtol=rtol, atol=1e-12)
    back = integrate(xplus.negated(), (fwd.end[1], fwd.end[2]), 1.7, rtol=rtol, atol=1e-12)
    assert abs(back.end[1] - (-0.6)) < 100 * rtol
    assert abs(back.end[2] - 0.3) < 100 * rtol


def test_convergence_under_tolerance_halving():
    # a non-polynomial field so the error estimator is active
    fld = PlanarField(lambda x, y: (-y, x))
    land_coarse = integrate(fld, (1.0, 0.0), 2.0, rtol=1e-8, atol=1e-10).end[1]
    land_fine = integrate(fld, (1.0, 0.0), 2.0, rtol=1e-12, atol=1e-14).end[1]
    assert abs(land_coarse - land_fine) < 10 * 1e-8 * 10


def test_csv_roundtrip(tmp_path, xplus):
    traj = integrate(xplus, (-0.8, 0.39), Section(0.25, "x<0", id="s"))
    path = tmp_path / "traj.csv"
    _write_trajectory(path, traj)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "t,x,y,event"
    assert "\r" not in text
    last = [ln for ln in lines if ln][-1].split(",")
    assert float(last[2]) == pytest.approx(0.25, abs=1e-12)
    assert last[3].startswith("cross_section")


def test_trajectory_events_ordered(xplus):
    traj = integrate(xplus, (-0.8, 0.39), Section(0.25, "x>0", id="s"), strip=0.05)
    assert np.all(np.diff(traj.t) >= 0)
    ev_times = [e.t for e in traj.events]
    assert ev_times == sorted(ev_times)
    _assert_strip_notes(traj)
