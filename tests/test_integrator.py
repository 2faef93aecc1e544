import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slidekick

from slidekick.cli import _write_trajectory
from slidekick.fields import PlanarField
from slidekick.integrator import (
    EventNotBracketed,
    NoArrival,
    Section,
    Trajectory,
    Stop,
    integrate,
    shoot,
)
from slidekick.poincare import exterior_map


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


def test_until_predicate(xplus):
    traj = integrate(xplus, (0.1, 0.0), lambda t, x, y: x - 1.0)
    assert traj.end[1] == pytest.approx(1.0, abs=1e-10)


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


def test_section_edge(xplus):
    a, b = Section(0.25, "x<0", id="h", edge=-0.1), Section(0.25, "x<0", id="h", edge=0.3)
    assert a != b
    # y = x^2 - 0.25 meets y = 0.25 at x = -sqrt(0.5) first; an edge at -0.5
    # rejects that crossing and the orbit goes on to +sqrt(0.5)
    r = exterior_map(xplus, (-0.8, 0.39), Section(0.25, "x>0", edge=-0.5))
    assert r.x == pytest.approx(math.sqrt(0.5), abs=1e-10)
    r = exterior_map(xplus, (-0.8, 0.39), Section(0.25, "x>0", edge=-0.9))
    assert r.x == pytest.approx(-math.sqrt(0.5), abs=1e-10)


def test_solve_ivp_called_only_from_integrator():
    src = Path(slidekick.__file__).parent
    callers = [p.name for p in src.glob("*.py") if "solve_ivp" in p.read_text(encoding="utf-8")]
    assert callers == ["integrator.py"]


def test_radau_steps_match_scipy_bitwise():
    # the LAPACK-direct Radau must reproduce scipy's Radau step for step on
    # a stiff 2-D problem with an event and a complex LU every step
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


def test_radau_factorizes_through_lapack_direct(monkeypatch):
    # scipy's Radau must still call the overridden lu/solve_lu: if scipy
    # renamed them, the override would be dropped silently and the bitwise
    # test above would still pass
    from slidekick import integrator

    calls = {"getrf": 0, "getrs": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for k in "dD":
        monkeypatch.setitem(integrator._GETRF, k, counting("getrf", integrator._GETRF[k]))
        monkeypatch.setitem(integrator._GETRS, k, counting("getrs", integrator._GETRS[k]))
    shot = shoot(lambda t, z: [-1e3 * (z[0] - math.cos(t))], (0.0, 1.0), [0.0], [],
                 jac=lambda t, z: [[-1e3]], method="Radau", rtol=1e-8, atol=1e-10)
    assert shot.n_steps > 5
    assert calls["getrf"] > 0 and calls["getrs"] > 0


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
