import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidekick.fields import (
    EscapeRegion,
    FilippovSystem,
    MultipleRoots,
    NoSignChange,
    NotSliding,
    PlanarField,
    RegionClass,
    classify_point,
    filippov_flow,
    find_fold,
    sliding_field,
)
from slidekick.errors import NumericalFailure
from slidekick.integrator import EXTERIOR, NoArrival, Section, shoot
from slidekick.models import model
from slidekick.poincare import exterior_map


def test_negated_evaluates_the_field_once():
    calls = []

    def f(x, y):
        calls.append((x, y))
        return 1.0, 2.0 * x

    assert PlanarField(f).negated()(0.3, 0.1) == (-1.0, -0.6)
    assert calls == [(0.3, 0.1)]


def test_classify_normal_form(normal_form):
    assert classify_point(normal_form, -0.3) is RegionClass.SLIDING
    assert classify_point(normal_form, 0.3) is RegionClass.CROSSING
    assert classify_point(normal_form, 0.0) is RegionClass.TANGENCY_PLUS


def test_classification_partitions_sigma(normal_form):
    # one class per point; boundaries coincide with roots of the normal components
    xs = np.linspace(-1.0, 1.0, 1000)
    classes = [classify_point(normal_form, x) for x in xs]
    assert all(isinstance(c, RegionClass) for c in classes)
    switches = [
        0.5 * (xs[i] + xs[i + 1])
        for i in range(len(xs) - 1)
        if classes[i] != classes[i + 1]
    ]
    for s in switches:
        assert abs(normal_form.x_plus(s, 0.0)[1]) < 2.5e-3  # grid resolution


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(["normal-fold", "stribeck", "coulomb"]),
       x=st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 0.0, 1.0])))
def test_classification_follows_the_sign_rule(name, x):
    # one class per point of Sigma, and the one the docstring's sign rule on
    # (X2+, X2-) names; the drift is defined exactly on the sliding class
    system = model(name, check=False).system
    fp, fm = system.x_plus(x, system.offset), system.x_minus(x, system.offset)
    tol = 1e-10 * max(1.0, *map(abs, fp + fm))
    cls = classify_point(system, x)
    assert isinstance(cls, RegionClass)
    if abs(fp[1]) <= tol:
        assert cls is RegionClass.TANGENCY_PLUS
    elif abs(fm[1]) <= tol:
        assert cls is RegionClass.TANGENCY_MINUS
    else:
        signs = (math.copysign(1.0, fp[1]), math.copysign(1.0, fm[1]))
        assert cls is {(-1.0, 1.0): RegionClass.SLIDING, (1.0, -1.0): RegionClass.ESCAPING}.get(
            signs, RegionClass.CROSSING)
    if cls is RegionClass.SLIDING:
        assert math.isfinite(sliding_field(system, x))
    else:
        with pytest.raises(NotSliding):
            sliding_field(system, x)


def test_sliding_field_values(normal_form):
    assert sliding_field(normal_form, -0.25) == pytest.approx(2.0 / 3.0, abs=1e-14)
    # limit toward the fold
    assert sliding_field(normal_form, -1e-9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(NotSliding):
        sliding_field(normal_form, 0.3)


def test_sliding_is_the_tangent_convex_combination(normal_form):
    for x in np.linspace(-0.9, -1e-3, 1000):
        fp = normal_form.x_plus(x, 0.0)
        fm = normal_form.x_minus(x, 0.0)
        lam = fm[1] / (fm[1] - fp[1])
        assert 0.0 <= lam <= 1.0
        assert abs(lam * fp[1] + (1 - lam) * fm[1]) < 1e-12
        drift = lam * fp[0] + (1 - lam) * fm[0]
        assert drift == pytest.approx(sliding_field(normal_form, x), abs=1e-12)


def test_find_fold(normal_form):
    f = find_fold(normal_form, (-1.0, 1.0))
    assert f.x == pytest.approx(0.0, abs=1e-12)
    assert f.visible
    assert f.direction == 1
    with pytest.raises(NoSignChange):
        find_fold(normal_form, (0.5, 1.0))


def test_find_fold_multiple_roots():
    xp = PlanarField(lambda x, y: (1.0, (x - 0.3) * (x + 0.3)))
    xm = PlanarField(lambda x, y: (0.0, 1.0))
    with pytest.raises(MultipleRoots):
        find_fold(FilippovSystem(xp, xm), (-1.0, 1.0))


def test_jacobian_fallback_matches_fd():
    fld = PlanarField(lambda x, y: (math.sin(x * y), x * x - y))
    J = fld.jacobian(0.3, -0.7)
    want = np.array([[-0.7 * math.cos(-0.21), 0.3 * math.cos(-0.21)], [0.6, -1.0]])
    assert np.allclose(J, want, rtol=1e-5)


def test_filippov_flow_slide_and_fold_exit(normal_form):
    # start above, land in the sliding region, slide to the fold, exit, reach
    # the outer section at the unstable pseudo-separatrix crossing
    traj = filippov_flow(normal_form, (-0.8, 0.1), Section(0.25, "x>0", id="out"))
    kinds = [e.kind for e in traj.events]
    assert "slide_start" in kinds and "fold_exit" in kinds
    assert traj.end[1] == pytest.approx(0.5, abs=1e-8)
    # sliding time oracle: integrate dx/(1/(1-2x)) = x - x^2 from x_e to 0
    i0 = kinds.index("slide_start")
    x_e = traj.events[i0].location[0]
    t_slide = traj.events[i0 + 1].t - traj.events[i0].t
    assert t_slide == pytest.approx(x_e * x_e - x_e, rel=1e-7)


def test_filippov_flow_grazing_start(normal_form):
    # start on the stable pseudo-separatrix: grazes the fold, returns at +0.5
    traj = filippov_flow(normal_form, (-0.5, 0.25), Section(0.25, "x>0", id="out"))
    assert traj.end[1] == pytest.approx(0.5, abs=1e-6)
    assert any(e.kind == "fold_exit" for e in traj.events)


def test_filippov_flow_crossing_start(normal_form):
    # crossing region: immediate transit into the upper half plane
    traj = filippov_flow(normal_form, (0.3, 0.0), Section(0.25, "x>0", id="out"))
    assert traj.end[1] > 0.3
    assert traj.end[2] == pytest.approx(0.25, abs=1e-10)


def test_filippov_flow_rejects_escaping_start():
    xp = PlanarField(lambda x, y: (1.0, 1.0))
    xm = PlanarField(lambda x, y: (0.0, -1.0))
    with pytest.raises(EscapeRegion):
        filippov_flow(FilippovSystem(xp, xm), (0.0, 0.0), 1.0)


def test_filippov_flow_monotone_slide(normal_form):
    traj = filippov_flow(normal_form, (-0.8, 0.05), "sliding", t_max=10.0)
    # continue a bit of slide manually through the full flow
    traj2 = filippov_flow(normal_form, (-0.8, 0.05), Section(0.25, "x>0", id="s"))
    on_line = np.abs(traj2.y) < 1e-13
    xs = traj2.x[on_line]
    assert np.all(np.diff(xs) > -1e-14)


def test_flow_reproducible(normal_form):
    a = filippov_flow(normal_form, (-0.8, 0.1), Section(0.25, "x>0", id="out"))
    b = filippov_flow(normal_form, (-0.8, 0.1), Section(0.25, "x>0", id="out"))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_offset_switching_line():
    # the same normal form shifted to live on y = 1
    xp = PlanarField(lambda x, y: (1.0, 2.0 * x))
    xm = PlanarField(lambda x, y: (0.0, 1.0))
    sys1 = FilippovSystem(xp, xm, offset=1.0)
    assert classify_point(sys1, -0.3) is RegionClass.SLIDING
    f = find_fold(sys1, (-1.0, 1.0))
    assert f.x == pytest.approx(0.0, abs=1e-12)


def test_filippov_flow_crossing_from_below(normal_form):
    # X- lifts (0.3, -0.5) onto Sigma at t = 0.5, where the orbit crosses into
    # V+ and rides y = x^2 - 0.09 up to y = 0.25
    traj = filippov_flow(normal_form, (0.3, -0.5), Section(0.25, "x>0", id="out"))
    assert [e.kind for e in traj.events] == ["switch_plus", "cross_section:out"]
    t, x, y = traj.end
    assert x == pytest.approx(math.sqrt(0.34), abs=1e-10)
    assert t == pytest.approx(0.2 + math.sqrt(0.34), abs=1e-10)
    assert y == pytest.approx(0.25, abs=1e-12)


def test_filippov_flow_slide_ends_where_x_minus_is_tangent():
    # a start on Sigma in the sliding set; the drift (x - 1)/(x + 1) carries
    # it to x = 0, where X2- = x vanishes, at t = 2 ln 2 - 1/2, and X- takes
    # the orbit below Sigma
    system = FilippovSystem(PlanarField(lambda x, y: (1.0, -1.0)), PlanarField(lambda x, y: (-1.0, x)))
    traj = filippov_flow(system, (0.5, 0.0), 2.0)
    assert [e.kind for e in traj.events] == ["slide_end"]
    t_end = traj.events[0].t
    assert t_end == pytest.approx(2.0 * math.log(2.0) - 0.5, abs=1e-9)
    after = traj.t > t_end + 1e-6
    assert after.any() and np.all(traj.y[after] < 0.0)
    assert traj.end[0] == pytest.approx(2.0, abs=1e-14)


def test_filippov_flow_section_on_sigma(normal_form):
    # the section is Sigma itself: the flow ends at the slide_start hit
    traj = filippov_flow(normal_form, (-0.8, 0.1), Section(0.0))
    assert [e.kind for e in traj.events] == ["slide_start"]
    assert traj.end[0] == traj.events[0].t
    assert traj.end[2] == 0.0


@pytest.mark.parametrize("stop, t_max", [(Section(0.25, "all", id="target"), 0.1), ("sliding", 0.05)],
                         ids=["section-mid-slide", "sliding-before-sigma"])
def test_filippov_flow_raises_when_time_runs_out(normal_form, stop, t_max):
    # t_max running out before the stop is no arrival, whether the flow is
    # sliding on Sigma (t = 0.1) or still above it (the slide starts at
    # t = 0.067); the error names the last state
    with pytest.raises(NoArrival, match=rf"t_max={t_max} ran out .*last state t={t_max}, "):
        filippov_flow(normal_form, (-0.8, 0.1), stop, t_max=t_max)


def test_readme_simulate_shoots_arc_slide_arc(shoot_calls):
    # the README's simulate run: one shot per segment, and no restart shots;
    # the arcs and the slide all run at EXTERIOR, capped at the flow's max_step
    from slidekick import fields

    calls = shoot_calls(fields)
    traj = filippov_flow(model("normal-fold").system, (-0.8, 0.1), Section(0.25, "all", id="target"), t_max=50.0)
    assert [len(c.args[2]) for c in calls] == [2, 1, 2]
    assert all(c.kwargs == EXTERIOR | {"max_step": 0.05} for c in calls)
    assert {c.shot.method for c in calls} == {"DOP853"}
    assert [e.kind for e in traj.events] == ["slide_start", "slide_end", "fold_exit", "cross_section:target"]


def test_readme_simulate_events_at_their_closed_forms():
    # y = x^2 - 0.54 along X+ meets Sigma at x = -sqrt(0.54); the drift
    # x' = 1/(1 - 2x) slides it to the fold (0, 0) at t = 1.34, and X+ lifts
    # it along y = x^2 to x = 1/2 at t = 1.84.  Each event lies within 1e-13
    # of its closed form (5.6e-15 measured; on RK45 at rtol 1e-10, the
    # flow's earlier setting, the slide end was 3.4e-10 off)
    traj = filippov_flow(model("normal-fold").system, (-0.8, 0.1), Section(0.25, "all", id="target"), t_max=50.0)
    exact = [("slide_start", 0.8 - math.sqrt(0.54), -math.sqrt(0.54), 0.0), ("slide_end", 1.34, 0.0, 0.0),
             ("fold_exit", 1.34, 0.0, 0.0), ("cross_section:target", 1.84, 0.5, 0.25)]
    assert [e.kind for e in traj.events] == [kind for kind, *_ in exact]
    for e, (_, t, x, y) in zip(traj.events, exact):
        assert abs(e.t - t) <= 1e-13 and abs(e.location[0] - x) <= 1e-13
        assert abs(e.location[1] - y) <= 1e-15
    assert traj.end == (traj.events[-1].t, *traj.events[-1].location)


@pytest.mark.parametrize("through", ["shoot", "exterior_map"])
def test_a_field_singular_at_the_start_fails_typed(through):
    # on floats 1/x at x = 0 is a ZeroDivisionError, not NumPy's inf: rhs
    # types it, naming the field and the point
    field = PlanarField(lambda x, y: (1.0, 1.0 / x), name="one-over-x")
    with pytest.raises(NumericalFailure, match=r"field 'one-over-x': .* at \(x, y\) = \(0\.0, 0\.0\)"):
        if through == "shoot":
            shoot(field.rhs, (0.0, 1.0), [0.0, 0.0], **EXTERIOR)
        else:
            exterior_map(field, (0.0, 0.0), Section(0.25))


def test_rhs_types_a_float_overflow():
    # a float power that overflows raises OverflowError, where NumPy gave inf
    field = PlanarField(lambda x, y: (1.0, x**400), name="x-to-the-400")
    with pytest.raises(NumericalFailure, match=r"field 'x-to-the-400': .* at \(x, y\) = \(10\.0, 0\.0\)"):
        field.rhs(0.0, np.array([10.0, 0.0]))
