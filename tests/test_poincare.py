import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidekick import integrator, poincare
from slidekick.errors import ConfigError
from slidekick.fields import find_fold
from slidekick.integrator import NoArrival, Section, shoot
from slidekick.models import model
from slidekick.poincare import (
    FitRejected,
    TangentialCrossing,
    _H,
    _stage_P,
    exterior_map,
    fit_power_law,
    fit_tangency_constants,
    landing_scan,
    map_P_epsilon,
    normal_form_constants,
)
from slidekick.regularization import RegularizedSystem, parse_profile, phi_linear, phi_polynomial


@pytest.fixture(scope="module")
def nf():
    return model("normal-fold")


@pytest.fixture(scope="module")
def nf_fold(nf):
    return find_fold(nf.system, nf.fold_bracket).x


@pytest.fixture(scope="module")
def germs(nf, nf_fold):
    # (plus, minus): the germs of X+ and of the backward field -X+
    xp = nf.system.x_plus
    return fit_tangency_constants(xp, nf_fold, 0.25), fit_tangency_constants(xp.negated(), nf_fold, 0.25)


def _assert_closed_form(germ, exact):
    # x0 is the fold orbit's own landing; alpha and beta the stencil's
    # (measured: within 3.7e-12 on alpha and 2.9e-11 on beta)
    assert germ.x0 - germ.fold_x == pytest.approx(exact.x0, abs=1e-10)
    assert germ.alpha == pytest.approx(exact.alpha, abs=1e-8)
    assert germ.beta == pytest.approx(exact.beta, abs=1e-8)


def test_tangency_constants_normal_form(germs):
    # closed forms at y0 = 1/4: x0 = +-1/2, alpha = -+1, beta = +-1; the
    # grazing family's X+ at mu = 0 is the normal fold's (1, 2x)
    graze = model("grazing-family")
    graze_plus = fit_tangency_constants(graze.system.x_plus, graze.fold().x, 0.25)
    closed = normal_form_constants(0.25)
    for germ, exact in [*zip(germs, closed), (graze_plus, closed[0])]:
        _assert_closed_form(germ, exact)


def test_saddle_homoclinic_alpha_is_the_section_displacement_rate():
    # on the grazing member a raw shift mu_raw moves the section displacement
    # mu = x0+ - x0^s by -alpha+ mu_raw to first order; dmu/dmu_raw is the
    # central difference, step 1e-5, of the fold orbit's landing minus the
    # W^s landing (measured: 2.3859530218 against -alpha+ = 2.3859530200)
    from slidekick.bifurcation import _stable_separatrix

    def member(mu_raw):
        return model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)

    def mu(mu_raw):
        desc = member(mu_raw)
        x0_plus = exterior_map(desc.system.x_plus, (desc.fold().x, 0.0), Section(0.25)).x
        return x0_plus - _stable_separatrix(desc)(0.25)

    raw0, h = -0.0953706501744, 1e-5
    anchor = member(raw0)
    alpha = fit_tangency_constants(anchor.system.x_plus, anchor.fold().x, 0.25).alpha
    assert alpha == pytest.approx(-(mu(raw0 + h) - mu(raw0 - h)) / (2 * h), abs=1e-7)


def test_coulomb_mirror_germs_agree_to_the_stencils_accuracy():
    # Coulomb's X+ and -X+ are mirror images about its fold, so their germs
    # have opposite alpha and beta; alpha divides the landings by h, beta by
    # 2 (h/2)^2 = 5e-7 (measured: 5.6e-11 and 1.77e-7)
    desc = model("coulomb")
    fold = find_fold(desc.system, desc.fold_bracket).x
    plus = fit_tangency_constants(desc.system.x_plus, fold, 0.25)
    minus = fit_tangency_constants(desc.system.x_plus.negated(), fold, 0.25)
    assert abs(plus.alpha + minus.alpha) <= 1e-9
    assert abs(plus.beta + minus.beta) <= 5e-7


def test_sign_pattern(germs):
    plus, minus = germs
    assert plus.alpha < 0 < plus.beta
    assert minus.beta < 0 < minus.alpha


def test_translation_invariance(nf_fold):
    # same constants in fold-centered coordinates for a shifted field
    from slidekick.fields import FilippovSystem, PlanarField

    xp = PlanarField(lambda x, y: (1.0, 2.0 * (x - 0.3)))
    xm = PlanarField(lambda x, y: (0.0, 1.0))
    sys_shift = FilippovSystem(xp, xm)
    f = find_fold(sys_shift, (-1.0, 1.0))
    assert f.x == pytest.approx(0.3, abs=1e-12)
    _assert_closed_form(fit_tangency_constants(xp, f.x, 0.25), normal_form_constants(0.25)[0])


def test_tangential_crossing_guard(nf, nf_fold):
    # a section at the fold height itself meets the separatrix tangentially
    with pytest.raises((TangentialCrossing, NoArrival)):
        fit_tangency_constants(nf.system.x_plus, nf_fold, 0.0)


def test_map_p1_branch(nf, nf_fold, lin):
    # Thm branch p=1: P_eps = x0+ + alpha+ eps + O(eps^2), constant on I
    for eps in (1e-2, 1e-3, 1e-4):
        R = RegularizedSystem(nf.system, lin, eps)
        vals = [map_P_epsilon(R, 0.25, x, fold=nf_fold).x for x in (-0.9, -0.7, -0.5)]
        for v in vals:
            assert v == pytest.approx(0.5 - eps, abs=10 * eps**2)
        assert max(vals) - min(vals) <= 10 * eps**2


@pytest.mark.parametrize("model_id, params, dx", [
    ("stribeck", {}, -0.004), ("general-fold", {}, -0.01), ("saddle-homoclinic", {"nu": 0.15}, -0.001),
], ids=["stribeck", "general-fold", "saddle-homoclinic"])
def test_start_where_x_plus_points_up_rejected(monkeypatch, lin, model_id, params, dx):
    # left of the fold but where X+ points up across y0 an orbit leaves the
    # section upward and loops (or steps to its time limit): outside the fold
    # map's domain, rejected before stage P
    def must_not_run(*args):
        raise AssertionError("stage P ran")

    desc = model(model_id, **params)
    fold = desc.fold().x
    monkeypatch.setattr(poincare, "_stage_P", must_not_run)
    with pytest.raises(ConfigError, match="points down"):
        map_P_epsilon(RegularizedSystem(desc.system, lin, 1e-3), 0.25, fold + dx, fold=fold)


def test_map_out_of_domain_flag(shoot_calls, nf, nf_fold, lin):
    R = RegularizedSystem(nf.system, lin, 1e-3)
    calls = shoot_calls(poincare)
    r = map_P_epsilon(R, 0.25, -0.2, fold=nf_fold)  # orbit dips only to 0.21
    assert r.flags["out_of_domain"]
    assert r.x == pytest.approx(0.2, abs=1e-8)  # the untouched grazing return
    # stage P's hit of y0 going up is the landing: one exterior shot in all
    assert [c.shot.method for c in calls] == ["DOP853"]


@pytest.mark.parametrize("x", [-0.005, -1e-3])
def test_map_out_of_domain_near_fold_lands_on_the_mirror(nf, nf_fold, lin, x):
    # y - x^2 is constant along X+ = (1, 2x): the orbit from (x, y0) comes
    # back to y0 at -x; so near the fold the first step holds the whole
    # excursion, and stage P starts on the y0 stop that it leaves downward
    R = RegularizedSystem(nf.system, lin, 1e-3)
    r = map_P_epsilon(R, 0.25, x, fold=nf_fold)
    assert r.flags["out_of_domain"]
    assert abs(r.x + x) <= 1e-12


def test_map_start_whose_dip_hides_in_the_touch_tolerance_rejected(shoot_calls, nf, nf_fold, poly2):
    # the orbit from (x, y0) dips x^2 below y0: at -1e-8 and -1e-7 that is
    # inside shoot's 1e-13 touch tolerance, so stage P would never see the
    # landing and would step to t = 1e3; it is a ConfigError before any shot
    R = RegularizedSystem(nf.system, poly2, 1e-3)
    calls = shoot_calls(poincare)
    for x in (-1e-8, -1e-7):
        with pytest.raises(ConfigError, match="touch tolerance"):
            map_P_epsilon(R, 0.25, x, fold=nf_fold)
    assert calls == []
    r = map_P_epsilon(R, 0.25, -5e-7, fold=nf_fold)  # dips 2.5e-13: lands on the mirror
    assert r.flags["out_of_domain"]
    assert abs(r.x - 5e-7) <= 1e-10
    assert [c.shot.t < 1e-3 for c in calls] == [True]


def test_stage_maps_match_closed_forms(nf):
    eps = 1e-3
    xp = nf.system.x_plus
    P_exact = nf.facts["P_exact"]
    Pbar_exact = nf.facts["Pbar_exact"]
    for x in (-0.9, -0.7, -0.6):
        assert _stage_P(xp, x, 0.25, eps)[1] == pytest.approx(P_exact(x, eps, 0.25), abs=1e-9)
    for w in (0.05, 0.1, 0.3):
        assert exterior_map(xp, (w, eps), Section(0.25)).x == pytest.approx(Pbar_exact(w, eps, 0.25), abs=1e-9)


def test_ordering_against_pure_map(nf, nf_fold, poly2):
    # Prop comparison: P_eps(x) < P+(x) strictly on [x0-, xbar_eps]
    eps = 1e-3
    R = RegularizedSystem(nf.system, poly2, eps)
    xbar = -math.sqrt(0.25 - eps)
    for x in np.linspace(-0.4999, xbar + 1e-6, 5):
        r = map_P_epsilon(R, 0.25, x, fold=nf_fold)
        if r.flags.get("out_of_domain"):
            continue
        assert r.x < -x  # P+(x) = -x for the normal form


def test_prefactor_ties_to_inner(nf, nf_fold, poly2):
    # (P_eps - x0+ - alpha+ eps)/eps^{4/3} -> beta+ eta0(0)^2
    from slidekick.inner import distinguished_solution

    eps = 1e-6
    R = RegularizedSystem(nf.system, poly2, eps)
    r = map_P_epsilon(R, 0.25, -0.8, fold=nf_fold)
    lhs = (r.x - (0.5 - eps)) / eps ** (4.0 / 3.0)
    eta0 = distinguished_solution(2, poly2.c_p).eta_at_0
    assert lhs == pytest.approx(1.0 * eta0**2, rel=0.1)


def test_landing_scan_exponents_p2(nf, poly2):
    eps_list = [1e-6, 3e-6, 1e-5, 3e-5, 1e-4]
    # exact constants keep the eps^{4/3} signal clean at the smallest eps
    from slidekick.poincare import TangencyConstants

    exact = TangencyConstants(fold_x=0.0, x0=0.5, alpha=-1.0, beta=1.0)
    scan = landing_scan(nf.system, poly2, eps_list, 0.25, -0.8, constants=exact)
    assert scan.exit_fit.slope == pytest.approx(2.0 / 3.0, abs=0.02)
    assert scan.exit_fit.r_squared >= 0.999
    assert scan.deviation_fit.slope == pytest.approx(4.0 / 3.0, abs=0.03)


def test_fit_power_law_rejects_noise():
    eps = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    vals = np.array([3.0, 0.01, 0.5, 0.002])
    with pytest.raises(FitRejected):
        fit_power_law(eps, vals)


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_fit_power_law_rejects_values_without_a_log(bad):
    # log(0) and log(nan) leave a nan slope that would pass the r^2 gate
    with pytest.raises(FitRejected):
        fit_power_law([1e-5, 1e-4, 1e-3], [1e-5, bad, 1e-3])


def test_exterior_map_rejects_a_nan_start():
    # scipy's raw ValueError on a non-finite y0 is now the package's ConfigError
    with pytest.raises(ConfigError, match="finite"):
        exterior_map(model("normal-fold").system.x_plus, (math.nan, 0.25), Section(0.25))


@pytest.mark.parametrize("bad", [0.0, -1e-5, math.nan, math.inf])
def test_fit_power_law_rejects_eps_without_a_log(bad):
    # eps 0 and -1e-5 ended in numpy's LinAlgError: SVD did not converge
    with pytest.raises(ConfigError, match="positive and finite"):
        fit_power_law([bad, 1e-4, 1e-3], [1e-5, 1e-4, 1e-3])


@pytest.mark.parametrize("eps, vals", [([1e-4], [1e-3]), ([1e-4, 1e-4], [1e-3, 2e-3])], ids=["one", "repeated"])
def test_fit_power_law_needs_two_distinct_eps(eps, vals):
    # a line through one distinct log eps has no slope: lstsq read 0 with r^2 = 1
    with pytest.raises(ConfigError, match="two distinct"):
        fit_power_law(eps, vals)


def test_fit_power_law_drops_contaminated_largest():
    eps = np.array([1e-6, 3e-6, 1e-5, 3e-5, 1e-4])
    vals = eps**0.75
    vals[-1] *= 1.8  # pre-asymptotic contamination at the largest eps
    fit = fit_power_law(eps, vals)
    assert fit.dropped_largest
    assert fit.slope == pytest.approx(0.75, abs=1e-6)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(spec=st.sampled_from(["linear", "poly(2)", "poly(3)"]),
       lo=st.floats(-6.0, -3.0 - math.log10(1.5)), gap=st.floats(math.log10(1.5), 3.0))
def test_map_falls_as_eps_grows(nf, nf_fold, spec, lo, gap):
    # P_eps(-0.8) on y0 = 0.25 falls with eps for every profile (steps of at
    # least 4.8e-7 between eps 1.5x apart on [1e-6, 1e-3]); monotonicity in
    # x is not probed: landing independence leaves P_eps flat in x to ~1e-14
    e_lo, e_hi = 10.0**lo, min(10.0 ** (lo + gap), 1e-3)
    prof = parse_profile(spec)
    land = [map_P_epsilon(RegularizedSystem(nf.system, prof, e), 0.25, -0.8, fold=nf_fold).x for e in (e_lo, e_hi)]
    assert land[1] < land[0]


def test_exterior_map_centre_identity():
    # Coulomb centre: P^e o P+ is the identity on its domain
    desc = model("coulomb")
    y0 = 0.25
    up = Section(y0, "all", id="up")
    fs = desc.params["F_s"]
    for x in (0.2, 0.35, 0.5):
        # P+: left crossing to right crossing through the circle bottom
        r1 = exterior_map(desc.system.x_plus, (x, y0), up)
        r2 = exterior_map(desc.system.x_plus, (r1.x, y0), up)
        assert r2.x == pytest.approx(x, abs=1e-8)


def test_exterior_map_no_arrival():
    # the normal-form X+ has no recurrence: the orbit escapes upward
    nf = model("normal-fold")
    with pytest.raises(NoArrival, match=r"^exterior: .* never reached y = 0\.25; last state t=30\.0, x=30\.5"):
        exterior_map(
            nf.system.x_plus,
            (0.5, 0.25),
            Section(0.25, "x<0", id="b"),
            floor_margin=1e-4,
            t_max=30.0,
        )


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-6])
def test_exterior_map_lands_a_graze_inside_one_step(delta):
    # y = x^2 + 0.25 - delta along X+ = (1, 2x) crosses y = 0.25 at
    # x = -sqrt(delta) and again at +sqrt(delta); below delta = 1e-2 one
    # capped step spans both, and each is rooted on its side of the turn
    xp = model("normal-fold").system.x_plus
    for x0 in (-1.0, -0.9, -0.77):
        start = (x0, x0 * x0 + 0.25 - delta)
        assert abs(exterior_map(xp, start, Section(0.25)).x + math.sqrt(delta)) <= 1e-12
        assert abs(exterior_map(xp, start, Section(0.25, "x>0")).x - math.sqrt(delta)) <= 1e-12


# the 9 starts of fit_tangency_constants' stencil, offsets from the fold;
# (0, -h) and (0, -h/2) lie below Sigma
_STENCIL = [(0.0, 0.0)] + [(a * k, b * k) for k in (_H, _H / 2) for a, b in ((0, 1), (0, -1), (1, 0), (-1, 0))]


@pytest.mark.parametrize("model_id, params", [
    ("saddle-homoclinic", {"nu": 0.15}), ("stribeck", {}), ("coulomb", {}),
], ids=["saddle-homoclinic", "stribeck", "coulomb"])
def test_exterior_landings_agree_with_tight_dop853(model_id, params):
    # forward and backward landings of the tangency stencil against scipy's
    # own DOP853 at rtol 1e-13, atol 1e-15 (measured: at most 1.9e-12 /
    # 1.6e-13 / 1.5e-13)
    from scipy.integrate import solve_ivp

    desc = model(model_id, **params)
    fold = find_fold(desc.system, desc.fold_bracket)
    section = lambda t, z: z[1] - 0.25
    section.terminal = True
    for field in (desc.system.x_plus, desc.system.x_plus.negated()):
        for dx, dy in _STENCIL:
            start = (fold.x + dx, dy)
            ref = solve_ivp(field.rhs, (0.0, 1e3), start, method="DOP853", max_step=0.25, rtol=1e-13,
                            atol=1e-15, events=section)
            assert ref.status == 1
            assert abs(exterior_map(field, start, Section(0.25)).x - ref.y_events[0][0][0]) <= 5e-12


def test_stage_P_near_grazing_matches_closed_form(shoot_calls, monkeypatch, nf):
    # y - x^2 is constant along X+ = (1, 2x), so the entry is
    # -sqrt(x^2 + y_strip - y0); starts close to the grazing one dip below
    # the strip within one step, which shoot finds at the step's turn
    y0, y_strip = 0.25, 1e-3
    calls = shoot_calls(poincare)
    real_turn, turns = integrator._turn, []  # turns: (index of the shot in flight, turn time)

    def turn(*args):
        turns.append((len(calls), real_turn(*args)))
        return turns[-1][1]

    monkeypatch.setattr(integrator, "_turn", turn)
    for x in np.linspace(-0.508, -0.49900005, 400):
        _t, x_in, entered = _stage_P(nf.system.x_plus, float(x), y0, y_strip)
        assert entered
        assert abs(x_in + math.sqrt(x * x + y_strip - y0)) <= 1e-12
    shots = [c.shot for c in calls]
    assert len(shots) == 400 and all(s.stop == 0 for s in shots)
    # a hit rooted before a turn of its own last step
    assert any(shots[k].ts[-2] < shots[k].t < t_turn for k, t_turn in turns)


@pytest.mark.parametrize("model_id, params, budget", [
    ("saddle-homoclinic", {"nu": 0.15}, 162), ("stribeck", {}, 95),
], ids=["saddle-homoclinic", "stribeck"])
def test_tangency_fit_step_budget(shoot_calls, model_id, params, budget):
    # one germ is one field's stencil: the fold orbit and 8 landings at
    # steps h and h/2, 1.5x the measured 108 / 63 steps of X+
    desc = model(model_id, **params)
    fold = find_fold(desc.system, desc.fold_bracket)
    calls = shoot_calls(poincare)
    fit_tangency_constants(desc.system.x_plus, fold.x, 0.25)
    assert len(calls) == 9 and {c.shot.method for c in calls} == {"DOP853"}
    assert sum(c.shot.n_steps for c in calls) <= budget
