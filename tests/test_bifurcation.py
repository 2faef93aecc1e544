import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slidekick import bifurcation
from slidekick.bifurcation import (
    _directed_hausdorff,
    _n_fixed_points,
    _stability,
    _stable_separatrix,
    _upper_arc,
    centre_semistability,
    grazing_sliding_scan,
    homoclinic_family,
    homoclinic_scan,
    iterate_to_fixed_point,
    IterationDiverged,
    SaddleNotResolved,
    stribeck_attractor,
    stribeck_family,
)
from slidekick.errors import ConfigError
from slidekick.fields import filippov_flow, sign_changes
from slidekick.integrator import NoArrival, PoincareResult, Section, Stop, shoot
from slidekick.models import Y_TANGENT, model, saddle_eigen
from slidekick.poincare import exterior_map, map_P_epsilon, normal_form_constants
from slidekick.regularization import RegularizedSystem, phi_linear, phi_polynomial


def test_iterate_contraction():
    assert iterate_to_fixed_point(lambda x: 0.5 * x + 1.0, 0.0) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(IterationDiverged):
        iterate_to_fixed_point(lambda x: 2.0 * x + 1.0, 0.5)


def test_scan_finds_both_roots():
    # the fixed points of R(x) = x^2: 0 attracting, 1 repelling
    R = lambda x: x * x
    g = lambda x: R(x) - x

    def roots(hi):
        cells = sign_changes(g, np.linspace(-0.5, hi, 200))
        return [a if a == b else brentq(g, a, b, xtol=1e-12) for a, b in cells]

    xs = roots(1.5)
    assert xs == [pytest.approx(0.0, abs=1e-10), pytest.approx(1.0, abs=1e-10)]
    assert [_stability(R, x) for x in xs] == ["attracting", "repelling"]
    # a root on the interval's end point is a grid zero of the last point
    assert roots(1.0) == [pytest.approx(0.0, abs=1e-10), 1.0]


def test_grazing_gamma_branches(lin):
    # return-map trichotomy on the synthetic germ: gamma < 0 orbit, gamma > 0 none
    desc = model("grazing-family", variant="attracting")
    eps = 1e-3
    neg = grazing_sliding_scan(desc, lin, eps, [-2e-3]).points[0]  # gamma = mu = -2e-3 < 0
    assert any(f.stability == "attracting" for f in neg.fixed_points)
    assert neg.gamma < 0
    # gamma = 0 with Delta > 0: orbit approaching the grazing orbit
    zero = grazing_sliding_scan(desc, lin, eps, [0.0]).points[0]
    assert zero.delta > 0
    assert any(f.stability == "attracting" for f in zero.fixed_points)
    # strip crossing of the found orbit scales like eps^{p/(2p-1)} (p=1: eps)
    x_star = zero.fixed_points[0].x
    from slidekick.poincare import map_P_epsilon
    from slidekick.regularization import RegularizedSystem

    r = map_P_epsilon(RegularizedSystem(desc.system, lin, eps), 0.25, x_star, fold=0.0)
    assert abs(r.flags["x_exit"]) < 10 * eps


def test_grazing_gamma_positive_no_flattened_orbit(lin):
    desc = model("grazing-family", variant="attracting")
    eps = 1e-3
    delta = desc.facts["delta"]
    st = grazing_sliding_scan(desc, lin, eps, [3.0 * delta * eps]).points[0]  # gamma > Delta eps
    # only the untouched X+ cycle remains, right of the tangent orbit
    assert all(f.x > -np.sqrt(0.25 - eps) - 1e-12 for f in st.fixed_points)


def test_grazing_attracting_branch_spans(lin):
    desc = model("grazing-family", variant="attracting")
    eps = 1e-3
    delta = desc.facts["delta"]
    grid = np.linspace(-delta * eps, 2 * delta * eps, 13)
    diag = grazing_sliding_scan(desc, lin, eps, grid)
    assert diag.present().all()
    # branch continuity: adjacent fixed points stay close
    xs = [min(f.x for f in p.fixed_points) for p in diag.points]
    dmu = grid[1] - grid[0]
    assert max(abs(np.diff(xs))) <= 10 * dmu


def test_grazing_repelling_saddle_node(lin):
    desc = model("grazing-family", variant="repelling")
    eps = 1e-3
    delta = abs(desc.facts["delta"])
    grid = np.linspace(-1.5 * delta * eps, 1.5 * delta * eps, 13)
    diag = grazing_sliding_scan(desc, lin, eps, grid)
    present = diag.present()
    assert not present[0]          # lost below the collision
    assert present[-1]             # pair exists above it
    assert diag.collision_mu is not None
    assert diag.collision_mu > 0.0
    # where present, the stable and unstable branches coexist
    top = diag.points[-1].fixed_points
    stabs = sorted(f.stability for f in top)
    assert stabs == ["attracting", "repelling"]


@pytest.mark.parametrize("profile", [phi_linear(), phi_polynomial(2), phi_polynomial(3)],
                         ids=["linear", "poly2", "poly3"])
def test_grazing_repelling_pair_just_above_the_saddle_node(profile):
    # no fixed point just below the saddle-node, the pair just above it and
    # further up; each is a fixed point of an independently built pe_mu o P_eps
    desc = model("grazing-family", variant="repelling")
    eps, y0 = 1e-3, desc.facts["y0"]
    unit = abs(desc.facts["delta"]) * eps
    mu_sn = grazing_sliding_scan(desc, profile, eps, [-0.5 * unit, 0.5 * unit, 1.5 * unit]).collision_mu
    diag = grazing_sliding_scan(desc, profile, eps, [0.999 * mu_sn, 1.001 * mu_sn, 1.05 * mu_sn])
    pair = ["attracting", "repelling"]
    assert [sorted(f.stability for f in pt.fixed_points) for pt in diag.points] == [[], pair, pair]
    R_eps = RegularizedSystem(desc.system, profile, eps)
    for pt in diag.points:
        pe = desc.facts["exterior_factory"](pt.mu)
        for f in pt.fixed_points:
            assert abs(pe(map_P_epsilon(R_eps, y0, f.x, fold=0.0).x) - f.x) <= 1e-8


def test_grazing_saddle_node_map_budget(lin, monkeypatch):
    # count guard on criterion 7b's scan: 17 grid points, 15 for the minimum
    # of H, 6 for the roots of the pair at 1.5 |D| eps and 5 to check and
    # classify them make 43 maps (175 with a bisection on presence)
    calls = []
    monkeypatch.setattr(bifurcation, "map_P_epsilon", lambda *a, **k: calls.append(a) or map_P_epsilon(*a, **k))
    desc = model("grazing-family", variant="repelling")
    unit = abs(desc.facts["delta"]) * 1e-3
    grazing_sliding_scan(desc, lin, 1e-3, [-0.5 * unit, 0.5 * unit, 1.5 * unit])
    assert len(calls) <= 50


def test_remark_delta_identity(lin):
    # c alpha+ = (pi+)'(x0-) alpha-  on the synthetic germ (exact by build)
    desc = model("grazing-family", variant="attracting")
    c = desc.facts["c"]
    y0 = desc.facts["y0"]
    alpha_p = normal_form_constants(y0)[0].alpha
    alpha_m = -alpha_p
    # pi+ = P^e o P+ with P+(x) = -x: slope is -c
    pi_slope = -c
    assert c * alpha_p == pytest.approx(pi_slope * alpha_m, rel=1e-12)
    delta = desc.facts["delta"]
    assert delta == pytest.approx(alpha_m * (1.0 - pi_slope), rel=1e-12)


def test_centre_semistability_coulomb(poly2):
    desc = model("coulomb")
    rep = centre_semistability(desc, poly2, 1e-3, y0=0.25, max_iter=900)
    assert rep.tangent_residual <= 1e-9
    assert rep.exterior_monotone
    assert all(g <= 1e-6 for g in rep.exterior_final_gaps)
    assert all(r <= 1e-8 for r in rep.interior_residuals)


def test_stribeck_attractor_smoke(poly2):
    desc = model("stribeck")
    res = stribeck_attractor(desc, poly2, 1e-2, y0=0.25)
    assert res.stability == "attracting"
    assert res.n_fixed_points == 1
    assert res.gamma < 0.0
    assert res.hausdorff_upper <= 5 * 1e-2


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_upper_arc_agrees_with_tight_dop853(eps):
    # the arc runs at EXTERIOR: its 6000 dense samples lie within 1e-11 of
    # scipy's own DOP853 at rtol 3e-14 (measured 3.6e-12 at both eps)
    from scipy.integrate import solve_ivp

    x_plus = model("stribeck").system.x_plus
    arc = _upper_arc(x_plus, 1.01, eps, t_max=200.0)
    back = lambda t, z: z[1] - eps
    back.terminal, back.direction = True, -1
    ref = solve_ivp(x_plus.rhs, (1e-9, 200.0), [1.01, eps], method="DOP853", rtol=3e-14, atol=1e-16,
                    max_step=0.01, events=back, dense_output=True)
    assert ref.status == 1 and arc.shape == (6000, 2)
    assert np.abs(arc - ref.sol(np.linspace(1e-9, ref.t_events[0][0], 6000)).T).max() <= 1e-11


def test_upper_arc_failure_names_its_last_state():
    with pytest.raises(NoArrival, match=r"^upper arc: never returned to y = 0\.01; last state t=0\.5, x="):
        _upper_arc(model("stribeck").system.x_plus, 1.01, 1e-2, t_max=0.5)


def _stribeck_return_map(desc, profile, eps, y0=0.25):
    # R = P^e o P_eps of the regularized Stribeck model, built from the maps
    fold = desc.fold()
    R_eps = RegularizedSystem(desc.system, profile, eps)
    half = Section(y0, "x<0", edge=fold.x)

    def R(x):
        z = map_P_epsilon(R_eps, y0, x, fold=fold.x).x
        return exterior_map(desc.system.x_plus, (z, y0), half, floor_margin=eps / 2, t_max=200.0).x

    return R


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_stribeck_uniqueness_certified(poly2, monkeypatch, eps):
    # the contraction certificate holds, so no grid of maps is counted; a
    # 48-point sign-change count of R(x) - x on the same interval agrees
    desc = model("stribeck")
    grids = []
    monkeypatch.setattr(bifurcation, "sign_changes", lambda g, xs: grids.append(xs) or sign_changes(g, xs))
    res = stribeck_attractor(desc, poly2, eps)
    assert not grids
    assert res.n_fixed_points == 1
    # the certificate runs after the direct iteration: x* is pinned to the bit.
    # At 1e-3 the iteration's repeat crossings join the recorded passage of
    # R_eps, which moved x* by 3.4e-15 from a run of full crossings
    x_star = {1e-2: 0.24418968410173617, 1e-3: 0.23203610786591444}[eps]
    assert res.fixed_point == x_star
    # the pruned Hausdorff search is exact: the all-pairs scan's values, to the bit
    assert res.hausdorff_upper == {1e-2: 0.009704471447878123, 1e-3: 0.0010216069136627958}[eps]
    R = _stribeck_return_map(desc, poly2, eps)
    assert R(x_star) == pytest.approx(x_star, abs=1e-9)
    xs = np.linspace(x_star - 0.25, min(x_star + 0.25, desc.fold().x - 1e-3), 48)
    assert len(sign_changes(lambda x: R(x) - x, xs)) == res.n_fixed_points


def test_stribeck_map_budget(poly2, monkeypatch):
    # count guard: 2 iterations, 5 certificate samples (the middle one is x*,
    # whose map the orbit reuses) and 2 for the stability slope make 9 maps
    # (53 with a 48-point grid); each is followed by one exterior return,
    # after the 3 shots from the fold that give gamma and x1
    calls, returns = [], []
    monkeypatch.setattr(bifurcation, "map_P_epsilon", lambda *a, **k: calls.append(a) or map_P_epsilon(*a, **k))
    monkeypatch.setattr(bifurcation, "exterior_map", lambda *a, **k: returns.append(a) or exterior_map(*a, **k))
    stribeck_attractor(model("stribeck"), poly2, 1e-2)
    assert len(calls) == 9
    assert len({x for _R, _y0, x in calls}) == 9
    assert len(returns) == 12


def test_stribeck_family_builds_the_eps_free_half_once(poly2, monkeypatch):
    # criterion 9 shares one family between its two eps: the fold's two
    # shots and the sliding cycle are made once, and each attractor keeps
    # the one-call wrapper's digits (pinned in the certificate test above)
    flows, returns = [], []
    monkeypatch.setattr(bifurcation, "filippov_flow", lambda *a, **k: flows.append(a) or filippov_flow(*a, **k))
    monkeypatch.setattr(bifurcation, "exterior_map", lambda *a, **k: returns.append(a) or exterior_map(*a, **k))
    attractor = stribeck_family(model("stribeck"))
    assert (len(flows), len(returns)) == (1, 2)
    got = [attractor(poly2, eps) for eps in (1e-2, 1e-3)]
    assert (len(flows), len(returns)) == (1, 2 + 2 * 10)
    assert [(r.fixed_point, r.hausdorff_upper) for r in got] == [(0.24418968410173617, 0.009704471447878123),
                                                                 (0.23203610786591444, 0.0010216069136627958)]


def test_certificate_passes_on_five_samples():
    calls = []
    assert _n_fixed_points(lambda x: calls.append(x) or 0.5 * x + 0.25, 0.0, 1.0) == 1
    assert len(calls) == 5


@pytest.mark.parametrize("R, n", [
    # maps I = [0, 1] into itself with slope 1.18 at 0.5: quotients of
    # 1.055 between the middle samples, fixed points at 0.2, 0.5 and 0.8
    (lambda x: 0.5 + 1.18 * (x - 0.5) - 2.0 * (x - 0.5) ** 3, 3),
    # its mirror: quotients of -1.055, one fixed point at 0.5; the test is
    # on |q|, not on q
    (lambda x: 0.5 - 1.18 * (x - 0.5) + 2.0 * (x - 0.5) ** 3, 1),
    # contracts with slope 0.5 but maps 1 to 1.1, outside I: no fixed point
    (lambda x: 0.5 * x + 0.6, 0),
], ids=["expands", "expands-flipping", "leaves-interval"])
def test_failed_certificate_counts_on_the_grid(R, n):
    calls = []
    assert _n_fixed_points(lambda x: calls.append(x) or R(x), 0.0, 1.0) == n
    assert len(calls) == 5 + 48


def _own_landing(desc, y0):
    # the event-located shot from the member's own saddle along W^s
    _w, V = saddle_eigen(desc)
    v = -V[:, 1] if V[0, 1] > 0 else V[:, 1]
    sx, sy = desc.facts["saddle"]
    start = (sx + 1e-8 * v[0], sy + 1e-8 * v[1])
    return exterior_map(desc.system.x_plus.negated(), start, Section(y0), t_max=200.0).x


@pytest.mark.parametrize("nu", [0.15, 0.0])
def test_shared_separatrix_lands_like_each_member(nu):
    # member mu is member 0 moved up by mu: member 0's W^s landing on
    # 0.25 - mu is member mu's own landing on 0.25 (2.8e-13 measured at nu = 0.15)
    make = lambda mu: model("saddle-homoclinic", mu=mu, nu=nu, check=False)
    shared = _stable_separatrix(make(0.0))
    for mu in np.linspace(-0.004, 0.02, 10):
        member = make(mu)
        fresh = _own_landing(member, 0.25)
        assert shared(0.25 - mu) == pytest.approx(fresh, abs=1e-12)
        assert _stable_separatrix(member)(0.25) == pytest.approx(fresh, abs=1e-12)
    # levels above the saddle or below the switching line are not reached
    for level in (0.9, -0.1):
        with pytest.raises(NoArrival, match=f"y = {level}"):
            shared(level)


def _separatrix_shots(shoot_calls, monkeypatch):
    # every shoot of bifurcation.py inside homoclinic_scan is a separatrix
    # shot; every exterior_map call without a floor is a mu_paper landing,
    # every one with a floor an existence check's back shot
    shots = shoot_calls(bifurcation)
    landings, floored = [], []

    def spy(*args, **kwargs):
        (floored if "floor_margin" in kwargs else landings).append(args)
        return exterior_map(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "exterior_map", spy)
    return shots, landings, floored


def test_family_without_the_fact_is_a_config_error(shoot_calls, monkeypatch):
    # the scan lands every member's W^s on member 0's separatrix, so a family
    # that does not declare the shift is rejected before any shot
    shots, landings, floored = _separatrix_shots(shoot_calls, monkeypatch)

    def make(mu_raw):
        desc = model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
        del desc.facts["shifts_with_mu"]
        return desc

    with pytest.raises(ConfigError, match="shifts_with_mu"):
        homoclinic_family(make, y0=0.25)
    assert shots == [] and landings == [] and floored == []


def test_homoclinic_scan_shoots_one_separatrix(lin, shoot_calls, monkeypatch):
    # count guard on the benchmark's scan shape: one shot serves every
    # member (23 shots when each member shot its own)
    maps = []
    shots, landings, floored = _separatrix_shots(shoot_calls, monkeypatch)
    monkeypatch.setattr(bifurcation, "map_P_epsilon", lambda *a, **k: maps.append(a) or map_P_epsilon(*a, **k))
    make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
    scan = homoclinic_scan(make, lin, 5e-4, [0.0, 0.7, 4.1], y0=0.25, bisect=True)
    assert [s.shot.method for s in shots] == ["DOP853"]
    assert [p.exists for p in scan.probes] == [True, True, False]
    # each member shooting its own separatrix puts mu~* at 2.383213159017572
    assert scan.mu_tilde_star == pytest.approx(2.383213159017572, abs=1e-9)
    assert len(shots) == 1 and len(landings) >= 20
    x, y = shots[0].args[2]
    assert abs(x - 1.0) < 1e-7 and abs(y - (1.0 - Y_TANGENT)) < 1e-7
    # the root costs one map per brentq step and no existence check: 10
    # maps and 6 back shots (22 and 22 when bisecting on existence)
    assert len(maps) <= 10 and len(floored) <= 6


@pytest.mark.parametrize("eps", [5e-4, 1e-3])
def test_gap_root_agrees_with_existence(lin, eps):
    # the full existence check (two compositions, each with a back shot
    # floored at eps/2) finds the orbit 1e-3 in mu~ below the gap's root and
    # not 1e-3 above it
    # (two scans of one family)
    make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
    _ap, scan = homoclinic_family(make, y0=0.25)
    mt = scan(lin, eps, []).mu_tilde_star
    assert [p.exists for p in scan(lin, eps, [mt - 1e-3, mt + 1e-3], bisect=False).probes] == [True, False]


def test_gap_of_one_sign_is_a_typed_failure(lin, monkeypatch):
    # a constant landing from the scan's probe start leaves the gap to W^s
    # negative at both bracket ends, while the existence check's second
    # composition still maps for real and loses the orbit at the upper end
    def fake(R, y0, x, *, fold):
        return PoincareResult(0.62, 0.0) if x > -0.5 else map_P_epsilon(R, y0, x, fold=fold)

    monkeypatch.setattr(bifurcation, "map_P_epsilon", fake)
    make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
    with pytest.raises(SaddleNotResolved, match=r"one sign.* at mu_raw=.* at mu_raw="):
        homoclinic_scan(make, lin, 1e-3, [], y0=0.25, bisect=True)


@pytest.mark.parametrize("landings", [{}, {0.25 - 1e-4: -1.0}], ids=["flat", "equal-secant-values"])
def test_secant_without_a_slope_is_a_typed_failure(monkeypatch, landings):
    # the fold's landing is 0.5 on every member and W^s lands at 0 on every
    # level but those given: mu = 0.5 on the flat family (its slope is 0),
    # and with slope 1e4 at mu_raw = 0 the secant's next member is back at
    # 0.5.  Both divisions by zero raised a bare ZeroDivisionError
    monkeypatch.setattr(bifurcation, "exterior_map", lambda *a, **k: PoincareResult(0.5, 0.0))
    monkeypatch.setattr(bifurcation, "_stable_separatrix", lambda desc: lambda level: landings.get(level, 0.0))
    make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)
    with pytest.raises(SaddleNotResolved, match="secant for mu_raw"):
        homoclinic_family(make, y0=0.25)


def test_homoclinic_probes_and_bisection(lin):
    eps = 1e-3
    builds = []

    def make(mu_raw):
        builds.append(mu_raw)
        return model("saddle-homoclinic", mu=mu_raw, nu=0.15, check=False)

    scan = homoclinic_scan(make, lin, eps, [0.0], y0=0.25, bisect=True)
    ap = scan.alpha_plus
    assert scan.probes[0].exists
    assert scan.mu_tilde_star is not None
    assert abs(scan.mu_tilde_star + ap) <= 0.2
    # the root is found in the raw shift: no mu inversion per brentq step,
    # and each inversion is a secant iteration (20 builds measured, 29 when
    # bisecting on existence; 2 spare for two more brentq steps)
    assert len(builds) <= 22


def test_homoclinic_hamiltonian_variant(lin):
    # nu = 0: the found orbit is the tangent orbit of the Hamiltonian field
    eps = 1e-3
    make = lambda mu_raw: model("saddle-homoclinic", mu=mu_raw, nu=0.0, check=False)
    scan = homoclinic_scan(make, lin, eps, [0.0, 1.0], y0=0.25, bisect=False)
    assert scan.probes[0].exists
    assert scan.probes[1].exists


def test_contraction_certificate(lin):
    # along an accepted fixed-point iteration, successive increments shrink
    # by at least a factor 2 after the second step
    desc = model("grazing-family", variant="attracting")
    eps = 1e-3
    from slidekick.poincare import map_P_epsilon
    from slidekick.regularization import RegularizedSystem

    pe = desc.facts["exterior_factory"](-2e-3)
    R_eps = RegularizedSystem(desc.system, lin, eps)

    def R(x):
        return pe(map_P_epsilon(R_eps, 0.25, x, fold=0.0).x)

    x = -0.7
    increments = []
    for _ in range(6):
        x_new = R(x)
        increments.append(abs(x_new - x))
        x = x_new
        if increments[-1] < 1e-13:
            break
    for a, b in zip(increments[2:], increments[1:]):
        assert a <= 0.5 * b + 1e-14


def test_return_map_identity_on_coulomb(poly2):
    # c alpha+ = (pi+)'(x0-) alpha- measured on a model with a real exterior
    from slidekick.integrator import PoincareResult, Section
    from slidekick.poincare import exterior_map, fit_tangency_constants

    desc = model("coulomb")
    fold = desc.fold()
    y0 = 0.25
    plus = fit_tangency_constants(desc.system.x_plus, fold.x, y0)
    minus = fit_tangency_constants(desc.system.x_plus.negated(), fold.x, y0)
    up = Section(y0, "all", id="up")
    # c at the unstable-separatrix crossing; pi+' by chaining the two maps
    dx = 1e-6

    def land(x):
        return exterior_map(desc.system.x_plus, (x, y0), up).x

    c = (land(plus.x0 + dx) - land(plus.x0 - dx)) / (2 * dx)

    def pi_plus(x):
        return land(land(x))

    slope = (pi_plus(minus.x0 + dx) - pi_plus(minus.x0 - dx)) / (2 * dx)
    assert c * plus.alpha == pytest.approx(slope * minus.alpha, rel=0.05)
    # the centre makes pi+ the identity, hence Delta = 0 within tolerance
    assert slope == pytest.approx(1.0, abs=1e-3)


def test_lipschitz_gate_p2(poly2):
    # over 20 probes the regularized map's spread obeys the calibrated
    # eps^{min((3p-1)/(2p-1), p(p+1)/(2p-1)^2)} gate
    from slidekick.poincare import map_P_epsilon
    from slidekick.regularization import RegularizedSystem

    desc = model("normal-fold")
    eps = 1e-3
    R_eps = RegularizedSystem(desc.system, poly2, eps)
    xs = np.linspace(-0.95, -0.55, 20)
    vals = [map_P_epsilon(R_eps, 0.25, x, fold=0.0).x for x in xs]
    spread = max(vals) - min(vals)
    p = 2
    gate = min((3 * p - 1) / (2 * p - 1), p * (p + 1) / (2 * p - 1) ** 2)
    assert spread <= 10.0 * eps**gate


def _hausdorff_brute(P, Q):
    # every (point, segment) pair; sqrt is monotone, so it is taken once per point
    segs = []
    for (ax, ay), (bx, by) in zip(Q[:-1].tolist(), Q[1:].tolist()):
        dx, dy = bx - ax, by - ay
        segs.append((ax, ay, dx, dy, dx * dx + dy * dy or 1.0))
    worst = 0.0
    for px, py in P.tolist():
        best = math.inf
        for ax, ay, dx, dy, L2 in segs:
            t = min(max(((px - ax) * dx + (py - ay) * dy) / L2, 0.0), 1.0)
            ex, ey = px - (ax + t * dx), py - (ay + t * dy)
            best = min(best, ex * ex + ey * ey)
        worst = max(worst, math.sqrt(best))
    return worst


@pytest.mark.parametrize("n, m", [(60, 9), (9, 60), (30, 31), (3, 5), (4, 2)])
def test_directed_hausdorff_matches_brute_force(n, m):
    # random walks with a repeated vertex (a zero-length segment); each
    # orientation loops over the other side, with the same per-pair formula
    rng = np.random.default_rng(n * 100 + m)
    for _ in range(10):
        P = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        Q = np.cumsum(rng.normal(size=(m, 2)), axis=0)
        Q[1] = Q[0]
        assert _directed_hausdorff(P, Q) == _hausdorff_brute(P, Q)
        assert _directed_hausdorff(Q, P) == _hausdorff_brute(Q, P)


def _stribeck_like_arcs():
    # a dense upper arc 0.004 above a sparse closed cycle of 99 arc segments
    # and 20 flat sliding ones, like the arcs stribeck_attractor compares
    s = np.linspace(0.05, np.pi - 0.05, 1500)
    u = np.linspace(0.0, np.pi, 100)
    cycle = np.vstack([np.column_stack([np.cos(u), 0.5 * np.sin(u)]),
                       np.column_stack([np.linspace(-1.0, 1.0, 21)[1:], np.zeros(20)])])
    return np.column_stack([np.cos(s), 0.5 * np.sin(s) + 0.004]), cycle


def _one_long_segment():
    # a half circle closed by its chord, about 38 times longer than the other segments
    u = np.linspace(0.0, np.pi, 60)
    Q = np.vstack([np.column_stack([np.cos(u), np.sin(u)]), [[1.0, 0.0]]])
    rng = np.random.default_rng(7)
    return Q[rng.integers(0, len(Q), 300)] + rng.normal(scale=0.05, size=(300, 2)), Q


def _repeated_vertices():
    rng = np.random.default_rng(3)
    Q = np.repeat(np.cumsum(rng.normal(scale=0.1, size=(40, 2)), axis=0), 3, axis=0)
    return Q[::2] + rng.normal(scale=0.02, size=(60, 2)), Q


def _two_point_polyline():
    rng = np.random.default_rng(5)
    return rng.normal(size=(200, 2)), np.array([[-0.5, 0.1], [0.7, -0.3]])


@pytest.mark.parametrize("curves", [_stribeck_like_arcs, _one_long_segment, _repeated_vertices, _two_point_polyline],
                         ids=["stribeck-like", "one-long-segment", "repeated-vertices", "two-point"])
def test_directed_hausdorff_exact_where_pruning_acts(curves):
    # the tree prunes candidates, never the per-pair formula: both
    # orientations equal the all-pairs scan to the bit, including the points
    # that need a second query or every segment
    P, Q = curves()
    assert _directed_hausdorff(P, Q) == _hausdorff_brute(P, Q)
    assert _directed_hausdorff(Q, P) == _hausdorff_brute(Q, P)
    assert _directed_hausdorff(P[:0], Q) == _hausdorff_brute(P[:0], Q) == 0.0


def test_directed_hausdorff_settles_dense_arcs_on_the_first_query(monkeypatch):
    # cost guard: each point of the dense arc is proved nearest among its 8
    # nearest midpoints, so no point is queried twice
    queries = []

    class Tree(bifurcation.cKDTree):
        def query(self, x, k):
            queries.append((len(x), k))
            return super().query(x, k)

    monkeypatch.setattr(bifurcation, "cKDTree", Tree)
    P, Q = _stribeck_like_arcs()
    _directed_hausdorff(P, Q)
    assert {k for _n, k in queries} == {8}
    assert sum(n for n, _k in queries) == len(P)
