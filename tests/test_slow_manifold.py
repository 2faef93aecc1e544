import math

import numpy as np
import pytest

from slidekick import models, slow_manifold
from slidekick.errors import ConfigError
from slidekick.integrator import Stop, shoot
from slidekick.regularization import (
    RegularizationProfile,
    RegularizedSystem,
    parse_profile,
    phi_linear,
    phi_polynomial,
)
from slidekick.slow_manifold import (
    HyperbolicityLost,
    SlowManifoldExpansion,
    _orbit_equation,
    contraction_probe,
    invariance_residual,
    strip_crossing,
    trace_manifold,
    verify_sandwich,
)


def test_linear_expansion_closed_forms(lin):
    exp = SlowManifoldExpansion(lin)
    assert exp.m0(-0.5) == pytest.approx(0.0, abs=1e-12)
    assert exp.m1(-0.5) == pytest.approx(-8.0 / 16.0, abs=1e-12)
    for x in np.linspace(-0.9, -0.05, 9):
        assert exp.m0(x) == pytest.approx((1 + 2 * x) / (1 - 2 * x), abs=1e-12)
        assert exp.m1(x) == pytest.approx(-8.0 / (1 - 2 * x) ** 4, abs=1e-10)
    # n-side closed forms: n0 = (v-1)/(2(v+1)), n1 = (v+1)^2/2
    for v in np.linspace(-0.8, 1.0, 10):
        assert exp.n0(v) == pytest.approx((v - 1) / (2 * (v + 1)), abs=1e-12)
        assert exp.n1(v) == pytest.approx((v + 1) ** 2 / 2, abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_pair(p):
    exp = SlowManifoldExpansion(phi_polynomial(p))
    for x in np.linspace(-0.9, -1e-3, 50):
        assert exp.n0(exp.m0(x)) == pytest.approx(x, abs=1e-10)


def test_n0_tail_coefficient(poly2, poly3):
    # n0(v) ~ phi^(p)(1)/(4 p!) (v-1)^p as v -> 1
    for prof in (poly2, poly3):
        exp = SlowManifoldExpansion(prof)
        p = prof.p
        lead = prof.phi_p_at_1 / (4 * math.factorial(p))
        for dv in (1e-2, 1e-3):
            ratio = exp.n0(1.0 - dv) / ((-dv) ** p)
            assert ratio == pytest.approx(lead, rel=0.05)


def test_n1_positive(poly2, poly3, lin):
    for prof in (lin, poly2, poly3):
        exp = SlowManifoldExpansion(prof)
        for v in np.linspace(-0.95, 0.999, 200):
            assert exp.n1(v) > 0.0


def test_invariance_residual_order_eps_squared(poly2):
    # residual of n0 + eps*n1 is O(eps^2) uniformly on v <= 0.8
    sup = {}
    for eps in (1e-3, 1e-4, 1e-5):
        vs = np.linspace(-0.9, 0.8, 300)
        sup[eps] = max(abs(invariance_residual(poly2, eps, v)) for v in vs)
    ratios = [sup[e] / e**2 for e in sup]
    assert max(ratios) / min(ratios) < 2.0


def test_trace_linear_exit(normal_form, lin):
    # paper gives x1 = 2 eps + O(eps^2); the series pins the constant at -16
    for eps in (1e-3, 1e-4):
        R = RegularizedSystem(normal_form, lin, eps)
        tr = trace_manifold(R, -1.0, 1.0)
        assert tr.exit_x == pytest.approx(2 * eps, abs=25 * eps**2)
        assert tr.exit_x == pytest.approx(2 * eps - 16 * eps**2, abs=500 * eps**3)


def test_trace_agrees_with_orbit_crossing(normal_form, poly2):
    # the trace and an attracted orbit exit the strip at the same abscissa
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    x_exit, _t = strip_crossing(R, -0.5, x_limit=0.4)
    assert tr.exit_x == pytest.approx(x_exit, abs=1e-7)


def test_trace_exit_below_the_strip_top(normal_form, poly2):
    # the v-graph leg ends at v = to_v, so the exit is reported there too
    R = RegularizedSystem(normal_form, poly2, 1e-3)
    tr = trace_manifold(R, -1.0, 0.9)
    assert len(tr.x) == 1200 + 600  # both legs: the x-graph and the v-graph samples
    assert tr.v[-1] == pytest.approx(0.9, abs=1e-14)
    assert tr.exit_x == tr.x[-1]


def test_trace_outer_block_membership(normal_form, poly2):
    # p=2 block: n0(v) < x(v) < n0(v) + M eps/(1-v) until v = 1 - eps^0.2
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    rep = verify_sandwich(R, tr, "outer_block_p", M=50.0, delta=0.2, lambda1=0.2)
    assert rep.count > 50
    assert rep.fraction_ok == 1.0


def test_trace_exit_matches_inner_constant(normal_form, poly2):
    # cross-module consistency: exit ~ eps^{2/3} eta0(0) within 20% at 1e-6
    from slidekick.inner import distinguished_solution

    eps = 1e-6
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    eta0 = distinguished_solution(2, poly2.c_p).eta_at_0
    assert tr.exit_x == pytest.approx(eps ** (2 / 3) * eta0, rel=0.2)


@pytest.mark.parametrize("p, tol", [(2, 1e-4), (3, 5e-4)])
def test_strip_exit_follows_the_inner_law(p, tol):
    # the exit law of inner's docstring: from x = -0.8 the normal fold
    # (kappa = 1) leaves the strip at eta0(0) eps^{p/(2p-1)}; the ratio's
    # error shrinks like eps^{1/(2p-1)} (0.892535, 0.891213, 0.890569 at
    # eps = 1e-5, 1e-6, 1e-7 for p = 2, against eta0(0) = 0.889998), so one
    # Richardson step on 1e-6 and 1e-7 lands within 1.7e-5 (p = 2), 1.2e-4 (p = 3)
    from slidekick.inner import _richardson, distinguished_solution

    profile = phi_polynomial(p)
    system = models.model("normal-fold").system
    ratios = [strip_crossing(RegularizedSystem(system, profile, eps), -0.8, x_limit=1.0)[0]
              / eps ** (p / (2 * p - 1)) for eps in (1e-6, 1e-7)]
    eta0 = distinguished_solution(p, profile.c_p).eta_at_0
    assert abs(ratios[1] - eta0) < abs(ratios[0] - eta0)
    extrapolate = _richardson(*ratios, 10.0 ** (-1.0 / (2 * p - 1)))[0]
    assert abs(extrapolate - eta0) <= tol


@pytest.mark.parametrize("to_v", [-5.0, "seed"])
def test_trace_rejects_a_to_v_at_or_below_the_seed(normal_form, poly2, to_v):
    # the upward stop at to_v never fired: the trace ran 50 in x, to v = 2.4e7
    R = RegularizedSystem(normal_form, poly2, 1e-4)
    exp = SlowManifoldExpansion(poly2)
    v = exp.m0(-1.0) + R.epsilon * exp.m1(-1.0) if to_v == "seed" else to_v
    with pytest.raises(ConfigError, match="to_v"):
        trace_manifold(R, -1.0, v)


def test_hyperbolicity_guard(normal_form, poly2):
    R = RegularizedSystem(normal_form, poly2, 1e-3)
    with pytest.raises(HyperbolicityLost):
        trace_manifold(R, 0.2, 1.0)  # wrong side of the fold


@pytest.mark.parametrize("from_x", [0.49, 0.5, 0.51])
@pytest.mark.parametrize("p", [1, 2])
def test_hyperbolicity_guard_at_the_pole(normal_form, from_x, p):
    # m0 has its pole at x = 1/2, where the normal components of X+ and X-
    # agree; the seed check rejects it before evaluating the seed
    profile = phi_linear() if p == 1 else phi_polynomial(p)
    R = RegularizedSystem(normal_form, profile, 1e-3)
    with pytest.raises(HyperbolicityLost):
        trace_manifold(R, from_x, 1.0)


def test_linear_confinement_sandwich(normal_form):
    # extended linear system on [-1, 1/4]: the confinement constant must
    # dominate |m1|, which grows to 8/(1-2x)^4 = 128 at x = 1/4 (so K = 10
    # only covers the sliding side x <= 0; K = 150 covers the full range).
    # phi(v) = v without clamping; m0 = 3 at x = 1/4, so the trace to v = 3
    # covers the range
    def deriv(v, k):
        return v if k == 0 else 1.0 if k == 1 else 0.0

    unclamped = RegularizationProfile(p=1, eval=lambda v: v, deriv=deriv, phi_p_at_1=1.0)
    eps = 1e-3
    R = RegularizedSystem(normal_form, unclamped, eps)
    tr = trace_manifold(R, -1.0, to_v=3.0)
    assert tr.x[-1] > 0.25
    rep = verify_sandwich(R, tr, "linear_conf", K=150.0, x_range=(-1.0, 0.25))
    assert rep.fraction_ok == 1.0
    assert rep.count > 500
    rep10 = verify_sandwich(R, tr, "linear_conf", K=10.0, x_range=(-1.0, 0.0))
    assert rep10.fraction_ok == 1.0


def test_graph_over_x_sandwich(normal_form, poly2):
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    rep = verify_sandwich(R, tr, "graph_over_x_p", K=10.0, lam=0.45)
    assert rep.fraction_ok == 1.0


def test_sandwich_empty_range_vacuous(normal_form, poly2):
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    rep = verify_sandwich(R, tr, "linear_conf", x_range=(5.0, 6.0))
    assert rep.count == 0
    assert rep.fraction_ok == 1.0


def test_contraction_linear_bound(normal_form, lin):
    # |v1 - v2|(x) <= |v1 - v2|(x0) exp(-(x - x0)/(2 eps)) down to arithmetic
    eps = 1e-3
    R = RegularizedSystem(normal_form, lin, eps)
    rep = contraction_probe(R, [-0.1, -0.05], milestones=np.array([-0.05, -0.02, 0.0]))
    sep = rep.separations[(0, 1)]
    assert sep[0] > 0  # genuinely different orbits at the common start
    bound = sep[0] * np.exp(-(0.0 - (-0.05)) / (2 * eps))
    assert sep[2] <= max(bound, 1e-10)


def test_contraction_identical_starts(normal_form, lin):
    R = RegularizedSystem(normal_form, lin, 1e-3)
    rep = contraction_probe(R, [-0.1, -0.1])
    assert np.nanmax(rep.separations[(0, 1)]) < 1e-12


def test_landing_independence(normal_form, poly2):
    # spread of strip exits over deep probes obeys the Lipschitz gate
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    rep = contraction_probe(R, [-0.3, -0.2, -0.1])
    spread = max(rep.exit_points) - min(rep.exit_points)
    p = 2
    assert spread <= 100 * eps ** ((3 * p - 1) / (2 * p - 1))
    assert spread <= 1e-8


def test_monotone_exit(normal_form, poly2):
    # v strictly increases along the trace inside the outer block
    eps = 1e-4
    R = RegularizedSystem(normal_form, poly2, eps)
    tr = trace_manifold(R, -1.0, 1.0)
    vs = tr.v[tr.v > 0.8]
    assert np.all(np.diff(vs) > -1e-12)


@pytest.mark.parametrize("profile", ["linear", "poly(2)", "poly(3)"])
@pytest.mark.parametrize("model_id", sorted(models._BUILDERS))
def test_orbit_equation_is_the_documented_blend_bitwise(model_id, profile):
    # the strip rhs, its Jacobian and the v-graph equation against the blend
    # 0.5 (X+ + X-) + 0.5 phi(v) (X+ - X-) through PlanarField.__call__,
    # digit for digit; the physical pairs (offset 1) cover the offset
    desc = models.model(model_id, check=False)
    prof, eps = parse_profile(profile), 1e-2
    lo, hi = desc.fold_bracket
    for system in filter(None, (desc.system, desc.physical_system)):
        R = RegularizedSystem(system, prof, eps)
        rhs, jac, over_v = _orbit_equation(R, timed=True)
        flat, flat_jac, _over_v = _orbit_equation(R)
        for x in np.linspace(lo, hi, 6).tolist():
            for v in np.linspace(-0.95, 0.95, 8).tolist():
                y = system.offset + eps * v
                (p1, p2), (m1, m2), w, dw = system.x_plus(x, y), system.x_minus(x, y), prof(v), prof.deriv(v, 1)
                b1, b2 = 0.5 * (p1 + m1) + 0.5 * w * (p1 - m1), 0.5 * (p2 + m2) + 0.5 * w * (p2 - m2)
                d1, d2 = 0.5 * dw * (p1 - m1), 0.5 * dw * (p2 - m2)
                dv = (d2 * b1 - b2 * d1) / (eps * b1 * b1)
                z = np.array([v, 0.0])
                assert rhs(x, z) == [b2 / (eps * b1), 1.0 / b1]
                assert flat(x, z[:1]) == [b2 / (eps * b1)]
                assert jac(x, z) == [[dv, 0.0], [-d1 / (b1 * b1), 0.0]]
                assert flat_jac(x, z[:1]) == [[dv]]
                assert over_v(v, np.array([x])) == [eps * b1 / b2]


def _strip_entry(x, eps):
    # stage P of the normal fold in closed form: y - x^2 is a first integral
    # of X+ = (1, 2x), so the orbit from (x, 0.25) enters y = eps here
    return -math.sqrt(x * x + eps - 0.25)


@pytest.mark.parametrize("profile, eps, x", [
    ("linear", 1e-3, -0.8),
    ("linear", 1e-6, -0.75),
    ("poly(2)", 1e-3, -0.75),
    ("poly(2)", 1e-6, -0.8),
    ("poly(3)", 1e-3, -0.8),
    ("poly(3)", 1e-6, -0.75),
])
def test_strip_exit_agrees_with_tight_radau(normal_form, profile, eps, x, lapack_radau):
    # the crossing's LSODA exit against Radau IIA at rtol 1e-13; each
    # profile at both eps and both entries.  The first crossing of R, from
    # 0.02 further left, is the plain LSODA shot to the bit; the crossing
    # from x joins its recorded passage within 5e-12 of its own plain shot
    R = RegularizedSystem(normal_form, parse_profile(profile), eps)
    rhs, jac, _over_v = _orbit_equation(R, timed=True)

    def plain(x_in):
        shot = shoot(rhs, (x_in, 0.4), [1.0, 0.0], [Stop(0, 1.0, 1), Stop(0, -1.0, -1)], jac=jac,
                     method="LSODA", rtol=1e-12, atol=1e-14)
        return shot.t, float(shot.z[1])

    x_rec, x_in = _strip_entry(x - 0.02, eps), _strip_entry(x, eps)
    assert strip_crossing(R, x_rec, x_limit=0.4) == plain(x_rec)
    joined, fresh = strip_crossing(R, x_in, x_limit=0.4), plain(x_in)
    assert np.max(np.abs(np.subtract(joined, fresh))) <= 5e-12
    ref = shoot(rhs, (x_in, 0.4), [1.0, 0.0], [Stop(0, 1.0, 1)], jac=jac, method="Radau",
                rtol=1e-13, atol=1e-15)
    assert abs(fresh[0] - ref.t) <= 1e-11
    assert abs(joined[0] - ref.t) <= 1e-11


_STUCK = pytest.mark.xfail(strict=True, reason="LSODA stays in its non-stiff mode along the "
                           "slow manifold at steps of order eps: 12,000-16,000 steps")


@pytest.mark.parametrize("profile, eps, x", [
    ("linear", 1e-3, -0.8),
    ("linear", 1e-4, -0.765),  # 13,262 steps at rtol 1e-11
    ("linear", 1e-5, -0.78),
    ("linear", 1e-6, -0.75),
    ("poly(2)", 1e-3, -0.77),
    ("poly(2)", 1e-4, -0.8),
    ("poly(2)", 1e-5, -0.76),
    ("poly(2)", 1e-6, -0.8),
    ("poly(3)", 1e-3, -0.75),
    ("poly(3)", 1e-4, -0.79),
    ("poly(3)", 1e-5, -0.8),
    ("poly(3)", 1e-6, -0.77),
    pytest.param("poly(2)", 1e-4, -0.73, marks=_STUCK),
    pytest.param("poly(2)", 1e-4, -0.71, marks=_STUCK),
    pytest.param("poly(3)", 1e-4, -0.71, marks=_STUCK),
])
def test_strip_crossing_step_budget(normal_form, shoot_calls, profile, eps, x):
    # a count-based guard: a crossing that falls back to steps of order eps
    # shows here on any machine, before it shows as a timeout.  A second
    # crossing of the same R joins the recorded passage after its fast layer
    calls = shoot_calls(slow_manifold)
    R = RegularizedSystem(normal_form, parse_profile(profile), eps)
    strip_crossing(R, _strip_entry(x, eps), x_limit=0.4)
    (call,) = calls
    assert call.shot.n_steps <= 3000
    strip_crossing(R, _strip_entry(x + 0.01, eps), x_limit=0.4)
    (join,) = calls[1:]
    assert join.shot.n_steps <= 400


@pytest.mark.parametrize("model_id, profile, eps, x, x_limit, n_steps, nfev, n_bdf, exit, time", [
    ("normal-fold", "poly(2)", 1e-4, -0.8, 0.4, 1376, 2281, 1123, "0.001928401248042381", "1.4419246825166592"),
    ("normal-fold", "linear", 1e-3, -0.8, 0.4, 729, 1222, 454, "0.001984428684283231", "1.4419804907267268"),
    ("coulomb", "poly(2)", 1e-3, 0.995, 1.45, 62, 130, 0, "1.0047726141920093", "0.009782318633180439"),
])
def test_strip_crossing_work_and_digits_pinned(shoot_calls, model_id, profile, eps, x, x_limit, n_steps, nfev,
                                               n_bdf, exit, time):
    # a count guard on first crossings at the callers' x_limit (fold + 0.4
    # in the fold map, + 0.45 in centre_semistability).  The pins were taken
    # while the blend still went through PlanarField.__call__, nfev by
    # wrapping rhs and leaving out shoot's own calls (the start-on-level
    # probe and the polish); a cheaper step must not change one of them.
    # n_bdf counts the steps LSODA took in its stiff (BDF) mode: the short
    # Coulomb crossing stays in Adams mode throughout
    calls = shoot_calls(slow_manifold)
    R = RegularizedSystem(models.model(model_id, check=False).system, parse_profile(profile), eps)
    got = strip_crossing(R, x, x_limit=x_limit)
    (call,) = calls
    assert (call.shot.n_steps, call.shot.nfev, call.shot.n_bdf) == (n_steps, nfev, n_bdf)
    assert tuple(map(repr, got)) == (exit, time)


@pytest.mark.parametrize("model_id, x_limit", [("normal-fold", 0.4), ("coulomb", 1.45)])
def test_strip_crossing_rejects_a_nan_entry(hang_guard, model_id, x_limit):
    # a NaN entry became a NaN start time, and the LSODA shot spun forever
    R = RegularizedSystem(models.model(model_id, check=False).system, phi_polynomial(2), 1e-3)
    with pytest.raises(ConfigError, match="finite"):
        strip_crossing(R, math.nan, x_limit=x_limit)


def test_strip_crossing_miss_is_a_plain_crossing(normal_form, poly2, shoot_calls):
    # an entry close to the fold has not reached the recorded passage 20 eps
    # on: the join test inside the one shot passes its root over, and the
    # crossing is the plain one to the bit
    R = RegularizedSystem(normal_form, poly2, 1e-2)
    fresh = strip_crossing(R, -0.2, x_limit=0.4)
    slow_manifold._passages.clear()
    calls = shoot_calls(slow_manifold)
    strip_crossing(R, -0.7, x_limit=0.4)
    assert strip_crossing(R, -0.2, x_limit=0.4) == fresh
    (crossing,) = calls[1:]
    assert len(crossing.args[3]) == 3 and crossing.shot.stop == 0 and crossing.shot.t == fresh[0]
    assert slow_manifold._passages[R].entry == -0.7  # the entry farthest left stays the record


def test_joined_exit_beyond_the_limit_fails(normal_form, poly2, shoot_calls):
    # the recorded exit lies right of this call's x_limit: the join (one
    # shot) raises, like the plain crossing of the same entry
    R = RegularizedSystem(normal_form, poly2, 1e-3)
    x_exit, _t = strip_crossing(R, -0.75, x_limit=0.4)
    calls = shoot_calls(slow_manifold)
    with pytest.raises(slow_manifold.StripCrossingFailed, match="did not return"):
        strip_crossing(R, -0.74, x_limit=x_exit / 2)
    assert len(calls) == 1
    slow_manifold._passages.clear()
    with pytest.raises(slow_manifold.StripCrossingFailed, match="did not return"):
        strip_crossing(R, -0.74, x_limit=x_exit / 2)


def test_passage_store_bound(normal_form, lin, poly3, shoot_calls):
    # at most 32 passages, least recently used evicted, of at most 512 step
    # ends each: under 0.5 MB.  poly(3) at eps 1e-6 takes about 2000 steps
    calls = shoot_calls(slow_manifold)
    long = RegularizedSystem(normal_form, poly3, 1e-6)
    strip_crossing(long, -0.75, x_limit=0.4)
    assert calls[0].shot.n_steps > 1024
    assert 256 < slow_manifold._passages[long].knots.shape[1] <= 512
    systems = [RegularizedSystem(normal_form, lin, 1e-3 * (1 + k / 64)) for k in range(32)]
    for R in systems:
        strip_crossing(R, -0.75, x_limit=0.4)
    assert list(slow_manifold._passages) == systems
    assert sum(rec.knots.nbytes for rec in slow_manifold._passages.values()) < 0.5e6


def test_trace_and_probe_agree_with_tight_radau(normal_form, monkeypatch, lapack_radau):
    # the trace's and the probe's LSODA at rtol 3e-14 against the same
    # solves on Radau at rtol 1e-13, atol 1e-15.  Measured: 8.1e-15 in the
    # trace exits (7.7e-14 over the three profiles at eps 1e-2, 1e-3 and
    # 1e-4), 6.3e-14 in the probe exits
    traces = [("linear", 1e-4), ("poly(2)", 1e-3), ("poly(3)", 1e-4)]
    probe = RegularizedSystem(normal_form, phi_polynomial(2), 1e-4)
    starts = [-0.3, -0.2, -0.1]

    def run():
        exits = [trace_manifold(RegularizedSystem(normal_form, parse_profile(prof), eps), -1.0, 1.0).exit_x
                 for prof, eps in traces]
        return np.array(exits), np.array(contraction_probe(probe, starts).exit_points)

    def radau_shoot(*args, **kwargs):
        return shoot(*args, **{**kwargs, "method": "Radau", "rtol": 1e-13, "atol": 1e-15})

    got_trace, got_probe = run()
    monkeypatch.setattr("slidekick.slow_manifold.shoot", radau_shoot)
    ref_trace, ref_probe = run()
    assert np.max(np.abs(got_trace - ref_trace)) <= 2e-13
    assert np.max(np.abs(got_probe - ref_probe)) <= 3e-13


def test_trace_and_probe_step_budget(normal_form, shoot_calls):
    # LSODA steps summed over criterion 2's traces and criterion 6's probe
    # shots; the caps are 1.5x the counts measured at rtol 3e-14, so a slide
    # into Adams-mode stepping shows here as a count before it shows as a
    # timeout
    calls = shoot_calls(slow_manifold)
    for eps in (1e-2, 1e-3, 1e-4):
        trace_manifold(RegularizedSystem(normal_form, phi_linear(), eps), -1.0, 1.0)
    steps = [c.shot.n_steps for c in calls]
    assert len(steps) == 3
    assert sum(steps) <= 1.5 * (743 + 812 + 823), steps
    calls.clear()
    contraction_probe(RegularizedSystem(normal_form, phi_linear(), 1e-3), [-0.1, -0.05])
    contraction_probe(RegularizedSystem(normal_form, phi_polynomial(2), 1e-4), [-0.3, -0.2, -0.1])
    steps = [c.shot.n_steps for c in calls]
    assert len(steps) == 5
    assert sum(steps) <= 1.5 * (362 + 247 + 1526 + 1332 + 1168), steps
