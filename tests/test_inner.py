import math

import numpy as np
import pytest

from slidekick import inner
from slidekick.errors import ConfigError, NumericalFailure
from slidekick.inner import (
    InnerSolution,
    SeedInconsistent,
    SeriesOutOfRange,
    _deviation_seed,
    _integrate_unscaled,
    alpha_beta,
    asymptotic_seed,
    distinguished_solution,
    eta1_check,
    eta_at_zero_via_normalization,
    normalized_solution,
)
from slidekick.integrator import shoot
from slidekick.regularization import P_MAX, InvalidP, phi_polynomial


def test_seed_example():
    # p=2, phi''(1) = -3 => c_2 = -3/2; at u = -10 the two terms give -37.4333
    val = asymptotic_seed(2, -1.5, -10.0)
    assert val == pytest.approx(-37.5 + 2.0 / 30.0, abs=1e-12)


def test_seed_leading_term():
    for u in (-1e3, -1e5):
        ratio = asymptotic_seed(2, -1.5, u) / (-1.5 / 4 * u * u)
        assert ratio == pytest.approx(1.0, abs=1e-5)


def test_seed_range_guard():
    with pytest.raises(SeriesOutOfRange):
        asymptotic_seed(2, -1.5, -4.0)


def test_deviation_seed_example():
    # etabar = -ubar^2 - 1/(2 ubar) - 1/(8 ubar^4) at ubar = -10 is -99.95 to
    # 1.25e-5; the series is kept as the deviation w = etabar + ubar^2 itself
    assert _deviation_seed(2, -10.0) == pytest.approx(0.05 - 1.25e-5, rel=1e-14)


def test_parity_guards():
    with pytest.raises(SeedInconsistent):
        distinguished_solution(2, +1.5)
    with pytest.raises(SeedInconsistent):
        distinguished_solution(3, -2.5)
    with pytest.raises(SeedInconsistent):
        distinguished_solution(2, -1.5, -5.0)


@pytest.mark.parametrize("u_start", [math.nan, -math.inf])
def test_non_finite_u_start_rejected(u_start):
    # a NaN start passed the old `u_start > -10` check and hung the shot
    with pytest.raises(ConfigError):
        distinguished_solution(2, -1.5, u_start)


@pytest.mark.parametrize("p", [-1, 0, 1, P_MAX + 1])
def test_degree_guard(p):
    # the seeds and the scaling constants need 2 <= p <= P_MAX, the bounds of phi_polynomial
    with pytest.raises(InvalidP):
        distinguished_solution(p, 3.0)
    with pytest.raises(InvalidP):
        normalized_solution(p)


@pytest.mark.parametrize("p", [6, 7])
def test_a_shot_that_cannot_advance_fails(hang_guard, p):
    # the seed's cancellation puts the denominator at 0 (p = 6 from u = -24,
    # p = 7 from its default u = -12); LSODA then stepped forever with t
    # stuck and z NaN.  The seed guard now rejects it before LSODA runs
    u_start = -24.0 if p == 6 else None
    with np.errstate(divide="ignore"), pytest.raises(NumericalFailure, match="null-cline"):
        distinguished_solution(p, phi_polynomial(p).c_p, u_start)


def test_p6_delivers_from_its_default_depth():
    # from u = -12 the p = 6 seed clears the null-cline.  Shots on both routes
    # from starts nearer 0, seeded by the normalized series, give
    # 0.7374629694211; eta0(0) lies within its estimate (1.4e-11) of that
    sol = distinguished_solution(6, phi_polynomial(6).c_p)
    assert abs(sol.eta_at_0 - 0.7374629694211) <= sol.estimated_error


@pytest.mark.filterwarnings("ignore:lsoda")
@pytest.mark.parametrize("p", range(2, P_MAX + 1))
def test_every_p_delivers_a_bounded_value_or_fails_typed(hang_guard, p):
    # a seed within TOUCH of the null-cline (the normalized one from p = 10 on)
    # was stepped off across it, so the stop never fired: p = 10 gave
    # etabar0(0) = -6.05e17 and p = 13 gave 1.31e23, with no failure raised
    for solve in (lambda: normalized_solution(p).etabar_at_0,
                  lambda: distinguished_solution(p, phi_polynomial(p).c_p).eta_at_0):
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                value = solve()
        except NumericalFailure:
            continue
        assert abs(value) < 2.0


def test_a_step_that_leaves_t_unchanged_can_recover():
    # the p = 6 run from u = -12 takes one step shorter than ulp(12), which
    # leaves t as it was, and then goes on to u = 0: no progress alone is no failure
    shot = _integrate_unscaled(6, phi_polynomial(6).c_p, -12.0, max_step=0.01, dense=True)
    assert np.count_nonzero(np.diff(shot.ts) == 0.0) == 1
    assert shot.t == 0.0 and np.isfinite(shot.z).all()


def test_eta0_richardson_stability():
    # one shot from -20 and one from -40 agree: the seed's remainder is negligible
    a = distinguished_solution(2, -1.5, -20.0)
    b = distinguished_solution(2, -1.5, -40.0)
    assert a.eta_at_0 > 0
    assert abs(a.eta_at_0 - b.eta_at_0) < 1e-8
    assert a.estimated_error < 1e-10


@pytest.mark.parametrize("c_p", [phi_polynomial(2).c_p, -1.5])
def test_estimated_error_covers_the_closed_form(c_p):
    # du/deta = eta + u^2 is an Airy Riccati equation: eta0(0) = -a1'/alpha.
    # The estimate covers the direct route's true error 3x over (measured 23x
    # and 5.9x) and the normalized route's error in eta units (measured
    # 4.4e-12 and 1.4e-12 against 1.0e-12)
    from scipy.special import ai_zeros

    a1p = ai_zeros(1)[1][0]
    alpha, _beta = alpha_beta(2, c_p)
    sol = distinguished_solution(2, c_p)
    assert sol.estimated_error >= 3.0 * abs(sol.eta_at_0 + a1p / alpha)
    assert sol.estimated_error >= abs(normalized_solution(2).etabar_at_0 + a1p) / abs(alpha)


def simpson_residual(solution: InnerSolution) -> float:
    """Max residual |eta(b)-eta(a) - integral of RHS| over grid cell pairs.

    Composite Simpson quadrature of the right-hand side along the dense grid
    gives an independent consistency measure of order h^4, avoiding the
    noise of finite-differencing the solution itself.
    """
    u, eta, p, c_p = solution.u, solution.eta, solution.p, solution.c_p
    den = solution.den

    worst = 0.0
    for a in range(0, len(u) - 2, 2):
        mid, b = a + 1, a + 2
        h = u[b] - u[a]
        quad = h / 6.0 * (2.0 / den[a] + 8.0 / den[mid] + 2.0 / den[b])
        worst = max(worst, abs(eta[b] - eta[a] - quad))
    return worst


def test_eta0_residual_on_grid():
    s = distinguished_solution(2, -1.5)
    assert simpson_residual(s) <= 1e-10
    s3 = distinguished_solution(3, 2.5)
    assert simpson_residual(s3) <= 1e-10 * 2  # larger p runs closer to the null-cline
    s4 = distinguished_solution(4, phi_polynomial(4).c_p)
    assert simpson_residual(s4) <= 1e-10


def test_denominator_positive_along_branch():
    for p, c in [(2, -1.5), (3, 2.5), (4, -1.0)]:
        s = distinguished_solution(p, c)
        assert s.den.min() > 0.0


def test_normalization_consistency():
    # dual route: unscaled integration vs normalized equation mapped back
    for p, c in [(2, -1.5), (3, 2.5), (4, -2.0)]:
        direct = distinguished_solution(p, c).eta_at_0
        mapped = eta_at_zero_via_normalization(p, c)
        assert direct == pytest.approx(mapped, abs=1e-8)


def test_scaling_law_between_two_cp():
    # eta0(0; c) = etabar0(0)/alpha(c): ratio of two c values is alpha ratio
    a1 = distinguished_solution(2, -1.5).eta_at_0
    a2 = distinguished_solution(2, -3.0).eta_at_0
    al1, _ = alpha_beta(2, -1.5)
    al2, _ = alpha_beta(2, -3.0)
    assert a1 * al1 == pytest.approx(a2 * al2, abs=1e-9)


def test_alpha_beta_paper_form_p2():
    # alpha = -(phi''(1)/2)^{1/3}, beta = ((phi''(1))^2/32)^{1/3} at phi''=-3
    al, be = alpha_beta(2, -1.5)
    assert al == pytest.approx((1.5) ** (1 / 3), abs=1e-14)
    assert be == pytest.approx((9.0 / 32.0) ** (1 / 3), abs=1e-14)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_normalized_sandwich(p):
    # the deviation from the null-cline stays strictly between 0 and
    # (1/p)|ubar|^{1-p} (times a small margin near the inner end)
    ns = normalized_solution(p)
    mask = (ns.ubar <= -0.5) & (ns.ubar >= -20.0)
    w = ns.deviation()[mask]
    ub = ns.ubar[mask]
    assert np.all(w != 0.0)
    sign = 1.0 if p % 2 == 0 else -1.0
    assert np.all(np.sign(w) == sign)
    ratio = np.abs(w) * p * np.abs(ub) ** (p - 1)
    assert ratio.max() < 1.5  # K = (1/p)(1 + margin) with margin 0.5


@pytest.mark.parametrize("p", [2, 3, 4])
def test_normalized_route_agrees_with_radau(p, lapack_radau):
    # the normalized route steps with LSODA at rtol 1e-12; a tight Radau
    # solve of the same deviation equation from the same seed lands within
    # the 3e-11 its docstring promises (measured worst 1.97e-11, at p = 4)
    from scipy.integrate import solve_ivp
    from scipy.special import ai_zeros

    from slidekick.inner import _integrate_normalized

    u0 = -30.0
    w0 = -(1.0 / p) * u0 ** (1 - p) - ((p - 1) / p**3) * u0 ** (2 - 3 * p)
    ref = solve_ivp(lambda u, z: [1.0 / z[0] + p * u ** (p - 1)], (u0, 0.0), [w0],
                    method=lapack_radau, jac=lambda u, z: [[-1.0 / (z[0] * z[0])]],
                    rtol=1e-13, atol=1e-15)
    got = float(_integrate_normalized(p, u0).z[0])
    assert abs(got - ref.y[0, -1]) <= 3e-11
    if p == 2:
        # du/deta = eta + u^2 is an Airy Riccati equation: etabar0(0) = -a1'
        assert abs(normalized_solution(2).etabar_at_0 + ai_zeros(1)[1][0]) <= 1e-10


def test_omega0_is_minus_the_first_airy_zero():
    # the same Airy Riccati equation blows up where Ai(-etabar) first
    # vanishes: the forward constant is -a1 (measured 6.1e-10 off)
    from scipy.special import ai_zeros

    from slidekick.inner import omega0

    assert abs(omega0() + ai_zeros(1)[0][0]) <= 1e-8


@pytest.mark.parametrize("p", [2, 3, 4])
def test_unscaled_route_agrees_with_tight_radau(p, monkeypatch, lapack_radau):
    # the unscaled route steps with LSODA at rtol 3e-14; rerunning the same
    # solves (same seeds and step caps) on Radau at rtol 1e-13, atol 1e-15
    # must land on the same eta0(0) and grid.  Measured worst: 1.1e-12 in
    # eta0(0) and 4.3e-12 in D, both at p = 4
    c_p = phi_polynomial(p).c_p
    got = distinguished_solution.__wrapped__(p, c_p)

    def radau_shoot(*args, **kwargs):
        return shoot(*args, **{**kwargs, "method": "Radau", "rtol": 1e-13, "atol": 1e-15})

    monkeypatch.setattr("slidekick.inner.shoot", radau_shoot)
    ref = distinguished_solution.__wrapped__(p, c_p)
    assert abs(got.eta_at_0 - ref.eta_at_0) <= 2e-12
    assert np.max(np.abs(got.den - ref.den)) <= 1.5e-11


def test_seed_perturbation_dies():
    # attracting branch: a 1e-6 relative seed kick changes eta(0) by < 1e-8
    from scipy.integrate import solve_ivp

    base = distinguished_solution(2, -1.5)

    def rhs(u, z):
        return [8.0 / z[0] - 2 * (-1.5) * u]

    d0 = 4.0 * asymptotic_seed(2, -1.5, -30.0) - (-1.5) * 900.0
    sol = solve_ivp(rhs, (-30.0, 0.0), [d0 * (1 + 1e-6)], method="Radau",
                    rtol=1e-12, atol=1e-14)
    eta0_kicked = float(sol.y[0][-1]) / 4.0
    assert abs(eta0_kicked - base.eta_at_0) < 1e-8


def test_eta1_slope_p2(poly2):
    rep = eta1_check(2, poly2.c_p, poly2.deriv(1.0, 3) / 6.0)
    assert rep.slope == pytest.approx(3.0, abs=0.05)
    assert rep.r_squared > 0.999


def test_eta1_slope_p3(poly3):
    rep = eta1_check(3, poly3.c_p, poly3.deriv(1.0, 4) / 24.0)
    assert rep.slope == pytest.approx(4.0, abs=0.05)


def test_eta1_zero_forcing_decays():
    rep = eta1_check(2, -1.5, 0.0, seed_eta1=1.0)
    assert rep.final_magnitude < 1e-6
    # zero forcing has no power law to fit, however small the decayed tail is
    assert math.isnan(rep.slope)
    assert rep.r_squared == 0.0


def test_inner_step_budget(shoot_calls):
    # LSODA steps per call, summed over its shots; the caps are 1.5x the
    # counts measured at rtol 3e-14, so a slide into Adams-mode stepping
    # shows here as a count before it shows as a timeout
    calls = shoot_calls(inner)
    for p, measured in [(2, 3626), (3, 4155), (4, 6177)]:
        calls.clear()
        distinguished_solution.__wrapped__(p, phi_polynomial(p).c_p)
        steps = [c.shot.n_steps for c in calls]
        assert len(steps) == 2 and {c.shot.method for c in calls} == {"LSODA"}
        assert sum(steps) <= 1.5 * measured, (p, steps)
    for p, measured in [(2, 1879), (3, 2610)]:
        prof = phi_polynomial(p)
        calls.clear()
        eta1_check(p, prof.c_p, prof.deriv(1.0, p + 1) / math.factorial(p + 1))
        steps = [c.shot.n_steps for c in calls]
        assert len(steps) == 1
        assert sum(steps) <= 1.5 * measured, (p, steps)


def test_memoized_identity():
    a = distinguished_solution(2, -1.5)
    b = distinguished_solution(2, -1.5)
    assert a is b


def test_omega0_forward_constant():
    # the forward continuation settles onto Omega0 - 1/ubar; the constant is
    # computed, stable under doubling the fit endpoint, and positive
    from slidekick.inner import omega0

    a = omega0(50.0)
    b = omega0(100.0)
    assert a > 0
    assert abs(a - b) < 1e-6
