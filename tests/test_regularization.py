import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidekick.errors import ConfigError
from slidekick.regularization import (
    P_MAX,
    InvalidP,
    RegularizedSystem,
    parse_profile,
    phi_linear,
    phi_polynomial,
    regularized_field,
)


def test_linear_profile_values(lin):
    assert lin(0.0) == 0.0
    assert lin(0.5) == 0.5
    assert lin(2.0) == 1.0
    assert lin(-3.0) == -1.0
    assert lin.phi_p_at_1 == 1.0


def test_linear_profile_is_the_p1_polynomial():
    # one builder for the family: the linear profile runs the same ev and dv
    lin, poly = phi_linear(), phi_polynomial(2)
    assert lin.eval.__code__ is poly.eval.__code__
    assert lin.deriv.__code__ is poly.deriv.__code__


def test_linear_profile_keeps_the_clamp_values():
    # the closed forms of the hand-written clamp the p = 1 builder replaced
    lin = phi_linear()
    edge = float(np.nextafter(1.0, 2.0))
    for v in [*np.linspace(-1.2, 1.2, 10001).tolist(), 1.0, -1.0, 0.0, -0.0, edge, -edge]:
        assert lin.eval(v) == min(1.0, max(-1.0, v))
        assert lin.deriv(v, 1) == (1.0 if -1.0 <= v <= 1.0 else 0.0)
        for k in (2, 3, 4):
            assert lin.deriv(v, k) == 0.0
    assert (lin.p, lin.c_p, lin.phi_p_at_1, lin.name) == (1, 1.0, 1.0, "linear")


def test_poly2_closed_form(poly2):
    # phi(v) = (3v - v^3)/2 on [-1, 1]
    for v in np.linspace(-1, 1, 17):
        assert poly2(v) == pytest.approx((3 * v - v**3) / 2, abs=1e-14)
    assert poly2(1.0) == pytest.approx(1.0, abs=1e-14)
    assert poly2.phi_p_at_1 == pytest.approx(-3.0, abs=1e-12)


def test_poly3_gluing(poly3):
    assert poly3.deriv(1.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert poly3.deriv(1.0, 2) == pytest.approx(0.0, abs=1e-12)
    assert poly3.deriv(-1.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert poly3.phi_p_at_1 == pytest.approx(15.0, abs=1e-10)


def test_invalid_p():
    with pytest.raises(InvalidP):
        phi_polynomial(1)
    for p in (P_MAX + 1, 102):  # 102 ended in numpy's "Power is too large"
        with pytest.raises(InvalidP):
            phi_polynomial(p)
    with pytest.raises(InvalidP):
        parse_profile(f"poly({P_MAX + 1})")


def test_profile_at_p_max_is_monotone():
    # the largest accepted degree keeps phi' >= 0 to rounding (-1.4e-10 on a
    # 20001-point grid); p = 30 reads -1.7e-7 and p = 50 -8.4e-2
    prof = phi_polynomial(P_MAX)
    assert min(prof.deriv(v, 1) for v in np.linspace(-1.0, 1.0, 20001)) > -1e-9


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_cp_sign_matches_parity(p):
    prof = phi_polynomial(p)
    if p % 2 == 0:
        assert prof.c_p < 0
    else:
        assert prof.c_p > 0


@pytest.mark.parametrize("p", [2, 3, 4])
def test_gluing_by_one_sided_differences(p):
    prof = phi_polynomial(p)
    h = 1e-4
    for k in range(1, p):
        inner = (prof.deriv(1.0 - h, k) - prof.deriv(1.0, k)) / h
        # derivative of order k vanishes at the edge; its difference toward the
        # outside (exactly zero there) must agree to the contact order
        assert abs(prof.deriv(1.0 - h, k)) < 10 * h ** (p - k) * abs(prof.phi_p_at_1)
        assert abs(prof.deriv(1.0, k)) < 1e-5 * max(1.0, abs(inner))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_monotone_and_odd(p):
    prof = phi_polynomial(p)
    vs = np.linspace(-0.999, 0.999, 1000)
    assert all(prof.deriv(v, 1) > 0 for v in vs)
    assert max(abs(prof(v) + prof(-v)) for v in vs) < 1e-14


@pytest.mark.parametrize("p", [2, 3, 4])
def test_profile_values_match_numpy_bitwise(p):
    # the Horner evaluation keeps numpy's polyval order, so every value and
    # derivative equals Polynomial.__call__ to the last bit
    from numpy.polynomial import Polynomial

    base = Polynomial([1.0, 0.0, -1.0]) ** (p - 1)
    anti = base.integ()
    polys = [anti * (1.0 / float(anti(1.0)))]
    for _ in range(p + 2):
        polys.append(polys[-1].deriv())
    prof = phi_polynomial(p)
    vs = np.random.default_rng(p).uniform(-1.0, 1.0, 400)
    for k, poly in enumerate(polys):
        assert [prof.deriv(v, k) for v in vs] == [float(poly(v)) for v in vs]


def test_phi_p_at_1_matches_finite_difference(poly2, poly3):
    for prof in (poly2, poly3):
        p = prof.p

        def one_sided(h):
            pts = [prof(1.0 - k * h) for k in range(p + 1)]
            return sum((-1) ** k * math.comb(p, k) * pts[k] for k in range(p + 1)) / h**p

        # two-level Richardson kills the O(h) and O(h^2) bias
        r1a = 2.0 * one_sided(5e-3) - one_sided(1e-2)
        r1b = 2.0 * one_sided(2.5e-3) - one_sided(5e-3)
        fd = (4.0 * r1b - r1a) / 3.0
        assert fd == pytest.approx(prof.phi_p_at_1, rel=1e-4)


def test_parse_profile():
    assert parse_profile("linear").p == 1
    assert parse_profile("poly(3)").p == 3
    with pytest.raises(ValueError):
        parse_profile("tanh")


def test_regularized_field_values(normal_form, lin):
    R = RegularizedSystem(normal_form, lin, 0.1)
    zf = regularized_field(R)
    assert zf(0.0, 0.0) == pytest.approx((0.5, 0.5))
    assert zf(0.3, 0.2) == (1.0, 0.6)   # y >= eps: exactly X+
    assert zf(0.3, -0.2) == (0.0, 1.0)  # y <= -eps: exactly X-


def test_strip_boundary_continuity(normal_form, poly2):
    R = RegularizedSystem(normal_form, poly2, 1e-2)
    zf = regularized_field(R)
    for x in np.linspace(-0.5, 0.5, 11):
        for s in (+1, -1):
            inside = zf(x, s * (1e-2 - 1e-13))
            outside = zf(x, s * (1e-2 + 1e-13))
            assert abs(inside[0] - outside[0]) < 1e-12
            assert abs(inside[1] - outside[1]) < 1e-12


def test_slow_form_example(normal_form, lin):
    # normal form at (x, v) = (-0.25, 0): xdot = 1/2, eps*vdot = ydot = 0.25
    eps = 0.1
    zf = regularized_field(RegularizedSystem(normal_form, lin, eps))
    sx, sy = zf(-0.25, 0.0)
    assert sx == pytest.approx(0.5)
    assert sy == pytest.approx(0.25)


def test_fast_field_vanishes_on_slow_manifold(normal_form, poly2):
    eps = 1e-3
    zf = regularized_field(RegularizedSystem(normal_form, poly2, eps))
    for x in np.linspace(-0.45, -0.05, 9):
        v = poly2.inverse((1 + 2 * x) / (1 - 2 * x))
        assert abs(zf(x, eps * v)[1]) < 1e-12


@settings(derandomize=True, deadline=None)
@given(p=st.integers(1, 5), v=st.floats(-1.0, 1.0), w=st.floats(-1.0, 1.0), out=st.floats(1.0, 1e3))
def test_profile_promises(p, v, w, out):
    # odd, monotone on [-1, 1] (to the 1e-14 rounding of a degree-9 Horner
    # sum; 8.9e-16 is the worst drop seen on a dense grid at p = 5), C^{p-1}
    # gluing at +-1 (rounding left: 5.7e-14 at p = 5), flat outside
    prof = phi_linear() if p == 1 else phi_polynomial(p)
    assert prof(-v) == -prof(v)
    lo, hi = sorted((v, w))
    assert prof(hi) >= prof(lo) - 1e-14
    assert prof.deriv(v, 1) >= -1e-14
    for k in range(1, p):
        assert abs(prof.deriv(1.0, k)) <= 1e-12 and abs(prof.deriv(-1.0, k)) <= 1e-12
    if out > 1.0:
        assert prof(out) == 1.0 and prof(-out) == -1.0
        assert all(prof.deriv(s * out, k) == 0.0 for s in (1.0, -1.0) for k in range(1, p + 3))


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_non_positive_or_non_finite_eps_rejected(normal_form, eps):
    # a NaN eps passed the old `eps <= 0` check and gave NaN fold maps
    with pytest.raises(ConfigError):
        RegularizedSystem(normal_form, phi_linear(), eps)
