import math

import numpy as np
import pytest

from slidekick.fields import RegionClass, classify_point, find_fold
from slidekick.integrator import Section, integrate
from slidekick.models import (
    _BUILDERS,
    BadParams,
    UnknownModel,
    list_models,
    model,
    saddle_eigen,
)
from slidekick.poincare import normal_form_constants


def test_unknown_model():
    with pytest.raises(UnknownModel):
        model("does-not-exist")


def test_bad_params():
    with pytest.raises(BadParams):
        model("stribeck", F_s=0.1, F_d=0.5)
    with pytest.raises(BadParams):
        model("grazing-family", variant="attracting", c=-2.0)


def test_unknown_params_rejected():
    # a misspelled parameter is an error, not a silent default
    with pytest.raises(BadParams):
        model("coulomb", Fs=2.0)
    with pytest.raises(BadParams):
        model("normal-fold", bogus=1)
    with pytest.raises(BadParams):
        model("grazing-family", mu=0.002)
    assert model("coulomb", F_s=2.0).params == {"F_s": 2.0}
    assert model("normal-fold").params == {}


def test_all_models_self_check():
    for mid in list_models():
        desc = model(mid)
        assert desc.fold().visible


def test_normal_fold_facts():
    desc = model("normal-fold")
    assert desc.facts["fold_x"] == 0.0
    assert classify_point(desc.system, -0.4) is RegionClass.SLIDING
    plus, minus = normal_form_constants(0.25)
    assert (plus.x0, plus.alpha, plus.beta) == (0.5, -1.0, 1.0)
    assert (minus.x0, minus.alpha, minus.beta) == (-0.5, 1.0, -1.0)
    # first integral conserved along X+
    traj = integrate(desc.system.x_plus, (-0.7, 0.3), 1.3, rtol=1e-12, atol=1e-14)
    fi = desc.facts["first_integral"]
    assert fi(traj.end[1], traj.end[2]) == pytest.approx(fi(-0.7, 0.3), abs=1e-10)


def test_general_fold_f2_vanishes_on_sigma():
    desc = model("general-fold", a1=0.3, a2=0.2, a3=0.4, b=0.5)
    for x in np.linspace(-0.4, 0.4, 9):
        f2 = desc.system.x_plus(x, 0.0)[1] - 2.0 * x
        assert abs(f2) < 1e-14


def test_stribeck_facts():
    desc = model("stribeck")
    fs = desc.params["F_s"]
    f = desc.fold()
    assert f.x == pytest.approx(fs, abs=1e-12)
    assert f.visible
    # the other field's tangency sits at -F_s
    assert classify_point(desc.system, -fs) is RegionClass.TANGENCY_MINUS
    assert classify_point(desc.system, 0.0) is RegionClass.SLIDING
    # the physical slip field grows the Lyapunov-like function
    phys = desc.physical_system
    V = desc.facts["lyapunov_like"]
    for x, y in [(0.3, 0.4), (1.2, -0.5), (0.9, 0.8)]:
        fx, fy = phys.x_minus(x, y)
        h = 1e-7
        dV = (V(x + h * fx, y + h * fy) - V(x, y)) / h
        assert dV > 0.0  # y < (1+delta)/delta holds at these points


def test_stribeck_reflection_consistency():
    desc = model("stribeck")
    phys = desc.physical_system
    for x, yt in [(0.3, 0.2), (-0.5, 0.7), (1.1, -0.4)]:
        up = desc.system.x_plus(x, yt)
        below = phys.x_minus(x, 1.0 - yt)
        assert up[0] == pytest.approx(below[0], abs=1e-14)
        assert up[1] == pytest.approx(-below[1], abs=1e-14)


def test_coulomb_first_integral_circles():
    desc = model("coulomb")
    phys = desc.physical_system
    fi = desc.facts["first_integral_physical"]
    traj = integrate(phys.x_minus, (0.3, 0.2), 2.0, rtol=1e-12, atol=1e-14)
    assert fi(traj.end[1], traj.end[2]) == pytest.approx(fi(0.3, 0.2), abs=1e-10)


def test_coulomb_interior_return_identity():
    desc = model("coulomb")
    y0 = 0.25
    fs = desc.params["F_s"]
    for x in (0.2, 0.4):
        traj = integrate(desc.system.x_plus, (x, y0), Section(y0, "all"), rtol=1e-12, atol=1e-14, max_step=0.05)
        traj = integrate(desc.system.x_plus, (traj.end[1], y0), Section(y0, "all"), rtol=1e-12, atol=1e-14, max_step=0.05)
        assert traj.end[1] == pytest.approx(x, abs=1e-10)


def test_saddle_eigenvalues_closed_form():
    for nu in (0.0, 0.15):
        desc = model("saddle-homoclinic", nu=nu)
        w, V = saddle_eigen(desc)
        lam1 = nu + math.sqrt(nu * nu + 4.0)
        lam2 = nu - math.sqrt(nu * nu + 4.0)
        assert w[0] == pytest.approx(lam1, abs=1e-8)
        assert w[1] == pytest.approx(lam2, abs=1e-8)


def test_saddle_hamiltonian_invariant():
    desc = model("saddle-homoclinic", nu=0.0)
    H = desc.facts["hamiltonian"]
    traj = integrate(desc.system.x_plus, (0.2, 0.3), 2.0, rtol=1e-12, atol=1e-14)
    assert H(traj.end[1], traj.end[2]) == pytest.approx(H(0.2, 0.3), abs=1e-10)
    # at mu=0 the saddle level passes through the origin (loop tangency)
    assert H(0.0, 0.0) == pytest.approx(desc.facts["saddle_level"], abs=1e-12)


def test_grazing_family_germ():
    desc = model("grazing-family", variant="attracting")
    pe = desc.facts["exterior_factory"](0.002)
    x0p = normal_form_constants(desc.facts["y0"])[0].x0
    assert pe(x0p) == pytest.approx(-x0p + 0.002, abs=1e-14)
    desc_r = model("grazing-family", variant="repelling")
    assert desc_r.facts["exterior_factory"](0.002)(x0p) == pytest.approx(-x0p - 0.002, abs=1e-14)


def _every_model_field():
    # both fields of every built-in model (and of its physical pair), with
    # both grazing-family variants and saddle-homoclinic at two (mu, nu)
    variants = {"grazing-family": [{"variant": "attracting"}, {"variant": "repelling"}],
                "saddle-homoclinic": [{}, {"mu": 0.013, "nu": 0.15}]}
    descs = [model(m, check=False, **kw) for m in _BUILDERS for kw in variants.get(m, [{}])]
    assert {d.id for d in descs} == set(_BUILDERS)
    systems = [s for d in descs for s in (d.system, d.physical_system) if s is not None]
    fields = [f for s in systems for f in (s.x_plus, s.x_minus)]
    return fields + [f.negated() for f in fields]


def test_model_fields_give_the_same_digits_on_floats():
    # PlanarField.rhs hands func plain floats: every model's func must give,
    # as Python floats, the bits it gives on NumPy scalars (64 grid points)
    grid = [(x, y) for x in np.linspace(-1.37, 1.61, 8).tolist() for y in np.linspace(-0.53, 1.29, 8).tolist()]
    for field in _every_model_field():
        for x, y in grid:
            got = field.rhs(0.0, np.array([x, y]))
            want = field.func(np.float64(x), np.float64(y))
            assert [type(v) for v in got] == [float, float], (field.name, x, y)
            assert [v.hex() for v in got] == [float(w).hex() for w in want], (field.name, x, y)
