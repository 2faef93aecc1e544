"""Agreement oracle: the shooting primitive against raw scipy solves.

Each stage of the fold map is solved again here with a plain ``solve_ivp``
call, from the input the library used for that stage, with the library's
method and tolerances for that stage, and the two answers must agree to
1e-12.  The strip exit's agreement with a different method (a tight Radau
solve) is checked in ``test_slow_manifold``.
"""

import pytest
from scipy.integrate import solve_ivp

from slidekick.models import model
from slidekick.poincare import map_P_epsilon
from slidekick.regularization import RegularizedSystem, phi_linear, phi_polynomial

Y0 = 0.25


def _landing(field, start, y_target, direction):
    def ev(t, z):
        return z[1] - y_target

    ev.terminal = True
    ev.direction = direction
    sol = solve_ivp(field.rhs, (0.0, 1e3), start, method="DOP853", max_step=0.25,
                    rtol=1e-12, atol=1e-14, events=[ev])
    return float(sol.y_events[0][0][0])


def _strip_exit(R, x_enter, x_limit):
    # the orbit equation dv/dx = B2 / (eps B1) with dt/dx = 1/B1 and the
    # Jacobian of its profile term
    eps, off, prof = R.epsilon, R.base.offset, R.profile
    xp, xm = R.base.x_plus, R.base.x_minus

    def blend(x, v, w):
        fp, fm = xp(x, off + eps * v), xm(x, off + eps * v)
        return (0.5 * (fp[0] + fm[0]) + 0.5 * w * (fp[0] - fm[0]),
                0.5 * (fp[1] + fm[1]) + 0.5 * w * (fp[1] - fm[1]))

    def rhs(x, z):
        b1, b2 = blend(x, z[0], prof.eval(z[0]))
        return [b2 / (eps * b1), 1.0 / b1]

    def jac(x, z):
        b1, b2 = blend(x, z[0], prof.eval(z[0]))
        fp, fm = xp(x, off + eps * z[0]), xm(x, off + eps * z[0])
        dw = prof.deriv(z[0], 1)
        d1, d2 = 0.5 * dw * (fp[0] - fm[0]), 0.5 * dw * (fp[1] - fm[1])
        return [[(d2 * b1 - b2 * d1) / (eps * b1 * b1), 0.0], [-d1 / (b1 * b1), 0.0]]

    def ev_exit(x, z):
        return z[0] - 1.0

    ev_exit.terminal = True
    ev_exit.direction = 1
    sol = solve_ivp(rhs, (x_enter, x_limit), [1.0, 0.0], method="LSODA", rtol=1e-12,
                    atol=1e-14, events=[ev_exit], jac=jac)
    return float(sol.t_events[0][0])


@pytest.mark.parametrize("profile", [phi_linear(), phi_polynomial(2)], ids=["linear", "poly2"])
@pytest.mark.parametrize("eps", [1e-3, 1e-6])
@pytest.mark.parametrize("x", [-0.8, -0.6])
def test_fold_map_stages_agree_with_raw_solves(profile, eps, x):
    nf = model("normal-fold")
    fold_x = nf.facts["fold_x"]
    R = RegularizedSystem(nf.system, profile, eps)
    r = map_P_epsilon(R, Y0, x, fold=fold_x)
    y_strip = nf.system.offset + eps
    f = r.flags

    assert abs(f["x_in"] - _landing(nf.system.x_plus, [x, Y0], y_strip, -1)) <= 1e-12
    assert abs(f["x_exit"] - _strip_exit(R, f["x_in"], fold_x + 0.4)) <= 1e-12
    assert abs(r.x - _landing(nf.system.x_plus, [f["x_exit"], y_strip], Y0, 1)) <= 1e-12
