"""The inner Riccati-type equation and its distinguished solution.

Crossing the fold, the attracting manifold is governed at the inner scale
by  d(eta)/du = 2 / (4 eta - c_p u^p),  c_p = phi^(p)(1)/p!, and the
landing law is set by the unique solution eta0 with
eta0(u) - (c_p/4) u^p -> 0 as u -> -infty.  Its value at u = 0 is the
universal constant in the eps^{p/(2p-1)} exit abscissa.

Two routes are kept: direct integration of the unscaled equation, and the
normalized form  d(etabar)/d(ubar) = 1/(etabar + ubar^p)  mapped back
through the scaling constants alpha, beta.  They differ in variable,
scaling and seed, so their agreement checks one against the other.  Each
is one shot from its seed, whose remainder lies far below the shot's
integration error.  Their variables, D = 4 eta - c_p u^p and
w = etabar + ubar^p, obey one Riccati family dz/du = a/z + b u^(p-1)
(a = 8, b = -p c_p and a = 1, b = p), which one shot steps with LSODA
(Petzold 1983) and the analytic Jacobian; its compiled steps cost about a
tenth of scipy's Python-level Radau.
Agreement with a tight Radau solve is a test of its own.  For odd p the
normalized variable carries a sign flip (alpha < 0), which turns the
sign-reversed odd-p equation into the same normalized form; the
distinguished branch then sits below the null-cline instead of above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from slidekick.errors import ConfigError, NumericalFailure
from slidekick.integrator import STIFF, STIFF_TIGHT, TOUCH, Stop, shoot
from slidekick.regularization import check_p


class SeriesOutOfRange(ConfigError):
    """The asymptotic seed is only trusted for |u| >= 5."""


class SeedInconsistent(ConfigError):
    """c_p sign incompatible with the parity convention for p."""


class BlowUp(NumericalFailure):
    """The denominator crossed its null-cline: wrong branch or seed."""


def alpha_beta(p: int, c_p: float) -> tuple[float, float]:
    """Scaling constants with etabar = alpha*eta, ubar = beta*u.

    They send the unscaled equation to d(etabar)/d(ubar) =
    1/(etabar + ubar^p) for either parity; alpha is negative for odd p.
    """
    sgn = 1.0 if p % 2 == 0 else -1.0
    alpha = sgn * (2.0 ** (p - 2) * abs(c_p)) ** (1.0 / (2 * p - 1))
    beta = alpha * alpha / 2.0
    return alpha, beta


def _check_parity(p: int, c_p: float) -> None:
    if p % 2 == 0 and c_p >= 0.0:
        raise SeedInconsistent(f"even p needs c_p < 0, got c_p={c_p}")
    if p % 2 == 1 and c_p <= 0.0:
        raise SeedInconsistent(f"odd p needs c_p > 0, got c_p={c_p}")


def asymptotic_seed(p: int, c_p: float, u: float) -> float:
    """Two-term series (c_p/4) u^p + (2/(p c_p)) u^{1-p} of eta0 at -infty."""
    if abs(u) < 5.0:
        raise SeriesOutOfRange(f"|u| = {abs(u)} < 5")
    return 0.25 * c_p * u**p + 2.0 / (p * c_p) * u ** (1 - p)


def _deviation_seed(p: int, ubar: float) -> float:
    # the three-term series of the normalized solution at -infty, as its
    # deviation w = etabar + ubar^p: no ubar^p is added and cancelled
    return -(1.0 / p) * ubar ** (1 - p) - ((p - 1) / p**3) * ubar ** (2 - 3 * p)


def _inner_grid(u_start: float) -> np.ndarray:
    # the seed's O(u^{3-5p}) mismatch relaxes onto the branch in a layer of
    # width ~ D^2/8 at u_start; the grid starts past it so pointwise
    # residuals reflect the branch, not the (attracting) transient
    return np.linspace(u_start + 0.5, 0.0, 4001)


@dataclass(frozen=True)
class InnerSolution:
    """Distinguished solution on the 4001-point grid u in [u_start + 0.5, 0].

    ``estimated_error`` is ``eta_at_0``'s distance from the same shot at
    ``STIFF``'s looser tolerances.  Only the integrated denominator
    D = 4 eta - c_p u^p is stored; ``u`` and ``eta`` are rebuilt from it.
    Recomputing D from eta would cancel away the digits that integrating D
    keeps (eta ~ -1.8e4 at u = -12 for p = 4).
    """

    p: int
    c_p: float
    eta_at_0: float
    u_start: float
    estimated_error: float
    den: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return _inner_grid(self.u_start)

    @property
    def eta(self) -> np.ndarray:
        return (self.den + self.c_p * self.u**self.p) / 4.0


def _riccati_shot(p: int, a: float, b: float, u_span: tuple[float, float], z0: float, direction: int, **settings):
    # dz/du = a/z + b u^(p-1), the inner equation in either scaling; z reaching 0
    # in ``direction`` crosses the null-cline, which the distinguished branch never meets.
    # A seed within TOUCH of it would be stepped off across it, and the stop would never fire
    if not -direction * z0 > TOUCH:  # NaN fails too
        raise BlowUp(f"the seed z={z0} at u={u_span[0]} lies within {TOUCH} of the null-cline or beyond it")

    def rhs(u, z):
        return [a / z[0] + b * u ** (p - 1)]

    def jac(u, z):
        return [[-a / (z[0] * z[0])]]

    shot = shoot(rhs, u_span, [z0], [Stop(0, 0.0, direction)], jac=jac, **settings)
    if shot.stop is not None:
        raise BlowUp(f"the denominator crossed zero integrating from u={u_span[0]}")
    return shot


def _integrate_unscaled(p: int, c_p: float, u_start: float, **settings):
    # integrate the denominator D = 4 eta - c_p u^p instead of eta itself:
    # D stays O(1) while eta grows like u^p, so no precision is lost to the
    # cancellation 4 eta - c_p u^p, and eta(0) = D(0)/4 exactly.
    # The two-term series leaves a remainder O(u^{2-3p}) that would relax
    # onto the branch in a boundary layer at u_start and pollute the dense
    # output there; the third term comes from the normalized series mapped
    # back through alpha, beta
    alpha, beta = alpha_beta(p, c_p)
    third = -((p - 1) / p**3) * beta ** (2 - 3 * p) / alpha * u_start ** (2 - 3 * p)
    d_seed = 4.0 * (asymptotic_seed(p, c_p, u_start) + third) - c_p * u_start**p
    return _riccati_shot(p, 8.0, -(p * c_p), (u_start, 0.0), d_seed, -1, **{**STIFF_TIGHT, **settings})


def _richardson(v_near: float, v_deep: float, r: float) -> tuple[float, float]:
    """One Richardson step between two runs whose errors are in the ratio
    r = err(deep)/err(near): the extrapolate and its distance from v_deep."""
    v_ext = (v_deep - r * v_near) / (1.0 - r)
    return v_ext, abs(v_ext - v_deep)


@lru_cache(maxsize=64)
def distinguished_solution(p: int, c_p: float, u_start: float | None = None) -> InnerSolution:
    """Integrate the inner equation from the asymptotic seed to u = 0.

    ``eta_at_0`` is the end value of one ``STIFF_TIGHT`` shot from u_start,
    and ``estimated_error`` its distance from the same shot at ``STIFF``'s
    rtol 1e-12: the looser run's integration error, 5.9-23x the tight run's
    true error on the p = 2 closed form.

    The default depth is -30 for p = 2 and -12 for p >= 3: the seed's
    relative remainder shrinks like |u|^{2-4p} while the distance to the
    null-cline shrinks like |u|^{1-p}, so deep starts at large p trade no
    accuracy for severe cancellation in the denominator variable.

    With the polynomial profile's own c_p this delivers for p = 2..6; from
    p = 7 on the seed cancels to the null-cline, a ``BlowUp``.
    """
    check_p(p, "the inner equation")
    if u_start is None:
        u_start = -30.0 if p == 2 else -12.0
    if not -np.inf < u_start <= -10.0:  # NaN fails both
        raise SeedInconsistent(f"u_start must be finite and <= -10, got {u_start}")
    _check_parity(p, c_p)

    # the grid run caps the step so the dense interpolant meets the
    # 1e-10 pointwise residual contract; p >= 4 runs closer to the
    # null-cline and needs the finer cap (and ``STIFF_TIGHT``'s rtol).
    # The looser companion only needs its endpoint
    sol = _integrate_unscaled(p, c_p, u_start, max_step=0.02 if p <= 3 else 0.01, dense=True)
    eta_at_0 = float(sol.z[0]) / 4.0
    err = abs(eta_at_0 - float(_integrate_unscaled(p, c_p, u_start, **STIFF).z[0]) / 4.0)
    return InnerSolution(p=p, c_p=c_p, eta_at_0=eta_at_0, u_start=u_start,
                         estimated_error=err, den=sol.dense(_inner_grid(u_start))[0])


def _normalized_grid(u_start: float) -> np.ndarray:
    return np.linspace(u_start, 0.0, 2001)


@dataclass(frozen=True)
class NormalizedSolution:
    """Distinguished solution of d(etabar)/d(ubar) = 1/(etabar + ubar^p)
    on 2001 points of [u_start, 0].

    Only the integrated deviation w = etabar + ubar^p is stored, on the
    grid ``ubar``; etabar is w - ubar^p.
    """

    p: int
    w: np.ndarray
    etabar_at_0: float
    u_start: float

    @property
    def ubar(self) -> np.ndarray:
        return _normalized_grid(self.u_start)

    def deviation(self) -> np.ndarray:
        """etabar + ubar^p: positive for even p, negative for odd p."""
        return self.w


def _integrate_normalized(p: int, u_start: float, u_end: float = 0.0, w_seed: float | None = None,
                          dense: bool = False):
    """Integrate the deviation w = etabar + ubar^p from u_start to u_end.

    The distinguished branch keeps w of one sign (positive for even p,
    negative for odd p) and w ~ -(1/p) ubar^{1-p}, so the variable stays
    well scaled.  The seed defaults to the three-term series at u_start.
    """
    if w_seed is None:
        w_seed = _deviation_seed(p, u_start)
    return _riccati_shot(p, 1.0, p, (u_start, u_end), w_seed, -1 if p % 2 == 0 else 1, dense=dense, **STIFF)


@lru_cache(maxsize=64)
def normalized_solution(p: int) -> NormalizedSolution:
    """The normalized distinguished solution on 2001 points of [-30, 0],
    with etabar0(0) the end value of its one shot from -30.

    This delivers for p = 2..4; p = 5..9 end in LSODA's istate -5 and, from
    p = 10 on, the seed lies within ``TOUCH`` of the null-cline, a ``BlowUp``.
    """
    check_p(p, "the inner equation")
    u_start = -30.0
    sol = _integrate_normalized(p, u_start, dense=True)
    return NormalizedSolution(p=p, w=sol.dense(_normalized_grid(u_start))[0], etabar_at_0=float(sol.z[0]),
                              u_start=u_start)


def eta_at_zero_via_normalization(p: int, c_p: float) -> float:
    """Map the normalized solution back: eta0(0) = etabar0(0)/alpha."""
    _check_parity(p, c_p)
    alpha, _beta = alpha_beta(p, c_p)
    return normalized_solution(p).etabar_at_0 / alpha


@dataclass(frozen=True)
class Eta1Report:
    p: int
    slope: float
    r_squared: float
    final_magnitude: float


def eta1_check(
    p: int,
    c_p: float,
    c_p1: float,
    *,
    seed_eta1: float | None = None,
) -> Eta1Report:
    """Integrate the first-order inner correction along eta0 and fit its tail.

    eta1 solves  eta1' = (-8 eta1 + 2 c_{p+1} u^{p+1}) / D^2  with
    D = 4 eta0 - c_p u^p;  near -infty it behaves like (c_{p+1}/4) u^{p+1},
    so the log-log slope over u in [-40, -15] estimates p+1.  The run
    starts at u = -80.  With zero forcing (c_{p+1} = 0) any seeded eta1
    decays and has no power law to fit: the report then carries slope nan,
    r^2 = 0 and its magnitude at u = -10.
    """
    from slidekick.poincare import fit_power_law

    _check_parity(p, c_p)

    def rhs(u, z):
        den, eta1 = z
        return [
            8.0 / den - p * c_p * u ** (p - 1),
            (-8.0 * eta1 + 2.0 * c_p1 * u ** (p + 1)) / den**2,
        ]

    def jac(u, z):
        den, eta1 = z
        return [
            [-8.0 / den**2, 0.0],
            [-2.0 * (-8.0 * eta1 + 2.0 * c_p1 * u ** (p + 1)) / den**3, -8.0 / den**2],
        ]

    u_start = -80.0
    eta1_seed = 0.25 * c_p1 * u_start ** (p + 1) if seed_eta1 is None else seed_eta1
    d_seed = 4.0 * asymptotic_seed(p, c_p, u_start) - c_p * u_start**p
    sol = shoot(rhs, (u_start, -1.0), [d_seed, eta1_seed], jac=jac, dense=True, **STIFF_TIGHT)

    final_mag = abs(float(sol.dense(-10.0)[1]))
    if c_p1 == 0.0:
        return Eta1Report(p=p, slope=float("nan"), r_squared=0.0, final_magnitude=final_mag)
    us = np.linspace(-40.0, -15.0, 60)
    fit = fit_power_law(np.abs(us), sol.dense(us)[1], r2_min=-np.inf, allow_drop=False)
    return Eta1Report(p=p, slope=fit.slope, r_squared=fit.r_squared, final_magnitude=final_mag)


@lru_cache(maxsize=8)
def omega0(u_end: float = 60.0) -> float:
    """Forward-asymptote constant of the p = 2 normalized solution.

    Past the fold the distinguished solution settles onto
    etabar0(ubar) = Omega0 - 1/ubar + O(ubar^{-3}).  The constant is -a1,
    minus the first zero of Ai: du/d(eta) = eta + u^2 is an Airy Riccati
    equation, u = -w'/w with w(eta) = Ai(-eta), so ubar blows up where w
    first vanishes (the same equation gives etabar0(0) = -a1').  It is
    computed here by continuing normalized_solution(2)'s deviation to
    ubar = u_end and removing the 1/ubar tail, which lands within 1e-8 of -a1.
    """
    w0 = normalized_solution(2).etabar_at_0  # deviation at ubar = 0: equals etabar0(0)
    # etabar = w - ubar^2 along the whole forward run: the deviation variable
    # integrates d(etabar + u^2), so etabar(u_end) = w(u_end) - u_end^2
    values = [float(_integrate_normalized(2, 0.0, end, w0).z[0]) - end * end + 1.0 / end
              for end in (u_end, 2.0 * u_end)]
    # the second pass doubles the endpoint; the O(u^-3) tail shrinks 8x
    return _richardson(*values, 0.125)[0]
