"""Transition profiles and the regularized vector field.

A profile phi is monotone, odd, equals -1 below v=-1 and +1 above v=1.  The
smoothness index p classifies the contact with the outer constants: p=1 is
the continuous piecewise linear profile, p>=2 gives a C^{p-1} profile whose
first p-1 derivatives vanish at the gluing points, so phi behaves like
1 + O(v-1)^p near v=1.  The regularized field blends X+ and X- by
phi(y/eps) inside the strip |y| <= eps and coincides with them outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from numpy.polynomial import Polynomial

from slidekick.errors import ConfigError
from slidekick.fields import FilippovSystem, PlanarField


class InvalidP(ConfigError):
    """Polynomial profiles and the inner equation need p >= 2."""


class UnknownProfile(ConfigError):
    """A profile spec that is neither ``linear`` nor ``poly(p)``."""


@dataclass(frozen=True)
class RegularizationProfile:
    """Transition function phi with smoothness class p.

    ``deriv(v, k)`` evaluates the k-th derivative; outside [-1, 1] all
    derivatives vanish, at the endpoints the interior one-sided limit is
    returned.  ``phi_p_at_1`` stores the left limit of the p-th derivative
    at v = 1 in closed form (the constant that sets the inner equation).
    """

    p: int
    eval: Callable[[float], float]
    deriv: Callable[[float, int], float]
    phi_p_at_1: float
    name: str = ""

    def __call__(self, v: float) -> float:
        return self.eval(v)

    @property
    def c_p(self) -> float:
        """Taylor coefficient phi^(p)(1)/p! of the contact at v = 1."""
        return self.phi_p_at_1 / math.factorial(self.p)

    def inverse(self, w: float) -> float:
        """phi^{-1} on [-1, 1] by bisection (phi is strictly increasing)."""
        from scipy.optimize import brentq

        if w >= 1.0:
            return 1.0
        if w <= -1.0:
            return -1.0
        return float(brentq(lambda v: self.eval(v) - w, -1.0, 1.0, xtol=1e-15))


def phi_linear() -> RegularizationProfile:
    """The continuous piecewise linear profile (p = 1): clamp(v, -1, 1)."""

    def ev(v: float) -> float:
        return float(min(1.0, max(-1.0, v)))

    def dv(v: float, k: int) -> float:
        if k == 0:
            return ev(v)
        if k == 1:
            return 1.0 if -1.0 <= v <= 1.0 else 0.0
        return 0.0

    return RegularizationProfile(p=1, eval=ev, deriv=dv, phi_p_at_1=1.0, name="linear")


def phi_polynomial(p: int) -> RegularizationProfile:
    """Polynomial C^{p-1} profile: phi'(v) proportional to (1 - v^2)^{p-1}.

    The antiderivative is normalized so phi(1) = 1; derivatives of order
    1..p-1 vanish at both endpoints, giving exact C^{p-1} gluing with a
    sign-definite p-th derivative at 1 (negative for p even, positive for p
    odd).
    """
    if p < 2:
        raise InvalidP(f"polynomial profile needs p >= 2, got {p}")
    # normalize the antiderivative of phi' so phi(1) = 1, phi odd
    anti = (Polynomial([1.0, 0.0, -1.0]) ** (p - 1)).integ()
    scale = 1.0 / float(anti(1.0))
    phi_poly = anti * scale
    derivs = [phi_poly]
    for _ in range(p + 2):
        derivs.append(derivs[-1].deriv())
    # Horner's rule on plain floats, in the order numpy's polyval uses, so
    # the values are numpy's to the last bit at a fraction of the call cost
    coefs = [tuple(float(c) for c in d.coef[::-1]) for d in derivs]

    def horner(k: int, v: float) -> float:
        c = coefs[k]
        acc = c[0]
        for ci in c[1:]:
            acc = ci + acc * v
        return acc

    def ev(v: float) -> float:
        if v >= 1.0:
            return 1.0
        if v <= -1.0:
            return -1.0
        return horner(0, float(v))

    def dv(v: float, k: int) -> float:
        if k == 0:
            return ev(v)
        if v > 1.0 or v < -1.0:
            return 0.0
        if k < len(coefs):
            return horner(k, float(v))
        return 0.0

    return RegularizationProfile(
        p=p, eval=ev, deriv=dv, phi_p_at_1=float(derivs[p](1.0)), name=f"poly({p})"
    )




def parse_profile(spec: str) -> RegularizationProfile:
    """Parse the config syntax ``linear`` or ``poly(p)``."""
    s = spec.strip().lower()
    if s == "linear":
        return phi_linear()
    if s.startswith("poly(") and s.endswith(")"):
        try:
            p = int(s[5:-1])
        except ValueError as exc:
            raise UnknownProfile(f"unknown profile spec {spec!r}") from exc
        return phi_polynomial(p)
    raise UnknownProfile(f"unknown profile spec {spec!r}")


@dataclass(frozen=True)
class RegularizedSystem:
    """A Filippov pair blended by phi(y/eps) inside the strip |y| <= eps."""

    base: FilippovSystem
    profile: RegularizationProfile
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:  # NaN fails both
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def offset(self) -> float:
        return self.base.offset

    def blend(self, x: float, y: float) -> tuple[float, float]:
        """Field value of Z_eps at (x, y); exact X+/X- outside the strip."""
        v = (y - self.base.offset) / self.epsilon
        if v >= 1.0:
            return self.base.x_plus(x, y)
        if v <= -1.0:
            return self.base.x_minus(x, y)
        return self.mix(x, y, self.profile.eval(v))

    def mix(self, x: float, y: float, w: float) -> tuple[float, float]:
        """(X+ + X-)/2 + w (X+ - X-)/2 at (x, y) for a given weight w, on the fields' raw ``func``."""
        fp = self.base.x_plus.func(x, y)
        fm = self.base.x_minus.func(x, y)
        return (
            0.5 * (fp[0] + fm[0]) + 0.5 * w * (fp[0] - fm[0]),
            0.5 * (fp[1] + fm[1]) + 0.5 * w * (fp[1] - fm[1]),
        )


def regularized_field(R: RegularizedSystem) -> PlanarField:
    """Z_eps = (X+ + X-)/2 + phi(y/eps) (X+ - X-)/2 as a PlanarField."""
    return PlanarField(R.blend, name=f"Z_eps[{R.profile.name}, eps={R.epsilon:g}]")

