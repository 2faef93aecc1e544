"""Built-in model zoo: closed-form Filippov pairs with ground-truth metadata.

Every descriptor records the facts used as oracles by the experiments: fold
location, section constants where closed forms exist, first integrals, and
(for the friction models) the physical orientation.  The dry-friction
systems have their recurrence below the switching line y = 1; the
constructors return them reflected (y -> 1 - y), which puts the visible
fold of the upper field at the origin-height line in the standard
orientation used everywhere else.  The physical pair is kept alongside.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from slidekick.errors import ConfigError
from slidekick.fields import FilippovSystem, FoldPoint, PlanarField, find_fold


class UnknownModel(ConfigError):
    pass


class BadParams(ConfigError):
    pass


# smallest positive root of y^3 - 3y + 1: the vertical offset that makes the
# Hamiltonian saddle loop of the homoclinic model tangent to y = 0
Y_TANGENT = 0.34729635533386066


@dataclass
class ModelDescriptor:
    id: str
    system: FilippovSystem
    params: dict[str, float]
    facts: dict[str, Any] = field(default_factory=dict)
    physical_system: FilippovSystem | None = None
    notes: str = ""

    @property
    def fold_bracket(self) -> tuple[float, float]:
        return self.facts.get("fold_bracket", (-1.0, 1.0))

    def fold(self) -> FoldPoint:
        return find_fold(self.system, self.fold_bracket)


def _normal_fold() -> ModelDescriptor:
    xp = PlanarField(lambda x, y: (1.0, 2.0 * x), name="X+")
    xm = PlanarField(lambda x, y: (0.0, 1.0), name="X-")
    system = FilippovSystem(xp, xm)
    facts = {
        "fold_x": 0.0,
        "fold_bracket": (-1.0, 1.0),
        "sliding_for": "x<0",
        # down map {y=y0,x<0} -> {y=eps,x<0} and up map {y=eps,x>0} -> {y=y0,x>0}
        "P_exact": lambda x, eps, y0: -math.sqrt(x * x + eps - y0),
        "Pbar_exact": lambda x, eps, y0: math.sqrt(x * x - eps + y0),
        "first_integral": lambda x, y: y - x * x,
    }
    return ModelDescriptor(id="normal-fold", system=system, params={}, facts=facts)


def _general_fold(a1: float = 0.2, a2: float = 0.1, a3: float = 0.15,
                  b: float = 0.3) -> ModelDescriptor:
    def fplus(x, y):
        return (1.0 + a1 * x + a2 * y, 2.0 * x + b * y + a3 * x * y)

    xp = PlanarField(fplus, name="X+g")
    xm = PlanarField(lambda x, y: (0.0, 1.0), name="X-")
    system = FilippovSystem(xp, xm)
    facts = {"fold_x": 0.0, "fold_bracket": (-0.5, 0.5)}
    params = {"a1": a1, "a2": a2, "a3": a3, "b": b}
    return ModelDescriptor(id="general-fold", system=system, params=params, facts=facts)


def _stribeck(F_s: float = 1.0, F_d: float = 0.5, delta: float = 0.05) -> ModelDescriptor:
    fs, fd, dl = F_s, F_d, delta
    if not (fs > fd > 0.0 and 0.0 < dl < 1.0):
        raise BadParams("stribeck needs F_s > F_d > 0 and 0 < delta < 1")

    # reflected coordinates: ytil = 1 - y; the slip field below the belt
    # speed becomes the upper field with a visible fold at (F_s, 0)
    def xp(x, yt):
        return (1.0 - yt, x - (fs - fd) / (1.0 + dl * yt) - fd)

    def xm(x, yt):
        return (1.0 - yt, x + (fs - fd) / (1.0 - dl * yt) + fd)

    def xp_phys(x, y):
        return (y, -x - (fs - fd) / (1.0 + dl * (y - 1.0)) - fd)

    def xm_phys(x, y):
        return (y, -x + (fs - fd) / (1.0 + dl * (1.0 - y)) + fd)

    system = FilippovSystem(PlanarField(xp, name="X+stribeck"), PlanarField(xm, name="X-stribeck"))
    physical = FilippovSystem(
        PlanarField(xp_phys, name="X+phys"), PlanarField(xm_phys, name="X-phys"), offset=1.0
    )
    focus = (fd + (fs - fd) / (1.0 + dl), 0.0)  # physical coordinates, unstable
    facts = {
        "fold_x": fs,
        "fold_bracket": (0.5 * fs, 1.5 * fs),
        "lower_tangency_x": -fs,
        "sliding_for": f"|x|<{fs}",
        "focus_physical": focus,
        # V grows along the physical slip-down field while y < (1+delta)/delta
        "lyapunov_like": lambda x, y: (x - fd - (fs - fd) / (1.0 + dl)) ** 2 + y * y,
        "reflected": True,
    }
    return ModelDescriptor(
        id="stribeck", system=system, params={"F_s": fs, "F_d": fd, "delta": dl}, facts=facts,
        physical_system=physical,
        notes="reflected: working y equals 1 - physical y",
    )


def _coulomb(F_s: float = 1.0) -> ModelDescriptor:
    fs = F_s
    if fs <= 0.0:
        raise BadParams("coulomb needs F_s > 0")

    def xp(x, yt):
        return (1.0 - yt, x - fs)

    def xm(x, yt):
        return (1.0 - yt, x + fs)

    def xp_phys(x, y):
        return (y, -x - fs)

    def xm_phys(x, y):
        return (y, -x + fs)

    system = FilippovSystem(PlanarField(xp, name="X+coulomb"), PlanarField(xm, name="X-coulomb"))
    physical = FilippovSystem(
        PlanarField(xp_phys), PlanarField(xm_phys), offset=1.0
    )

    def p_exact(x: float, h: float, y0: float) -> float:
        r2 = (x - fs) ** 2 + (y0 - 1.0) ** 2
        return fs - math.sqrt(r2 - (h - 1.0) ** 2)

    def pbar_exact(x: float, h: float, y0: float) -> float:
        r2 = (x - fs) ** 2 + (h - 1.0) ** 2
        return fs + math.sqrt(r2 - (y0 - 1.0) ** 2)

    facts = {
        "fold_x": fs,
        "fold_bracket": (0.0, 2.0 * fs),
        "lower_tangency_x": -fs,
        "centre": (fs, 1.0),  # working coordinates; (F_s, 0) physically
        "first_integral_physical": lambda x, y: (x - fs) ** 2 + y * y,
        "first_integral": lambda x, yt: (x - fs) ** 2 + (yt - 1.0) ** 2,
        "P_exact": p_exact,
        "Pbar_exact": pbar_exact,
        "exterior_exact": lambda z: 2.0 * fs - z,
        "tangent_orbit_x": lambda eps, y0: fs - math.sqrt((1.0 - eps) ** 2 - (1.0 - y0) ** 2),
        "reflected": True,
    }
    return ModelDescriptor(
        id="coulomb", system=system, params={"F_s": fs}, facts=facts, physical_system=physical,
        notes="reflected: working y equals 1 - physical y; centre orbits are circles",
    )


def _grazing_family(variant: str = "attracting", c: float | None = None,
                    y0: float = 0.25) -> ModelDescriptor:
    if variant not in ("attracting", "repelling"):
        raise BadParams("variant must be 'attracting' or 'repelling'")
    if c is None:
        c = -0.5 if variant == "attracting" else -2.0
    if c > 0.0:
        raise BadParams("the exterior slope c must be <= 0")
    if variant == "attracting" and not -1.0 < c < 0.0:
        raise BadParams("attracting germ needs -1 < c < 0")
    if variant == "repelling" and c >= -1.0:
        raise BadParams("repelling germ needs c < -1")

    base = _normal_fold()
    x0p = math.sqrt(y0)
    x0m = -x0p
    gamma_sign = +1.0 if variant == "attracting" else -1.0

    def make_exterior(mu_val: float) -> Callable[[float], float]:
        def pe(z: float) -> float:
            return x0m + gamma_sign * mu_val + c * (z - x0p)

        return pe

    facts = dict(base.facts)
    facts.update({
        "variant": variant,
        "c": c,
        "gamma_sign": gamma_sign,
        "y0": y0,
        "exterior_factory": make_exterior,
        # Delta = alpha- - c alpha+ with the normal-form constants at y0
        "delta": (1.0 / (2.0 * math.sqrt(y0))) * (1.0 + c),
    })
    return ModelDescriptor(
        id="grazing-family", system=base.system, facts=facts,
        params={"variant": variant, "c": c, "y0": y0},
        notes="synthetic exterior germ over the normal-fold inner dynamics",
    )


def _saddle_homoclinic(mu: float = 0.0, nu: float = 0.0) -> ModelDescriptor:
    # mu: vertical shift, the dip height of the loop; nu: dissipation, 0 for
    # the Hamiltonian variant
    yc = Y_TANGENT

    def g0p(u):
        return 1.0 - u * u

    def fplus(x, y):
        arg = y + yc - mu
        gp = g0p(arg)
        return (gp, 2.0 * x - 2.0 * x * x - nu * gp)

    xp = PlanarField(fplus, name="X+saddle")
    xm = PlanarField(lambda x, y: (0.0, 1.0), name="X-")
    system = FilippovSystem(xp, xm)

    saddle = (1.0, 1.0 - yc + mu)

    def hamiltonian(x, y):
        u = y + yc - mu
        return (u - u**3 / 3.0) - (x * x - 2.0 * x**3 / 3.0)

    facts = {
        "fold_bracket": (-0.3, 0.6),
        "saddle": saddle,
        "hamiltonian": hamiltonian,
        "saddle_level": 2.0 / 3.0 - 1.0 / 3.0,
        "hamiltonian_variant": nu == 0.0,
        # at nu = 0 the saddle loop dips exactly to y = mu at x = 0
        "dip_height": mu,
        "shifts_with_mu": True,  # X+ depends on y - mu only: member 0 moved up by mu
    }
    return ModelDescriptor(
        id="saddle-homoclinic", system=system, params={"mu": mu, "nu": nu}, facts=facts,
        notes="separable field (G0'(y+yc-mu), f(x)) with energy dissipation nu",
    )


_BUILDERS = {
    "normal-fold": _normal_fold,
    "general-fold": _general_fold,
    "stribeck": _stribeck,
    "coulomb": _coulomb,
    "grazing-family": _grazing_family,
    "saddle-homoclinic": _saddle_homoclinic,
}


def model(model_id: str, check: bool = True, **params) -> ModelDescriptor:
    """Construct a built-in model by string id.

    ``params`` must name parameters of the model; ``desc.params`` holds all
    of them, defaults included.  With ``check`` the descriptor's self-checks
    run: the fold residual must vanish to 1e-12 and any closed-form maps are
    compared against direct integration at three points.
    """
    if model_id not in _BUILDERS:
        raise UnknownModel(f"unknown model {model_id!r}; known: {sorted(_BUILDERS)}")
    builder = _BUILDERS[model_id]
    unknown = sorted(set(params) - set(inspect.signature(builder).parameters))
    if unknown:
        raise BadParams(f"{model_id} has no parameter {', '.join(unknown)}")
    desc = builder(**params)
    if check:
        _self_check(desc)
    return desc


def list_models() -> list[str]:
    return sorted(_BUILDERS)


def _self_check(desc: ModelDescriptor) -> None:
    from slidekick.integrator import Section
    from slidekick.poincare import exterior_map

    fold = desc.fold()
    if "fold_x" in desc.facts:
        residual = desc.system.x_plus(desc.facts["fold_x"], desc.system.offset)[1]
        if abs(residual) > 1e-12:
            raise BadParams(f"{desc.id}: fold residual {residual:g} at declared fold")
    if not fold.visible:
        raise BadParams(f"{desc.id}: the fold is not visible")

    # (h, probes x): the X+ map from (x, 0.25) to {y = h} against its closed form P_exact(x, h, 0.25)
    closed_forms = {"normal-fold": (1e-3, (-0.9, -0.7, -0.6)), "coulomb": (0.1, (0.05, 0.2, 0.45))}
    h, xs = closed_forms.get(desc.id, (None, ()))
    for x in xs:
        got = exterior_map(desc.system.x_plus, (x, 0.25), Section(h)).x
        if abs(desc.facts["P_exact"](x, h, 0.25) - got) > 1e-9:
            raise BadParams(f"{desc.id}: P closed form mismatch at x={x}")
    if desc.id == "stribeck":
        # the unstable pseudo-separatrix of the fold must come back to the
        # switching line inside the sliding segment
        fs = desc.params["F_s"]
        x_star = exterior_map(desc.system.x_plus, (fs + 1e-9, 1e-12), Section(0.0), t_max=50.0).x
        if not (-fs < x_star < fs):
            raise BadParams(f"stribeck: W^u lands at {x_star:.4f}, outside the sliding segment")
    if desc.id == "saddle-homoclinic":
        sx, sy = desc.facts["saddle"]
        fx, fy = desc.system.x_plus(sx, sy)
        if abs(fx) > 1e-12 or abs(fy) > 1e-12:
            raise BadParams("saddle-homoclinic: saddle is not an equilibrium")


def saddle_eigen(desc: ModelDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the saddle of the homoclinic model."""
    sx, sy = desc.facts["saddle"]
    J = desc.system.x_plus.jacobian(sx, sy)
    w, V = np.linalg.eig(J)
    order = np.argsort(w)[::-1]  # unstable first
    return w[order].real, V[:, order].real

