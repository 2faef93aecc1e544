import signal
from typing import NamedTuple

import pytest

from lapack_radau import LapackRadau
from slidekick import integrator, slow_manifold
from slidekick.fields import FilippovSystem, PlanarField
from slidekick.integrator import Shot, shoot
from slidekick.regularization import phi_linear, phi_polynomial


@pytest.fixture(autouse=True)
def _no_recorded_passages():
    """Every test starts with an empty store of recorded strip passages: the
    session-scoped models and profiles make equal ``RegularizedSystem`` keys
    recur across tests, and a joined crossing must not leak between them."""
    slow_manifold._passages.clear()


@pytest.fixture
def hang_guard():
    """Raises ``TimeoutError`` in a test still running after 10 s, so a shot
    that never finishes fails the suite instead of stalling it."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def normal_form():
    xp = PlanarField(lambda x, y: (1.0, 2.0 * x), name="X+")
    xm = PlanarField(lambda x, y: (0.0, 1.0), name="X-")
    return FilippovSystem(xp, xm)


@pytest.fixture(scope="session")
def lin():
    return phi_linear()


@pytest.fixture(scope="session")
def poly2():
    return phi_polynomial(2)


@pytest.fixture(scope="session")
def poly3():
    return phi_polynomial(3)


class ShootCall(NamedTuple):
    args: tuple
    kwargs: dict
    shot: Shot


@pytest.fixture
def shoot_calls(monkeypatch):
    """``shoot_calls(*modules)`` records every ``shoot`` call that the given
    modules make, in call order, into the one list it returns."""
    calls = []

    def record(*args, **kwargs):
        shot = shoot(*args, **kwargs)
        calls.append(ShootCall(args, kwargs, shot))
        return shot

    def spy(*modules):
        for mod in modules:
            monkeypatch.setattr(mod, "shoot", record)
        return calls

    return spy


@pytest.fixture
def lapack_radau(monkeypatch):
    """``method="Radau"`` steps with :class:`LapackRadau` for one test (the
    same digits, faster); returns the class for direct ``solve_ivp`` use."""
    monkeypatch.setitem(integrator._SOLVERS, "Radau", LapackRadau)
    return LapackRadau
