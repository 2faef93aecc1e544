"""Acceptance criteria, one test each, at their stated tolerances.

Two criteria are stated at the constants that the fold-passage asymptotics
fixes (derivations in the docstrings of criteria 2 and 7b in
``slidekick.acceptance``):

* criterion 2: the invariant-manifold series gives the linear strip exit
  x1 = 2 eps - 16 eps^2 + 448 eps^3 - 20480 eps^4 + ..., so the test asks
  for |x1 - (2 eps - 16 eps^2)| <= 500 eps^3 and
  |x1 - (2 eps - 16 eps^2 + 448 eps^3)| <= 25600 eps^4 at
  eps = 1e-2, 1e-3, 1e-4;
* criterion 7b (repelling germ): fixed points exist only for
  mu >= |Delta| eps (1 + O(eps)), because the flattened point lies left of
  the tangent orbit, and the pure-branch root right of it, only when
  gamma < Delta eps; the test asks for no fixed point at +-0.5 |Delta| eps,
  the attracting/repelling pair at +1.5 |Delta| eps and a bisected
  saddle-node within 2% of |Delta| eps.
"""

import re

from slidekick import acceptance
from slidekick.cli import main

_RUN = dict(acceptance.CRITERIA)


def _check(label):
    res = _RUN[label]()
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_linear_profile_map():
    _check("1")


def test_criterion_02_linear_strip_exit():
    _check("2")


def test_criterion_03_exponent_law():
    _check("3")


def test_criterion_04_inner_prefactor():
    _check("4")


def test_criterion_05_distinguished_solution():
    _check("5")


def test_criterion_06_exponential_attraction():
    _check("6")


def test_criterion_07a_grazing_attracting():
    _check("7a")


def test_criterion_07b_grazing_repelling():
    _check("7b")


def test_criterion_08_coulomb_semistability():
    _check("8")


def test_criterion_09_stribeck_attractor():
    _check("9")


def test_criterion_10_homoclinic():
    _check("10")


def test_criterion_10_fits_once_and_shoots_one_separatrix(monkeypatch, shoot_calls):
    # one family serves the scans at eps and eps/2: one tangency fit and one
    # separatrix shot (a pre-scan for alpha+ and two fresh scans made 3 each).
    # The germ is X+'s alone, 9 stencil landings; the minus pseudo-separatrix
    # is one backward landing (a fit of both germs made 52, 26 of them backward)
    from slidekick import bifurcation, poincare

    landings, fits = [], []
    land, fit = poincare.exterior_map, bifurcation.fit_tangency_constants

    def spy_land(field, *args, **kwargs):
        landings.append(field.name)
        return land(field, *args, **kwargs)

    def spy_fit(*args):
        n = len(landings)
        germ = fit(*args)
        fits.append(len(landings) - n)
        return germ

    for mod in (bifurcation, poincare):
        monkeypatch.setattr(mod, "exterior_map", spy_land)
    monkeypatch.setattr(bifurcation, "fit_tangency_constants", spy_fit)
    shots = shoot_calls(bifurcation)
    assert _RUN["10"]().ok
    assert fits == [9] and len(shots) == 1
    assert sum(name.startswith("-") for name in landings) == 1


def test_criterion_10_reads_a_zero_root_as_found(monkeypatch):
    # a half-eps scan that roots mu~* at exactly 0.0 has found its root
    from slidekick.bifurcation import HomoclinicProbe, HomoclinicScan

    def family(make_model, *, y0):
        def scan(profile, eps, mu_tildes, *, bisect=True):
            probes = [HomoclinicProbe(m, m * eps, m < 0.1, None) for m in mu_tildes]
            return HomoclinicScan(probes, 0.1 if eps == 1e-3 else 0.0, -0.1)

        return -0.1, scan

    monkeypatch.setattr(acceptance, "homoclinic_family", family)
    res = _RUN["10"]()
    assert "half-eps: 0.100" in res.measured
    assert res.passed, res.line()


def test_criterion_11_expansion_residuals():
    _check("11")


def test_over_limit_result_fails():
    # met expectations past the wall-time limit still fail the criterion
    res = acceptance.CriterionResult("1", "demo", True, "m", "e", runtime=10.5, limit=10.0)
    assert not res.passed
    assert res.line().startswith("[FAIL]")
    assert acceptance.CriterionResult("1", "demo", True, "m", "e", runtime=9.5, limit=10.0).passed


def test_accept_rows_carry_unique_tested_labels(capsys):
    # one row per criterion under its own label: 7a and 7b no longer both print as " 7."
    assert main(["accept", "--only", "7b"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1] == "1/1 criteria passed"
    assert rows[0].startswith("[PASS] 7b. grazing-sliding (repelling): measured ")
    labels = [label for label, _run in acceptance.CRITERIA]
    assert len(set(labels)) == len(labels) == 12
    tested = {m.group(1) for m in map(re.compile(r"test_criterion_0*(\d+[ab]?)_").match, globals()) if m}
    assert set(labels) <= tested
