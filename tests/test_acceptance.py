"""Acceptance criteria, one test each, at their stated tolerances.

Two criteria are stated at the constants that the fold-passage asymptotics
fixes (derivations in the docstrings of ``acceptance.criterion_2`` and
``acceptance.criterion_7b``):

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

import pytest

from slidekick import acceptance


def _check(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_linear_profile_map():
    _check(acceptance.criterion_1)


def test_criterion_02_linear_strip_exit():
    _check(acceptance.criterion_2)


def test_criterion_03_exponent_law():
    _check(acceptance.criterion_3)


def test_criterion_04_inner_prefactor():
    _check(acceptance.criterion_4)


def test_criterion_05_distinguished_solution():
    _check(acceptance.criterion_5)


def test_criterion_06_exponential_attraction():
    _check(acceptance.criterion_6)


def test_criterion_07a_grazing_attracting():
    _check(acceptance.criterion_7a)


def test_criterion_07b_grazing_repelling():
    _check(acceptance.criterion_7b)


def test_criterion_08_coulomb_semistability():
    _check(acceptance.criterion_8)


def test_criterion_09_stribeck_attractor():
    _check(acceptance.criterion_9)


def test_criterion_10_homoclinic():
    _check(acceptance.criterion_10)


def test_criterion_10_reads_a_zero_root_as_found(monkeypatch):
    # a half-eps scan that bisects mu~* to exactly 0.0 has found its root
    from slidekick.bifurcation import HomoclinicProbe, HomoclinicScan

    def scan(make_model, profile, eps, mu_tildes, *, y0, bisect):
        if eps < 1e-3:
            return HomoclinicScan(eps, [], 0.0, -0.1, None)
        probes = [HomoclinicProbe(m, m * eps, m < 1.0, None, None) for m in mu_tildes]
        return HomoclinicScan(eps, probes, 1.0 if bisect else None, -1.0, None)

    monkeypatch.setattr(acceptance, "homoclinic_scan", scan)
    res = acceptance.criterion_10()
    assert "half-eps: 0.100" in res.measured
    assert res.passed, res.line()


def test_criterion_11_expansion_residuals():
    _check(acceptance.criterion_11)


def test_over_limit_result_fails():
    # met expectations past the wall-time limit still fail the criterion
    res = acceptance.CriterionResult(1, "demo", True, "m", "e", runtime=10.5, limit=10.0)
    assert not res.passed
    assert res.line().startswith("[FAIL]")
    assert acceptance.CriterionResult(1, "demo", True, "m", "e", runtime=9.5, limit=10.0).passed
