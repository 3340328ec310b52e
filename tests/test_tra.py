"""Constraint scenarios, coefficient streams and the matching identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from triseries.basis import jacobi_cd
from triseries.errors import (DegenerateDenominator, NoTerminatingIndex,
                              RealityViolation, ScenarioMismatch,
                              ScenarioRequiresA1Zero, ZeroOffDiagonal)
from triseries.tra import (OdeParams, apply_swap_symmetry,
                           jacobi_ratio_identity_residuals, jacobi_st2r2,
                           laguerre_st2r2, resolve_basis, terminating_free_index,
                           wilson_match_identity_residual)
from triseries.verify import identity_suite, stream_match_suite


def test_resolve_orbital_laguerre_scenario():
    # a = b = 0, A_minus = -l(l+1) with l = 1: nu = 3, alpha = 2, beta = 1/2
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, -2.0, 0.5)
    spec = resolve_basis(p, "LA")
    assert spec.nu == pytest.approx(3.0)
    assert spec.alpha == pytest.approx(2.0)
    assert spec.beta == pytest.approx(0.5)
    neg = resolve_basis(p, "LA", nu_sign=-1)
    assert neg.nu == pytest.approx(-3.0)
    assert neg.alpha == pytest.approx(-1.0)


def test_resolve_second_laguerre_scenario_effective_slope():
    # a = 1, b = 0, A_plus = 0: 2 beta = 1 + sqrt(1), 2 alpha = nu + 1
    p = OdeParams("laguerre", 1.0, 0.0, 0.0, 0.5, 0.2)
    spec = resolve_basis(p, "LB", free_value=1.4)
    assert 2.0 * spec.beta == pytest.approx(2.0)
    assert 2.0 * spec.alpha == pytest.approx(spec.nu + 1.0)


def test_resolve_jacobi_third_scenario_half_index():
    # exponent pair (1, 1/2) with A_plus = -A(A-lam)/(2 lam^2), A = lam:
    # nu^2 = (1-b)^2 - 2 A_plus = 1/4
    p = OdeParams("jacobi", 1.0, 0.5, 0.0, 0.3, 0.2, A_one=0.0)
    spec = resolve_basis(p, "JC", free_value=0.9)
    assert abs(spec.nu) == pytest.approx(0.5)


def test_reality_violation():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 5.0, 0.5)  # (1-a)^2 - 4A_minus < 0
    with pytest.raises(RealityViolation):
        resolve_basis(p, "LA")


def test_scenario_requires_vanishing_linear_term():
    p = OdeParams("jacobi", 0.5, 0.5, 0.1, 0.1, 0.1, A_one=1.0)
    with pytest.raises(ScenarioRequiresA1Zero):
        resolve_basis(p, "JC", free_value=1.0)


def test_degenerate_off_diagonal_in_first_laguerre_stream():
    # A_plus - b^2/4 + 1/4 = 0
    b = 0.4
    p = OdeParams("laguerre", 0.3, b, b * b / 4.0 - 0.25, -0.6, 1.0)
    spec = resolve_basis(p, "LA")
    with pytest.raises(ZeroOffDiagonal):
        laguerre_st2r2(p, spec, 5)


def test_orbital_match_reproduces_oscillatory_angle():
    # kappa^2 = 2E: cos(theta) = (4 kappa^2 - lam^2)/(4 kappa^2 + lam^2)
    lam, E, Z = 1.0, 0.5, 1.0
    kappa = math.sqrt(2.0 * E)
    p = OdeParams("laguerre", 0.0, 0.0, 2.0 * E / lam ** 2, 0.0, 2.0 * Z / lam)
    spec = resolve_basis(p, "LA")
    raw, zmap = laguerre_st2r2(p, spec, 3)
    u = 4.0 * p.A_plus
    c1 = p.A_plus - 0.25
    c2 = c1 + 0.5
    cos_theta = c1 / c2
    assert cos_theta == pytest.approx((4 * kappa ** 2 - lam ** 2)
                                      / (4 * kappa ** 2 + lam ** 2), rel=1e-12)
    assert zmap.raw_value == pytest.approx(2.0 * Z / lam)


def test_exponential_match_reproduces_quadratic_family_parameter():
    # second Laguerre scenario with the V2-pinned well: tau = 1/2 - 2 V1/lam^2
    lam, V1 = 1.0, 1.0
    p = OdeParams("laguerre", 1.0, 0.0, -0.25, 2.0 * (-1.125) / lam ** 2,
                  -2.0 * V1 / lam ** 2)
    spec = resolve_basis(p, "LB", free_value=0.0)
    laguerre_st2r2(p, spec, 3)   # must not raise
    tau = p.A_zero + 0.5 * (p.a * p.b + 1.0)
    assert tau == pytest.approx(0.5 - 2.0 * V1 / lam ** 2, rel=1e-12)


def test_second_scenario_slope_constraint_enforced():
    p = OdeParams("laguerre", 1.0, 0.0, 0.3, 0.5, 0.2)   # b^2 != 1 + 4 A_plus
    spec = resolve_basis(p, "LB", free_value=1.0)
    with pytest.raises(ScenarioMismatch):
        laguerre_st2r2(p, spec, 4)


def test_linear_jacobi_stream_requires_nonzero_linear_term():
    p = OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8, 1.9, A_one=0.0)
    spec = resolve_basis(p, "JA")
    with pytest.raises(ZeroOffDiagonal):
        jacobi_st2r2(p, spec, 5)


def test_equal_indices_zero_diagonal_shift():
    # mu = nu makes the off-center diagonal term vanish identically
    p = OdeParams("jacobi", 0.5, 0.5, -0.8, -0.8, 1.9, A_one=2.0)
    spec = resolve_basis(p, "JA")
    assert spec.mu == pytest.approx(spec.nu)
    c, _, _ = jacobi_cd(spec.mu, spec.nu, 8)
    for n in range(8):
        assert c[n] == pytest.approx(0.0, abs=1e-14)


# (params, scenario, free index) of each scenario, with both root signs
_SCENARIO_INPUTS = [
    (OdeParams("laguerre", 0.3, 0.4, -0.9, -0.6, 1.7), "LA", None),
    (OdeParams("laguerre", 1.3, 0.6, -0.16, 0.7, 0.9), "LB", 1.4),
    (OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8, 1.9025, A_one=2.3), "JA", None),
    (OdeParams("jacobi", 0.5, 0.8, 1.2, -0.9, 1.1, A_one=0.0), "JB", 0.9),
    (OdeParams("jacobi", 0.8, 0.5, -0.9, 1.2, 1.1, A_one=0.0), "JC", 0.9),
]


# the indices a square root fixes (LB's nu is free, but alpha ties it down)
_ROOTED = {"LA": ("nu",), "LB": ("nu",), "JA": ("mu", "nu"), "JB": ("mu",),
           "JC": ("nu",)}


@pytest.mark.parametrize("params, scenario, free", _SCENARIO_INPUTS,
                         ids=[scenario for _, scenario, _ in _SCENARIO_INPUTS])
@pytest.mark.parametrize("sign", [1, -1])
def test_stream_builders_check_the_scenario_relations(params, scenario, free,
                                                      sign):
    streams = laguerre_st2r2 if params.equation == "laguerre" else jacobi_st2r2
    spec = resolve_basis(params, scenario, nu_sign=sign, mu_sign=sign,
                         free_value=free)
    streams(params, spec, 6)   # the resolved spec passes
    for field in ("alpha", "beta") + _ROOTED[scenario]:
        value = getattr(spec, field)
        assert value != 0.0
        bad = replace(spec, **{field: value * (1.0 + 1e-6)})
        with pytest.raises(ScenarioMismatch):
            streams(params, bad, 6)
    if scenario in ("JB", "JC"):
        with pytest.raises(ScenarioMismatch):
            streams(replace(params, A_one=0.5), spec, 6)


def test_quadratic_family_parameter_from_hyperbolic_well():
    # exponent pair (1, 1/2): 2 tau = sqrt(B/lam - 1/4)
    lam, A, B = 1.0, 1.0, 0.5
    p = OdeParams("jacobi", 1.0, 0.5, -A * (A - lam) / (2 * lam ** 2),
                  0.4, B / (4.0 * lam), A_one=0.0)
    chi = 4.0 * p.A_zero - (p.a + p.b - 1.0) ** 2
    assert math.sqrt(chi) == pytest.approx(math.sqrt(B / lam - 0.25), rel=1e-12)


def test_match_identity_examples():
    assert wilson_match_identity_residual(0.0, 0.0, 0.0, 1) < 1e-12
    assert wilson_match_identity_residual(2.0, 3.0, -5.0, 4) < 1e-12
    assert wilson_match_identity_residual(1.0, 1.0, 7.0, 0) < 1e-12


def test_match_identity_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        wilson_match_identity_residual(-1.0, -1.0, 0.0, 1)


def test_ratio_identities_vanish_at_zero_degree():
    rb, rc = jacobi_ratio_identity_residuals(0.7, 1.3, 0)
    assert rb == 0.0 and rc == 0.0


def test_swap_symmetry_is_involution():
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, -0.7, 1.1, A_one=0.0)
    spec = resolve_basis(p, "JB", free_value=0.9)
    p2, spec2 = apply_swap_symmetry(*apply_swap_symmetry(p, spec))
    assert p2 == p
    assert spec2 == spec


def test_swap_symmetry_relates_the_two_single_index_streams():
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, -0.7, 1.1, A_one=0.0)
    spec = resolve_basis(p, "JB", free_value=0.9)
    rawb, _ = jacobi_st2r2(p, spec, 11)
    p2, spec2 = apply_swap_symmetry(p, spec)
    rawc, _ = jacobi_st2r2(p2, spec2, 11)
    assert np.allclose(rawb.s, rawc.s, atol=1e-12)
    assert np.allclose(rawb.t, -rawc.t, atol=1e-12)


def test_swap_symmetry_rejects_laguerre():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0)
    spec = resolve_basis(p, "LA")
    with pytest.raises(ScenarioMismatch):
        apply_swap_symmetry(p, spec)


def test_stream_match_suite_passes():
    for check in stream_match_suite():
        assert check.passed, f"{check.name}: {check.value} > {check.tolerance}"


def test_stream_match_suite_names_its_eight_matches_in_order():
    assert [c.name for c in stream_match_suite()] == [
        "match[LA-meixner_pollaczek]", "match[LA-meixner]",
        "match[LA-krawtchouk]", "match[LB-continuous_dual_hahn]",
        "match[LB-dual_hahn]", "match[JA-extended_jacobi]",
        "match[JC-wilson]", "match[JC-racah]"]


def test_identity_suite_passes():
    for check in identity_suite():
        assert check.passed, f"{check.name}: {check.value} > {check.tolerance}"


@pytest.mark.parametrize("case_args, m, expect", [
    (("eckart", 1.0, 2.0, -20.0), 1, 8.0 / 3.0),
    (("eckart", 1.0, 2.0, -20.0), 2, 0.0),
    (("scarf", 1.0, 2.2, 0.6), 3, 1.3),
    (("morse", 1.0, 1.1), 1, 0.4),
    (("morse", 1.0, 1.0), 0, 2.0),
])
def test_terminating_free_index_zeroes_the_off_diagonal(case_args, m, expect):
    # the index of level m makes the raw t_m vanish, and only t_m
    from triseries import physics
    name, *args = case_args
    case = {"eckart": lambda lam, A, B: physics.EckartCase(lam=lam, A=A, B=B),
            "scarf": lambda lam, A, B: physics.ScarfCase(A=A, B=B, lam=lam),
            "morse": lambda lam, V1: physics.MorseCase(lam=lam, V1=V1)}[name](*args)
    params = case.ode_params(case.level_energy(m), bound=True)
    scenario = "LB" if name == "morse" else "JC"
    free = terminating_free_index(params, scenario, m)
    assert free == pytest.approx(expect, abs=1e-13)
    spec = resolve_basis(params, scenario, free_value=free)
    streams = laguerre_st2r2 if scenario == "LB" else jacobi_st2r2
    t = np.abs(streams(params, spec, m + 2)[0].t)
    assert t[m] <= 1e-13 * t[m + 1]
    assert np.all(t[:m] > 1e-3 * t[m + 1])


def test_terminating_free_index_raises_where_none_exists():
    # chi >= 0: q_n = ((2n+mu+nu+2)^2 + chi)/4 has no real zero
    p = OdeParams("jacobi", 0.5, 0.5, -0.2, -0.4, 1.0)
    with pytest.raises(NoTerminatingIndex, match="it would be nan"):
        terminating_free_index(p, "JC", 0)
    # the zero would need mu <= -1: sqrt(-chi) = 2 < nu + 2 + 2N
    p = OdeParams("jacobi", 0.5, 0.5, -0.2, -0.4, -1.0)
    with pytest.raises(NoTerminatingIndex, match="no index > -1"):
        terminating_free_index(p, "JC", 1)
    with pytest.raises(NoTerminatingIndex, match="no index > -1"):
        terminating_free_index(OdeParams("laguerre", 1.0, 0.0, 0.0, -0.3, 0.0),
                               "LB", 0)
    with pytest.raises(ScenarioMismatch):
        terminating_free_index(OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0),
                               "LA", 0)
