"""Constraint scenarios, coefficient streams and the matching identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from triseries.basis import jacobi_cd
from triseries.errors import (DegenerateDenominator, InvalidFamilyParams,
                              NoTerminatingIndex, RealityViolation,
                              ScenarioMismatch, ScenarioRequiresA1Zero,
                              ZeroOffDiagonal)
from triseries.solve import match_family
from triseries.tra import (OdeParams, jacobi_ratio_identity_residuals, resolve,
                           swap, terminating_free_index,
                           wilson_match_identity_residual)
from triseries.verify import identity_suite, stream_match_suite


def test_resolve_orbital_laguerre_scenario():
    # a = b = 0, A_minus = -l(l+1) with l = 1: nu = 3, alpha = 2, beta = 1/2
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, -2.0, 0.5)
    spec = resolve(p, "LA").spec
    assert spec.nu == pytest.approx(3.0)
    assert spec.alpha == pytest.approx(2.0)
    assert spec.beta == pytest.approx(0.5)
    neg = resolve(p, "LA", nu_sign=-1).spec
    assert neg.nu == pytest.approx(-3.0)
    assert neg.alpha == pytest.approx(-1.0)


def test_resolve_second_laguerre_scenario_effective_slope():
    # a = 1, b = 0, A_plus = 0: 2 beta = 1 + sqrt(1), 2 alpha = nu + 1
    p = OdeParams("laguerre", 1.0, 0.0, 0.0, 0.5, 0.2)
    spec = resolve(p, "LB", free_value=1.4).spec
    assert 2.0 * spec.beta == pytest.approx(2.0)
    assert 2.0 * spec.alpha == pytest.approx(spec.nu + 1.0)


def test_resolve_jacobi_third_scenario_half_index():
    # exponent pair (1, 1/2) with A_plus = -A(A-lam)/(2 lam^2), A = lam:
    # nu^2 = (1-b)^2 - 2 A_plus = 1/4
    p = OdeParams("jacobi", 1.0, 0.5, 0.0, 0.3, 0.2, A_one=0.0)
    spec = resolve(p, "JC", free_value=0.9).spec
    assert abs(spec.nu) == pytest.approx(0.5)


def test_reality_violation():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 5.0, 0.5)  # (1-a)^2 - 4A_minus < 0
    with pytest.raises(RealityViolation):
        resolve(p, "LA")


def test_scenario_requires_vanishing_linear_term():
    p = OdeParams("jacobi", 0.5, 0.5, 0.1, 0.1, 0.1, A_one=1.0)
    with pytest.raises(ScenarioRequiresA1Zero):
        resolve(p, "JC", free_value=1.0)


def test_degenerate_off_diagonal_in_first_laguerre_stream():
    # A_plus - b^2/4 + 1/4 = 0
    b = 0.4
    p = OdeParams("laguerre", 0.3, b, b * b / 4.0 - 0.25, -0.6, 1.0)
    with pytest.raises(ZeroOffDiagonal):
        resolve(p, "LA").streams(5)


def test_orbital_match_reproduces_oscillatory_angle():
    # kappa^2 = 2E: cos(theta) = (4 kappa^2 - lam^2)/(4 kappa^2 + lam^2)
    lam, E, Z = 1.0, 0.5, 1.0
    kappa = math.sqrt(2.0 * E)
    p = OdeParams("laguerre", 0.0, 0.0, 2.0 * E / lam ** 2, 0.0, 2.0 * Z / lam)
    zmap = resolve(p, "LA").raw
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
    resolve(p, "LB", free_value=0.0).streams(3)   # must not raise
    tau = p.A_zero + 0.5 * (p.a * p.b + 1.0)
    assert tau == pytest.approx(0.5 - 2.0 * V1 / lam ** 2, rel=1e-12)


def test_second_scenario_slope_constraint_enforced():
    p = OdeParams("laguerre", 1.0, 0.0, 0.3, 0.5, 0.2)   # b^2 != 1 + 4 A_plus
    scenario = resolve(p, "LB", free_value=1.0)
    with pytest.raises(ScenarioMismatch):
        scenario.streams(4)


def test_linear_jacobi_stream_requires_nonzero_linear_term():
    p = OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8, 1.9, A_one=0.0)
    with pytest.raises(ZeroOffDiagonal):
        resolve(p, "JA").streams(5)


def test_equal_indices_zero_diagonal_shift():
    # mu = nu makes the off-center diagonal term vanish identically
    p = OdeParams("jacobi", 0.5, 0.5, -0.8, -0.8, 1.9, A_one=2.0)
    spec = resolve(p, "JA").spec
    assert spec.mu == pytest.approx(spec.nu)
    c, _, _ = jacobi_cd(spec.mu, spec.nu, 8)
    for n in range(8):
        assert c[n] == pytest.approx(0.0, abs=1e-14)


_LB_OFF = OdeParams("laguerre", 1.3, 0.6, 0.3, 0.7, 0.9)   # b^2 != 1 + 4 A_plus
_JA_FLAT = OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8, 1.9, A_one=0.0)
_JB = OdeParams("jacobi", 0.5, 0.8, 1.2, -0.9, 1.1)
_JC = OdeParams("jacobi", 0.8, 0.5, -0.9, 1.2, 1.1)
_SQRT_NEG = OdeParams("jacobi", 0.0, 0.0, 5.0, 5.0, 1.1)   # both roots negative


@pytest.mark.parametrize("call, error, message", [
    (lambda: match_family(OdeParams("laguerre", 1.3, 0.6, -0.16, 0.7, 0.9), "LB"),
     ValueError, "scenario LB leaves nu free; pass free_value"),
    (lambda: match_family(_JB, "JB"), ValueError,
     "scenario JB leaves nu free; pass free_value"),
    (lambda: match_family(_JC, "JC"), ValueError,
     "scenario JC leaves mu free; pass free_value"),
    (lambda: match_family(_JC, "LA"), ScenarioMismatch,
     "scenario LA is for the Laguerre equation"),
    (lambda: match_family(_LB_OFF, "JC", free_value=1.0), ScenarioMismatch,
     "scenario JC is for the Jacobi equation"),
    (lambda: match_family(_JC, "JD"), ValueError, "unknown scenario 'JD'"),
    (lambda: match_family(_LB_OFF, "XX"), ValueError, "unknown scenario 'XX'"),
    (lambda: match_family(replace(_JB, A_one=0.5), "JB", free_value=0.9),
     ScenarioRequiresA1Zero, "scenario JB requires A_one = 0, got 0.5"),
    (lambda: match_family(replace(_JB, A_one=0.5), "JC", free_value=0.9),
     ScenarioRequiresA1Zero, "scenario JC requires A_one = 0, got 0.5"),
    (lambda: resolve(_LB_OFF, "LB", free_value=1.4).streams(4), ScenarioMismatch,
     "scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = 0.36, 1 + 4 A_plus = 2.2"),
    (lambda: match_family(_LB_OFF, "LB", free_value=1.4), ScenarioMismatch,
     "scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = 0.36, 1 + 4 A_plus = 2.2"),
    (lambda: resolve(_JA_FLAT, "JA").streams(5), ZeroOffDiagonal,
     "with A_one = 0 this scenario has no recursion"),
    (lambda: match_family(_JA_FLAT, "JA"), ZeroOffDiagonal,
     "this scenario has no recursion when A_one = 0"),
    (lambda: match_family(OdeParams("laguerre", 0.0, 0.0, 1.0, 5.0, 0.5), "LA"),
     RealityViolation, "(1-a)^2 - 4 A_minus = -19.0 < 0: no real index nu"),
    (lambda: match_family(OdeParams("laguerre", 0.0, 0.0, -1.0, 5.0, 0.5), "LB",
                          free_value=1.0),
     RealityViolation, "1 + 4 A_plus = -3.0 < 0: no real beta"),
    (lambda: match_family(_SQRT_NEG, "JA"), RealityViolation,
     "negative square-root argument for mu or nu"),
    (lambda: match_family(_SQRT_NEG, "JB", free_value=0.9), RealityViolation,
     "negative square-root argument for mu"),
    (lambda: match_family(_SQRT_NEG, "JC", free_value=0.9), RealityViolation,
     "negative square-root argument for nu"),
], ids=["LB-free", "JB-free", "JC-free", "LA-on-jacobi", "JC-on-laguerre",
        "unknown-jacobi", "unknown-laguerre", "JB-A_one", "JC-A_one",
        "LB-slope-streams", "LB-slope-match", "JA-A_one-streams", "JA-A_one-match",
        "LA-reality", "LB-reality", "JA-reality", "JB-reality", "JC-reality"])
def test_scenario_refusal_keeps_its_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_jb_match_is_the_jc_match_of_the_swapped_parameters(signs):
    # the JB record matches on JC coordinates: basis, family and map are JC's
    # on swap(params), with the rooted index's sign carried across
    nu_sign, mu_sign = signs
    p = _JB
    jb = match_family(p, "JB", nu_sign=nu_sign, mu_sign=mu_sign, free_value=0.9)
    jc = match_family(swap(p), "JC", nu_sign=mu_sign, free_value=0.9)
    assert jb == jc and jb.spec.scenario == "JC"
    assert jb.spec.nu == resolve(p, "JB", mu_sign=mu_sign, free_value=0.9).spec.mu


@pytest.mark.parametrize("params, message", [
    # b^2 overflows: the Meixner record would carry tau = nan
    (OdeParams("laguerre", 0.3, 1e300, -0.9, -0.6, 1.7),
     "meixner: tau must be finite, got nan"),
    # a finite raw value over a small scale overflows the family variable
    (OdeParams("laguerre", 0.3, 0.4, 0.0401, -0.6, 1.7e308),
     "spectral map family_value = -inf is not finite"),
])
def test_match_refuses_a_value_that_is_not_finite(params, message):
    with pytest.raises(InvalidFamilyParams) as info:
        match_family(params, "LA")
    assert str(info.value) == message


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
    assert swap(swap(p)) == p
    # it sends the JB basis to the JC one: mu <-> nu, alpha <-> beta
    jb = resolve(p, "JB", free_value=0.9).spec
    jc = resolve(swap(p), "JC", free_value=0.9).spec
    assert (jc.alpha, jc.beta, jc.mu, jc.nu) == (jb.beta, jb.alpha, jb.nu, jb.mu)


def test_swap_symmetry_relates_the_two_single_index_streams():
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, -0.7, 1.1, A_one=0.0)
    rawb = resolve(p, "JB", free_value=0.9).streams(11)
    rawc = resolve(swap(p), "JC", free_value=0.9).streams(11)
    assert np.allclose(rawb.s, rawc.s, atol=1e-12)
    assert np.allclose(rawb.t, -rawc.t, atol=1e-12)


def test_swap_symmetry_rejects_laguerre():
    with pytest.raises(ScenarioMismatch):
        swap(OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0))


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
    t = np.abs(resolve(params, scenario, free_value=free).streams(m + 2).t)
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
