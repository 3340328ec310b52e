"""Constraint scenarios, coefficient streams and the matching identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from triseries.basis import jacobi_cd
from triseries.errors import (AmbiguousRegion, DegenerateDenominator,
                              InvalidFamilyParams, NoPointwiseSolution,
                              NoTerminatingIndex, RealityViolation,
                              ScenarioMismatch, ScenarioRequiresA1Zero,
                              ZeroOffDiagonal)
from triseries.tra import (OdeParams, jacobi_ratio_identity_residuals, resolve,
                           swap, wilson_match_identity_residual)
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
    (lambda: resolve(OdeParams("laguerre", 1.3, 0.6, -0.16, 0.7, 0.9),
                     "LB").match(),
     ValueError, "scenario LB leaves nu free; pass free_value"),
    (lambda: resolve(_JB, "JB").match(), ValueError,
     "scenario JB leaves nu free; pass free_value"),
    (lambda: resolve(_JC, "JC").match(), ValueError,
     "scenario JC leaves mu free; pass free_value"),
    (lambda: resolve(_JC, "LA").match(), ScenarioMismatch,
     "scenario LA is for the Laguerre equation"),
    (lambda: resolve(_LB_OFF, "JC", free_value=1.0).match(), ScenarioMismatch,
     "scenario JC is for the Jacobi equation"),
    (lambda: resolve(_JC, "JD").match(), ValueError, "unknown scenario 'JD'"),
    (lambda: resolve(_LB_OFF, "XX").match(), ValueError, "unknown scenario 'XX'"),
    (lambda: resolve(replace(_JB, A_one=0.5), "JB", free_value=0.9).match(),
     ScenarioRequiresA1Zero, "scenario JB requires A_one = 0, got 0.5"),
    (lambda: resolve(replace(_JB, A_one=0.5), "JC", free_value=0.9).match(),
     ScenarioRequiresA1Zero, "scenario JC requires A_one = 0, got 0.5"),
    (lambda: resolve(_LB_OFF, "LB", free_value=1.4).streams(4), ScenarioMismatch,
     "scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = 0.36, 1 + 4 A_plus = 2.2"),
    (lambda: resolve(_LB_OFF, "LB", free_value=1.4).match(), ScenarioMismatch,
     "scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = 0.36, 1 + 4 A_plus = 2.2"),
    (lambda: resolve(_JA_FLAT, "JA").streams(5), ZeroOffDiagonal,
     "with A_one = 0 this scenario has no recursion"),
    (lambda: resolve(_JA_FLAT, "JA").match(), ZeroOffDiagonal,
     "this scenario has no recursion when A_one = 0"),
    (lambda: resolve(OdeParams("laguerre", 0.0, 0.0, 1.0, 5.0, 0.5),
                     "LA").match(),
     RealityViolation, "(1-a)^2 - 4 A_minus = -19.0 < 0: no real index nu"),
    (lambda: resolve(OdeParams("laguerre", 0.0, 0.0, -1.0, 5.0, 0.5), "LB",
                     free_value=1.0).match(),
     RealityViolation, "1 + 4 A_plus = -3.0 < 0: no real beta"),
    (lambda: resolve(_SQRT_NEG, "JA").match(), RealityViolation,
     "negative square-root argument for mu or nu"),
    (lambda: resolve(_SQRT_NEG, "JB", free_value=0.9).match(), RealityViolation,
     "negative square-root argument for mu"),
    (lambda: resolve(_SQRT_NEG, "JC", free_value=0.9).match(), RealityViolation,
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
    jb = resolve(p, "JB", nu_sign=nu_sign, mu_sign=mu_sign, free_value=0.9).match()
    jc = resolve(swap(p), "JC", nu_sign=mu_sign, free_value=0.9).match()
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
        resolve(params, "LA").match()
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


def _chain_case(name, *args):
    """A Morse (LB) or Eckart/Scarf (JC) case from (name, lam, fields...)."""
    from triseries import physics
    return {"eckart": lambda lam, A, B: physics.EckartCase(lam=lam, A=A, B=B),
            "scarf": lambda lam, A, B: physics.ScarfCase(A=A, B=B, lam=lam),
            "morse": lambda lam, V1: physics.MorseCase(lam=lam, V1=V1)}[name](*args)


@pytest.mark.parametrize("case_args, m, expect", [
    (("eckart", 1.0, 2.0, -20.0), 1, 8.0 / 3.0),
    (("eckart", 1.0, 2.0, -20.0), 2, 0.0),
    (("scarf", 1.0, 2.2, 0.6), 3, 1.3),
    (("morse", 1.0, 1.1), 1, 0.4),
    (("morse", 1.0, 1.0), 0, 2.0),
])
def test_terminating_free_index_zeroes_the_off_diagonal(case_args, m, expect):
    # the index of level m makes the raw t_m vanish, and only t_m
    name = case_args[0]
    case = _chain_case(*case_args)
    params = case.ode_params(case.level_energy(m), bound=True)
    scenario = "LB" if name == "morse" else "JC"
    free = resolve(params, scenario, free_value=0.0).ending(m)
    assert free == pytest.approx(expect, abs=1e-13)
    t = np.abs(resolve(params, scenario, free_value=free).streams(m + 2).t)
    assert t[m] <= 1e-13 * t[m + 1]
    assert np.all(t[:m] > 1e-3 * t[m + 1])


def test_terminating_free_index_raises_where_none_exists():
    # chi >= 0: q_n = ((2n+mu+nu+2)^2 + chi)/4 has no real zero
    p = OdeParams("jacobi", 0.5, 0.5, -0.2, -0.4, 1.0)
    with pytest.raises(NoTerminatingIndex, match="it would be nan"):
        resolve(p, "JC", free_value=0.0).ending(0)
    # the zero would need mu <= -1: sqrt(-chi) = 2 < nu + 2 + 2N
    p = OdeParams("jacobi", 0.5, 0.5, -0.2, -0.4, -1.0)
    with pytest.raises(NoTerminatingIndex, match="no index > -1"):
        resolve(p, "JC", free_value=0.0).ending(1)
    with pytest.raises(NoTerminatingIndex, match="no index > -1"):
        resolve(OdeParams("laguerre", 1.0, 0.0, 0.0, -0.3, 0.0), "LB",
                free_value=0.0).ending(0)
    with pytest.raises(ScenarioMismatch):
        resolve(OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0), "LA").ending(0)


def test_scenarios_without_a_chain_refuse_an_ending():
    for params, scenario, keywords in (
            (OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0), "LA", {}),
            (OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8, 1.9, A_one=2.3), "JA", {}),
            (_JB, "JB", {"free_value": 0.9})):
        with pytest.raises(ScenarioMismatch,
                           match="^this scenario has no terminating index$"):
            resolve(params, scenario, **keywords).ending(0)


def test_jb_refuses_a_bound_level():
    # JB's levels are JC's on swap(params); the JB record assembles none
    for k, truncation in ((0, None), (2, 40)):
        with pytest.raises(ScenarioMismatch, match="^this scenario has no bound level$"):
            resolve(_JB, "JB", free_value=0.9).state(k, truncation)


@pytest.mark.parametrize("scenario, free_value, params", [
    ("LB", 0.0, ("morse", 1.0, 2.5)),
    ("LB", 7.5, ("morse", 1.0, 2.5)),
    ("JC", 0.3, ("eckart", 1.0, 2.0, -20.0)),
    ("JC", -0.5, ("scarf", 1.0, 2.0, 0.5)),
])
def test_chain_level_sits_on_its_ending_whatever_the_free_value(
        scenario, free_value, params):
    # level k of LB or JC is the k + 1 terms on the index ending(k), the same
    # series whatever free value the record was resolved on
    from triseries.physics import bound_series
    case = _chain_case(*params)
    for k in range(2):
        p, level = bound_series(case, k)
        record = resolve(p, scenario, free_value=free_value)
        sol = record.state(k, truncation=7)
        free = record.ending(k)
        assert (sol.spec.nu if scenario == "LB" else sol.spec.mu) == free
        assert len(sol.f) == k + 1 and np.array_equal(sol.f, level.f)
        assert sol.spec == resolve(p, scenario, free_value=free).spec


def test_la_level_on_the_region_boundary_is_one_basis_element():
    # 4 A_plus = b^2: the off-diagonal vanishes identically
    record = resolve(OdeParams("laguerre", 0.3, 0.0, 0.0, -0.6, 1.0), "LA")
    with pytest.raises(AmbiguousRegion):
        record.match()
    sol = record.state(3)
    assert np.array_equal(sol.f, [0.0, 0.0, 0.0, 1.0])
    assert sol.spec == record.spec and sol.norm_factor == 1.0


@pytest.mark.parametrize("params, keywords, kind", [
    # Meixner-Pollaczek: 4 A_plus > b^2, a continuous spectrum
    (OdeParams("laguerre", 0.0, 0.0, 0.25, 0.0, 1.0), {}, "continuous "
     "meixner_pollaczek"),
    # Krawtchouk: the gap -1 < 4 A_plus - b^2 < 0 at nu = -4
    (OdeParams("laguerre", 0.25, 0.25, -0.12, ((1 - 0.25) ** 2 - 16.0) / 4.0,
               1.7), {"nu_sign": -1}, "discrete_finite krawtchouk"),
])
def test_la_refuses_a_level_of_a_match_with_no_pointwise_series(params, keywords,
                                                                kind):
    with pytest.raises(NoPointwiseSolution) as info:
        resolve(params, "LA", **keywords).state(0)
    assert str(info.value) == (f"the {kind} match gives no series that solves "
                               "the equation pointwise")


@pytest.mark.parametrize("scenario, field, keywords", [
    ("LA", "a", {}), ("LB", "a", {"free_value": 1.4}),
    ("LB", "b", {"free_value": 1.4}), ("JA", "a", {}), ("JA", "b", {}),
    ("JA", "A_one", {}), ("JB", "b", {"free_value": 0.9}),
    ("JC", "a", {"free_value": 0.9}),
])
def test_field_whose_square_overflows_is_refused_by_name(scenario, field,
                                                         keywords):
    equation = "laguerre" if scenario[0] == "L" else "jacobi"
    fields = {"a": 0.3, "b": 0.4, "A_plus": -0.9, "A_minus": -0.6, "A_zero": 1.7,
              **({"A_one": 2.3} if scenario == "JA" else {}), field: -1e305}
    with pytest.raises(ValueError) as info:
        resolve(OdeParams(equation, **fields), scenario, **keywords).match()
    assert str(info.value) == (f"{field} = -1e+305 is out of range: "
                               f"(2 {field})^2 overflows")


def test_fields_a_scenario_does_not_square_keep_their_refusals():
    # LA squares b only as b*b, whose overflow its Meixner record refuses;
    # JB and JC refuse any A_one but 0 before anything else
    with pytest.raises(InvalidFamilyParams, match="tau must be finite"):
        resolve(OdeParams("laguerre", 0.3, 1e305, -0.9, -0.6, 1.7), "LA").match()
    for scenario in ("JB", "JC"):
        with pytest.raises(ScenarioRequiresA1Zero, match=r"got 1e\+305$"):
            resolve(replace(_JB, A_one=1e305), scenario, free_value=0.9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scenario, params", [
    ("LB", OdeParams("laguerre", 1.3, 0.6, -0.16, 0.7, 0.9)), ("JB", _JB),
    ("JC", _JC)])
def test_free_value_that_is_not_finite_is_refused_by_name(scenario, params, value):
    with pytest.raises(ValueError) as info:
        resolve(params, scenario, free_value=value)
    assert str(info.value) == f"free_value = {value!r} is not finite"
