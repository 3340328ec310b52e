"""Family matching, series assembly and the ODE residual."""

import numpy as np
import pytest

from triseries import families as fam
from triseries.errors import (AmbiguousRegion, IndexOutOfSpectrum,
                              NoFamilyApplies, SingularPointTooClose,
                              TruncationTooSmall, ZeroSolution)
from triseries.physics import (CoulombCase, EckartCase, MorseCase,
                               OscillatorCase, PoschlTellerCase, ScarfCase,
                               bound_energy, bound_ode_params, bound_series,
                               to_ode_params)
from triseries.solve import (CONTINUOUS, DISCRETE_FINITE, DISCRETE_INFINITE,
                             MIXED, SeriesSolution, assemble_mixed,
                             assemble_solution, match_family, ode_residual)
from triseries.tra import OdeParams


def test_match_coulomb_scattering_is_oscillatory_family():
    case = CoulombCase(Z=1.0, ell=0, lam=1.0)
    p = to_ode_params(case, 0.5)   # kappa = 1
    m = match_family(p, "LA")
    assert isinstance(m.family, fam.MeixnerPollaczek)
    assert m.spectrum_kind == CONTINUOUS
    assert m.spectral_map.family_value == pytest.approx(-1.0, rel=1e-12)  # -Z/kappa


def test_match_oscillator_bound_recovers_spectrum():
    # lam strictly inside the admissibility window (lam^2 < omega)
    case = OscillatorCase(omega=1.0, ell=0, lam=0.8)
    e0 = bound_energy(case, 0)   # omega (2m + l + 3/2)
    p = to_ode_params(case, e0)
    m = match_family(p, "LA")
    assert isinstance(m.family, fam.Meixner)
    assert m.spectrum_kind == DISCRETE_INFINITE
    k = m.spectral_map.family_value / (m.family.tau - 1.0)
    assert k == pytest.approx(0.0, abs=1e-10)


def test_match_morse_shallow_is_purely_continuous():
    case = MorseCase(lam=1.0, V1=0.2)   # V1 <= lam^2/4
    p = to_ode_params(case, 0.3)
    m = match_family(p, "LB", free_value=0.0)
    assert isinstance(m.family, fam.ContinuousDualHahn)
    assert m.family.tau > 0
    assert m.spectrum_kind == CONTINUOUS


def test_match_morse_deep_is_mixed():
    case = MorseCase(lam=1.0, V1=1.0)
    p = to_ode_params(case, -1.0)
    m = match_family(p, "LB", free_value=0.0)
    assert m.spectrum_kind == MIXED
    assert m.n_finite == 1


def test_no_family_in_the_gap():
    # b^2 - 1 < 4 A_plus < b^2 with non-integer index combination
    p = OdeParams("laguerre", 0.3, 0.0, -0.1, -0.6, 1.0)
    with pytest.raises(NoFamilyApplies):
        match_family(p, "LA")


def test_boundary_is_ambiguous():
    p = OdeParams("laguerre", 0.3, 0.0, 0.0, -0.6, 1.0)   # 4 A_plus - b^2 = 0
    with pytest.raises(AmbiguousRegion):
        match_family(p, "LA")


def test_extended_family_assembly_is_unnormalized():
    chi0 = 1.9
    p = OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8,
                  chi0 + 0.25 * (0.4 + 0.7 - 1.0) ** 2, A_one=2.3)
    m = match_family(p, "JA")
    assert isinstance(m.family, fam.ExtendedJacobiContinuous)
    sol = assemble_solution(m, 0.0, truncation=25, enforce_tail=False)
    assert sol.unnormalized
    assert sol.norm_factor == 1.0


def test_finite_family_assembly_has_exactly_n_plus_one_terms():
    n_fin = 3
    p = OdeParams("laguerre", 0.25, 0.25, -0.12,
                  ((1 - 0.25) ** 2 - (n_fin + 1) ** 2) / 4.0, 1.7)
    m = match_family(p, "LA", nu_sign=-1)
    assert m.spectrum_kind == DISCRETE_FINITE and m.n_finite == 3
    sol = assemble_solution(m, 1)
    assert len(sol.f) == 4
    with pytest.raises(IndexOutOfSpectrum):
        assemble_solution(m, 4)


def test_finite_family_coefficients_are_weighted_family_values():
    n_fin = 3
    p = OdeParams("laguerre", 0.25, 0.25, -0.12,
                  ((1 - 0.25) ** 2 - (n_fin + 1) ** 2) / 4.0, 1.7)
    m = match_family(p, "LA", nu_sign=-1)
    k = 1
    sol = assemble_solution(m, k)
    for n in range(n_fin + 1):
        expect = sol.norm_factor * fam.closed_form(m.family, n, k)
        assert float(np.real(sol.f[n])) == pytest.approx(expect, rel=1e-10,
                                                         abs=1e-12)


def test_finite_expansion_streams_reproduce_signed_squares():
    # the real asymmetric finite streams carry the formal twisted squares:
    # sub_{n+1} * sup_n equals the (negative) signed t_n^2 of the raw stream
    from triseries.solve import finite_expansion_streams
    from triseries.tra import laguerre_st2r2, resolve_basis
    n_fin = 5
    p = OdeParams("laguerre", 0.25, 0.25, -0.12,
                  ((1 - 0.25) ** 2 - (n_fin + 1) ** 2) / 4.0, 1.7)
    spec = resolve_basis(p, "LA", nu_sign=-1)
    diag, sub, sup, zraw = finite_expansion_streams(p, spec, n_fin + 1)
    raw, _ = laguerre_st2r2(p, spec, n_fin + 1)
    assert np.allclose(diag, raw.s, atol=1e-12)
    assert np.allclose(sub[1:] * sup[:-1], raw.t_squared[:-1], atol=1e-12)


def test_hydrogen_ground_state_shape():
    case = CoulombCase(Z=1.0, ell=0, lam=2.0)   # basis scale matched to 2Z
    from triseries.physics import wavefunction
    _, sol = bound_series(case, 0, truncation=40)
    rs = np.linspace(0.2, 8.0, 30)
    psi = wavefunction(case, sol, rs)
    exact = rs * np.exp(-rs)
    corr = np.corrcoef(psi, exact)[0, 1]
    assert corr > 0.999


def test_oscillator_residual_small_at_full_truncation():
    case = OscillatorCase(omega=1.0, ell=0, lam=1.0)
    params, sol = bound_series(case, 0, truncation=40)
    res = ode_residual(params, sol, np.linspace(0.3, 8.0, 10))
    assert res < 1e-6


def test_residual_trend_bound_series():
    case = CoulombCase(Z=1.0, ell=0, lam=0.3)
    xs = np.linspace(0.3, 8.0, 10)
    res = []
    for T in (5, 10, 20, 40):
        params, sol = bound_series(case, 0, truncation=T)
        res.append(ode_residual(params, sol, xs))
    assert all(res[i + 1] < res[i] for i in range(len(res) - 1))


@pytest.mark.parametrize("case, ms, xs", [
    (MorseCase(lam=1.0, V1=1.0), (0, 1), np.linspace(0.3, 6.0, 10)),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), (0, 1, 2), np.linspace(-0.9, 0.9, 10)),
    (ScarfCase(A=2.0, B=0.5, lam=1.0), (0, 1, 2), np.linspace(-0.9, 0.9, 10)),
    (ScarfCase(A=0.5, B=2.0, lam=1.0), (0, 1, 2), np.linspace(-0.9, 0.9, 10)),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), (0,), np.linspace(-0.9, 0.9, 10)),
])
def test_terminating_states_solve_the_ode_to_roundoff(case, ms, xs):
    # these coefficient chains terminate, so the series is an exact solution
    # and its residual is round-off, not truncation
    for m in ms:
        params, sol = bound_series(case, m)
        assert ode_residual(params, sol, xs) <= 1e-12


def test_zero_solution_residual_raises():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0)
    from triseries.tra import resolve_basis
    spec = resolve_basis(p, "LA")
    sol = SeriesSolution(np.zeros(5), spec, 5, 1.0, 0.0)
    with pytest.raises(ZeroSolution):
        ode_residual(p, sol, [0.5, 1.0])


def test_singular_margins_enforced():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0)
    from triseries.tra import resolve_basis
    spec = resolve_basis(p, "LA")
    sol = SeriesSolution(np.ones(3), spec, 3, 1.0, 0.0)
    with pytest.raises(SingularPointTooClose):
        ode_residual(p, sol, [0.01])
    pj = OdeParams("jacobi", 0.5, 0.5, 0.1, 0.1, 5.0, A_one=2.0)
    specj = resolve_basis(pj, "JA")
    solj = SeriesSolution(np.ones(3), specj, 3, 1.0, 0.0)
    with pytest.raises(SingularPointTooClose):
        ode_residual(pj, solj, [0.99])


def test_truncation_check_fires_for_nondecaying_series():
    case = CoulombCase(Z=1.0, ell=0, lam=1.0)
    p = to_ode_params(case, 0.5)
    m = match_family(p, "LA")
    with pytest.raises(TruncationTooSmall):
        assemble_solution(m, m.spectral_map.family_value, truncation=30)


def test_mixed_assembly_produces_both_components():
    case = MorseCase(lam=1.0, V1=1.0, nu=0.35)
    e0 = bound_energy(case, 0)
    p = bound_ode_params(case, e0)
    m = match_family(p, "LB", free_value=0.35)
    cont, disc = assemble_mixed(m, 1.2, 0, truncation=50)
    assert len(cont.f) == 51
    assert len(disc.f) == 51
    assert disc.norm_factor > 0


def test_mixed_components_satisfy_the_raw_recursion():
    # both pieces of a mixed solution solve the coefficient recursion at
    # machine precision, each at its own spectral value
    from triseries.tra import laguerre_st2r2
    case = MorseCase(lam=1.0, V1=1.0, nu=0.35)
    e0 = bound_energy(case, 0)
    p = bound_ode_params(case, e0)
    m = match_family(p, "LB", free_value=0.35)
    cont, disc = assemble_mixed(m, 1.7, 0, truncation=40)
    raw, _ = laguerre_st2r2(p, m.spec, 42)

    def raw_residual(f, z_raw):
        worst = 0.0
        for n in range(1, len(f) - 1):
            r = z_raw * f[n] - (raw.s[n] * f[n] + raw.t[n - 1] * f[n - 1]
                                + raw.t[n] * f[n + 1])
            worst = max(worst, abs(r) / max(1.0, abs(f[n])))
        return worst

    z_cont = m.spectral_map.to_raw(1.7)     # continuous component at w = 1.7
    z_disc = m.spectral_map.to_raw(m.family.discrete_point(0))
    assert raw_residual(np.real(cont.f), z_cont) < 1e-10
    assert raw_residual(np.real(disc.f), z_disc) < 1e-10


def test_norm_stabilization_for_bound_states():
    case = CoulombCase(Z=1.0, ell=0, lam=1.0)
    _, sol = bound_series(case, 0, truncation=100)
    drift = abs(sol.norm_sq_partial(100) - sol.norm_sq_partial(80))
    assert drift < 1e-10
    case = OscillatorCase(omega=1.0, ell=0, lam=0.8)
    _, sol = bound_series(case, 0, truncation=100)
    drift = abs(sol.norm_sq_partial(100) - sol.norm_sq_partial(80))
    assert drift < 1e-10


def test_coefficients_satisfy_raw_recursion_mixed_regime():
    # continued quadratic family: assembled f_n must solve the raw stream
    from triseries.physics import ScarfCase
    from triseries.tra import jacobi_st2r2
    case = ScarfCase(A=2.0, B=0.5, lam=1.0)
    e0 = bound_energy(case, 0)
    p = bound_ode_params(case, e0)
    m = match_family(p, "JC", free_value=case.mu)
    sol = assemble_solution(m, 0, truncation=12)
    raw, _ = jacobi_st2r2(p, m.spec, 13)
    f = np.real(sol.f)
    zr = m.spectral_map.raw_value
    for n in range(1, 11):
        res = zr * f[n] - (raw.s[n] * f[n] + raw.t[n - 1] * f[n - 1]
                           + raw.t[n] * f[n + 1])
        assert abs(res) < 1e-10
