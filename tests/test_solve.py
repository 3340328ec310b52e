"""Family matching, bound-level series and the ODE residual."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from triseries import families as fam
from triseries.basis import evaluate_series
from triseries.errors import (AmbiguousRegion, IndexOutOfSpectrum,
                              InvalidFamilyParams, NoBoundStates,
                              NoFamilyApplies, NoPointwiseSolution,
                              NoTerminatingIndex, SingularPointTooClose,
                              TriseriesError, TruncationTooSmall,
                              ZeroSolution)
from triseries.physics import (CoulombCase, EckartCase, MorseCase,
                               OscillatorCase, PoschlTellerCase, ScarfCase,
                               bound_energy, bound_series, spectrum_size,
                               wavefunction)
from triseries.solve import ode_residual
from triseries.recurrence import minimal_solution, run_recursion
from triseries import tra
from triseries.tra import (CONTINUOUS, DISCRETE_FINITE, DISCRETE_INFINITE, MIXED,
                           OdeParams, SeriesSolution, resolve)
from triseries.verify import closed_form_hp


def test_match_coulomb_scattering_is_oscillatory_family():
    case = CoulombCase(Z=1.0, ell=0, lam=1.0)
    p = case.ode_params(0.5)   # kappa = 1
    m = resolve(p, "LA").match()
    assert isinstance(m.family, fam.MeixnerPollaczek)
    assert m.spectrum_kind == CONTINUOUS
    assert m.spectral_map.family_value == pytest.approx(-1.0, rel=1e-12)  # -Z/kappa


def test_match_oscillator_bound_recovers_spectrum():
    # lam strictly inside the admissibility window (lam^2 < omega)
    case = OscillatorCase(omega=1.0, ell=0, lam=0.8)
    e0 = bound_energy(case, 0)   # omega (2m + l + 3/2)
    p = case.ode_params(e0)
    m = resolve(p, "LA").match()
    assert isinstance(m.family, fam.Meixner)
    assert m.spectrum_kind == DISCRETE_INFINITE
    k = m.spectral_map.family_value / (m.family.tau - 1.0)
    assert k == pytest.approx(0.0, abs=1e-10)


def test_match_morse_shallow_is_purely_continuous():
    case = MorseCase(lam=1.0, V1=0.2)   # V1 <= lam^2/4
    p = case.ode_params(0.3)
    m = resolve(p, "LB", free_value=0.0).match()
    assert isinstance(m.family, fam.ContinuousDualHahn)
    assert m.family.tau > 0
    assert m.spectrum_kind == CONTINUOUS


def test_match_morse_deep_is_mixed():
    case = MorseCase(lam=1.0, V1=1.0)
    p = case.ode_params(-1.0)
    m = resolve(p, "LB", free_value=0.0).match()
    assert m.spectrum_kind == MIXED
    assert m.n_finite == 1


def test_no_family_in_the_gap():
    # b^2 - 1 < 4 A_plus < b^2 with non-integer index combination
    p = OdeParams("laguerre", 0.3, 0.0, -0.1, -0.6, 1.0)
    with pytest.raises(NoFamilyApplies):
        resolve(p, "LA").match()


def test_boundary_is_ambiguous():
    p = OdeParams("laguerre", 0.3, 0.0, 0.0, -0.6, 1.0)   # 4 A_plus - b^2 = 0
    with pytest.raises(AmbiguousRegion):
        resolve(p, "LA").match()


def _ja_levels(a, b, a_plus, a_minus, a_one):
    """The JA parameter sets whose chi0 = A_zero - (a+b-1)^2/4 are the top
    three levels of their extended Jacobi matrix."""
    spec = resolve(OdeParams("jacobi", a, b, a_plus, a_minus, 0.0,
                                   A_one=a_one), "JA").spec
    levels = fam.ExtendedJacobi(spec.mu, spec.nu, a_one).levels(2)[1]
    return [OdeParams("jacobi", a, b, a_plus, a_minus,
                      chi0 + 0.25 * (a + b - 1.0) ** 2, A_one=a_one)
            for chi0 in levels]


_JA_X = np.linspace(-0.9, 0.9, 20)


def test_extended_family_assembly_is_a_unit_eigenvector():
    # the series of level k is the k-th unit eigenvector with f_0 > 0, so
    # its norm factor is f_0 = sqrt(discrete_mass(k)) and f_n = f_0 P_n(chi0)
    for a_one in (2.3, -2.3):
        for k, p in enumerate(_ja_levels(0.4, 0.7, -1.1, -0.8, a_one)):
            record = resolve(p, "JA")
            m = record.match()
            assert m.spectrum_kind == DISCRETE_INFINITE
            sol = record.state(k)
            assert sol.f[0] > 0.0
            assert np.sum(sol.f ** 2) == pytest.approx(1.0, rel=1e-13)
            assert sol.norm_factor == sol.f[0] == math.sqrt(m.family.discrete_mass(k))
            # forward recursion at chi0 keeps the leading terms only: it
            # regrows the dominant solution from round-off
            co = fam.family_coeffs(m.family, 4)
            rec = run_recursion(co, m.spectral_map.family_value, 3)
            assert np.allclose(sol.norm_factor * rec, sol.f[:4], rtol=1e-6)


@pytest.mark.parametrize("a, b, a_plus, a_minus, a_one", [
    (1.0, 0.5, -0.3, -0.8, -2.0),
    (0.5, 0.5, -1.0, -1.5, 1.0),
    (0.5, 0.5, 0.0, 0.0, 5.0),
])
def test_extended_family_levels_that_were_mislabelled_now_solve(
        a, b, a_plus, a_minus, a_one):
    # these three sets once gave a residual of 3.8e3, NoFamilyApplies and
    # TruncationTooSmall at their top three levels
    for k, p in enumerate(_ja_levels(a, b, a_plus, a_minus, a_one)):
        sol = resolve(p, "JA").state(k)
        assert ode_residual(p, sol, _JA_X) <= 1e-8


def test_extended_family_seeded_draws_solve_or_raise_typed():
    # 200 draws: a, b in [0, 2], A_plus in [-3, (1-b)^2/2], A_minus in
    # [-3, (1-a)^2/2] (real mu, nu >= 0) and |A_one| in [0.1, 10] with a
    # random sign; each of the top three levels solves to a residual <= 1e-8
    # at 20 points of [-0.9, 0.9] or raises a typed error
    rng = np.random.default_rng(20261020)
    solved = 0
    for _ in range(200):
        a, b = rng.uniform(0.0, 2.0, size=2)
        a_plus = rng.uniform(-3.0, (1.0 - b) ** 2 / 2.0)
        a_minus = rng.uniform(-3.0, (1.0 - a) ** 2 / 2.0)
        a_one = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
        try:
            params = _ja_levels(a, b, a_plus, a_minus, a_one)
        except TriseriesError:
            continue
        for k, p in enumerate(params):
            try:
                sol = resolve(p, "JA").state(k)
            except TriseriesError:
                continue
            assert ode_residual(p, sol, _JA_X) <= 1e-8, (a, b, a_plus, a_minus,
                                                          a_one, k)
            solved += 1
    assert solved == 600


def test_extended_family_given_truncation_solves_or_raises_typed():
    # a truncation given by the caller is used as given: a level it does not
    # hold to 1e-9, or a recursion row it misses by more than 1e-10, raises
    raised = 0
    for a_one in (-2.0, 5.0, 1000.0):
        for k, p in enumerate(_ja_levels(1.0, 0.5, -0.3, -0.8, a_one)):
            record = resolve(p, "JA")
            for truncation in range(2, 61):
                try:
                    sol = record.state(k, truncation=truncation)
                except (IndexOutOfSpectrum, TruncationTooSmall):
                    raised += 1
                    continue
                assert len(sol.f) == truncation + 1
                assert ode_residual(p, sol, _JA_X) <= 1e-8
    assert raised > 0


def _krawtchouk_params(nu):
    return OdeParams("laguerre", 0.25, 0.25, -0.12,
                     ((1 - 0.25) ** 2 - nu * nu) / 4.0, 1.7)


@pytest.mark.parametrize("params, scenario, keywords, family, n_fin", [
    pytest.param(_krawtchouk_params(-4.0), "LA", {"nu_sign": -1},
                 fam.Krawtchouk, 3, id="LA-krawtchouk"),
    # the matcher and the basis norms share one negative-integer rule, so an
    # index 1e-10 off nu = -4 is the same finite match
    pytest.param(_krawtchouk_params(-4.0 + 1e-10), "LA", {"nu_sign": -1},
                 fam.Krawtchouk, 3, id="LA-krawtchouk-near-integer"),
])
def test_finite_family_match_refuses_assembly(params, scenario, keywords,
                                              family, n_fin):
    # a finite (negative basis-index) match solves the coefficient recursion
    # only: no series of it solves the equation pointwise
    record = resolve(params, scenario, **keywords)
    m = record.match()
    assert isinstance(m.family, family)
    assert m.spectrum_kind == DISCRETE_FINITE and m.n_finite == n_fin
    for k in (0, n_fin):
        with pytest.raises(NoPointwiseSolution, match="discrete_finite krawtchouk"):
            record.state(k)


def test_jc_wilson_match_with_parameter_sum_two_recurs_to_the_closed_form():
    # mu + nu = 0 gives a Wilson record with a+b+c+d = 2, whose printed A_0
    # and C_0 are 0/0
    p = OdeParams("jacobi", 0.8, 0.5, 0.08, 1.2, 1.1)
    m = resolve(p, "JC", free_value=-0.3).match()
    f = m.family
    assert (f.a + f.b + f.c + f.d).real == pytest.approx(2.0, abs=1e-14)
    vals = run_recursion(fam.family_coeffs(f, 11), f.spectral_point(1.3), 10)
    ref = closed_form_hp(f, 1.3, 10)
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-12)


def test_level_the_spectrum_does_not_hold_is_refused_first(monkeypatch):
    # bound_series asks the spectrum for level m before any level formula
    # runs: none is reached here
    def fault(*_args):
        raise OverflowError("a level formula ran")

    for cls in (MorseCase, PoschlTellerCase, EckartCase):
        monkeypatch.setattr(cls, "level_energy", fault)
    for case in (PoschlTellerCase(lam=1.0, A=1.0, B=5.0),
                 PoschlTellerCase(lam=1e300, A=1.0, B=0.0),
                 EckartCase(lam=1.0, A=1e300, B=0.0)):
        with pytest.raises(NoBoundStates):
            bound_series(case, 0)
    for case, m in ((MorseCase(lam=1.0, V1=1.0), 2),
                    (EckartCase(lam=1.0, A=2.0, B=-20.0), 3)):
        size = spectrum_size(case)
        with pytest.raises(IndexOutOfSpectrum,
                           match=f"m={m} is past the last of the spectrum's "
                                 f"{size} levels"):
            bound_series(case, m)
    with pytest.raises(IndexOutOfSpectrum, match="m=-1 < 0"):
        bound_series(PoschlTellerCase(lam=1.0, A=1.0, B=5.0), -1)


def test_la_index_off_the_matched_mass_point_is_refused():
    # at the parameters of Coulomb level 1 only Meixner index 1 is the
    # matched mass point; indices 0 and 2 gave series with residuals 2.4
    # and 3.2
    params, level = bound_series(CoulombCase(Z=1.0, ell=0, lam=0.3), 1)
    record = resolve(params, "LA")
    assert record.match().spectrum_kind == DISCRETE_INFINITE
    assert np.array_equal(record.state(1).f, level.f)
    for k in (0, 2):
        with pytest.raises(IndexOutOfSpectrum, match=f"mass point {k} of meixner"):
            record.state(k)


def test_coulomb_basis_scale_caps_the_levels():
    # the scale lam carries level m while 2Z/(m+1) >= lam: at lam = 1, m = 1
    # sits on the family-region boundary (a single basis element) and m = 2
    # lies beyond it
    case = CoulombCase(Z=1.0, lam=1.0)
    _, sol = bound_series(case, 1)
    assert np.count_nonzero(sol.f) == 1
    with pytest.raises(InvalidFamilyParams):
        bound_series(case, 2)


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


_LA_X = np.linspace(0.3, 8.0, 20)


@pytest.mark.parametrize("case, ms", [
    (CoulombCase(Z=1.0, ell=0, lam=0.3), (1, 2)),
    (CoulombCase(Z=1.0, ell=1, lam=0.3), (0, 1, 2)),
    (OscillatorCase(omega=0.5, ell=2, lam=0.4), (0, 1, 2)),
], ids=["coulomb-ell-0", "coulomb-ell-1", "oscillator-ell-2"])
def test_meixner_states_that_decay_within_the_truncation_solve_to_3e_8(case, ms):
    # the minimal solution by backward recursion; forward recursion with a
    # round-off clip left 2e-8 to 2e-7 on these levels
    for m in ms:
        params, sol = bound_series(case, m)
        assert ode_residual(params, sol, _LA_X) <= 3e-8


@pytest.mark.parametrize("case, ms", [
    (CoulombCase(Z=1.0, ell=0, lam=0.3), (0,)),
    (CoulombCase(Z=4.03, ell=0, lam=0.99), (0,)),
    (OscillatorCase(omega=1.0, ell=0, lam=0.4), (0, 2, 3)),
], ids=["coulomb-1", "coulomb-4.03", "oscillator"])
def test_meixner_states_at_a_long_truncation_solve_to_1e_7(case, ms):
    # forward recursion with a round-off clip stalled at 1.4e-7 to 5.1e-7
    for m in ms:
        params, sol = bound_series(case, m, truncation=240)
        assert ode_residual(params, sol, _LA_X) <= 1e-7


def test_meixner_state_zeroes_exactly_the_terms_of_its_small_l2_tail():
    # the kept terms are p times the minimal solution; the zeroed ones are
    # the longest tail whose l2 norm is below 1e-9 of the whole
    params, sol = bound_series(CoulombCase(Z=1.0, ell=0, lam=0.3), 1)
    family = resolve(params, "LA").match().family
    full = sol.norm_factor * minimal_solution(
        fam.family_coeffs(family, 122), family.mass_point(1))[:61]
    kept = np.count_nonzero(sol.f)
    assert 0 < kept < 61 and np.all(sol.f[kept:] == 0.0)
    assert np.array_equal(sol.f[:kept], full[:kept])
    norm = np.linalg.norm(full)
    assert np.linalg.norm(full[kept:]) < 1e-9 * norm <= np.linalg.norm(full[kept - 1:])


@pytest.mark.parametrize("case, m", [
    (OscillatorCase(omega=1.0, ell=0, lam=0.8), 12),
    (OscillatorCase(omega=1.0, ell=0, lam=0.8), 18),
    (OscillatorCase(omega=0.5, ell=2, lam=0.4), 24),
], ids=["oscillator-12", "oscillator-18", "oscillator-ell-2-24"])
def test_excited_meixner_states_keep_their_coefficients(case, m):
    # P_n(m) grows and oscillates in n before it decays: forward steps up
    # to the decay keep it where backward recursion alone would lose it
    params, sol = bound_series(case, m)
    family = resolve(params, "LA").match().family
    ref = math.sqrt(family.discrete_mass(m)) * np.array(
        closed_form_hp(family, m, len(sol.f) - 1), dtype=float)
    assert np.abs(sol.f - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("truncation, message", [
    (10 ** 6, "n_max=1000000 exceeds forward-recursion cap 500"),
    (-1, "n_max must be >= 0"),
])
def test_truncation_is_refused_before_any_stream_is_built(truncation, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            bound_series(CoulombCase(Z=1.0, ell=0, lam=0.3), 1, truncation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


def _terminating_draw(rng, name):
    """An admissible Morse/Poschl-Teller/Scarf/Eckart case; the Jacobi
    cases may come out with nu < 0, which the caller skips."""
    lam = float(rng.uniform(0.5, 2.0))
    u = lambda lo, hi: float(rng.uniform(lo, hi)) * lam
    sign = float(rng.choice([-1.0, 1.0]))
    if name == "morse":
        return MorseCase(lam=lam, V1=u(0.3, 3.0) * lam)
    if name == "poschl_teller":
        return PoschlTellerCase(lam=lam, A=sign * u(0.5, 3.0), B=-u(2.0, 60.0))
    if name == "scarf":
        return ScarfCase(A=u(0.2, 4.0), B=u(0.2, 4.0), lam=lam)
    return EckartCase(lam=lam, A=sign * u(0.5, 3.0), B=-u(2.0, 40.0))


@pytest.mark.parametrize("name", ["morse", "poschl_teller", "scarf", "eckart"])
def test_jacobi_and_morse_levels_terminate_over_seeded_draws(name):
    # every level m <= 3 is the finite series on its own free index, cut at
    # N = m: its residual is round-off, whatever the parameters
    rng = np.random.default_rng(8)
    xs = (np.linspace(0.3, 6.0, 20) if name == "morse"
          else np.linspace(-0.9, 0.9, 20))
    n_draws = n_levels = 0
    while n_draws < 30:
        case = _terminating_draw(rng, name)
        if name != "morse" and case.nu < 0:
            continue
        n_draws += 1
        for m in range(min(4, spectrum_size(case))):
            params, sol = bound_series(case, m)
            assert len(sol.f) == m + 1
            assert ode_residual(params, sol, xs) <= 1e-12, (case, m)
            assert np.sum(sol.f ** 2) == pytest.approx(1.0, rel=1e-12)
            n_levels += 1
    assert n_levels >= 30


# psi(r) of the terminating states that were right before the cut at N = m
# replaced the exact-zero decoupling (sampled from that code)
PSI_BEFORE_CUT = [
    (MorseCase(lam=1.0, V1=1.0), 0, (-3.0, -1.0, 0.5, 1.5),
     (0.007662115760207627, 0.13126812249814576, 0.6564332764744327,
      0.7136103988457362)),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), 0, (0.2, 0.6, 1.5, 3.0),
     (0.5466983225518784, 1.0981487770429816, 0.36409742708612125,
      0.005823376208406823)),
    (ScarfCase(A=2.0, B=0.5, lam=1.0), 0, (0.3, 1.0, 2.0, 2.8),
     (0.19454593324968797, 0.8296450620043186, 0.5737746988239948,
      0.04036033576445617)),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), 0, (0.2, 0.7, 1.5, 3.0),
     (0.7586031450532442, 0.791824971203106, 0.07686552443914331,
      0.00028504278566719255)),
    (ScarfCase(A=0.5, B=2.0, lam=1.0), 0, (0.3, 1.0, 2.0, 2.8),
     (0.041114838265844666, 0.5625077304934003, 0.6828031829465744,
      0.056247631955369574)),
    (ScarfCase(A=0.5, B=2.0, lam=1.0), 1, (0.3, 1.0, 2.0, 2.8),
     (-0.08782940777090667, -0.6795952245469393, 0.6353706314538081,
      0.11850662853576517)),
    (ScarfCase(A=0.5, B=2.0, lam=1.0), 2, (0.3, 1.0, 2.0, 2.8),
     (0.1430128062703601, 0.37888684880661244, 0.09354749135053583,
      0.18932574580794004)),
]


@pytest.mark.parametrize("case, m, rs, psi", PSI_BEFORE_CUT)
def test_terminating_states_keep_their_normalized_psi(case, m, rs, psi):
    _, sol = bound_series(case, m)
    got = wavefunction(case, sol, np.array(rs))
    assert np.max(np.abs(got - psi)) <= 1e-13 * np.max(np.abs(psi))


@pytest.mark.parametrize("case", [
    PoschlTellerCase(lam=1.0, A=0.3, B=-10.0),
    EckartCase(lam=1.0, A=0.3, B=-20.0),
    ScarfCase(A=0.488, B=0.421, lam=1.674),
], ids=lambda c: c.name)
def test_level_formula_with_negative_nu_raises(case):
    # the level formula takes the smaller indicial exponent (nu < 0) while
    # the basis takes the positive root: no terminating series to give
    assert case.nu < 0
    with pytest.raises(NoTerminatingIndex, match="takes nu = -"):
        bound_series(case, 0)


def test_chain_that_does_not_end_at_the_level_raises(monkeypatch):
    # a free index off the level's own leaves t_N well above round-off
    chain = tra._chain
    monkeypatch.setattr(tra, "_chain", lambda *args: chain(
        *args[:-1], lambda N: args[-1](N) + 0.1))
    for case in (EckartCase(lam=1.0, A=2.0, B=-20.0), MorseCase(lam=1.0, V1=1.1)):
        with pytest.raises(NoTerminatingIndex, match="not round-off"):
            bound_series(case, 1)


def test_deep_wells_have_finite_masses_and_roundoff_residuals():
    # Gamma arguments of several hundred: the masses are one exp of a
    # log-gamma sum, so nothing overflows on the way to a mass below 1
    xs = np.linspace(-0.9, 0.9, 20)
    for m in (0, 1):
        params, sol = bound_series(EckartCase(lam=1.0, A=2.0, B=-400.0), m)
        assert ode_residual(params, sol, xs) <= 1e-12
        assert np.sum(sol.f ** 2) == pytest.approx(1.0, rel=1e-12)
    for case in (PoschlTellerCase(lam=1.0, A=1.0, B=-30000.0),
                 ScarfCase(A=150.0, B=0.5, lam=1.0)):
        for m in (0, 1, 2):
            params, sol = bound_series(case, m)
            # the equation's terms reach ~2e4 here: round-off of the largest
            scale = max(abs(params.A_plus), abs(params.A_minus),
                        abs(params.A_zero))
            # the chain ends at N, so the mass is 1 / sum_{n<=N} P_n^2
            assert np.sum(sol.f ** 2) == pytest.approx(1.0, rel=1e-12)
            assert ode_residual(params, sol, xs) <= 1e-15 * scale


def test_zero_solution_residual_raises():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0)
    spec = resolve(p, "LA").spec
    sol = SeriesSolution(np.zeros(5), spec, 1.0)
    with pytest.raises(ZeroSolution):
        ode_residual(p, sol, [0.5, 1.0])


def test_singular_margins_enforced():
    p = OdeParams("laguerre", 0.0, 0.0, 1.0, 0.0, 2.0)
    spec = resolve(p, "LA").spec
    sol = SeriesSolution(np.ones(3), spec, 1.0)
    with pytest.raises(SingularPointTooClose):
        ode_residual(p, sol, [0.01])
    pj = OdeParams("jacobi", 0.5, 0.5, 0.1, 0.1, 5.0, A_one=2.0)
    specj = resolve(pj, "JA").spec
    solj = SeriesSolution(np.ones(3), specj, 1.0)
    with pytest.raises(SingularPointTooClose):
        ode_residual(pj, solj, [0.99])


def test_mixed_components_satisfy_the_raw_recursion():
    # both pieces of a mixed solution solve the coefficient recursion at
    # machine precision, each at its own spectral value
    case = MorseCase(lam=1.0, V1=1.0)
    e0 = bound_energy(case, 0)
    p = case.ode_params(e0, bound=True)
    record = resolve(p, "LB", free_value=0.35)
    m = record.match()
    assert m.spectrum_kind == MIXED
    co = fam.family_coeffs(m.family, 41)
    cont = run_recursion(co, m.family.spectral_point(1.7), 40)
    disc = run_recursion(co, m.family.mass_point(0), 40)
    raw = record.streams(42)

    def raw_residual(f, z_raw):
        worst = 0.0
        for n in range(1, len(f) - 1):
            r = z_raw * f[n] - (raw.s[n] * f[n] + raw.t[n - 1] * f[n - 1]
                                + raw.t[n] * f[n + 1])
            worst = max(worst, abs(r) / max(1.0, abs(f[n])))
        return worst

    sm = m.spectral_map   # the raw value of a family value v is v scale + offset
    z_cont = 1.7 * sm.scale + sm.offset     # continuous component at w = 1.7
    z_disc = m.family.mass_point(0) * sm.scale + sm.offset
    assert raw_residual(cont, z_cont) < 1e-10
    assert raw_residual(disc, z_disc) < 1e-10


def test_norm_stabilization_for_bound_states():
    case = CoulombCase(Z=1.0, ell=0, lam=1.0)
    _, sol = bound_series(case, 0, truncation=100)
    drift = abs(np.sum(sol.f[:101] ** 2) - np.sum(sol.f[:81] ** 2))
    assert drift < 1e-10
    case = OscillatorCase(omega=1.0, ell=0, lam=0.8)
    _, sol = bound_series(case, 0, truncation=100)
    drift = abs(np.sum(sol.f[:101] ** 2) - np.sum(sol.f[:81] ** 2))
    assert drift < 1e-10


def test_coefficients_satisfy_raw_recursion_mixed_regime():
    # continued quadratic family: the chain cut at N = m, with f_n = 0 past
    # it, must solve the raw stream (t_N is round-off at the cut)
    case = ScarfCase(A=2.0, B=0.5, lam=1.0)
    for level in (0, 1, 2):
        p, sol = bound_series(case, level)
        free = resolve(p, "JC", free_value=0.0).ending(level)
        scenario = resolve(p, "JC", free_value=free)
        m = scenario.match()
        assert m.spec == sol.spec and len(sol.f) == level + 1
        raw = scenario.streams(13)
        f = np.zeros(13)
        f[:level + 1] = np.real(sol.f)
        zr = m.spectral_map.raw_value
        for n in range(1, 11):
            res = zr * f[n] - (raw.s[n] * f[n] + raw.t[n - 1] * f[n - 1]
                               + raw.t[n] * f[n + 1])
            assert abs(res) < 1e-10


@pytest.mark.parametrize("case, m", [
    (CoulombCase(Z=1.0, ell=1, lam=0.3), 2),
    (OscillatorCase(omega=0.5, ell=2, lam=0.4), 1),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), 2),
], ids=["coulomb", "oscillator", "eckart_jacobi"])
def test_wavefunction_equals_the_full_evaluator_bit_for_bit(case, m):
    # psi carries P_n alone, in the operations of the (P, P', P'') pass
    _, sol = bound_series(case, m)
    rs = np.linspace(0.05, 12.0, 200)
    psi = wavefunction(case, sol, rs)
    assert np.array_equal(psi, evaluate_series(sol.spec, sol.f,
                                               case.x_of_r(rs))[0])
    assert np.array_equal(sol(case.x_of_r(rs[7])), psi[7:8].reshape(()))



# every bound_series call below contributes the f bytes, spec and norm factor
# of its state, or the type and message of its refusal, so the digests pin
# each state bit for bit and each refusal's type and message
_PIN_CASES = (
    [CoulombCase(Z=z, ell=ell, lam=lam) for z in (0.5, 1.0, 4.03)
     for ell in (0, 1, 3) for lam in (0.05, 0.3, 0.99, 2.0)]
    + [OscillatorCase(omega=w, ell=ell, lam=lam) for w in (0.5, 1.0)
       for ell in (0, 2) for lam in (0.4, 0.6)]
    + [MorseCase(lam=1.0, V1=v) for v in (0.8, 1.0, 1.1, 2.5, 10.0, 30.0)]
    + [PoschlTellerCase(lam=1.0, A=a, B=b) for a, b in
       ((1, -36), (2, -20), (1, -400), (2, -42.5), (0.3, -8), (1.3, -10))]
    + [ScarfCase(A=a, B=b, lam=1.0) for a, b in
       ((2, 0.5), (0.5, 2), (2.2, 0.6), (20, 5), (2, -0.5), (3, 1))]
    + [EckartCase(lam=1.0, A=a, B=b) for a, b in
       ((2, -20), (1, -16.15), (2, -300), (0.8, -5))])


def _digest(calls):
    """(SHA-256 of the states and refusals, states, refusals)."""
    h, counts = hashlib.sha256(), [0, 0]
    for call in calls:
        try:
            sol = call()
        except (TriseriesError, ValueError, ArithmeticError) as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            counts[1] += 1
            continue
        h.update(np.asarray(sol.f).tobytes())
        h.update(f"{sol.spec!r} {sol.norm_factor!r}\n".encode())
        counts[0] += 1
    return h.hexdigest(), *counts


def test_bound_series_states_and_refusals_are_pinned():
    calls = [lambda case=case, m=m, t=t: bound_series(case, m, t)[1]
             for case in _PIN_CASES for m in range(6) for t in (None, 40, 60, 100)]
    assert _digest(calls) == (
        "5ce5a888af4a972e873c4e0b4ea8b5e4366660af02ea876c0f7541b8c5e62b0b",
        1028, 556)


def test_ja_states_are_pinned():
    # the top three levels of 60 seeded extended-Jacobi draws, each at the
    # settled truncation and at 4 and 12 terms past degree 0
    rng = np.random.default_rng(39)
    calls = []
    for _ in range(60):
        a, b = rng.uniform(0.0, 2.0, size=2)
        a_plus = rng.uniform(-3.0, (1.0 - b) ** 2 / 2.0)
        a_minus = rng.uniform(-3.0, (1.0 - a) ** 2 / 2.0)
        a_one = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
        for k, p in enumerate(_ja_levels(a, b, a_plus, a_minus, a_one)):
            calls += [lambda p=p, k=k, t=t: resolve(p, "JA").state(k, t)
                      for t in (None, 4, 12)]
    assert _digest(calls) == (
        "1deeb65adee56c850987f1bff935d946a2db9913151ec533f8e4681ccc629787",
        360, 180)
