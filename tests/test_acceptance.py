"""Acceptance suite: one test per criterion, one printed line each.

Every tolerance is pinned here; timing-limited criteria assert their wall
clock.  The printed lines bypass pytest capture so a plain run shows the
per-criterion verdicts.
"""

import sys
import time

import numpy as np
import pytest

from triseries import families as fam
from triseries.physics import (CoulombCase, EckartCase, MorseCase,
                               OscillatorCase, PoschlTellerCase, ScarfCase,
                               bound_energy, bound_series, bound_spectrum,
                               fd_oracle, phase_shift, tra_bound_energy)
from triseries.solve import ode_residual
from triseries.verify import (degeneration_suite, identity_suite,
                              oracle_equivalence_suite, stream_match_suite,
                              weight_suite)


def _report(num: int, ok: bool, detail: str):
    # visible with `pytest tests/test_acceptance.py -s` (and on any failure)
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_criterion_01_coulomb_spectrum():
    t0 = time.monotonic()
    worst_formula = 0.0
    worst_oracle = 0.0
    for ell in (0, 1):
        case = CoulombCase(Z=1.0, ell=ell)
        spec = bound_spectrum(case, m_max=2)
        for m, e in spec.levels:
            ref = -1.0 / (2.0 * (m + ell + 1.0) ** 2)
            worst_formula = max(worst_formula, abs(e - ref) / abs(ref))
        # the matching-condition route must reproduce the same energies
        scale_case = CoulombCase(Z=1.0, ell=ell, lam=0.4)
        for m in (0, 1):
            ref = -1.0 / (2.0 * (m + ell + 1.0) ** 2)
            worst_formula = max(worst_formula,
                                abs(tra_bound_energy(scale_case, m) - ref) / abs(ref))
        oracle = fd_oracle(case, n_levels=3)
        formula = np.sort(spec.energies)
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(oracle - formula) / np.abs(formula))))
    elapsed = time.monotonic() - t0
    ok = worst_formula <= 1e-10 and worst_oracle <= 1e-3 and elapsed < 10.0
    _report(1, ok, f"coulomb spectrum: formula err {worst_formula:.2e} "
                   f"(<=1e-10), oracle err {worst_oracle:.2e} (<=1e-3), "
                   f"{elapsed:.1f}s (<10s)")


def test_criterion_02_oscillator_spectrum():
    t0 = time.monotonic()
    worst_formula = 0.0
    worst_oracle = 0.0
    for omega in (0.5, 1.0):
        for ell in (0, 2):
            case = OscillatorCase(omega=omega, ell=ell)
            spec = bound_spectrum(case, m_max=3)
            for m, e in spec.levels:
                ref = omega * (2 * m + ell + 1.5)
                worst_formula = max(worst_formula, abs(e - ref))
            oracle = fd_oracle(case, n_levels=4)
            formula = np.sort(spec.energies)
            worst_oracle = max(worst_oracle,
                               float(np.max(np.abs(oracle - formula) / formula)))
    elapsed = time.monotonic() - t0
    ok = worst_formula == 0.0 and worst_oracle <= 1e-4 and elapsed < 10.0
    _report(2, ok, f"oscillator spectrum: formula exact ({worst_formula:.1e}), "
                   f"oracle err {worst_oracle:.2e} (<=1e-4), {elapsed:.1f}s (<10s)")


def test_criterion_03_morse_spectrum():
    t0 = time.monotonic()
    case = MorseCase(lam=1.0, V1=1.0)
    spec = bound_spectrum(case)
    size_ok = len(spec.levels) == 2
    values_ok = (spec.energies == pytest.approx([-1.125, -0.125], rel=1e-12))
    oracle = fd_oracle(case, n_levels=2)
    worst = float(np.max(np.abs(oracle - np.sort(spec.energies))
                         / np.abs(spec.energies[::-1])))
    elapsed = time.monotonic() - t0
    ok = size_ok and values_ok and worst <= 1e-3 and elapsed < 10.0
    _report(3, ok, f"morse: N=1, E=(-1.125, -0.125), oracle err {worst:.2e} "
                   f"(<=1e-3), {elapsed:.1f}s (<10s)")


def test_criterion_04_jacobi_case_spectra():
    worst = {}
    pt = PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)
    formula = np.sort([bound_energy(pt, m) for m in range(3)])
    oracle = fd_oracle(pt, n_levels=3)
    worst["poschl_teller"] = float(np.max(np.abs(oracle - formula) / np.abs(formula)))
    ek = EckartCase(lam=1.0, A=2.0, B=-20.0)
    formula = np.sort([bound_energy(ek, m) for m in range(3)])
    oracle = fd_oracle(ek, n_levels=3)
    worst["eckart"] = float(np.max(np.abs(oracle - formula) / np.abs(formula)))
    branch_err = 0.0
    for case in (ScarfCase(A=2.0, B=0.5, lam=1.0),
                 ScarfCase(A=0.5, B=2.0, lam=1.0)):
        # both closed-form branches for m <= 5
        for m in range(6):
            e = bound_energy(case, m)
            if case.A > case.B:
                ref = 0.5 * (m + case.A / case.lam) ** 2 * case.lam ** 2
            else:
                ref = 0.5 * (m + 0.5 + case.B / case.lam) ** 2 * case.lam ** 2
            branch_err = max(branch_err, abs(e - ref))
        oracle = fd_oracle(case, n_levels=3)
        formula = np.sort([bound_energy(case, m) for m in range(3)])
        worst[f"scarf_{case.A}>{case.B}"] = float(
            np.max(np.abs(oracle - formula) / formula))
    ok = all(v <= 1e-3 for v in worst.values()) and branch_err == 0.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(4, ok, f"hyperbolic/trigonometric spectra vs oracle (<=1e-3): "
                   f"{detail}; branch formulas exact")


def test_criterion_05_phase_shifts():
    reg = phase_shift(CoulombCase(Z=1.0, ell=0), 0.5)
    reg_ok = abs(reg - 0.30164) <= 1e-4
    smooth_ok = True
    for case in (MorseCase(lam=1.0, V1=1.0),
                 PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)):
        es = np.linspace(0.05, 6.0, 50)
        ds = np.array([phase_shift(case, float(e)) for e in es])
        if not np.all(np.isfinite(ds)) or not np.all(np.isreal(ds)):
            smooth_ok = False
        if np.max(np.abs(np.diff(np.unwrap(ds)))) > 0.5:
            smooth_ok = False
    ok = reg_ok and smooth_ok
    _report(5, ok, f"phase shifts: coulomb regression {reg:.5f} (~0.30164), "
                   f"morse/poschl-teller real+finite+continuous on 50-point grids")


def test_criterion_06_polynomial_oracle_equivalence():
    t0 = time.monotonic()
    checks = oracle_equivalence_suite(n_draws=100, n_max=10)
    elapsed = time.monotonic() - t0
    core = [c for c in checks if c.name.startswith("oracle_equivalence")]
    ok = all(c.passed for c in core) and elapsed < 30.0
    worst = max(c.value for c in core)
    _report(6, ok, f"7 closed-form families, recursion vs hypergeometric "
                   f"(100 draws, n<=10): worst {worst:.2e} (<=1e-10), "
                   f"{elapsed:.1f}s (<30s)")


def test_criterion_07_weight_orthogonality_suite():
    checks = weight_suite()
    ok = all(c.passed for c in checks)
    worst = {c.name: c.value for c in checks if not c.passed}
    _report(7, ok, "weights: discrete masses sum to 1, discrete orthonormality "
                   f"1e-10, continuous orthonormality 1e-6{'' if ok else worst}")


def test_criterion_08_stream_matches_and_identities():
    checks = stream_match_suite() + identity_suite(n_draws=1000)
    ok = all(c.passed for c in checks)
    names = [c.name for c in checks if not c.passed]
    _report(8, ok, "eight stream matches term-by-term 1e-10 (n<=15), "
                   "match identity < 1e-11 over 1000 draws, swap symmetry"
                   + ("" if ok else f"; failed: {names}"))


def test_criterion_09_ode_residuals():
    xs_lag = np.linspace(0.3, 8.0, 10)
    xs_jac = np.linspace(-0.9, 0.9, 10)
    xs_morse = np.linspace(0.3, 6.0, 10)
    converged = {}
    # geometric (infinite-series) cases: residual at converged truncation
    # plus the factor-10 improvement when the truncation doubles
    doubling = {}
    for name, case, xs in (("coulomb", CoulombCase(Z=1.0, ell=0, lam=0.3), xs_lag),
                           ("oscillator", OscillatorCase(omega=1.0, ell=0, lam=0.4),
                            xs_lag)):
        res = {}
        for T in (20, 40, 120):
            params, sol = bound_series(case, 0, truncation=T)
            res[T] = ode_residual(params, sol, xs)
        converged[name] = res[120]
        doubling[name] = res[20] / res[40]
    # finite (decoupled) cases at full truncation
    for name, case, xs in (("morse", MorseCase(lam=1.0, V1=1.0), xs_morse),
                           ("poschl_teller",
                            PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), xs_jac),
                           ("scarf", ScarfCase(A=2.0, B=0.5, lam=1.0), xs_jac),
                           ("eckart", EckartCase(lam=1.0, A=2.0, B=-20.0), xs_jac)):
        params, sol = bound_series(case, 0, truncation=40)
        converged[name] = ode_residual(params, sol, xs)
    ok = (all(v < 1e-5 for v in converged.values())
          and all(r >= 10.0 for r in doubling.values()))
    detail = ", ".join(f"{k} {v:.1e}" for k, v in converged.items())
    gains = ", ".join(f"{k} x{v:.0f}" for k, v in doubling.items())
    _report(9, ok, f"six bound solutions residual < 1e-5 ({detail}); "
                   f"doubling gains ({gains}) >= 10")


def test_criterion_10_extended_family_degeneration():
    checks = degeneration_suite()
    ok = all(c.passed for c in checks)
    _report(10, ok, f"extended family streams over A_one = 1e9 match orthonormal "
                    f"Jacobi streams to 1e-6 (worst {checks[0].value:.2e})")
