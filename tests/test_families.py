"""The named polynomial families: coefficients, hypergeometric forms and
weights."""

import decimal
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

import triseries
from triseries import families as fam
from triseries import verify
from triseries.errors import (IndexOutOfSpectrum, InvalidFamilyParams,
                              NoClosedForm, PrecisionExhausted,
                              TruncationTooSmall)
from triseries.recurrence import run_recursion
from triseries.verify import (CLOSED_FORM_KINDS, closed_form_hp,
                              degeneration_suite, oracle_equivalence_suite,
                              random_family, weight_suite)


# every parameter has a conjugate in the list, but the multiset is not closed
# under conjugation: three copies of 0.7+0.6j face one 0.7-0.6j
_UNMATCHED_WILSON = fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6),
                               complex(0.7, 0.6), complex(0.7, 0.6))


def test_meixner_pollaczek_first_coefficients():
    nu = 1.3
    theta = 0.9
    f = fam.MeixnerPollaczek(0.5 * (nu + 1.0), theta)
    co = fam.family_coeffs(f, 2)
    assert co.s[0] == pytest.approx(-(nu + 1.0) * math.cos(theta)
                                    / (2.0 * math.sin(theta)), rel=1e-14)
    assert co.t[0] == pytest.approx(math.sqrt(nu + 1.0)
                                    / (2.0 * math.sin(theta)), rel=1e-14)


def test_krawtchouk_diagonal_normalization():
    f = fam.Krawtchouk(1, 0.5)
    co = fam.family_coeffs(f, 1)
    assert co.s[0] == pytest.approx(1.0, rel=1e-14)   # N tau / sqrt(tau(1-tau))


def test_wilson_equal_parameters_finite_coefficients():
    f = fam.Wilson(0.8, 0.8, 0.8, 0.8)
    co = fam.family_coeffs(f, 11)
    assert np.all(np.isfinite(co.s))
    assert np.all(co.t_squared[:10] > 0)


def test_meixner_example_equals_recursion():
    f = fam.Meixner(0.5, 0.25)
    co = fam.family_coeffs(f, 2)
    seq = run_recursion(co, f.spectral_point(0), 1)
    # sqrt((1) tau) * 2F1(-1,0;..) = 1/2
    assert seq[1] == pytest.approx(0.5, rel=1e-13)


def test_krawtchouk_two_term_sum_vanishes():
    # prefactor * 2F1(-1,-1;-2;2) = prefactor * (1 - 1/2 * 2) = 0
    f = fam.Krawtchouk(2, 0.5)
    assert fam.values_by_recursion(f, 1, 1)[1] == pytest.approx(0.0, abs=1e-14)


def test_extended_families_have_no_closed_form_or_weight():
    # the extended Jacobi family is recursion-only: no weight and no
    # hypergeometric form, but its levels and masses come from its matrix
    for a_one in (2.0, -2.0):
        f = fam.ExtendedJacobi(0.3, 0.7, a_one)
        with pytest.raises(NoClosedForm, match="ExtendedJacobi"):
            fam.weight(f)
        assert f.kind not in CLOSED_FORM_KINDS
        n, levels, vecs = f.levels(2)
        assert list(levels) == sorted(levels, reverse=True)
        for k in range(3):
            assert f.mass_point(k) == levels[k]
            assert f.discrete_mass(k) == vecs[0, k] ** 2


def test_extended_jacobi_levels_settle_under_doubling():
    # the top levels of T and 2T terms agree to 1e-9, and the matrix of the
    # settled T reproduces them: eigenvalues, unit vectors with v_0 >= 0
    f = fam.ExtendedJacobi(1.4, 1.5132745950421556, 2.3)
    n, levels, vecs = f.levels(2)
    _, coarse, _ = f.levels(2, n // 2)
    assert np.all(np.abs(levels - coarse) <= 1e-9 * np.maximum(1.0, np.abs(levels)))
    co = fam.family_coeffs(f, n)
    jac = np.diag(co.s) + np.diag(co.t[:-1], 1) + np.diag(co.t[:-1], -1)
    assert np.allclose(jac @ vecs, vecs * levels, atol=1e-9)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
    assert np.all(vecs[0] >= 0.0)
    # the top level at 40, 80 and 160 terms: the JA match replay's chi0
    for terms in (40, 80, 160):
        assert f.levels(0, terms)[1][0] == pytest.approx(-3.597613879324,
                                                         abs=1e-11)
    with pytest.raises(TruncationTooSmall):
        f.levels(5, 5)
    with pytest.raises(IndexOutOfSpectrum):
        f.levels(-1)


def test_dual_hahn_masses_keep_the_stebz_bits():
    # masses_from_recursion goes through recurrence.jacobi_eigenpairs with
    # the same LAPACK call as scipy's eigh_tridiagonal(..., "stebz")
    co = fam.family_coeffs(fam.DualHahn(12, 1.5, 2.5), 13)
    points, vecs = eigh_tridiagonal(co.s, co.t[:12], lapack_driver="stebz")
    got_points, got_masses = fam.masses_from_recursion(co)
    assert got_points.tobytes() == points.tobytes()
    assert got_masses.tobytes() == (vecs[0] ** 2).tobytes()


def test_families_without_a_mass_formula_raise_no_closed_form():
    for f in (fam.MeixnerPollaczek(0.5, 1.0), fam.DualHahn(5, 0.4, 1.2),
              fam.Wilson(0.5, 0.5, 0.5, 0.5), fam.Racah(5, 0.4, 0.9)):
        for formula in (f.mass_point, f.discrete_mass):
            with pytest.raises(NoClosedForm, match=type(f).__name__):
                formula(0)


def test_invalid_family_params():
    with pytest.raises(InvalidFamilyParams):
        fam.MeixnerPollaczek(-0.5, 1.0).validate()
    with pytest.raises(InvalidFamilyParams):
        fam.Meixner(0.5, 1.5).validate()
    with pytest.raises(InvalidFamilyParams):
        fam.DualHahn(5, -2.0, 0.5).validate()
    with pytest.raises(InvalidFamilyParams):
        fam.Wilson(-0.1, 0.5, 0.5, 0.5).validate()
    with pytest.raises(InvalidFamilyParams):
        fam.Wilson(complex(0.5, 0.4), 0.5, 0.5, 0.5).validate()


def _wilson_pairs_by_the_full_count(params):
    # the conjugate-pair count Wilson.validate ran on every record, real or
    # not: as many p as conj(p), to within 1e-12
    ps = [complex(p) for p in params]
    return all(sum(abs(q - p) < 1e-12 for q in ps)
               == sum(abs(q - p.conjugate()) < 1e-12 for q in ps) for p in ps)


_P, _Q = complex(0.8, 0.5), complex(0.3, 2.0)


@pytest.mark.parametrize("params", [
    (0.5, 1.1, 0.8, 1.7), (0.5, 0.5, 0.5, 0.5), (1, 2, 3, 4),
    (complex(0.5, 0.0), 1.1, 0.8, 1.7), (-0.1, 0.5, 0.5, 0.5),   # real
    (_P, _P.conjugate(), 1.1, 1.1), (_P, _P.conjugate(), _Q, _Q.conjugate()),
    (_P, _Q, _Q.conjugate(), _P.conjugate()),                     # exact pairs
    (_P, _P.conjugate() + 3e-13, 1.1, 1.1),
    (_P, complex(0.8, -0.5 - 9e-13), 1.1, 1.1),
    (complex(0.5, 1e-13), 1.1, 0.8, 1.7),                        # within 1e-12
    (_P, _P, 1.1, 1.1), (_P, 1.1, 1.2, 1.3), (_P, _Q.conjugate(), 1.1, 1.1),
    (_P, complex(0.8, -0.5 - 2e-12), 1.1, 1.1),                  # no pairs
])
def test_wilson_validate_equals_the_full_pair_count(params):
    # validate skips the pair count when no parameter has an imaginary part
    expect = (all(complex(p).real > 0 for p in params)
              and _wilson_pairs_by_the_full_count(params))
    try:
        fam.Wilson(*params).validate()
        accepted = True
    except InvalidFamilyParams:
        accepted = False
    assert accepted == expect


def test_meixner_weight_masses_are_geometric():
    f = fam.Meixner(0.5, 0.25)   # nu = 0: masses (3/4)(1/4)^k
    w = fam.weight(f)
    for k in range(6):
        assert w.masses[k] == pytest.approx(0.75 * 0.25 ** k, rel=1e-13)
    assert float(np.sum(w.masses)) == pytest.approx(1.0, abs=1e-10)


def test_krawtchouk_weight_masses_are_binomial():
    w = fam.weight(fam.Krawtchouk(3, 0.5))
    assert np.allclose(w.masses, np.array([1.0, 3.0, 3.0, 1.0]) / 8.0)
    assert float(np.sum(w.masses)) == pytest.approx(1.0, abs=1e-12)


def test_meixner_pollaczek_weight_sech_profile():
    f = fam.MeixnerPollaczek(0.5, math.pi / 2)   # nu = 0
    w = fam.weight(f)
    for z in (0.0, 0.4, -1.1):
        assert w.density(z) == pytest.approx(1.0 / math.cosh(math.pi * z),
                                             rel=1e-12)
    total = quad(w.density, -30, 30, epsabs=1e-11)[0]
    assert total == pytest.approx(1.0, abs=1e-7)


def test_racah_weight_is_degenerate():
    with pytest.raises(InvalidFamilyParams):
        fam.weight(fam.Racah(5, 0.4, 0.9))


def test_dual_hahn_mass_labels_on_negative_branch():
    # tau, sigma < -N: the points (k + (tau+sigma+1)/2)^2 fall as k grows,
    # so each label must name the index whose point carries that mass
    f = fam.DualHahn(5, -7.0, -8.0)
    w = fam.weight(f)
    for pt, k, m in zip(w.mass_points, w.mass_indices, w.masses):
        assert pt == pytest.approx(f.spectral_point(int(k)), rel=1e-12)
        vals = fam.values_by_recursion(f, int(k), f.N)
        assert m == pytest.approx(1.0 / float(np.sum(vals ** 2)), rel=1e-10)


@pytest.mark.parametrize("f", [
    fam.Meixner(0.5, 0.25), fam.Krawtchouk(9, 0.35), fam.DualHahn(9, 0.4, 1.2),
    fam.ContinuousDualHahn(-1.6, 0.9, 0.9),
    fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8),
], ids=["meixner", "krawtchouk", "dual_hahn", "mixed_cdh", "mixed_wilson"])
def test_weight_masses_are_float_arrays_with_integer_labels(f):
    w = fam.weight(f)
    assert w.masses.dtype == w.mass_points.dtype == np.float64
    assert np.issubdtype(w.mass_indices.dtype, np.integer)
    assert w.masses.shape == w.mass_points.shape == w.mass_indices.shape


@pytest.mark.parametrize("theta, z", [(3.0, 300.0), (0.5, -300.0)])
def test_meixner_pollaczek_density_far_tails(theta, z):
    # (2 sin theta)^{2 mu} e^{(2 theta - pi) z} |Gamma(mu + iz)|^2
    # / (2 pi Gamma(2 mu)): the exponential and the gamma factor alone
    # over- and underflow here
    import mpmath as mp
    mu = 0.75
    with mp.workdps(40):
        ref = ((2 * mp.sin(theta)) ** (2 * mu) * mp.exp((2 * theta - mp.pi) * z)
               * abs(mp.gamma(mu + 1j * z)) ** 2 / (2 * mp.pi * mp.gamma(2 * mu)))
    d = fam.weight(fam.MeixnerPollaczek(mu, theta)).density(z)
    assert d > 0.0
    assert d == pytest.approx(float(ref), rel=1e-10)


def test_wilson_reality_with_conjugate_pair():
    f = fam.Wilson(complex(0.7, 0.9), complex(0.7, -0.9), 1.1, 1.1)
    co = fam.family_coeffs(f, 11)
    assert np.all(np.isfinite(co.s))
    assert np.all(np.isfinite(co.t))
    v = fam.values_by_recursion(f, 1.3, 7)
    assert np.all(np.isfinite(v))


@pytest.mark.parametrize("f", [
    fam.Wilson(0.25, 0.25, 0.25, 0.25),
    fam.Wilson(0.5, 0.5, 0.5, 0.5),
    fam.Wilson(complex(0.6, 0.7), complex(0.6, -0.7), 0.4, 0.4),
], ids=["sum_one", "sum_two", "sum_two_conjugate_pair"])
def test_wilson_streams_at_parameter_sum_one_and_two(f):
    # A_0 and C_0 are 0/0 as printed when a+b+c+d is 1 or 2; the cancelled
    # forms A_0 = (a+b)(a+c)(a+d)/s and C_0 = 0 keep the streams finite
    for w in (0.3, 1.0, 2.7):
        vals = fam.values_by_recursion(f, w, 10)
        ref = closed_form_hp(f, w, 10)
        assert np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def _wilson_streams_per_n(f, n_terms):
    """s_n, t_n, t_n^2 of a Wilson record from A_n and C_n, one n at a time
    in 40-digit arithmetic, with the size |A_n| + |C_n| + |a^2| of s_n's
    terms."""
    import mpmath as mp
    with mp.workdps(40):
        a, b, c, d = (mp.mpc(complex(p)) for p in (f.a, f.b, f.c, f.d))
        s = a + b + c + d

        def A(n):
            if n == 0:
                return (a + b) * (a + c) * (a + d) / s
            return ((n + a + b) * (n + a + c) * (n + a + d) * (n + s - 1)
                    / ((2 * n + s) * (2 * n + s - 1)))

        def C(n):
            if n == 0:
                return mp.mpc(0)
            return (n * (n + b + c - 1) * (n + b + d - 1) * (n + c + d - 1)
                    / ((2 * n + s - 1) * (2 * n + s - 2)))

        rows = []
        for n in range(n_terms):
            t2 = mp.re(A(n) * C(n + 1))
            branch = mp.re((n + a + c) * (n + b + c))
            t = mp.sqrt(abs(t2)) * (1 if branch < 0 else -1)
            rows.append([float(x) for x in (
                mp.re(A(n) + C(n) - a * a), t, t2,
                abs(A(n)) + abs(C(n)) + abs(a * a))])
    return np.array(rows).T


def _racah_streams_per_n(f, n_terms):
    """s_n, |t_n|, t_n^2 of a Racah record from A_n and C_n in 40-digit
    arithmetic, with the size N^2/4 + |A_n| + |C_n| of s_n's terms."""
    import mpmath as mp
    with mp.workdps(40):
        g, sg, N = mp.mpf(f.gamma), mp.mpf(f.sigma), f.N

        def A(n):
            if n == 0:
                return -N * (g + 1) * (sg + 1) / (g + sg + 2)
            return ((n - N) * (n + g + 1) * (n + sg + 1) * (n + g + sg + 1)
                    / ((2 * n + g + sg + 1) * (2 * n + g + sg + 2)))

        def C(n):
            if n == 0:
                return mp.mpf(0)
            return (n * (n + g) * (n + sg) * (n + g + sg + N + 1)
                    / ((2 * n + g + sg) * (2 * n + g + sg + 1)))

        q = mp.mpf(N) ** 2 / 4
        rows = [[float(x) for x in (
            q - A(n) - C(n), mp.sqrt(abs(A(n) * C(n + 1))), A(n) * C(n + 1),
            q + abs(A(n)) + abs(C(n)))] for n in range(n_terms)]
    return np.array(rows).T


@pytest.mark.parametrize("f, per_n", [
    (fam.Wilson(0.25, 0.25, 0.25, 0.25), _wilson_streams_per_n),
    (fam.Wilson(0.5, 0.5, 0.5, 0.5), _wilson_streams_per_n),
    (fam.Wilson(0.5, 0.9, 1.3, 0.7), _wilson_streams_per_n),
    (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
     _wilson_streams_per_n),
    (fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8), _wilson_streams_per_n),
    (fam.Racah(200, -0.5, -0.5 + 1e-9), _racah_streams_per_n),
], ids=["wilson_sum_one", "wilson_sum_two", "wilson", "wilson_pair",
        "mixed_wilson", "racah_gamma_sigma_near_minus_one"])
def test_streams_equal_per_n_formulas(f, per_n):
    # one array pass over n gives each n's A_n/C_n streams: s_n to 1e-15 of
    # the terms it sums, t_n to 1e-15 relative and t_n^2, a product of two
    # such values, to 2e-15; every n_terms gives the same leading entries
    s_ref, t_ref, t2_ref, terms = per_n(f, 201)
    full = f.streams(201)
    assert np.all(np.abs(full.s - s_ref) <= 1e-15 * terms)
    assert np.all(np.abs(full.t - t_ref) <= 1e-15 * np.abs(t_ref))
    assert np.all(np.abs(full.t_squared - t2_ref) <= 2e-15 * np.abs(t2_ref))
    for n_terms in range(1, 201):
        co = f.streams(n_terms)
        assert len(co) == n_terms
        for got, whole in ((co.s, full.s), (co.t, full.t),
                           (co.t_squared, full.t_squared)):
            assert np.array_equal(got, whole[:n_terms])


def test_unpaired_complex_wilson_streams_name_the_first_residue():
    f = fam.Wilson(complex(1.0, 0.5), complex(1.0, -0.4), 1.0, 1.0)
    for n_terms in (1, 3, 201):
        with pytest.raises(ArithmeticError, match=r"Wilson s_0$"):
            f.streams(n_terms)


@pytest.mark.parametrize("f", [fam.ContinuousDualHahn(0.8, 0.7, 0.7),
                               fam.Wilson(0.5, 0.9, 1.3, 0.7)],
                         ids=["continuous_dual_hahn", "wilson"])
def test_gamma_ratio_density_is_zero_at_zero(f):
    # prod_p |Gamma(p+iz)|^2 / |Gamma(2iz)|^2 / (2 pi norm) -> 0 as z -> 0,
    # where Gamma(2iz) has its pole; the norm is Gamma(tau+a) Gamma(tau+b)
    # Gamma(a+b) (CDH) or prod_{p<q} Gamma(p+q) / Gamma(a+b+c+d) (Wilson)
    import mpmath as mp
    density = fam.weight(f).density
    assert density(0.0) == 0.0
    with mp.workdps(40):
        if f.kind == "continuous_dual_hahn":
            ps = [mp.mpf(p) for p in (f.tau, f.a, f.b)]
            norm = mp.fprod(mp.gamma(p + q) for p, q in
                            ((ps[0], ps[1]), (ps[0], ps[2]), (ps[1], ps[2])))
        else:
            ps = [mp.mpf(p) for p in (f.a, f.b, f.c, f.d)]
            norm = (mp.fprod(mp.gamma(ps[i] + ps[j])
                             for i in range(4) for j in range(i + 1, 4))
                    / mp.gamma(sum(ps)))
        z = mp.mpf("1e-8")
        ref = (mp.fprod(abs(mp.gamma(p + 1j * z)) ** 2 for p in ps)
               / abs(mp.gamma(2j * z)) ** 2 / (2 * mp.pi * norm))
    assert density(1e-8) == pytest.approx(float(ref), rel=1e-12)
    assert density(1e-8) < 1e-14


def test_cdh_mixed_discrete_masses_match_dual_orthogonality():
    f = fam.ContinuousDualHahn(-1.6, 0.9, 0.9)
    co = fam.family_coeffs(f, 6001)
    for k in range(f.n_discrete()):
        printed = f.discrete_mass(k)
        oracle = fam.isolated_mass_from_recursion(co, f.mass_point(k))
        assert printed == pytest.approx(oracle, rel=2e-4)


def _mp_mixed_masses(f, k):
    """The printed mixed-family mass (gamma lead times Pochhammer body) at
    40 digits, for a CDH (tau, a, a) or a mixed Wilson (a, b, c, c)."""
    import mpmath as mp
    with mp.workdps(40):
        if isinstance(f, fam.ContinuousDualHahn):
            t, a = mp.mpf(f.tau), mp.mpf(f.a)
            lead = -2 * mp.gamma(a - t) ** 2 / (mp.gamma(2 * a) * mp.gamma(1 - 2 * t))
            body = ((-1) ** k * (k + t) * mp.rf(a + t, k) ** 2 * mp.rf(2 * t, k)
                    / (mp.rf(1 - a + t, k) ** 2 * mp.factorial(k)))
        else:
            a, b, c = mp.mpf(f.a), mp.mpf(f.b), mp.mpf(f.c)
            lead = (-2 * mp.gamma(a + b + 2 * c) * mp.gamma(b - a) * mp.gamma(c - a) ** 2
                    / (mp.gamma(1 - 2 * a) * mp.gamma(2 * c) * mp.gamma(b + c) ** 2))
            body = ((k + a) * mp.rf(2 * a, k) * mp.rf(a + b, k) * mp.rf(a + c, k) ** 2
                    / (mp.rf(1 + a - b, k) * mp.rf(a - c + 1, k) ** 2
                       * mp.factorial(k)))
        return float(lead * body)


def test_mixed_discrete_masses_match_mpmath_in_log_space():
    # seeded draws up to Gamma arguments ~ 200, where the gammas themselves
    # overflow double precision but the masses do not
    rng = np.random.default_rng(12)
    n = 0
    for _ in range(60):
        sg, q, gm = rng.uniform(0.5, 30.0), rng.uniform(0.3, 40.0), rng.uniform(0.05, 20.0)
        tau, a = -rng.uniform(0.1, 40.0), rng.uniform(0.05, 30.0)
        for f in (fam.MixedWilson(sg - q, sg + q, gm, gm),
                  fam.ContinuousDualHahn(tau, a, a)):
            for k in range(min(f.n_discrete(), 4)):
                ref = _mp_mixed_masses(f, k)
                if ref != 0.0:
                    assert f.discrete_mass(k) == pytest.approx(ref, rel=1e-12)
                    n += 1
    assert n >= 100
    with pytest.raises(InvalidFamilyParams):
        fam.ContinuousDualHahn(-1.6, 0.9, 0.9).discrete_mass(2)


def test_meixner_krawtchouk_masses_match_mpmath_in_log_space():
    # Meixner (0.5, 0.9) needs ~260 masses, and k! and (2 mu)_k overflow on
    # their own from k = 171; so does binomial(2000, 1000)
    import mpmath as mp
    with mp.workdps(40):
        for mu, tau in ((0.5, 0.9), (2.3, 0.4)):
            w = fam.weight(fam.Meixner(mu, tau))
            mu, tau = mp.mpf(mu), mp.mpf(tau)
            for k, m in enumerate(w.masses):
                ref = ((1 - tau) ** (2 * mu) * mp.rf(2 * mu, k) * tau ** k
                       / mp.factorial(k))
                assert m == pytest.approx(float(ref), rel=1e-12)
        for N, tau, ks in ((12, 0.3, range(13)), (300, 0.3, range(0, 301, 7)),
                           (2000, 0.5, (1000,))):
            f = fam.Krawtchouk(N, tau)
            tau = mp.mpf(tau)
            for k in ks:
                ref = float(mp.binomial(N, k) * tau ** k * (1 - tau) ** (N - k))
                assert f.discrete_mass(k) == pytest.approx(ref, rel=1e-12)


def test_mass_index_outside_support_raises():
    for f, k in ((fam.Krawtchouk(5, 0.3), 6), (fam.Krawtchouk(5, 0.3), -1),
                 (fam.Meixner(1.0, 0.5), -1)):
        with pytest.raises(InvalidFamilyParams):
            f.discrete_mass(k)


def test_wilson_mixed_masses_match_dual_orthogonality():
    sg, gm, q = 1.0, 0.8, 2.3
    f = fam.MixedWilson(sg - q, sg + q, gm, gm)
    w = fam.weight(f)
    co = fam.family_coeffs(f, 6001)
    for k, pt in enumerate(w.mass_points):
        oracle = fam.isolated_mass_from_recursion(co, float(pt))
        assert w.masses[k] == pytest.approx(oracle, rel=2e-4)


def test_oracle_equivalence_suite_passes():
    for check in oracle_equivalence_suite(n_draws=25):
        assert check.passed, f"{check.name}: {check.value} > {check.tolerance}"


def test_discrete_gram_sums_point_by_point_in_mass_order():
    # one recursion over all 161 points, summed in the order of a running sum
    f = fam.Meixner(0.5, 0.25)
    points = [f.mass_point(k) for k in range(161)]
    masses = [f.discrete_mass(k) for k in range(161)]
    co = fam.family_coeffs(f, 8)
    g = np.zeros((7, 7))
    for pt, m in zip(points, masses):
        vals = run_recursion(co, pt, 6)
        g += m * np.outer(vals, vals)
    assert np.array_equal(verify._discrete_gram(f, 6, points, masses), g)


def test_weight_suite_passes():
    for check in weight_suite():
        assert check.passed, f"{check.name}: {check.value} > {check.tolerance}"


def test_weight_suite_quadrature_values_are_round_off():
    # the checks of the continuous and mixed weights, the integrated ones
    quadrature = [c.value for c in weight_suite() if c.name.startswith(
        ("meixner_pollaczek", "continuous_dual_hahn", "wilson", "cdh_mixed"))]
    assert len(quadrature) == 8
    assert max(quadrature) <= 1e-12


def test_gauss_legendre_panels_cover_the_interval():
    # two whole panels and a half one; 16 nodes a panel integrate a
    # degree-31 polynomial exactly
    z, h = verify.gauss_legendre(lambda v: v ** 31, -1.0, 1.5)
    assert z.shape == h.shape == (48,)
    assert np.all((z > -1.0) & (z < 1.5))
    assert h.sum() == pytest.approx((1.5 ** 32 - 1.0) / 32, rel=1e-13)


def test_gauss_integrals_equal_adaptive_quadrature():
    # each integral of the weight suite, by the 16-point Gauss-Legendre rule
    # and by scipy's adaptive quad/quad_vec, to 1e-12 absolute
    from scipy.integrate import quad_vec
    cases = [(fam.MeixnerPollaczek(0.75, 1.1), (-30.0, 30.0), False),
             (fam.ContinuousDualHahn(0.8, 0.7, 0.7), (0.0, 40.0), True),
             (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
              (0.0, 40.0), True)]
    for f, (lo, hi), square in cases:
        w = fam.weight(f)
        co = fam.family_coeffs(f, 8)
        z, dw = verify.gauss_legendre(w.density, lo, hi)
        ref = quad(w.density, lo, hi, epsabs=1e-10, limit=300)[0]
        assert abs(dw.sum() - ref) <= 1e-12, f
        v = run_recursion(co, z * z if square else z, 6)

        def integrand(x):
            p = run_recursion(co, x * x if square else x, 6)
            return w.density(x) * np.outer(p, p)
        ref = quad_vec(integrand, lo, hi, epsabs=1e-9, limit=300)[0]
        assert np.max(np.abs((v * dw[:, None]).T @ v - ref)) <= 1e-12, f
    for f, hi, limit in ((fam.ContinuousDualHahn(-1.6, 0.9, 0.9), 40.0, 300),
                         (fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8), 60.0, 400)):
        w = fam.weight(f)
        ref = quad(w.density, 0.0, hi, epsabs=1e-10, limit=limit)[0]
        dw = verify.gauss_legendre(w.density, 0.0, hi)[1]
        assert abs(dw.sum() - ref) <= 1e-12, f


def test_degeneration_suite_passes():
    for check in degeneration_suite():
        assert check.passed, f"{check.name}: {check.value} > {check.tolerance}"


def test_wilson_closed_form_precision_on_hard_draws():
    # draws whose Wilson 4F3 cancels heavily: a double-precision sum of it
    # missed 5e-8 (601, 3588) or kept an imaginary residue (1350); the
    # recursion against the 40-digit form holds its tolerance on all three
    for seed in (601, 1350, 3588):
        for check in oracle_equivalence_suite(n_draws=1, seed=seed):
            assert check.passed, (seed, check)


def test_dual_hahn_golub_welsch_masses_n40():
    # masses from the eigenvectors of the Jacobi matrix, checked against the
    # mpmath closed form: sum_k m_k P_i(x_k) P_j(x_k) = delta_ij.  The masses
    # span 22 decades here, so each must be right to its own relative size.
    f = fam.DualHahn(40, 0.4, 1.2)
    w = fam.weight(f)
    n = f.N + 1
    assert np.allclose(w.mass_points, [f.spectral_point(k) for k in range(n)],
                       rtol=1e-12)
    p = np.array([closed_form_hp(f, k, f.N) for k in w.mass_indices])
    gram = p.T @ (w.masses[:, None] * p)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    assert abs(float(np.sum(w.masses)) - 1.0) < 1e-14


def _mp_hyper_reference(f, n, arg):
    """P_n from the textbook hypergeometric form: mpmath's own ``hyper`` and
    ``rf`` at 60 digits, with no term-ratio tables."""
    import mpmath as mp
    with mp.workdps(60):
        fact = mp.factorial(n)
        if isinstance(f, fam.MeixnerPollaczek):
            mu, th, z = mp.mpf(f.mu), mp.mpf(f.theta), mp.mpf(float(arg))
            val = (mp.sqrt(mp.rf(2 * mu, n) / fact) * mp.exp(1j * n * th)
                   * mp.hyper([-n, mu + 1j * z], [2 * mu], 1 - mp.exp(-2j * th)))
        elif isinstance(f, fam.Meixner):
            mu, tau, k = mp.mpf(f.mu), mp.mpf(f.tau), int(arg)
            val = (mp.sqrt(mp.rf(2 * mu, n) / fact) * tau ** (mp.mpf(n) / 2)
                   * mp.hyper([-n, -k], [2 * mu], 1 - 1 / tau))
        elif isinstance(f, fam.Krawtchouk):
            tau, k, N = mp.mpf(f.tau), int(arg), f.N
            val = (mp.sqrt(mp.binomial(N, n)) * (tau / (1 - tau)) ** (mp.mpf(n) / 2)
                   * mp.hyper([-n, -k], [-N], 1 / tau))
        elif isinstance(f, fam.ContinuousDualHahn):
            tau, a, b = mp.mpf(f.tau), mp.mpf(f.a), mp.mpf(f.b)
            iz = mp.sqrt(-mp.mpf(float(arg)))
            val = (mp.sqrt(mp.rf(tau + a, n) * mp.rf(tau + b, n)
                           / (fact * mp.rf(a + b, n)))
                   * mp.hyper([-n, tau + iz, tau - iz], [tau + a, tau + b], 1))
        elif isinstance(f, fam.DualHahn):
            tau, sg, k, N = mp.mpf(f.tau), mp.mpf(f.sigma), int(arg), f.N
            val = (mp.sqrt(mp.rf(tau + 1, n) * mp.rf(N - n + 1, n)
                           / (fact * mp.rf(N + sg - n + 1, n)))
                   * mp.hyper([-n, -k, k + tau + sg + 1], [tau + 1, -N], 1))
        elif isinstance(f, fam.Wilson):
            a, b, c, d = (mp.mpc(complex(p)) for p in (f.a, f.b, f.c, f.d))
            iz = mp.sqrt(-mp.mpf(float(arg)))
            s = a + b + c + d
            lead = mp.rf(a + b, n) * mp.rf(a + c, n) * mp.rf(a + d, n)
            norm = ((2 * n + s - 1) / (n + s - 1) * mp.rf(s, n)
                    / (lead * mp.rf(b + c, n) * mp.rf(b + d, n) * mp.rf(c + d, n)
                       * fact))
            val = (lead * mp.sqrt(norm)
                   * mp.hyper([-n, n + s - 1, a + iz, a - iz],
                              [a + b, a + c, a + d], 1))
        else:
            g, sg, k, N = mp.mpf(f.gamma), mp.mpf(f.sigma), int(arg), f.N
            gs = g + sg
            val = (mp.sqrt((2 * n + gs + 1) / (n + gs + 1) * mp.rf(N - n + 1, n)
                           * mp.rf(gs + 2, n) / (mp.rf(gs + N + 2, n) * fact))
                   * mp.hyper([-n, n + gs + 1, -k, k - N], [g + 1, sg + 1, -N], 1))
        return float(mp.re(val))


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_high_precision_reference_matches_mpmath_hyper(kind):
    # one draw per family: every degree <= 10 of the all-degree reference
    # against mpmath's generic hypergeometric summation at 60 digits, and a
    # shorter call is a prefix of a longer one
    f, args = random_family(kind, np.random.default_rng(20240820))
    top = min(10, getattr(f, "N", 10))
    for arg in args:
        ref = closed_form_hp(f, arg, top)
        assert ref.shape == (top + 1,)
        for n in range(top + 1):
            assert ref[n] == pytest.approx(_mp_hyper_reference(f, n, arg),
                                           rel=1e-13, abs=1e-13)
        short = min(6, top)
        assert np.array_equal(closed_form_hp(f, arg, short), ref[:short + 1])


@pytest.mark.parametrize("f, arg, n_max", [
    (fam.ContinuousDualHahn(-1.0, 0.5, 1.5), 1.0, 3),   # (tau+a)_n (tau+b)_n < 0
    (fam.Krawtchouk(3, 0.4), 2, 4),                      # degree past N
    (fam.Krawtchouk(3, 0.4), 2, 5),
    (fam.DualHahn(3, 0.4, 0.2), 1, 4),
    (fam.Meixner(0.5, 1.5), 2, 3),                       # tau outside (0, 1)
])
def test_high_precision_reference_rejects_like_closed_form(f, arg, n_max):
    with pytest.raises(InvalidFamilyParams):
        closed_form_hp(f, arg, n_max)


def test_high_precision_reference_runs_without_mpmath():
    # the runtime needs no mpmath: the oracle suite passes with it blocked
    src = Path(triseries.__file__).resolve().parents[1]
    script = ("import sys\n"
              "sys.modules['mpmath'] = None\n"
              "from triseries.verify import oracle_equivalence_suite\n"
              "checks = oracle_equivalence_suite(n_draws=1)\n"
              "assert len(checks) == 7, checks\n"
              "assert all(c.passed for c in checks), checks\n"
              "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def test_high_precision_reference_agrees_with_twice_the_digits():
    # criterion 6's draws (the oracle suite's default seed, 100 per family,
    # degrees <= 10): 40 and 80 digits agree far inside its 1e-10
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for kind in CLOSED_FORM_KINDS:
        for _ in range(100):
            f, args = random_family(kind, rng)
            top = min(10, getattr(f, "N", 10))
            for arg in args:
                ref = closed_form_hp(f, arg, top, dps=80)
                diff = np.abs(closed_form_hp(f, arg, top) - ref)
                worst = max(worst, float(np.max(diff / np.maximum(1.0, np.abs(ref)))))
    assert worst <= 1e-13


def _decimal_state():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, dict(ctx.traps)


@pytest.mark.parametrize("f, arg, n_max", [
    (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2), 1.3, 10),
    (fam.MeixnerPollaczek(0.8, 2.1), -0.7, 10),
    (fam.Krawtchouk(3, 0.4), 2, 4),                      # raises: past N
    (fam.ContinuousDualHahn(-1.0, 0.5, 1.5), 1.0, 3),   # raises inside
], ids=["wilson", "meixner_pollaczek", "krawtchouk_past_n", "cdh_negative"])
def test_high_precision_reference_keeps_the_callers_decimal_context(f, arg, n_max):
    # the reference runs in its own context: a caller's coarse, untrapped
    # context neither changes its values nor is changed by it, returning or
    # raising
    try:
        expect = closed_form_hp(f, arg, n_max)
    except InvalidFamilyParams:
        expect = None
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.InvalidOperation] = False
        before = _decimal_state()
        if expect is None:
            with pytest.raises(InvalidFamilyParams):
                closed_form_hp(f, arg, n_max)
        else:
            assert np.array_equal(closed_form_hp(f, arg, n_max), expect)
        assert _decimal_state() == before
        assert decimal.getcontext() is ctx


@pytest.mark.parametrize("f, valid, refusal", [
    # conjugate only to within validate()'s 1e-12: a + b + c + d is not real
    (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6 + 1e-13), 1.2, 1.2), True,
     "exactly conjugate"),
    # every parameter has a conjugate partner, but the pairs do not match up,
    # so validate() refuses the record before the reference sees it
    (_UNMATCHED_WILSON, False, "must pair up"),
], ids=["near_conjugate", "unmatched_pairs"])
def test_high_precision_reference_needs_exact_wilson_pairs(f, valid, refusal):
    if valid:
        f.validate()
    else:
        with pytest.raises(InvalidFamilyParams, match=refusal):
            f.validate()
    with pytest.raises(InvalidFamilyParams, match=refusal):
        closed_form_hp(f, 1.0, 5)


def test_twisted_values_validate_the_record():
    with pytest.raises(InvalidFamilyParams, match="gamma, sigma > -1"):
        fam.values_by_recursion(fam.Racah(3, -1.5, 0.2), 1, 3)
    with pytest.raises(InvalidFamilyParams, match="gamma, sigma > -1"):
        fam.values_by_recursion(fam.Racah(3, 0.2, -1.5), [0, 1], 3)


def test_wilson_validate_needs_a_conjugation_closed_multiset():
    # a+b+c+d is not real there: the streams ended in a raw ArithmeticError
    with pytest.raises(InvalidFamilyParams, match="must pair up"):
        _UNMATCHED_WILSON.validate()
    with pytest.raises(InvalidFamilyParams, match="must pair up"):
        fam.family_coeffs(_UNMATCHED_WILSON, 5)
    with pytest.raises(InvalidFamilyParams, match="must pair up"):
        fam.values_by_recursion(_UNMATCHED_WILSON, 1.0, 4)
    with pytest.raises(InvalidFamilyParams, match="must pair up"):
        fam.Wilson(complex(0.7, 0.6), complex(0.7, 0.6), 1.2, 1.2).validate()
    # closed multisets pass: a pair in any position, two pairs, a pair that
    # is conjugate to within 1e-12, and repeated pairs
    for ps in [(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
               (1.2, complex(0.7, -0.6), 0.9, complex(0.7, 0.6)),
               (complex(0.7, 0.6), complex(0.5, 0.2), complex(0.5, -0.2),
                complex(0.7, -0.6)),
               (complex(0.7, 0.6), complex(0.7, -0.6 + 1e-13), 1.2, 1.2),
               (complex(0.7, 0.6), complex(0.7, -0.6), complex(0.7, -0.6),
                complex(0.7, 0.6))]:
        fam.Wilson(*ps).validate()
    f = fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2)
    assert np.all(np.isfinite(fam.family_coeffs(f, 6).s))
    assert np.all(np.isfinite(fam.values_by_recursion(f, 1.0, 4)))


@pytest.mark.parametrize("kwargs", [{"n_draws": 0}, {"n_draws": -1},
                                    {"n_max": -1}])
def test_oracle_suite_refuses_to_check_nothing(kwargs):
    with pytest.raises(ValueError):
        oracle_equivalence_suite(**kwargs)


def _mp_gamma_ratio_density(params, z):
    """prod |Gamma(p + iz)|^2 / |Gamma(2iz)|^2 / (2 pi h0) in mpmath, with
    h0 = prod_{i<j} Gamma(p_i + p_j), divided by Gamma(sum p) for four p."""
    import mpmath as mp
    with mp.workdps(40):
        ps = [mp.mpc(complex(p)) for p in params]
        z = mp.mpf(z)
        num = mp.fprod(abs(mp.gamma(p + 1j * z)) ** 2 for p in ps)
        h0 = mp.fprod(mp.gamma(ps[i] + ps[j]) for i in range(len(ps))
                      for j in range(i + 1, len(ps)))
        if len(ps) == 4:
            h0 /= mp.gamma(sum(ps))
        return float(num / abs(mp.gamma(2j * z)) ** 2 / (2 * mp.pi * mp.re(h0)))


@pytest.mark.parametrize("f, rel", [
    (fam.ContinuousDualHahn(0.8, 0.7, 0.7), 1e-12),
    (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2), 1e-12),
    (fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8), 1e-12),
    (fam.ContinuousDualHahn(-3.3, 2.0, 2.0), 1e-12),
    (fam.Wilson(complex(50, 3), complex(50, -3), complex(40, 7), complex(40, -7)),
     1e-12),
    # h0 < 0 (Gamma(a+b) < 0): the density keeps that sign
    (fam.MixedWilson(0.5, -0.6, 0.3, 0.3), 1e-12),
    # the norms' gammas overflow on their own; the log-gamma terms reach
    # ~5e3, so their rounding alone is ~1e-12 of the density
    (fam.ContinuousDualHahn(-1.5, 200.0, 200.0), 5e-12),
    (fam.Wilson(300.0, 300.0, 2.0, 2.0), 5e-12),
    (fam.MixedWilson(-1.5, 300.0, 2.0, 2.0), 5e-12),
], ids=["continuous_dual_hahn", "wilson", "mixed_wilson", "cdh_mixed",
        "wilson_two_pairs", "mixed_wilson_negative_norm", "cdh_mixed_200",
        "wilson_300", "mixed_wilson_300"])
def test_weight_density_large_argument(f, rel):
    # norm and density are one exp of a log-gamma sum, so neither large z nor
    # large parameters over- or underflow the factors
    w = fam.weight(f)
    params = [getattr(f, name) for name in ("tau", "a", "b", "c", "d")
              if hasattr(f, name)]
    for z in (0.3, 0.5, 1.3, 10.0, 50.0, 100.0):
        assert w.density(z) == pytest.approx(_mp_gamma_ratio_density(params, z),
                                             rel=rel)
    assert w.density(200.0) * w.density(1.3) >= 0.0
    for k, m in enumerate(w.masses if w.kind == "mixed" else ()):
        assert m == pytest.approx(_mp_mixed_masses(f, k), rel=1e-12)


# ---------------------------------------------------------------------------
# array arguments: one reference call and one stream build per draw
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, args, n_max", [
    (fam.MeixnerPollaczek(0.8, 2.1), [-0.7, 0.0, 2.4], 10),
    (fam.Meixner(1.3, 0.4), [0, 3, 11], 10),
    (fam.Krawtchouk(7, 0.35), [0, 4, 7], 7),
    (fam.ContinuousDualHahn(0.6, 1.1, 0.4), [0.2, 3.0, 8.5], 10),
    (fam.DualHahn(9, 0.4, 1.2), [0, 5, 9], 9),
    (fam.Wilson(0.5, 1.1, 0.8, 1.7), [0.3, 1.3, 3.9], 10),
    (fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
     [0.3, 1.3, 3.9], 10),
    (fam.Racah(8, 0.6, 1.4), [0, 3, 8], 8),           # the twisted path
    (fam.Meixner(0.5, 0.25), range(161), 6),          # the weight suite's points
], ids=["meixner_pollaczek", "meixner", "krawtchouk", "continuous_dual_hahn",
        "dual_hahn", "wilson", "wilson_complex", "racah", "meixner_161"])
def test_array_arguments_equal_the_scalar_calls_row_by_row(f, args, n_max):
    args = np.asarray(args)
    ref = closed_form_hp(f, args, n_max)
    vals = fam.values_by_recursion(f, args, n_max)
    assert ref.shape == vals.shape == (len(args), n_max + 1)
    for i, arg in enumerate(args):
        assert np.array_equal(ref[i], closed_form_hp(f, arg, n_max))
        assert np.array_equal(vals[i], fam.values_by_recursion(f, arg, n_max))
    assert np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10
    # a one-argument array keeps its row axis
    assert closed_form_hp(f, args[:1], n_max).shape == (1, n_max + 1)
    assert fam.values_by_recursion(f, args[:1], n_max).shape == (1, n_max + 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("f, arg, n_max", [
    (fam.Krawtchouk(3, 0.4), 2, 4),                      # degree past N
    (fam.ContinuousDualHahn(-1.0, 0.5, 1.5), 1.0, 3),   # negative radicand
    (fam.DualHahn(3, 0.4, 0.2), 1, 4),
    (fam.Meixner(0.5, 1.5), 2, 3),                       # tau outside (0, 1)
    (_UNMATCHED_WILSON, 1.0, 4),
])
def test_array_arguments_raise_like_the_scalar_calls(f, arg, n_max):
    for fn in (closed_form_hp, fam.values_by_recursion):
        scalar = _outcome(fn, f, arg, n_max)
        array = _outcome(fn, f, [arg, arg], n_max)
        if isinstance(scalar, tuple):
            assert array == scalar
        else:
            assert np.array_equal(array, [scalar, scalar])
    assert isinstance(_outcome(closed_form_hp, f, arg, n_max), tuple)


def _per_argument_oracle_checks(seed, n_max=10):
    """(name, value) of oracle_equivalence_suite(n_draws=1, seed), with one
    reference call and one recursion per argument and degree by degree."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in CLOSED_FORM_KINDS:
        f, args = random_family(kind, rng)
        top = min(n_max, getattr(f, "N", n_max))
        worst = 0.0
        for arg in args:
            vals = fam.values_by_recursion(f, arg, top)
            refs = closed_form_hp(f, arg, top)
            for n, ref in enumerate(refs):
                worst = max(worst, abs(ref - vals[n]) / max(1.0, abs(ref)))
        out.append((f"oracle_equivalence[{kind}]", worst))
    return out


def test_oracle_suite_equals_a_per_argument_loop(monkeypatch):
    # bit for bit, and the precision guard never re-evaluates a draw
    digits = []
    inner = verify.closed_form_hp

    def spy(f, arg, n_max, dps=40):
        digits.append(dps)
        return inner(f, arg, n_max, dps)

    monkeypatch.setattr(verify, "closed_form_hp", spy)
    for seed in range(400):
        checks = oracle_equivalence_suite(n_draws=1, seed=seed)
        assert [(c.name, c.value) for c in checks] == \
            _per_argument_oracle_checks(seed), seed
    assert len(digits) == 400 * len(CLOSED_FORM_KINDS)
    assert set(digits) == {40}


# SHA-256 of the little-endian float64 bytes of closed_form_hp's rows for
# every draw of oracle_equivalence_suite(n_draws=1, seed=s), s = 0..63, in
# draw order: the references the recursion is judged by, pinned bit for bit
_ORACLE_REFERENCE_DIGEST = \
    "5a95d34e0aa0c7550360de9ecd2d99f232b545bc729f19dd4b6e0125b3ae4881"


def test_oracle_references_keep_their_bits():
    digest = hashlib.sha256()
    for seed in range(64):
        rng = np.random.default_rng(seed)
        for kind in CLOSED_FORM_KINDS:
            f, args = random_family(kind, rng)
            top = min(10, getattr(f, "N", 10))
            digest.update(closed_form_hp(f, args, top).astype("<f8").tobytes())
    assert digest.hexdigest() == _ORACLE_REFERENCE_DIGEST


def test_precision_guard_raises_the_digits_where_they_run_out():
    # at 40 digits alone, degree 60 would be 1e3 off: the guard re-evaluates
    f = fam.Wilson(0.5, 0.5, 0.5, 0.5)
    ref = closed_form_hp(f, 1.0, 60, dps=120)
    got = closed_form_hp(f, 1.0, 60)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.max(np.abs(fam.values_by_recursion(f, 1.0, 60) - ref)
                  / np.maximum(1.0, np.abs(ref))) < 1e-10


def test_precision_guard_raises_a_typed_error_past_its_cap(monkeypatch):
    f = fam.Wilson(0.5, 0.5, 0.5, 0.5)
    monkeypatch.setattr(verify, "MAX_DPS", 60)
    with pytest.raises(PrecisionExhausted, match="more than 60 digits"):
        closed_form_hp(f, [0.5, 1.0], 60)
    assert np.array_equal(closed_form_hp(f, 1.0, 10),    # needs no more
                          verify.closed_form_hp(f, 1.0, 10, dps=40))


def test_precision_guard_repeats_a_conjugate_pair_record(monkeypatch):
    # the pair record's real path runs out of digits as the real one does:
    # degree 60 at w = 1 is evaluated again at 80 digits, and no further
    f = fam.Wilson(complex(0.5, 0.2), complex(0.5, -0.2), 0.5, 0.5)
    digits = []
    inner = verify.closed_form_hp

    def spy(f, arg, n_max, dps=40):
        digits.append(dps)
        return inner(f, arg, n_max, dps)

    monkeypatch.setattr(verify, "closed_form_hp", spy)
    got = verify.closed_form_hp(f, 1.0, 60)
    assert digits == [40, 80]
    ref = inner(f, 1.0, 60, dps=160)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


_PAIR = (complex(0.7, 0.6), complex(0.7, -0.6))


def _pair_in_slots(slots, reals):
    ps = list(reals)
    for slot, p in zip(slots, _PAIR):
        ps.insert(slot, p)
    return tuple(ps)


# one conjugate pair in each of the six slot pairs, beside two equal and two
# distinct real parameters, and a record of two pairs
_WILSON_PAIR_RECORDS = {
    f"pair_at_{'abcd'[i]}_{'abcd'[j]}{label}": _pair_in_slots((i, j), reals)
    for i, j in itertools.combinations(range(4), 2)
    for label, reals in (("", (1.2, 0.9)), ("-equal", (1.2, 1.2)))}
_WILSON_PAIR_RECORDS["two_pairs"] = (*_PAIR, complex(0.5, 0.2), complex(0.5, -0.2))


@pytest.mark.parametrize("ps", list(_WILSON_PAIR_RECORDS.values()),
                         ids=list(_WILSON_PAIR_RECORDS))
def test_wilson_conjugate_pair_in_any_position(ps):
    # the streams took the sign of t_n from (n+a+c)(n+b+c), complex here, and
    # the reference had no real / complex division
    f = fam.Wilson(*ps)
    co = fam.family_coeffs(f, 11)
    assert np.all(co.t_squared > 0) and np.all(co.t < 0)
    args = np.array([0.3, 1.0, 2.7, 6.0])
    ref = closed_form_hp(f, args, 10)
    vals = fam.values_by_recursion(f, args, 10)
    assert np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10
    for arg, row in zip(args, ref):
        for n in range(11):
            assert row[n] == pytest.approx(_mp_hyper_reference(f, n, arg),
                                           rel=1e-13, abs=1e-13)
    # the polynomials are symmetric in a, b, c, d; a one-pair record is
    # evaluated in one order whatever order it is given in
    if sum(1 for p in ps if complex(p).imag) == 2:
        for order in itertools.permutations(ps):
            assert np.array_equal(closed_form_hp(fam.Wilson(*order), args, 10),
                                  ref), order
    else:
        swapped = closed_form_hp(fam.Wilson(*ps[::-1]), args, 10)
        assert np.max(np.abs(swapped - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


@pytest.mark.parametrize("f", [
    fam.Wilson(0.5, 1.1, 0.8, 1.7),
    fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
    fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8),   # t_0 > 0
], ids=["real", "pair_at_a_b", "mixed"])
def test_wilson_off_diagonal_keeps_the_branch_sign(f):
    co = f.streams(12)
    n = np.arange(12)
    a, b, c = (complex(p) for p in (f.a, f.b, f.c))
    branch = ((n + a + c) * (n + b + c)).real
    assert np.array_equal(co.t, -np.copysign(np.sqrt(np.abs(co.t_squared)),
                                             branch + 0.0))

