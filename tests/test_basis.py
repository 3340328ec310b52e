"""Classical polynomials, the weighted basis elements and the series
evaluator that computes both on the orthonormal recursion."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, eval_jacobi

from triseries.basis import evaluate_series, jacobi_cd, negative_integer_index
from triseries.errors import DegenerateDenominator, DomainError, NonFiniteValue
from triseries.gammafn import log_gamma_real
from triseries.physics import (CoulombCase, EckartCase, MorseCase, ScarfCase,
                               bound_series)
from triseries.tra import BasisSpec, OdeParams, resolve


def basis_element(spec, n, x):
    """phi_n(x): the series with a single unit coefficient at degree n."""
    f = np.zeros(n + 1)
    f[n] = 1.0
    return float(evaluate_series(spec, f, x)[0])


def _p0(mu, nu):
    """c_0, the inverse square root of the measure's mass, as one exp of a
    log-gamma sum (Laguerre when mu is None)."""
    if mu is None:
        return math.exp(-0.5 * log_gamma_real(nu + 1.0))
    return math.exp(-0.5 * ((mu + nu + 1.0) * math.log(2.0) + log_gamma_real(mu + 1.0)
                            + log_gamma_real(nu + 1.0) - log_gamma_real(mu + nu + 2.0)))


def _norm(n, mu, nu):
    """c_n of the module docstring, as c_0 times the square root of the
    product of the ratios (c_{k+1}/c_k)^2, k < n, of its Gamma forms."""
    sq = 1.0
    for k in range(n):
        if mu is None:
            sq *= (k + 1.0) / (k + nu + 1.0)
        else:
            e = 2 * k + mu + nu
            sq *= ((e + 3.0) * (k + 1.0) * (k + mu + nu + 1.0)
                   / ((e + 1.0) * (k + mu + 1.0) * (k + nu + 1.0)))
    return _p0(mu, nu) * math.sqrt(sq)


def laguerre(n, nu, x):
    """L_n^nu(x): phi_n with weight 1, its norm divided out."""
    spec = BasisSpec("laguerre", alpha=0.0, beta=0.0, nu=nu, scenario="LA")
    return basis_element(spec, n, x) / _norm(n, None, nu)


def jacobi(n, mu, nu, x):
    """P_n^{(mu,nu)}(x): phi_n with weight 1, its norm divided out."""
    spec = BasisSpec("jacobi", alpha=0.0, beta=0.0, nu=nu, mu=mu, scenario="JC")
    return basis_element(spec, n, x) / _norm(n, mu, nu)


def test_degree_zero():
    assert laguerre(0, 0.7, 2.0) == 1.0
    assert jacobi(0, 0.3, 0.6, -0.2) == 1.0


def test_laguerre_degree_one():
    for nu, x in ((0.0, 0.5), (2.3, 1.7), (-0.4, 3.0)):
        assert laguerre(1, nu, x) == pytest.approx(nu + 1.0 - x, rel=1e-14)


def test_jacobi_endpoint():
    for mu, nu in ((0.0, 0.0), (1.4, 0.2), (0.5, 2.5)):
        assert jacobi(1, mu, nu, 1.0) == pytest.approx(mu + 1.0, rel=1e-14)


def test_laguerre_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(0, 15))
        nu = rng.uniform(-0.9, 4.0)
        x = rng.uniform(0.0, 25.0)
        assert laguerre(n, nu, x) == pytest.approx(
            float(eval_genlaguerre(n, nu, x)), rel=1e-9, abs=1e-9)


def test_jacobi_against_scipy():
    rng = np.random.default_rng(4)
    for _ in range(150):
        n = int(rng.integers(0, 15))
        mu = rng.uniform(-0.9, 4.0)
        nu = rng.uniform(-0.9, 4.0)
        x = rng.uniform(-1.0, 1.0)
        assert jacobi(n, mu, nu, x) == pytest.approx(
            float(eval_jacobi(n, mu, nu, x)), rel=1e-8, abs=1e-9)


def test_negative_integer_index_validity():
    # the matcher reads nu = -N-1 as the finite family of size N + 1, but its
    # measure has no finite mass: the evaluator refuses it at every degree
    assert negative_integer_index(-5.0) == 4
    with pytest.raises(DomainError, match="needs nu > -1, got -5.0"):
        laguerre(3, -5.0, 1.2)
    with pytest.raises(DomainError, match="needs mu, nu > -1, got -4.0, 0.5"):
        jacobi(0, -4.0, 0.5, 0.2)


def test_jacobi_orthonormal_offdiagonal_positive():
    s, t, _ = jacobi_cd(0.4, 1.3, 12)
    assert np.all(t > 0)
    assert np.all(np.isfinite(s))


def test_jacobi_cd_cancelled_first_diagonal_without_warning():
    # mu + nu = 0 makes the printed C_0 0/0; the cancelled form is (nu-mu)/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, d, _ = jacobi_cd(0.7, -0.7, 6)
    assert c[0] == (-0.7 - 0.7) / 2.0
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(d))


def test_jacobi_cd_nan_off_diagonal_where_its_square_is_negative():
    # mu = -7, nu = 8: only (n+mu+1) < 0 for n < 6, so D_n^2 < 0 and D_n is nan
    c, d, d2 = jacobi_cd(-7.0, 8.0, 6)
    assert np.all(d2 < 0)
    assert np.all(np.isnan(d))
    assert np.all(np.isfinite(c))


@pytest.mark.parametrize("mu, nu", [
    (Fraction(2, 5), Fraction(13, 10)), (Fraction(-1, 2), Fraction(5, 2)),
    (Fraction(3), Fraction(-1, 5)), (Fraction(-9, 10), Fraction(-4, 5)),
])
def test_jacobi_cd_equals_the_closed_forms(mu, nu):
    # exact rational C_n and D_n^2 from the printed (uncancelled) forms
    c, d, d2 = jacobi_cd(float(mu), float(nu), 12)
    for n in range(12):
        e = 2 * n + mu + nu
        c_ref = (nu * nu - mu * mu) / (e * (e + 2))
        d2_ref = (Fraction(4) / (e + 2) ** 2 * (n + 1) * (n + mu + 1) * (n + nu + 1)
                  * (n + mu + nu + 1) / ((e + 1) * (e + 3)))
        assert c[n] == pytest.approx(float(c_ref), rel=1e-15, abs=1e-15)
        assert d2[n] == pytest.approx(float(d2_ref), rel=1e-15)
        assert d[n] == pytest.approx(math.sqrt(d2_ref), rel=1e-15)


def test_jacobi_cd_equals_the_scalar_forms_bit_for_bit():
    # the per-degree float forms, in the same order of operations; the
    # stream builders' output bytes rest on this equality
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu, nu = (float(v) for v in rng.uniform(-0.99, 8.0, 2))
        c, d, d2 = jacobi_cd(mu, nu, 30)
        for n in range(30):
            e = 2 * n + mu + nu
            c_ref = ((nu - mu) / (mu + nu + 2.0) if n == 0
                     else (nu * nu - mu * mu) / (e * (e + 2.0)))
            arg = ((n + 1.0) * (n + mu + 1.0) * (n + nu + 1.0) * (n + mu + nu + 1.0)
                   / ((e + 1.0) * (e + 3.0)))
            g = 2.0 / (e + 2.0)
            assert c[n] == c_ref
            assert d[n] == g * math.sqrt(arg)
            assert d2[n] == g ** 2 * arg


@pytest.mark.parametrize("shift", [-2.0, -1.0])
def test_jacobi_cd_raises_where_a_denominator_vanishes(shift):
    # mu + nu = -2 divides by zero in C_0, C_1 and D_0; mu + nu = -1 makes
    # D_0^2 0/0
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, 1.2, 1.1)
    nu = resolve(p, "JC", free_value=0.0).spec.nu
    scenario = resolve(p, "JC", free_value=shift - nu)
    with pytest.raises(DegenerateDenominator, match="vanishes at n = 0"):
        scenario.streams(8)
    with pytest.raises(DegenerateDenominator, match="vanishes at n = 1"):
        jacobi_cd(0.5, shift - 3.5, 4)


def test_jacobi_cd_takes_huge_indices_without_a_warning():
    # the denominators are tested one by one, so nu ~ 1e150, whose four
    # denominators multiply past the float range, still has coefficients;
    # past ~1e152 the numerator of D_n^2 overflows and is refused
    c, d, d2 = jacobi_cd(0.4, 1.4e150, 8)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(d2))
    with pytest.raises(NonFiniteValue, match="overflows at mu = 0.4, nu = 4.5e"):
        jacobi_cd(0.4, 4.5e152, 60)


def test_basis_element_vanishes_at_origin_with_positive_power():
    spec = BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA")
    assert basis_element(spec, 0, 0.0) == 0.0


def test_basis_element_unit_power_value():
    # alpha = 0 keeps c_0 e^{-beta}: with nu = 1, c_0 = 1/sqrt(Gamma(2)) = 1
    spec = BasisSpec("laguerre", alpha=0.0, beta=0.5, nu=1.0, scenario="LA")
    assert basis_element(spec, 0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_basis_element_domain_errors():
    spec = BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA")
    with pytest.raises(DomainError):
        basis_element(spec, 0, -0.1)
    jspec = BasisSpec("jacobi", alpha=0.5, beta=0.5, nu=0.5, mu=0.5, scenario="JC")
    with pytest.raises(DomainError):
        basis_element(jspec, 0, 1.2)


def test_laguerre_basis_orthonormality_quadrature():
    # first-scenario values (orbital case): alpha = 2, beta = 1/2, nu = 3;
    # measure x^{nu-2 alpha} e^{(2 beta - 1) x} dx = x^{-1} dx
    spec = BasisSpec("laguerre", alpha=2.0, beta=0.5, nu=3.0, scenario="LA")

    def integrand(x, n, m):
        return basis_element(spec, n, x) * basis_element(spec, m, x) / x

    for n in range(5):
        for m in range(n, 5):
            val = quad(integrand, 0.0, 80.0, args=(n, m), epsabs=1e-11,
                       limit=200)[0]
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=5e-9)


def test_jacobi_basis_orthonormality_quadrature():
    spec = BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC")

    def integrand(x, n, m):
        w = (1.0 - x) ** (spec.mu - 2 * spec.alpha) * (1.0 + x) ** (spec.nu - 2 * spec.beta)
        return basis_element(spec, n, x) * basis_element(spec, m, x) * w

    for n in range(4):
        for m in range(n, 4):
            val = quad(integrand, -1.0, 1.0, args=(n, m), epsabs=1e-11,
                       limit=200)[0]
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=5e-9)


def _mp_norm(spec, n):
    """c_n from mpmath Gamma functions."""
    nu = mp.mpf(spec.nu)
    if spec.equation == "laguerre":
        return mp.sqrt(mp.gamma(n + 1) / mp.gamma(n + nu + 1))
    mu = mp.mpf(spec.mu)
    return mp.sqrt((2 * n + mu + nu + 1) / mp.mpf(2) ** (mu + nu + 1)
                   * mp.gamma(n + 1) * mp.gamma(n + mu + nu + 1)
                   / (mp.gamma(n + mu + 1) * mp.gamma(n + nu + 1)))


def _mp_series(spec, f):
    """The truncated series y(x) = sum_n f_n phi_n(x) in mpmath."""
    def y(x):
        if spec.equation == "laguerre":
            w = x ** spec.alpha * mp.exp(-spec.beta * x)
            polys = [mp.laguerre(n, spec.nu, x) for n in range(len(f))]
        else:
            w = (1 - x) ** spec.alpha * (1 + x) ** spec.beta
            polys = [mp.jacobi(n, spec.mu, spec.nu, x) for n in range(len(f))]
        return w * mp.fsum(fn * _mp_norm(spec, n) * p
                           for n, (fn, p) in enumerate(zip(f, polys)))
    return y


# each input keeps its id; spec2 was a negative index, now a DomainError
@pytest.mark.parametrize("spec, n_terms, xs", [
    (BasisSpec("laguerre", alpha=1.3, beta=0.6, nu=0.7, scenario="LA"), 9,
     (0.3, 1.1, 2.9, 6.5)),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 9,
     (-0.85, -0.3, 0.2, 0.9)),
    # the default truncation of the Coulomb and oscillator states: 61 terms
    # (the Coulomb spec alpha = 1, beta = 1/2, nu = 1), and as many Jacobi ones
    (BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA"), 61,
     (0.3, 1.1, 2.9, 6.5)),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 61,
     (-0.85, -0.3, 0.2, 0.9)),
], ids=["spec0-9-xs0", "spec1-9-xs1", "spec3-61-xs3", "spec4-61-xs4"])
def test_series_derivatives_against_mpmath(spec, n_terms, xs):
    f = np.random.default_rng(11).uniform(0.5, 1.5, n_terms)
    y, yp, ypp = evaluate_series(spec, f, np.array(xs))
    ref = _mp_series(spec, [mp.mpf(float(v)) for v in f])
    with mp.workdps(40):
        for i, x in enumerate(xs):
            want = [float(mp.diff(ref, mp.mpf(x), k)) for k in range(3)]
            assert [y[i], yp[i], ypp[i]] == pytest.approx(want, rel=1e-10)


# the bound states whose digits the orthonormal recursion moves most, and a
# 61-term Meixner state: the evaluator against a 50-digit sum of the same
# series, as a fraction of the peak |y|
@pytest.mark.parametrize("case, m, r", [
    (ScarfCase(A=400.0, B=5.0, lam=1.0), 3, np.linspace(0.0, math.pi, 62)[1:-1]),
    (ScarfCase(A=20.0, B=5.0, lam=1.0), 20, np.linspace(0.0, math.pi, 62)[1:-1]),
    (MorseCase(lam=1.0, V1=30.0), 3, np.linspace(-3.0, 5.0, 61)),
    (EckartCase(lam=1.0, A=2.0, B=-300.0), 14, np.linspace(0.01, 30.0, 61)),
    (CoulombCase(Z=1.0, ell=0, lam=0.3), 2, np.linspace(0.01, 30.0, 61)),
], ids=["scarf-400-5-m3", "scarf-20-5-m20", "morse-30-m3", "eckart-2-300-m14",
        "coulomb-m2"])
def test_bound_states_against_a_50_digit_sum(case, m, r):
    _, sol = bound_series(case, m)
    x = case.x_of_r(r)
    y = evaluate_series(sol.spec, sol.f, x, derivatives=False)
    ref = _mp_series(sol.spec, [mp.mpf(float(v)) for v in sol.f])
    with mp.workdps(50):
        want = np.array([float(ref(mp.mpf(float(v)))) for v in x])
    assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))


# --- the recursion against the per-degree norms, and its stacked pass ------

NORM_PARAMS = [
    (None, 1.0), (None, 0.5), (None, -0.37), (None, 7.25), (None, -0.0),
    (1.1, 0.7), (1.0, 1.0), (-0.48, 0.5), (0.0, 3.0), (7.0, 3.0),
]

BELOW_MINUS_ONE = [
    (None, -5.0), (None, -1.0), (None, -41.0), (None, -5.0 + 1e-12),
    (-7.0, 9.5), (9.5, -7.0), (-4.0, 2.0), (-4.0, -4.0), (-8.0, -2.5),
    (-6.0, 5.5), (-30.0, 60.5), (-1.0 - 1e-12, 0.5), (0.5, -1.5),
]


def _weightless(mu, nu):
    if mu is None:
        return BasisSpec("laguerre", alpha=0.0, beta=0.0, nu=nu, scenario="LA")
    return BasisSpec("jacobi", alpha=0.0, beta=0.0, nu=nu, mu=mu, scenario="JC")


@pytest.mark.parametrize("mu, nu", NORM_PARAMS)
def test_orthonormal_recursion_equals_the_per_degree_norms(mu, nu):
    # phi_n with weight 1 is c_n times the classical polynomial, which mpmath
    # gives one degree at a time, out to degree 69
    spec = _weightless(mu, nu)
    xs = (0.3, 2.9, 11.0) if mu is None else (-0.85, 0.2, 0.9)
    with mp.workdps(40):
        for n in (0, 1, 2, 35, 69):
            for x in xs:
                if mu is None:
                    poly = mp.laguerre(n, mp.mpf(nu), x)
                else:
                    poly = mp.jacobi(n, mp.mpf(mu), mp.mpf(nu), x)
                want = float(_mp_norm(spec, n) * poly)
                assert basis_element(spec, n, x) == pytest.approx(
                    want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("mu, nu", BELOW_MINUS_ONE)
def test_index_at_or_below_minus_one_is_a_domain_error(mu, nu):
    # the measure has no finite mass there: refused before any stream is
    # built, for any series length and any x
    spec = _weightless(mu, nu)
    for f in ([], [1.0], np.ones(70)):
        for x in (0.5, np.array([0.2, 5.0])):
            with pytest.raises(DomainError, match="> -1, got"):
                evaluate_series(spec, f, x)
            with pytest.raises(DomainError, match="> -1, got"):
                evaluate_series(spec, f, x, derivatives=False)


def _rowwise_series(spec, f, x):
    """(y, y', y'') by the orthonormal recursion carried one derivative row
    at a time, with per-degree recursion coefficients."""
    f = np.trim_zeros(np.asarray(f, dtype=float), "b")
    mu = spec.mu if spec.equation == "jacobi" else None
    nu = spec.nu

    def step(k):
        """(s_k, t_k) of x p_k = t_{k-1} p_{k-1} + s_k p_k + t_k p_{k+1}."""
        if mu is None:
            return 2 * k + nu + 1.0, -math.sqrt((k + 1.0) * (k + nu + 1.0))
        e = 2 * k + mu + nu
        s = ((nu - mu) / (mu + nu + 2.0) if k == 0
             else (nu * nu - mu * mu) / (e * (e + 2.0)))
        arg = ((k + 1.0) * (k + mu + 1.0) * (k + nu + 1.0) * (k + mu + nu + 1.0)
               / ((e + 1.0) * (e + 3.0)))
        return s, 2.0 / (e + 2.0) * math.sqrt(arg)

    zero = np.zeros_like(x)
    prev, cur = (zero, zero, zero), (np.full_like(x, _p0(mu, nu)), zero, zero)
    s0 = s1 = s2 = zero
    t_prev = 0.0
    for n, fn in enumerate(f):
        if n > 0:
            s, t = step(n - 1)
            lin = x - s
            prev, cur = cur, ((lin * cur[0] - t_prev * prev[0]) / t,
                              (lin * cur[1] + cur[0] - t_prev * prev[1]) / t,
                              (lin * cur[2] + 2.0 * cur[1] - t_prev * prev[2]) / t)
            t_prev = t
        s0, s1, s2 = s0 + fn * cur[0], s1 + fn * cur[1], s2 + fn * cur[2]
    if mu is None:
        inside = x > 0
        t = np.where(inside, x, 1.0)
        weight = x ** spec.alpha * np.exp(-spec.beta * x)
        g, dg = spec.alpha / t - spec.beta, -spec.alpha / (t * t)
    else:
        inside = np.abs(x) < 1.0
        om, op = np.where(inside, 1.0 - x, 1.0), np.where(inside, 1.0 + x, 1.0)
        weight = (1.0 - x) ** spec.alpha * (1.0 + x) ** spec.beta
        g = spec.beta / op - spec.alpha / om
        dg = -spec.alpha / (om * om) - spec.beta / (op * op)
    return (weight * s0,
            np.where(inside, weight * (s1 + g * s0), np.nan),
            np.where(inside, weight * (s2 + 2.0 * g * s1 + (g * g + dg) * s0),
                     np.nan))


# each input keeps its id; spec2 and spec7 were negative indices
@pytest.mark.parametrize("spec, n_terms", [
    (BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA"), 61),
    (BasisSpec("laguerre", alpha=2.0, beta=1.0, nu=3.0, scenario="LA"), 41),
    (BasisSpec("laguerre", alpha=1.25, beta=0.25, nu=-0.0, scenario="LA"), 2),
    (BasisSpec("jacobi", alpha=1.25, beta=0.75, nu=1.0, mu=1.0, scenario="JC"), 1),
    (BasisSpec("jacobi", alpha=1.25, beta=0.75, nu=1.0, mu=1.0, scenario="JC"), 3),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 61),
], ids=["spec0-61", "spec1-41", "spec3-2", "spec4-1", "spec5-3", "spec6-61"])
def test_stacked_pass_equals_rowwise_recursion_bit_for_bit(spec, n_terms):
    rng = np.random.default_rng(n_terms)
    f = rng.uniform(-1.5, 1.5, n_terms)
    f[rng.random(n_terms) < 0.3] = 0.0   # interior zeros add nothing
    lo, hi = (0.0, 12.0) if spec.equation == "laguerre" else (-1.0, 1.0)
    x = np.concatenate(([lo, hi], rng.uniform(lo, hi, 40)))
    for got, want in zip(evaluate_series(spec, f, x), _rowwise_series(spec, f, x)):
        assert got.tobytes() == want.tobytes()


def test_scalar_x_gives_the_one_element_values():
    for spec, x0 in [
            (BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA"), 2.9),
            (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1,
                       scenario="JC"), -0.3)]:
        f = np.random.default_rng(5).uniform(0.5, 1.5, 12)
        for scalar, one in zip(evaluate_series(spec, f, x0),
                               evaluate_series(spec, f, np.array([x0]))):
            assert np.shape(scalar) == () and one.shape == (1,)
            assert np.asarray(scalar).tobytes() == one.tobytes()
