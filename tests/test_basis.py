"""Classical polynomials, the weighted basis elements and the series
evaluator that computes both."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, eval_jacobi

from triseries.basis import (evaluate_series, jacobi_cd, jacobi_norm,
                             laguerre_norm, negative_integer_index)
from triseries.errors import DegenerateDenominator, DomainError, IndexOutOfValidity
from triseries.gammafn import log_abs_rising, log_gamma_real
from triseries.tra import BasisSpec, OdeParams, jacobi_st2r2, resolve_basis


def basis_element(spec, n, x):
    """phi_n(x): the series with a single unit coefficient at degree n."""
    f = np.zeros(n + 1)
    f[n] = 1.0
    return float(evaluate_series(spec, f, x)[0])


def laguerre(n, nu, x):
    """L_n^nu(x): phi_n with weight 1, its norm divided out."""
    spec = BasisSpec("laguerre", alpha=0.0, beta=0.0, nu=nu, scenario="LA")
    return basis_element(spec, n, x) / laguerre_norm(n, nu)


def jacobi(n, mu, nu, x):
    """P_n^{(mu,nu)}(x): phi_n with weight 1, its norm divided out."""
    spec = BasisSpec("jacobi", alpha=0.0, beta=0.0, nu=nu, mu=mu, scenario="JC")
    return basis_element(spec, n, x) / jacobi_norm(n, mu, nu)


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
    # nu = -N-1 allows degrees n <= N only; scipy returns nan there, so the
    # reference is the explicit expansion L_3^{-5}(x) = -4 - 3x - x^2 - x^3/6
    x = 1.2
    assert laguerre(3, -5.0, x) == pytest.approx(
        -4.0 - 3.0 * x - x * x - x ** 3 / 6.0, rel=1e-13)
    with pytest.raises(IndexOutOfValidity):
        laguerre(5, -5.0, 1.2)
    with pytest.raises(IndexOutOfValidity):
        jacobi(4, -4.0, 0.5, 0.2)


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
    nu = resolve_basis(p, "JC", free_value=0.0).nu
    spec = resolve_basis(p, "JC", free_value=shift - nu)
    with pytest.raises(DegenerateDenominator, match="vanishes at n = 0"):
        jacobi_st2r2(p, spec, 8)
    with pytest.raises(DegenerateDenominator, match="vanishes at n = 1"):
        jacobi_cd(0.5, shift - 3.5, 4)


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


def test_negative_index_norm_finite():
    # the n-independent singular factor is dropped; ratios stay finite
    vals = [laguerre_norm(n, -4.0) for n in range(4)]
    assert all(math.isfinite(v) and v > 0 for v in vals)

    # they match c_n = sqrt(n! / |(nu+1)_n|) and its Jacobi analogue at
    # nu = -N-1, also at N = 200, where n! and the Pochhammer symbols
    # overflow on their own
    def mp_jacobi(n, mu, nu):
        top = mp.rf(mu + nu + 1, n) if mu + nu + 1 > 0 else 1   # dropped at -2
        return mp.sqrt((2 * n + mu + nu + 1) / mp.mpf(2) ** (mu + nu + 1)
                       * mp.factorial(n) * abs(top)
                       / abs(mp.rf(mu + 1, n) * mp.rf(nu + 1, n)))

    with mp.workdps(40):
        for N in (3, 20, 200):
            neg = -N - 1.0
            for n in sorted({0, 1, 2, N // 2, N}):
                ref = mp.sqrt(mp.factorial(n) / abs(mp.rf(neg + 1, n)))
                assert laguerre_norm(n, neg) == pytest.approx(float(ref), rel=1e-12)
                ref = float(mp_jacobi(n, mp.mpf(neg), mp.mpf(N + 3.5)))
                assert jacobi_norm(n, neg, N + 3.5) == pytest.approx(ref, rel=1e-12)
                assert jacobi_norm(n, N + 3.5, neg) == pytest.approx(ref, rel=1e-12)
                if n >= 2:   # mu + nu + 1 = -2: that factor is dropped
                    ref = float(mp_jacobi(n, mp.mpf(neg), mp.mpf(N - 2.0)))
                    assert jacobi_norm(n, neg, N - 2.0) == pytest.approx(ref, rel=1e-12)


def _mp_norm(spec, n):
    """c_n from mpmath Gamma functions (Pochhammer ratios for a negative
    integer index, whose n-independent singular factor is dropped)."""
    if spec.equation == "laguerre":
        if spec.nu < 0 and spec.nu == int(spec.nu):
            return mp.sqrt(mp.factorial(n) / abs(mp.rf(spec.nu + 1, n)))
        return mp.sqrt(mp.gamma(n + 1) / mp.gamma(n + spec.nu + 1))
    mu, nu = spec.mu, spec.nu
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


@pytest.mark.parametrize("spec, n_terms, xs", [
    (BasisSpec("laguerre", alpha=1.3, beta=0.6, nu=0.7, scenario="LA"), 9,
     (0.3, 1.1, 2.9, 6.5)),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 9,
     (-0.85, -0.3, 0.2, 0.9)),
    # nu = -5 admits degrees 0..4 only
    (BasisSpec("laguerre", alpha=0.5, beta=0.5, nu=-5.0, scenario="LA"), 5,
     (0.4, 1.2, 3.0, 7.0)),
    # the default truncation of the Coulomb and oscillator states: 61 terms
    # (the Coulomb spec alpha = 1, beta = 1/2, nu = 1), and as many Jacobi ones
    (BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA"), 61,
     (0.3, 1.1, 2.9, 6.5)),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 61,
     (-0.85, -0.3, 0.2, 0.9)),
])
def test_series_derivatives_against_mpmath(spec, n_terms, xs):
    f = np.random.default_rng(11).uniform(0.5, 1.5, n_terms)
    y, yp, ypp = evaluate_series(spec, f, np.array(xs))
    ref = _mp_series(spec, [mp.mpf(float(v)) for v in f])
    with mp.workdps(40):
        for i, x in enumerate(xs):
            want = [float(mp.diff(ref, mp.mpf(x), k)) for k in range(3)]
            assert [y[i], yp[i], ypp[i]] == pytest.approx(want, rel=1e-10)


# --- the array norms and the stacked pass against per-degree forms ---------

def _norm_per_degree(n, mu, nu):
    """c_n one degree at a time from scalar log-gammas, in the order of terms
    and of checks the norms use (Laguerre when mu is None)."""
    indices = ([(nu, "Laguerre index nu")] if mu is None
               else [(mu, "Jacobi index mu"), (nu, "Jacobi index nu")])
    lead = 1.0 if mu is None else (2 * n + mu + nu + 1.0) / 2.0 ** (mu + nu + 1.0)
    if lead <= 0:
        raise IndexOutOfValidity(f"nonpositive leading norm factor at n={n}")
    caps = [(negative_integer_index(v), v, label) for v, label in indices]
    for cap, v, label in caps:
        if cap is not None and n > cap:
            raise IndexOutOfValidity(
                f"{label} = {v} only valid for degrees n <= {cap}, got {n}")
    g = log_gamma_real(n + 1.0)
    capped = any(cap is not None for cap, _, _ in caps)
    if mu is None:
        return math.exp(0.5 * (g - log_abs_rising(nu + 1.0, n) if capped
                               else g - log_gamma_real(n + nu + 1.0)))
    if capped:
        top = (0.0 if negative_integer_index(mu + nu) is not None
               else log_abs_rising(mu + nu + 1.0, n))
        val = (g + top - log_abs_rising(mu + 1.0, n)
               - log_abs_rising(nu + 1.0, n))
    else:
        val = (g + log_gamma_real(n + mu + nu + 1.0)
               - log_gamma_real(n + mu + 1.0) - log_gamma_real(n + nu + 1.0))
    return math.sqrt(lead) * math.exp(0.5 * val)


def _first_error(degrees, mu, nu):
    """The message of the first per-degree norm call over ``degrees`` that
    raises, or None."""
    for n in degrees:
        try:
            _norm_per_degree(n, mu, nu)
        except IndexOutOfValidity as exc:
            return str(exc)
    return None


def _norm(degrees, mu, nu):
    return laguerre_norm(degrees, nu) if mu is None else jacobi_norm(degrees, mu, nu)


NORM_PARAMS = [
    (None, 1.0), (None, 0.5), (None, -0.37), (None, 7.25), (None, -0.0),
    (None, -5.0), (None, -1.0), (None, -41.0), (None, -5.0 + 1e-12),
    (1.1, 0.7), (1.0, 1.0), (-0.48, 0.5), (0.0, 3.0), (7.0, 3.0),
    (-7.0, 9.5), (9.5, -7.0), (-4.0, 2.0), (-4.0, -4.0), (-8.0, -2.5),
    (-6.0, 5.5), (-30.0, 60.5),
]


@pytest.mark.parametrize("mu, nu", NORM_PARAMS)
def test_array_norms_equal_per_degree_forms_bit_for_bit(mu, nu):
    degrees = np.arange(70)
    first = _first_error(degrees.tolist(), mu, nu)
    if first is None:
        got = _norm(degrees, mu, nu)
        want = np.array([_norm_per_degree(n, mu, nu) for n in range(70)])
        assert got.tobytes() == want.tobytes()
        for n in (0, 1, 69):   # a scalar degree gives a float, the same bits
            one = _norm(n, mu, nu)
            assert type(one) is float and one == got[n]
        return
    with pytest.raises(IndexOutOfValidity) as exc:
        _norm(degrees, mu, nu)
    assert str(exc.value) == first
    # the valid degrees alone still evaluate, and to the per-degree bits
    ok = [n for n in range(70) if _first_error([n], mu, nu) is None]
    if ok:
        want = np.array([_norm_per_degree(n, mu, nu) for n in ok])
        assert _norm(np.array(ok), mu, nu).tobytes() == want.tobytes()


@pytest.mark.parametrize("degrees, mu, nu, message", [
    # nu = -N-1 allows n <= N: the first degree past the cap is named
    (np.arange(8), None, -5.0, "Laguerre index nu = -5.0 only valid for "
                               "degrees n <= 4, got 5"),
    # the JC finite-region (Racah) basis: mu = -7 has a negative lead at n = 0
    (np.arange(7), -7.0, 1.4317821063276353,
     "nonpositive leading norm factor at n=0"),
    # array order, not degree order, decides which degree is first
    (np.array([2, 9, 6]), -8.0, 9.5, "Jacobi index mu = -8.0 only valid for "
                                     "degrees n <= 7, got 9"),
    (np.array([1, 6, 5]), 9.5, -5.0, "Jacobi index nu = -5.0 only valid for "
                                     "degrees n <= 4, got 6"),
    # both capped: at the first failing degree the lead comes first, then mu
    (np.array([3, 5, 4]), -7.0, -6.0, "nonpositive leading norm factor at n=3"),
    (np.array([4]), -3.0, -4.0, "Jacobi index mu = -3.0 only valid for "
                                "degrees n <= 2, got 4"),
    (np.array([5, 4]), -6.0, -3.0, "Jacobi index nu = -3.0 only valid for "
                                   "degrees n <= 2, got 5"),
])
def test_array_norms_raise_at_the_same_first_degree(degrees, mu, nu, message):
    assert _first_error(degrees.tolist(), mu, nu) == message
    with pytest.raises(IndexOutOfValidity) as exc:
        _norm(degrees, mu, nu)
    assert str(exc.value) == message


def _rowwise_series(spec, f, x):
    """(y, y', y'') by the recursion carried one derivative row at a time,
    with per-degree recursion coefficients and norms."""
    f = np.trim_zeros(np.asarray(f, dtype=float), "b")
    mu = spec.mu if spec.equation == "jacobi" else None
    fc = [fn * _norm_per_degree(n, mu, spec.nu) if fn else 0.0
          for n, fn in enumerate(f)]
    nu = spec.nu

    def step(k):
        if mu is None:
            return 2 * k + nu + 1.0, -1.0, k + nu, k + 1.0
        if k == 0:
            return 0.5 * (mu - nu), 0.5 * (mu + nu + 2.0), 0.0, 1.0
        c = 2 * k + mu + nu
        return ((c + 1.0) * (mu * mu - nu * nu), (c + 1.0) * c * (c + 2.0),
                2.0 * (k + mu) * (k + nu) * (c + 2.0),
                2.0 * (k + 1.0) * (k + mu + nu + 1.0) * c)

    zero = np.zeros_like(x)
    prev, cur = (zero, zero, zero), (np.ones_like(x), zero, zero)
    s0 = s1 = s2 = zero
    for n, fcn in enumerate(fc):
        if n > 0:
            a, b, c, d = step(n - 1)
            lin = a + b * x
            prev, cur = cur, ((lin * cur[0] - c * prev[0]) / d,
                              (lin * cur[1] + b * cur[0] - c * prev[1]) / d,
                              (lin * cur[2] + 2.0 * b * cur[1] - c * prev[2]) / d)
        s0, s1, s2 = s0 + fcn * cur[0], s1 + fcn * cur[1], s2 + fcn * cur[2]
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


@pytest.mark.parametrize("spec, n_terms", [
    (BasisSpec("laguerre", alpha=1.0, beta=0.5, nu=1.0, scenario="LA"), 61),
    (BasisSpec("laguerre", alpha=2.0, beta=1.0, nu=3.0, scenario="LA"), 41),
    (BasisSpec("laguerre", alpha=0.5, beta=0.5, nu=-5.0, scenario="LA"), 5),
    (BasisSpec("laguerre", alpha=1.25, beta=0.25, nu=-0.0, scenario="LA"), 2),
    (BasisSpec("jacobi", alpha=1.25, beta=0.75, nu=1.0, mu=1.0, scenario="JC"), 1),
    (BasisSpec("jacobi", alpha=1.25, beta=0.75, nu=1.0, mu=1.0, scenario="JC"), 3),
    (BasisSpec("jacobi", alpha=0.8, beta=0.6, nu=0.7, mu=1.1, scenario="JC"), 61),
    (BasisSpec("jacobi", alpha=0.5, beta=1.5, nu=5.5, mu=-6.0, scenario="JC"), 6),
])
def test_stacked_pass_equals_rowwise_recursion_bit_for_bit(spec, n_terms):
    rng = np.random.default_rng(n_terms)
    f = rng.uniform(-1.5, 1.5, n_terms)
    f[rng.random(n_terms) < 0.3] = 0.0   # interior zeros skip their norms
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
