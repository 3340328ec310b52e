"""Classical polynomials, the weighted basis elements and the series
evaluator that computes both."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, eval_jacobi

from triseries.basis import (evaluate_series, jacobi_norm,
                             jacobi_orthonormal_coeffs, laguerre_norm)
from triseries.errors import DomainError, IndexOutOfValidity
from triseries.tra import BasisSpec


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
    s, t = jacobi_orthonormal_coeffs(0.4, 1.3, 12)
    assert np.all(t > 0)
    assert np.all(np.isfinite(s))


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
])
def test_series_derivatives_against_mpmath(spec, n_terms, xs):
    f = np.random.default_rng(11).uniform(0.5, 1.5, n_terms)
    y, yp, ypp = evaluate_series(spec, f, np.array(xs))
    ref = _mp_series(spec, [mp.mpf(float(v)) for v in f])
    with mp.workdps(40):
        for i, x in enumerate(xs):
            want = [float(mp.diff(ref, mp.mpf(x), k)) for k in range(3)]
            assert [y[i], yp[i], ypp[i]] == pytest.approx(want, rel=1e-10)
