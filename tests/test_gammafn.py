"""Log-gamma, Pochhammer and hypergeometric helpers against scipy."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import gammaln, loggamma, poch

from triseries import gammafn as gf


def test_log_gamma_real_axis_matches_scipy():
    xs = np.concatenate([np.linspace(0.05, 30.0, 197), [0.5, 1.0, 2.0, 171.0]])
    for x in xs:
        assert gf.log_gamma_real(float(x)) == pytest.approx(
            float(gammaln(x)), rel=1e-13, abs=1e-13)


def test_log_gamma_complex_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z.imag) < 1e-3 and z.real <= 0 and abs(z.real - round(z.real)) < 1e-3:
            continue
        ours = gf.log_gamma(z)
        ref = complex(loggamma(z))
        # branch choice may differ by 2 pi i on the reflected half plane
        assert ours.real == pytest.approx(ref.real, rel=1e-11, abs=1e-11)
        assert cmath.exp(ours) == pytest.approx(cmath.exp(ref), rel=1e-10)


def test_log_gamma_far_from_real_axis_reflected():
    # sin(pi z) overflows once |Im pi z| passes ~710; log_gamma must not
    for z in (complex(0.0, 300.0), complex(0.3, -400.0), complex(-2.7, 1000.0),
              complex(0.45, 230.0)):
        ours = gf.log_gamma(z)
        ref = complex(loggamma(z))
        assert ours.real == pytest.approx(ref.real, rel=1e-12)
        assert gf.wrap_angle(ours.imag - ref.imag) == pytest.approx(0.0, abs=1e-8)


def test_log_gamma_pole_raises():
    with pytest.raises(ZeroDivisionError):
        gf.log_gamma_real(-3.0)
    with pytest.raises(ZeroDivisionError):
        gf.log_gamma(0.0)


def test_abs_gamma_sq_known_value():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.0, 0.3, 1.7, -2.5):
        assert gf.abs_gamma_sq(0.5, y) == pytest.approx(
            math.pi / math.cosh(math.pi * y), rel=1e-12)


def test_arg_gamma_regression():
    assert gf.arg_gamma(complex(1.0, -1.0)) == pytest.approx(0.30164032, abs=1e-7)
    assert gf.arg_gamma(complex(1.0, 0.0)) == 0.0


def test_pochhammer_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-6, 6)
        n = int(rng.integers(0, 20))
        assert gf.pochhammer_real(a, n) == pytest.approx(
            float(poch(a, n)), rel=1e-11, abs=1e-11)


def test_pochhammer_long_products_switch_to_loggamma():
    a = 1.37
    exact = float(poch(a, 120))
    assert gf.pochhammer_real(a, 120) == pytest.approx(exact, rel=1e-10)


def test_wrap_angle():
    assert gf.wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert gf.wrap_angle(math.pi) == pytest.approx(math.pi)


def test_real_part_checked_raises_on_complex():
    with pytest.raises(ArithmeticError):
        gf.real_part_checked(complex(1.0, 0.5))
