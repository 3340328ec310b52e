"""Log-gamma and signed-log rising factorials against scipy and 40-digit
mpmath."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, loggamma

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
    # far off the real axis, where Gamma(z) itself underflows
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
    for z in (-1, complex(-2.0, 0.0), complex(-5.0, -0.0), np.float64(-4.0)):
        with pytest.raises(ZeroDivisionError):
            gf.log_gamma(z)
    with pytest.raises(ZeroDivisionError):
        gf.log_gamma(np.array([0.5, 1.5, -2.0, 3.0]))
    with pytest.raises(ZeroDivisionError):
        gf.arg_gamma(np.array([complex(1.0, 1.0), complex(-1.0, 0.0)]))
    # next to a pole, and nan in, are not poles
    assert math.isfinite(gf.log_gamma(complex(-2.0, 1e-300)).real)
    assert cmath.isnan(gf.log_gamma(float("nan")))


def _mpmath_grid():
    """A box around the origin (reflected half-plane included) and points
    out to |Im z| = 1000 on both sides of Re z = 0."""
    rng = np.random.default_rng(17)
    box = [complex(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(150)]
    far = [complex(rng.uniform(-6, 6), s * 10 ** rng.uniform(1, 3))
           for s in (1, -1) for _ in range(40)]
    edge = [complex(x, y) for x in (0.0, 0.45, -2.7, -7.5)
            for y in (230.0, -400.0, 1000.0, -1000.0)]
    return np.array(box + far + edge)


def test_log_gamma_and_arg_gamma_match_mpmath():
    # Gamma is compared as exp(ours - reference), so Gamma(z) ~ e^{-pi|y|/2}
    # does not underflow.  Its relative error is |exp(d) - 1|; for |log Gamma|
    # above 1 the bound scales with |log Gamma|, because a double log Gamma
    # of ~7000 (|Im z| = 1000) already carries a rounding error of ~5e-13.
    zs = _mpmath_grid()
    args = gf.arg_gamma(zs)
    assert isinstance(args, np.ndarray) and args.shape == zs.shape
    with mp.workdps(40):
        for z, arg in zip(zs, args):
            ours = gf.log_gamma(complex(z))
            ref = mp.loggamma(mp.mpc(z.real, z.imag))
            scale = max(1.0, abs(complex(ref)))
            assert abs(ours.real - float(ref.real)) <= 1e-13 * max(1.0, abs(float(ref.real)))
            d = mp.mpc(ours) - ref
            d = mp.mpc(d.real, d.imag - 2 * mp.pi * mp.nint(d.imag / (2 * mp.pi)))
            assert abs(mp.expm1(d)) <= 1e-13 * scale, (z, float(abs(d)))
            ref_arg = ref.imag - 2 * mp.pi * mp.nint(ref.imag / (2 * mp.pi))
            assert abs(arg - ref_arg) <= 1e-13 * scale, z
            assert -math.pi < arg <= math.pi
            assert gf.arg_gamma(complex(z)) == arg


def test_log_gamma_array_equals_scalar_calls():
    zs = _mpmath_grid()
    assert gf.log_gamma(zs).tolist() == [gf.log_gamma(complex(z)) for z in zs]
    xs = np.linspace(-5.5, 30.0, 40)
    assert np.array_equal(gf.log_gamma(xs), [gf.log_gamma(float(x)) for x in xs])
    assert type(gf.log_gamma(2.5)) is complex


def test_arg_gamma_regression():
    assert gf.arg_gamma(complex(1.0, -1.0)) == pytest.approx(0.30164032, abs=1e-7)
    assert gf.arg_gamma(complex(1.0, 0.0)) == 0.0


def test_log_abs_rising_matches_mpmath():
    # both gamma branches (all factors negative, or none at a pole), signs
    # of negative arguments dropped, and -inf at a zero factor
    with mp.workdps(40):
        for x in (-7.5, -3.25, -0.5, 0.3, 2.0, 150.2):
            for k in range(9):
                ref = float(mp.log(abs(mp.rf(mp.mpf(x), k))))
                assert gf.log_abs_rising(x, k) == pytest.approx(ref, rel=1e-13, abs=1e-13)
    assert gf.log_abs_rising(-3.0, 4) == -math.inf
    assert gf.log_abs_rising(-3.0, 3) == pytest.approx(math.log(6.0), rel=1e-14)


def test_wrap_angle():
    assert gf.wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert gf.wrap_angle(math.pi) == pytest.approx(math.pi)


def test_wrap_angle_is_ieee_remainder_on_arrays():
    def ref(phi):
        w = math.remainder(phi, 2.0 * math.pi)
        return w + 2.0 * math.pi if w <= -math.pi else w
    rng = np.random.default_rng(3)
    phis = np.concatenate([rng.uniform(-40.0, 40.0, 500),
                           [k * math.pi for k in range(-7, 8)], [0.0, -0.0]])
    wrapped = gf.wrap_angle(phis)
    assert wrapped.tolist() == [ref(float(p)) for p in phis]
    assert np.all((wrapped > -math.pi) & (wrapped <= math.pi))
    assert type(gf.wrap_angle(-math.pi)) is float and gf.wrap_angle(-math.pi) == math.pi


def test_real_part_checked_raises_on_complex():
    with pytest.raises(ArithmeticError):
        gf.real_part_checked(complex(1.0, 0.5))


def test_real_part_checked_array_names_the_first_failure():
    v = np.array([[1.0, complex(2.0, 1e-12)], [complex(3.0, 0.5), 4.0j]])
    with pytest.raises(ArithmeticError, match=r"too large row 1 col 0$"):
        gf.real_part_checked(v, context=lambda i, k: f"row {i} col {k}")
    assert gf.real_part_checked(v[:1]).tolist() == [[1.0, 2.0]]
