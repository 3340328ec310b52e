"""Log-gamma, Pochhammer symbols and binomial coefficients.

Everything downstream (weights, normalization prefactors, phase shifts) is
built on scipy's complex log-gamma, so the same code path serves
|Gamma(x+iy)|^2 and arg Gamma(z), and a phase-shift grid is one array call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma

from .errors import NumericalOverflow

_POCHHAMMER_PRODUCT_MAX = 64  # direct product below, log-gamma ratio above
_TWO_PI = 2.0 * math.pi


def log_gamma(z):
    """log Gamma(z) for real or complex z, a scalar or an array
    (scipy.special.loggamma: the branch continuous off the negative real
    axis).  A scalar in gives a Python complex out.  Poles (non-positive
    integers) raise ZeroDivisionError.
    """
    lg = loggamma(z + 0j)
    if isinstance(lg, np.ndarray):
        pole = np.isnan(lg) & np.isfinite(z)
        if pole.any():
            raise ZeroDivisionError(f"log_gamma pole at z = {z[pole][0]}")
        return lg
    if lg != lg and cmath.isfinite(z):   # scipy returns nan at the poles
        raise ZeroDivisionError(f"log_gamma pole at z = {z}")
    return complex(lg)


def log_gamma_real(x: float) -> float:
    """log |Gamma(x)| for real non-pole x; raises at the x <= 0 poles."""
    return log_gamma(x).real


def gamma_fn(z: complex) -> complex:
    """Gamma(z) via exp(log_gamma); raises NumericalOverflow when too large."""
    lg = log_gamma(z)
    if lg.real > 700.0:
        raise NumericalOverflow(f"Gamma({z}) overflows double precision")
    return cmath.exp(lg)


def abs_gamma_sq(x: float, y: float) -> float:
    """|Gamma(x + iy)|^2 computed as exp(2 Re log Gamma(x + iy))."""
    two_re = 2.0 * log_gamma(complex(x, y)).real
    if two_re > 700.0:
        raise NumericalOverflow(f"|Gamma({x}+{y}i)|^2 overflows")
    return math.exp(two_re)


def arg_gamma(z):
    """arg Gamma(z) wrapped to (-pi, pi]; z a scalar or an array."""
    return wrap_angle(log_gamma(z).imag)


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n.

    Direct product for n <= 64; log-gamma ratio exp(lgamma(a+n) - lgamma(a))
    above that.  The ratio branch assumes a is not at / does not cross a pole,
    which holds for every admissible family parameter here; the direct product
    handles negative reals (including exact zeros of the product) for small n.
    """
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    if n == 0:
        return 1.0
    if n <= _POCHHAMMER_PRODUCT_MAX:
        out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
        for k in range(n):
            out *= a + k
        return out
    return cmath.exp(log_gamma(a + n) - log_gamma(a))


def pochhammer_real(a: float, n: int) -> float:
    """Rising factorial for real a, returned as float."""
    v = pochhammer(a, n)
    return v.real if isinstance(v, complex) else v


def real_part_checked(value: complex, rel_tol: float = 1e-10, context: str = "") -> float:
    """Return the real part, asserting the imaginary residue is negligible."""
    scale = max(1.0, abs(value))
    if abs(value.imag) > rel_tol * scale:
        raise ArithmeticError(
            f"imaginary residue {value.imag:.3e} too large {context or ''}".strip()
        )
    return value.real


def wrap_angle(phi):
    """Reduce an angle (a float or an array) to (-pi, pi].  fmod and the one
    shift by 2 pi are exact, so this is math.remainder with -pi sent to pi."""
    w = np.fmod(phi, _TWO_PI)
    w = np.where(w > math.pi, w - _TWO_PI, w)
    w = np.where(w <= -math.pi, w + _TWO_PI, w)
    return w if w.ndim else float(w)


def binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float (n can be large)."""
    if k < 0 or k > n:
        return 0.0
    return math.exp(
        log_gamma_real(n + 1.0) - log_gamma_real(k + 1.0) - log_gamma_real(n - k + 1.0)
    )

