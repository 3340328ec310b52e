"""Log-gamma, Pochhammer symbols and binomial coefficients.

Everything downstream (weights, normalization prefactors, phase shifts) is
built on a Lanczos log-gamma that accepts real or complex argument, so the
same code path serves |Gamma(x+iy)|^2 and arg Gamma(z).
"""

from __future__ import annotations

import cmath
import math

from .errors import NumericalOverflow

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364056176

_POCHHAMMER_PRODUCT_MAX = 64  # direct product below, log-gamma ratio above


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for real or complex z.

    Uses the reflection formula for Re z < 0.5.  Poles (non-positive
    integers) raise ZeroDivisionError through the sin factor.
    """
    z = complex(z)
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return cmath.log(cmath.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    z -= 1.0
    x = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        x += _LANCZOS_COEFFS[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z).  Past |Im pi z| = 700, where sin itself overflows, it
    uses sin w = (i/2) e^{-iw} (1 - e^{2iw}) for Im w > 0 (the conjugate
    below); e^{2iw} is then below 1e-600 and drops out."""
    w = cmath.pi * z
    if abs(w.imag) <= 700.0:
        s = cmath.sin(w)
        if s == 0:
            raise ZeroDivisionError(f"log_gamma pole at z = {z}")
        return cmath.log(s)
    if w.imag > 0:
        return -1j * w + cmath.log(0.5j)
    return 1j * w + cmath.log(-0.5j)


def log_gamma_real(x: float) -> float:
    """log |Gamma(x)| for real non-pole x > 0; raises for x <= 0 poles."""
    if x <= 0.0 and x == math.floor(x):
        raise ZeroDivisionError(f"log_gamma pole at x = {x}")
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


def arg_gamma(z: complex) -> float:
    """arg Gamma(z) wrapped to (-pi, pi]."""
    phase = log_gamma(z).imag
    wrapped = math.remainder(phase, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


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


def wrap_angle(phi: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = math.remainder(phi, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float (n can be large)."""
    if k < 0 or k > n:
        return 0.0
    return math.exp(
        log_gamma_real(n + 1.0) - log_gamma_real(k + 1.0) - log_gamma_real(n - k + 1.0)
    )

