"""Log-gamma and signed-log rising factorials.

Everything downstream (weights, normalization prefactors, phase shifts) is
built on scipy's complex log-gamma, so the same code path serves
|Gamma(x+iy)|^2 and arg Gamma(z), and a phase-shift grid is one array call.
Every weight normalization is one exp of a sum of ``log_gamma_real`` /
``log_abs_rising`` terms, with its sign carried apart, so no gamma product is
formed in linear space where it could overflow.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma

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
        if np.count_nonzero(pole):
            raise ZeroDivisionError(f"log_gamma pole at z = {z[pole][0]}")
        return lg
    if lg != lg and cmath.isfinite(z):   # scipy returns nan at the poles
        raise ZeroDivisionError(f"log_gamma pole at z = {z}")
    return complex(lg)


def log_gamma_real(x: float) -> float:
    """log |Gamma(x)| for real non-pole x; raises at the x <= 0 poles."""
    return log_gamma(x).real


def log_abs_rising(x: float, k: int) -> float:
    """log |(x)_k| with the gammas off their poles: (x)_k = (-1)^k Gamma(1-x)
    / Gamma(1-x-k) while every factor is negative; -inf for a zero factor."""
    if x + k < 1.0:
        return log_gamma_real(1.0 - x) - log_gamma_real(1.0 - x - k)
    if x <= 0.0 and x == math.floor(x):
        return -math.inf
    return log_gamma_real(x + k) - log_gamma_real(x)


def arg_gamma(z):
    """arg Gamma(z) wrapped to (-pi, pi]; z a scalar or an array."""
    return wrap_angle(log_gamma(z).imag)


def real_part_checked(value, rel_tol: float = 1e-10, context=""):
    """The real part of a complex scalar or array, asserting that every
    imaginary residue is negligible against max(1, |value|).  ``context``
    names the value; for an array it is a function of the index of the
    first element that fails, in C order."""
    v = np.asarray(value)
    bad = np.abs(v.imag) > rel_tol * np.maximum(1.0, np.abs(v))
    if bad.any():
        where = np.unravel_index(np.argmax(bad), v.shape)
        name = context(*where) if v.ndim else context
        raise ArithmeticError(
            f"imaginary residue {v[where].imag:.3e} too large {name}".strip())
    return v.real if v.ndim else float(v.real)


def wrap_angle(phi):
    """Reduce an angle (a float or an array) to (-pi, pi].  fmod and the one
    shift by 2 pi are exact, so this is math.remainder with -pi sent to pi."""
    w = np.fmod(phi, _TWO_PI)
    w = np.where(w > math.pi, w - _TWO_PI, w)
    w = np.where(w <= -math.pi, w + _TWO_PI, w)
    return w if w.ndim else float(w)
