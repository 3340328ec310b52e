"""Weighted Laguerre / Jacobi bases: norms, the series evaluator and the
orthonormal Jacobi streams.

The expansion bases are
    Laguerre:  phi_n(x) = c_n x^alpha e^{-beta x} L_n^nu(x),
               c_n = sqrt(Gamma(n+1)/Gamma(n+nu+1)),    x >= 0,
    Jacobi:    phi_n(x) = c_n (1-x)^alpha (1+x)^beta P_n^{(mu,nu)}(x),
               c_n = sqrt((2n+mu+nu+1)/2^{mu+nu+1}
                          * Gamma(n+1)Gamma(n+mu+nu+1)
                          / (Gamma(n+mu+1)Gamma(n+nu+1))),  -1 <= x <= 1.

Negative integer indices nu = -N-1 (Laguerre) / mu = -N-1 (Jacobi) are legal
for degrees n <= N only; their normalization drops an n-independent singular
Gamma factor, i.e. is fixed up to overall scale.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IndexOutOfValidity
from .gammafn import log_abs_rising, log_gamma_real


_INTEGER_TOL = 1e-9


def negative_integer_index(v: float):
    """N when the index v is the negative integer -N-1 (N >= 0) to within
    1e-9 of max(1, N), else None.  The family matcher and the basis norms
    both decide by this rule."""
    x = -v - 1.0
    r = round(x)
    if r >= 0 and abs(x - r) <= _INTEGER_TOL * max(1.0, abs(x)):
        return int(r)
    return None


def _check_negative_index(param: float, n: int, label: str) -> None:
    n_cap = negative_integer_index(param)   # param = -N-1 allows n <= N
    if n_cap is not None and n > n_cap:
        raise IndexOutOfValidity(
            f"{label} = {param} only valid for degrees n <= {n_cap}, got {n}"
        )


def jacobi_orthonormal_coeffs(mu: float, nu: float, n_terms: int):
    """(s_n, t_n) of the orthonormal Jacobi three-term recursion.

    s_n = C_n = (nu^2 - mu^2) / ((2n+mu+nu)(2n+mu+nu+2)),
    t_n = D_n = 2/(2n+mu+nu+2) sqrt((n+1)(n+mu+1)(n+nu+1)(n+mu+nu+1)
                                     / ((2n+mu+nu+1)(2n+mu+nu+3))).
    These are the z -> infinity limit coefficients of the extended family
    built on the same C_n, D_n.
    """
    s = np.array([jacobi_c(n, mu, nu) for n in range(n_terms)])
    t = np.array([jacobi_d(n, mu, nu) for n in range(n_terms)])
    return s, t


def jacobi_c(n: int, mu: float, nu: float) -> float:
    """C_n = (nu^2 - mu^2)/((2n+mu+nu)(2n+mu+nu+2)), with the n=0 cancellation."""
    if n == 0:
        # (nu-mu)(nu+mu)/((mu+nu)(mu+nu+2)) -> (nu-mu)/(mu+nu+2), valid as mu+nu -> 0
        return (nu - mu) / (mu + nu + 2.0)
    d1 = 2 * n + mu + nu
    d2 = d1 + 2.0
    return (nu * nu - mu * mu) / (d1 * d2)


def jacobi_d(n: int, mu: float, nu: float) -> float:
    """D_n, the orthonormal Jacobi off-diagonal; NaN-free only while real."""
    arg = ((n + 1.0) * (n + mu + 1.0) * (n + nu + 1.0) * (n + mu + nu + 1.0)
           / ((2 * n + mu + nu + 1.0) * (2 * n + mu + nu + 3.0)))
    return 2.0 / (2 * n + mu + nu + 2.0) * math.copysign(math.sqrt(abs(arg)), 1.0) \
        if arg >= 0 else float("nan")


def jacobi_d_squared(n: int, mu: float, nu: float) -> float:
    """Signed square of D_n (negative in the formal finite cases)."""
    arg = ((n + 1.0) * (n + mu + 1.0) * (n + nu + 1.0) * (n + mu + nu + 1.0)
           / ((2 * n + mu + nu + 1.0) * (2 * n + mu + nu + 3.0)))
    return (2.0 / (2 * n + mu + nu + 2.0)) ** 2 * arg


def laguerre_norm(n: int, nu: float) -> float:
    """c_n = sqrt(Gamma(n+1)/Gamma(n+nu+1)).

    For nu = -N-1 (negative integer) the Gamma ratio degenerates; the
    n-independent Gamma(nu+1) is dropped, giving c_n = sqrt(n!/|(nu+1)_n|),
    which fixes the basis up to one overall constant.
    """
    if negative_integer_index(nu) is not None:
        _check_negative_index(nu, n, "Laguerre index nu")
        val = log_gamma_real(n + 1.0) - log_abs_rising(nu + 1.0, n)
    else:
        val = log_gamma_real(n + 1.0) - log_gamma_real(n + nu + 1.0)
    return math.exp(0.5 * val)


def jacobi_norm(n: int, mu: float, nu: float) -> float:
    """c_n of the Jacobi basis element; negative-integer mu or nu handled as
    in ``laguerre_norm`` (singular n-independent factor dropped)."""
    lead = (2 * n + mu + nu + 1.0) / 2.0 ** (mu + nu + 1.0)
    if lead <= 0:
        raise IndexOutOfValidity(f"nonpositive leading norm factor at n={n}")
    if any(negative_integer_index(v) is not None for v in (mu, nu)):
        _check_negative_index(mu, n, "Jacobi index mu")
        _check_negative_index(nu, n, "Jacobi index nu")
        # Gamma(n+a+1)/Gamma(a+1) = (a+1)_n keeps ratios finite for n <= N;
        # a nonpositive-integer mu+nu+1 drops its factor as well
        top = (0.0 if negative_integer_index(mu + nu) is not None
               else log_abs_rising(mu + nu + 1.0, n))
        val = (log_gamma_real(n + 1.0) + top
               - log_abs_rising(mu + 1.0, n) - log_abs_rising(nu + 1.0, n))
    else:
        val = (log_gamma_real(n + 1.0) + log_gamma_real(n + mu + nu + 1.0)
               - log_gamma_real(n + mu + 1.0) - log_gamma_real(n + nu + 1.0))
    return math.sqrt(lead) * math.exp(0.5 * val)


class BasisKind:
    LAGUERRE = "laguerre"
    JACOBI = "jacobi"


def _recursion_step(spec, k: int):
    """(a, b, c, d) of P_{k+1}(x) = ((a + b x) P_k(x) - c P_{k-1}(x)) / d,
    the classical three-term recursion of the spec's polynomials."""
    nu = spec.nu
    if spec.equation == BasisKind.LAGUERRE:
        return 2 * k + nu + 1.0, -1.0, k + nu, k + 1.0
    mu = spec.mu
    if k == 0:
        return 0.5 * (mu - nu), 0.5 * (mu + nu + 2.0), 0.0, 1.0
    c = 2 * k + mu + nu
    a1 = 2.0 * (k + 1.0) * (k + mu + nu + 1.0) * c
    if a1 == 0.0:
        raise IndexOutOfValidity(
            f"Jacobi recursion degenerate at degree {k + 1} for mu={mu}, nu={nu}")
    return ((c + 1.0) * (mu * mu - nu * nu), (c + 1.0) * c * (c + 2.0),
            2.0 * (k + mu) * (k + nu) * (c + 2.0), a1)


def evaluate_series(spec, f, x):
    """(y, y', y'') of the series y(x) = sum_n f_n phi_n(x) on an array x.

    ``spec`` needs attributes equation ("laguerre"|"jacobi"), alpha, beta,
    nu (and mu for Jacobi).  One pass over n carries (P_n, P_n', P_n'')
    through the classical recursion differentiated term by term, and the
    product rule on the weight x^alpha e^{-beta x} or (1-x)^alpha (1+x)^beta
    supplies the weight's share of the derivatives.  Trailing zero
    coefficients are dropped, so a negative-integer index only limits the
    degrees that carry a term.  y' and y'' are nan at an endpoint of the
    domain (x = 0, x = +-1), where the weight need not be differentiable.
    """
    x = np.asarray(x, dtype=float)
    f = np.trim_zeros(np.asarray(f, dtype=float), "b")
    if spec.equation == BasisKind.LAGUERRE:
        outside = x < 0
        if np.any(outside):
            raise DomainError(f"Laguerre basis needs x >= 0, got {x[outside][0]}")
        fc = [fn * laguerre_norm(n, spec.nu) if fn else 0.0 for n, fn in enumerate(f)]
        inside = x > 0
        t = np.where(inside, x, 1.0)
        weight = x ** spec.alpha * np.exp(-spec.beta * x)
        g = spec.alpha / t - spec.beta                      # w'/w
        dg = -spec.alpha / (t * t)
    elif spec.equation == BasisKind.JACOBI:
        outside = ~((x >= -1.0) & (x <= 1.0))
        if np.any(outside):
            raise DomainError(f"Jacobi basis needs -1 <= x <= 1, got {x[outside][0]}")
        fc = [fn * jacobi_norm(n, spec.mu, spec.nu) if fn else 0.0
              for n, fn in enumerate(f)]
        inside = np.abs(x) < 1.0
        om = np.where(inside, 1.0 - x, 1.0)
        op = np.where(inside, 1.0 + x, 1.0)
        weight = (1.0 - x) ** spec.alpha * (1.0 + x) ** spec.beta
        g = spec.beta / op - spec.alpha / om                # w'/w
        dg = -spec.alpha / (om * om) - spec.beta / (op * op)
    else:
        raise ValueError(f"unknown basis equation {spec.equation!r}")
    zero = np.zeros_like(x)
    prev = (zero, zero, zero)
    cur = (np.ones_like(x), zero, zero)
    s0, s1, s2 = zero, zero, zero
    for n, fcn in enumerate(fc):
        if n > 0:
            a, b, c, d = _recursion_step(spec, n - 1)
            lin = a + b * x
            prev, cur = cur, ((lin * cur[0] - c * prev[0]) / d,
                              (lin * cur[1] + b * cur[0] - c * prev[1]) / d,
                              (lin * cur[2] + 2.0 * b * cur[1] - c * prev[2]) / d)
        s0 = s0 + fcn * cur[0]
        s1 = s1 + fcn * cur[1]
        s2 = s2 + fcn * cur[2]
    y = weight * s0
    dy = weight * (s1 + g * s0)
    d2y = weight * (s2 + 2.0 * g * s1 + (g * g + dg) * s0)
    return y, np.where(inside, dy, np.nan), np.where(inside, d2y, np.nan)
