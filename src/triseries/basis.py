"""Weighted Laguerre / Jacobi bases: the series evaluator and the
orthonormal Jacobi recursion coefficients.

The expansion bases are
    Laguerre:  phi_n(x) = x^alpha e^{-beta x} p_n(x),             x >= 0,
    Jacobi:    phi_n(x) = (1-x)^alpha (1+x)^beta p_n(x),     -1 <= x <= 1,
where p_n is the orthonormal polynomial of the measure x^nu e^{-x} dx or
(1-x)^mu (1+x)^nu dx, that is c_n L_n^nu or c_n P_n^{(mu,nu)} with
    c_n = sqrt(Gamma(n+1)/Gamma(n+nu+1)),
    c_n = sqrt((2n+mu+nu+1)/2^{mu+nu+1}
               * Gamma(n+1)Gamma(n+mu+nu+1)/(Gamma(n+mu+1)Gamma(n+nu+1))).
The p_n follow x p_k = t_{k-1} p_{k-1} + s_k p_k + t_k p_{k+1} from
    Laguerre:  s_k = 2k+nu+1, t_k = -sqrt((k+1)(k+nu+1)), p_0 = Gamma(nu+1)^{-1/2},
    Jacobi:    s_k = C_k, t_k = D_k of ``jacobi_cd``,
               p_0 = (2^{mu+nu+1} Gamma(mu+1)Gamma(nu+1)/Gamma(mu+nu+2))^{-1/2},
so no degree is normalized on its own.  Each index must exceed -1, where the
measure is finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDenominator, DomainError, NonFiniteValue
from .gammafn import log_gamma


_INTEGER_TOL = 1e-9


def negative_integer_index(v: float):
    """N when the index v is the negative integer -N-1 (N >= 0) to within
    1e-9 of max(1, N), else None: the family matcher's finite-family rule."""
    x = -v - 1.0
    r = round(x)
    if r >= 0 and abs(x - r) <= _INTEGER_TOL * max(1.0, abs(x)):
        return int(r)
    return None


def jacobi_cd(mu: float, nu: float, n_terms: int):
    """(C_n, D_n, D_n^2), n < n_terms, of the orthonormal Jacobi three-term
    recursion (diagonal C_n, off-diagonal D_n):

        C_n = (nu^2 - mu^2) / ((2n+mu+nu)(2n+mu+nu+2)),
        D_n = 2/(2n+mu+nu+2) sqrt((n+1)(n+mu+1)(n+nu+1)(n+mu+nu+1)
                                   / ((2n+mu+nu+1)(2n+mu+nu+3))).

    D_n^2 is signed: negative in the formal finite cases, where D_n is nan.
    DegenerateDenominator where a denominator vanishes, and NonFiniteValue
    where a product overflows (|mu| or |nu| past ~1e150).
    """
    n = np.arange(n_terms, dtype=float)
    e = 2.0 * n + mu + nu
    # each denominator e + k on its own (their product can overflow): 0 iff e = -k
    zero = np.nonzero((np.where(n > 0, e, 1.0) == 0.0) | (e == -1.0) | (e == -2.0)
                      | (e == -3.0))[0]
    if zero.size:
        raise DegenerateDenominator(f"a Jacobi recursion denominator vanishes at "
                                    f"n = {zero[0]} (mu + nu = {mu + nu})")
    c = (nu * nu - mu * mu) / np.where(n > 0, e * (e + 2.0), 1.0)
    # (nu-mu)(nu+mu)/((mu+nu)(mu+nu+2)) -> (nu-mu)/(mu+nu+2), valid as mu+nu -> 0
    c[:1] = (nu - mu) / (mu + nu + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = ((n + 1.0) * (n + mu + 1.0) * (n + nu + 1.0) * (n + mu + nu + 1.0)
               / ((e + 1.0) * (e + 3.0)))
    if not np.isfinite(arg).all():
        raise NonFiniteValue(f"the Jacobi recursion overflows at mu = {mu}, nu = {nu}")
    g = 2.0 / (e + 2.0)
    d = np.where(arg >= 0, g * np.sqrt(np.abs(arg)), np.nan)
    # float_power squares through libm pow, as a float's g ** 2 does; g * g
    # may differ from it in the last bit
    return c, d, np.float_power(g, 2) * arg


def evaluate_series(spec, f, x, derivatives: bool = True):
    """(y, y', y'') of the series y(x) = sum_n f_n phi_n(x) on an array x,
    or y alone when ``derivatives`` is false.

    ``spec`` needs attributes equation ("laguerre"|"jacobi"), alpha, beta,
    nu (and mu for Jacobi); an index <= -1 raises DomainError.  One pass
    over n carries (p_n, p_n', p_n'') as one array through the orthonormal
    recursion differentiated term by term, and the product rule on the
    weight x^alpha e^{-beta x} or (1-x)^alpha (1+x)^beta supplies the
    weight's share of the derivatives.  Trailing zero coefficients are
    dropped.  y' and y'' are nan at an endpoint of the domain (x = 0,
    x = +-1), where the weight need not be differentiable.  y alone carries
    p_n only, in the same operations, so it is the same y bit for bit.
    """
    x = np.asarray(x, dtype=float)
    f = np.trim_zeros(np.asarray(f, dtype=float), "b")
    steps = max(f.size - 1, 0)
    if spec.equation == "laguerre":
        nu = spec.nu
        if not nu > -1.0:
            raise DomainError(f"Laguerre basis needs nu > -1, got {nu}")
        outside = x < 0
        if np.count_nonzero(outside):
            raise DomainError(f"Laguerre basis needs x >= 0, got {x[outside][0]}")
        k = np.arange(steps, dtype=float)
        s, t = 2.0 * k + nu + 1.0, -np.sqrt((k + 1.0) * (k + nu + 1.0))
        log_mass = log_gamma(nu + 1.0).real
        weight = x ** spec.alpha * np.exp(-spec.beta * x)
    elif spec.equation == "jacobi":
        mu, nu = spec.mu, spec.nu
        if not (mu > -1.0 and nu > -1.0):
            raise DomainError(f"Jacobi basis needs mu, nu > -1, got {mu}, {nu}")
        outside = ~((x >= -1.0) & (x <= 1.0))
        if np.count_nonzero(outside):
            raise DomainError(f"Jacobi basis needs -1 <= x <= 1, got {x[outside][0]}")
        s, t, _ = jacobi_cd(mu, nu, steps)
        lg = log_gamma(np.array([mu + 1.0, nu + 1.0, mu + nu + 2.0])).real
        log_mass = (mu + nu + 1.0) * math.log(2.0) + lg[0] + lg[1] - lg[2]
        weight = (1.0 - x) ** spec.alpha * (1.0 + x) ** spec.beta
    else:
        raise ValueError(f"unknown basis equation {spec.equation!r}")
    lin = x.ravel() - s[:, None]
    t_prev = np.concatenate(([0.0], t[:-1]))
    shares = np.array([[1.0], [2.0]])   # p' gains p, p'' gains 2 p'
    prev, cur, acc = np.zeros((3, 3 if derivatives else 1, x.size))
    cur[0] = math.exp(-0.5 * log_mass)
    for n, fn in enumerate(f.tolist()):
        if n > 0:
            nxt = lin[n - 1] * cur
            if derivatives:
                nxt[1:] += shares * cur[:2]
            nxt -= t_prev[n - 1] * prev
            nxt /= t[n - 1]
            prev, cur = cur, nxt
        acc += fn * cur
    y = weight * acc[0].reshape(x.shape)
    if not derivatives:
        return y
    if spec.equation == "laguerre":   # g = w'/w and its derivative dg
        inside = x > 0
        xi = np.where(inside, x, 1.0)
        g, dg = spec.alpha / xi - spec.beta, -spec.alpha / (xi * xi)
    else:
        inside = np.abs(x) < 1.0
        om = np.where(inside, 1.0 - x, 1.0)
        op = np.where(inside, 1.0 + x, 1.0)
        g = spec.beta / op - spec.alpha / om
        dg = -spec.alpha / (om * om) - spec.beta / (op * op)
    s0, s1, s2 = acc.reshape((3,) + x.shape)
    dy = weight * (s1 + g * s0)
    d2y = weight * (s2 + 2.0 * g * s1 + (g * g + dg) * s0)
    return y, np.where(inside, dy, np.nan), np.where(inside, d2y, np.nan)
