"""Weighted Laguerre / Jacobi bases: norms, the series evaluator and the
orthonormal Jacobi recursion coefficients.

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

from .errors import DegenerateDenominator, DomainError, IndexOutOfValidity
from .gammafn import log_gamma


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


def _validate(d, lead, *indices) -> bool:
    """Raise IndexOutOfValidity at the first degree of d with lead <= 0 or past the cap
    N of an index v = -N-1, as per-degree calls would; True if an index is capped."""
    checks = [(lead <= 0, "nonpositive leading norm factor at n={}")] + [
        (d > cap, f"{label} = {v} only valid for degrees n <= {cap}, got {{}}")
        for v, label in indices if (cap := negative_integer_index(v)) is not None]
    fails = [(int(np.argmax(bad)), msg) for bad, msg in checks if np.count_nonzero(bad)]
    if fails:   # the first failing degree; at a tie the first check, as min is stable
        pos, msg = min(fails, key=lambda fail: fail[0])
        raise IndexOutOfValidity(msg.format(d[pos]))
    return len(checks) > 1


def _log_rising(d, xs):
    """log Gamma(d+1) and the rows log|(x)_d|, x in xs, from one log_gamma call,
    on the branches of ``gammafn.log_abs_rising`` (reflected where x + d < 1)."""
    x = np.array(xs)[:, None]
    refl = x + d < 1.0
    lg = log_gamma(np.vstack((d + 1.0, np.where(refl, 1.0 - x, x + d),
                              np.where(refl, 1.0 - x - d, x)))).real
    return lg[0], lg[1:len(xs) + 1] - lg[len(xs) + 1:]


def jacobi_cd(mu: float, nu: float, n_terms: int):
    """(C_n, D_n, D_n^2), n < n_terms, of the orthonormal Jacobi three-term
    recursion (diagonal C_n, off-diagonal D_n):

        C_n = (nu^2 - mu^2) / ((2n+mu+nu)(2n+mu+nu+2)),
        D_n = 2/(2n+mu+nu+2) sqrt((n+1)(n+mu+1)(n+nu+1)(n+mu+nu+1)
                                   / ((2n+mu+nu+1)(2n+mu+nu+3))).

    D_n^2 is signed: negative in the formal finite cases, where D_n is nan.
    DegenerateDenominator where a denominator vanishes.
    """
    n = np.arange(n_terms, dtype=float)
    e = 2.0 * n + mu + nu
    # the denominators: 2n+mu+nu (n > 0) and 2n+mu+nu+1, +2, +3
    zero = np.nonzero(np.where(n > 0, e, 1.0) * (e + 1.0) * (e + 2.0) * (e + 3.0)
                      == 0.0)[0]
    if zero.size:
        raise DegenerateDenominator(f"a Jacobi recursion denominator vanishes at "
                                    f"n = {zero[0]} (mu + nu = {mu + nu})")
    c = (nu * nu - mu * mu) / np.where(n > 0, e * (e + 2.0), 1.0)
    # (nu-mu)(nu+mu)/((mu+nu)(mu+nu+2)) -> (nu-mu)/(mu+nu+2), valid as mu+nu -> 0
    c[:1] = (nu - mu) / (mu + nu + 2.0)
    arg = ((n + 1.0) * (n + mu + 1.0) * (n + nu + 1.0) * (n + mu + nu + 1.0)
           / ((e + 1.0) * (e + 3.0)))
    g = 2.0 / (e + 2.0)
    d = np.where(arg >= 0, g * np.sqrt(np.abs(arg)), np.nan)
    # float_power squares through libm pow, as a float's g ** 2 does; g * g
    # may differ from it in the last bit
    return c, d, np.float_power(g, 2) * arg


def laguerre_norm(n, nu: float):
    """c_n = sqrt(Gamma(n+1)/Gamma(n+nu+1)) for a degree n or an array of them.

    For nu = -N-1 (negative integer) the Gamma ratio degenerates; the
    n-independent Gamma(nu+1) is dropped, giving c_n = sqrt(n!/|(nu+1)_n|),
    which fixes the basis up to one overall constant.
    """
    d = np.atleast_1d(n)
    if not _validate(d, 1.0, (nu, "Laguerre index nu")):
        g, h = log_gamma(d + np.array([[1.0], [nu]]) + [[0.0], [1.0]]).real
    else:
        g, (h,) = _log_rising(d, [nu + 1.0])
    c = [math.exp(0.5 * v) for v in (g - h).tolist()]   # np.exp may differ by an ulp
    return np.array(c) if np.ndim(n) else c[0]


def jacobi_norm(n, mu: float, nu: float):
    """c_n of the Jacobi basis element for a degree n or an array of them; a
    negative-integer mu or nu is handled as in ``laguerre_norm``."""
    d = np.atleast_1d(n)
    lead = (2 * d + mu + nu + 1.0) / 2.0 ** (mu + nu + 1.0)
    if not _validate(d, lead, (mu, "Jacobi index mu"), (nu, "Jacobi index nu")):
        args = d + np.array([[0.0], [mu], [mu], [nu]])   # n, n+mu, n+mu, n+nu
        args[1] += nu
        g, h, i, j = log_gamma(args + 1.0).real   # summed as in n + mu + nu + 1
    else:
        # (a+1)_n is finite for n <= N; a negative-integer mu+nu drops (mu+nu+1)_n
        top = negative_integer_index(mu + nu) is None
        g, (i, j, *h) = _log_rising(d, [mu + 1.0, nu + 1.0] + [mu + nu + 1.0] * top)
        h = h[0] if top else 0.0
    c = [math.sqrt(a) * math.exp(0.5 * v)
         for a, v in zip(lead.tolist(), (g + h - i - j).tolist())]
    return np.array(c) if np.ndim(n) else c[0]


def _recursion_steps(spec, n_steps: int):
    """Rows (a, b, c, d), k < n_steps, of P_{k+1} = ((a + b x) P_k - c P_{k-1}) / d:
    four array calls for Laguerre; cheaper scalar steps for Jacobi's short chains."""
    if spec.equation == "laguerre":
        k = np.arange(n_steps)
        return 2 * k + spec.nu + 1.0, np.full(n_steps, -1.0), k + spec.nu, k + 1.0
    mu, nu = spec.mu, spec.nu
    steps = [(0.5 * (mu - nu), 0.5 * (mu + nu + 2.0), 0.0, 1.0)]
    for k in range(1, n_steps):
        e = 2 * k + mu + nu
        d = 2.0 * (k + 1.0) * (k + mu + nu + 1.0) * e
        if d == 0.0:
            raise IndexOutOfValidity(
                f"Jacobi recursion degenerate at degree {k + 1} for mu={mu}, nu={nu}")
        steps.append(((e + 1.0) * (mu * mu - nu * nu), (e + 1.0) * e * (e + 2.0),
                      2.0 * (k + mu) * (k + nu) * (e + 2.0), d))
    return np.array(steps).T


def evaluate_series(spec, f, x, derivatives: bool = True):
    """(y, y', y'') of the series y(x) = sum_n f_n phi_n(x) on an array x,
    or y alone when ``derivatives`` is false.

    ``spec`` needs attributes equation ("laguerre"|"jacobi"), alpha, beta,
    nu (and mu for Jacobi).  One pass over n carries (P_n, P_n', P_n'') as
    one array through the classical recursion differentiated term by term,
    and the product rule on the weight x^alpha e^{-beta x} or (1-x)^alpha
    (1+x)^beta supplies the weight's share of the derivatives.  Trailing
    zero coefficients are dropped, so a negative-integer index only limits
    the degrees that carry a term.  y' and y'' are nan at an endpoint of the
    domain (x = 0, x = +-1), where the weight need not be differentiable.
    y alone carries P_n only, in the same operations, so it is the same y
    bit for bit.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    terms = np.flatnonzero(f)
    f = f[:terms[-1] + 1 if terms.size else 0]
    if spec.equation == "laguerre":
        outside = x < 0
        if np.count_nonzero(outside):
            raise DomainError(f"Laguerre basis needs x >= 0, got {x[outside][0]}")
        norms = laguerre_norm(terms, spec.nu)
        weight = x ** spec.alpha * np.exp(-spec.beta * x)
    elif spec.equation == "jacobi":
        outside = ~((x >= -1.0) & (x <= 1.0))
        if np.count_nonzero(outside):
            raise DomainError(f"Jacobi basis needs -1 <= x <= 1, got {x[outside][0]}")
        norms = jacobi_norm(terms, spec.mu, spec.nu)
        weight = (1.0 - x) ** spec.alpha * (1.0 + x) ** spec.beta
    else:
        raise ValueError(f"unknown basis equation {spec.equation!r}")
    fc = np.zeros_like(f)
    fc[terms] = f[terms] * norms
    if f.size > 1:
        a, b, c, d = _recursion_steps(spec, f.size - 1)
        lin = a[:, None] + b[:, None] * x.ravel()
        b2 = np.multiply.outer(b, [[1.0], [2.0]])   # P' gains b P, P'' gains 2b P'
    prev, cur, s = np.zeros((3, 3 if derivatives else 1, x.size))
    cur[0] = 1.0
    for n, fcn in enumerate(fc.tolist()):
        if n > 0:
            nxt = lin[n - 1] * cur
            if derivatives:
                nxt[1:] += b2[n - 1] * cur[:2]
            nxt -= c[n - 1] * prev
            nxt /= d[n - 1]
            prev, cur = cur, nxt
        s += fcn * cur
    y = weight * s[0].reshape(x.shape)
    if not derivatives:
        return y
    if spec.equation == "laguerre":   # g = w'/w and its derivative dg
        inside = x > 0
        t = np.where(inside, x, 1.0)
        g, dg = spec.alpha / t - spec.beta, -spec.alpha / (t * t)
    else:
        inside = np.abs(x) < 1.0
        om = np.where(inside, 1.0 - x, 1.0)
        op = np.where(inside, 1.0 + x, 1.0)
        g = spec.beta / op - spec.alpha / om
        dg = -spec.alpha / (om * om) - spec.beta / (op * op)
    s0, s1, s2 = s.reshape((3,) + x.shape)
    dy = weight * (s1 + g * s0)
    d2y = weight * (s2 + 2.0 * g * s1 + (g * g + dg) * s0)
    return y, np.where(inside, dy, np.nan), np.where(inside, d2y, np.nan)
