"""Independent references for the benchmark's correctness checks.

They are written here from the textbook definitions (Koekoek, Lesky and
Swarttouw, "Hypergeometric Orthogonal Polynomials and Their q-Analogues",
chapter 9) in mpmath arithmetic and share no code with the program.  The
normalization and sign of each polynomial follow the program's documented
convention: orthonormal with respect to a unit-mass weight, P_0 = 1.

``polytable_reference(family, params, z, n)`` takes the raw recursion
variable z that ``triseries polytable --z`` takes and maps it back to the
family's natural argument.
"""

from __future__ import annotations

import math

import mpmath as mp

# The terminating sums cancel heavily at high degree (terms grow far beyond
# the result), so the working precision is doubled until two evaluations agree.
_DPS_START = 40
_DPS_MAX = 1280
_AGREE = 1e-13


def _terminating(n, factor):
    """1 + sum_{j=1..n} prod_{i<j} factor(i), the terminating series whose
    term ratio term_{j+1}/term_j is factor(j)."""
    total = mp.mpf(1)
    term = mp.mpf(1)
    for j in range(n):
        term *= factor(j)
        total += term
    return total


def polytable_reference(family: str, p: dict, z: float, n: int) -> float:
    """Normalized P_n at recursion variable z for one polytable family."""
    if n == 0:
        return 1.0
    dps, prev = _DPS_START, None
    while True:
        with mp.workdps(dps):
            val = _polytable_value(family, p, mp.mpf(z), n)
        if prev is not None and abs(val - prev) <= _AGREE * max(1.0, abs(val)):
            return val
        if dps >= _DPS_MAX:
            raise ArithmeticError(
                f"{family} P_{n}: reference did not settle by {dps} digits")
        dps, prev = 2 * dps, val


def _polytable_value(family, p, z, n):
    if family == "meixner_pollaczek":
        mu, th = mp.mpf(p["mu"]), mp.mpf(p["theta"])
        x = 1 - mp.exp(-2j * th)
        s = _terminating(n, lambda j: (-n + j) * (mu + 1j * z + j)
                         / ((2 * mu + j) * (j + 1)) * x)
        val = mp.sqrt(mp.rf(2 * mu, n) / mp.factorial(n)) \
            * mp.exp(1j * n * th) * s
        return float(mp.re(val))
    if family == "meixner":
        mu, tau = mp.mpf(p["mu"]), mp.mpf(p["tau"])
        k = z / (tau - 1)
        x = 1 - 1 / tau
        s = _terminating(n, lambda j: (-n + j) * (-k + j)
                         / ((2 * mu + j) * (j + 1)) * x)
        return float(mp.sqrt(mp.rf(2 * mu, n) / mp.factorial(n))
                     * tau ** (mp.mpf(n) / 2) * s)
    if family == "krawtchouk":
        N, tau = int(p["N"]), mp.mpf(p["tau"])
        k = z * mp.sqrt(tau * (1 - tau))
        s = _terminating(n, lambda j: (-n + j) * (-k + j)
                         / ((-N + j) * (j + 1)) / tau)
        return float(mp.sqrt(mp.binomial(N, n))
                     * (tau / (1 - tau)) ** (mp.mpf(n) / 2) * s)
    if family == "continuous_dual_hahn":
        tau, a = mp.mpf(p["tau"]), mp.mpf(p["a"])
        b = mp.mpf(p.get("b", p["a"]))
        # (tau + i x)_j (tau - i x)_j with x^2 = w = z
        s = _terminating(n, lambda j: (-n + j) * ((tau + j) ** 2 + z)
                         / ((tau + a + j) * (tau + b + j) * (j + 1)))
        pref = mp.sqrt(mp.rf(tau + a, n) * mp.rf(tau + b, n)
                       / (mp.factorial(n) * mp.rf(a + b, n)))
        return float(pref * s)
    if family == "dual_hahn":
        N = int(p["N"])
        tau, sg = mp.mpf(p["tau"]), mp.mpf(p["sigma"])
        c = tau + sg + 1
        # (-k)_j (k + c)_j = prod (i(i + c) - lambda), lambda = k(k + c),
        # and the recursion variable is z = (k + c/2)^2 = lambda + c^2/4
        lam = z - c * c / 4
        s = _terminating(n, lambda j: (-n + j) * (j * (j + c) - lam)
                         / ((tau + 1 + j) * (-N + j) * (j + 1)))
        pref = mp.sqrt(mp.rf(tau + 1, n) * mp.rf(N - n + 1, n)
                       / (mp.factorial(n) * mp.rf(N + sg - n + 1, n)))
        return float(pref * s)
    if family == "wilson":
        a, b, c, d = (mp.mpf(p[k]) for k in ("a", "b", "c", "d"))
        s4 = a + b + c + d
        s = _terminating(n, lambda j: (-n + j) * (n + s4 - 1 + j)
                         * ((a + j) ** 2 + z)
                         / ((a + b + j) * (a + c + j) * (a + d + j)
                            * (j + 1)))
        front = mp.rf(a + b, n) * mp.rf(a + c, n) * mp.rf(a + d, n)
        norm = ((2 * n + s4 - 1) / (n + s4 - 1) * mp.rf(s4, n)
                / (front * mp.rf(b + c, n) * mp.rf(b + d, n)
                   * mp.rf(c + d, n) * mp.factorial(n)))
        return float(front * s * mp.sqrt(norm))
    if family == "racah":
        N = int(p["N"])
        g, sg = mp.mpf(p["gamma"]), mp.mpf(p["sigma"])
        gs = g + sg
        # (-k)_j (k - N)_j = prod ((i - N/2)^2 - z), z = (N - 2k)^2 / 4
        s = _terminating(n, lambda j: (-n + j) * (n + gs + 1 + j)
                         * ((j - mp.mpf(N) / 2) ** 2 - z)
                         / ((g + 1 + j) * (sg + 1 + j) * (-N + j) * (j + 1)))
        pref = mp.sqrt((2 * n + gs + 1) / (n + gs + 1)
                       * mp.factorial(N) / mp.factorial(N - n)
                       * mp.rf(gs + 2, n)
                       / (mp.rf(gs + N + 2, n) * mp.factorial(n)))
        return float(pref * s)
    raise ValueError(f"no reference for family {family!r}")


def coulomb_phase(Z: float, ell: int, E: float) -> float:
    """sigma_l = arg Gamma(l + 1 - i Z / k), k = sqrt(2E), wrapped to (-pi, pi]."""
    with mp.workdps(30):
        k = mp.sqrt(2 * mp.mpf(E))
        phase = mp.im(mp.loggamma(mp.mpc(ell + 1, -mp.mpf(Z) / k)))
        wrapped = math.remainder(float(phase), 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped
