"""The concrete orthogonal-polynomial families.

Each family provides the (s_n, t_n) streams of its symmetric three-term
recursion in the normalization where the orthonormality weight integrates
(or sums) to one, plus, where it exists, the terminating-hypergeometric
closed form and the weight itself.  Two of the families (the extended
Jacobi-recursion families with continuous and discrete argument) are
recursion-only objects: no closed form or weight is known for them.

Sign conventions are fixed so that ``run_recursion`` on ``family_coeffs``
reproduces ``closed_form`` exactly; the test-suite enforces this for every
family over random admissible parameter draws.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidFamilyParams, NoClosedForm
from .gammafn import (binomial, gamma_fn, log_gamma,
                      log_gamma_real, pochhammer, pochhammer_real,
                      real_part_checked)
from .recurrence import RecursionCoeffs, run_recursion


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeixnerPollaczek:
    """Two-parameter continuous family; argument z real."""
    mu: float
    theta: float

    def validate(self):
        if not self.mu > 0:
            raise InvalidFamilyParams(f"Meixner-Pollaczek needs mu > 0, got {self.mu}")
        if not 0.0 < self.theta < math.pi:
            raise InvalidFamilyParams(f"needs 0 < theta < pi, got {self.theta}")


@dataclass(frozen=True)
class Meixner:
    """Discrete family on k = 0, 1, 2, ...; tau in (0, 1)."""
    mu: float
    tau: float

    def validate(self):
        if not self.mu > 0:
            raise InvalidFamilyParams(f"Meixner needs mu > 0, got {self.mu}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidFamilyParams(f"Meixner needs 0 < tau < 1, got {self.tau}")


@dataclass(frozen=True)
class Krawtchouk:
    """Finite discrete family on k = 0..N; tau in (0, 1).

    Streams are for the real (untwisted) normalized polynomials divided by
    sqrt(tau(1-tau)), i.e. spectral variable z = k/sqrt(tau(1-tau)).
    """
    N: int
    tau: float

    def validate(self):
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"Krawtchouk needs integer N >= 0, got {self.N}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidFamilyParams(f"Krawtchouk needs 0 < tau < 1, got {self.tau}")


@dataclass(frozen=True)
class ContinuousDualHahn:
    """Three-parameter family in w = z^2; tau < 0 adds a finite discrete part."""
    tau: float
    a: float
    b: float

    def validate(self):
        if not (self.a > 0 and self.b > 0):
            raise InvalidFamilyParams("continuous dual Hahn needs a, b > 0")
        if self.tau == 0.0:
            raise InvalidFamilyParams("tau = 0 is degenerate")

    @property
    def mixed(self) -> bool:
        return self.tau < 0.0

    def n_discrete(self) -> int:
        """Size-1 count of the discrete part: largest integer <= -tau."""
        if not self.mixed:
            return 0
        return int(math.floor(-self.tau)) + 1

    def discrete_point(self, k: int) -> float:
        """Polynomial argument of the k-th mass point, w_k = -(k+tau)^2."""
        return -((k + self.tau) ** 2)


@dataclass(frozen=True)
class DualHahn:
    """Finite discrete family on k = 0..N with parameters (tau, sigma)."""
    N: int
    tau: float
    sigma: float

    def validate(self):
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"dual Hahn needs integer N >= 0, got {self.N}")
        ok = (self.tau > -1 and self.sigma > -1) or (self.tau < -self.N and
                                                     self.sigma < -self.N)
        if not ok:
            raise InvalidFamilyParams(
                "dual Hahn needs tau, sigma > -1 or tau, sigma < -N")

    def spectral_point(self, k: int) -> float:
        return (k + 0.5 * (self.tau + self.sigma + 1.0)) ** 2


@dataclass(frozen=True)
class Wilson:
    """Four-parameter family in w = z^2; complex-conjugate pairs allowed."""
    a: complex
    b: complex
    c: complex
    d: complex

    def validate(self):
        params = (self.a, self.b, self.c, self.d)
        for p in params:
            if complex(p).real <= 0:
                raise InvalidFamilyParams(
                    "Wilson needs Re(a,b,c,d) > 0 with conjugate pairs")
        for p in params:
            if abs(complex(p).imag) > 0 and not any(
                    abs(complex(q) - complex(p).conjugate()) < 1e-12 for q in params):
                raise InvalidFamilyParams("non-real Wilson parameters must pair up")

    @property
    def mixed(self) -> bool:
        return False


@dataclass(frozen=True)
class MixedWilson(Wilson):
    """Wilson continued to a real pair (a, b) = (sigma - q, sigma + q) with
    c = d: the conjugate pair sigma +- i tau with tau^2 < 0.  For a < 0 the
    weight gains a finite discrete part at w_k = -(k+a)^2."""

    def validate(self):
        if any(complex(p).imag for p in (self.a, self.b, self.c, self.d)):
            raise InvalidFamilyParams("mixed Wilson needs real parameters")
        if self.c != self.d:
            raise InvalidFamilyParams("mixed Wilson needs c == d")

    @property
    def mixed(self) -> bool:
        return self.a < 0.0

    def n_discrete(self) -> int:
        """Number of mass points: k = 0..floor(-a)."""
        if not self.mixed:
            return 0
        return int(math.floor(-self.a)) + 1

    def discrete_point(self, k: int) -> float:
        """Polynomial argument of the k-th mass point, w_k = -(k+a)^2."""
        return -((k + self.a) ** 2)


@dataclass(frozen=True)
class Racah:
    """Finite discrete family on k = 0..N, parameters (gamma, sigma).

    This two-parameter specialization is intrinsically "twisted": the signed
    squares of its symmetrized off-diagonals are negative for every n < N, so
    no real symmetric three-term form exists.  ``family_coeffs`` reports the
    formal streams (|t_n| with negative t_squared) and the honest real values
    are produced by ``values_by_recursion``, which runs the asymmetric real
    recursion the closed form actually satisfies.
    """
    N: int
    gamma: float
    sigma: float

    def validate(self):
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"Racah needs integer N >= 0, got {self.N}")
        if self.gamma <= -1 or self.sigma <= -1:
            raise InvalidFamilyParams("Racah needs gamma, sigma > -1")

    def spectral_point(self, k: int) -> float:
        return 0.25 * (self.N - 2.0 * k) ** 2


@dataclass(frozen=True)
class ExtendedJacobiContinuous:
    """Recursion-only family extending the Jacobi recursion (continuous kind).

    Polynomial of degree n in 1/z; taking z -> infinity recovers the
    orthonormal Jacobi recursion in the variable cos(theta).  sigma shifts
    the quadratic-in-n diagonal term.  No closed form or weight is known.
    """
    mu: float
    nu: float
    theta: float
    sigma: float = 0.0
    z: float = math.inf

    def validate(self):
        if not 0.0 < self.theta < math.pi:
            raise InvalidFamilyParams(f"needs 0 < theta < pi, got {self.theta}")
        if self.z == 0.0:
            raise InvalidFamilyParams("argument z must be nonzero")


@dataclass(frozen=True)
class ExtendedJacobiDiscrete:
    """Discrete counterpart of the extended Jacobi family; spectrum points
    z_k are not derivable from known theory and must be supplied."""
    mu: float
    nu: float
    tau: float
    sigma: float = 0.0
    z_k: float = math.inf

    def validate(self):
        if not 0.0 < self.tau < 1.0:
            raise InvalidFamilyParams(f"needs 0 < tau < 1, got {self.tau}")
        if self.z_k == 0.0:
            raise InvalidFamilyParams("spectrum point z_k must be nonzero")


# retained aliases used by the solver's family tables
FAMILY_KINDS = {
    MeixnerPollaczek: "meixner_pollaczek",
    Meixner: "meixner",
    Krawtchouk: "krawtchouk",
    ContinuousDualHahn: "continuous_dual_hahn",
    DualHahn: "dual_hahn",
    Wilson: "wilson",
    MixedWilson: "wilson",
    Racah: "racah",
    ExtendedJacobiContinuous: "extended_jacobi_continuous",
    ExtendedJacobiDiscrete: "extended_jacobi_discrete",
}


# ---------------------------------------------------------------------------
# recursion coefficients
# ---------------------------------------------------------------------------

def _wilson_an(f: Wilson, n: float) -> complex:
    a, b, c, d = (complex(f.a), complex(f.b), complex(f.c), complex(f.d))
    s = a + b + c + d
    return ((n + a + b) * (n + a + c) * (n + a + d) * (n + s - 1.0)
            / ((2 * n + s) * (2 * n + s - 1.0)))


def _wilson_cn(f: Wilson, n: float) -> complex:
    a, b, c, d = (complex(f.a), complex(f.b), complex(f.c), complex(f.d))
    s = a + b + c + d
    return (n * (n + b + c - 1.0) * (n + b + d - 1.0) * (n + c + d - 1.0)
            / ((2 * n + s - 1.0) * (2 * n + s - 2.0)))


def _racah_a(f: Racah, n: int) -> float:
    """(n-N)(n+g+1)(n+s+1)(n+g+s+1)/((2n+g+s+1)(2n+g+s+2)); <= 0 for n <= N."""
    g, s, N = f.gamma, f.sigma, f.N
    if n == 0:
        # cancel the (g+s+1) pair so g+s -> -1 stays finite
        return -N * (g + 1.0) * (s + 1.0) / (g + s + 2.0)
    return ((n - N) * (n + g + 1.0) * (n + s + 1.0) * (n + g + s + 1.0)
            / ((2 * n + g + s + 1.0) * (2 * n + g + s + 2.0)))


def _racah_c(f: Racah, n: int) -> float:
    """n(n+g)(n+s)(n+g+s+N+1)/((2n+g+s)(2n+g+s+1)); >= 0."""
    g, s, N = f.gamma, f.sigma, f.N
    if n == 0:
        return 0.0
    return (n * (n + g) * (n + s) * (n + g + s + N + 1.0)
            / ((2 * n + g + s) * (2 * n + g + s + 1.0)))


def _racah_tmag(f: Racah, n: int) -> float:
    """|t_n| = sqrt(|A_n C_{n+1}|) of the formal symmetrized recursion."""
    return math.sqrt(abs(_racah_a(f, n) * _racah_c(f, n + 1)))


def family_coeffs(family, n_terms: int) -> RecursionCoeffs:
    """Recursion streams (s_n, t_n), n = 0..n_terms-1, of a family."""
    family.validate()
    ns = np.arange(n_terms, dtype=float)
    if isinstance(family, MeixnerPollaczek):
        mu, th = family.mu, family.theta
        s = -(ns + mu) * math.cos(th) / math.sin(th)
        t = np.sqrt((ns + 1.0) * (ns + 2.0 * mu)) / (2.0 * math.sin(th))
        return RecursionCoeffs(s, t)
    if isinstance(family, Meixner):
        mu, tau = family.mu, family.tau
        s = -(ns * (1.0 + tau) + 2.0 * mu * tau)
        t = np.sqrt((ns + 1.0) * (ns + 2.0 * mu) * tau)
        return RecursionCoeffs(s, t)
    if isinstance(family, Krawtchouk):
        N, tau = family.N, family.tau
        if n_terms > N + 1:
            raise InvalidFamilyParams(f"Krawtchouk streams end at n = N = {N}")
        root = math.sqrt(tau * (1.0 - tau))
        s = (N * tau + ns * (1.0 - 2.0 * tau)) / root
        inner = (ns + 1.0) * (N - ns)
        t = -np.sqrt(np.abs(inner))
        return RecursionCoeffs(s, t, t_squared=inner)
    if isinstance(family, ContinuousDualHahn):
        tau, a, b = family.tau, family.a, family.b
        s = (ns + tau + a) * (ns + tau + b) + ns * (ns + a + b - 1.0) - tau * tau
        if a == b:
            t = -(ns + tau + a) * np.sqrt((ns + 1.0) * (ns + 2.0 * a))
            return RecursionCoeffs(s, t)
        prod = ((ns + tau + a) * (ns + tau + b)
                * (ns + 1.0) * (ns + a + b))
        if np.any(prod < 0):
            raise InvalidFamilyParams(
                "continuous dual Hahn off-diagonal squared negative; "
                "use a == b for the mixed extension")
        t = -np.sqrt(prod)
        return RecursionCoeffs(s, t)
    if isinstance(family, DualHahn):
        N, tau, sg = family.N, family.tau, family.sigma
        if n_terms > N + 1:
            raise InvalidFamilyParams(f"dual Hahn streams end at n = N = {N}")
        s = ((ns + tau + 1.0) * (N - ns) + ns * (N + sg + 1.0 - ns)
             + 0.25 * (tau + sg + 1.0) ** 2)
        inner = (ns + 1.0) * (ns + tau + 1.0) * (N - ns) * (N - ns + sg)
        # sign fixed so run_recursion reproduces the 3F2 closed form
        t = -np.sqrt(np.abs(inner))
        return RecursionCoeffs(s, t, t_squared=inner)
    if isinstance(family, Wilson):
        # the off-diagonal sign tracks sign((n+a+c)(n+b+c)), so the streams of
        # a mixed Wilson record continue those of the admissible region, where
        # that factor is positive and t_n = -sqrt(A_n C_{n+1})
        s = np.empty(n_terms)
        t = np.empty(n_terms)
        t2 = np.empty(n_terms)
        a, b, c = complex(family.a), complex(family.b), complex(family.c)
        aa = a * a
        for i in range(n_terms):
            n = float(i)
            s[i] = real_part_checked(
                _wilson_an(family, n) + _wilson_cn(family, n) - aa,
                context=f"Wilson s_{i}")
            prod = _wilson_an(family, n) * _wilson_cn(family, n + 1.0)
            t2[i] = real_part_checked(prod, context=f"Wilson t_{i}^2")
            branch = real_part_checked((n + a + c) * (n + b + c),
                                       context=f"Wilson branch_{i}")
            t[i] = -math.copysign(math.sqrt(abs(t2[i])),
                                  branch if branch != 0 else 1.0)
        return RecursionCoeffs(s, t, t_squared=t2)
    if isinstance(family, Racah):
        N = family.N
        if n_terms > N + 1:
            raise InvalidFamilyParams(f"Racah streams end at n = N = {N}")
        s = np.array([0.25 * N * N - _racah_a(family, i) - _racah_c(family, i)
                      for i in range(n_terms)])
        t = np.array([_racah_tmag(family, i) for i in range(n_terms)])
        t2 = np.array([_racah_a(family, i) * _racah_c(family, i + 1)
                       for i in range(n_terms)])
        return RecursionCoeffs(s, t, t_squared=t2)
    if isinstance(family, ExtendedJacobiContinuous):
        from .basis import jacobi_c, jacobi_d  # local import avoids a cycle
        mu, nu, sg = family.mu, family.nu, family.sigma
        shift = (math.sin(family.theta) / family.z) if math.isfinite(family.z) else 0.0
        s = np.array([jacobi_c(i, mu, nu)
                      + shift * (sg + (i + 0.5 * (mu + nu + 1.0)) ** 2)
                      for i in range(n_terms)])
        t = np.array([jacobi_d(i, mu, nu) for i in range(n_terms)])
        return RecursionCoeffs(s, t)
    if isinstance(family, ExtendedJacobiDiscrete):
        from .basis import jacobi_c, jacobi_d
        mu, nu, sg, tau = family.mu, family.nu, family.sigma, family.tau
        shift = ((1.0 - tau) / (2.0 * math.sqrt(tau) * family.z_k)
                 if math.isfinite(family.z_k) else 0.0)
        s = np.array([jacobi_c(i, mu, nu)
                      + shift * (sg + (i + 0.5 * (mu + nu + 1.0)) ** 2)
                      for i in range(n_terms)])
        t = np.array([jacobi_d(i, mu, nu) for i in range(n_terms)])
        return RecursionCoeffs(s, t)
    raise TypeError(f"unknown family {family!r}")


def spectral_point(family, arg) -> float:
    """Map a family's natural argument (z, w, or index k) to the recursion
    variable fed to ``run_recursion``."""
    if isinstance(family, MeixnerPollaczek):
        return float(arg)
    if isinstance(family, Meixner):
        return (family.tau - 1.0) * float(arg)
    if isinstance(family, Krawtchouk):
        return float(arg) / math.sqrt(family.tau * (1.0 - family.tau))
    if isinstance(family, (ContinuousDualHahn, Wilson)):
        return float(arg)  # already the squared variable w = z^2
    if isinstance(family, DualHahn):
        return family.spectral_point(int(arg))
    if isinstance(family, Racah):
        return family.spectral_point(int(arg))
    if isinstance(family, ExtendedJacobiContinuous):
        return math.cos(family.theta)
    if isinstance(family, ExtendedJacobiDiscrete):
        return (1.0 + family.tau) / (2.0 * math.sqrt(family.tau))
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

_CLOSED_FORM_N_CAP = 30


def _terminating_sum(n: int, step, term=1.0):
    """t_0 + ... + t_n with t_0 = ``term`` and t_{j+1} = step(t_j, j): a
    terminating hypergeometric series given by its term ratio.  A
    denominator parameter that reaches zero raises ZeroDivisionError."""
    total = term
    for j in range(n):
        term = step(term, j)
        total += term
    return total


def closed_form(family, n: int, arg) -> float:
    """Normalized polynomial value from the terminating hypergeometric form.

    Argument conventions: Meixner-Pollaczek takes z; the discrete families
    take the integer index k; the quadratic-variable families take w = z^2
    (any real sign, covering mass points of mixed spectra).
    """
    family.validate()
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n > _CLOSED_FORM_N_CAP:
        raise ValueError(f"closed forms capped at n = {_CLOSED_FORM_N_CAP}")
    if isinstance(family, (ExtendedJacobiContinuous, ExtendedJacobiDiscrete)):
        raise NoClosedForm("extended Jacobi families are recursion-only")
    if n == 0:
        return 1.0
    if isinstance(family, MeixnerPollaczek):
        mu, th = family.mu, float(family.theta)
        z = float(arg)
        pref = math.sqrt(pochhammer_real(2.0 * mu, n) / math.factorial(n))
        phase = cmath.exp(1j * n * th)
        p2, x = complex(mu, z), 1.0 - cmath.exp(-2j * th)
        series = _terminating_sum(n, lambda t, j: t * (
            (-n + j) * (p2 + j) / ((2.0 * mu + j) * (j + 1.0)) * x), 1.0 + 0.0j)
        return real_part_checked(pref * phase * series, rel_tol=1e-8,
                                 context="Meixner-Pollaczek")
    if isinstance(family, Meixner):
        mu, tau = family.mu, family.tau
        k = int(arg)
        pref = math.sqrt(pochhammer_real(2.0 * mu, n) / math.factorial(n)) * tau ** (n / 2.0)
        x = 1.0 - 1.0 / tau
        series = _terminating_sum(n, lambda t, j: t * (
            (-n + j) * (-k + j) / ((2.0 * mu + j) * (j + 1.0)) * x))
        return pref * series
    if isinstance(family, Krawtchouk):
        N, tau = family.N, family.tau
        k = int(arg)
        if not 0 <= k <= N:
            raise InvalidFamilyParams(f"Krawtchouk index k must be 0..{N}")
        if n > N:
            raise InvalidFamilyParams(f"Krawtchouk degree capped at N = {N}")
        pref = math.sqrt(binomial(N, n)) * (tau / (1.0 - tau)) ** (n / 2.0)
        x = 1.0 / tau
        series = _terminating_sum(n, lambda t, j: t * (
            (-n + j) * (-k + j) / ((-N + j) * (j + 1.0)) * x))
        return pref * series
    if isinstance(family, ContinuousDualHahn):
        tau, a, b = family.tau, family.a, family.b
        w = float(arg)
        if a == b:
            pref_sq_signed = pochhammer_real(tau + a, n)  # analytic branch, signed
            pref = pref_sq_signed / math.sqrt(
                math.factorial(n) * pochhammer_real(a + b, n))
        else:
            prod = pochhammer_real(tau + a, n) * pochhammer_real(tau + b, n)
            if prod < 0:
                raise InvalidFamilyParams(
                    "closed form undefined: (tau+a)_n (tau+b)_n < 0")
            pref = math.sqrt(prod / (math.factorial(n) * pochhammer_real(a + b, n)))
        series = _terminating_sum(n, lambda t, j: (
            t * (-n + j) * ((tau + j) ** 2 + w)
            / (tau + a + j) / (tau + b + j) / (j + 1)))
        return pref * series
    if isinstance(family, DualHahn):
        N, tau, sg = family.N, family.tau, family.sigma
        k = int(arg)
        if not 0 <= k <= N:
            raise InvalidFamilyParams(f"dual Hahn index k must be 0..{N}")
        if n > N:
            raise InvalidFamilyParams(f"dual Hahn degree capped at N = {N}")
        pref = math.sqrt(pochhammer_real(tau + 1.0, n)
                         * pochhammer_real(N - n + 1.0, n)
                         / (math.factorial(n)
                            * pochhammer_real(N + sg - n + 1.0, n)))
        return pref * _terminating_sum(n, lambda t, j: (
            t * ((-n + j) * (-k + j) * (k + tau + sg + 1.0 + j))
            / ((tau + 1.0 + j) * (-N + j) * (j + 1.0))))
    if isinstance(family, Wilson):
        a, b, c, d = (complex(family.a), complex(family.b),
                      complex(family.c), complex(family.d))
        w = float(arg)
        s = a + b + c + d
        # split: complex front (a+b)_n(a+c)_n(a+d)_n 4F3 is real for conjugate
        # pairs, and the remaining norm factor is real positive outright.
        front = (pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n)
                 * _terminating_sum(n, lambda t, j: (
                     t * (-n + j) * (n + s - 1.0 + j) * ((a + j) ** 2 + w)
                     / (a + b + j) / (a + c + j) / (a + d + j) / (j + 1)),
                     1.0 + 0.0j))
        norm_sq = ((2 * n + s - 1.0) / (n + s - 1.0) * pochhammer(s, n)
                   / (pochhammer(a + b, n) * pochhammer(a + c, n)
                      * pochhammer(a + d, n) * pochhammer(b + c, n)
                      * pochhammer(b + d, n) * pochhammer(c + d, n)
                      * math.factorial(n)))
        norm_sq = real_part_checked(norm_sq, rel_tol=1e-8, context="Wilson norm")
        if norm_sq < 0:
            raise InvalidFamilyParams("Wilson normalization undefined here")
        # the sum cancels heavily near polynomial zeros: the imaginary residue
        # is a loose guard there, absolute accuracy is what the oracle tests
        return real_part_checked(front, rel_tol=1e-5,
                                 context="Wilson") * math.sqrt(norm_sq)
    if isinstance(family, Racah):
        N, g, sg = family.N, family.gamma, family.sigma
        k = int(arg)
        if not 0 <= k <= N:
            raise InvalidFamilyParams(f"Racah index k must be 0..{N}")
        if n > N:
            raise InvalidFamilyParams(f"Racah degree capped at N = {N}")
        gs = g + sg
        # normalization |..| of the usual bracket: the (-N)_n sign lives in
        # the twist absorbed by the asymmetric real recursion
        pref = math.sqrt((2 * n + gs + 1.0) / (n + gs + 1.0)
                         * (math.factorial(N) / math.factorial(N - n))
                         * pochhammer_real(gs + 2.0, n)
                         / (pochhammer_real(gs + N + 2.0, n) * math.factorial(n)))
        return pref * _terminating_sum(n, lambda t, j: (
            t * ((-n + j) * (-k + j) * (n + gs + 1.0 + j) * (k - N + j))
            / ((g + 1.0 + j) * (sg + 1.0 + j) * (-N + j) * (j + 1.0))))
    raise TypeError(f"unknown family {family!r}")


def values_by_recursion(family, arg, n_max: int) -> np.ndarray:
    """P_0..P_{n_max} at a family's natural argument, by recursion.

    Uses the symmetric engine wherever the family has a genuine real
    symmetric form; the twisted finite families (Racah here) run the honest
    asymmetric real recursion their values satisfy.
    """
    if isinstance(family, Racah):
        N = family.N
        if n_max > N:
            raise InvalidFamilyParams(f"Racah degrees end at N = {N}")
        k = int(arg)
        w = family.spectral_point(k)
        diag = np.array([0.25 * N * N - _racah_a(family, i) - _racah_c(family, i)
                         for i in range(n_max + 1)])
        sub = np.array([_racah_tmag(family, i - 1) if i > 0 else 0.0
                        for i in range(n_max + 1)])
        sup = np.array([-_racah_tmag(family, i) for i in range(n_max + 1)])
        from .recurrence import run_recursion_general
        return run_recursion_general(diag, sub, sup, w, n_max)
    coeffs = family_coeffs(family, max(n_max, 1))
    z = spectral_point(family, arg)
    return run_recursion(coeffs, z, n_max).values


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Normalized orthogonality weight: continuous density, discrete masses,
    or both (mixed)."""
    kind: str                      # "continuous" | "discrete" | "mixed"
    density = None                 # set via object.__setattr__
    support: tuple = None
    masses: np.ndarray = None      # discrete masses, aligned with mass_points
    mass_points: np.ndarray = None  # polynomial arguments of the mass points
    mass_indices: np.ndarray = None  # integer labels k of the mass points

    def __init__(self, kind, density=None, support=None, masses=None,
                 mass_points=None, mass_indices=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses",
                           None if masses is None else np.asarray(masses, dtype=float))
        object.__setattr__(self, "mass_points",
                           None if mass_points is None else np.asarray(mass_points, dtype=float))
        object.__setattr__(self, "mass_indices",
                           None if mass_indices is None else np.asarray(mass_indices))


_MEIXNER_TAIL = 1e-12


def masses_from_recursion(coeffs: RecursionCoeffs):
    """Mass points and masses of a finite orthonormal family from its
    truncated Jacobi matrix (Golub-Welsch): points are the eigenvalues, and
    the mass at a point is the squared first component of its unit
    eigenvector.  Bisection plus inverse iteration (LAPACK dstebz/dstein)
    keeps the tiny masses to ~1e-13 relative; the default divide-and-conquer
    driver gets only their absolute size right."""
    n = len(coeffs)
    points, vecs = eigh_tridiagonal(coeffs.s, coeffs.t[:n - 1],
                                    lapack_driver="stebz")
    return points, vecs[0] ** 2


def isolated_mass_from_recursion(coeffs: RecursionCoeffs, w: float,
                                 n_sum: int = 400) -> float:
    """Mass of an isolated spectral point of an infinite family:
    1/sum_{n>=0} P_n(w)^2.  A vanishing t_n decouples the chain exactly and
    the sum terminates there."""
    n_top = min(n_sum, len(coeffs) - 1)
    zeros = np.nonzero(coeffs.t[:n_top] == 0.0)[0]
    if zeros.size:
        n_top = int(zeros[0])
    seq = run_recursion(coeffs, w, n_top, cap=10 ** 6)
    sq = seq.values ** 2
    # drop the spurious round-off regrowth of the minimal solution
    floor = np.nonzero(sq < 1e-26 * np.max(sq))[0]
    if floor.size:
        sq = sq[:int(floor[0]) + 1]
    return 1.0 / float(np.sum(sq))


def cdh_discrete_mass(tau: float, a: float, k: int) -> float:
    """Mass at the k-th isolated point of the mixed continuous-dual-Hahn
    family with equal second parameters (a, a) and tau < 0."""
    if tau >= 0:
        raise InvalidFamilyParams("discrete part exists only for tau < 0")
    lead = (-2.0 * gamma_fn(a - tau).real ** 2
            / (math.exp(log_gamma_real(2.0 * a)) * gamma_fn(1.0 - 2.0 * tau).real))
    body = ((-1.0) ** k * (k + tau) * pochhammer_real(a + tau, k) ** 2
            * pochhammer_real(2.0 * tau, k)
            / (pochhammer_real(1.0 - a + tau, k) ** 2 * math.factorial(k)))
    return lead * body


def _wilson_discrete_mass(f: MixedWilson, k: int) -> float:
    """Mass at the k-th isolated point of a mixed Wilson record (a, b, c, c)
    with a < 0."""
    a, b, c = f.a, f.b, f.c
    lead = (-2.0 * gamma_fn(a + b + 2.0 * c).real * gamma_fn(b - a).real
            * gamma_fn(c - a).real ** 2
            / (gamma_fn(1.0 - 2.0 * a).real * gamma_fn(2.0 * c).real
               * gamma_fn(b + c).real ** 2))
    body = ((k + a) * pochhammer_real(2.0 * a, k) * pochhammer_real(a + b, k)
            * pochhammer_real(a + c, k) ** 2
            / (pochhammer_real(1.0 + a - b, k)
               * pochhammer_real(a - c + 1.0, k) ** 2 * math.factorial(k)))
    return lead * body


def mass_point(family, k: int) -> float:
    """Recursion variable (the ``run_recursion`` argument) of the k-th mass
    point of a family's discrete part."""
    if isinstance(family, (Meixner, Krawtchouk)):
        return spectral_point(family, k)
    if isinstance(family, (ContinuousDualHahn, MixedWilson)):
        return family.discrete_point(k)
    raise NoClosedForm(f"no mass-point formula for {type(family).__name__}")


def discrete_mass(family, k: int) -> float:
    """Orthonormality mass at the k-th mass point of a family's discrete
    part, so that sum_k m_k P_n(x_k) P_l(x_k) (plus the continuous part of a
    mixed weight) is delta_nl."""
    if isinstance(family, Meixner):
        mu, tau = family.mu, family.tau
        lead = (1.0 - tau) ** (2.0 * mu)
        return lead * pochhammer_real(2.0 * mu, k) * tau ** k / math.factorial(k)
    if isinstance(family, Krawtchouk):
        N, tau = family.N, family.tau
        return binomial(N, k) * tau ** k * (1.0 - tau) ** (N - k)
    if isinstance(family, ContinuousDualHahn):
        if family.a != family.b:
            raise InvalidFamilyParams("mixed extension implemented for a == b")
        return cdh_discrete_mass(family.tau, family.a, k)
    if isinstance(family, MixedWilson):
        if not family.mixed:
            raise InvalidFamilyParams("discrete part exists only for a < 0")
        return _wilson_discrete_mass(family, k)
    raise NoClosedForm(f"no per-point mass formula for {type(family).__name__}")


def _mass_arrays(family, n: int, masses=None) -> dict:
    """The masses / mass_points / mass_indices of WeightFunction for the mass
    points k = 0..n-1."""
    if masses is None:
        masses = [discrete_mass(family, k) for k in range(n)]
    return {"masses": masses,
            "mass_points": [mass_point(family, k) for k in range(n)],
            "mass_indices": np.arange(n)}


def _gamma_ratio_density(params, norm: float):
    """z -> prod_p |Gamma(p + iz)|^2 / |Gamma(2iz)|^2 / (2 pi norm), the shape
    of the continuous-dual-Hahn and Wilson densities.  The gammas are summed
    as logarithms and exponentiated once, so large z neither underflows the
    factors to 0 nor overflows them."""
    params = tuple(complex(p) for p in params)
    scale = 2.0 * math.pi * norm

    def density(z):
        log_ratio = sum(log_gamma(p + 1j * z) for p in params) - log_gamma(2j * z)
        return math.exp(2.0 * log_ratio.real) / scale

    return density


def _quadratic_weight(family, density) -> WeightFunction:
    """Weight of a family in w = z^2: the density on z > 0, plus the masses
    of the discrete part when the family is mixed."""
    if not family.mixed:
        return WeightFunction("continuous", density=density, support=(0.0, math.inf))
    return WeightFunction("mixed", density=density, support=(0.0, math.inf),
                          **_mass_arrays(family, family.n_discrete()))


def weight(family) -> WeightFunction:
    """The normalized orthogonality weight of a family."""
    family.validate()
    if isinstance(family, (ExtendedJacobiContinuous, ExtendedJacobiDiscrete)):
        raise NoClosedForm("weight of the extended Jacobi families is unknown")
    if isinstance(family, MeixnerPollaczek):
        mu, th = family.mu, family.theta
        log_lead = (2.0 * mu * math.log(2.0 * math.sin(th))
                    - math.log(2.0 * math.pi) - log_gamma_real(2.0 * mu))

        def density(z):
            # one exp of the summed logarithms: the factors e^{(2 theta - pi) z}
            # and |Gamma(mu + iz)|^2 over- and underflow on their own
            return math.exp(log_lead + (2.0 * th - math.pi) * z
                            + 2.0 * log_gamma(complex(mu, z)).real)

        return WeightFunction("continuous", density=density,
                              support=(-math.inf, math.inf))
    if isinstance(family, Meixner):
        ms, cum = [], 0.0
        while cum < 1.0 - _MEIXNER_TAIL:
            if len(ms) > 100000:
                raise InvalidFamilyParams("Meixner mass tail does not close")
            ms.append(discrete_mass(family, len(ms)))
            cum += ms[-1]
        return WeightFunction("discrete", **_mass_arrays(family, len(ms), ms))
    if isinstance(family, Krawtchouk):
        return WeightFunction("discrete", **_mass_arrays(family, family.N + 1))
    if isinstance(family, ContinuousDualHahn):
        tau, a, b = family.tau, family.a, family.b
        norm = math.exp(log_gamma_real(tau + a) + log_gamma_real(tau + b)
                        + log_gamma_real(a + b)) if tau > 0 else None
        if tau < 0:
            # ac-part normalization Gamma(tau+a)Gamma(tau+b)Gamma(a+b) still
            # holds with the gammas continued to tau < 0 (poles avoided for
            # non-integer tau+a).
            norm = (gamma_fn(tau + a) * gamma_fn(tau + b)).real * math.exp(
                log_gamma_real(a + b))
        return _quadratic_weight(family, _gamma_ratio_density((tau, a, b), norm))
    if isinstance(family, DualHahn):
        pts, ms = masses_from_recursion(family_coeffs(family, family.N + 1))
        # the eigenvalues ascend, and so do the points (k + (tau+sigma+1)/2)^2
        # when tau, sigma > -1; when tau, sigma < -N they fall as k grows
        ks = np.argsort([family.spectral_point(k) for k in range(family.N + 1)],
                        kind="stable")
        return WeightFunction("discrete", masses=ms, mass_points=pts,
                              mass_indices=ks)
    if isinstance(family, Wilson):
        a, b, c, d = (complex(family.a), complex(family.b),
                      complex(family.c), complex(family.d))
        s = a + b + c + d
        log_h0 = (log_gamma(a + b) + log_gamma(a + c) + log_gamma(a + d)
                  + log_gamma(b + c) + log_gamma(b + d) + log_gamma(c + d)
                  - log_gamma(s))
        h0 = real_part_checked(cmath.exp(log_h0), context="Wilson weight norm")
        return _quadratic_weight(family, _gamma_ratio_density((a, b, c, d), h0))
    if isinstance(family, Racah):
        # The spectral points ((N-2k)/2)^2 collide pairwise (k <-> N-k), so a
        # positive dual orthogonality cannot exist for this specialization;
        # the printed mass formula is 0/0-degenerate accordingly.
        raise InvalidFamilyParams(
            "this Racah specialization has no positive discrete weight: "
            "its spectral points coincide pairwise")
    raise TypeError(f"unknown family {family!r}")
