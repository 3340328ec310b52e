"""The concrete orthogonal-polynomial families.

Each family provides the (s_n, t_n) streams of its symmetric three-term
recursion in the normalization where the orthonormality weight integrates
(or sums) to one, plus, where it is known, the weight itself.  The extended
Jacobi family of the JA scenario is recursion-only: no closed form or weight
is known, and its levels and masses come from its truncated Jacobi matrix.

Each family record carries its formulas as methods (``Family``); the module
functions hold the checks every family shares.  A double-precision P_n has
one evaluator, the recursion (``values_by_recursion``); each family's
terminating-hypergeometric form is written once, in 40-digit ``decimal``
arithmetic, as ``verify.closed_form_hp``.

Sign conventions are fixed so that ``run_recursion`` on ``family_coeffs``
reproduces that hypergeometric form; the test-suite enforces this for every
family over random admissible parameter draws.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.linalg.lapack import dstebz
from scipy.special import gammasgn

from .basis import jacobi_cd
from .errors import (IndexOutOfSpectrum, InvalidFamilyParams, NoClosedForm,
                     TruncationTooSmall)
from .gammafn import (log_abs_rising, log_gamma, log_gamma_real,
                      real_part_checked)
from .recurrence import (RecursionCoeffs, _forward, jacobi_eigenpairs,
                         run_recursion)


class Family(Protocol):
    """The formulas every family record carries (documentation only).  A
    finite family has a field ``N``; a formula a family lacks raises
    ``NoClosedForm``.  Families with a continuous part also have
    ``density_at(arg)``, the weight density at a natural argument."""
    kind: str   # the CLI family name
    def validate(self) -> None: ...
    def streams(self, n_terms: int) -> RecursionCoeffs: ...   # unvalidated
    def spectral_point(self, arg) -> float: ...   # recursion variable of arg
    def weight(self) -> "WeightFunction": ...
    # the recursion variable of the k-th mass point, and the mass there
    def mass_point(self, k: int) -> float: ...
    def discrete_mass(self, k: int) -> float: ...


def _require_finite(record) -> None:
    """Refuse a family record whose numeric field is nan, infinite or an
    integer past the float range, naming the field and its value."""
    for name, v in vars(record).items():
        try:
            finite = cmath.isfinite(v)
        except OverflowError:   # an int too large to convert to float
            raise InvalidFamilyParams(f"{record.kind}: {name} = {v} is out of "
                                      f"the float range") from None
        if not finite:
            raise InvalidFamilyParams(f"{record.kind}: {name} must be finite, got {v}")


def _no_mass_formula(self, k: int):
    raise NoClosedForm(f"no mass formula for {type(self).__name__}")


@dataclass(frozen=True)
class WeightFunction:
    """Normalized orthogonality weight: continuous density, discrete masses,
    or both (mixed)."""
    kind: str                        # "continuous" | "discrete" | "mixed"
    density: object = None           # z -> density of the continuous part
    masses: np.ndarray = None        # discrete masses, aligned with mass_points
    mass_points: np.ndarray = None   # polynomial arguments of the mass points
    mass_indices: np.ndarray = None  # integer labels k of the mass points

    def __post_init__(self):
        for name, dtype in (("masses", float), ("mass_points", float),
                            ("mass_indices", None)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name,
                                   np.asarray(getattr(self, name), dtype=dtype))


def _mass_arrays(family, n: int, masses=None) -> dict:
    """The masses / mass_points / mass_indices of WeightFunction for the mass
    points k = 0..n-1."""
    if masses is None:
        masses = [family.discrete_mass(k) for k in range(n)]
    return {"masses": masses,
            "mass_points": [family.mass_point(k) for k in range(n)],
            "mass_indices": np.arange(n)}


def _gamma_ratio_density(params, log_norm: float, sign: float):
    """z -> prod_p |Gamma(p + iz)|^2 / |Gamma(2iz)|^2 / (2 pi norm), the shape
    of the continuous-dual-Hahn and Wilson densities, for a norm given as
    log|norm| and its sign.  The gammas are summed as logarithms with the
    norm's and exponentiated once, so neither large z nor large parameters
    under- or overflow the factors.  The density is 0 at z = 0."""
    params = tuple(complex(p) for p in params)
    log_scale = math.log(2.0 * math.pi) + log_norm

    def density(z):
        if z == 0.0:
            return 0.0   # the factor 1/|Gamma(2iz)|^2 vanishes there
        log_ratio = sum(log_gamma(p + 1j * z) for p in params) - log_gamma(2j * z)
        return sign * math.exp(2.0 * log_ratio.real - log_scale)

    return density


def _quadratic_weight(family, density) -> WeightFunction:
    """Weight of a family in w = z^2: the density on z > 0, plus the masses
    of the discrete part when the family is mixed."""
    if not family.mixed:
        return WeightFunction("continuous", density=density)
    return WeightFunction("mixed", density=density,
                          **_mass_arrays(family, family.n_discrete()))


_MEIXNER_TAIL = 1e-12


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeixnerPollaczek:
    """Two-parameter continuous family; argument z real."""
    mu: float
    theta: float
    kind = "meixner_pollaczek"

    def validate(self):
        _require_finite(self)
        if not self.mu > 0:
            raise InvalidFamilyParams(f"Meixner-Pollaczek needs mu > 0, got {self.mu}")
        if not 0.0 < self.theta < math.pi:
            raise InvalidFamilyParams(f"needs 0 < theta < pi, got {self.theta}")

    def streams(self, n_terms):
        ns = np.arange(n_terms, dtype=float)
        mu, th = self.mu, self.theta
        s = -(ns + mu) * math.cos(th) / math.sin(th)
        t = np.sqrt((ns + 1.0) * (ns + 2.0 * mu)) / (2.0 * math.sin(th))
        return RecursionCoeffs(s, t)

    def spectral_point(self, arg):
        return float(arg)

    def weight(self):
        mu, th = self.mu, self.theta
        log_lead = (2.0 * mu * math.log(2.0 * math.sin(th))
                    - math.log(2.0 * math.pi) - log_gamma_real(2.0 * mu))

        def density(z):
            # one exp of the summed logarithms: the factors e^{(2 theta - pi) z}
            # and |Gamma(mu + iz)|^2 over- and underflow on their own
            return math.exp(log_lead + (2.0 * th - math.pi) * z
                            + 2.0 * log_gamma(complex(mu, z)).real)

        return WeightFunction("continuous", density=density)

    def density_at(self, arg):
        return weight(self).density(float(arg))

    mass_point = discrete_mass = _no_mass_formula


@dataclass(frozen=True)
class Meixner:
    """Discrete family on k = 0, 1, 2, ...; tau in (0, 1)."""
    mu: float
    tau: float
    kind = "meixner"

    def validate(self):
        _require_finite(self)
        if not self.mu > 0:
            raise InvalidFamilyParams(f"Meixner needs mu > 0, got {self.mu}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidFamilyParams(f"Meixner needs 0 < tau < 1, got {self.tau}")

    def streams(self, n_terms):
        ns = np.arange(n_terms, dtype=float)
        mu, tau = self.mu, self.tau
        s = -(ns * (1.0 + tau) + 2.0 * mu * tau)
        t = np.sqrt((ns + 1.0) * (ns + 2.0 * mu) * tau)
        return RecursionCoeffs(s, t)

    def spectral_point(self, arg):
        return (self.tau - 1.0) * float(arg)

    def weight(self):
        ms, cum = [], 0.0
        while cum < 1.0 - _MEIXNER_TAIL:
            if len(ms) > 100000:
                raise InvalidFamilyParams("Meixner mass tail does not close")
            ms.append(self.discrete_mass(len(ms)))
            cum += ms[-1]
        return WeightFunction("discrete", **_mass_arrays(self, len(ms), ms))

    mass_point = spectral_point

    def discrete_mass(self, k):
        """(1-tau)^{2mu} (2mu)_k tau^k / k!, one exp of log-gammas."""
        mu, tau = self.mu, self.tau
        if k < 0:
            raise InvalidFamilyParams(f"Meixner mass index k={k} < 0")
        return math.exp(2.0 * mu * math.log1p(-tau) + log_abs_rising(2.0 * mu, k)
                        + k * math.log(tau) - log_gamma_real(k + 1.0))


@dataclass(frozen=True)
class Krawtchouk:
    """Finite discrete family on k = 0..N; tau in (0, 1).

    Streams are for the real (untwisted) normalized polynomials divided by
    sqrt(tau(1-tau)), i.e. spectral variable z = k/sqrt(tau(1-tau)).
    """
    N: int
    tau: float
    kind = "krawtchouk"

    def validate(self):
        _require_finite(self)
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"Krawtchouk needs integer N >= 0, got {self.N}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidFamilyParams(f"Krawtchouk needs 0 < tau < 1, got {self.tau}")

    def streams(self, n_terms):
        ns = np.arange(n_terms, dtype=float)
        N, tau = self.N, self.tau
        root = math.sqrt(tau * (1.0 - tau))
        s = (N * tau + ns * (1.0 - 2.0 * tau)) / root
        inner = (ns + 1.0) * (N - ns)
        t = -np.sqrt(np.abs(inner))
        return RecursionCoeffs(s, t, t_squared=inner)

    def spectral_point(self, arg):
        return float(arg) / math.sqrt(self.tau * (1.0 - self.tau))

    def weight(self):
        return WeightFunction("discrete", **_mass_arrays(self, self.N + 1))

    mass_point = spectral_point

    def discrete_mass(self, k):
        """binomial(N, k) tau^k (1-tau)^{N-k}, one exp of log-gammas."""
        N, tau = self.N, self.tau
        if not 0 <= k <= N:
            raise InvalidFamilyParams(f"Krawtchouk mass index k={k} outside 0..{N}")
        return math.exp(log_abs_rising(N - k + 1.0, k) - log_gamma_real(k + 1.0)
                        + k * math.log(tau) + (N - k) * math.log1p(-tau))


@dataclass(frozen=True)
class ContinuousDualHahn:
    """Three-parameter family in w = z^2; tau < 0 adds a finite discrete part."""
    tau: float
    a: float
    b: float
    kind = "continuous_dual_hahn"

    def validate(self):
        _require_finite(self)
        if not (self.a > 0 and self.b > 0):
            raise InvalidFamilyParams("continuous dual Hahn needs a, b > 0")
        if self.tau == 0.0:
            raise InvalidFamilyParams("tau = 0 is degenerate")

    @property
    def mixed(self) -> bool:
        return self.tau < 0.0

    def n_discrete(self) -> int:
        """Number of mass points: k = 0..floor(-tau)."""
        return int(math.floor(-self.tau)) + 1 if self.mixed else 0

    def streams(self, n_terms):
        ns = np.arange(n_terms, dtype=float)
        tau, a, b = self.tau, self.a, self.b
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
        return RecursionCoeffs(s, -np.sqrt(prod))

    def spectral_point(self, arg):
        return float(arg)  # already the squared variable w = z^2

    def weight(self):
        # norm Gamma(tau+a)Gamma(tau+b)Gamma(a+b), with the gammas continued
        # to tau < 0 (poles avoided for non-integer tau+a)
        tau, a, b = self.tau, self.a, self.b
        log_norm = (log_gamma_real(tau + a) + log_gamma_real(tau + b)
                    + log_gamma_real(a + b))
        sign = float(gammasgn(tau + a) * gammasgn(tau + b))
        return _quadratic_weight(
            self, _gamma_ratio_density((tau, a, b), log_norm, sign))

    def density_at(self, arg):
        return weight(self).density(math.sqrt(max(arg, 0.0)))

    def mass_point(self, k):
        """Polynomial argument of the k-th mass point, w_k = -(k+tau)^2."""
        return -((k + self.tau) ** 2)

    def discrete_mass(self, k):
        """Mass at the k-th isolated point of the mixed family (tau, a, a),
        tau < 0: -2 (k+tau) (a+tau)_k^2 Gamma(a-tau-k)^2 / (Gamma(2a)
        Gamma(1-2tau-k) k!), one exp of log-gammas at positive arguments."""
        tau, a = self.tau, self.a
        if a != self.b or not 0 <= k < self.n_discrete():
            raise InvalidFamilyParams(f"no mass point k={k} (needs a == b)")
        return -2.0 * (k + tau) * math.exp(
            2.0 * log_abs_rising(a + tau, k) + 2.0 * log_gamma_real(a - tau - k)
            - log_gamma_real(2.0 * a) - log_gamma_real(1.0 - 2.0 * tau - k)
            - log_gamma_real(k + 1.0))


def masses_from_recursion(coeffs: RecursionCoeffs):
    """Mass points and masses of a finite orthonormal family from its Jacobi
    matrix: the eigenvalues, and the squared first components of the unit
    eigenvectors (to ~1e-13 relative)."""
    points, vecs = jacobi_eigenpairs(coeffs)
    return points, vecs[0] ** 2


@dataclass(frozen=True)
class DualHahn:
    """Finite discrete family on k = 0..N with parameters (tau, sigma)."""
    N: int
    tau: float
    sigma: float
    kind = "dual_hahn"

    def validate(self):
        _require_finite(self)
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"dual Hahn needs integer N >= 0, got {self.N}")
        ok = (self.tau > -1 and self.sigma > -1) or (self.tau < -self.N and
                                                     self.sigma < -self.N)
        if not ok:
            raise InvalidFamilyParams(
                "dual Hahn needs tau, sigma > -1 or tau, sigma < -N")
        c = self.tau + self.sigma + 1.0   # the spectral points square it
        if not math.isfinite(c * c):
            raise InvalidFamilyParams(
                f"dual Hahn needs (tau + sigma + 1)^2 finite, got "
                f"tau = {self.tau}, sigma = {self.sigma}")

    def streams(self, n_terms):
        ns = np.arange(n_terms, dtype=float)
        N, tau, sg = self.N, self.tau, self.sigma
        s = ((ns + tau + 1.0) * (N - ns) + ns * (N + sg + 1.0 - ns)
             + 0.25 * (tau + sg + 1.0) ** 2)
        inner = (ns + 1.0) * (ns + tau + 1.0) * (N - ns) * (N - ns + sg)
        # sign fixed so run_recursion reproduces the 3F2 closed form
        t = -np.sqrt(np.abs(inner))
        return RecursionCoeffs(s, t, t_squared=inner)

    def spectral_point(self, arg):
        return (int(arg) + 0.5 * (self.tau + self.sigma + 1.0)) ** 2

    def weight(self):
        pts, ms = masses_from_recursion(family_coeffs(self, self.N + 1))
        # the eigenvalues ascend, and so do the points (k + (tau+sigma+1)/2)^2
        # when tau, sigma > -1; when tau, sigma < -N they fall as k grows
        ks = np.argsort([self.spectral_point(k) for k in range(self.N + 1)],
                        kind="stable")
        return WeightFunction("discrete", masses=ms, mass_points=pts,
                              mass_indices=ks)

    mass_point = discrete_mass = _no_mass_formula


def _wilson_form_ac(n_terms, a_roots, c_roots, rho):
    """A_n, n = 0..n_terms-1, and C_n, n = 0..n_terms, of a recursion of
    Wilson form, in one array pass:
        A_n = (n+a_1)(n+a_2)(n+a_3)(n+rho-1) / ((2n+rho)(2n+rho-1)),
        C_n = n(n+c_1)(n+c_2)(n+c_3) / ((2n+rho-1)(2n+rho-2)).
    At n = 0 they take the forms A_0 = a_1 a_2 a_3 / rho, with the (rho-1)
    pair cancelled, and C_0 = 0, so rho = 1 and rho = 2 stay finite; the
    array pass runs at n >= 1 only.  Each factor is n + x, a denominator
    factor 2n + x taken as 2(n + x/2)."""
    n = np.arange(n_terms + 1.0)
    n[0] = 1.0
    f = np.array((a_roots[0], 0.0, a_roots[1], c_roots[0], a_roots[2],
                  c_roots[1], rho - 1.0, c_roots[2],
                  0.5 * rho, 0.5 * (rho - 1.0), 0.5 * (rho - 2.0)))[:, None] + n
    ac = f[0:2] * f[2:4] * f[4:6] * f[6:8] / (4.0 * f[8:10] * f[9:11])
    ac[:, 0] = (a_roots[0] * a_roots[1] * a_roots[2] / rho, 0.0)
    return ac[0, :-1], ac[1]


@dataclass(frozen=True)
class Wilson:
    """Four-parameter family in w = z^2; complex-conjugate pairs allowed."""
    a: complex
    b: complex
    c: complex
    d: complex
    kind = "wilson"

    def validate(self):
        _require_finite(self)
        ps = [complex(p) for p in (self.a, self.b, self.c, self.d)]
        if any(p.real <= 0 for p in ps):
            raise InvalidFamilyParams(
                "Wilson needs Re(a,b,c,d) > 0 with conjugate pairs")
        if not any(p.imag for p in ps):
            return   # a real multiset is its own conjugate
        for p in ps:   # the multiset equals its conjugate: as many p as conj(p)
            if (sum(abs(q - p) < 1e-12 for q in ps)
                    != sum(abs(q - p.conjugate()) < 1e-12 for q in ps)):
                raise InvalidFamilyParams("non-real Wilson parameters must pair up")

    @property
    def mixed(self) -> bool:
        return False

    def streams(self, n_terms):
        ps = [complex(p) for p in (self.a, self.b, self.c, self.d)]
        pair = any(p.imag for p in ps)
        # real parameters take real arithmetic: no residue to check
        a, b, c, d = ps if pair else [p.real for p in ps]
        an, cn = _wilson_form_ac(n_terms, (a + b, a + c, a + d),
                                 (b + c - 1.0, b + d - 1.0, c + d - 1.0),
                                 a + b + c + d)
        s_n, t2 = an + cn[:-1] - a * a, an * cn[1:]
        if pair:
            # s_n and t_n^2 are symmetric in a, b, c, d, so real wherever the
            # pairs sit, and t_n^2 > 0 for Re(a, b, c, d) > 0: t_n = -sqrt
            names = ("s_%d", "t_%d^2")
            s_n, t2 = real_part_checked(np.stack((s_n, t2), axis=1), context=(
                lambda n, k: "Wilson " + names[k] % n)).T
            branch = 1.0
        else:
            # the off-diagonal takes the sign of (n+a+c)(n+b+c), so the
            # streams of a mixed Wilson record continue those of the
            # admissible region, where that factor is positive
            ns = np.arange(n_terms)
            branch = (ns + (a + c)) * (ns + (b + c))
        # + 0.0 makes a -0 branch +0: a zero branch counts as positive
        t = -np.copysign(np.sqrt(np.abs(t2)), branch + 0.0)
        return RecursionCoeffs(s_n, t, t_squared=t2)

    def spectral_point(self, arg):
        return float(arg)  # already the squared variable w = z^2

    def weight(self):
        # h0 = prod_{p<q} Gamma(p+q) / Gamma(s): the non-real sums pair up
        # as conjugates, whose product |Gamma|^2 > 0, so only the real sums
        # carry a sign
        ps = [complex(p) for p in (self.a, self.b, self.c, self.d)]
        pairs = [p + q for i, p in enumerate(ps) for q in ps[i + 1:]]
        s = sum(ps)
        log_h0 = sum(log_gamma(p).real for p in pairs) - log_gamma(s).real
        sign = float(math.prod(gammasgn(p.real) for p in pairs + [s]
                               if p.imag == 0.0))
        return _quadratic_weight(self, _gamma_ratio_density(ps, log_h0, sign))

    def density_at(self, arg):
        return weight(self).density(math.sqrt(max(arg, 0.0)))

    mass_point = discrete_mass = _no_mass_formula


@dataclass(frozen=True)
class MixedWilson(Wilson):
    """Wilson continued to a real pair (a, b) = (sigma - q, sigma + q) with
    c = d: the conjugate pair sigma +- i tau with tau^2 < 0.  For a < 0 the
    weight gains a finite discrete part at w_k = -(k+a)^2."""

    def validate(self):
        _require_finite(self)
        if any(complex(p).imag for p in (self.a, self.b, self.c, self.d)):
            raise InvalidFamilyParams("mixed Wilson needs real parameters")
        if self.c != self.d:
            raise InvalidFamilyParams("mixed Wilson needs c == d")

    @property
    def mixed(self) -> bool:
        return self.a < 0.0

    def n_discrete(self) -> int:
        """Number of mass points: k = 0..floor(-a)."""
        return int(math.floor(-self.a)) + 1 if self.mixed else 0

    def mass_point(self, k):
        """Polynomial argument of the k-th mass point, w_k = -(k+a)^2."""
        return -((k + self.a) ** 2)

    def discrete_mass(self, k):
        """Mass at the k-th isolated point (a, b, c, c), a < 0 < b, c, a+b:
        -2 (k+a) (a+c)_k^2 Gamma(a+b+k) Gamma(a+b+2c) Gamma(b-a-k) Gamma(c-a-k)^2
        / (Gamma(a+b) Gamma(2c) Gamma(b+c)^2 Gamma(1-2a-k) k!)."""
        a, b, c = self.a, self.b, self.c
        if min(b, c, a + b) <= 0 or not 0 <= k < self.n_discrete():
            raise InvalidFamilyParams(f"no mass point k={k} (needs b, c, a+b > 0)")
        return -2.0 * (k + a) * math.exp(
            2.0 * log_abs_rising(a + c, k) + log_gamma_real(a + b + k)
            + log_gamma_real(a + b + 2.0 * c) + log_gamma_real(b - a - k)
            + 2.0 * log_gamma_real(c - a - k) - log_gamma_real(a + b)
            - log_gamma_real(2.0 * c) - 2.0 * log_gamma_real(b + c)
            - log_gamma_real(1.0 - 2.0 * a - k) - log_gamma_real(k + 1.0))


@dataclass(frozen=True)
class Racah:
    """Finite discrete family on k = 0..N, parameters (gamma, sigma).

    This two-parameter specialization is intrinsically "twisted": the signed
    squares of its symmetrized off-diagonals are negative for every n < N, so
    no real symmetric three-term form exists.  ``streams`` reports the
    formal streams (|t_n| with negative t_squared) and the honest real values
    are produced by ``values_by_recursion``, which runs the asymmetric real
    recursion its hypergeometric form actually satisfies.
    """
    N: int
    gamma: float
    sigma: float
    kind = "racah"
    twisted = True

    def validate(self):
        _require_finite(self)
        if self.N < 0 or self.N != int(self.N):
            raise InvalidFamilyParams(f"Racah needs integer N >= 0, got {self.N}")
        if self.gamma <= -1 or self.sigma <= -1:
            raise InvalidFamilyParams("Racah needs gamma, sigma > -1")

    def streams(self, n_terms):
        # A_n = (n-N)(n+g+1)(n+s+1)(n+g+s+1)/((2n+g+s+1)(2n+g+s+2)) <= 0 for
        # n <= N, and C_n = n(n+g)(n+s)(n+g+s+N+1)/((2n+g+s)(2n+g+s+1)) >= 0
        g, sg, N = self.gamma, self.sigma, self.N
        an, cn = _wilson_form_ac(n_terms, (-N, g + 1.0, sg + 1.0),
                                 (g, sg, g + sg + N + 1.0), g + sg + 2.0)
        t2 = an * cn[1:]
        # |t_n| of the formal symmetrized recursion
        return RecursionCoeffs(0.25 * N * N - an - cn[:-1], np.sqrt(np.abs(t2)),
                               t_squared=t2)

    def spectral_point(self, arg):
        return 0.25 * (self.N - 2.0 * int(arg)) ** 2

    def weight(self):
        # The spectral points ((N-2k)/2)^2 collide pairwise (k <-> N-k), so a
        # positive dual orthogonality cannot exist for this specialization;
        # the printed mass formula is 0/0-degenerate accordingly.
        raise InvalidFamilyParams(
            "this Racah specialization has no positive discrete weight: "
            "its spectral points coincide pairwise")

    mass_point = discrete_mass = _no_mass_formula


_MAX_TERMS = 960   # the largest truncation ExtendedJacobi.levels takes


@dataclass(frozen=True)
class ExtendedJacobi:
    """Recursion-only family of the JA scenario, with no known closed form or
    weight.  Its streams are the scenario's raw ones, s_n = A_one C_n - (n +
    (mu+nu+1)/2)^2 and t_n = A_one |D_n| (``basis.jacobi_cd``), in the variable
    chi0 = A_zero - (a+b-1)^2/4.  Its spectrum is discrete and bounded above:
    level k is the k-th eigenvalue from the top of its truncated Jacobi
    matrix, and its mass the squared first component of the unit eigenvector."""
    mu: float
    nu: float
    A_one: float
    kind = "extended_jacobi"

    def validate(self):
        _require_finite(self)
        # mu, nu > -1 keep every D_n^2 >= 0: a real symmetric Jacobi matrix
        if not (self.mu > -1.0 and self.nu > -1.0 and self.A_one != 0.0):
            raise InvalidFamilyParams("extended Jacobi needs mu, nu > -1 and "
                                      "A_one != 0")

    def streams(self, n_terms):
        c, _, d2 = jacobi_cd(self.mu, self.nu, n_terms)
        e = 2.0 * np.arange(n_terms, dtype=float) + self.mu + self.nu
        return RecursionCoeffs(self.A_one * c - 0.25 * np.float_power(e + 1.0, 2),
                               self.A_one * np.sqrt(np.abs(d2)),
                               t_squared=self.A_one ** 2 * d2)

    def spectral_point(self, arg):
        return float(arg)

    def weight(self):
        raise NoClosedForm("ExtendedJacobi is recursion-only: no closed form "
                           "or weight is known")

    def levels(self, k: int, n_terms: int = None):
        """(T, values, vectors): the top k+1 eigenvalues of the T-term Jacobi
        matrix, descending, and their unit eigenvectors as columns, each with
        v_0 >= 0.  T is ``n_terms`` when given.  Otherwise T doubles from the
        first of 60, 120, 240, ... above k until the top k+1 agree with those
        of T/2 terms to 1e-9 max(1, |value|); TruncationTooSmall past 960."""
        if k < 0:
            raise IndexOutOfSpectrum(f"extended Jacobi level index {k} < 0")
        n, prev = n_terms or 60, None
        while n <= (n_terms or _MAX_TERMS):
            # a first solve at the largest T has nothing to settle against
            if n > k and (n_terms or prev is not None or 2 * n <= _MAX_TERMS):
                vals, vecs = jacobi_eigenpairs(family_coeffs(self, n), top=k + 1)
                vals, vecs = vals[::-1], vecs[:, ::-1]
                vecs = vecs * np.where(vecs[0] < 0.0, -1.0, 1.0)
                if n_terms or prev is not None and np.all(
                        np.abs(vals - prev) <= 1e-9 * np.maximum(1.0, np.abs(vals))):
                    return n, vals, vecs
                prev = vals
            n *= 2
        raise TruncationTooSmall(f"extended Jacobi level {k} does not settle "
                                 f"within {n // 2} terms")

    def nearest_level(self, chi: float) -> tuple:
        """(k, value) of the level nearest chi, c - 1 or c, where c levels of
        the 960-term matrix (one loose dstebz Sturm count) lie above chi; a
        level c that cannot settle (c + 1 > 480) raises TruncationTooSmall
        before any vector is built."""
        co = family_coeffs(self, _MAX_TERMS)
        hi = np.abs(co.s).max() + 2.0 * np.abs(co.t).max()   # >= every level
        c = 0 if chi >= hi else int(dstebz(co.s, co.t[:-1], 1, chi, hi, 0, 0,
                                           hi - chi, "E")[0])
        values = self.levels(c)[1]
        k = int(np.argmin(np.abs(values - chi)))
        return k, float(values[k])

    def mass_point(self, k):
        return float(self.levels(k)[1][k])

    def discrete_mass(self, k):
        return float(self.levels(k)[2][0, k] ** 2)


# ---------------------------------------------------------------------------
# entry points: the checks every family shares, then the record's formula
# ---------------------------------------------------------------------------

def family_coeffs(family, n_terms: int) -> RecursionCoeffs:
    """Recursion streams (s_n, t_n), n = 0..n_terms-1, of a family."""
    family.validate()
    N = getattr(family, "N", None)
    if N is not None and n_terms > N + 1:
        raise InvalidFamilyParams(
            f"{type(family).__name__} streams end at n = N = {N}")
    return family.streams(n_terms)


def values_by_recursion(family, arg, n_max: int) -> np.ndarray:
    """P_0..P_{n_max} at a family's natural argument, by recursion.  A
    scalar ``arg`` gives one array; an array of arguments gives one row per
    argument, from one stream build and one recursion over all of them.

    A twisted family (Racah here) has no real symmetric form; it runs the
    real recursion its values satisfy, t_{n-1} below and -t_n above the
    diagonal.
    """
    N = getattr(family, "N", None)
    if N is not None and n_max > N:
        raise InvalidFamilyParams(f"{type(family).__name__} degrees end at N = {N}")
    co = family_coeffs(family, max(n_max, 1))
    z = (family.spectral_point(arg) if np.ndim(arg) == 0
         else np.array([family.spectral_point(a) for a in arg], dtype=float))
    if getattr(family, "twisted", False):
        t = co.t[:n_max].tolist()
        return _forward(co.s[:n_max].tolist(), t, [-v for v in t], z)
    return run_recursion(co, z, n_max)


def isolated_mass_from_recursion(coeffs: RecursionCoeffs, w: float) -> float:
    """Mass of an isolated spectral point of an infinite family:
    1/sum_n P_n(w)^2 over the n < len(coeffs) the streams hold.  A vanishing
    t_n decouples the chain exactly and the sum terminates there."""
    n_top = len(coeffs) - 1
    zeros = np.nonzero(coeffs.t[:n_top] == 0.0)[0]
    if zeros.size:
        n_top = int(zeros[0])
    sq = run_recursion(coeffs, w, n_top, cap=10 ** 6) ** 2
    # drop the spurious round-off regrowth of the minimal solution
    floor = np.nonzero(sq < 1e-26 * np.max(sq))[0]
    if floor.size:
        sq = sq[:int(floor[0]) + 1]
    return 1.0 / float(np.sum(sq))


def weight(family) -> WeightFunction:
    """The normalized orthogonality weight of a family."""
    family.validate()
    return family.weight()
