"""Property suites: oracle equivalences, weights, orthogonality, stream
matches and algebraic identities.

``closed_form_hp`` holds each family's one closed form, its terminating
hypergeometric series in 40-digit arithmetic on the standard library's
``decimal``; the oracle suite checks the double-precision recursion against
it.

Each suite returns a list of ``Check`` records; the CLI prints them and exits
nonzero if any fails, and the test-suite asserts them individually.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate, takewhile
from operator import mul

import numpy as np

from . import families as fam
from .basis import jacobi_cd
from .errors import InvalidFamilyParams, PrecisionExhausted
from .recurrence import run_recursion
from .tra import (OdeParams, SpectralMap, jacobi_ratio_identity_residuals,
                  resolve, swap, wilson_match_identity_residual)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


# ---------------------------------------------------------------------------
# family draws
# ---------------------------------------------------------------------------

def random_family(kind: str, rng: np.random.Generator):
    """A random admissible family record plus a few natural arguments."""
    if kind == "meixner_pollaczek":
        f = fam.MeixnerPollaczek(rng.uniform(0.1, 4.0), rng.uniform(0.25, math.pi - 0.25))
        args = rng.uniform(-3.0, 3.0, size=3)
    elif kind == "meixner":
        f = fam.Meixner(rng.uniform(0.1, 4.0), rng.uniform(0.05, 0.95))
        args = rng.integers(0, 12, size=3)
    elif kind == "krawtchouk":
        # the range dates from a double-precision sum that lost digits near
        # the edges; it stays so that verify's values remain comparable
        n = int(rng.integers(3, 16))
        f = fam.Krawtchouk(n, rng.uniform(0.2, 0.8))
        args = rng.integers(0, n + 1, size=3)
    elif kind == "continuous_dual_hahn":
        f = fam.ContinuousDualHahn(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                                   rng.uniform(0.1, 3.0))
        args = rng.uniform(0.0, 9.0, size=3)
    elif kind == "dual_hahn":
        n = int(rng.integers(3, 13))
        f = fam.DualHahn(n, rng.uniform(-0.6, 2.5), rng.uniform(-0.6, 2.5))
        args = rng.integers(0, n + 1, size=3)
    elif kind == "wilson":
        if rng.uniform() < 0.5:
            f = fam.Wilson(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0),
                           rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        else:
            sg, tw = rng.uniform(0.3, 1.6), rng.uniform(0.1, 1.0)
            gm = rng.uniform(0.3, 1.6)
            f = fam.Wilson(complex(sg, tw), complex(sg, -tw), gm, gm)
        args = rng.uniform(0.0, 4.0, size=3)
    elif kind == "racah":
        n = int(rng.integers(3, 13))
        f = fam.Racah(n, rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0))
        args = rng.integers(0, n + 1, size=3)
    else:
        raise ValueError(kind)
    return f, args


CLOSED_FORM_KINDS = ("meixner_pollaczek", "meixner", "krawtchouk",
                     "continuous_dual_hahn", "dual_hahn", "wilson", "racah")


class _Complex:
    """A (real, imag) pair of Decimals in the active context, with the few
    operations the complex closed forms (Meixner-Pollaczek, two Wilson pairs)
    need.  Its ``real`` and ``imag`` match those of ``Decimal``, so one
    formula serves real and complex parameters."""
    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, o):
        if isinstance(o, _Complex):
            return _Complex(self.real + o.real, self.imag + o.imag)
        return _Complex(self.real + o, self.imag)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Complex):
            return _Complex(self.real * o.real - self.imag * o.imag,
                            self.real * o.imag + self.imag * o.real)
        return _Complex(self.real * o, self.imag * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Complex):
            d = o.real * o.real + o.imag * o.imag
            return _Complex((self.real * o.real + self.imag * o.imag) / d,
                            (self.imag * o.real - self.real * o.imag) / d)
        return _Complex(self.real / o, self.imag / o)


def _magnitude(v):
    """|re| + |im| of a Decimal or _Complex: within a factor sqrt(2) of |v|."""
    return abs(v.real) + abs(v.imag)


def _pair_product(u, v):
    """(re, im) of u v from the (re, im) pairs u and v, as _Complex forms it."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _cos_sin(theta: Decimal):
    """cos and sin of theta, |theta| < pi, from the Taylor series of
    e^{i theta} with five guard digits (its terms stay below 5)."""
    with decimal.localcontext() as work:
        work.prec += 5
        eps = Decimal(10) ** -work.prec
        parts = [Decimal(0)] * 4          # the terms of k = 0, 1, 2, 3 mod 4
        term, k = Decimal(1), 0
        while abs(term) > eps:
            parts[k % 4] += term
            k += 1
            term = term * theta / k
    return parts[0] - parts[2], parts[1] - parts[3]


MAX_DPS = 1280   # closed_form_hp doubles its digits up to this many


def _dec(x) -> Decimal:
    return Decimal(float(x))          # exact: a float is a finite decimal fraction


def _weights(n_max: int, shift=None):
    """The weights (-n)_j [(n + shift)_j] of degrees n = 1..n_max, j = 0..n,
    as Decimals (exactly: without a shift they are integers), with their
    absolute values and the sum of those per degree."""
    # (j - n) [(n + shift + j)], j < n, where n + shift + j sums as (n + shift) + j
    weights = [list(accumulate(range(-n, 0) if shift is None else
                               map(mul, range(-n, 0), map((n + shift).__add__, range(n))),
                               mul, initial=1)) for n in range(1, n_max + 1)]
    abs_w = [[abs(v) for v in w] for w in weights]
    return [list(map(Decimal, w)) for w in weights], abs_w, [sum(a) for a in abs_w]


# without a shift the weights are integers that depend on n_max alone
_shift_free_weights = functools.lru_cache(maxsize=16)(_weights)


def closed_form_hp(f, arg, n_max: int, dps: int = 40) -> np.ndarray:
    """P_0..P_{n_max} from the terminating-hypergeometric forms, in
    ``dps``-digit arithmetic on the standard library's ``decimal``
    (precision ``dps + 1``, in a context of its own: the caller's is left as
    it was).  A scalar ``arg`` gives one array of n_max + 1 values; an array
    of arguments gives one such row per argument, each equal bit for bit to
    the scalar call.

    This is each family's one closed form, the reference the recursion
    values are compared against.  Its unit-argument sums cancel heavily, so
    it is evaluated in ``dps`` digits, apart from the recursion: degree n
    sums S_n = sum_j (-n)_j [(n + shift)_j] C_j, with C_j = prod_{i<j} c_i
    from the n-independent term ratios c_j.  Everything but the c_j, the C_j
    and the sums is argument-free and formed once per call: the weights
    (-n)_j [(n + shift)_j] (exact integers when there is no shift, built
    once per n_max), the Pochhammer prefactors (running products in n) and
    their square roots.  A discrete family's sums stop at its first C_j
    that is exactly zero, past which every term is zero.  A complex C_j
    (Meixner-Pollaczek, two Wilson pairs) is carried as real and imaginary
    Decimals, each summed on the real weights, and only Re(rot_n S_n) is
    formed.  W_n is symmetric in a, b, c, d, so a Wilson record of one
    conjugate pair z, z' is taken as (a, z, z', d), real a <= d, where each
    product of conjugates, (a + z + j)(a + z' + j) = (a + Re z + j)^2 +
    (Im z)^2, is real.  Meixner-Pollaczek takes the argument z, the discrete
    families the integer index k, the quadratic-variable families w = z^2.

    The sums cancel hardest at high degree: at 40 digits, Wilson(.5, .5, .5,
    .5) at w = 1 would be off by 3e-13 at degree 40 and 1e3 at degree 60.
    So degree n's rounding is bounded by |prefactor| (3n + 3) 10^-dps
    sum_j |w_nj| |C_j|, w_nj = (-n)_j [(n + shift)_j], and first, more
    loosely, by the argument-free sum_j |w_nj| times max_j |C_j|.  An
    argument whose bound leaves fewer than 17 digits of max(1, |P_n|) at
    some degree is evaluated again at twice the digits; past ``MAX_DPS``
    digits the call raises ``PrecisionExhausted``.  The oracle suite's draws
    (degrees <= 10) keep 29 digits or more, so they never repeat.

    A complex Wilson record needs exactly conjugate pairs, which keep its
    shift a + b + c + d - 1 real; pairs conjugate only to within
    ``Wilson.validate``'s 1e-12 raise ``InvalidFamilyParams``.
    """
    f.validate()
    if n_max < 0:
        raise ValueError("degree must be >= 0")
    if hasattr(f, "N") and n_max > f.N:
        raise InvalidFamilyParams(f"{type(f).__name__} degrees end at N = {f.N}")
    args = [arg] if np.ndim(arg) == 0 else list(arg)
    context = decimal.Context(prec=dps + 1, rounding=decimal.ROUND_HALF_EVEN,
                              traps=[decimal.InvalidOperation,
                                     decimal.DivisionByZero, decimal.Overflow])
    with decimal.localcontext(context):
        def products(x, step=1):
            """prod_{i<n} (x + step i) for n = 0..n_max: rising factorials
            for step 1, falling for -1, powers for 0."""
            out = [Decimal(1)]
            for i in range(n_max):
                out.append(out[-1] * (x + step * i))
            return out

        def root(x, n):
            if x < 0:
                raise InvalidFamilyParams(
                    f"{type(f).__name__} closed form undefined at degree {n}: "
                    "its squared prefactor is negative")
            return x.sqrt()

        # each family converts its arguments (xs), gives its term ratios c_j
        # as a function of one converted argument, and the argument-free
        # prefactors of P_n = pre_n (rot_n S_n).real, or pre_n S_n when it
        # has no rotation rot_n
        js, ns = range(n_max), range(1, n_max + 1)
        fact = products(1)
        shift = rot = None
        complex_c = isinstance(f, fam.MeixnerPollaczek)   # ratios are (re, im) pairs
        if complex_c:
            mu, xs = _dec(f.mu), [_dec(a) for a in args]
            cos, sin = _cos_sin(_dec(f.theta))
            x_re, x_im = 2 * sin * sin, 2 * sin * cos       # 1 - e^{-2i theta}
            # (mu + j + iz) x / d_j as (re, im), the terms of _Complex's product
            mx = [((mu + j) * x_re, (mu + j) * x_im) for j in js]
            den = [(2 * mu + j) * (j + 1) for j in js]

            def ratios(z):
                zi, zr = z * x_im, z * x_re
                return (((r - zi) / d, (i + zr) / d) for (r, i), d in zip(mx, den))
            r2mu, rot = products(2 * mu), products(_Complex(cos, sin), 0)[1:]
            pre = [root(r2mu[n] / fact[n], n) for n in ns]
        elif isinstance(f, fam.Meixner):
            mu, tau, xs = _dec(f.mu), _dec(f.tau), [int(a) for a in args]
            x = 1 - 1 / tau
            den = [(2 * mu + j) * (j + 1) for j in js]

            def ratios(k):
                return ((j - k) * x / d for j, d in zip(js, den))
            r2mu, power = products(2 * mu), products(tau.sqrt(), 0)
            pre = [root(r2mu[n] / fact[n], n) * power[n] for n in ns]
        elif isinstance(f, fam.Krawtchouk):
            tau, xs, N = _dec(f.tau), [int(a) for a in args], int(f.N)
            den = [(j - N) * (j + 1) for j in js]

            def ratios(k):
                return (Decimal(j - k) / d / tau for j, d in zip(js, den))
            fall, power = products(N, -1), products((tau / (1 - tau)).sqrt(), 0)
            pre = [root(fall[n] / fact[n], n) * power[n] for n in ns]
        elif isinstance(f, fam.ContinuousDualHahn):
            tau, a, b = _dec(f.tau), _dec(f.a), _dec(f.b)
            xs = [_dec(x) for x in args]
            num = [(tau + j) ** 2 for j in js]
            den = [(tau + a + j) * (tau + b + j) * (j + 1) for j in js]

            def ratios(w):
                return ((m + w) / d for m, d in zip(num, den))
            ra, rb, rab = products(tau + a), products(tau + b), products(a + b)
            if f.a == f.b:   # analytic branch, signed
                pre = [ra[n] / root(fact[n] * rab[n], n) for n in ns]
            else:            # negative where (tau+a)_n (tau+b)_n < 0
                pre = [root(ra[n] * rb[n] / (fact[n] * rab[n]), n) for n in ns]
        elif isinstance(f, fam.DualHahn):
            tau, sg, xs, N = _dec(f.tau), _dec(f.sigma), [int(a) for a in args], int(f.N)
            den = [(tau + 1 + j) * (j - N) * (j + 1) for j in js]

            def ratios(k):
                return ((j - k) * (k + tau + sg + 1 + j) / d for j, d in zip(js, den))
            rt, fall, fall_s = products(tau + 1), products(N, -1), products(N + sg, -1)
            pre = [root(rt[n] * fall[n] / (fact[n] * fall_s[n]), n) for n in ns]
        elif isinstance(f, fam.Wilson):
            ps = [complex(p) for p in (f.a, f.b, f.c, f.d)]
            if sorted((p.real, p.imag) for p in ps) != sorted(
                    (p.real, -p.imag) for p in ps):
                raise InvalidFamilyParams(
                    "the Wilson closed form needs exactly conjugate pairs")
            conj = [p for p in ps if p.imag]
            if len(conj) == 2:   # W_n is symmetric: the pair as b, c between real a <= d
                lo, hi = sorted(p.real for p in ps if not p.imag)
                ps = [lo, *conj, hi]
            a, b, c, d = (_Complex(_dec(p.real), _dec(p.imag)) if p.imag
                          else _dec(p.real) for p in ps)
            complex_c = len(conj) == 4
            xs = [_dec(x) for x in args]
            s = sum(_dec(p.real) for p in ps)    # real: the pairs are exact

            def col(x):   # the factors x + j of (x)_n
                return [x + j for j in js]
            if len(conj) == 2:   # each product of conjugates as one real
                sq = b.imag * b.imag

                def both(x):   # (x + b + j)(x + c + j) = (x + Re b + j)^2 + (Im b)^2
                    return [v * v + sq for v in col(x + b.real)]
                lead, rest = [both(a), col(a + d)], [col(b.real + c.real), both(d)]
            else:
                lead = [col(a + b), col(a + c), col(a + d)]
                rest = [col(b + c), col(b + d), col(c + d)]
            num = [(a + j) * (a + j) for j in js]
            den = [math.prod(fs) * (j + 1) for j, fs in zip(js, zip(*lead))]

            def ratios(w):
                cs = ((m + w) / e for m, e in zip(num, den))
                return ((q.real, q.imag) for q in cs) if complex_c else cs
            # each column's running products (x)_n
            lead, rest = ([list(accumulate(fs, mul, initial=Decimal(1))) for fs in cols]
                          for cols in (lead, rest))
            rs, shift, rot, pre = products(s), s - 1, [], []
            for n in ns:
                ld = math.prod(r[n] for r in lead)
                # the pair sums close under conjugation: the product is real
                pairs = (math.prod((r[n] for r in rest), start=ld) * fact[n]).real
                norm = (2 * n + s - 1) / (n + s - 1) * rs[n] / pairs
                rot.append(ld)
                pre.append(root(norm, n))
        elif isinstance(f, fam.Racah):
            g, sg, xs, N = _dec(f.gamma), _dec(f.sigma), [int(a) for a in args], int(f.N)
            gs = g + sg
            den = [(g + 1 + j) * (sg + 1 + j) * (j - N) * (j + 1) for j in js]

            def ratios(k):
                return ((j - k) * (k - N + j) / d for j, d in zip(js, den))
            fall, rg, rgn = products(N, -1), products(gs + 2), products(gs + N + 2)
            shift = gs + 1
            pre = [root((2 * n + gs + 1) / (n + gs + 1) * fall[n] * rg[n]
                        / (rgn[n] * fact[n]), n) for n in ns]
        else:
            raise TypeError(f"no high-precision form for {f!r}")
        weights, abs_w, abs_sums = (_shift_free_weights(n_max) if shift is None
                                    else _weights(n_max, shift))
        # degree n's rounding, in units of 10^-17, is at most bound_n
        # sum_j |w_nj| |C_j|, which is at most loose max_j |C_j| at every n
        unit = Decimal(10) ** (17 - dps)
        bound = [abs(p) * (3 * n + 3) * unit for n, p in zip(ns, pre)]
        if rot is not None:
            bound = [e * _magnitude(r) for e, r in zip(bound, rot)]
        loose = max(map(mul, bound, abs_sums), default=0)
        rows, again = [], []
        for i, xi in enumerate(xs):
            if complex_c:   # C_0 = 1, C_1 = c_0, C_{j+1} = C_j c_j
                re, im = zip((Decimal(1), Decimal(0)),
                             *accumulate(ratios(xi), _pair_product))
                vals = [p * (r.real * sum(map(mul, w, re)) - r.imag * sum(map(mul, w, im)))
                        for p, r, w in zip(pre, rot, weights)]
                c_max = max(map(abs, re)) + max(map(abs, im))
            else:           # a discrete family's C_j vanish from its first zero on
                re = list(takewhile(bool, accumulate(ratios(xi), mul,
                                                     initial=Decimal(1))))
                tot = [sum(map(mul, w, re)) for w in weights]
                c_max = max(map(abs, re))
                if rot is None:
                    vals = [p * t for p, t in zip(pre, tot)]
                else:
                    vals = [p * (r * t) for p, r, t in zip(pre, rot, tot)]
            # max(1, |P_n|) >= 1: one product clears every degree at once
            if loose * c_max > 1:
                c_abs = ([abs(r) + abs(q) for r, q in zip(re, im)] if complex_c
                         else list(map(abs, re)))
                if any(e * sum(map(mul, a, c_abs)) > max(1, abs(v))
                       for e, a, v in zip(bound, abs_w, vals)):
                    again.append(i)
            rows.append([1.0, *map(float, vals)])
    out = np.array(rows).reshape(len(xs), n_max + 1)
    if again:
        if 2 * dps > MAX_DPS:
            raise PrecisionExhausted(
                f"{type(f).__name__} closed form to degree {n_max} needs more "
                f"than {MAX_DPS} digits")
        out[again] = closed_form_hp(f, [args[i] for i in again], n_max, 2 * dps)
    return out[0] if np.ndim(arg) == 0 else out


def oracle_equivalence_suite(n_draws: int = 100, n_max: int = 10,
                             seed: int = 20240817):
    """Recursion values vs terminating-hypergeometric values, per family,
    with the hypergeometric reference evaluated in high precision: one
    reference call and one stream build per draw, for its three arguments."""
    if n_draws < 1 or n_max < 0:
        raise ValueError(f"need n_draws >= 1 and n_max >= 0, got {n_draws}, {n_max}")
    rng = np.random.default_rng(seed)
    out = []
    for kind in CLOSED_FORM_KINDS:
        worst = 0.0
        for _ in range(n_draws):
            f, args = random_family(kind, rng)
            top = n_max
            if hasattr(f, "N"):
                top = min(n_max, f.N)
            vals = fam.values_by_recursion(f, args, top)
            refs = closed_form_hp(f, args, top)
            worst = max(worst, float(np.max(np.abs(refs - vals)
                                            / np.maximum(1.0, np.abs(refs)))))
        out.append(Check(f"oracle_equivalence[{kind}]", worst, 1e-10))
    return out


# ---------------------------------------------------------------------------
# weights and orthogonality
# ---------------------------------------------------------------------------

def _discrete_gram(f, n_top: int, points, masses):
    co = fam.family_coeffs(f, n_top + 2)
    vals = run_recursion(co, np.asarray(points, dtype=float), n_top)
    terms = np.asarray(masses)[:, None, None] * (vals[:, :, None] * vals[:, None, :])
    return np.add.reduce(terms, axis=0)   # a running sum, point after point


def gauss_legendre(density, lo: float, hi: float):
    """Nodes z and weights h density(z) of the composite 16-point
    Gauss-Legendre rule on unit-width panels of [lo, hi], the last one
    narrower when hi - lo is not whole.  The nodes come from numpy's
    ``leggauss``, not from a family's own recursion, so a check of that
    family's measure is not circular."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.append(np.arange(lo, hi, 1.0), hi)
    half = np.diff(edges)[:, None] / 2.0
    z = (edges[:-1, None] + half * (1.0 + x)).ravel()
    return z, (half * w).ravel() * np.array([density(v) for v in z.tolist()])


def weight_suite():
    """Mass normalization and discrete/continuous orthonormality; the
    continuous densities are integrated by ``gauss_legendre`` on the
    truncated supports where they are smooth."""
    out = []
    # Meixner: infinite masses, truncated by tail mass
    f = fam.Meixner(0.5, 0.25)
    w = fam.weight(f)
    out.append(Check("meixner_mass_sum", abs(float(np.sum(w.masses)) - 1.0), 1e-8))
    ks = range(161)
    g = _discrete_gram(f, 6, [f.mass_point(k) for k in ks],
                       [f.discrete_mass(k) for k in ks])
    out.append(Check("meixner_orthonormality", float(np.max(np.abs(g - np.eye(7)))),
                     1e-10))
    # Krawtchouk: binomial masses, exact finite sums; dual Hahn: masses from
    # the dual orthogonality of the recursion
    for name, f in (("krawtchouk", fam.Krawtchouk(9, 0.35)),
                    ("dual_hahn", fam.DualHahn(9, 0.4, 1.2))):
        w = fam.weight(f)
        out.append(Check(f"{name}_mass_sum", abs(float(np.sum(w.masses)) - 1.0), 1e-10))
        g = _discrete_gram(f, 6, w.mass_points, w.masses)
        out.append(Check(f"{name}_orthonormality",
                         float(np.max(np.abs(g - np.eye(7)))), 1e-10))
    # continuous families: the quadratic ones take w = z^2 as their argument
    for name, f, support in (
            ("meixner_pollaczek", fam.MeixnerPollaczek(0.75, 1.1), (-30.0, 30.0)),
            ("continuous_dual_hahn", fam.ContinuousDualHahn(0.8, 0.7, 0.7),
             (0.0, 40.0)),
            ("wilson", fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
             (0.0, 40.0))):
        z, dw = gauss_legendre(fam.weight(f).density, *support)
        out.append(Check(f"{name}_weight_normalization", abs(float(dw.sum()) - 1.0),
                         1e-7))
        v = run_recursion(fam.family_coeffs(f, 8),
                          z if name == "meixner_pollaczek" else z * z, 6)
        g = (v * dw[:, None]).T @ v
        out.append(Check(f"{name}_orthonormality", float(np.max(np.abs(g - np.eye(7)))),
                         1e-6))
    # mixed completeness: ac part + printed masses account for unit weight
    f = fam.ContinuousDualHahn(-1.6, 0.9, 0.9)
    w = fam.weight(f)
    cont = float(gauss_legendre(w.density, 0.0, 40.0)[1].sum())
    out.append(Check("cdh_mixed_completeness",
                     abs(cont + float(np.sum(w.masses)) - 1.0), 1e-7))
    w = fam.weight(fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8))
    cont = float(gauss_legendre(w.density, 0.0, 60.0)[1].sum())
    out.append(Check("wilson_mixed_completeness",
                     abs(cont + float(np.sum(w.masses)) - 1.0), 1e-6))
    # printed masses vs the dual-orthogonality oracle
    co = fam.family_coeffs(f, 8001)
    oracle = fam.isolated_mass_from_recursion(co, f.mass_point(0))
    out.append(Check("cdh_mass_vs_dual_orthogonality",
                     abs(oracle - f.discrete_mass(0)), 1e-8))
    return out


# ---------------------------------------------------------------------------
# resolved-stream matches
# ---------------------------------------------------------------------------

def _stream_match(raw, zmap: SpectralMap, coeffs, twist: int = 1):
    s_fam = (raw.s - zmap.offset) / zmap.scale
    t2_fam = twist * raw.t_squared / zmap.scale ** 2
    es = float(np.max(np.abs(s_fam - coeffs.s) / np.maximum(1.0, np.abs(coeffs.s))))
    et = float(np.max(np.abs(t2_fam - coeffs.t_squared)
                      / np.maximum(1.0, np.abs(coeffs.t_squared))))
    return max(es, et)


def stream_match_suite():
    """All eight coefficient-stream matches, term by term over 16 terms; a
    finite family's streams end at n = N."""
    lb = ("laguerre", 1.3, 0.6, (0.6 * 0.6 - 1.0) / 4.0, 0.7, 0.9)
    jc = ("jacobi", 0.8, 0.5, -0.9, 1.2)
    # (match, equation parameters, scenario, match keywords, whether the
    # matched record is validated): the finite LB and JC records lie outside
    # validate()'s range, so their streams are taken unvalidated
    table = (
        ("LA-meixner_pollaczek", ("laguerre", 0.3, 0.4, 1.2, -0.6, 1.7),
         "LA", {}, True),
        ("LA-meixner", ("laguerre", 0.3, 0.4, -0.9, -0.6, 1.7), "LA", {}, True),
        # the finite region: index nu = -N-1, N = 17
        ("LA-krawtchouk", ("laguerre", 0.25, 0.25, -0.12,
                           ((1 - 0.25) ** 2 - 18 ** 2) / 4.0, 1.7),
         "LA", {"nu_sign": -1}, True),
        ("LB-continuous_dual_hahn", lb, "LB", {"free_value": 1.4}, True),
        ("LB-dual_hahn", lb, "LB", {"free_value": -18.0}, False),
        # A_zero puts chi0 on the top level of the extended Jacobi matrix
        ("JA-extended_jacobi", ("jacobi", 0.4, 0.7, -1.1, -0.8, -3.595113879324,
                                2.3), "JA", {}, True),
        ("JC-wilson", jc + (1.1, 0.0), "JC", {"free_value": 0.9}, True),
        # finite index mu = -7, negative quadratic offset
        ("JC-racah", jc + (-2.0, 0.0), "JC", {"free_value": -7.0}, False),
    )
    out = []
    for label, args, scenario, keywords, validated in table:
        resolved = resolve(OdeParams(*args), scenario, **keywords)
        m = resolved.match()
        n = min(16, getattr(m.family, "N", 16) + 1)
        raw = resolved.streams(n)
        coeffs = (fam.family_coeffs(m.family, n) if validated
                  else m.family.streams(n))
        out.append(Check(f"match[{label}]", _stream_match(
            raw, m.spectral_map, coeffs, twist=m.spectral_map.twist), 1e-10))
    return out


def identity_suite(n_draws: int = 1000, seed: int = 20240819):
    """Residuals of the algebraic identities behind the quadratic matches."""
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(n_draws):
        mu = rng.uniform(-5.0, 5.0)
        nu = rng.uniform(-5.0, 5.0)
        chi = rng.uniform(-50.0, 50.0)
        n = int(rng.integers(0, 21))
        if abs(2 * n + mu + nu) < 0.1 or abs(2 * n + mu + nu + 1) < 0.1 \
                or abs(2 * n + mu + nu + 2) < 0.1:
            continue
        worst = max(worst, wilson_match_identity_residual(mu, nu, chi, n))
    out.append(Check("quadratic_match_identity", worst, 1e-11))
    worst = 0.0
    for _ in range(200):
        mu = rng.uniform(-3.0, 3.0)
        nu = rng.uniform(-3.0, 3.0)
        n = int(rng.integers(0, 15))
        if abs(2 * n + mu + nu) < 0.1 or abs(2 * n + mu + nu + 2) < 0.1:
            continue
        rb, rc = jacobi_ratio_identity_residuals(mu, nu, n)
        worst = max(worst, rb, rc)
    out.append(Check("ratio_identities", worst, 1e-11))
    # swap symmetry: an involution that sends the JB basis to the JC one,
    # and the JB <-> JC stream relation
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, -0.7, 1.1, A_one=0.0)
    jb = resolve(p, "JB", free_value=0.9)
    jc = resolve(swap(p), "JC", free_value=0.9)
    p3 = swap(swap(p))
    invol = max(abs(p3.a - p.a), abs(p3.b - p.b), abs(p3.A_plus - p.A_plus),
                abs(jc.spec.beta - jb.spec.alpha), abs(jc.spec.mu - jb.spec.nu))
    out.append(Check("swap_symmetry_involution", invol, 0.0))
    rawb, rawc = jb.streams(11), jc.streams(11)
    ds = float(np.max(np.abs(rawb.s - rawc.s)))
    dt = float(np.max(np.abs(rawb.t + rawc.t)))
    out.append(Check("swap_symmetry_streams", max(ds, dt), 1e-10))
    return out


def degeneration_suite():
    """The extended Jacobi streams divided by A_one degenerate to the
    orthonormal Jacobi recursion as A_one grows: the diagonal differs from
    C_n by exactly (n + (mu+nu+1)/2)^2/A_one, below 1.3e-7 at A_one = 1e9."""
    worst = 0.0
    for (mu, nu) in ((0.3, 1.2), (1.7, 0.4), (0.0, 0.0)):
        co = fam.family_coeffs(fam.ExtendedJacobi(mu, nu, 1e9), 11)
        for got, ref in zip((co.s, co.t), jacobi_cd(mu, nu, 11)):
            worst = max(worst, float(np.max(np.abs(got / 1e9 - ref)
                                            / np.maximum(1.0, np.abs(ref)))))
    return [Check("extended_family_degeneration", worst, 1e-6)]


SUITES = {
    "oracle": oracle_equivalence_suite,
    "weights": weight_suite,
    "matches": stream_match_suite,
    "identities": identity_suite,
    "degeneration": degeneration_suite,
}


def run_suites(names=None):
    checks = []
    for name in (names or SUITES):
        checks.extend(SUITES[name]())
    return checks
