"""Property suites: oracle equivalences, weights, orthogonality, stream
matches and algebraic identities.

``closed_form_hp`` holds each family's one closed form, its terminating
hypergeometric series in 40-digit arithmetic; the oracle suite checks the
double-precision recursion against it.

Each suite returns a list of ``Check`` records; the CLI prints them and exits
nonzero if any fails, and the test-suite asserts them individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import families as fam
from .errors import InvalidFamilyParams
from .recurrence import run_recursion
from .tra import (OdeParams, SpectralMap, jacobi_st2r2, laguerre_st2r2,
                  resolve_basis, wilson_match_identity_residual,
                  jacobi_ratio_identity_residuals, apply_swap_symmetry)


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


def closed_form_hp(f, arg, n_max: int, dps: int = 40) -> np.ndarray:
    """P_0..P_{n_max} at one argument from the terminating-hypergeometric
    forms, in ``dps``-digit mpmath arithmetic.

    This is each family's one closed form, the reference the recursion
    values are compared against.  Its unit-argument sums cancel heavily, so
    it is evaluated in ``dps`` digits, apart from the recursion: the
    Pochhammer prefactors are running products in n, and each degree sums
    its own terminating series, whose term ratio is (-n + j) [(n + shift +
    j)] c_j with the n-independent c_j formed once.  Argument conventions:
    Meixner-Pollaczek takes z; the discrete families take the integer index
    k; the quadratic-variable families take w = z^2.
    """
    import mpmath as mp
    f.validate()
    if n_max < 0:
        raise ValueError("degree must be >= 0")
    if hasattr(f, "N") and n_max > f.N:
        raise InvalidFamilyParams(f"{type(f).__name__} degrees end at N = {f.N}")
    with mp.workdps(dps):
        def products(x, step=1):
            """prod_{i<n} (x + step i) for n = 0..n_max: rising factorials
            for step 1, falling for -1, powers for 0."""
            out = [mp.mpf(1)]
            for i in range(n_max):
                out.append(out[-1] * (x + step * i))
            return out

        def sums(c, shift=None):
            """sum_j prod_{i<j} (-n + i) [(n + shift + i)] c_i, n = 0..n_max."""
            out = []
            for n in range(n_max + 1):
                tot = term = mp.mpf(1)
                for j in range(n):
                    ratio = (j - n) * c[j]
                    if shift is not None:
                        ratio *= n + shift + j
                    term *= ratio
                    tot += term
                out.append(tot)
            return out

        js = range(n_max)
        fact = products(1)
        if isinstance(f, fam.MeixnerPollaczek):
            mu, th, z = mp.mpf(f.mu), mp.mpf(f.theta), mp.mpf(float(arg))
            x = 1 - mp.exp(-2j * th)
            cj = [(mu + 1j * z + j) * x / ((2 * mu + j) * (j + 1)) for j in js]
            r2mu, phase, tot = products(2 * mu), products(mp.exp(1j * th), 0), sums(cj)
            vals = [(mp.sqrt(r2mu[n] / fact[n]) * phase[n] * tot[n]).real
                    for n in range(1, n_max + 1)]
        elif isinstance(f, fam.Meixner):
            mu, tau, k = mp.mpf(f.mu), mp.mpf(f.tau), int(arg)
            x = 1 - 1 / tau
            cj = [(-k + j) * x / ((2 * mu + j) * (j + 1)) for j in js]
            r2mu, power, tot = products(2 * mu), products(mp.sqrt(tau), 0), sums(cj)
            vals = [mp.sqrt(r2mu[n] / fact[n]) * power[n] * tot[n]
                    for n in range(1, n_max + 1)]
        elif isinstance(f, fam.Krawtchouk):
            tau, k, N = mp.mpf(f.tau), int(arg), f.N
            cj = [mp.mpf(-k + j) / ((-N + j) * (j + 1)) / tau for j in js]
            fall, power = products(mp.mpf(N), -1), products(mp.sqrt(tau / (1 - tau)), 0)
            tot = sums(cj)
            vals = [mp.sqrt(fall[n] / fact[n]) * power[n] * tot[n]
                    for n in range(1, n_max + 1)]
        elif isinstance(f, fam.ContinuousDualHahn):
            tau, a, b = mp.mpf(f.tau), mp.mpf(f.a), mp.mpf(f.b)
            w = mp.mpf(float(arg))
            cj = [((tau + j) ** 2 + w) / ((tau + a + j) * (tau + b + j) * (j + 1))
                  for j in js]
            ra, rb, rab = products(tau + a), products(tau + b), products(a + b)
            tot = sums(cj)
            vals = []
            for n in range(1, n_max + 1):
                if f.a == f.b:   # analytic branch, signed
                    pref = ra[n] / mp.sqrt(fact[n] * rab[n])
                elif ra[n] * rb[n] < 0:
                    raise InvalidFamilyParams(
                        "closed form undefined: (tau+a)_n (tau+b)_n < 0")
                else:
                    pref = mp.sqrt(ra[n] * rb[n] / (fact[n] * rab[n]))
                vals.append(pref * tot[n])
        elif isinstance(f, fam.DualHahn):
            tau, sg, k, N = mp.mpf(f.tau), mp.mpf(f.sigma), int(arg), f.N
            cj = [(-k + j) * (k + tau + sg + 1 + j)
                  / ((tau + 1 + j) * (-N + j) * (j + 1)) for j in js]
            rt, fall = products(tau + 1), products(mp.mpf(N), -1)
            fall_s, tot = products(N + sg, -1), sums(cj)
            vals = [mp.sqrt(rt[n] * fall[n] / (fact[n] * fall_s[n])) * tot[n]
                    for n in range(1, n_max + 1)]
        elif isinstance(f, fam.Wilson):
            a, b, c, d = (mp.mpc(complex(f.a)), mp.mpc(complex(f.b)),
                          mp.mpc(complex(f.c)), mp.mpc(complex(f.d)))
            w = mp.mpf(float(arg))
            s = a + b + c + d
            cj = [((a + j) ** 2 + w)
                  / ((a + b + j) * (a + c + j) * (a + d + j) * (j + 1)) for j in js]
            rab, rac, rad = products(a + b), products(a + c), products(a + d)
            rbc, rbd, rcd = products(b + c), products(b + d), products(c + d)
            rs, tot = products(s), sums(cj, shift=s - 1)
            vals = []
            for n in range(1, n_max + 1):
                front = rab[n] * rac[n] * rad[n] * tot[n]
                norm = ((2 * n + s - 1) / (n + s - 1) * rs[n]
                        / (rab[n] * rac[n] * rad[n] * rbc[n] * rbd[n] * rcd[n]
                           * fact[n]))
                vals.append((front * mp.sqrt(norm)).real)
        elif isinstance(f, fam.Racah):
            g, sg, k, N = mp.mpf(f.gamma), mp.mpf(f.sigma), int(arg), f.N
            gs = g + sg
            cj = [(-k + j) * (k - N + j)
                  / ((g + 1 + j) * (sg + 1 + j) * (-N + j) * (j + 1)) for j in js]
            fall, rg = products(mp.mpf(N), -1), products(gs + 2)
            rgn, tot = products(gs + N + 2), sums(cj, shift=gs + 1)
            vals = [mp.sqrt((2 * n + gs + 1) / (n + gs + 1) * fall[n] * rg[n]
                            / (rgn[n] * fact[n])) * tot[n]
                    for n in range(1, n_max + 1)]
        else:
            raise TypeError(f"no high-precision form for {f!r}")
        return np.array([1.0] + [float(v) for v in vals])


def oracle_equivalence_suite(n_draws: int = 100, n_max: int = 10,
                             seed: int = 20240817):
    """Recursion values vs terminating-hypergeometric values, per family,
    with the hypergeometric reference evaluated in high precision."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in CLOSED_FORM_KINDS:
        worst = 0.0
        for _ in range(n_draws):
            f, args = random_family(kind, rng)
            top = n_max
            if hasattr(f, "N"):
                top = min(n_max, f.N)
            for arg in args:
                vals = fam.values_by_recursion(f, arg, top)
                refs = closed_form_hp(f, arg, top)
                for n, ref in enumerate(refs):
                    scale = max(1.0, abs(ref))
                    worst = max(worst, abs(ref - vals[n]) / scale)
        out.append(Check(f"oracle_equivalence[{kind}]", worst, 1e-10))
    return out


# ---------------------------------------------------------------------------
# weights and orthogonality
# ---------------------------------------------------------------------------

def _discrete_gram(f, n_top: int, points, masses):
    co = fam.family_coeffs(f, n_top + 2)
    g = np.zeros((n_top + 1, n_top + 1))
    for pt, m in zip(points, masses):
        vals = run_recursion(co, float(pt), n_top).values
        g += m * np.outer(vals, vals)
    return g


def weight_suite(seed: int = 20240818):
    """Mass normalization and discrete/continuous orthonormality."""
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
    # Krawtchouk: binomial masses, exact finite sums
    f = fam.Krawtchouk(9, 0.35)
    w = fam.weight(f)
    out.append(Check("krawtchouk_mass_sum", abs(float(np.sum(w.masses)) - 1.0), 1e-10))
    g = _discrete_gram(f, 6, w.mass_points, w.masses)
    out.append(Check("krawtchouk_orthonormality",
                     float(np.max(np.abs(g - np.eye(7)))), 1e-10))
    # dual Hahn: masses from the dual orthogonality of the recursion
    f = fam.DualHahn(9, 0.4, 1.2)
    w = fam.weight(f)
    out.append(Check("dual_hahn_mass_sum", abs(float(np.sum(w.masses)) - 1.0), 1e-10))
    g = _discrete_gram(f, 6, w.mass_points, w.masses)
    out.append(Check("dual_hahn_orthonormality",
                     float(np.max(np.abs(g - np.eye(7)))), 1e-10))
    # continuous families by adaptive quadrature
    for name, f, support in (
            ("meixner_pollaczek", fam.MeixnerPollaczek(0.75, 1.1), (-30.0, 30.0)),
            ("continuous_dual_hahn", fam.ContinuousDualHahn(0.8, 0.7, 0.7),
             (0.0, 40.0)),
            ("wilson", fam.Wilson(complex(0.7, 0.6), complex(0.7, -0.6), 1.2, 1.2),
             (0.0, 40.0))):
        w = fam.weight(f)
        total = quad(w.density, support[0], support[1], epsabs=1e-10, limit=300)[0]
        out.append(Check(f"{name}_weight_normalization", abs(total - 1.0), 1e-7))
        co = fam.family_coeffs(f, 8)
        worst = 0.0
        for n1 in range(7):
            for n2 in range(n1, 7):
                def integrand(z, n1=n1, n2=n2):
                    v = run_recursion(co, z if name == "meixner_pollaczek"
                                      else z * z, max(n1, n2)).values
                    return w.density(z) * v[n1] * v[n2]
                val = quad(integrand, support[0], support[1],
                           epsabs=1e-9, limit=300)[0]
                worst = max(worst, abs(val - (1.0 if n1 == n2 else 0.0)))
        out.append(Check(f"{name}_orthonormality", worst, 1e-6))
    # mixed completeness: ac part + printed masses account for unit weight
    f = fam.ContinuousDualHahn(-1.6, 0.9, 0.9)
    w = fam.weight(f)
    cont = quad(w.density, 0.0, 40.0, epsabs=1e-10, limit=300)[0]
    out.append(Check("cdh_mixed_completeness",
                     abs(cont + float(np.sum(w.masses)) - 1.0), 1e-7))
    w = fam.weight(fam.MixedWilson(1.0 - 2.3, 1.0 + 2.3, 0.8, 0.8))
    cont = quad(w.density, 0.0, 60.0, epsabs=1e-10, limit=400)[0]
    out.append(Check("wilson_mixed_completeness",
                     abs(cont + float(np.sum(w.masses)) - 1.0), 1e-6))
    # printed masses vs the dual-orthogonality oracle
    co = fam.family_coeffs(f, 8001)
    oracle = fam.isolated_mass_from_recursion(co, f.mass_point(0), 8000)
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


def stream_match_suite(n_terms: int = 16):
    """All eight coefficient-stream matches, term by term."""
    from . import solve as sv
    out = []

    # Laguerre scenario LA, oscillatory region
    p = OdeParams("laguerre", 0.3, 0.4, 1.2, -0.6, 1.7)
    spec = resolve_basis(p, "LA")
    raw, _ = laguerre_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "LA")
    out.append(Check("match[LA-meixner_pollaczek]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms)), 1e-10))
    # LA, exponential region
    p = OdeParams("laguerre", 0.3, 0.4, -0.9, -0.6, 1.7)
    spec = resolve_basis(p, "LA")
    raw, _ = laguerre_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "LA")
    out.append(Check("match[LA-meixner]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms)), 1e-10))
    # LA, finite region (index -N-1)
    n_fin = 17
    p = OdeParams("laguerre", 0.25, 0.25, -0.12,
                  ((1 - 0.25) ** 2 - (n_fin + 1) ** 2) / 4.0, 1.7)
    spec = resolve_basis(p, "LA", nu_sign=-1)
    raw, _ = laguerre_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "LA", nu_sign=-1)
    out.append(Check("match[LA-krawtchouk]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms),
                                   twist=m.spectral_map.twist), 1e-10))
    # Laguerre scenario LB, continuous
    b = 0.6
    p = OdeParams("laguerre", 1.3, b, (b * b - 1.0) / 4.0, 0.7, 0.9)
    spec = resolve_basis(p, "LB", free_value=1.4)
    raw, _ = laguerre_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "LB", free_value=1.4)
    out.append(Check("match[LB-continuous_dual_hahn]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms)), 1e-10))
    # LB, finite (the matched record lies outside validate()'s range, so
    # its streams are taken unvalidated, here and for Racah below)
    n_fin = 17
    p = OdeParams("laguerre", 1.3, b, (b * b - 1.0) / 4.0, 0.7, 0.9)
    spec = resolve_basis(p, "LB", free_value=-(n_fin + 1.0))
    raw, _ = laguerre_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "LB", free_value=-(n_fin + 1.0))
    out.append(Check("match[LB-dual_hahn]",
                     _stream_match(raw, m.spectral_map,
                                   m.family.streams(n_terms)), 1e-10))
    # Jacobi scenario JA, extended family
    chi0 = 1.9
    p = OdeParams("jacobi", 0.4, 0.7, -1.1, -0.8,
                  chi0 + 0.25 * (0.4 + 0.7 - 1.0) ** 2, A_one=2.3)
    spec = resolve_basis(p, "JA")
    raw, _ = jacobi_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "JA")
    out.append(Check("match[JA-extended_jacobi]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms)), 1e-10))
    # Jacobi scenario JC, Wilson
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, 1.2, 1.1, A_one=0.0)
    spec = resolve_basis(p, "JC", free_value=0.9)
    raw, _ = jacobi_st2r2(p, spec, n_terms)
    m = sv.match_family(p, "JC", free_value=0.9)
    out.append(Check("match[JC-wilson]",
                     _stream_match(raw, m.spectral_map,
                                   fam.family_coeffs(m.family, n_terms)), 1e-10))
    # JC, Racah (finite index, negative quadratic offset)
    n_fin = 6
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, 1.2, -2.0, A_one=0.0)
    spec = resolve_basis(p, "JC", free_value=-(n_fin + 1.0))
    raw, _ = jacobi_st2r2(p, spec, n_fin + 1)
    m = sv.match_family(p, "JC", free_value=-(n_fin + 1.0))
    out.append(Check("match[JC-racah]",
                     _stream_match(raw, m.spectral_map,
                                   m.family.streams(n_fin + 1)), 1e-10))
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
    # swap symmetry: involution and the JB <-> JC stream relation
    p = OdeParams("jacobi", 0.8, 0.5, -0.9, -0.7, 1.1, A_one=0.0)
    spec = resolve_basis(p, "JB", free_value=0.9)
    p2, spec2 = apply_swap_symmetry(p, spec)
    p3, spec3 = apply_swap_symmetry(p2, spec2)
    invol = max(abs(p3.a - p.a), abs(p3.b - p.b), abs(p3.A_plus - p.A_plus),
                abs(spec3.alpha - spec.alpha), abs(spec3.nu - spec.nu))
    out.append(Check("swap_symmetry_involution", invol, 0.0))
    rawb, _ = jacobi_st2r2(p, spec, 11)
    rawc, _ = jacobi_st2r2(p2, spec2, 11)
    ds = float(np.max(np.abs(rawb.s - rawc.s)))
    dt = float(np.max(np.abs(rawb.t + rawc.t)))
    out.append(Check("swap_symmetry_streams", max(ds, dt), 1e-10))
    return out


def degeneration_suite():
    """The extended continuous family degenerates to the orthonormal Jacobi
    recursion as its argument grows."""
    from .basis import jacobi_orthonormal_coeffs
    out = []
    worst = 0.0
    for (mu, nu, th) in ((0.3, 1.2, 0.9), (1.7, 0.4, 2.9), (0.0, 0.0, 0.7)):
        f = fam.ExtendedJacobiContinuous(mu, nu, th, 0.0, 1e8)
        co = fam.family_coeffs(f, 11)
        s_j, t_j = jacobi_orthonormal_coeffs(mu, nu, 11)
        worst = max(worst,
                    float(np.max(np.abs(co.s - s_j) / np.maximum(1.0, np.abs(s_j)))),
                    float(np.max(np.abs(co.t - t_j) / np.maximum(1.0, np.abs(t_j)))))
    out.append(Check("extended_family_degeneration", worst, 1e-6))
    return out


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
