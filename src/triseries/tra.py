"""Constraint scenarios: basis, coefficient streams and family match.

Requiring the ODE's action on the weighted-polynomial basis to be tridiagonal
fixes the basis in a handful of scenarios, "LA"/"LB" for the Laguerre
equation and "JA"/"JB"/"JC" for the Jacobi one (ordered as they come out of
the derivation).  Each yields a symmetric three-term recursion for the
expansion coefficients f_n that an Askey-scheme family solves.  ``resolve``
derives one scenario on one parameter set and returns a ``Scenario`` record:
the basis, the "raw" spectral map (the bare ODE-parameter combination the
streams are written in), the raw streams, the family match, and the series of
a bound level (a discrete level of the matched family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import families as fam
from .basis import evaluate_series, jacobi_cd, negative_integer_index
from .errors import (AmbiguousRegion, DegenerateDenominator, IndexOutOfSpectrum,
                     InvalidFamilyParams, NoFamilyApplies, NoPointwiseSolution,
                     NoTerminatingIndex, RealityViolation, ScenarioMismatch,
                     ScenarioRequiresA1Zero, TruncationTooSmall, ZeroOffDiagonal)
from .recurrence import (RecursionCoeffs, check_degree, minimal_solution,
                         run_recursion)

LAGUERRE = "laguerre"
JACOBI = "jacobi"

CONTINUOUS = "continuous"
DISCRETE_INFINITE = "discrete_infinite"
DISCRETE_FINITE = "discrete_finite"
MIXED = "mixed"

_TOL = 1e-9   # a constraint surface, a region boundary or a level, relative past 1
DEFAULT_TRUNCATION = 60   # an LA level's top degree T unless one is given
_L2_CUT = 1e-9   # LA terms with a smaller l2 tail share are zeroed
_ROW_MISS = 1e-10   # a JA eigenvector's miss of the row past its matrix
_CUT_ROUNDOFF = 1e-11   # |t_k| next to its neighbours where a chain ends


@dataclass(frozen=True)
class OdeParams:
    """Parameter set of one of the two ODEs.

    Laguerre type:  [x y'' + (a+bx) y' + A_plus x + A_minus/x] y = A_zero y.
    Jacobi type:    [(1-x^2) y'' - (a-b+x(a+b)) y' + A_plus/(1+x)
                     + A_minus/(1-x) + A_one x] y = A_zero y.
    """
    equation: str
    a: float
    b: float
    A_plus: float
    A_minus: float
    A_zero: float
    A_one: Optional[float] = None

    def __post_init__(self):
        if self.equation not in (LAGUERRE, JACOBI):
            raise ValueError(f"unknown equation kind {self.equation!r}")
        if self.equation == LAGUERRE and self.A_one is not None:
            raise ValueError("the Laguerre-type equation has no linear term A_one")
        if self.equation == JACOBI and self.A_one is None:
            object.__setattr__(self, "A_one", 0.0)
        for name in ("a", "b", "A_plus", "A_minus", "A_zero"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class BasisSpec:
    """Resolved basis exponents and polynomial indices for one scenario."""
    equation: str
    alpha: float
    beta: float
    nu: float
    scenario: str
    mu: Optional[float] = None


@dataclass(frozen=True)
class SpectralMap:
    """Affine identification z_family = (raw_value - offset)/scale.

    ``combination`` documents which ODE-parameter combination the raw value
    is; ``twist`` is -1 when the family-side squared off-diagonals carry the
    opposite sign from the raw stream's (the formally twisted finite cases).
    """
    combination: str
    raw_value: float
    scale: float = 1.0
    offset: float = 0.0
    twist: int = 1

    @property
    def family_value(self) -> float:
        return (self.raw_value - self.offset) / self.scale


@dataclass(frozen=True)
class MatchResult:
    """A polynomial family matched to an ODE-parameter set.  A family field
    or map value that is not finite (an overflowed b^2) is refused by name."""
    family: object
    spec: BasisSpec
    spectral_map: SpectralMap
    spectrum_kind: str
    n_finite: Optional[int] = None   # size-1 count N of a finite/mixed part

    def __post_init__(self):
        fam._require_finite(self.family)
        for key in ("raw_value", "scale", "offset", "family_value"):
            value = getattr(self.spectral_map, key)
            if not math.isfinite(value):
                raise InvalidFamilyParams(f"spectral map {key} = {value} is not finite")


@dataclass(frozen=True)
class SeriesSolution:
    """Expansion coefficients f_n = p * P_n and the basis they multiply."""
    f: np.ndarray
    spec: BasisSpec
    norm_factor: float

    def __call__(self, x):
        """y(x) on an array (or scalar) x."""
        return evaluate_series(self.spec, self.f, x, derivatives=False)


def _no_level(k, truncation=None):
    raise ScenarioMismatch("this scenario has no bound level")


def _no_ending(N):
    raise ScenarioMismatch("this scenario has no terminating index")


@dataclass(frozen=True)
class Scenario:
    """One constraint scenario resolved on one parameter set: its basis
    ``spec``, its raw spectral map ``raw``, ``streams(n)`` (the first n raw
    recursion coefficients), ``match()`` (the family whose region holds
    the parameters, with the map from ``raw`` to the family's variable;
    AmbiguousRegion on a region boundary, NoFamilyApplies in no region),
    ``state(k, truncation=None)`` (the SeriesSolution of bound level k) and
    ``ending(N)`` (the free index on which LB's or JC's recursion ends after
    N + 1 terms; NoTerminatingIndex if no index > -1 does).  LB's and JC's
    level k sits on ending(k), whatever free value the record has."""
    spec: BasisSpec
    raw: SpectralMap
    streams: Callable[[int], RecursionCoeffs]
    match: Callable[[], MatchResult]
    state: Callable[..., SeriesSolution] = _no_level
    ending: Callable[[int], float] = _no_ending


def _chain(build, params, scenario, nu_sign, mu_sign, free_at):
    """``state`` and ``ending`` of LB or JC, whose free index free_at(N)
    ends the recursion after N + 1 terms.  Level k is P_0..P_k at mass point
    k, times the square root of its mass, of the match on ending(k)."""
    def ending(N):
        free = free_at(N)
        if not free > -1.0:
            raise NoTerminatingIndex(f"no index > -1 ends the {scenario} chain at "
                                     f"N = {N} (it would be {free})")
        return free

    def state(k, truncation=None):
        match = build(params, scenario, nu_sign, mu_sign, ending(k)).match()
        family = match.family
        coeffs = fam.family_coeffs(family, k + 2)
        t = np.abs(coeffs.t)
        near = max(t[k + 1], t[k - 1] if k else 0.0)
        if not t[k] <= _CUT_ROUNDOFF * near:
            raise NoTerminatingIndex(f"|t_{k}| = {t[k]:.2e} is not round-off "
                                     f"next to {near:.2e}")
        vals = run_recursion(coeffs, family.mass_point(k), k)
        p = math.sqrt(family.discrete_mass(k))
        return SeriesSolution(p * vals, match.spec, p)

    return state, ending


def _la(params, scenario, nu_sign, mu_sign, free_value) -> Scenario:
    a, b = params.a, params.b
    disc = (1.0 - a) ** 2 - 4.0 * params.A_minus
    if disc < 0:
        raise RealityViolation(f"(1-a)^2 - 4 A_minus = {disc} < 0: no real index nu")
    nu = nu_sign * math.sqrt(disc)
    spec = BasisSpec(LAGUERRE, alpha=0.5 * (nu + 1.0 - a), beta=0.5 * (b + 1.0),
                     nu=nu, scenario=scenario)
    raw = SpectralMap("A_zero + a b / 2", params.A_zero + 0.5 * a * b)
    c1 = params.A_plus - 0.25 * b * b - 0.25
    c2 = c1 + 0.5

    def streams(n_terms):
        if abs(c2) < 1e-300:
            raise ZeroOffDiagonal("off-diagonal coefficient A_plus - b^2/4 + 1/4 = 0")
        ns = np.arange(n_terms, dtype=float)
        inner = (ns + 1.0) * (ns + nu + 1.0)
        return RecursionCoeffs((2.0 * ns + nu + 1.0) * c1,
                               -c2 * np.sqrt(np.abs(inner)), t_squared=c2 * c2 * inner)

    def match():
        u = 4.0 * params.A_plus - b * b
        if abs(u) <= _TOL or abs(u + 1.0) <= _TOL:
            raise AmbiguousRegion(
                f"4 A_plus - b^2 = {u} sits on a family-region boundary")
        if u > 0:
            family = fam.MeixnerPollaczek(0.5 * (nu + 1.0), math.acos(c1 / c2))
            return MatchResult(family, spec, replace(raw, scale=-math.sqrt(u)),
                               CONTINUOUS)
        if u < -1.0:
            ch = c1 / c2
            sh = math.sqrt(ch * ch - 1.0)
            exp_m = 1.0 / (ch + sh)   # e^{-theta}, cancellation-free
            family = fam.Meixner(0.5 * (nu + 1.0), exp_m * exp_m)
            m = replace(raw, scale=-c2 / exp_m, offset=(nu + 1.0) * c2 * sh)
            return MatchResult(family, spec, m, DISCRETE_INFINITE)
        # the finite gap -1 < u < 0: only the measure-zero set nu = -N-1 works
        n_fin = negative_integer_index(nu)
        if n_fin is None:
            raise NoFamilyApplies(
                "b^2 - 1 < 4 A_plus < b^2 with non-integer sqrt((1-a)^2-4A_minus)-1: "
                "no family applies")
        sh = -c1 / c2
        ch = math.sqrt(1.0 + sh * sh)
        family = fam.Krawtchouk(n_fin, 0.5 * (1.0 + sh / ch))
        m = replace(raw, scale=c2, offset=-n_fin * c2 * ch, twist=-1)
        return MatchResult(family, spec, m, DISCRETE_FINITE, n_finite=n_fin)

    def state(k, truncation=None):
        try:
            m = match()
        except AmbiguousRegion:
            # on the region boundary the off-diagonal vanishes identically:
            # level k is basis element k
            f = np.zeros(k + 1)
            f[k] = 1.0
            return SeriesSolution(f, spec, 1.0)
        if m.spectrum_kind != DISCRETE_INFINITE:
            raise NoPointwiseSolution(
                f"the {m.spectrum_kind} {m.family.kind} match gives no series "
                "that solves the equation pointwise")
        truncation = DEFAULT_TRUNCATION if truncation is None else truncation
        check_degree(truncation)
        # P_n(k) is the Meixner minimal solution; 2T + 2 terms settle T + 1
        family, z = m.family, m.spectral_map.family_value
        point = family.mass_point(k)
        if abs(point - z) > _TOL * max(1.0, abs(z)):
            raise IndexOutOfSpectrum(f"mass point {k} of {family.kind} is "
                                     f"{point!r}, not the matched {z!r}")
        p = math.sqrt(family.discrete_mass(k))
        vals = p * minimal_solution(fam.family_coeffs(family, 2 * truncation + 2),
                                    point)[:truncation + 1]
        tail = np.sqrt(np.cumsum(vals[::-1] ** 2)[::-1])
        vals[tail < _L2_CUT * tail[0]] = 0.0
        return SeriesSolution(vals, spec, p)

    return Scenario(spec, raw, streams, match, state)


def _lb(params, scenario, nu_sign, mu_sign, free_value) -> Scenario:
    # the effective first-order slope sqrt(1 + 4 A_plus) fixes beta; nu is free
    a, b = params.a, params.b
    disc = 1.0 + 4.0 * params.A_plus
    if disc < 0:
        raise RealityViolation(f"1 + 4 A_plus = {disc} < 0: no real beta")
    if free_value is None:
        raise ValueError("scenario LB leaves nu free; pass free_value")
    nu = float(free_value)
    spec = BasisSpec(LAGUERRE, alpha=0.5 * (nu + 2.0 - a),
                     beta=0.5 * (1.0 + math.sqrt(disc)), nu=nu, scenario=scenario)
    raw = SpectralMap("A_minus", params.A_minus)
    omega = params.A_zero + 0.5 * (nu + a * b + 1.0)

    def on_surface():
        # the second scenario exists only on the slope-constrained surface
        if not abs(b ** 2 - disc) <= _TOL * max(1.0, b ** 2, abs(disc)):
            raise ScenarioMismatch(
                f"scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = {b ** 2}, "
                f"1 + 4 A_plus = {disc}")

    def streams(n_terms):
        on_surface()
        ns = np.arange(n_terms, dtype=float)
        inner = (ns + 1.0) * (ns + nu + 1.0)
        s = ((2.0 * ns + nu + 1.0) * (ns + omega)
             - 0.25 * (nu * nu - 1.0) + 0.25 * (a - 1.0) ** 2)
        coef = ns + omega + 0.5
        return RecursionCoeffs(s, -coef * np.sqrt(np.abs(inner)),
                               t_squared=coef * coef * inner)

    def match():
        on_surface()
        n_fin = negative_integer_index(nu)
        if n_fin is not None:
            two = 2.0 * params.A_zero + a * b
            family = fam.DualHahn(n_fin, 0.5 * (two - n_fin - 1.0),
                                  0.5 * (-two - n_fin - 1.0))
            m = replace(raw, scale=-1.0, offset=0.25 * (a - 1.0) ** 2)
            return MatchResult(family, spec, m, DISCRETE_FINITE, n_finite=n_fin)
        m = replace(raw, offset=0.25 * (a - 1.0) ** 2)
        tau = params.A_zero + 0.5 * (a * b + 1.0)
        family = fam.ContinuousDualHahn(tau, 0.5 * (nu + 1.0), 0.5 * (nu + 1.0))
        if tau > 0:
            return MatchResult(family, spec, m, CONTINUOUS)
        return MatchResult(family, spec, m, MIXED, n_finite=int(math.floor(-tau)))

    # the chain ends where N + omega + 1/2 = 0
    return Scenario(spec, raw, streams, match, *_chain(
        _lb, params, scenario, nu_sign, mu_sign,
        lambda N: -2.0 * (N + params.A_zero + 1.0) - a * b))


def _jacobi_spec(params, scenario, free, nu_sign, mu_sign, free_value) -> BasisSpec:
    """JA roots both indices; JB leaves nu free and JC mu (``free``), and the
    free index enters its exponent with +2 where a rooted one enters with +1."""
    a, b = params.a, params.b
    disc_mu = (1.0 - a) ** 2 - 2.0 * params.A_minus
    disc_nu = (1.0 - b) ** 2 - 2.0 * params.A_plus
    if (free != "mu" and disc_mu < 0) or (free != "nu" and disc_nu < 0):
        rooted = {None: "mu or nu", "nu": "mu", "mu": "nu"}[free]
        raise RealityViolation(f"negative square-root argument for {rooted}")
    if free is not None and free_value is None:
        raise ValueError(f"scenario {scenario} leaves {free} free; pass free_value")
    mu = float(free_value) if free == "mu" else mu_sign * math.sqrt(disc_mu)
    nu = float(free_value) if free == "nu" else nu_sign * math.sqrt(disc_nu)
    return BasisSpec(JACOBI, alpha=0.5 * (mu + (2.0 if free == "mu" else 1.0) - a),
                     beta=0.5 * (nu + (2.0 if free == "nu" else 1.0) - b),
                     nu=nu, mu=mu, scenario=scenario)


def _ja(params, scenario, nu_sign, mu_sign, free_value) -> Scenario:
    spec = _jacobi_spec(params, scenario, None, nu_sign, mu_sign, free_value)
    raw = SpectralMap("A_zero - (a+b-1)^2/4",
                      params.A_zero - 0.25 * (params.a + params.b - 1.0) ** 2)
    family = fam.ExtendedJacobi(spec.mu, spec.nu, params.A_one)

    def streams(n_terms):
        if params.A_one == 0.0:
            raise ZeroOffDiagonal("with A_one = 0 this scenario has no recursion")
        return family.streams(n_terms)

    def match():
        if params.A_one == 0.0:
            raise ZeroOffDiagonal("this scenario has no recursion when A_one = 0")
        chi0 = raw.raw_value
        k, level = family.nearest_level(chi0)
        if abs(level - chi0) > _TOL * max(1.0, abs(chi0)):
            raise NoFamilyApplies(
                f"chi0 = {chi0!r} is no level of the extended Jacobi matrix: "
                f"the nearest is level {k}, {level!r}")
        return MatchResult(family, spec, raw, DISCRETE_INFINITE)

    def state(k, truncation=None):
        # level k: the k-th unit eigenvector of the settled or the given matrix
        chi0 = match().spectral_map.family_value
        n, levels, vecs = family.levels(k, None if truncation is None
                                        else truncation + 1)
        if abs(levels[k] - chi0) > _TOL * max(1.0, abs(chi0)):
            raise IndexOutOfSpectrum(f"level {k} of the {n}-term Jacobi matrix is "
                                     f"{float(levels[k])!r}, not the matched {chi0!r}")
        # the vector solves each recursion row but row n, which it misses by
        # t_{n-1} v_{n-1}; the ODE residual measured up to ~20 times that
        miss = abs(family.streams(n).t[-1] * vecs[-1, k])
        if miss > _ROW_MISS:
            raise TruncationTooSmall(f"row {n} of the recursion misses by {miss:.2e}")
        return SeriesSolution(vecs[:, k], spec, float(vecs[0, k]))

    return Scenario(spec, raw, streams, match, state)


def _jbc(params, scenario, nu_sign, mu_sign, free_value) -> Scenario:
    if params.A_one != 0.0:
        raise ScenarioRequiresA1Zero(
            f"scenario {scenario} requires A_one = 0, got {params.A_one}")
    jb = scenario == "JB"
    spec = _jacobi_spec(params, scenario, "nu" if jb else "mu", nu_sign, mu_sign,
                        free_value)
    a, b, mu, nu = params.a, params.b, spec.mu, spec.nu
    raw = (SpectralMap("A_plus", params.A_plus) if jb
           else SpectralMap("A_minus", params.A_minus))
    chi = 4.0 * params.A_zero - (a + b - 1.0) ** 2

    def streams(n_terms):
        ns = np.arange(n_terms, dtype=float)
        e = 2.0 * ns + mu + nu
        c, _, d2 = jacobi_cd(mu, nu, n_terms)
        q_up = 0.25 * ((e + 2.0) ** 2 + chi)
        ratio = np.zeros(n_terms)
        if jb:
            ratio[1:] = 2.0 * ns[1:] * (ns[1:] + mu) / e[1:]
            s = (-ratio + (c + 1.0) * q_up
                 - 0.5 * (nu + 1.0) ** 2 + 0.5 * (b - 1.0) ** 2)
            t = np.sqrt(np.abs(d2)) * q_up
        else:
            ratio[1:] = 2.0 * ns[1:] * (ns[1:] + nu) / e[1:]
            s = (-ratio - (c - 1.0) * q_up
                 - 0.5 * (mu + 1.0) ** 2 + 0.5 * (a - 1.0) ** 2)
            t = -np.sqrt(np.abs(d2)) * q_up
        return RecursionCoeffs(s, t, t_squared=d2 * q_up * q_up)

    def match():
        if jb:   # JB is the swap-symmetric mirror of JC
            return _jbc(swap(params), "JC", mu_sign, nu_sign, free_value).match()
        n_fin = negative_integer_index(mu)
        if n_fin is not None and chi < 0:
            root = math.sqrt(-chi)
            family = fam.Racah(n_fin, 0.5 * (mu + nu - root), 0.5 * (mu + nu + root))
            m = replace(raw, scale=-2.0, offset=0.5 * (a - 1.0) ** 2)
            return MatchResult(family, spec, m, DISCRETE_FINITE, n_finite=n_fin)
        sg, gm = 0.5 * (nu + 1.0), 0.5 * (mu + 1.0)
        m = replace(raw, scale=2.0, offset=0.5 * (a - 1.0) ** 2)
        if chi >= 0:
            tw = 0.5 * math.sqrt(chi)
            family = fam.Wilson(complex(sg, tw), complex(sg, -tw), gm, gm)
            return MatchResult(family, spec, m, CONTINUOUS)
        q = 0.5 * math.sqrt(-chi)
        family = fam.MixedWilson(sg - q, sg + q, gm, gm)
        if not family.mixed:
            return MatchResult(family, spec, m, CONTINUOUS)
        return MatchResult(family, spec, m, MIXED, n_finite=family.n_discrete() - 1)

    if jb:   # its levels are JC's on swap(params)
        return Scenario(spec, raw, streams, match)

    # the chain ends where q_N = ((2N+mu+nu+2)^2 + chi)/4 = 0
    return Scenario(spec, raw, streams, match, *_chain(
        _jbc, params, scenario, nu_sign, mu_sign,
        lambda N: math.sqrt(-chi) - nu - 2.0 - 2.0 * N if chi < 0 else math.nan))


# each scenario's equation, builder and the fields its formulas square; the
# largest square is (a + b - 1)^2, so a field is refused once (2 field)^2
# overflows (LA takes b only in b*b, whose overflow its family refuses)
_SCENARIOS = {"LA": (LAGUERRE, _la, ("a",)), "LB": (LAGUERRE, _lb, ("a", "b")),
              "JA": (JACOBI, _ja, ("a", "b", "A_one")),
              "JB": (JACOBI, _jbc, ("a", "b")), "JC": (JACOBI, _jbc, ("a", "b"))}


def resolve(params: OdeParams, scenario: str, nu_sign: int = +1,
            mu_sign: int = +1, free_value: float = None) -> Scenario:
    """Resolve a constraint scenario on ``params``.

    Sign arguments pick the square-root branch of the constrained indices;
    the physically acceptable branch is the positive one (the negative root
    makes the solution blow up at the boundary).  Scenarios "LB", "JB" and
    "JC" leave one index free; it must be supplied in ``free_value``.  LB
    exists only on the surface b^2 = 1 + 4 A_plus: off it, its streams and
    match raise ScenarioMismatch.  A field whose square overflows, or a
    free value that is not finite, is refused by name.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    equation, build, squared = _SCENARIOS[scenario]
    if params.equation != equation:
        raise ScenarioMismatch(
            f"scenario {scenario} is for the {equation.capitalize()} equation")
    for name in squared:
        value = getattr(params, name)
        if math.isfinite(value) and not math.isfinite(4.0 * value * value):
            raise ValueError(f"{name} = {value!r} is out of range: (2 {name})^2 "
                             "overflows")
    if free_value is not None and not math.isfinite(free_value):
        raise ValueError(f"free_value = {free_value!r} is not finite")
    return build(params, scenario, nu_sign, mu_sign, free_value)


def swap(params: OdeParams) -> OdeParams:
    """The Jacobi-equation parameter-exchange symmetry a <-> b, A_plus <->
    A_minus.  It sends scenario JB's basis to JC's with mu <-> nu and alpha
    <-> beta, and their streams agree up to the gauge f_n -> (-1)^n f_n,
    i.e. t_n -> -t_n with s_n unchanged."""
    if params.equation != JACOBI:
        raise ScenarioMismatch("the swap symmetry belongs to the Jacobi equation")
    return replace(params, a=params.b, b=params.a,
                   A_plus=params.A_minus, A_minus=params.A_plus)


def wilson_match_identity_residual(mu: float, nu: float, chi: float, n: int) -> float:
    """|LHS - RHS| of the contiguous-product identity used in the
    quadratic-family matches; it holds for all n and real (mu, nu, chi).

    The linear right-hand term is -4n(n+nu)/(2n+mu+nu).  It is sometimes
    quoted with (n+mu) there, which misses by exactly 4n(mu-nu)/(2n+mu+nu)
    (checked symbolically); the (n+nu) form is the one the coefficient-stream
    matches require.
    """
    d0 = 2.0 * n + mu + nu
    d1 = d0 + 1.0
    d2 = d0 + 2.0
    if n > 0 and (abs(d0) < 1e-12 or abs(d1) < 1e-12 or abs(d2) < 1e-12):
        raise DegenerateDenominator("2n+mu+nu(+1,+2) too close to zero")
    if n == 0 and (abs(d1) < 1e-12 or abs(d2) < 1e-12):
        raise DegenerateDenominator("mu+nu+1 or mu+nu+2 too close to zero")
    up = d2 * d2 + chi
    lo = d0 * d0 + chi
    lhs = (n + mu + 1.0) * (n + mu + nu + 1.0) * up / (d1 * d2)
    if n > 0:
        lhs += n * (n + nu) * lo / (d0 * d1)
        rhs = -4.0 * n * (n + nu) / d0
    else:
        rhs = 0.0
    cn = float(jacobi_cd(mu, nu, n + 1)[0][n])
    rhs += 0.5 * (1.0 - cn) * up
    return abs(lhs - rhs)


def jacobi_ratio_identity_residuals(mu: float, nu: float, n: int):
    """Residuals of the two n-linear ratio identities used alongside the
    Jacobi recursion; both vanish identically."""
    d0 = 2.0 * n + mu + nu
    d2 = d0 + 2.0
    if n > 0 and (abs(d0) < 1e-12 or abs(d2) < 1e-12):
        raise DegenerateDenominator("2n+mu+nu(+2) too close to zero")
    if n == 0:
        return 0.0, 0.0
    cn = float(jacobi_cd(mu, nu, n + 1)[0][n])
    lhs_b = 2.0 * n * (n + mu + nu + 1.0) * (mu - nu) / (d0 * d2)
    rhs_b = 2.0 * n * (n + mu) / d0 - n * (cn + 1.0)
    lhs_c = 2.0 * n * (n + mu + nu + 1.0) * (nu - mu) / (d0 * d2)
    rhs_c = 2.0 * n * (n + nu) / d0 + n * (cn - 1.0)
    return abs(lhs_b - rhs_b), abs(lhs_c - rhs_c)
