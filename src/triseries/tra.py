"""Constraint scenarios and coefficient streams for the expansion recursions.

Requiring the ODE's action on the weighted-polynomial basis to be tridiagonal
fixes the basis parameters in a handful of scenarios (two for the Laguerre
equation, three for the Jacobi one) and yields, per scenario, a symmetric
three-term recursion for the expansion coefficients f_n.  This module builds
those streams in a canonical "raw" normalization, where the spectral variable
is the bare ODE-parameter combination; the solver composes the per-family
affine map on top.

Scenario labels: "LA"/"LB" for the Laguerre equation, "JA"/"JB"/"JC" for the
Jacobi one (ordered as the alternatives come out of the derivation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .basis import jacobi_cd
from .errors import (DegenerateDenominator, NoTerminatingIndex, RealityViolation,
                     ScenarioMismatch, ScenarioRequiresA1Zero, TriseriesError,
                     ZeroOffDiagonal)
from .families import ExtendedJacobi
from .recurrence import RecursionCoeffs

LAGUERRE = "laguerre"
JACOBI = "jacobi"

SCENARIOS_LAGUERRE = ("LA", "LB")
SCENARIOS_JACOBI = ("JA", "JB", "JC")

_REL_TOL = 1e-9


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


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _REL_TOL * max(1.0, abs(x), abs(y))


def resolve_basis(params: OdeParams, scenario: str, nu_sign: int = +1,
                  mu_sign: int = +1, free_value: float = None) -> BasisSpec:
    """Fix the basis parameters for a constraint scenario.

    Sign arguments pick the square-root branch of the constrained indices;
    the physically acceptable branch is the positive one (the negative root
    makes the solution blow up at the boundary).  Scenarios "LB", "JB" and
    "JC" leave one index free; it must be supplied in ``free_value``.
    """
    a, b = params.a, params.b
    if scenario in SCENARIOS_LAGUERRE:
        if params.equation != LAGUERRE:
            raise ScenarioMismatch(f"scenario {scenario} is for the Laguerre equation")
        if scenario == "LA":
            disc = (1.0 - a) ** 2 - 4.0 * params.A_minus
            if disc < 0:
                raise RealityViolation(
                    f"(1-a)^2 - 4 A_minus = {disc} < 0: no real index nu")
            nu = nu_sign * math.sqrt(disc)
            return BasisSpec(LAGUERRE, alpha=0.5 * (nu + 1.0 - a),
                             beta=0.5 * (b + 1.0), nu=nu, scenario="LA")
        # "LB": the slope constraint defines an effective first-order slope
        # sqrt(1 + 4 A_plus); beta = (1 + that)/2, and nu stays free.
        disc = 1.0 + 4.0 * params.A_plus
        if disc < 0:
            raise RealityViolation(f"1 + 4 A_plus = {disc} < 0: no real beta")
        if free_value is None:
            raise ValueError("scenario LB leaves nu free; pass free_value")
        nu = float(free_value)
        return BasisSpec(LAGUERRE, alpha=0.5 * (nu + 2.0 - a),
                         beta=0.5 * (1.0 + math.sqrt(disc)), nu=nu, scenario="LB")
    if scenario not in SCENARIOS_JACOBI:
        raise ValueError(f"unknown scenario {scenario!r}")
    if params.equation != JACOBI:
        raise ScenarioMismatch(f"scenario {scenario} is for the Jacobi equation")
    if scenario in ("JB", "JC") and params.A_one != 0.0:
        raise ScenarioRequiresA1Zero(
            f"scenario {scenario} requires A_one = 0, got {params.A_one}")
    # JA roots both indices; JB leaves nu free and JC mu, and the free index
    # enters its exponent with +2 where a rooted one enters with +1
    free = {"JB": "nu", "JC": "mu"}.get(scenario)
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


def raw_spectral_map(params: OdeParams, scenario: str) -> SpectralMap:
    """The scenario's raw spectral variable: the bare ODE-parameter
    combination in which its coefficient streams are written.  It depends on
    the parameters alone; ScenarioMismatch for LB off b^2 = 1 + 4 A_plus."""
    if scenario == "LA":
        return SpectralMap("A_zero + a b / 2", params.A_zero + 0.5 * params.a * params.b)
    if scenario == "LB":
        if not _close(params.b ** 2, 1.0 + 4.0 * params.A_plus):
            # the second scenario exists only on the slope-constrained surface
            raise ScenarioMismatch(
                f"scenario LB needs b^2 = 1 + 4 A_plus; got b^2 = {params.b ** 2}, "
                f"1 + 4 A_plus = {1.0 + 4.0 * params.A_plus}")
        return SpectralMap("A_minus", params.A_minus)
    if scenario == "JA":
        return SpectralMap("A_zero - (a+b-1)^2/4",
                           params.A_zero - 0.25 * (params.a + params.b - 1.0) ** 2)
    if scenario == "JB":
        return SpectralMap("A_plus", params.A_plus)
    return SpectralMap("A_minus", params.A_minus)


def _check_spec(params: OdeParams, spec: BasisSpec) -> None:
    """ScenarioMismatch unless ``spec`` is, field by field, what
    ``resolve_basis`` gives on the spec's own root signs and free index."""
    nu_sign, mu_sign = (-1 if v is not None and v < 0 else +1
                        for v in (spec.nu, spec.mu))
    try:
        ref = resolve_basis(params, spec.scenario, nu_sign=nu_sign, mu_sign=mu_sign,
                            free_value=spec.mu if spec.scenario == "JC" else spec.nu)
    except TriseriesError as exc:
        raise ScenarioMismatch(f"basis spec does not satisfy the {spec.scenario} "
                               f"relations: {exc}") from exc
    pairs = [(spec.alpha, ref.alpha), (spec.beta, ref.beta), (spec.nu, ref.nu)]
    if ref.mu is not None:
        pairs.append((spec.mu, ref.mu))
    if not all(_close(x, y) for x, y in pairs):
        raise ScenarioMismatch(
            f"basis spec does not satisfy the {spec.scenario} relations")


def laguerre_st2r2(params: OdeParams, spec: BasisSpec, n_terms: int):
    """Raw coefficient streams of the Laguerre-equation recursion.

    Returns (RecursionCoeffs, SpectralMap) in the normalization where the
    spectral variable is the bare combination of ``raw_spectral_map``.
    """
    if params.equation != LAGUERRE or spec.scenario not in SCENARIOS_LAGUERRE:
        raise ScenarioMismatch("laguerre_st2r2 needs a Laguerre params/spec pair")
    _check_spec(params, spec)
    zmap = raw_spectral_map(params, spec.scenario)
    a, b, nu = params.a, params.b, spec.nu
    ns = np.arange(n_terms, dtype=float)
    inner = (ns + 1.0) * (ns + nu + 1.0)
    if spec.scenario == "LA":
        c1 = params.A_plus - 0.25 * b * b - 0.25
        c2 = c1 + 0.5
        if abs(c2) < 1e-300:
            raise ZeroOffDiagonal("off-diagonal coefficient A_plus - b^2/4 + 1/4 = 0")
        s = (2.0 * ns + nu + 1.0) * c1
        t = -c2 * np.sqrt(np.abs(inner))
        t2 = c2 * c2 * inner
        return RecursionCoeffs(s, t, t_squared=t2), zmap
    omega = params.A_zero + 0.5 * (nu + a * b + 1.0)
    s = ((2.0 * ns + nu + 1.0) * (ns + omega)
         - 0.25 * (nu * nu - 1.0) + 0.25 * (a - 1.0) ** 2)
    coef = ns + omega + 0.5
    t = -coef * np.sqrt(np.abs(inner))
    t2 = coef * coef * inner
    return RecursionCoeffs(s, t, t_squared=t2), zmap


def jacobi_st2r2(params: OdeParams, spec: BasisSpec, n_terms: int):
    """Raw coefficient streams of the Jacobi-equation recursion, as
    (RecursionCoeffs, SpectralMap) like ``laguerre_st2r2``."""
    if params.equation != JACOBI or spec.scenario not in SCENARIOS_JACOBI:
        raise ScenarioMismatch("jacobi_st2r2 needs a Jacobi params/spec pair")
    _check_spec(params, spec)
    zmap = raw_spectral_map(params, spec.scenario)
    a, b = params.a, params.b
    mu, nu = spec.mu, spec.nu
    sc = spec.scenario
    if sc == "JA":
        if params.A_one == 0.0:
            raise ZeroOffDiagonal("with A_one = 0 this scenario has no recursion")
        return ExtendedJacobi(mu, nu, params.A_one).streams(n_terms), zmap
    chi = 4.0 * params.A_zero - (a + b - 1.0) ** 2
    ns = np.arange(n_terms, dtype=float)
    e = 2.0 * ns + mu + nu
    c, _, d2 = jacobi_cd(mu, nu, n_terms)
    q_up = 0.25 * ((e + 2.0) ** 2 + chi)
    ratio = np.zeros(n_terms)
    if sc == "JB":
        ratio[1:] = 2.0 * ns[1:] * (ns[1:] + mu) / e[1:]
        s = (-ratio + (c + 1.0) * q_up
             - 0.5 * (nu + 1.0) ** 2 + 0.5 * (b - 1.0) ** 2)
        t = np.sqrt(np.abs(d2)) * q_up
        t2 = d2 * q_up * q_up
        return RecursionCoeffs(s, t, t_squared=t2), zmap
    # "JC"
    ratio[1:] = 2.0 * ns[1:] * (ns[1:] + nu) / e[1:]
    s = (-ratio - (c - 1.0) * q_up
         - 0.5 * (mu + 1.0) ** 2 + 0.5 * (a - 1.0) ** 2)
    t = -np.sqrt(np.abs(d2)) * q_up
    t2 = d2 * q_up * q_up
    return RecursionCoeffs(s, t, t_squared=t2), zmap


def terminating_free_index(params: OdeParams, scenario: str, N: int,
                           nu_sign: int = +1) -> float:
    """The free index on which the recursion ends after N + 1 terms (t_N = 0):
    JC's q_N = ((2N+mu+nu+2)^2 + chi)/4 at mu = sqrt(-chi) - nu - 2 - 2N (nu
    on the ``nu_sign`` root), LB's N + omega + 1/2 at nu = -2(N+A_zero+1) - ab.
    NoTerminatingIndex if no index > -1 (a basis) does it."""
    if scenario == "LB":
        free = -2.0 * (N + params.A_zero + 1.0) - params.a * params.b
    elif scenario == "JC":
        chi = 4.0 * params.A_zero - (params.a + params.b - 1.0) ** 2
        nu = resolve_basis(params, "JC", nu_sign=nu_sign, free_value=0.0).nu
        free = math.sqrt(-chi) - nu - 2.0 - 2.0 * N if chi < 0 else math.nan
    else:
        raise ScenarioMismatch(f"scenario {scenario} has no terminating index")
    if not free > -1.0:
        raise NoTerminatingIndex(f"no index > -1 ends the {scenario} chain at "
                                 f"N = {N} (it would be {free})")
    return free


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


def apply_swap_symmetry(params: OdeParams, spec: BasisSpec):
    """The Jacobi-equation parameter-exchange symmetry.

    Swaps a <-> b, A_plus <-> A_minus, mu <-> nu, alpha <-> beta and the two
    single-index scenarios; the matching coefficient streams pick up the
    gauge f_n -> (-1)^n f_n, i.e. t_n -> -t_n with s_n unchanged.
    """
    if params.equation != JACOBI:
        raise ScenarioMismatch("the swap symmetry belongs to the Jacobi equation")
    new_params = replace(params, a=params.b, b=params.a,
                         A_plus=params.A_minus, A_minus=params.A_plus)
    new_scenario = {"JA": "JA", "JB": "JC", "JC": "JB"}[spec.scenario]
    new_spec = BasisSpec(JACOBI, alpha=spec.beta, beta=spec.alpha,
                         nu=spec.mu, mu=spec.nu, scenario=new_scenario)
    return new_params, new_spec
