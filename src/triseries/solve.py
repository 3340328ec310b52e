"""Match ODE parameters to a polynomial family, assemble the series solution,
and verify it against the ODE by residual evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import families as fam
from .basis import evaluate_series
from .errors import (AmbiguousRegion, IndexOutOfSpectrum, NoFamilyApplies,
                     SingularPointTooClose, TruncationTooSmall, ZeroOffDiagonal,
                     ZeroSolution)
from .recurrence import run_recursion
from .tra import (BasisSpec, OdeParams, SpectralMap, jacobi_st2r2,
                  laguerre_st2r2, resolve_basis)

CONTINUOUS = "continuous"
DISCRETE_INFINITE = "discrete_infinite"
DISCRETE_FINITE = "discrete_finite"
MIXED = "mixed"
DISCRETE_UNKNOWN = "discrete_unknown"

DEFAULT_TRUNCATION = 60
_BOUNDARY_TOL = 1e-9
_INTEGER_TOL = 1e-9

LAGUERRE_MARGIN = 0.05   # keep x >= margin away from the x = 0 singularity
JACOBI_MARGIN = 0.95     # keep |x| <= margin away from x = +-1


@dataclass(frozen=True)
class MatchResult:
    """A polynomial family matched to an ODE-parameter set."""
    family: object
    spec: BasisSpec
    spectral_map: SpectralMap
    spectrum_kind: str
    n_finite: Optional[int] = None   # size-1 count N of a finite/mixed part
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesSolution:
    """Expansion coefficients f_n = p * P_n and the basis they multiply."""
    f: np.ndarray
    spec: BasisSpec
    truncation: int
    norm_factor: float
    argument: float
    family: object = None
    unnormalized: bool = False

    def norm_sq_partial(self, upto: int = None) -> float:
        sl = self.f if upto is None else self.f[:upto + 1]
        return float(np.sum(np.abs(sl) ** 2))

    def __call__(self, x):
        """y(x) on an array (or scalar) x."""
        return evaluate_series(self.spec, self.f, x)[0]


def _near_nonneg_integer(x: float):
    r = round(x)
    if r >= 0 and abs(x - r) <= _INTEGER_TOL * max(1.0, abs(x)):
        return int(r)
    return None


def match_family(params: OdeParams, scenario: str, nu_sign: int = +1,
                 mu_sign: int = +1, free_value: float = None,
                 z_k: float = None) -> MatchResult:
    """Select the polynomial family whose constraint region contains params.

    The returned ``spectral_map`` sends the ODE-parameter combination to the
    family's recursion variable; ``spectrum_kind`` classifies the spectrum.
    Parameters on a region boundary raise AmbiguousRegion; parameters in no
    region (the generic finite-gap case) raise NoFamilyApplies.
    """
    spec = resolve_basis(params, scenario, nu_sign=nu_sign, mu_sign=mu_sign,
                         free_value=free_value)
    base_notes = {"params": params}
    a, b = params.a, params.b
    if scenario == "LA":
        u = 4.0 * params.A_plus - b * b
        c1 = params.A_plus - 0.25 * b * b - 0.25
        c2 = c1 + 0.5
        if abs(u) <= _BOUNDARY_TOL or abs(u + 1.0) <= _BOUNDARY_TOL:
            raise AmbiguousRegion(
                f"4 A_plus - b^2 = {u} sits on a family-region boundary")
        _, zmap = laguerre_st2r2(params, spec, 1)
        if u > 0:
            theta = math.acos(c1 / c2)
            family = fam.MeixnerPollaczek(0.5 * (spec.nu + 1.0), theta)
            m = SpectralMap(zmap.combination, zmap.raw_value,
                            scale=-math.sqrt(u), offset=0.0)
            return MatchResult(family, spec, m, CONTINUOUS, notes=base_notes)
        if u < -1.0:
            ch = c1 / c2
            sh = math.sqrt(ch * ch - 1.0)
            exp_m = 1.0 / (ch + sh)   # e^{-theta}, cancellation-free
            tau = exp_m * exp_m
            family = fam.Meixner(0.5 * (spec.nu + 1.0), tau)
            m = SpectralMap(zmap.combination, zmap.raw_value,
                            scale=-c2 / exp_m,
                            offset=(spec.nu + 1.0) * c2 * sh)
            return MatchResult(family, spec, m, DISCRETE_INFINITE,
                               notes=base_notes)
        # the finite gap -1 < u < 0: only the measure-zero set nu = -N-1 works
        n_fin = _near_nonneg_integer(-spec.nu - 1.0)
        if n_fin is None:
            raise NoFamilyApplies(
                "b^2 - 1 < 4 A_plus < b^2 with non-integer sqrt((1-a)^2-4A_minus)-1: "
                "no family applies")
        sh = -c1 / c2
        ch = math.sqrt(1.0 + sh * sh)
        tau = 0.5 * (1.0 + sh / ch)
        family = fam.Krawtchouk(n_fin, tau)
        m = SpectralMap(zmap.combination, zmap.raw_value, scale=c2,
                        offset=-n_fin * c2 * ch, twist=-1)
        return MatchResult(family, spec, m, DISCRETE_FINITE, n_finite=n_fin,
                           notes={**base_notes, "phase_twist": True})
    if scenario == "LB":
        _, zmap = laguerre_st2r2(params, spec, 1)
        m = SpectralMap(zmap.combination, zmap.raw_value, scale=1.0,
                        offset=0.25 * (a - 1.0) ** 2)
        n_fin = _near_nonneg_integer(-spec.nu - 1.0)
        if n_fin is not None:
            two = 2.0 * params.A_zero + a * b
            family = fam.DualHahn(n_fin, 0.5 * (two - n_fin - 1.0),
                                  0.5 * (-two - n_fin - 1.0))
            m = SpectralMap(zmap.combination, zmap.raw_value, scale=-1.0,
                            offset=0.25 * (a - 1.0) ** 2)
            return MatchResult(family, spec, m, DISCRETE_FINITE,
                               n_finite=n_fin, notes=base_notes)
        tau = params.A_zero + 0.5 * (a * b + 1.0)
        half = 0.5 * (spec.nu + 1.0)
        family = fam.ContinuousDualHahn(tau, half, half)
        if tau > 0:
            return MatchResult(family, spec, m, CONTINUOUS, notes=base_notes)
        n_fin = int(math.floor(-tau))
        return MatchResult(family, spec, m, MIXED, n_finite=n_fin,
                           notes=base_notes)
    if scenario == "JA":
        if params.A_one == 0.0:
            raise ZeroOffDiagonal("this scenario has no recursion when A_one = 0")
        _, zmap = jacobi_st2r2(params, spec, 1)
        chi0 = params.A_zero - 0.25 * (a + b - 1.0) ** 2
        m = SpectralMap(zmap.combination, zmap.raw_value,
                        scale=params.A_one, offset=0.0)
        if params.A_one ** 2 >= chi0 ** 2:
            theta = math.acos(chi0 / params.A_one)
            z = -math.copysign(1.0, params.A_one) * math.sqrt(
                params.A_one ** 2 - chi0 ** 2)
            family = fam.ExtendedJacobiContinuous(spec.mu, spec.nu, theta, 0.0, z)
            return MatchResult(family, spec, m, CONTINUOUS,
                               notes={**base_notes, "unnormalized": True})
        c = chi0 / params.A_one
        if c < 1.0:
            raise NoFamilyApplies(
                "discrete extended-Jacobi regime needs the normalized diagonal "
                "offset >= 1; got chi0/A_one < -1")
        tau = (2.0 * c * c - 1.0) - 2.0 * abs(c) * math.sqrt(c * c - 1.0)
        zk = z_k if z_k is not None else -params.A_one * (1.0 - tau) / (
            2.0 * math.sqrt(tau))
        family = fam.ExtendedJacobiDiscrete(spec.mu, spec.nu, tau, 0.0, zk)
        return MatchResult(family, spec, m, DISCRETE_UNKNOWN,
                           notes={**base_notes, "unnormalized": True,
                                  "z_k_user": z_k is not None})
    if scenario in ("JB", "JC"):
        # JB is the swap-symmetric mirror of JC; match on JC coordinates.
        use = params
        use_spec = spec
        swapped = False
        if scenario == "JB":
            from .tra import apply_swap_symmetry
            use, use_spec = apply_swap_symmetry(params, spec)
            swapped = True
        _, zmap = jacobi_st2r2(use, use_spec, 1)
        chi = 4.0 * use.A_zero - (use.a + use.b - 1.0) ** 2
        n_fin = _near_nonneg_integer(-use_spec.mu - 1.0)
        if n_fin is not None and chi < 0:
            root = math.sqrt(-chi)
            sg = 0.5 * (use_spec.mu + use_spec.nu + root)
            gm = 0.5 * (use_spec.mu + use_spec.nu - root)
            family = fam.Racah(n_fin, gm, sg)
            m = SpectralMap(zmap.combination, zmap.raw_value, scale=-2.0,
                            offset=0.5 * (use.a - 1.0) ** 2)
            return MatchResult(family, use_spec, m, DISCRETE_FINITE,
                               n_finite=n_fin,
                               notes={"params": use, "swapped": swapped,
                                      "unnormalized": True})
        sg = 0.5 * (use_spec.nu + 1.0)
        gm = 0.5 * (use_spec.mu + 1.0)
        m = SpectralMap(zmap.combination, zmap.raw_value, scale=2.0,
                        offset=0.5 * (use.a - 1.0) ** 2)
        if chi >= 0:
            tw = 0.5 * math.sqrt(chi)
            family = fam.Wilson(complex(sg, tw), complex(sg, -tw), gm, gm)
            return MatchResult(family, use_spec, m, CONTINUOUS,
                               notes={"params": use, "swapped": swapped})
        q = 0.5 * math.sqrt(-chi)
        family = fam.MixedWilson(sg - q, sg + q, gm, gm)
        if not family.mixed:
            return MatchResult(family, use_spec, m, CONTINUOUS,
                               notes={"params": use, "swapped": swapped})
        return MatchResult(family, use_spec, m, MIXED,
                           n_finite=family.n_discrete() - 1,
                           notes={"params": use, "swapped": swapped})
    raise ValueError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

_TAIL_REL = 1e-8


def finite_expansion_streams(params: OdeParams, spec, n_terms: int):
    """Real (diag, sub, sup) streams of the expansion recursion when the
    basis index is a negative integer (finite families).

    The generic streams carry sqrt(n(n+nu)) factors whose arguments turn
    negative for nu = -N-1; with the positive finite-case basis normalization
    those factors split into sign(n+nu) sqrt(n |n+nu|), making the recursion
    real but asymmetric (the products sub_{n+1} sup_n reproduce the signed
    squares of the formal symmetrization).  Exposed for diagnostics.
    """
    a, b, nu = params.a, params.b, spec.nu
    ns = np.arange(n_terms, dtype=float)
    sub_root = np.sqrt(ns * np.abs(ns + nu))
    sup_root = np.sign(ns + nu + 1.0) * np.sqrt((ns + 1.0) * np.abs(ns + nu + 1.0))
    if spec.scenario == "LA":
        c1 = params.A_plus - 0.25 * b * b - 0.25
        c2 = c1 + 0.5
        diag = (2.0 * ns + nu + 1.0) * c1
        return diag, -c2 * sub_root, -c2 * sup_root, params.A_zero + 0.5 * a * b
    omega = params.A_zero + 0.5 * (nu + a * b + 1.0)
    diag = ((2.0 * ns + nu + 1.0) * (ns + omega)
            - 0.25 * (nu * nu - 1.0) + 0.25 * (a - 1.0) ** 2)
    return (diag, -(ns + omega - 0.5) * sub_root,
            -(ns + omega + 0.5) * sup_root, params.A_minus)


def _values_with_decoupling(coeffs, z: float, n_max: int) -> np.ndarray:
    """run_recursion that treats a vanishing t_n as an exact decoupling of
    the coefficient chain (the state is a finite combination)."""
    try:
        return run_recursion(coeffs, z, n_max).values
    except ZeroOffDiagonal:
        tz = np.nonzero(coeffs.t[:n_max] == 0.0)[0]
        n_top = int(tz[0])
        head = run_recursion(coeffs, z, n_top).values
        return np.concatenate([head, np.zeros(n_max - n_top)])


_CLIP_TAIL_REL = 1e-6
_CLIP_REGROWTH = 1e2


def _clip_roundoff_tail(vals: np.ndarray) -> np.ndarray:
    """Zero the tail of a decaying coefficient sequence past the point where
    forward recursion starts regrowing the dominant solution from round-off.

    Contamination shows up as a V shape: geometric decay to a vertex deep in
    the tail, then monotone-ish regrowth peaking at the final terms.  A sign
    node does not match that signature (its rebound peaks right after the
    node and keeps decaying), so it never triggers the clip.
    """
    a = np.abs(vals)
    peak = float(np.max(a))
    if peak == 0.0 or a.size < 8:
        return vals
    i_min = int(np.argmin(a))
    vertex = a[i_min]
    if i_min >= a.size - 4 or vertex >= _CLIP_TAIL_REL * peak:
        return vals
    suffix = a[i_min:]
    s_max = float(np.max(suffix))
    if s_max <= _CLIP_REGROWTH * max(vertex, 1e-300 * peak):
        return vals
    peak_at_end = int(np.argmax(suffix)) >= suffix.size - 3
    if not (peak_at_end or a[-1] > 0.3 * s_max):
        return vals
    out = vals.copy()
    out[i_min + 1:] = 0.0
    return out


def assemble_solution(match: MatchResult, spectral, truncation: int = None,
                      enforce_tail: bool = True) -> SeriesSolution:
    """Build f_n = p * P_n for a spectral value (continuous) or index k.

    For mixed spectra, an integer ``spectral`` selects the discrete
    component at that index and a float selects the continuous component at
    that squared-variable value.
    """
    f = match.family
    kind = match.spectrum_kind
    if truncation is None:
        truncation = DEFAULT_TRUNCATION
    unnorm = bool(match.notes.get("unnormalized", False))
    is_index = isinstance(spectral, (int, np.integer))
    if kind == DISCRETE_FINITE:
        # The finite negative-index associations are formal: their printed
        # spectral identification belongs to the sign-flipped (twisted)
        # symmetrization and the operator action leaks a degenerate-polynomial
        # term at the top degree, so these series are exact solutions of the
        # coefficient recursion, not of the equation pointwise.
        k = int(spectral)
        n_top = match.n_finite
        if not 0 <= k <= n_top:
            raise IndexOutOfSpectrum(f"index {k} outside 0..{n_top}")
        vals = fam.values_by_recursion(f, k, n_top)
        p = 1.0 if unnorm else math.sqrt(fam.discrete_mass(f, k))
        coeff = p * np.asarray(vals)
        return SeriesSolution(coeff, match.spec, n_top + 1, p, float(k), f, unnorm)
    if kind == DISCRETE_INFINITE or (kind == MIXED and is_index) \
            or kind == DISCRETE_UNKNOWN:
        if kind == DISCRETE_UNKNOWN:
            coeffs = fam.family_coeffs(f, truncation + 1)
            z = fam.spectral_point(f, spectral)
            vals = run_recursion(coeffs, z, truncation).values
            return SeriesSolution(np.asarray(vals), match.spec, truncation + 1,
                                  1.0, float(spectral), f, True)
        k = int(spectral)
        if kind == MIXED and not 0 <= k <= match.n_finite:
            raise IndexOutOfSpectrum(f"index {k} outside 0..{match.n_finite}")
        coeffs = fam.family_coeffs(f, truncation + 1)
        vals = _clip_roundoff_tail(_values_with_decoupling(
            coeffs, fam.mass_point(f, k), truncation))
        p = 1.0 if unnorm else math.sqrt(fam.discrete_mass(f, k))
        return SeriesSolution(p * np.asarray(vals), match.spec, truncation + 1,
                              p, float(k), f, unnorm)
    # continuous component
    zval = float(spectral)
    coeffs = fam.family_coeffs(f, truncation + 1)
    z = fam.spectral_point(f, zval)
    vals = run_recursion(coeffs, z, truncation).values
    if unnorm:
        p = 1.0
    else:
        wgt = fam.weight(f)
        p = math.sqrt(wgt.density(zval if isinstance(f, fam.MeixnerPollaczek)
                                  else math.sqrt(max(zval, 0.0))))
    coeff = p * np.asarray(vals)
    if enforce_tail:
        tail = np.max(np.abs(coeff[-3:]))
        if tail > _TAIL_REL * np.max(np.abs(coeff)):
            raise TruncationTooSmall(
                f"tail {tail:.2e} not negligible at truncation {truncation}")
    return SeriesSolution(coeff, match.spec, truncation + 1, p, zval, f, unnorm)


def assemble_mixed(match: MatchResult, z: float, k: int,
                   truncation: int = None):
    """Both components of a mixed-spectrum solution (continuous at z,
    discrete at index k)."""
    if match.spectrum_kind != MIXED:
        raise ValueError("assemble_mixed needs a mixed-spectrum match")
    cont = assemble_solution(match, float(z), truncation, enforce_tail=False)
    disc = assemble_solution(match, int(k), truncation)
    return cont, disc


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def ode_residual(params: OdeParams, solution: SeriesSolution, x_points) -> float:
    """max over x of |L y - A_zero y| / max(1, |y|) on interior points, with
    y' and y'' taken exactly from the series."""
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    if params.equation == "laguerre":
        near = x < LAGUERRE_MARGIN
        if np.any(near):
            raise SingularPointTooClose(f"x = {x[near][0]} too close to 0")
    else:
        near = np.abs(x) > JACOBI_MARGIN
        if np.any(near):
            raise SingularPointTooClose(f"|x| = {abs(x[near][0])} too close to 1")
    if not np.any(np.asarray(solution.f) != 0.0):
        raise ZeroSolution("all coefficients are zero: the zero function "
                           "satisfies the equation trivially")
    y, yp, ypp = evaluate_series(solution.spec, solution.f, x)
    if params.equation == "laguerre":
        lhs = (x * ypp + (params.a + params.b * x) * yp
               + params.A_plus * x * y + params.A_minus / x * y)
    else:
        lhs = ((1.0 - x * x) * ypp
               - (params.a - params.b + x * (params.a + params.b)) * yp
               + params.A_plus / (1.0 + x) * y
               + params.A_minus / (1.0 - x) * y
               + params.A_one * x * y)
    res = np.abs(lhs - params.A_zero * y) / np.maximum(1.0, np.abs(y))
    return float(np.max(res, initial=0.0))
