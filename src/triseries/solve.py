"""Match ODE parameters to a polynomial family, assemble the series solution,
and verify it against the ODE by residual evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families as fam
from .basis import evaluate_series
from .errors import (IndexOutOfSpectrum, NoPointwiseSolution,
                     SingularPointTooClose, TruncationTooSmall, ZeroSolution)
from .recurrence import check_degree, minimal_solution, run_recursion
from .tra import (DISCRETE_FINITE, DISCRETE_INFINITE, MIXED, BasisSpec,
                  MatchResult, OdeParams, resolve)

DEFAULT_TRUNCATION = 60
_BOUNDARY_TOL = 1e-9

LAGUERRE_MARGIN = 0.05   # keep x >= margin away from the x = 0 singularity
JACOBI_MARGIN = 0.95     # keep |x| <= margin away from x = +-1


@dataclass(frozen=True)
class SeriesSolution:
    """Expansion coefficients f_n = p * P_n and the basis they multiply."""
    f: np.ndarray
    spec: BasisSpec
    norm_factor: float

    def __call__(self, x):
        """y(x) on an array (or scalar) x."""
        return evaluate_series(self.spec, self.f, x, derivatives=False)


def match_family(params: OdeParams, scenario: str, nu_sign: int = +1,
                 mu_sign: int = +1, free_value: float = None) -> MatchResult:
    """The family whose region holds params: ``tra.resolve(...).match()``."""
    return resolve(params, scenario, nu_sign, mu_sign, free_value).match()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

_TAIL_REL = 1e-8
_L2_CUT = 1e-9   # Meixner terms with a smaller l2 tail share are zeroed
_ROW_MISS = 1e-10


def assemble_solution(match: MatchResult, spectral, truncation: int = None,
                      enforce_tail: bool = True, coeffs=None) -> SeriesSolution:
    """Build f_n = p * P_n for a spectral value (continuous) or index k.

    For mixed spectra, an integer ``spectral`` selects the discrete
    component at that index and a float selects the continuous component at
    that squared-variable value.  ``coeffs``: the streams of a non-Meixner
    family when the caller has built them, at least truncation + 1 terms.
    A Meixner or extended-Jacobi index k whose mass point or level is not
    the matched value raises IndexOutOfSpectrum.
    A finite (negative basis-index) match raises NoPointwiseSolution: its
    f_n solve the coefficient recursion, but the series does not solve the
    equation pointwise.
    """
    f = match.family
    if isinstance(f, fam.ExtendedJacobi):
        # level k: the k-th unit eigenvector of the settled or the given matrix
        k, chi0 = int(spectral), match.spectral_map.family_value
        n, levels, vecs = f.levels(k, None if truncation is None else truncation + 1)
        if abs(levels[k] - chi0) > _BOUNDARY_TOL * max(1.0, abs(chi0)):
            raise IndexOutOfSpectrum(f"level {k} of the {n}-term Jacobi matrix is "
                                     f"{float(levels[k])!r}, not the matched {chi0!r}")
        # the vector solves each recursion row but row n, which it misses by
        # t_{n-1} v_{n-1}; the ODE residual measured up to ~20 times that
        miss = abs(f.streams(n).t[-1] * vecs[-1, k])
        if miss > _ROW_MISS:
            raise TruncationTooSmall(f"row {n} of the recursion misses by {miss:.2e}")
        return SeriesSolution(vecs[:, k], match.spec, float(vecs[0, k]))
    kind = match.spectrum_kind
    if truncation is None:
        truncation = DEFAULT_TRUNCATION
    if kind == DISCRETE_FINITE:
        raise NoPointwiseSolution(
            f"the finite {f.kind} match (N = {match.n_finite}) gives no series "
            "that solves the equation pointwise")
    check_degree(truncation)
    if kind == DISCRETE_INFINITE:
        # Meixner: P_n(k) is the minimal solution; 2T + 2 terms settle T + 1
        k, z = int(spectral), match.spectral_map.family_value
        point = f.mass_point(k)
        if abs(point - z) > _BOUNDARY_TOL * max(1.0, abs(z)):
            raise IndexOutOfSpectrum(f"mass point {k} of {f.kind} is {point!r}, "
                                     f"not the matched {z!r}")
        p = math.sqrt(f.discrete_mass(k))
        vals = p * minimal_solution(fam.family_coeffs(f, 2 * truncation + 2),
                                    point)[:truncation + 1]
        tail = np.sqrt(np.cumsum(vals[::-1] ** 2)[::-1])
        vals[tail < _L2_CUT * tail[0]] = 0.0
        return SeriesSolution(vals, match.spec, p)
    if coeffs is None:
        coeffs = fam.family_coeffs(f, truncation + 1)
    if kind == MIXED and isinstance(spectral, (int, np.integer)):
        k = int(spectral)
        if not 0 <= k <= match.n_finite:
            raise IndexOutOfSpectrum(f"index {k} outside 0..{match.n_finite}")
        vals = run_recursion(coeffs, f.mass_point(k), truncation)
        p = math.sqrt(f.discrete_mass(k))
        return SeriesSolution(p * vals, match.spec, p)
    # continuous component
    zval = float(spectral)
    coeff = run_recursion(coeffs, f.spectral_point(zval), truncation)
    p = math.sqrt(f.density_at(zval))
    coeff = p * coeff
    if enforce_tail:
        tail = np.max(np.abs(coeff[-3:]))
        if tail > _TAIL_REL * np.max(np.abs(coeff)):
            raise TruncationTooSmall(
                f"tail {tail:.2e} not negligible at truncation {truncation}")
    return SeriesSolution(coeff, match.spec, p)


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
