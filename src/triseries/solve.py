"""Verify a series solution against its ODE by residual evaluation."""

from __future__ import annotations

import numpy as np

from .basis import evaluate_series
from .errors import SingularPointTooClose, ZeroSolution
from .tra import OdeParams, SeriesSolution

LAGUERRE_MARGIN = 0.05   # keep x >= margin away from the x = 0 singularity
JACOBI_MARGIN = 0.95     # keep |x| <= margin away from x = +-1


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
