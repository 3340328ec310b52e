"""Series solutions of Laguerre- and Jacobi-type second-order equations.

The expansion coefficients of square-integrable series solutions obey
symmetric three-term recursions solved by classical (and one recursion-only)
orthogonal polynomial families; quantum-mechanics applications recover
bound-state spectra and scattering phase shifts from the family data.
"""

from .errors import TriseriesError
from .recurrence import RecursionCoeffs, christoffel_darboux_check, run_recursion
from .tra import (BasisSpec, MatchResult, OdeParams, Scenario, SeriesSolution,
                  SpectralMap, resolve)
from .solve import ode_residual
from . import basis, families, physics, verify

__all__ = [
    "TriseriesError", "RecursionCoeffs", "run_recursion",
    "christoffel_darboux_check", "OdeParams", "BasisSpec", "SpectralMap",
    "Scenario", "resolve", "MatchResult", "SeriesSolution", "ode_residual",
    "basis", "families", "physics", "verify",
]

__version__ = "0.1.0"
