"""Exception types shared across the package."""


class TriseriesError(Exception):
    """Base class for all package errors."""


class ZeroOffDiagonal(TriseriesError):
    """A required off-diagonal recursion coefficient t_n vanishes."""


class InvalidFamilyParams(TriseriesError):
    """Polynomial family parameters violate the family's admissibility rules."""


class NoClosedForm(TriseriesError):
    """The family is defined by its recursion only; no hypergeometric form exists."""


class PrecisionExhausted(TriseriesError):
    """A high-precision reference would need more digits than its cap."""


class DomainError(TriseriesError):
    """Argument outside the support of a basis or weight."""


class RealityViolation(TriseriesError):
    """A square root in a basis-parameter constraint has a negative argument."""


class ScenarioRequiresA1Zero(TriseriesError):
    """The requested Jacobi scenario only exists when the linear coefficient vanishes."""


class ScenarioMismatch(TriseriesError):
    """ODE parameters outside the constraint scenario asked of them."""


class DegenerateDenominator(TriseriesError):
    """An identity or recursion denominator is (numerically) zero."""


class NoFamilyApplies(TriseriesError):
    """ODE parameters lie in no polynomial family's constraint region."""


class AmbiguousRegion(TriseriesError):
    """ODE parameters sit on the boundary between two family regions."""


class NoTerminatingIndex(TriseriesError):
    """No basis index ends the coefficient chain of a level after N + 1 terms."""


class IndexOutOfSpectrum(TriseriesError):
    """Discrete spectral index outside the family's finite range, or a
    negative bound-level index."""


class NoPointwiseSolution(TriseriesError):
    """A family match whose series solves the coefficient recursion but not
    the equation pointwise (the finite negative-index families, a continuum)."""


class TruncationTooSmall(TriseriesError):
    """Series tail is not negligible at the requested truncation order."""


class SingularPointTooClose(TriseriesError):
    """Residual evaluation point violates the singular-point margin."""


class ZeroSolution(TriseriesError):
    """A series solution whose coefficients are all zero: nothing to check."""


class NoBoundStates(TriseriesError):
    """The potential has no discrete spectrum for these parameters."""


class NoContinuum(TriseriesError):
    """The potential has no scattering states (purely discrete spectrum)."""


class BelowThreshold(TriseriesError):
    """Energy below the continuum threshold of a scattering computation."""


class MeshTooCoarse(TriseriesError):
    """Finite-difference eigenvalues did not stabilize under mesh refinement."""


class BoxTooSmall(TriseriesError):
    """Fewer finite-difference eigenvalues than requested lie below the
    continuum threshold: a level does not fit in the oracle's box."""


class NonFiniteValue(TriseriesError):
    """A computed value (a recursion value or a phase shift) is inf or nan:
    an overflow, an underflowed scale or a non-finite argument."""
