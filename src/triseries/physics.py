"""Quantum-mechanics applications of the two equations.

Six radial/1-d potentials map onto the Laguerre- or Jacobi-type equation by
a coordinate change; bound-state energies come from the discrete-family
quantization, scattering phase shifts from the coefficient-polynomial
asymptotics (gamma-function expressions), and everything is cross-checked by
an independent finite-difference discretization of the Schrodinger operator.

Atomic units throughout: H = -1/2 d^2/dr^2 + V(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import families as fam
from . import solve as solvemod
from .errors import (BelowThreshold, MeshTooCoarse, NoBoundStates, NoContinuum,
                     InvalidFamilyParams)
from .gammafn import arg_gamma, wrap_angle
from .tra import JACOBI, LAGUERRE, OdeParams

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# potential cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoulombCase:
    """V(r) = -Z/r + l(l+1)/(2 r^2), r > 0 (attractive for Z > 0)."""
    Z: float
    ell: int = 0
    lam: float = 1.0

    name = "coulomb"
    ab = (0.0, 0.0)
    equation = LAGUERRE

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("scale lam must be > 0")
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError("ell must be a non-negative integer")

    def x_of_r(self, r):
        return self.lam * r

    def potential(self, r):
        r = np.asarray(r, dtype=float)
        v = -self.Z / r
        if self.ell:
            v = v + self.ell * (self.ell + 1) / (2.0 * r * r)
        return v

    domain = (0.0, math.inf)
    threshold = 0.0


@dataclass(frozen=True)
class OscillatorCase:
    """V(r) = omega^2 r^2 / 2 + l(l+1)/(2 r^2), r > 0."""
    omega: float
    ell: int = 0
    lam: float = 1.0

    name = "oscillator"
    ab = (0.5, 0.0)
    equation = LAGUERRE

    def __post_init__(self):
        if self.omega <= 0 or self.lam <= 0:
            raise ValueError("omega and lam must be > 0")
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError("ell must be a non-negative integer")

    # the doubled basis scale makes x = (lam r)^2 and the Gaussian weight
    # exp(-lam^2 r^2 / 2); admissibility then reads lam^2 <= omega.
    @property
    def lam_ode(self):
        return 2.0 * self.lam

    def x_of_r(self, r):
        return (self.lam * np.asarray(r, dtype=float)) ** 2

    def potential(self, r):
        r = np.asarray(r, dtype=float)
        v = 0.5 * self.omega ** 2 * r * r
        if self.ell:
            v = v + self.ell * (self.ell + 1) / (2.0 * r * r)
        return v

    domain = (0.0, math.inf)
    threshold = math.inf   # purely discrete


@dataclass(frozen=True)
class MorseCase:
    """V(r) = V2 e^{2 lam r} - V1 e^{lam r} on the whole line.

    The tridiagonal reduction requires V2 = lam^2/8 exactly (the second-order
    slope constraint); V2 defaults to that value and any explicit V2 must
    match it.  ``nu`` is the free basis index (> -1).
    """
    lam: float
    V1: float
    V2: Optional[float] = None
    nu: float = 0.0

    name = "morse"
    ab = (1.0, 0.0)
    equation = LAGUERRE

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        pinned = self.lam ** 2 / 8.0
        if self.V2 is None:
            object.__setattr__(self, "V2", pinned)
        elif abs(self.V2 - pinned) > 1e-9 * max(1.0, pinned):
            raise InvalidFamilyParams(
                f"the series solution requires V2 = lam^2/8 = {pinned}; "
                f"got V2 = {self.V2}")
        if self.nu <= -1:
            raise ValueError("basis index nu must be > -1")

    def x_of_r(self, r):
        return np.exp(self.lam * np.asarray(r, dtype=float))

    def potential(self, r):
        x = np.exp(self.lam * np.asarray(r, dtype=float))
        return self.V2 * x * x - self.V1 * x

    domain = (-math.inf, math.inf)
    threshold = 0.0


@dataclass(frozen=True)
class PoschlTellerCase:
    """V(r) = [A(A-lam)/sinh^2(lam r/sqrt2) + lam B/cosh^2(lam r/sqrt2)]/4.

    Note the sqrt2 in the argument: it is what the Jacobi-equation reduction
    with exponent pair (1, 1/2) actually produces, and the finite-difference
    oracle confirms the spectrum formula only with these arguments.
    ``mu`` is the free basis index (> -1); defaults to the constrained nu.
    """
    lam: float
    A: float
    B: float
    mu: Optional[float] = None

    name = "poschl_teller"
    ab = (1.0, 0.5)
    equation = JACOBI

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.A == 0:
            raise ValueError("A must be nonzero")
        if self.mu is None:
            # when bound states exist, pick the free index that decouples the
            # coefficient chain after the top level: the bound series become
            # exact finite combinations
            if self.B < self.lam / 4.0:
                w0 = 0.5 * math.sqrt(0.25 - self.B / self.lam)
                gap = w0 - 0.5 * (self.nu + 1.0)
                if gap > 0:
                    frac = gap - math.floor(gap)
                    gamma = frac if frac > 1e-9 else 1.0
                    object.__setattr__(self, "mu", 2.0 * gamma - 1.0)
            if self.mu is None:
                object.__setattr__(self, "mu", self.nu)
        if self.mu <= -1:
            raise ValueError("basis index mu must be > -1")

    @property
    def nu(self) -> float:
        r = self.A / self.lam - 0.5
        return r if self.A > 0 else -r

    def x_of_r(self, r):
        t = np.tanh(self.lam * np.asarray(r, dtype=float) / SQRT2)
        return 2.0 * t * t - 1.0

    def potential(self, r):
        u = self.lam * np.asarray(r, dtype=float) / SQRT2
        return 0.25 * (self.A * (self.A - self.lam) / np.sinh(u) ** 2
                       + self.lam * self.B / np.cosh(u) ** 2)

    domain = (0.0, math.inf)
    threshold = 0.0


@dataclass(frozen=True)
class ScarfCase:
    """Confining trigonometric well on 0 < r < L with lam = pi/L:
    V(r) = [(A^2+B^2-lam A) - B(2A-lam) cos(lam r)] / (2 sin^2(lam r))."""
    A: float
    B: float
    L: Optional[float] = None
    lam: Optional[float] = None
    mu: Optional[float] = None

    name = "scarf"
    ab = (0.5, 0.5)
    equation = JACOBI

    def __post_init__(self):
        if (self.L is None) == (self.lam is None):
            raise ValueError("give exactly one of L (box size) or lam = pi/L")
        if self.L is None:
            object.__setattr__(self, "L", math.pi / self.lam)
        else:
            object.__setattr__(self, "lam", math.pi / self.L)
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.mu is None:
            # decoupling choice: level m terminates after m + floor(eta/2)
            # terms, eta = A/lam + B/lam - 1/2 (the other index combination)
            eta = (self.A + self.B) / self.lam - 0.5
            half = 0.5 * eta
            frac = half - math.floor(half)
            gamma = frac if frac > 1e-9 else 1.0
            if gamma <= 0:
                gamma = 0.5 * (eta + 1.0)  # fall back to the generic choice
            object.__setattr__(self, "mu", 2.0 * gamma - 1.0)
        if self.mu <= -1:
            raise ValueError("basis index mu must be > -1")

    @property
    def nu(self) -> float:
        r = (self.A - self.B) / self.lam - 0.5
        return r if self.A > self.B else -r

    def x_of_r(self, r):
        return -np.cos(self.lam * np.asarray(r, dtype=float))

    def potential(self, r):
        lr = self.lam * np.asarray(r, dtype=float)
        num = (self.A ** 2 + self.B ** 2 - self.lam * self.A
               - self.B * (2.0 * self.A - self.lam) * np.cos(lr))
        return num / (2.0 * np.sin(lr) ** 2)

    @property
    def domain(self):
        return (0.0, self.L)

    threshold = math.inf   # purely discrete


@dataclass(frozen=True)
class EckartCase:
    """V(r) = [A(A-lam)/2/sinh^2(lam r/2) + lam B/tanh(lam r/2) + lam B]/4.

    Bound states require B < 0 (attractive tail); the continuum threshold is
    V(inf) = lam B / 2.
    """
    lam: float
    A: float
    B: float
    mu: Optional[float] = None

    name = "eckart"
    ab = (1.0, 0.0)
    equation = JACOBI

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.A == 0:
            raise ValueError("A must be nonzero")
        if self.mu is None:
            object.__setattr__(self, "mu", self.nu)
        if self.mu <= -1:
            raise ValueError("basis index mu must be > -1")

    @property
    def nu(self) -> float:
        r = 2.0 * self.A / self.lam - 1.0
        return r if self.A > 0 else -r

    def x_of_r(self, r):
        return 1.0 - 2.0 * np.exp(-self.lam * np.asarray(r, dtype=float))

    def potential(self, r):
        u = 0.5 * self.lam * np.asarray(r, dtype=float)
        return 0.25 * (0.5 * self.A * (self.A - self.lam) / np.sinh(u) ** 2
                       + self.lam * self.B / np.tanh(u) + self.lam * self.B)

    domain = (0.0, math.inf)

    @property
    def threshold(self):
        return 0.5 * self.lam * self.B


CASE_TYPES = {
    "coulomb": CoulombCase,
    "oscillator": OscillatorCase,
    "morse": MorseCase,
    "poschl_teller": PoschlTellerCase,
    "scarf": ScarfCase,
    "eckart": EckartCase,
}


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def to_ode_params(case, E: float) -> OdeParams:
    """The standard equation-parameter map of a case at energy E.

    Note the Coulomb map carries the repulsive-orientation sign convention
    (A_zero = +2Z/lam); the bound-state assembly uses the attractive
    orientation, see ``bound_ode_params``.
    """
    lam = case.lam
    if isinstance(case, CoulombCase):
        return OdeParams(LAGUERRE, 0.0, 0.0,
                         A_plus=2.0 * E / lam ** 2,
                         A_minus=-case.ell * (case.ell + 1.0),
                         A_zero=2.0 * case.Z / lam)
    if isinstance(case, OscillatorCase):
        lo = case.lam_ode
        return OdeParams(LAGUERRE, 0.5, 0.0,
                         A_plus=-4.0 * case.omega ** 2 / lo ** 4,
                         A_minus=-0.25 * case.ell * (case.ell + 1.0),
                         A_zero=-2.0 * E / lo ** 2)
    if isinstance(case, MorseCase):
        return OdeParams(LAGUERRE, 1.0, 0.0,
                         A_plus=-2.0 * case.V2 / lam ** 2,
                         A_minus=2.0 * E / lam ** 2,
                         A_zero=-2.0 * case.V1 / lam ** 2)
    if isinstance(case, PoschlTellerCase):
        return OdeParams(JACOBI, 1.0, 0.5,
                         A_plus=-case.A * (case.A - lam) / (2.0 * lam ** 2),
                         A_minus=2.0 * E / lam ** 2,
                         A_zero=case.B / (4.0 * lam),
                         A_one=0.0)
    if isinstance(case, ScarfCase):
        al, bl = case.A / lam, case.B / lam
        return OdeParams(JACOBI, 0.5, 0.5,
                         A_plus=0.5 * (0.25 - (al - bl - 0.5) ** 2),
                         A_minus=0.5 * (0.25 - (al + bl - 0.5) ** 2),
                         A_zero=-2.0 * E / lam ** 2,
                         A_one=0.0)
    if isinstance(case, EckartCase):
        al = case.A / lam
        return OdeParams(JACOBI, 1.0, 0.0,
                         A_plus=-2.0 * al * (al - 1.0),
                         A_minus=2.0 * (2.0 * E - lam * case.B) / lam ** 2,
                         A_zero=2.0 * E / lam ** 2,
                         A_one=0.0)
    raise TypeError(f"unknown case {case!r}")


def bound_ode_params(case, E: float) -> OdeParams:
    """Equation parameters oriented so the bound series exists.

    Only the Coulomb case differs from ``to_ode_params``: its standard map
    describes +Z/r while the case potential is the attractive -Z/r, so the
    bound orientation flips the sign of A_zero.
    """
    p = to_ode_params(case, E)
    if isinstance(case, CoulombCase):
        from dataclasses import replace
        return replace(p, A_zero=-abs(p.A_zero))
    return p


# ---------------------------------------------------------------------------
# bound spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    """Discrete levels (index, energy) plus the spectrum-size bookkeeping."""
    levels: tuple
    size: float              # number of levels (math.inf when unbounded)
    threshold: float

    @property
    def energies(self):
        return np.array([e for _, e in self.levels])


def _levels_below(edge: float) -> int:
    """Number of integers m >= 0 with m < edge: the levels strictly below the
    continuum threshold, when level m reaches it at m = edge."""
    return max(int(math.ceil(edge)), 0)


def spectrum_size(case) -> float:
    """Size of the discrete spectrum by the closed-form counting rules.

    A level exactly at the continuum threshold is not bound and is not
    counted."""
    if isinstance(case, (CoulombCase, OscillatorCase, ScarfCase)):
        if isinstance(case, CoulombCase) and case.Z <= 0:
            return 0
        return math.inf
    if isinstance(case, MorseCase):
        tau = 0.5 - 2.0 * case.V1 / case.lam ** 2
        return _levels_below(-tau)
    if isinstance(case, PoschlTellerCase):
        if case.B >= case.lam / 4.0:
            return 0
        root = math.sqrt(0.25 - case.B / case.lam)
        return _levels_below(0.5 * root - 0.5 * (case.nu + 1.0))
    if isinstance(case, EckartCase):
        if case.B >= 0:
            return 0
        sigma = 0.5 * (case.nu + 1.0)
        return _levels_below(math.sqrt(-case.B / case.lam) - sigma)
    raise TypeError(f"unknown case {case!r}")


def bound_energy(case, m: int, printed_variant: bool = False) -> float:
    """The m-th bound level from the discrete-family quantization."""
    if isinstance(case, CoulombCase):
        n = m + case.ell + 1.0
        if printed_variant:
            # the formula as sometimes printed, without the square; kept for
            # comparison only -- the oracle confirms the squared form
            return -0.5 * case.Z ** 2 / n
        return -0.5 * case.Z ** 2 / (n * n)
    if isinstance(case, OscillatorCase):
        return case.omega * (2.0 * m + case.ell + 1.5)
    if isinstance(case, MorseCase):
        lam = case.lam
        return -0.5 * lam ** 2 * (m + 0.5 - 2.0 * case.V1 / lam ** 2) ** 2
    if isinstance(case, PoschlTellerCase):
        lam = case.lam
        root = math.sqrt(0.25 - case.B / lam)
        return -0.25 * lam ** 2 * (2.0 * m + case.nu + 1.0 - root) ** 2
    if isinstance(case, ScarfCase):
        lam = case.lam
        if case.A > case.B:
            return 0.5 * lam ** 2 * (m + case.A / lam) ** 2
        return 0.5 * lam ** 2 * (m + 0.5 + case.B / lam) ** 2
    if isinstance(case, EckartCase):
        lam = case.lam
        g = m + 0.5 * (case.nu + 1.0)
        return -0.125 * lam ** 2 * (g - (case.B / lam) / g) ** 2
    raise TypeError(f"unknown case {case!r}")


def bound_spectrum(case, m_max: int = None) -> SpectrumResult:
    """Discrete levels m = 0..m_max (or the full finite spectrum)."""
    size = spectrum_size(case)
    if size == 0:
        raise NoBoundStates(f"{case.name}: no bound states for these parameters")
    if size is math.inf:
        if m_max is None:
            raise ValueError(f"{case.name} has infinitely many levels; give m_max")
        top = m_max
    else:
        top = int(size) - 1 if m_max is None else min(m_max, int(size) - 1)
    levels = tuple((m, bound_energy(case, m)) for m in range(top + 1))
    thr = case.threshold
    for m, e in levels:
        if math.isfinite(thr) and e >= thr:
            raise NoBoundStates(
                f"{case.name}: level m={m} at E={e} is not below the  "
                f"continuum threshold {thr}; spectrum-size rule inconsistent")
    return SpectrumResult(levels, size, thr)


# ---------------------------------------------------------------------------
# phase shifts
# ---------------------------------------------------------------------------

def phase_shift(case, E: float) -> float:
    """Scattering phase shift at continuum energy E, in (-pi, pi]."""
    if isinstance(case, (OscillatorCase, ScarfCase)):
        raise NoContinuum(f"{case.name} has a purely discrete spectrum")
    lam = case.lam
    if isinstance(case, CoulombCase):
        if E <= 0:
            raise BelowThreshold("Coulomb continuum needs E > 0")
        kappa = math.sqrt(2.0 * E)
        return arg_gamma(complex(case.ell + 1.0, -case.Z / kappa))
    if isinstance(case, MorseCase):
        if E <= 0:
            raise BelowThreshold("Morse continuum needs E > 0")
        kappa = math.sqrt(2.0 * E)
        kl = kappa / lam
        tau = 0.5 - 2.0 * case.V1 / lam ** 2
        d = (arg_gamma(complex(0.0, 2.0 * kl))
             - arg_gamma(complex(tau, kl))
             - 2.0 * arg_gamma(complex(0.5 * (case.nu + 1.0), kl)))
        return wrap_angle(d)
    if isinstance(case, PoschlTellerCase):
        if E <= 0:
            raise BelowThreshold("Poschl-Teller continuum needs E > 0")
        z = math.sqrt(E) / lam
        sg = 0.5 * (case.nu + 1.0)
        gm = 0.5 * (case.mu + 1.0)
        tau_sq = 0.25 * (case.B / lam - 0.25)
        if tau_sq >= 0:
            tu = math.sqrt(tau_sq)
            d = (arg_gamma(complex(0.0, 2.0 * z))
                 - arg_gamma(complex(sg, z + tu))
                 - arg_gamma(complex(sg, z - tu))
                 - 2.0 * arg_gamma(complex(gm, z)))
        else:
            q = math.sqrt(-tau_sq)
            d = (arg_gamma(complex(0.0, 2.0 * z))
                 - arg_gamma(complex(sg - q, z))
                 - arg_gamma(complex(sg + q, z))
                 - 2.0 * arg_gamma(complex(gm, z)))
        return wrap_angle(d)
    if isinstance(case, EckartCase):
        thr = case.threshold
        if E <= 0 or E < thr:
            raise BelowThreshold(f"Eckart continuum needs E > max(0, {thr})")
        kappa = math.sqrt(2.0 * E)
        zsq = (kappa / lam) ** 2 - case.B / lam
        if zsq < 0:
            raise BelowThreshold("Eckart scattering variable imaginary")
        z = math.sqrt(zsq)
        sg = 0.5 * (case.nu + 1.0)
        gm = 0.5 * (case.mu + 1.0)
        kl = kappa / lam
        d = (arg_gamma(complex(0.0, 2.0 * z))
             - arg_gamma(complex(sg, z + kl))
             - arg_gamma(complex(sg, z - kl))
             - 2.0 * arg_gamma(complex(gm, z)))
        return wrap_angle(d)
    raise TypeError(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMesh:
    """Uniform Dirichlet mesh on (lo, hi): interior nodes lo + j h."""
    lo: float
    hi: float
    h: float

    def nodes(self):
        n = int(round((self.hi - self.lo) / self.h)) - 1
        return self.lo + self.h * np.arange(1, n + 1)

    def halved(self):
        return RadialMesh(self.lo, self.hi, 0.5 * self.h)


def default_mesh(case, n_levels: int = 3) -> RadialMesh:
    """A per-case mesh covering the classically allowed region of the lowest
    few levels, tuned so the two-mesh check passes at its default gate."""
    if isinstance(case, CoulombCase):
        n_top = n_levels + case.ell + 1
        r_max = max(40.0, 18.0 * n_top / max(case.Z, 1e-6))
        return RadialMesh(0.0, r_max, 0.005)
    if isinstance(case, OscillatorCase):
        e_top = case.omega * (2.0 * n_levels + case.ell + 1.5)
        r_turn = math.sqrt(2.0 * e_top) / case.omega
        return RadialMesh(0.0, 2.0 * r_turn + 8.0 / math.sqrt(case.omega), 0.004)
    if isinstance(case, MorseCase):
        lam = case.lam
        r_star = math.log(max(case.V1, 1e-6) / (2.0 * case.V2)) / lam
        return RadialMesh(r_star - 28.0 / lam, r_star + 6.0 / lam, 0.004 / lam)
    if isinstance(case, PoschlTellerCase):
        return RadialMesh(0.0, 45.0 / case.lam, 0.002 / case.lam)
    if isinstance(case, ScarfCase):
        return RadialMesh(0.0, case.L, case.L / 4000.0)
    if isinstance(case, EckartCase):
        return RadialMesh(0.0, 50.0 / case.lam, 0.003 / case.lam)
    raise TypeError(f"unknown case {case!r}")


def _fd_eigenvalues(case, mesh: RadialMesh, k: int) -> np.ndarray:
    r = mesh.nodes()
    v = case.potential(r)
    inv_h2 = 1.0 / (mesh.h * mesh.h)
    diag = inv_h2 + v
    off = np.full(r.size - 1, -0.5 * inv_h2)
    # LAPACK dstebz: Sturm-count bisection for the k lowest eigenvalues
    evals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                             select_range=(0, k - 1), lapack_driver="stebz")
    if math.isfinite(case.threshold):
        # bound levels sit strictly below the continuum threshold
        hi = min(case.threshold, 0.0) + 1e-9
        n_below = int(np.count_nonzero(evals < hi))
        if n_below < k:
            raise ValueError(f"only {n_below} eigenvalues below hi={hi}")
    return evals


def fd_oracle(case, n_levels: int = 3, mesh: RadialMesh = None,
              gate: float = 1e-5) -> np.ndarray:
    """Lowest bound eigenvalues by 3-point finite differences.

    Solves at steps h and h/2, Richardson-extrapolates, and raises
    MeshTooCoarse when the two meshes disagree beyond ``gate`` relative.
    """
    if mesh is None:
        mesh = default_mesh(case, n_levels)
    e_h = _fd_eigenvalues(case, mesh, n_levels)
    e_h2 = _fd_eigenvalues(case, mesh.halved(), n_levels)
    rich = (4.0 * e_h2 - e_h) / 3.0
    scale = np.maximum(np.abs(rich), 1e-2)
    rel = np.abs(e_h2 - e_h) / scale
    if np.any(rel > 40.0 * gate):
        raise MeshTooCoarse(
            f"eigenvalues moved by {np.max(rel):.2e} (rel) between h and h/2")
    if np.any(np.abs(e_h2 - rich) / scale > gate):
        raise MeshTooCoarse(
            f"extrapolation residual {np.max(np.abs(e_h2 - rich) / scale):.2e} "
            f"above gate {gate}")
    return rich


# ---------------------------------------------------------------------------
# series solutions for the physics cases
# ---------------------------------------------------------------------------

def _bound_scenario(case):
    """(scenario, free basis index) of a case's bound-state family match."""
    if isinstance(case, (CoulombCase, OscillatorCase)):
        return "LA", None
    if isinstance(case, MorseCase):
        return "LB", case.nu
    if isinstance(case, (PoschlTellerCase, ScarfCase, EckartCase)):
        return "JC", case.mu
    raise TypeError(f"unknown case {case!r}")


def bound_match(case, m: int):
    """Family match for the m-th bound state of a case."""
    params = bound_ode_params(case, bound_energy(case, m))
    scenario, free_value = _bound_scenario(case)
    return params, solvemod.match_family(params, scenario, free_value=free_value)


def bound_series(case, m: int, truncation: int = None):
    """(OdeParams, SeriesSolution) of the m-th bound state."""
    from .errors import AmbiguousRegion
    if isinstance(case, CoulombCase):
        n = m + case.ell + 1.0
        if case.lam > 2.0 * abs(case.Z) / n + 1e-12:
            raise InvalidFamilyParams(
                f"basis scale lam = {case.lam} exceeds 2|Z|/(m+ell+1) = "
                f"{2.0 * abs(case.Z) / n}")
    e = bound_energy(case, m)
    params = bound_ode_params(case, e)
    try:
        _, match = bound_match(case, m)
    except AmbiguousRegion:
        # the scale sits exactly on the region boundary: the off-diagonal of
        # the coefficient recursion vanishes identically and the state is a
        # single basis element
        from .tra import resolve_basis
        spec = resolve_basis(params, "LA")
        f = np.zeros(m + 1)
        f[m] = 1.0
        return params, solvemod.SeriesSolution(f, spec, m + 1, 1.0, float(m))
    sol = solvemod.assemble_solution(match, int(m), truncation)
    return params, sol


def wavefunction(case, sol: solvemod.SeriesSolution, r):
    """psi(r) = y(x(r)) for an assembled series solution."""
    return sol(case.x_of_r(np.atleast_1d(np.asarray(r, dtype=float))))


def tra_bound_energy(case, m: int, tol: float = 1e-12) -> float:
    """Bound energy from the matching condition itself (root finding).

    Locates E where the spectral map sends the ODE parameters to the m-th
    mass point of the matched family; used to confirm the closed formulas
    and their independence of the basis scale.
    """
    from scipy.optimize import brentq

    scenario, free_value = _bound_scenario(case)

    def index_mismatch(e):
        try:
            match = solvemod.match_family(bound_ode_params(case, e), scenario,
                                          free_value=free_value)
            return (match.spectral_map.family_value
                    - fam.mass_point(match.family, m))
        except Exception:
            return math.nan

    e_star = bound_energy(case, m)
    span = max(abs(e_star) * 0.2, 1e-3)
    # the discrete-family region of the Coulomb case ends at E = -lam^2/8
    e_cap = -case.lam ** 2 / 8.0 * (1.0 + 1e-3) if isinstance(case, CoulombCase) \
        else math.inf

    def clamp(x):
        return min(x, e_cap)

    lo, hi = e_star - span, clamp(e_star + span)
    flo, fhi = index_mismatch(lo), index_mismatch(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)) or flo * fhi > 0:
        # widen until bracketed
        for fac in (2.0, 4.0, 8.0):
            lo, hi = e_star - fac * span, clamp(e_star + fac * span)
            flo, fhi = index_mismatch(lo), index_mismatch(hi)
            if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi <= 0:
                break
        else:
            raise NoBoundStates(f"could not bracket level m={m}")
    return brentq(index_mismatch, lo, hi, xtol=tol)
