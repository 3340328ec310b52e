"""Quantum-mechanics applications of the two equations.

Six radial/1-d potentials map onto the Laguerre- or Jacobi-type equation by
a coordinate change; bound-state energies come from the discrete-family
quantization, scattering phase shifts from the coefficient-polynomial
asymptotics (gamma-function expressions), and everything is cross-checked by
an independent finite-difference discretization of the Schrodinger operator.

Each case record carries its formulas as methods (``Case``); the module
functions hold what the cases share.

Atomic units throughout: H = -1/2 d^2/dr^2 + V(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Protocol

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import (BelowThreshold, BoxTooSmall, IndexOutOfSpectrum,
                     InvalidFamilyParams, MeshTooCoarse, NoBoundStates,
                     NoContinuum, NoTerminatingIndex, NonFiniteValue,
                     TriseriesError)
from .gammafn import arg_gamma, wrap_angle
from .tra import JACOBI, LAGUERRE, OdeParams, SeriesSolution, resolve

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RadialMesh:
    """Mapped Dirichlet mesh on (lo, hi): nodes r = c + a sinh(u/a), with u
    on a uniform grid of step h from the image of lo.  Near c the spacing is
    about h; a distance d from it, about h d/a, so a tail costs nodes
    logarithmically.  The default a = inf is the uniform mesh lo + j h."""
    lo: float
    hi: float
    h: float
    a: float = math.inf
    c: float = 0.0

    def _u(self, r):
        """The image of r, u = a asinh((r - c)/a)."""
        return r - self.c if self.a == math.inf else (
            self.a * math.asinh((r - self.c) / self.a))

    def steps(self) -> int:
        """u-steps from lo to the far Dirichlet end, the one nearest hi."""
        return int(round((self._u(self.hi) - self._u(self.lo)) / self.h))

    def _r(self, j):
        """r a number j of u-steps from lo."""
        if self.a == math.inf:
            return self.lo + self.h * j
        return self.c + self.a * np.sinh((self._u(self.lo) + self.h * j)
                                         / self.a)

    def nodes(self):
        return self._r(np.arange(1, self.steps()))

    def spacings(self):
        """r_{j+1} - r_j from lo to the far end, each computed without
        cancellation: 2a sinh(h/2a) cosh(u_{j+1/2}/a)."""
        n = self.steps()
        if self.a == math.inf:
            return np.full(n, self.h)
        mid = self._u(self.lo) + self.h * (np.arange(n) + 0.5)
        return (2.0 * self.a * math.sinh(0.5 * self.h / self.a)
                * np.cosh(mid / self.a))

    def halved(self):
        """Step h/2 up to this mesh's far end: every node of this mesh is a
        node of the halved one."""
        return replace(self, h=0.5 * self.h, hi=float(self._r(self.steps())))


# a float whose square is a normal float lies in [_SQRT_TINY, _SQRT_HUGE]
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
_SQRT_HUGE = math.sqrt(np.finfo(float).max)


def _require_finite(case) -> None:
    """Reject a case record whose numeric field is nan or infinite, naming
    the field; a field left at None is not set."""
    for f in fields(case):
        v = getattr(case, f.name)
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{case.name}: {f.name} must be finite, got {v}")


class Case(Protocol):
    """The formulas every potential record carries (documentation only)."""
    name: str
    threshold: float     # continuum threshold; math.inf if purely discrete
    bound_e_cap: float   # energies above it leave the bound-state family region
    def potential(self, r): ...
    def x_of_r(self, r): ...
    # bound=True: the orientation the bound series needs (differs for Coulomb)
    def ode_params(self, E: float, bound: bool = False) -> OdeParams: ...
    def spectrum_edge(self) -> float: ...   # level m is bound iff m < edge
    def level_energy(self, m: int) -> float: ...
    def fd_mesh(self, n_levels: int) -> RadialMesh: ...
    # (scenario, E-independent free index derived from the record): the
    # phase-shift basis and the root find of tra_bound_energy; a JC/LB bound
    # series takes its own index
    def bound_scenario(self) -> tuple: ...
    # cases with a finite threshold: the phase shift before wrapping, at an
    # energy or an array of energies
    def phase(self, E): ...


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
    threshold = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0:
            raise ValueError("scale lam must be > 0")
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError("ell must be a non-negative integer")
        if not math.isfinite(self.Z * self.Z):
            raise ValueError(f"coulomb: Z = {self.Z} is out of range: the "
                             f"level energies -Z^2/(2 n^2) overflow")
        sq = self.lam * self.lam   # the family edge -lam^2/8, A_plus 2E/lam^2
        if not sq or not math.isfinite(sq + 1.0 / sq):
            raise ValueError(f"coulomb: lam = {self.lam} is out of range: "
                             f"lam^2 or 1/lam^2 is not finite")

    def x_of_r(self, r):
        return self.lam * r

    def potential(self, r):
        r = np.asarray(r, dtype=float)
        v = -self.Z / r
        if self.ell:
            v = v + self.ell * (self.ell + 1) / (2.0 * r * r)
        return v

    def ode_params(self, E, bound=False):
        # the standard map describes +Z/r (A_zero = +2Z/lam); the potential
        # is the attractive -Z/r, so the bound orientation flips that sign
        lam = self.lam
        a_zero = 2.0 * self.Z / lam
        return OdeParams(LAGUERRE, 0.0, 0.0,
                         A_plus=2.0 * E / lam ** 2,
                         A_minus=-self.ell * (self.ell + 1.0),
                         A_zero=-abs(a_zero) if bound else a_zero)

    @property
    def bound_e_cap(self):
        # the discrete (Meixner) region of the basis at scale lam
        return -self.lam ** 2 / 8.0

    def spectrum_edge(self):
        return math.inf if self.Z > 0 else 0.0

    def level_energy(self, m):
        n = m + self.ell + 1.0
        return -0.5 * self.Z ** 2 / (n * n)

    def phase(self, E):
        kappa = np.sqrt(2.0 * E)
        return arg_gamma(self.ell + 1.0 + 1j * (-self.Z / kappa))

    def fd_mesh(self, n_levels):
        if self.Z <= 0:
            raise NoBoundStates(f"{self.name}: no bound states for Z <= 0")
        unit = 1.0 / self.Z   # the Bohr radius
        n_top = n_levels + self.ell + 1
        return RadialMesh(0.0, max(40.0, 18.0 * n_top) * unit, 0.003 * unit,
                          a=unit)

    def bound_scenario(self):
        return "LA", None


@dataclass(frozen=True)
class OscillatorCase:
    """V(r) = omega^2 r^2 / 2 + l(l+1)/(2 r^2), r > 0."""
    omega: float
    ell: int = 0
    lam: float = 1.0

    name = "oscillator"
    threshold = math.inf   # purely discrete
    bound_e_cap = math.inf

    def __post_init__(self):
        _require_finite(self)
        if self.omega <= 0 or self.lam <= 0:
            raise ValueError("omega and lam must be > 0")
        if not _SQRT_TINY <= 4.0 * self.lam * self.lam <= _SQRT_HUGE:
            raise ValueError(f"oscillator: lam = {self.lam} is out of range: "
                             f"(2 lam)^4 is not a normal float")
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError("ell must be a non-negative integer")

    def x_of_r(self, r):
        return (self.lam * np.asarray(r, dtype=float)) ** 2

    def potential(self, r):
        r = np.asarray(r, dtype=float)
        v = 0.5 * (self.omega * r) ** 2   # omega**2 underflows below 1e-154
        if self.ell:
            v = v + self.ell * (self.ell + 1) / (2.0 * r * r)
        return v

    def ode_params(self, E, bound=False):
        # the doubled basis scale makes x = (lam r)^2 and the Gaussian weight
        # exp(-lam^2 r^2 / 2); admissibility then reads lam^2 <= omega.
        # A_plus stops being finite where this test says, to the ulp at the
        # lam tried (1e-76 .. 1e70): omega = 6.703903964971298e153 at lam = 1
        lo = 2.0 * self.lam
        if not math.isfinite(4.0 * self.omega * self.omega / lo ** 4):
            raise ValueError(f"oscillator: omega = {self.omega} is out of range "
                             f"for lam = {self.lam}: A_plus = -4 omega^2/(2 "
                             f"lam)^4 overflows")
        return OdeParams(LAGUERRE, 0.5, 0.0,
                         A_plus=-4.0 * self.omega ** 2 / lo ** 4,
                         A_minus=-0.25 * self.ell * (self.ell + 1.0),
                         A_zero=-2.0 * E / lo ** 2)

    def spectrum_edge(self):
        return math.inf

    def level_energy(self, m):
        return self.omega * (2.0 * m + self.ell + 1.5)

    def fd_mesh(self, n_levels):
        unit = 1.0 / math.sqrt(self.omega)   # the oscillator length
        r_turn = math.sqrt(2.0 * self.level_energy(n_levels)) / self.omega
        return RadialMesh(0.0, 2.0 * r_turn + 8.0 * unit, 0.0024 * unit,
                          a=unit)

    def bound_scenario(self):
        return "LA", None


@dataclass(frozen=True)
class MorseCase:
    """V(r) = V2 e^{2 lam r} - V1 e^{lam r} on the whole line.

    The tridiagonal reduction exists only at V2 = lam^2/8 (the second-order
    slope constraint), so V2 is derived from lam, not set.  The phase-shift
    basis index is nu = 0.
    """
    lam: float
    V1: float

    name = "morse"
    threshold = 0.0
    bound_e_cap = math.inf

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if not _SQRT_TINY <= self.lam <= _SQRT_HUGE:
            raise ValueError(f"morse: lam = {self.lam} is out of range: "
                             f"lam^2 is not a normal float")
        # the level energies are -(lam (m + tau))^2 / 2, |m + tau| <= |tau|
        scale = self.lam * self.tau
        if not math.isfinite(scale * scale):
            raise ValueError(f"morse: V1 = {self.V1} is out of range for lam = "
                             f"{self.lam}: the level energies overflow")

    @property
    def V2(self) -> float:
        return self.lam ** 2 / 8.0

    def x_of_r(self, r):
        return np.exp(self.lam * np.asarray(r, dtype=float))

    def potential(self, r):
        x = np.exp(self.lam * np.asarray(r, dtype=float))
        return self.V2 * x * x - self.V1 * x

    @property
    def tau(self) -> float:
        return 0.5 - 2.0 * self.V1 / self.lam ** 2

    def ode_params(self, E, bound=False):
        lam = self.lam
        return OdeParams(LAGUERRE, 1.0, 0.0,
                         A_plus=-2.0 * self.V2 / lam ** 2,
                         A_minus=2.0 * E / lam ** 2,
                         A_zero=-2.0 * self.V1 / lam ** 2)

    def spectrum_edge(self):
        return -self.tau

    def level_energy(self, m):
        lam = self.lam
        return -0.5 * lam ** 2 * (m + 0.5 - 2.0 * self.V1 / lam ** 2) ** 2

    def phase(self, E):
        kl = np.sqrt(2.0 * E) / self.lam
        return (arg_gamma(1j * (2.0 * kl))
                - arg_gamma(self.tau + 1j * kl)
                - 2.0 * arg_gamma(0.5 + 1j * kl))

    def fd_mesh(self, n_levels):
        lam = self.lam
        r_star = math.log(max(self.V1, 1e-6) / (2.0 * self.V2)) / lam
        return RadialMesh(r_star - 28.0 / lam, r_star + 6.0 / lam,
                          0.0017 / lam, a=1.0 / lam, c=r_star)

    def bound_scenario(self):
        return "LB", 0.0


@dataclass(frozen=True)
class PoschlTellerCase:
    """V(r) = [A(A-lam)/sinh^2(lam r/sqrt2) + lam B/cosh^2(lam r/sqrt2)]/4.

    Note the sqrt2 in the argument: it is what the Jacobi-equation reduction
    with exponent pair (1, 1/2) actually produces, and the finite-difference
    oracle confirms the spectrum formula only with these arguments.
    """
    lam: float
    A: float
    B: float

    name = "poschl_teller"
    threshold = 0.0
    bound_e_cap = math.inf

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.A == 0:
            raise ValueError("A must be nonzero")

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

    def ode_params(self, E, bound=False):
        lam = self.lam
        return OdeParams(JACOBI, 1.0, 0.5,
                         A_plus=-self.A * (self.A - lam) / (2.0 * lam ** 2),
                         A_minus=2.0 * E / lam ** 2,
                         A_zero=self.B / (4.0 * lam),
                         A_one=0.0)

    def spectrum_edge(self):
        if self.B >= self.lam / 4.0:
            return 0.0
        root = math.sqrt(0.25 - self.B / self.lam)
        return 0.5 * root - 0.5 * (self.nu + 1.0)

    def level_energy(self, m):
        lam = self.lam
        root = math.sqrt(0.25 - self.B / lam)
        return -0.25 * lam ** 2 * (2.0 * m + self.nu + 1.0 - root) ** 2

    def phase(self, E):
        lam = self.lam
        z = np.sqrt(E) / lam
        sg = 0.5 * (self.nu + 1.0)
        gm = 0.5 * (self.bound_scenario()[1] + 1.0)
        tau_sq = 0.25 * (self.B / lam - 0.25)
        if tau_sq >= 0:
            tu = math.sqrt(tau_sq)
            p1, p2 = sg + 1j * (z + tu), sg + 1j * (z - tu)
        else:
            q = math.sqrt(-tau_sq)
            p1, p2 = sg - q + 1j * z, sg + q + 1j * z
        return (arg_gamma(1j * (2.0 * z)) - arg_gamma(p1)
                - arg_gamma(p2) - 2.0 * arg_gamma(gm + 1j * z))

    def fd_mesh(self, n_levels):
        return RadialMesh(0.0, 45.0 / self.lam, 0.00067 / self.lam,
                          a=1.0 / self.lam)

    def bound_scenario(self):
        # the free index the top level's series ends on (nu with no bound states)
        top = spectrum_size(self) - 1
        return "JC", self.nu if top < 0 else resolve(
            self.ode_params(0.0), "JC", nu_sign=1 if self.nu >= 0 else -1,
            free_value=0.0).ending(top)


# a Scarf |A| + |B| above this times min(1, lam)^2 overflows the FD polish:
# the smallest that failed, over lam = 1e-70 .. 1e70 and the signs and ratios
# of A and B, was 7.86e84 min(1, lam)^2, at B = 0 or A = 0
_SCARF_FD_FIELDS = 7.8e84
# the FD off-diagonals, ~(4000 lam/pi)^2/2, square to normal floats on the
# oracle's 8h, h and h/2 meshes up to lam = 6.430633720577288e73, measured
_SCARF_FD_LAM_MAX = 6.43e73
# below this lam the FD polish's iterates, which grow as 1/(eps lam^2), can
# square past the float range: scans of lam = 1e-73 .. 1e-68 over the signs
# and ratios of A/lam and B/lam and 1 to 51 levels saw it up to 6.9e-71, by
# chance at a rate falling as 1/lam^2, so the bound sits ~15 times above
_SCARF_POLISH_LAM_MIN = 1e-69


@dataclass(frozen=True)
class ScarfCase:
    """Confining trigonometric well on the box 0 < r < pi/lam:
    V(r) = [(A^2+B^2-lam A) - B(2A-lam) cos(lam r)] / (2 sin^2(lam r))."""
    A: float
    B: float
    lam: float

    name = "scarf"
    threshold = math.inf   # purely discrete
    bound_e_cap = math.inf

    def __post_init__(self):
        _require_finite(self)
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if not math.isfinite(self.lam * self.lam):   # from lam = 1.35e154 on
            raise ValueError(f"scarf: lam = {self.lam} is out of range: lam^2 "
                             f"in the level energies overflows")
        # ode_params squares (A +- B)/lam - 1/2, which stays finite while
        # |A| and |B| are at most lam sqrt(max float) / 3
        for name in ("A", "B"):
            u = 3.0 * getattr(self, name) / self.lam
            if not math.isfinite(u * u):
                raise self._out_of_range(name, "(A +- B)/lam squared overflows")

    def _out_of_range(self, name, why):
        return ValueError(f"scarf: {name} = {getattr(self, name)} is out of "
                          f"range for lam = {self.lam}: {why}")

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

    def ode_params(self, E, bound=False):
        lam = self.lam
        al, bl = self.A / lam, self.B / lam
        return OdeParams(JACOBI, 0.5, 0.5,
                         A_plus=0.5 * (0.25 - (al - bl - 0.5) ** 2),
                         A_minus=0.5 * (0.25 - (al + bl - 0.5) ** 2),
                         A_zero=-2.0 * E / lam ** 2,
                         A_one=0.0)

    def spectrum_edge(self):
        return math.inf

    def level_energy(self, m):
        # V is even in B (B -> -B with r -> pi/lam - r), and each end takes the
        # root u = (A -+ B)/lam of its exponent pair (u, 1 - u) when u > 0
        lam, b = self.lam, abs(self.B)
        if self.A > b:
            return 0.5 * lam ** 2 * (m + self.A / lam) ** 2
        if self.A + b > 0:
            return 0.5 * lam ** 2 * (m + 0.5 + b / lam) ** 2
        return 0.5 * lam ** 2 * (m + 1.0 - self.A / lam) ** 2

    def fd_mesh(self, n_levels):
        # the FD polish squares its iterates, which grow as A^2/lam^4 below
        # lam = 1 and as the levels, ~A^2/2, above it
        if abs(self.A) + abs(self.B) > _SCARF_FD_FIELDS * min(1.0, self.lam) ** 2:
            raise self._out_of_range("A" if abs(self.A) >= abs(self.B) else "B",
                                     "the FD oracle's polish overflows")
        if self.lam < _SCARF_POLISH_LAM_MIN:
            raise ValueError(f"scarf: lam = {self.lam} is out of range: below "
                             f"lam = {_SCARF_POLISH_LAM_MIN} the FD oracle's "
                             f"polish overflows")
        box = math.pi / self.lam
        if self.lam > _SCARF_FD_LAM_MAX:
            raise ValueError(f"scarf: lam = {self.lam} (L = {box}) is out of "
                             f"range for the FD oracle's off-diagonals")
        return RadialMesh(0.0, box, box / 4000.0)

    def bound_scenario(self):
        # the series' Jacobi measure has mass 2^(mu + nu + 1) Gamma(mu + 1)
        # Gamma(nu + 1) / Gamma(mu + nu + 2), where mu + nu + 1 is 2A/lam - 1,
        # 2|B|/lam or 1 - 2A/lam on the branches of level_energy; from 1024
        # on its power of 2 leaves the float range, and the state's weight
        # factors (1 -+ x)^alpha overflow soon after
        b = abs(self.B)
        name, top = (("A", 2.0 * self.A / self.lam - 1.0) if self.A > b else
                     ("B", 2.0 * b / self.lam) if self.A + b > 0 else
                     ("A", 1.0 - 2.0 * self.A / self.lam))
        if top >= 1024.0:
            raise self._out_of_range(name, f"the bound series' Jacobi measure "
                                     f"has the factor 2^{top:.17g}")
        return "JC", self.nu


@dataclass(frozen=True)
class EckartCase:
    """V(r) = [A(A-lam)/2/sinh^2(lam r/2) + lam B/tanh(lam r/2) + lam B]/4.

    Bound states require B < 0 (attractive tail); the continuum threshold is
    V(inf) = lam B / 2.  The phase-shift basis index is mu = nu.
    """
    lam: float
    A: float
    B: float

    name = "eckart"
    bound_e_cap = math.inf

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.A == 0:
            raise ValueError("A must be nonzero")
        if self.nu <= -1:   # 0 < A/lam below half an ulp of 1
            raise ValueError(f"eckart: A = {self.A} is out of range for lam = "
                             f"{self.lam}: nu = 2A/lam - 1 rounds to -1")

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

    @property
    def threshold(self):
        return 0.5 * self.lam * self.B

    def ode_params(self, E, bound=False):
        lam = self.lam
        al = self.A / lam
        return OdeParams(JACOBI, 1.0, 0.0,
                         A_plus=-2.0 * al * (al - 1.0),
                         A_minus=2.0 * (2.0 * E - lam * self.B) / lam ** 2,
                         A_zero=2.0 * E / lam ** 2,
                         A_one=0.0)

    def spectrum_edge(self):
        if self.B >= 0:
            return 0.0
        return math.sqrt(-self.B / self.lam) - 0.5 * (self.nu + 1.0)

    def level_energy(self, m):
        lam = self.lam
        g = m + 0.5 * (self.nu + 1.0)
        return -0.125 * lam ** 2 * (g - (self.B / lam) / g) ** 2

    def phase(self, E):
        lam = self.lam
        kl = np.sqrt(2.0 * E) / lam
        zsq = kl ** 2 - self.B / lam
        if np.any(zsq < 0):
            raise BelowThreshold("Eckart scattering variable imaginary")
        z = np.sqrt(zsq)
        sg = 0.5 * (self.nu + 1.0)
        return (arg_gamma(1j * (2.0 * z))
                - arg_gamma(sg + 1j * (z + kl))
                - arg_gamma(sg + 1j * (z - kl))
                - 2.0 * arg_gamma(sg + 1j * z))

    def fd_mesh(self, n_levels):
        return RadialMesh(0.0, 50.0 / self.lam, 0.0027 / self.lam,
                          a=1.0 / self.lam)

    def bound_scenario(self):
        return "JC", self.nu


CASE_TYPES = {c.name: c for c in (CoulombCase, OscillatorCase, MorseCase,
                                  PoschlTellerCase, ScarfCase, EckartCase)}


# ---------------------------------------------------------------------------
# bound spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    """Discrete levels (index, energy)."""
    levels: tuple

    @property
    def energies(self):
        return np.array([e for _, e in self.levels])


def spectrum_size(case) -> float:
    """Size of the discrete spectrum by the closed-form counting rules: the
    integers m >= 0 with m < edge, where level m reaches the threshold at
    m = edge.  A level exactly at the threshold is not bound, not counted."""
    edge = case.spectrum_edge()
    return math.inf if edge == math.inf else max(int(math.ceil(edge)), 0)


def _bound_size(case) -> float:
    """spectrum_size(case), raising NoBoundStates when it is 0."""
    size = spectrum_size(case)
    if size == 0:
        raise NoBoundStates(f"{case.name}: no bound states for these parameters")
    return size


def bound_energy(case, m: int) -> float:
    """The m-th bound level from the discrete-family quantization."""
    if m < 0:
        raise IndexOutOfSpectrum(f"{case.name}: level index m={m} < 0")
    return case.level_energy(m)


def bound_spectrum(case, m_max: int = None) -> SpectrumResult:
    """Discrete levels m = 0..m_max (or the full finite spectrum)."""
    if m_max is not None and m_max < 0:
        raise IndexOutOfSpectrum(f"{case.name}: m_max={m_max} < 0")
    size = _bound_size(case)
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
    return SpectrumResult(levels)


# ---------------------------------------------------------------------------
# phase shifts
# ---------------------------------------------------------------------------

def phase_shift(case, E):
    """Scattering phase shift in (-pi, pi] at continuum energy E: a float
    gives a float, an array of energies an array."""
    thr = case.threshold
    if not math.isfinite(thr):
        raise NoContinuum(f"{case.name} has a purely discrete spectrum")
    E = np.asarray(E, dtype=float)
    if np.any((E <= 0) | (E < thr)):
        raise BelowThreshold(f"{case.name} continuum needs E > max(0, {thr})")
    with np.errstate(all="ignore"):
        delta = wrap_angle(case.phase(E))
    bad = ~np.isfinite(delta)
    if np.any(bad):
        raise NonFiniteValue(f"{case.name}: the phase shift at E="
                             f"{float(E[bad].flat[0])!r} is not finite")
    return delta


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def default_mesh(case, n_levels: int = 3) -> RadialMesh:
    """A per-case mesh covering the classically allowed region of the lowest
    few levels, graded in the case's length unit, with the u-step chosen so
    the extrapolation residual stays within half the gate."""
    return case.fd_mesh(n_levels)


def _fd_operator(case, mesh: RadialMesh):
    # conservative 3-point form on the spacings s_{j-1/2}, s_{j+1/2}:
    # A psi = E W psi with W = diag(w_j), w_j = (s_{j-1/2} + s_{j+1/2})/2,
    # solved as the symmetric W^{-1/2} A W^{-1/2}.  Its diagonal
    # (1/s_{j-1/2} + 1/s_{j+1/2})/(2 w_j) is 1/(s_{j-1/2} s_{j+1/2}), so a
    # uniform mesh gives 1/h^2 + V and -1/(2h^2) to the last bit.
    s = mesh.spacings()
    w = 0.5 * (s[:-1] + s[1:])
    diag = 1.0 / (s[:-1] * s[1:]) + case.potential(mesh.nodes())
    off = -0.5 / (s[1:-1] * np.sqrt(w[:-1] * w[1:]))
    # the Sturm count squares the off-diagonals (all negative): the squares
    # must stay normal floats, which a case scale far from 1 breaks
    if not (_SQRT_TINY <= -off.max() and -off.min() <= _SQRT_HUGE):
        raise ValueError(f"{case.name}: FD off-diagonal {off.min():.1e} is "
                         f"outside the range the eigensolver can square")
    return diag, off


def _bisection(diag, off, k: int, loose: bool = False) -> np.ndarray:
    """LAPACK dstebz's k lowest eigenvalues of T = (diag, off): to full
    accuracy, or loose, to 1e-8 of the bound |diag| + 2|off| on ||T||_inf,
    as seeds for a polish."""
    tol = ({"tol": 1e-8 * (np.abs(diag).max() + 2.0 * np.abs(off).max())}
           if loose else {})
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1), lapack_driver="stebz",
                            **tol)


def _lowest_eigenvalues(diag, off, k: int, seeds=None, starts=None):
    """The k lowest eigenpairs of the symmetric tridiagonal T = (diag, off),
    as (values, unit vectors as the rows of a k x n array).

    Each seed (by default T's own loose bisection) is polished by
    Rayleigh-quotient iteration from its start vector (by default one
    random vector shared by all seeds), and the values are certified.  If a
    polish stalls or overflows, or the certificate refuses, the values are
    dstebz's full bisection and the vectors None."""
    norm = np.abs(diag).max() + 2.0 * np.abs(off).max()   # >= ||T||_inf
    seeds = _bisection(diag, off, k, loose=True) if seeds is None else seeds
    if starts is None:
        # one random vector: no symmetry of T can make it orthogonal to a level
        starts = [np.random.default_rng(0).random(diag.size)] * k
    lam, eta, vecs = np.empty(k), np.empty(k), np.empty((k, diag.size))
    for i, (mu, v) in enumerate(zip(seeds, starts)):
        for _ in range(5):   # numpy sums, not BLAS (threaded on long vectors)
            v = dgtsv(off, diag - mu, off, v)[3]
            with np.errstate(over="ignore"):
                size = math.sqrt((v * v).sum())
            if not 0.0 < size < math.inf:   # a shift on a level overflowed v
                return _bisection(diag, off, k), None
            v = v / size
            r = (diag * v + np.append(off * v[1:], 0.0)
                 + np.append(0.0, off * v[:-1]))
            mu = (v * r).sum()
            res = math.sqrt(((r - mu * v) ** 2).sum())
            if res <= 64 * np.finfo(float).eps * norm:
                break
        else:
            return _bisection(diag, off, k), None
        lam[i], eta[i] = mu, 2.0 * res + 32 * np.finfo(float).eps * norm
        vecs[i] = v
    # [lam - eta, lam + eta] holds an eigenvalue: 2 res covers the round-off
    # of res (read from T, whatever dgtsv returned), 32 eps ||T|| twice a
    # Sturm count's.  k disjoint intervals hold k eigenvalues up to hi; one
    # count of exactly k on (-2 ||T||, hi], below which T has none, makes
    # them the k lowest.
    lo, hi = -2.0 * norm, lam[-1] + eta[-1]
    certified = (np.all(np.diff(lam) > eta[:-1] + eta[1:])
                 and dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "E")[0] == k)
    return (lam, vecs) if certified else (_bisection(diag, off, k), None)


def _prolong(vecs) -> np.ndarray:
    """Rows on the nodes of a mesh carried to the nodes of its halved mesh:
    node j is node 2j there, and each node in between takes the mean of its
    two neighbours, with 0 past the ends."""
    k, n = vecs.shape
    fine = np.zeros((k, 2 * n + 1))
    fine[:, 1::2] = vecs
    fine[:, :-1:2] += 0.5 * vecs   # the right neighbour of nodes 0 .. n-1
    fine[:, 2::2] += 0.5 * vecs    # the left neighbour of nodes 1 .. n
    return fine


def fd_oracle(case, n_levels: int = 3, mesh: RadialMesh = None) -> np.ndarray:
    """Lowest bound eigenvalues by 3-point finite differences.

    Solves at steps h and h/2, Richardson-extrapolates, and raises
    MeshTooCoarse when the two meshes disagree beyond a 1e-5 relative gate.
    The h-mesh seeds are a loose bisection on the mesh of step 8h (on the h
    mesh itself when the 8h mesh has at most ``n_levels`` steps); the h/2
    polish starts from the h-mesh levels and their prolonged eigenvectors.
    Each mesh raises BoxTooSmall if fewer than ``n_levels`` of its levels
    lie below the continuum threshold.
    """
    gate = 1e-5
    if mesh is None:
        mesh = default_mesh(case, n_levels)
    coarse = replace(mesh, h=8 * mesh.h)
    levels = (None if coarse.steps() <= n_levels else
              _bisection(*_fd_operator(case, coarse), n_levels, loose=True))
    vecs, solved = None, []
    for m in (mesh, mesh.halved()):
        levels, vecs = _lowest_eigenvalues(
            *_fd_operator(case, m), n_levels, levels,
            None if vecs is None else _prolong(vecs))
        if math.isfinite(case.threshold):
            # bound levels sit strictly below the continuum threshold
            hi = min(case.threshold, 0.0) + 1e-9
            n_below = int(np.count_nonzero(levels < hi))
            if n_below < n_levels:
                raise BoxTooSmall(f"only {n_below} eigenvalues below hi={hi}")
        solved.append(levels)
    e_h, e_h2 = solved
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

def bound_series(case, m: int, truncation: int = None):
    """(OdeParams, SeriesSolution) of the m-th bound state: level m of the
    case's scenario record (``tra.Scenario.state``).  A JC/LB level is the
    N = m chain on its own free index (no truncation); an LA level is the
    Meixner series cut at ``truncation``.  A level the spectrum does not
    hold is refused before any level formula runs."""
    if m < 0:
        raise IndexOutOfSpectrum(f"{case.name}: level index m={m} < 0")
    size = _bound_size(case)
    if m >= size:
        raise IndexOutOfSpectrum(f"{case.name}: level index m={m} is past the "
                                 f"last of the spectrum's {size} levels")
    e = case.level_energy(m)
    cap = case.bound_e_cap
    # cap < 0; a level within 1e-9 (relative) of it is left to the match,
    # which reports AmbiguousRegion
    if e > cap * (1.0 - 1e-9):
        raise InvalidFamilyParams(
            f"{case.name}: level m={m} at E={e} lies above E={cap}, where the "
            f"discrete family of basis scale lam = {case.lam} ends")
    params = case.ode_params(e, bound=True)
    scenario, free_value = case.bound_scenario()
    nu = getattr(case, "nu", 0.0)   # the Jacobi cases' level-formula index
    if nu < 0:
        raise NoTerminatingIndex(
            f"{case.name}: the level formula takes nu = {nu} < 0 but the "
            f"basis the positive root; level m={m} has no terminating series")
    return params, resolve(params, scenario, free_value=free_value).state(
        m, truncation)


def wavefunction(case, sol: SeriesSolution, r):
    """psi(r) = y(x(r)) for an assembled series solution.  A psi that is
    not finite (an overflowed weight) raises NonFiniteValue at its first r."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    with np.errstate(all="ignore"):
        psi = sol(case.x_of_r(r))
    bad = ~np.isfinite(psi)
    if np.any(bad):
        raise NonFiniteValue(f"{case.name}: psi at r={float(r[bad][0])!r} "
                             "is not finite")
    return psi


def tra_bound_energy(case, m: int) -> float:
    """Bound energy from the matching condition itself (root finding).

    Locates E where the spectral map sends the ODE parameters to the m-th
    mass point of the matched family; used to confirm the closed formulas
    and their independence of the basis scale.
    """
    from scipy.optimize import brentq

    scenario, free_value = case.bound_scenario()

    def index_mismatch(e):
        try:
            match = resolve(case.ode_params(e, bound=True), scenario,
                            free_value=free_value).match()
            return (match.spectral_map.family_value
                    - match.family.mass_point(m))
        except (TriseriesError, ValueError, ArithmeticError):
            return math.nan

    e_star = bound_energy(case, m)
    span = max(abs(e_star) * 0.2, 1e-3)
    e_cap = case.bound_e_cap * (1.0 + 1e-3)
    for fac in (1.0, 2.0, 4.0, 8.0):   # widen until bracketed
        lo, hi = e_star - fac * span, min(e_star + fac * span, e_cap)
        flo, fhi = index_mismatch(lo), index_mismatch(hi)
        if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi <= 0:
            break
    else:
        raise NoBoundStates(f"could not bracket level m={m}")
    return brentq(index_mismatch, lo, hi, xtol=1e-12)
