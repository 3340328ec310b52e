"""Generic engine for symmetric three-term recursions.

A symmetric three-term recursion
    z P_n = s_n P_n + t_{n-1} P_{n-1} + t_n P_n+1,   t_{-1} := 0,
with P_0 = 1 determines P_n(z) for every n.  This module evaluates the
sequence and checks the diagonal Christoffel-Darboux identity, which every
such family satisfies:

    sum_{n=0}^{N-1} P_n(z)^2 = t_{N-1} [P_N'(z) P_{N-1}(z) - P_N(z) P_{N-1}'(z)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroOffDiagonal

DEFAULT_N_MAX_CAP = 500  # forward recursion degrades eventually; stay well below


@dataclass(frozen=True)
class RecursionCoeffs:
    """Coefficient streams (s_n, t_n) of a symmetric three-term recursion.

    ``t_squared`` carries the signed squares t_n^2.  For the classical
    families it simply equals t**2; the finite "twisted" cases (where the
    printed recursion has imaginary off-diagonals) store t as |t_n| with the
    negative square kept here, and such streams are rejected by the engine.
    """

    s: np.ndarray
    t: np.ndarray
    t_squared: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        if self.t_squared is None:
            object.__setattr__(self, "t_squared", t * t)
        else:
            object.__setattr__(self, "t_squared", np.asarray(self.t_squared, dtype=float))
        if s.shape != t.shape or s.ndim != 1:
            raise ValueError("s and t must be 1-d arrays of equal length")
        if not (np.isfinite(s).all() and np.isfinite(t).all()):
            raise ValueError("recursion coefficients must be finite")

    def __len__(self) -> int:
        return self.s.shape[0]


def run_recursion(coeffs: RecursionCoeffs, z: float, n_max: int,
                  cap: int = DEFAULT_N_MAX_CAP) -> np.ndarray:
    """Evaluate P_0..P_{n_max} at argument z by forward recursion.

    P_0 = 1, P_1 = (z - s_0)/t_0, then
    P_{n+1} = [(z - s_n) P_n - t_{n-1} P_{n-1}] / t_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > cap:
        raise ValueError(f"n_max={n_max} exceeds forward-recursion cap {cap}")
    if n_max > 0:
        if len(coeffs) < n_max:
            raise ValueError("coefficient streams shorter than n_max")
        used_t = coeffs.t[:n_max]
        if np.any(used_t == 0.0):
            bad = int(np.nonzero(used_t == 0.0)[0][0])
            raise ZeroOffDiagonal(f"t_{bad} = 0: family parameterization invalid here")
        if np.any(coeffs.t_squared[:n_max] < 0.0):
            bad = int(np.nonzero(coeffs.t_squared[:n_max] < 0.0)[0][0])
            raise ZeroOffDiagonal(
                f"t_{bad}^2 < 0: twisted stream has no real polynomial sequence"
            )
    values = np.empty(n_max + 1, dtype=float)
    values[0] = 1.0
    if n_max >= 1:
        values[1] = (z - coeffs.s[0]) / coeffs.t[0]
    for n in range(1, n_max):
        values[n + 1] = ((z - coeffs.s[n]) * values[n]
                         - coeffs.t[n - 1] * values[n - 1]) / coeffs.t[n]
    return values


def run_recursion_general(diag: np.ndarray, sub: np.ndarray, sup: np.ndarray,
                          z: float, n_max: int) -> np.ndarray:
    """Evaluate a (possibly nonsymmetric) three-term recursion.

    z f_n = diag_n f_n + sub_n f_{n-1} + sup_n f_{n+1}, f_0 = 1.  Used by the
    mixed-spectrum assemblies where the symmetrized off-diagonals would be
    imaginary although the function values themselves are real.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = np.empty(n_max + 1, dtype=float)
    values[0] = 1.0
    for n in range(n_max):
        if sup[n] == 0.0:
            raise ZeroOffDiagonal(f"sup_{n} = 0 in general recursion")
        prev = values[n - 1] if n > 0 else 0.0
        subterm = sub[n] * prev if n > 0 else 0.0
        values[n + 1] = ((z - diag[n]) * values[n] - subterm) / sup[n]
    return values


def christoffel_darboux_check(coeffs: RecursionCoeffs, z: float, n_top: int,
                              h: float = None) -> float:
    """Absolute residual of the diagonal Christoffel-Darboux identity at z
    for N = n_top.

    Derivatives P' are central differences of step h (default 1e-5 scaled by
    max(1, |z|)), so the residual carries an O(h^2) truncation floor.
    """
    if n_top < 1:
        raise ValueError("need at least P_0 and P_1 for the identity")
    if h is None:
        h = 1e-5 * max(1.0, abs(z))
    plus = run_recursion(coeffs, z + h, n_top)
    minus = run_recursion(coeffs, z - h, n_top)
    center = run_recursion(coeffs, z, n_top)
    dP = (plus - minus) / (2.0 * h)
    lhs = float(np.sum(center[:n_top] ** 2))
    rhs = coeffs.t[n_top - 1] * (dP[n_top] * center[n_top - 1]
                                 - center[n_top] * dP[n_top - 1])
    return abs(lhs - rhs)
