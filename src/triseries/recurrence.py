"""The one engine for three-term recursions.

A symmetric three-term recursion
    z P_n = s_n P_n + t_{n-1} P_{n-1} + t_n P_n+1,   t_{-1} := 0,
with P_0 = 1 determines P_n(z) for every n.  This module evaluates the
sequence at one or many arguments, or its minimal solution, and checks the
diagonal Christoffel-Darboux identity, which every such family satisfies:

    sum_{n=0}^{N-1} P_n(z)^2 = t_{N-1} [P_N'(z) P_{N-1}(z) - P_N(z) P_{N-1}'(z)].

The same loop steps a twisted stream (imaginary symmetrized off-diagonals,
real values) in its real form, t_{n-1} below and -t_n above the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NonFiniteValue, ZeroOffDiagonal

DEFAULT_N_MAX_CAP = 500  # bounds a truncation's allocation and forward-recursion decay


@dataclass(frozen=True)
class RecursionCoeffs:
    """Coefficient streams (s_n, t_n) of a symmetric three-term recursion.

    ``t_squared`` carries the signed squares t_n^2.  For the classical
    families it simply equals t**2; the finite "twisted" cases (where the
    printed recursion has imaginary off-diagonals) store t as |t_n| with the
    negative square kept here, and ``run_recursion`` rejects such streams.
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


def run_recursion(coeffs: RecursionCoeffs, z, n_max: int,
                  cap: int = DEFAULT_N_MAX_CAP) -> np.ndarray:
    """Evaluate P_0..P_{n_max} by forward recursion at z, one argument or an
    array of them.  An array gives one row per argument, each row bit for
    bit the scalar call's.

    P_0 = 1, P_1 = (z - s_0)/t_0, then
    P_{n+1} = [(z - s_n) P_n - t_{n-1} P_{n-1}] / t_n.
    """
    check_degree(n_max, cap)
    if len(coeffs) < n_max:
        raise ValueError("coefficient streams shorter than n_max")
    t = coeffs.t[:n_max].tolist()
    if 0.0 in t:
        raise ZeroOffDiagonal(f"t_{t.index(0.0)} = 0: family parameterization "
                              "invalid here")
    negative = [n for n, v in enumerate(coeffs.t_squared[:n_max].tolist()) if v < 0.0]
    if negative:
        raise ZeroOffDiagonal(f"t_{negative[0]}^2 < 0: twisted stream has no real "
                              "polynomial sequence")
    return _forward(coeffs.s[:n_max].tolist(), t, t, z)


def check_degree(n_max: int, cap: int = DEFAULT_N_MAX_CAP) -> None:
    """Refuse a degree outside 0..cap, before any stream is built."""
    if not 0 <= n_max <= cap:
        raise ValueError("n_max must be >= 0" if n_max < 0 else
                         f"n_max={n_max} exceeds forward-recursion cap {cap}")


def minimal_solution(coeffs: RecursionCoeffs, z: float) -> np.ndarray:
    """f_0..f_N, N = len(coeffs) - 1, of the minimal solution at z, f_0 = 1:
    forward steps up to the top degree with (z - s_n)^2 < 4 t_{n-1} t_n, and
    past it, where it decays and cannot overflow, backward (Miller) ratios
    rho_n = f_n / f_{n-1} = t_{n-1} / (z - s_n - t_n rho_{n+1}) from
    rho_{N+1} = 0 (W. Gautschi, SIAM Review 9, 24 (1967)).  Either direction
    elsewhere would regrow the dominant solution from round-off."""
    s, t = coeffs.s.tolist(), coeffs.t.tolist()
    n, ratios = len(s) - 1, [0.0]
    while n > 0 and (z - s[n]) * (z - s[n]) >= 4.0 * t[n - 1] * t[n]:
        ratios.append(t[n - 1] / (z - s[n] - t[n] * ratios[-1]))
        n -= 1
    head = _forward(s[:n], t[:n], t[:n], float(z))
    return np.append(head, head[-1] * np.cumprod(ratios[:0:-1]))


def _forward(s: list, sub: list, sup: list, z) -> np.ndarray:
    """f_0..f_n, n = len(s), of z f_k = s_k f_k + sub_{k-1} f_{k-1} + sup_k f_{k+1},
    f_0 = 1, for nonzero sup_k, at a scalar z or one row per argument of an
    array z.  Every argument steps as Python floats, so a row is bit for bit
    the scalar call; a scalar skips the stacking.  NonFiniteValue names the
    first degree that is not finite in any row; only the last is tested,
    since with finite nonzero coefficients no value past an inf or nan is
    finite."""
    if isinstance(z, float) or np.ndim(z) == 0:
        rows = [_steps(s, sub, sup, float(z))]
        values = np.array(rows[0])
    else:
        x = np.asarray(z, dtype=float)
        rows = [_steps(s, sub, sup, v) for v in x.ravel().tolist()]
        values = np.array(rows).reshape(x.shape + (len(s) + 1,))
    if not all(math.isfinite(row[-1]) for row in rows):
        first = np.argmin(np.isfinite(values).reshape(-1, len(s) + 1).all(axis=0))
        raise NonFiniteValue(f"P_{first} is not finite: the forward recursion "
                             "overflowed or z is not finite")
    return values


def _steps(s: list, sub: list, sup: list, x: float) -> list:
    """[f_0, f_1, ..., f_n] at the float x."""
    prev, cur = 0.0, 1.0
    values = [cur]
    for sn, below, above in zip(s, [0.0, *sub], sup):
        prev, cur = cur, ((x - sn) * cur - below * prev) / above
        values.append(cur)
    return values


def jacobi_eigenpairs(coeffs: RecursionCoeffs, top: int = None):
    """Eigenvalues, ascending, and unit eigenvectors (columns) of the Jacobi
    matrix of ``coeffs`` (Golub & Welsch, Math. Comp. 23, 221 (1969)), all or
    the ``top`` largest.  LAPACK dstebz/dstein keep small components to
    ~1e-13 relative, where divide and conquer keeps only their absolute size."""
    n = len(coeffs)
    select = {} if top is None else {"select": "i", "select_range": (n - top, n - 1)}
    return eigh_tridiagonal(coeffs.s, coeffs.t[:n - 1], lapack_driver="stebz", **select)


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
    plus, minus, center = run_recursion(coeffs, np.array([z + h, z - h, z]), n_top)
    dP = (plus - minus) / (2.0 * h)
    lhs = float(np.sum(center[:n_top] ** 2))
    rhs = coeffs.t[n_top - 1] * (dP[n_top] * center[n_top - 1]
                                 - center[n_top] * dP[n_top - 1])
    return abs(lhs - rhs)
