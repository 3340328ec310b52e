"""The three-term engine, on one argument or an array, and the
Christoffel-Darboux check."""

import math

import numpy as np
import pytest

from triseries.errors import NonFiniteValue, ZeroOffDiagonal
from triseries.families import (ContinuousDualHahn, Meixner, MeixnerPollaczek,
                                Racah, Wilson, family_coeffs, values_by_recursion)
from triseries.recurrence import (RecursionCoeffs, christoffel_darboux_check,
                                  minimal_solution, run_recursion)
from triseries.verify import closed_form_hp


def test_degree_zero_is_one():
    co = RecursionCoeffs(np.array([0.7]), np.array([1.3]))
    assert run_recursion(co, 2.5, 0).tolist() == [1.0]


def test_first_degree_value():
    co = RecursionCoeffs(np.array([0.0]), np.array([1.0]))
    assert run_recursion(co, 2.0, 1).tolist() == [1.0, 2.0]


def test_meixner_pollaczek_against_hypergeometric():
    # nu = 0 -> mu = 1/2, theta = pi/2
    fam = MeixnerPollaczek(0.5, math.pi / 2)
    co = family_coeffs(fam, 5)
    seq = run_recursion(co, 0.7, 5)
    ref = closed_form_hp(fam, 0.7, 5)
    for n in range(6):
        assert seq[n] == pytest.approx(ref[n], rel=1e-12, abs=1e-12)


def test_zero_off_diagonal_raises():
    co = RecursionCoeffs(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ZeroOffDiagonal):
        run_recursion(co, 1.0, 2)


def test_twisted_stream_rejected():
    co = RecursionCoeffs(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                         t_squared=np.array([1.0, -1.0]))
    with pytest.raises(ZeroOffDiagonal):
        run_recursion(co, 1.0, 2)


def test_cap_enforced():
    co = RecursionCoeffs(np.zeros(600), np.ones(600))
    with pytest.raises(ValueError):
        run_recursion(co, 0.1, 501)
    run_recursion(co, 0.1, 501, cap=501)


def test_determinism_bit_identical():
    fam = Meixner(0.5, 0.25)
    co = family_coeffs(fam, 30)
    a = run_recursion(co, 3.0, 30)
    b = run_recursion(co, 3.0, 30)
    assert np.array_equal(a, b)


def test_christoffel_darboux_single_term():
    # N = 1: both sides are exactly 1 up to round-off in the difference
    fam = Meixner(0.5, 0.25)
    co = family_coeffs(fam, 2)
    assert christoffel_darboux_check(co, 3.0, 1) < 1e-10


def test_christoffel_darboux_meixner():
    # z = 3 lies outside the spectrum, where P_n reach ~2e4; the absolute
    # residual therefore carries the identity's own scale (sum of squares),
    # and the meaningful bound is relative to it
    fam = Meixner(0.5, 0.25)   # nu = 0
    co = family_coeffs(fam, 9)
    scale = float(np.sum(run_recursion(co, 3.0, 8)[:8] ** 2))
    assert christoffel_darboux_check(co, 3.0, 8, h=1e-5) < 1e-6 * scale
    # at in-spectrum arguments the values are O(1) and the absolute bound holds
    assert christoffel_darboux_check(co, -0.75, 8, h=1e-5) < 1e-6


def test_christoffel_darboux_wilson():
    fam = Wilson(0.4, 0.6, 0.5, 0.7)
    co = family_coeffs(fam, 7)
    assert christoffel_darboux_check(co, 1.2, 6) < 1e-6


def test_christoffel_darboux_h_squared_scaling():
    fam = ContinuousDualHahn(0.8, 0.7, 0.7)
    co = family_coeffs(fam, 9)
    r1 = christoffel_darboux_check(co, 2.0, 8, h=2e-3)
    r2 = christoffel_darboux_check(co, 2.0, 8, h=1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_family_recursion_matches_closed_forms_low_degrees():
    cases = [
        (MeixnerPollaczek(1.1, 0.8), 1.3),
        (Meixner(0.7, 0.4), 4),
        (ContinuousDualHahn(0.5, 0.8, 1.1), 2.2),
    ]
    for fam, arg in cases:
        co = family_coeffs(fam, 11)
        seq = run_recursion(co, fam.spectral_point(arg), 10)
        ref = closed_form_hp(fam, arg, 10)
        for n in range(11):
            assert seq[n] == pytest.approx(ref[n], rel=1e-10, abs=1e-10)


def _reference_values(s, sub, sup, z, n_max):
    """z f_n = s_n f_n + sub_{n-1} f_{n-1} + sup_n f_{n+1}, written out degree
    by degree on numpy scalars."""
    vals = np.empty(n_max + 1)
    vals[0] = 1.0
    for n in range(n_max):
        below = sub[n - 1] * vals[n - 1] if n else 0.0
        vals[n + 1] = ((z - s[n]) * vals[n] - below) / sup[n]
    return vals


@pytest.mark.parametrize("f, z, n_max", [
    (MeixnerPollaczek(0.8, 2.1), np.array(0.4), 200),             # 0-d
    (MeixnerPollaczek(0.8, 2.1), np.array([-3.1]), 200),          # 1 element
    (Wilson(0.5, 1.1, 0.8, 1.7), np.linspace(0.0, 40.0, 161), 200),
    (MeixnerPollaczek(0.8, 2.1), np.linspace(-3.0, 3.0, 3), 200),  # an oracle draw's size
    (Wilson(0.5, 1.1, 0.8, 1.7), np.linspace(0.0, 40.0, 6).reshape(2, 3), 200),
], ids=["0d", "one", "wilson_161", "three", "2d"])
def test_array_rows_equal_the_scalar_calls_bit_for_bit(f, z, n_max):
    co = family_coeffs(f, n_max)
    vals = run_recursion(co, z, n_max)
    assert vals.shape == z.shape + (n_max + 1,)
    for zi, row in zip(np.ravel(z), vals.reshape(-1, n_max + 1)):
        assert np.array_equal(row, run_recursion(co, float(zi), n_max))
        assert np.array_equal(row, _reference_values(co.s, co.t, co.t, zi, n_max))


def test_twisted_array_rows_equal_the_scalar_calls_bit_for_bit():
    # Racah's real nonsymmetric form runs through the same loop
    f = Racah(200, 0.6, 1.4)
    ks = np.arange(0, 201, 5)
    vals = values_by_recursion(f, ks, 200)
    assert vals.shape == (len(ks), 201)
    co = family_coeffs(f, 200)
    for k, row in zip(ks, vals):
        assert np.array_equal(row, values_by_recursion(f, int(k), 200))
        assert np.array_equal(row, _reference_values(co.s, co.t, -co.t,
                                                     f.spectral_point(k), 200))
    assert np.array_equal(values_by_recursion(f, ks[:1], 200)[0], vals[0])


@pytest.mark.parametrize("z, h", [(3.0, None), (-0.75, 1e-5), (2.0, 2e-3)])
def test_christoffel_darboux_equals_three_scalar_recursions(z, h):
    co = family_coeffs(Meixner(0.5, 0.25), 9)
    step = 1e-5 * max(1.0, abs(z)) if h is None else h
    plus, minus, center = (run_recursion(co, x, 8) for x in (z + step, z - step, z))
    dp = (plus - minus) / (2.0 * step)
    ref = abs(float(np.sum(center[:8] ** 2))
              - co.t[7] * (dp[8] * center[7] - center[8] * dp[7]))
    assert christoffel_darboux_check(co, z, 8, h) == ref


@pytest.mark.parametrize("z, first", [
    (1e300, 2), (np.array([0.5, 1e300]), 2), (math.nan, 1),
    # alone, 1e100 overflows at P_4: the error names the first degree of
    # any row, wherever that row stands
    (np.array([1e100, 1e300]), 2),
])
def test_non_finite_value_raises_a_typed_error(z, first):
    # Python floats overflow without a warning; numpy rows would warn, which
    # the test configuration turns into an error
    co = family_coeffs(Meixner(0.7, 0.4), 40)
    with pytest.raises(NonFiniteValue, match=f"P_{first} is not finite"):
        run_recursion(co, z, 40)
    assert np.all(run_recursion(co, z, 0) == 1.0)


@pytest.mark.parametrize("k", [0, 4, 20, 40])
def test_minimal_solution_is_the_meixner_sequence_at_a_mass_point(k):
    # P_n(k) is the minimal solution at mass point k: the unit column
    # sqrt(w_k) P_n(k) sums to 1, and every degree is kept to ~1e-12 of
    # the peak, also where P_n(k) grows with n before it decays
    fam = Meixner(0.7, 0.4)
    ref = np.array(closed_form_hp(fam, k, 120), dtype=float)
    f = minimal_solution(family_coeffs(fam, 400), fam.mass_point(k))
    assert f[0] == 1.0 and len(f) == 400
    assert fam.discrete_mass(k) * np.sum(f ** 2) == pytest.approx(1.0, rel=1e-11)
    assert np.abs(f[:121] - ref).max() <= 1e-11 * np.abs(ref).max()


def test_minimal_solution_steps_forward_below_the_decay():
    # where the local characteristic roots are complex, the minimal
    # solution does not decay yet: degrees up to the last such one are the
    # forward recursion's, bit for bit, and only the decay is backward
    fam = Meixner(0.7, 0.4)
    co = family_coeffs(fam, 200)
    z = fam.mass_point(20)
    d = (z - co.s[1:]) ** 2 - 4.0 * co.t[:-1] * co.t[1:]
    last = int(np.nonzero(d < 0.0)[0][-1]) + 1
    f = minimal_solution(co, z)
    assert 20 < last < 100
    assert np.array_equal(f[:last + 1], run_recursion(co, z, last))
    assert np.all(np.diff(np.abs(f[last + 1:])) < 0.0)
