"""The symmetric three-term engine and the Christoffel-Darboux check."""

import math

import numpy as np
import pytest

from triseries.errors import ZeroOffDiagonal
from triseries.families import (ContinuousDualHahn, Meixner, MeixnerPollaczek,
                                Wilson, family_coeffs)
from triseries.recurrence import (RecursionCoeffs, christoffel_darboux_check,
                                  run_recursion)
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
