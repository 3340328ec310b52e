"""Cross-module invariants: scenario algebra, second oracle draws, error
surfaces, the concurrency claims and the case/family record protocols."""

import concurrent.futures
import math
import re
import time

import numpy as np
import pytest

from triseries import families as fam
from triseries.errors import (IndexOutOfSpectrum, MeshTooCoarse, NoFamilyApplies,
                              TruncationTooSmall)
from triseries.physics import (CASE_TYPES, Case, CoulombCase, EckartCase,
                               MorseCase, OscillatorCase, PoschlTellerCase,
                               RadialMesh, ScarfCase, bound_energy,
                               bound_series, fd_oracle)
from triseries.recurrence import run_recursion
from triseries.solve import ode_residual
from triseries.tra import OdeParams, resolve


def test_scenario_relations_hold_exactly():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = rng.uniform(-1.0, 2.0, size=2)
        am = rng.uniform(-3.0, (1 - a) ** 2 / 4.0)
        p = OdeParams("laguerre", a, b, rng.uniform(-2, 2), am, rng.uniform(-2, 2))
        spec = resolve(p, "LA").spec
        assert 2 * spec.alpha == spec.nu + 1.0 - a
        assert 2 * spec.beta == b + 1.0
        assert spec.nu ** 2 == pytest.approx((1 - a) ** 2 - 4 * am, rel=1e-12)
        pj = OdeParams("jacobi", a, b, rng.uniform(-3.0, (1 - b) ** 2 / 2.0),
                       rng.uniform(-3.0, (1 - a) ** 2 / 2.0),
                       rng.uniform(-2, 2), A_one=0.0)
        spec = resolve(pj, "JA").spec
        assert 2 * spec.alpha == spec.mu + 1.0 - a
        assert 2 * spec.beta == spec.nu + 1.0 - b
        spec = resolve(pj, "JC", free_value=0.7).spec
        assert 2 * spec.alpha == pytest.approx(0.7 + 2.0 - a, rel=1e-14)
        assert 2 * spec.beta == spec.nu + 1.0 - b


def test_discrete_extended_family_match_and_input_point():
    # chi0 on level 1 of the extended Jacobi matrix matches that level: the
    # record's streams are the raw JA streams, with the identity spectral map
    a, b, lam1 = 0.4, 0.7, 0.8
    p0 = OdeParams("jacobi", a, b, -1.1, -0.8, 0.0, A_one=lam1)
    spec = resolve(p0, "JA").spec
    chi0 = fam.ExtendedJacobi(spec.mu, spec.nu, lam1).mass_point(1)
    p = OdeParams("jacobi", a, b, -1.1, -0.8,
                  chi0 + 0.25 * (a + b - 1.0) ** 2, A_one=lam1)
    record = resolve(p, "JA")
    m = record.match()
    f = m.family
    assert f == fam.ExtendedJacobi(spec.mu, spec.nu, lam1)
    assert m.spectral_map.family_value == pytest.approx(chi0, rel=1e-12)
    raw = record.streams(12)
    fc = fam.family_coeffs(f, 12)
    assert (raw.s.tobytes(), raw.t.tobytes()) == (fc.s.tobytes(), fc.t.tobytes())
    # level 1 is the input point; levels 0 and 2 are not, and raise
    sol = record.state(1)
    assert ode_residual(p, sol, np.linspace(-0.9, 0.9, 20)) <= 1e-8
    for k in (0, 2):
        with pytest.raises(IndexOutOfSpectrum, match=f"level {k} "):
            record.state(k)


def test_discrete_extended_family_wrong_side_has_no_match():
    # chi0 = -1.9 lies above the top level, -3.788, and chi0 = -13 between
    # levels 1 (-8.736) and 2 (-15.654), nearer level 2: no family applies,
    # and the error names the nearest level
    a, b, lam1 = 0.4, 0.7, 0.8
    spec = resolve(OdeParams("jacobi", a, b, -1.1, -0.8, 0.0, A_one=lam1),
                         "JA").spec
    levels = fam.ExtendedJacobi(spec.mu, spec.nu, lam1).levels(2)[1]
    for chi0, k in ((-1.9, 0), (-13.0, 2)):
        p = OdeParams("jacobi", a, b, -1.1, -0.8,
                      chi0 + 0.25 * (a + b - 1.0) ** 2, A_one=lam1)
        with pytest.raises(NoFamilyApplies, match=(
                f"nearest is level {k}, {re.escape(repr(float(levels[k])))}$")):
            resolve(p, "JA").match()


def test_mesh_too_coarse_detected():
    case = PoschlTellerCase(lam=1.0, A=2.0, B=-45.0)
    with pytest.raises(MeshTooCoarse):
        fd_oracle(case, n_levels=3, mesh=RadialMesh(0.0, 45.0, 0.02))


def test_spectra_against_oracle_second_draws():
    # the acceptance suite covers one draw per case; these are the second
    draws = [
        (CoulombCase(Z=2.0, ell=1), 3, 1e-3),
        (OscillatorCase(omega=2.0, ell=1), 3, 1e-4),
        (MorseCase(lam=1.5, V1=2.0), 2, 1e-3),
        (ScarfCase(A=3.0, B=1.0, lam=1.0), 3, 1e-3),
        (EckartCase(lam=1.0, A=3.0, B=-30.0), 3, 1e-3),
        (PoschlTellerCase(lam=1.0, A=2.0, B=-60.0), 3, 1e-3),
    ]
    for case, k, tol in draws:
        formula = np.sort([bound_energy(case, m) for m in range(k)])
        mesh = None
        if isinstance(case, PoschlTellerCase):
            mesh = RadialMesh(0.0, 45.0, 0.0015)
        oracle = fd_oracle(case, n_levels=k, mesh=mesh)
        rel = np.abs(oracle - formula) / np.maximum(np.abs(formula), 1e-4)
        assert np.max(rel) < tol, f"{case.name}: {rel}"


def test_pure_functions_are_concurrency_safe():
    # identical results independent of evaluation order / thread interleaving
    f = fam.MeixnerPollaczek(0.8, 1.1)
    co = fam.family_coeffs(f, 24)
    zs = np.linspace(-2.0, 2.0, 24)
    serial = [run_recursion(co, float(z), 20) for z in zs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda z: run_recursion(co, float(z), 20),
                                 zs))
    for s, p in zip(serial, parallel):
        assert np.array_equal(s, p)

    case = OscillatorCase(omega=1.0, ell=0, lam=0.8)
    params, sol = bound_series(case, 0, truncation=40)
    xs = np.linspace(0.3, 6.0, 8)
    serial_r = [ode_residual(params, sol, [float(x)]) for x in xs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel_r = list(pool.map(lambda x: ode_residual(params, sol, [float(x)]),
                                   xs))
    assert serial_r == parallel_r


def _protocol_members(proto):
    """Method and attribute names a documentation Protocol lists."""
    names = {n for n in vars(proto) if not n.startswith("_")}
    return names | set(vars(proto).get("__annotations__", {}))


def test_records_carry_their_protocol():
    # every case and family record holds its own formulas; the module
    # functions only dispatch to them
    cases = [CoulombCase(Z=1.0), OscillatorCase(omega=1.0),
             MorseCase(lam=1.0, V1=1.0),
             PoschlTellerCase(lam=1.0, A=1.0, B=-36.0),
             ScarfCase(A=2.0, B=0.5, lam=1.0),
             EckartCase(lam=1.0, A=2.0, B=-20.0)]
    assert {type(c) for c in cases} == set(CASE_TYPES.values())
    members = _protocol_members(Case)
    assert "ode_params" in members and "phase" in members
    for case in cases:
        # only the cases with a continuum have a scattering phase
        need = members if math.isfinite(case.threshold) else members - {"phase"}
        missing = {n for n in need if not hasattr(case, n)}
        assert not missing, (case.name, missing)
        assert CASE_TYPES[case.name] is type(case)
    families = [fam.MeixnerPollaczek(0.7, 1.0), fam.Meixner(0.5, 0.25),
                fam.Krawtchouk(5, 0.4), fam.ContinuousDualHahn(0.5, 0.8, 0.9),
                fam.DualHahn(5, 0.3, 0.6), fam.Wilson(0.5, 0.7, 0.9, 1.1),
                fam.MixedWilson(-0.3, 1.3, 0.8, 0.8), fam.Racah(5, 0.4, 0.9),
                fam.ExtendedJacobi(0.3, 0.7, 2.0)]
    members = _protocol_members(fam.Family)
    assert {"streams", "weight", "mass_point", "kind"} <= members
    assert "closed_form" not in members
    for f in families:
        missing = {n for n in members if not hasattr(f, n)}
        assert not missing, (type(f).__name__, missing)
        assert isinstance(f.kind, str)
    assert len({f.kind for f in families}) == len(families) - 1   # MixedWilson


def test_extended_family_refusal_past_the_settled_levels_is_quick():
    # a chi0 below level 479 of the 960-term matrix has its nearest level
    # where no truncation settles it: one Sturm count names that level, and
    # no eigenvector is built.  chi0 = -2e5 lies between levels 444 and 445,
    # which settle, and the refusal names the nearer one
    a, b, lam1 = 0.4, 0.7, 2.3
    shift = 0.25 * (a + b - 1.0) ** 2
    for chi0, k in ((-3e5, 546), (-1e9, 960)):
        p = OdeParams("jacobi", a, b, -1.1, -0.8, chi0 + shift, A_one=lam1)
        start = time.perf_counter()
        with pytest.raises(TruncationTooSmall, match=(
                f"^extended Jacobi level {k} does not settle within 960 terms$")):
            resolve(p, "JA").match()
        assert time.perf_counter() - start < 0.1
    p = OdeParams("jacobi", a, b, -1.1, -0.8, -2e5 + shift, A_one=lam1)
    with pytest.raises(NoFamilyApplies, match="nearest is level 445, "):
        resolve(p, "JA").match()
