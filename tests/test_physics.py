"""Potential cases: parameter maps, spectra, phase shifts, the FD oracle."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from triseries import cli, physics, solve
from triseries.errors import (BelowThreshold, BoxTooSmall, MeshTooCoarse,
                              NoBoundStates, NoContinuum)
from triseries.physics import (CoulombCase, EckartCase, MorseCase,
                               OscillatorCase, PoschlTellerCase, RadialMesh,
                               ScarfCase, _fd_operator, _lowest_eigenvalues,
                               bound_energy, bound_spectrum, default_mesh,
                               fd_oracle, phase_shift, spectrum_size,
                               tra_bound_energy)


def test_coulomb_parameter_map():
    p = CoulombCase(Z=1.0, ell=0, lam=1.0).ode_params(0.5)
    assert p.A_zero == pytest.approx(2.0)
    assert p.A_minus == pytest.approx(0.0)
    assert p.A_plus == pytest.approx(1.0)


def test_oscillator_parameter_map():
    # published map at the doubled basis scale 2 lam = 1 (lam = 0.5)
    p = OscillatorCase(omega=1.0, ell=0, lam=0.5).ode_params(1.5)
    assert p.A_plus == pytest.approx(-4.0)
    assert p.A_minus == pytest.approx(0.0)
    assert p.A_zero == pytest.approx(-3.0)


def test_eckart_zero_coupling_linear_term():
    p = EckartCase(lam=1.0, A=1.0, B=-1.0).ode_params(0.0)
    assert p.A_plus == pytest.approx(0.0)   # -2 (A/lam)(A/lam - 1) at A = lam


def test_coulomb_energies():
    case = CoulombCase(Z=1.0, ell=0)
    assert bound_energy(case, 0) == pytest.approx(-0.5)
    assert bound_energy(case, 1) == pytest.approx(-0.125)
    # the oracle confirms -Z^2/(2 n^2), n = m + ell + 1, within the spectrum
    # tolerance, and rejects the formula as sometimes printed, -Z^2/(2 n)
    oracle = fd_oracle(case, 3)
    tol = 1e-3   # the spectrum command's default relative band
    for m, e_fd in enumerate(oracle):
        n = m + 1.0
        band = tol * max(abs(e_fd), 1e-2)
        assert abs(bound_energy(case, m) - e_fd) <= band
        if m >= 1:   # the two forms agree at m = 0
            assert abs(-0.5 / n - e_fd) > band


def test_oscillator_energies():
    case = OscillatorCase(omega=1.0, ell=0)
    assert bound_energy(case, 0) == pytest.approx(1.5)
    assert bound_energy(case, 1) == pytest.approx(3.5)


def test_morse_spectrum_values_and_size():
    case = MorseCase(lam=1.0, V1=1.0)
    assert spectrum_size(case) == 2
    spec = bound_spectrum(case)
    assert spec.energies == pytest.approx([-1.125, -0.125])


def test_morse_requires_pinned_quadratic_coupling():
    # V2 = lam^2/8 is derived from lam, not set
    with pytest.raises(TypeError):
        MorseCase(lam=1.0, V1=1.0, V2=0.3)
    assert MorseCase(lam=1.0, V1=1.0).V2 == 0.125
    assert MorseCase(lam=0.3, V1=1.0).V2 == 0.3 ** 2 / 8.0


def test_oscillator_omega_is_refused_where_a_plus_overflows():
    # A_plus = -4 omega^2/(2 lam)^4: at lam = 1 the product 4 omega^2
    # overflows first, from the float after this edge on
    edge = 6.703903964971298e153
    assert math.isfinite(OscillatorCase(omega=edge).ode_params(1.0).A_plus)
    with pytest.raises(ValueError, match=r"omega = 6.703903964971299e\+153 is "
                                         r"out of range for lam = 1.0"):
        OscillatorCase(omega=math.nextafter(edge, math.inf)).ode_params(1.0)
    # a smaller scale divides by a smaller (2 lam)^4
    with pytest.raises(ValueError, match="omega = 1e\\+16 is out of range"):
        OscillatorCase(omega=1e16, lam=1e-70).ode_params(1.0)
    assert OscillatorCase(omega=2e14, lam=1e-70).ode_params(1.0).A_plus < 0


def test_no_bound_states_conditions():
    with pytest.raises(NoBoundStates):
        bound_spectrum(MorseCase(lam=1.0, V1=0.2))
    with pytest.raises(NoBoundStates):
        bound_spectrum(PoschlTellerCase(lam=1.0, A=1.0, B=0.5))
    with pytest.raises(NoBoundStates):
        bound_spectrum(EckartCase(lam=1.0, A=2.0, B=1.0))
    with pytest.raises(NoBoundStates):
        bound_spectrum(CoulombCase(Z=-1.0, ell=0), m_max=2)


def test_spectrum_size_rules_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        v1 = rng.uniform(0.3, 4.0) * lam ** 2
        case = MorseCase(lam=lam, V1=v1)
        tau = 0.5 - 2.0 * v1 / lam ** 2
        expect = int(math.floor(-tau)) + 1 if tau < 0 else 0
        assert spectrum_size(case) == expect
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.3, 3.0) * lam
        b = -rng.uniform(0.1, 50.0) * lam
        case = PoschlTellerCase(lam=lam, A=a, B=b)
        root = math.sqrt(0.25 - b / lam)
        n = math.floor(0.5 * root - 0.5 * (case.nu + 1.0))
        assert spectrum_size(case) == (int(n) + 1 if n >= 0 else 0)
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.3, 3.0) * lam
        b = -rng.uniform(0.1, 40.0) * lam
        case = EckartCase(lam=lam, A=a, B=b)
        sigma = 0.5 * (case.nu + 1.0)
        n = math.floor(math.sqrt(-b / lam) - sigma)
        assert spectrum_size(case) == (int(n) + 1 if n >= 0 else 0)
    assert spectrum_size(ScarfCase(A=2.0, B=0.5, lam=1.0)) == math.inf


def test_scarf_levels_stay_below_none_and_grow():
    case = ScarfCase(A=2.0, B=0.5, lam=1.0)
    spec = bound_spectrum(case, m_max=5)
    assert np.all(np.diff(spec.energies) > 0)
    assert spec.energies[0] == pytest.approx(2.0)   # lam^2/2 (m + A/lam)^2


# V is even in B (B -> -B with r -> pi/lam - r), and an end whose exponent
# root u = (A -+ B)/lam is <= 0 takes 1 - u: the three level branches with
# B < 0 or A <= 0
@pytest.mark.parametrize("A, B", [
    (1.0, -1.0), (0.0, 0.0), (-1.0, 0.0), (2.0, -0.5), (-2.0, 1.0),
    (0.5, -2.0), (-0.5, -2.0)])
def test_scarf_levels_for_negative_B_or_nonpositive_A(A, B):
    case = ScarfCase(A=A, B=B, lam=1.0)
    levels = [case.level_energy(m) for m in range(3)]
    assert levels == [ScarfCase(A=A, B=-B, lam=1.0).level_energy(m)
                      for m in range(3)]
    oracle = fd_oracle(case, n_levels=3)
    assert np.all(np.abs(np.array(levels) - oracle) <= 1e-5 * np.abs(oracle))
    for m in range(3):
        params, sol = physics.bound_series(case, m)
        assert solve.ode_residual(params, sol, np.linspace(-0.9, 0.9, 19)) <= 1e-10


def test_fd_oracle_hydrogen_reference_mesh():
    case = CoulombCase(Z=1.0, ell=0)
    vals = fd_oracle(case, n_levels=1, mesh=RadialMesh(0.0, 80.0, 0.005))
    assert vals[0] == pytest.approx(-0.5, abs=1e-4)


def test_fd_oracle_oscillator():
    case = OscillatorCase(omega=1.0, ell=0)
    vals = fd_oracle(case, n_levels=1)
    assert vals[0] == pytest.approx(1.5, abs=1e-5)


def test_fd_oracle_matches_hyperbolic_well_formula():
    case = PoschlTellerCase(lam=1.0, A=2.0, B=-45.0)
    formula = np.sort([bound_energy(case, m) for m in range(3)])
    vals = fd_oracle(case, n_levels=3, mesh=RadialMesh(0.0, 45.0, 0.0015))
    assert np.max(np.abs(vals - formula) / np.abs(formula)) < 1e-4


def test_uniform_mesh_is_the_plain_three_point_operator():
    # without grading the weighted form is 1/h^2 + V on the diagonal and
    # -1/(2h^2) off it, at the nodes lo + j h, to the last bit
    for case, mesh in ((CoulombCase(Z=1.0), RadialMesh(0.0, 80.0, 0.005)),
                       (PoschlTellerCase(lam=1.0, A=2.0, B=-45.0),
                        RadialMesh(0.0, 45.0, 0.0015)),
                       (MorseCase(lam=1.0, V1=1.0), RadialMesh(-28.0, 6.0, 0.004)),
                       (ScarfCase(A=2.0, B=0.5, lam=1.0),
                        RadialMesh(0.0, math.pi, math.pi / 4000.0))):
        n = int(round((mesh.hi - mesh.lo) / mesh.h)) - 1
        r = mesh.lo + mesh.h * np.arange(1, n + 1)
        assert np.array_equal(mesh.nodes(), r)
        inv_h2 = 1.0 / (mesh.h * mesh.h)
        plain = (inv_h2 + case.potential(r), np.full(n - 1, -0.5 * inv_h2))
        diag, off = _fd_operator(case, mesh)
        assert np.array_equal(diag, plain[0]), case.name
        assert np.array_equal(off, plain[1]), case.name
        # the certificate promises a level only to within 2 res + 32 eps
        # ||T||, at least 5.7e-10 on these meshes: the two solves agree to
        # 1e-12 because both polish the same seeds, one loose bisection
        seeds = physics._bisection(diag, off, 2, loose=True)
        old, _ = _lowest_eigenvalues(*plain, 2, seeds)
        new, _ = _lowest_eigenvalues(diag, off, 2, seeds)
        assert np.max(np.abs(new - old) / np.abs(old)) <= 1e-12, case.name


def test_graded_mesh_nodes_and_spacings_agree():
    mesh = RadialMesh(-3.0, 9.0, 0.0103, a=0.7, c=1.2)
    s = mesh.spacings()
    r = mesh.lo + np.cumsum(s)
    assert np.allclose(r[:-1], mesh.nodes(), rtol=0.0, atol=1e-12)
    # the far end lies within half a u-step of hi
    assert abs(r[-1] - mesh.hi) < 0.5 * s[-1]
    # the finest spacing sits at the centre c, about h there
    j = np.argmin(s)
    assert abs(r[j] - mesh.c) < 0.02 and s[j] < 1.0001 * mesh.h
    # halving u nests the meshes, far end included (here hi lies 0.43 of a
    # step past the far end, so stepping h/2 to hi would add one more step)
    fine = mesh.halved().nodes()
    assert fine.size == 2 * mesh.nodes().size + 1
    assert np.allclose(fine[1::2], mesh.nodes(), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case, k", [
    (CoulombCase(Z=1.0, ell=0), 3), (CoulombCase(Z=1.0, ell=1), 3),
    (OscillatorCase(omega=0.5, ell=0), 4), (OscillatorCase(omega=1.0, ell=2), 4),
    (MorseCase(lam=1.0, V1=1.0), 2),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), 3),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), 3),
], ids=["coulomb-ell0", "coulomb-ell1", "oscillator-omega0.5",
        "oscillator-ell2", "morse", "poschl_teller", "eckart"])
def test_graded_meshes_converge_at_second_order(case, k):
    # Richardson's premise on each graded default mesh: the shifts from h to
    # h/2 and from h/2 to h/4 have the ratio 4.  A shift that is already
    # below 1e-8 of the level (the Coulomb 1s level, where the leading h^2
    # term nearly cancels on this mesh) is round-off of the eigensolver and
    # has no order.
    mesh = default_mesh(case, k)
    e_h, e_h2, e_h4 = (_lowest_eigenvalues(*_fd_operator(case, m), k)[0]
                       for m in (mesh, mesh.halved(), mesh.halved().halved()))
    scale = np.maximum(np.abs(e_h2), 1e-2)
    measured = np.abs(e_h - e_h2) > 1e-8 * scale
    assert np.count_nonzero(measured) >= k - 1
    order = np.log2((e_h - e_h2)[measured] / (e_h2 - e_h4)[measured])
    assert np.all((order >= 1.8) & (order <= 2.2)), order


ACCEPTANCE_POINTS = [
    (CoulombCase(Z=1.0, ell=0), 3), (CoulombCase(Z=1.0, ell=1), 3),
    (OscillatorCase(omega=0.5, ell=0), 4), (OscillatorCase(omega=0.5, ell=2), 4),
    (OscillatorCase(omega=1.0, ell=0), 4), (OscillatorCase(omega=1.0, ell=2), 4),
    (MorseCase(lam=1.0, V1=1.0), 2),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), 3),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), 3),
    (ScarfCase(A=2.0, B=0.5, lam=1.0), 3), (ScarfCase(A=0.5, B=2.0, lam=1.0), 3)]

# the spectrum inputs the benchmark draws at seed 4242 (two rounds)
SEED_4242_SPECTRUM = [
    ["coulomb", "--Z", "1.0", "--ell", "0"],
    ["coulomb", "--Z", "1.0", "--ell", "1"],
    ["oscillator", "--omega", "0.5367234584263785", "--ell", "2"],
    ["oscillator", "--omega", "0.9216519132866143", "--ell", "0"],
    ["morse", "--lambda", "1.0", "--V1", "0.82918195207967"],
    ["morse", "--lambda", "1.0", "--V1", "1.026479562246494"],
    ["poschl_teller", "--lambda", "1.0", "--A", "1.0",
     "--B", "-38.36229711695489"],
    ["poschl_teller", "--lambda", "1.0", "--A", "2.0", "--B", "-20.0"],
    ["scarf", "--A", "2.173976910712642", "--B", "0.40296110772637794",
     "--lambda", "1.0"],
    ["scarf", "--A", "0.30673032120614535", "--B", "2.125820095690913",
     "--lambda", "1.0"],
    ["eckart", "--lambda", "1.0", "--A", "2.0", "--B", "-23.23309642347765"],
    ["eckart", "--lambda", "1.0", "--A", "2.0", "--B", "-16.399750403433877"]]

# benchmark-style inputs whose h mesh took the full bisection when its seeds
# came from a loose bisection of that same mesh: a seed fell nearer a box
# state than its own level
SEEDED_ON_THE_SAME_MESH_FELL_BACK = [
    ["scarf", "--A", "0.467", "--B", "1.577", "--lambda", "1"],
    ["scarf", "--A", "0.39", "--B", "2.12", "--lambda", "1"],
    ["poschl_teller", "--lambda", "1", "--A", "1", "--B", "-32.27"]]


def _bisection(diag, off, k, tol=0.0):
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1), tol=tol,
                            lapack_driver="stebz")


@pytest.mark.parametrize("case, k", ACCEPTANCE_POINTS,
                         ids=lambda x: getattr(x, "name", str(x)))
def test_polished_levels_match_a_tight_bisection(case, k):
    # each mesh as fd_oracle solves it: the h/2 mesh from the h-mesh levels
    mesh = default_mesh(case, k)
    e_h, _ = _lowest_eigenvalues(*_fd_operator(case, mesh), k)
    e_h2, _ = _lowest_eigenvalues(*_fd_operator(case, mesh.halved()), k, e_h)
    for m, e in ((mesh, e_h), (mesh.halved(), e_h2)):
        tight = _bisection(*_fd_operator(case, m), k, tol=1e-300)
        assert np.max(np.abs(e - tight) / np.abs(tight)) <= 1e-9


def test_no_acceptance_or_benchmark_input_falls_back(monkeypatch, capsys):
    # the fallback is the one bisection call without a tolerance
    full = []

    def spy(*args, **kwargs):
        if "tol" not in kwargs:
            full.append(args[0].size)
        return eigh_tridiagonal(*args, **kwargs)
    monkeypatch.setattr(physics, "eigh_tridiagonal", spy)
    for case, k in ACCEPTANCE_POINTS:
        fd_oracle(case, k)
    for argv in SEED_4242_SPECTRUM + SEEDED_ON_THE_SAME_MESH_FELL_BACK:
        cli.main(["spectrum", "--case", *argv, "--format", "json"])
    capsys.readouterr()
    assert full == []


@pytest.mark.parametrize("case, k", ACCEPTANCE_POINTS,
                         ids=lambda x: getattr(x, "name", str(x)))
def test_levels_come_with_unit_eigenvectors(case, k):
    # both meshes as fd_oracle solves them: the h mesh from the loose
    # bisection on the mesh of step 8h, the h/2 polish from the h-mesh
    # vectors carried to its nodes
    def solve():
        mesh = default_mesh(case, k)
        seeds = physics._bisection(
            *_fd_operator(case, replace(mesh, h=8 * mesh.h)), k, loose=True)
        e_h, v_h = _lowest_eigenvalues(*_fd_operator(case, mesh), k, seeds)
        e_h2, v_h2 = _lowest_eigenvalues(*_fd_operator(case, mesh.halved()),
                                         k, e_h, physics._prolong(v_h))
        return [(mesh, e_h, v_h), (mesh.halved(), e_h2, v_h2)]

    first, again = solve(), solve()
    eps = np.finfo(float).eps
    for (mesh, lam, vecs), (_, lam2, vecs2) in zip(first, again):
        diag, off = _fd_operator(case, mesh)
        t_inf = np.max(np.abs(diag) + np.append(np.abs(off), 0.0)
                       + np.append(0.0, np.abs(off)))
        assert vecs.shape == (k, diag.size)
        for e, v in zip(lam, vecs):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            tv = diag * v + np.append(off * v[1:], 0.0) + np.append(
                0.0, off * v[:-1])
            assert np.linalg.norm(tv - e * v) <= 64 * eps * t_inf
        assert np.array_equal(lam, lam2) and np.array_equal(vecs, vecs2)


def test_prolonged_vectors_sit_on_the_nested_nodes():
    # h node j is h/2 node 2j; a node in between takes the mean of its two
    # neighbours, with 0 past the ends
    vecs = np.array([[1.0, 2.0, 4.0], [-3.0, 0.5, 1.0]])
    assert np.array_equal(physics._prolong(vecs),
                          [[0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 2.0],
                           [-1.5, -3.0, -1.25, 0.5, 0.75, 1.0, 0.5]])


def test_the_full_bisection_returns_no_vectors():
    case = PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)
    diag, off = _fd_operator(case, default_mesh(case, 3))
    full = _bisection(diag, off, 3)
    values, vectors = _lowest_eigenvalues(diag, off, 3, full[[0, 2, 2]])
    assert np.array_equal(values, full) and vectors is None


def test_uncertified_seeds_give_the_full_bisection_bit_for_bit():
    # each seed set fails one condition of the certificate: a level twice
    # (the window still holds 3 levels), levels 1-3 in place of 0-2 (none
    # twice, 4 up to the top one), levels 0, 1 and 3 (a middle level
    # skipped: 4 up to the top one), and levels far up the spectrum
    case = PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)
    diag, off = _fd_operator(case, default_mesh(case, 3))
    full, four = _bisection(diag, off, 3), _bisection(diag, off, 4)
    for seeds in (full[[0, 2, 2]], four[1:], four[[0, 1, 3]], full + 50.0):
        values, _ = _lowest_eigenvalues(diag, off, 3, seeds)
        assert np.array_equal(values, full)


@pytest.mark.parametrize("case, error, text", [
    (PoschlTellerCase(lam=1.0, A=2.0, B=-20.0), BoxTooSmall,
     "only 1 eigenvalues below"),
    (EckartCase(lam=1.0, A=2.0, B=-16.15), BoxTooSmall,
     "only 2 eigenvalues below"),
    (ScarfCase(A=1.2, B=0.6, lam=1.0), MeshTooCoarse, "moved by"),
], ids=["poschl_teller-zero-energy", "eckart-shallow", "scarf-narrow-gap"])
def test_oracle_typed_errors(case, error, text):
    with pytest.raises(error, match=text):
        fd_oracle(case, 3)


@pytest.mark.parametrize("make, values", [
    (lambda s: CoulombCase(Z=s), (1e-4, 1.0, 1e4)),
    (lambda s: CoulombCase(Z=s, ell=2), (1e-4, 1.0, 1e4)),
    (lambda s: OscillatorCase(omega=s), (1e-6, 1.0, 1e6)),
    (lambda s: OscillatorCase(omega=s, ell=1), (1e-6, 1.0, 1e6)),
], ids=["coulomb", "coulomb-ell2", "oscillator", "oscillator-ell1"])
def test_fd_node_count_does_not_depend_on_the_scale(make, values):
    # each mesh is written in the case's own length unit (1/Z, 1/sqrt(omega))
    sizes = {default_mesh(make(s)).nodes().size for s in values}
    assert len(sizes) == 1 and sizes.pop() < 5000


def test_fd_oracle_follows_the_scale_until_the_eigensolver_cannot():
    # the same nodes in the case's unit give the same relative accuracy;
    # where the squared off-diagonals would underflow the oracle refuses
    for omega in (1e-100, 1e100):
        case = OscillatorCase(omega=omega, ell=1)
        formula = [bound_energy(case, m) for m in range(3)]
        assert fd_oracle(case, 3) == pytest.approx(formula, rel=1e-8)
    for case in (OscillatorCase(omega=1e-160), CoulombCase(Z=1e80)):
        with pytest.raises(ValueError, match="eigensolver can square"):
            fd_oracle(case, 2)


def test_coulomb_mesh_without_bound_states_is_refused():
    with pytest.raises(NoBoundStates):
        default_mesh(CoulombCase(Z=-1.0))


def test_phase_shift_regression_and_free_limit():
    assert phase_shift(CoulombCase(Z=1.0, ell=0), 0.5) == pytest.approx(
        0.30164, abs=1e-4)
    assert phase_shift(CoulombCase(Z=0.0, ell=0), 0.5) == 0.0
    assert phase_shift(CoulombCase(Z=0.0, ell=3), 2.0) == 0.0


def test_phase_shift_errors():
    with pytest.raises(NoContinuum):
        phase_shift(OscillatorCase(omega=1.0), 1.0)
    with pytest.raises(NoContinuum):
        phase_shift(ScarfCase(A=2.0, B=0.5, lam=1.0), 1.0)
    with pytest.raises(NoContinuum):
        phase_shift(OscillatorCase(omega=1.0), np.array([1.0, 2.0]))
    with pytest.raises(BelowThreshold):
        phase_shift(CoulombCase(Z=1.0), -0.5)
    with pytest.raises(BelowThreshold):
        phase_shift(EckartCase(lam=1.0, A=2.0, B=1.0), 0.2)  # E < lam B/2


def test_phase_shifts_real_finite_continuous():
    morse = MorseCase(lam=1.0, V1=1.0)
    pt = PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)
    for case in (morse, pt):
        es = np.linspace(0.05, 6.0, 50)
        ds = np.array([phase_shift(case, float(e)) for e in es])
        assert np.all(np.isfinite(ds))
        unwrapped = np.unwrap(ds)
        assert np.max(np.abs(np.diff(unwrapped))) < 0.5


# the four continuum cases; Poschl-Teller on both signs of its tau^2 =
# (B/lam - 1/4)/4, Eckart with B < 0 (bound states) and B > 0 (threshold
# lam B/2 above zero)
CONTINUUM_CASES = [
    (CoulombCase(Z=1.3, ell=1), 0.2),
    (MorseCase(lam=1.0, V1=1.1), 0.05),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), 0.05),
    (PoschlTellerCase(lam=1.0, A=2.0, B=3.0), 0.05),
    (EckartCase(lam=1.0, A=2.0, B=-20.0), 0.05),
    (EckartCase(lam=0.8, A=-1.0, B=0.5), 0.25),
]
CONTINUUM_IDS = ["coulomb", "morse", "pt-tau2-neg", "pt-tau2-pos",
                 "eckart-bound", "eckart-B-pos"]


def _mp_phase(case, E):
    """The unwrapped phase of each case at E, transcribed into 40-digit
    mpmath: sums of arg Gamma = Im log Gamma."""
    with mp.workdps(40):
        def ag(re, im):
            return mp.im(mp.loggamma(mp.mpc(re, im)))
        E = mp.mpf(E)
        if case.name == "coulomb":
            return ag(case.ell + 1, -mp.mpf(case.Z) / mp.sqrt(2 * E))
        lam = mp.mpf(case.lam)
        if case.name == "morse":
            k = mp.sqrt(2 * E) / lam
            return ag(0, 2 * k) - ag(case.tau, k) - 2 * ag(mp.mpf(1) / 2, k)
        sg = (mp.mpf(case.nu) + 1) / 2
        gm = (mp.mpf(case.bound_scenario()[1]) + 1) / 2   # the basis index
        if case.name == "poschl_teller":
            z = mp.sqrt(E) / lam
            tau_sq = (mp.mpf(case.B) / lam - mp.mpf(1) / 4) / 4
            if tau_sq >= 0:
                t = mp.sqrt(tau_sq)
                pair = ag(sg, z + t) + ag(sg, z - t)
            else:
                q = mp.sqrt(-tau_sq)
                pair = ag(sg - q, z) + ag(sg + q, z)
            return ag(0, 2 * z) - pair - 2 * ag(gm, z)
        k = mp.sqrt(2 * E) / lam   # Eckart
        z = mp.sqrt(k * k - mp.mpf(case.B) / lam)
        return (ag(0, 2 * z) - ag(sg, z + k) - ag(sg, z - k)
                - 2 * ag(gm, z))


@pytest.mark.parametrize("case, e_min", CONTINUUM_CASES, ids=CONTINUUM_IDS)
def test_phase_shift_array_equals_scalar_calls(case, e_min):
    es = np.linspace(e_min, 6.0, 60)
    ds = phase_shift(case, es)
    assert isinstance(ds, np.ndarray) and ds.shape == es.shape
    scalars = [phase_shift(case, float(e)) for e in es]
    assert all(type(d) is float for d in scalars)
    assert ds.tolist() == scalars


@pytest.mark.parametrize("case, e_min", CONTINUUM_CASES, ids=CONTINUUM_IDS)
def test_phase_shift_array_matches_mpmath(case, e_min):
    es = np.linspace(e_min, 6.0, 25)
    ds = phase_shift(case, es)
    for e, d in zip(es, ds):
        ref = _mp_phase(case, float(e))
        with mp.workdps(40):
            off = float(mp.mpf(float(d)) - ref
                        - 2 * mp.pi * mp.nint((mp.mpf(float(d)) - ref) / (2 * mp.pi)))
        assert abs(off) < 1e-12, (float(e), off)
        assert -math.pi < d <= math.pi


@pytest.mark.parametrize("case, energies", [
    (CoulombCase(Z=1.0), [0.5, -0.1, 2.0]),
    (CoulombCase(Z=1.0), [0.0, 1.0]),
    (MorseCase(lam=1.0, V1=1.0), [1.0, -0.2]),
    (PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), [-1.0, 1.0]),
    (EckartCase(lam=1.0, A=2.0, B=1.0), [0.6, 0.4, 2.0]),   # below lam B/2
    (EckartCase(lam=1.0, A=2.0, B=-20.0), [1.0, 0.0]),
], ids=["coulomb-negative", "coulomb-zero", "morse", "poschl_teller",
        "eckart-B-pos", "eckart-B-neg"])
def test_phase_shift_array_below_threshold_raises(case, energies):
    with pytest.raises(BelowThreshold):
        phase_shift(case, np.array(energies))


def test_phase_shift_coupling_to_zero():
    # Morse phase at V1 -> 0 with the pinned V2 stays finite and smooth
    case = MorseCase(lam=1.0, V1=0.0)
    ds = [phase_shift(case, e) for e in np.linspace(0.1, 3.0, 10)]
    assert all(math.isfinite(d) for d in ds)


def test_tra_route_matches_formula_and_scale_free():
    c1 = CoulombCase(Z=1.0, ell=0, lam=0.4)
    c2 = CoulombCase(Z=1.0, ell=0, lam=0.9)
    for m in (0, 1):
        e1 = tra_bound_energy(c1, m)
        e2 = tra_bound_energy(c2, m)
        assert abs(e1 - e2) < 1e-10
        assert e1 == pytest.approx(bound_energy(c1, m), abs=1e-10)
    mc = MorseCase(lam=1.0, V1=1.0)
    assert tra_bound_energy(mc, 0) == pytest.approx(bound_energy(mc, 0), abs=1e-10)
    pt = PoschlTellerCase(lam=1.0, A=1.0, B=-36.0)
    assert tra_bound_energy(pt, 0) == pytest.approx(bound_energy(pt, 0), abs=1e-10)
    # excited states: the m-th mass point of Meixner (oscillator), of the
    # mixed continuous dual Hahn (Morse) and of the mixed Wilson (Jacobi cases)
    for case in (pt, EckartCase(lam=1.0, A=2.0, B=-20.0),
                 ScarfCase(A=2.0, B=0.5, lam=1.0), ScarfCase(A=0.5, B=2.0, lam=1.0),
                 OscillatorCase(omega=1.0, lam=0.4)):
        for m in (1, 2):
            assert tra_bound_energy(case, m) == pytest.approx(
                bound_energy(case, m), abs=1e-10), (case, m)


def test_coulomb_discrete_below_threshold():
    case = CoulombCase(Z=1.0, ell=1)
    assert np.all(bound_spectrum(case, m_max=2).energies < case.threshold)


# Inputs whose level m=1 sits exactly at the continuum threshold: E = -0.0,
# -0.0 and -4.5 = lam B / 2 respectively.
THRESHOLD_EDGE_CASES = [PoschlTellerCase(lam=1.0, A=2.0, B=-20.0),
                        MorseCase(lam=1.0, V1=0.75),
                        EckartCase(lam=1.0, A=2.0, B=-9.0)]


@pytest.mark.parametrize("case", THRESHOLD_EDGE_CASES,
                         ids=lambda c: c.name)
def test_level_at_threshold_is_not_counted(case):
    assert bound_energy(case, 1) == case.threshold
    assert spectrum_size(case) == 1
    spec = bound_spectrum(case)
    assert [m for m, _ in spec.levels] == [0]
    assert np.all(spec.energies < case.threshold)


@pytest.mark.parametrize("case", THRESHOLD_EDGE_CASES,
                         ids=lambda c: c.name)
def test_bound_spectrum_rejects_level_at_threshold(case, monkeypatch):
    # the guard behind the counting rule: a level exactly at the threshold
    # is refused even if the count admits it
    monkeypatch.setattr("triseries.physics.spectrum_size", lambda c: 2)
    with pytest.raises(NoBoundStates):
        bound_spectrum(case)


def test_poschl_teller_default_mu_ends_the_top_level():
    # the phase shift reads mu, bound_scenario's free index: the top level's
    # terminating index, the value the earlier fractional-gap rule
    # 2 frac(gap) - 1 gave
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam = float(rng.uniform(0.5, 2.0))
        case = PoschlTellerCase(lam=lam, A=float(rng.uniform(-3.0, 3.0)),
                                B=float(rng.uniform(-60.0, 1.0)) * lam)
        gap = case.spectrum_edge()
        mu = case.bound_scenario()[1]
        if spectrum_size(case) == 0:
            assert mu == case.nu
            continue
        frac = gap - math.floor(gap)
        assert mu == pytest.approx(2.0 * (frac if frac > 1e-9 else 1.0) - 1.0,
                                   abs=1e-12)


def test_tra_bound_energy_lets_programming_errors_through(monkeypatch):
    # only the errors a match can raise count as "no value here"
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a domain error")
    monkeypatch.setattr("triseries.physics.resolve", broken)
    with pytest.raises(TypeError, match="a bug"):
        tra_bound_energy(MorseCase(lam=1.0, V1=1.0), 0)
