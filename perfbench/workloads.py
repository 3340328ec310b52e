"""Seeded input generators, one closed-loop op per input, and the per-op
correctness checks of the four workloads.

Each workload is an endless sequence of *rounds*.  A round holds one op per
input kind the workload covers (every case, every state, every family), so
every round has the same composition and only the seeded parameters change.
(``spectrum`` alternates two compositions, so each pair of rounds is alike.)
``run.py`` runs whole rounds, which keeps the mix, and with it the medians,
the same from run to run.

The program receives only the generated inputs: command lines for the CLI
ops, case objects and point grids for the library ops.  No program knob
(``TRA_DEFAULT_TRUNCATION`` or any other) is set.

Parameter ranges sit around the acceptance parameters of
``tests/test_acceptance.py``; see README.md for the table and the reasons.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import coulomb_phase, polytable_reference


# Defects of the program that the checks recognise (described in README.md).
# Each is tied to the inputs where it shows on the baseline program: an op
# counts as failing by a known defect only if its input lies where that
# defect shows *and* it fails in the way the defect fails.  Any other failure
# makes the run incorrect.
KNOWN_DEFECTS = {"unflagged-truncation", "zero-energy-level", "sturm-bracket",
                 "shallow-level-mesh", "closed-form-precision",
                 "racah-polytable", "mass-point-recursion"}


class CheckFailed(Exception):
    """An op returned, but its output is wrong.  ``defect`` names the known
    defect that explains it, if the input is one where that defect shows."""

    def __init__(self, reason, defect=None):
        super().__init__(reason)
        self.defect = defect


@dataclass
class Op:
    kind: str                        # input class, for per-kind summaries
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    timed: bool = True               # counted in the latency metrics
    out_bytes: int = 0


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _cli_op(kind, label, argv, check):
    """An in-process CLI call; ``check(rc, doc, err)`` sees the exit code,
    the parsed JSON output (None if there is none) and standard error."""
    from triseries import cli

    op = Op(kind, label, None, None)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        text = out.getvalue()
        op.out_bytes = len(text.encode())
        return rc, text, err.getvalue()

    def checked(result):
        rc, text, err = result
        check(rc, json.loads(text) if text else None, err)

    op.run, op.check = run, checked
    return op


def _require_exit_0(rc, err, defect=None):
    if rc != 0:
        raise CheckFailed(f"exit {rc}: {_cli_error(err)}", defect)


def _cli_error(err: str) -> str:
    line = err.strip().splitlines()[-1] if err.strip() else ""
    try:
        diag = json.loads(line)["diagnostics"]
        return f"{diag['error']}: {diag['message']}"[:160]
    except (ValueError, KeyError, TypeError):
        return line[:160]


def _flags(d: dict) -> list:
    out = []
    for k, v in d.items():
        out += [f"--{k}", repr(v) if isinstance(v, float) else str(v)]
    return out


# ---------------------------------------------------------------------------
# case draws shared by spectrum, series and sweeps
# ---------------------------------------------------------------------------

def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def coulomb_draw(rng):
    return {"Z": 1.0, "ell": int(rng.choice([0, 1]))}


def oscillator_draw(rng):
    return {"omega": _u(rng, 0.5, 1.0), "ell": int(rng.choice([0, 2]))}


def morse_draw(rng):
    # V1 in [0.8, 1.2] keeps exactly two bound levels
    return {"lambda": 1.0, "V1": _u(rng, 0.8, 1.2)}


def poschl_teller_draw(rng):
    # B in [-40, -32] keeps exactly three bound levels
    return {"lambda": 1.0, "A": 1.0, "B": _u(rng, -40.0, -32.0)}


PT_ZERO_ENERGY = {"lambda": 1.0, "A": 2.0, "B": -20.0}


def scarf_draw(rng, a_above_b: bool):
    hi, lo = _u(rng, 1.5, 2.5), _u(rng, 0.3, 0.7)
    a, b = (hi, lo) if a_above_b else (lo, hi)
    return {"A": a, "B": b, "lambda": 1.0}


def eckart_draw(rng):
    # B in [-24, -16] keeps exactly three bound levels
    return {"lambda": 1.0, "A": 2.0, "B": _u(rng, -24.0, -16.0)}


def _case_label(case, p):
    return case + "(" + ",".join(f"{k}={v:.6g}" if isinstance(v, float)
                                 else f"{k}={v}" for k, v in p.items()) + ")"


# ---------------------------------------------------------------------------
# spectrum: in-process `triseries spectrum ... --format json`
# ---------------------------------------------------------------------------

def spectrum_round(rng, index):
    # One op per case.  The Coulomb ell, the Scarf branch and the two
    # Poschl-Teller inputs alternate between rounds, so every pair of rounds
    # holds each of them once; the short round leaves room for two rounds,
    # and so two samples of every case, in one run.
    even = index % 2 == 0
    draws = [("coulomb", {"Z": 1.0, "ell": 0 if even else 1}),
             ("oscillator", oscillator_draw(rng)),
             ("morse", morse_draw(rng)),
             ("poschl_teller",
              poschl_teller_draw(rng) if even else dict(PT_ZERO_ENERGY)),
             ("scarf", scarf_draw(rng, even)),
             ("eckart", eckart_draw(rng))]
    ops = []
    for case, p in draws:
        argv = ["spectrum", "--case", case] + _flags(p) + ["--format", "json"]
        kind = case if case != "scarf" else \
            f"scarf A{'>' if p['A'] > p['B'] else '<'}B"
        ops.append(_cli_op(kind, _case_label(case, p), argv,
                           _spectrum_check(_spectrum_defect(case, p))))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# Where the spectrum defects show on the baseline program, as measured at the
# edges of the draw ranges (README.md has the probes).
PT_BRACKET_B = -34.8       # Poschl-Teller A=1: MeshTooCoarse for B > -34.8
SCARF_BRACKET_GAP = 0.95   # Scarf A > B: MeshTooCoarse for A - B < 0.95
MORSE_SHALLOW_V1 = 0.835   # Morse lam=1: top level missed (exit 2), V1 < 0.835
ECKART_SHALLOW_B = -16.2   # Eckart lam=1, A=2: top level not found (exit 1), B > -16.2


def _spectrum_defect(case, p):
    """(known defect, exit code, error text it shows by) for an input in the
    range where one shows on the baseline program, else None."""
    if case == "poschl_teller" and p == PT_ZERO_ENERGY:
        return "zero-energy-level", 1, "eigenvalues below"
    if case == "poschl_teller" and p["A"] == 1.0 and p["B"] > PT_BRACKET_B:
        return "sturm-bracket", 1, "MeshTooCoarse"
    if case == "scarf" and 0 < p["A"] - p["B"] < SCARF_BRACKET_GAP:
        return "sturm-bracket", 1, "MeshTooCoarse"
    if case == "morse" and p["V1"] < MORSE_SHALLOW_V1:
        return "shallow-level-mesh", 2, ""
    if case == "eckart" and p["B"] > ECKART_SHALLOW_B:
        return "shallow-level-mesh", 1, "eigenvalues below"
    return None


def _spectrum_check(known):
    """Exit 0 and every level within the oracle tolerance."""
    def check(rc, doc, err):
        if rc != 0 and known is not None:
            defect, code, text = known
            if rc == code and text in err:
                _require_exit_0(rc, err, defect)
        _require_exit_0(rc, err)
        if doc["diagnostics"].get("within_tolerance") is not True:
            raise CheckFailed("levels outside the oracle tolerance")
    return check


# ---------------------------------------------------------------------------
# series: bound_series -> wavefunction (200 r) -> ode_residual (10 x)
# ---------------------------------------------------------------------------

RESIDUAL_GATE = 1e-5      # acceptance criterion 9
N_R = 200

# Fixed cases: how many coefficients a state needs (its cost, by a factor of
# up to 50) jumps with the parameters, so seeded parameters would change the
# workload's mix from seed to seed.  The seed moves the sample grids instead.
# The acceptance points of criteria 2, 4 and 9 come first; the rest sit off
# them, where the series does not terminate.  The last entry maps each state
# m that fails on the baseline program to its known defect; a failure of any
# other state makes the run incorrect.
TRUNCATED = "unflagged-truncation"


def _series_cases():
    from triseries import physics as P
    return [
        (P.CoulombCase(Z=1.0, ell=0, lam=0.3), "laguerre", 30.0, {}),
        (P.CoulombCase(Z=1.0, ell=1, lam=0.3), "laguerre", 30.0, {}),
        (P.OscillatorCase(omega=1.0, ell=0, lam=0.4), "laguerre", 6.0,
         {2: TRUNCATED}),
        (P.OscillatorCase(omega=0.5, ell=2, lam=0.4), "laguerre", 6.0, {}),
        (P.MorseCase(lam=1.0, V1=1.0), "morse", 2.0, {}),
        (P.PoschlTellerCase(lam=1.0, A=1.0, B=-36.0), "jacobi", 8.0, {}),
        (P.ScarfCase(A=2.0, B=0.5, lam=1.0), "jacobi", math.pi, {}),
        (P.ScarfCase(A=0.5, B=2.0, lam=1.0), "jacobi", math.pi, {}),
        (P.EckartCase(lam=1.0, A=2.0, B=-20.0), "jacobi", 10.0,
         {1: TRUNCATED, 2: TRUNCATED}),
        (P.PoschlTellerCase(lam=1.0, A=2.0, B=-20.0), "jacobi", 8.0,
         {1: "zero-energy-level"}),
        (P.MorseCase(lam=1.0, V1=1.1), "morse", 2.0,
         {0: TRUNCATED, 1: TRUNCATED}),
        (P.ScarfCase(A=2.2, B=0.6, lam=1.0), "jacobi", math.pi,
         {1: TRUNCATED, 2: TRUNCATED}),
    ]


_X_RANGE = {"laguerre": (0.3, 8.0), "morse": (0.3, 6.0), "jacobi": (-0.9, 0.9)}


def series_round(rng, index):
    from triseries import physics as P

    ops = []
    for case, kind, r_top, known in _series_cases():
        lo, hi = _X_RANGE[kind]
        # r from near the origin (or -4 for Morse, on the whole line) to about
        # r_top; 10 residual points spread over the interior x range
        r0 = -4.0 + _u(rng, -0.5, 0.5) if kind == "morse" else _u(rng, 0.02, 0.1)
        rs = np.linspace(r0, r_top * _u(rng, 0.9, 0.98), N_R)
        xs = np.sort(np.concatenate(([lo, hi], rng.uniform(lo, hi, 8))))
        for m in range(min(3, P.spectrum_size(case))):
            ops.append(_series_op(case, m, rs, xs, known.get(m)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _series_op(case, m, rs, xs, known):
    from triseries import physics, solve

    def run():
        params, sol = physics.bound_series(case, m)
        psi = physics.wavefunction(case, sol, rs)
        res = solve.ode_residual(params, sol, xs)
        return sol, psi, res

    def check(result):
        sol, psi, res = result
        f = np.asarray(sol.f)
        if not np.any(f != 0.0):
            raise CheckFailed("all-zero coefficient vector",
                              known if known == "zero-energy-level" else None)
        if not np.all(np.isfinite(psi)):
            raise CheckFailed("non-finite wavefunction sample")
        if not res < RESIDUAL_GATE:
            cut = f[-1] != 0.0   # the chain runs to the truncation
            raise CheckFailed(f"ODE residual {res:.2e} >= {RESIDUAL_GATE:g} "
                              f"({np.count_nonzero(f)}/{f.size} terms nonzero)",
                              known if known == TRUNCATED and cut else None)

    return Op(f"{case.name} m={m}", f"{case!r} m={m}", run, check)


# ---------------------------------------------------------------------------
# verify: two oracle-equivalence draws per op; the other suites once per run
# ---------------------------------------------------------------------------

VERIFY_OPS_PER_ROUND = 5
# One op certifies two draws.  Half the draws take a complex Wilson family,
# which costs about twice as much, so single draws split into two latency
# clusters of nearly equal size and the median jumps between them from run
# to run; the middle cluster of pairs (one draw of each kind) holds half the
# ops and with it the median.
DRAWS_PER_OP = 2
ONCE_PER_RUN_SUITES = ("weights", "matches", "identities", "degeneration")
# Oracle draws take their seeds from range(VERIFY_POOL).  Every draw of the
# pool was run on the baseline program; these are the ones that fail there,
# with the defect of each failed check (or of the exception type the draw
# raises).  A failure of any other draw, or any other failure of these, makes
# the run incorrect.
VERIFY_POOL = 4096
KNOWN_DRAW_FAILURES = {
    601: {"closed_form_double_precision[wilson]": "closed-form-precision"},
    1350: {"ArithmeticError": "closed-form-precision"},   # Wilson closed_form
    3588: {"closed_form_double_precision[wilson]": "closed-form-precision"},
}


def verify_round(rng, index):
    from triseries import verify

    ops = []
    if index == 0:
        for name in ONCE_PER_RUN_SUITES:
            ops.append(Op(f"{name} suite", f"{name} suite",
                          lambda name=name: verify.SUITES[name](),
                          _suite_check, timed=False))
    draws = rng.integers(0, VERIFY_POOL, size=(VERIFY_OPS_PER_ROUND, DRAWS_PER_OP))
    for seeds in draws.tolist():
        ops.append(_verify_op(seeds))
    return ops


def _verify_op(seeds):
    from triseries import verify

    def run():
        out = []
        for s in seeds:
            try:
                out.append(verify.oracle_equivalence_suite(n_draws=1, seed=s))
            except Exception as exc:   # reported by the check, per draw
                out.append(exc)
        return out

    def check(results):
        failures = [f for f in map(_draw_failure, seeds, results) if f]
        if failures:
            defects = {defect for _, defect in failures}
            raise CheckFailed("; ".join(reason for reason, _ in failures),
                              defects.pop() if defects != {None}
                              and len(defects) == 1 else None)

    return Op("oracle draws", "oracle draws seeds=" + ",".join(map(str, seeds)),
              run, check)


def _draw_failure(seed, result):
    """None if every Check of the draw passed, else (reason, the known defect
    that explains it on this seed or None)."""
    known = KNOWN_DRAW_FAILURES.get(seed, {})
    if isinstance(result, Exception):
        name = type(result).__name__
        return f"seed {seed} raised {name}: {result}"[:200], known.get(name)
    failed = [c for c in result if not c.passed]
    if not failed and result:
        return None
    defects = {known.get(c.name) for c in failed}
    return (f"seed {seed} failed checks: " + ", ".join(
        f"{c.name}={c.value:.2e}>{c.tolerance:g}" for c in failed),
        defects.pop() if len(defects) == 1 else None)


def _suite_check(checks):
    """Every Check of a once-per-run suite passes."""
    failed = [c for c in checks if not c.passed]
    if failed or not checks:
        raise CheckFailed("failed checks: " + ", ".join(
            f"{c.name}={c.value:.2e}>{c.tolerance:g}" for c in failed))


# ---------------------------------------------------------------------------
# sweeps: phaseshift (200 energies, four continuum cases) and polytable
# ---------------------------------------------------------------------------

N_E = 200
SMOOTH_STEP = 0.5          # acceptance criterion 5: max |diff(unwrap(delta))|
COULOMB_PHASE_TOL = 1e-10
POLYTABLE_TOL = 1e-10      # relative to max(1, |P_n|), as criterion 6


def sweeps_round(rng, index):
    ops = []
    for case, p in (("coulomb", coulomb_draw(rng)), ("morse", morse_draw(rng)),
                    ("poschl_teller", poschl_teller_draw(rng)),
                    ("eckart", eckart_draw(rng))):
        # The Coulomb phase turns by ~ln(eta) eta^3 per unit E (eta = Z/k), so
        # its sweep starts higher for criterion 5's step rule to describe the
        # true curve at 200 points; the other cases start at criterion 5's 0.05.
        lo = (0.2, 0.4) if case == "coulomb" else (0.05, 0.2)
        e = {"E-min": _u(rng, *lo), "E-max": _u(rng, 5.0, 7.0), "n-E": N_E}
        argv = (["phaseshift", "--case", case] + _flags(p) + _flags(e)
                + ["--format", "json"])
        ops.append(_cli_op(f"phaseshift {case}",
                           "phaseshift " + _case_label(case, p), argv,
                           _phase_check(case, p)))
    for family, p, z, n_max in _polytable_draws(rng):
        argv = (["polytable", "--family", family] + _flags(p)
                + ["--z", repr(z), "--n-max", str(n_max), "--format", "json"])
        label = f"polytable {_case_label(family, p)} z={z:.6g} n_max={n_max}"
        ops.append(_cli_op(f"polytable {family}", label, argv,
                           _polytable_check(family, p, z, n_max)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _phase_check(case, p):
    def check(rc, doc, err):
        _require_exit_0(rc, err)
        rows = doc["rows"]
        if len(rows) != N_E:
            raise CheckFailed(f"{len(rows)} rows, expected {N_E}")
        es = np.array([r["E"] for r in rows])
        ds = np.array([r["delta"] for r in rows])
        if not np.all(np.isfinite(ds)):
            raise CheckFailed("non-finite phase shift")
        if np.any(ds <= -math.pi) or np.any(ds > math.pi):
            raise CheckFailed("phase shift outside (-pi, pi]")
        step = float(np.max(np.abs(np.diff(np.unwrap(ds)))))
        if step > SMOOTH_STEP:
            raise CheckFailed(f"sweep not smooth: step {step:.3f}")
        if case == "coulomb":
            worst = max(abs(math.remainder(d - coulomb_phase(p["Z"], p["ell"], e),
                                           2.0 * math.pi))
                        for e, d in zip(es, ds))
            if worst > COULOMB_PHASE_TOL:
                raise CheckFailed(f"Coulomb phase off by {worst:.2e}")
    return check


def _polytable_draws(rng):
    """(family, flags, z, n_max) per family.

    z is the raw recursion variable ``polytable --z`` takes, built from the
    family's natural argument: a real z for Meixner-Pollaczek, w = z^2 for
    the quadratic-variable families, and an index k (a mass point) for the
    discrete ones.
    """
    out = []
    n_big = int(rng.integers(20, 201))
    p = {"mu": _u(rng, 0.1, 4.0), "theta": _u(rng, 0.25, math.pi - 0.25)}
    out.append(("meixner_pollaczek", p, _u(rng, -3.0, 3.0), n_big))

    p = {"mu": _u(rng, 0.1, 4.0), "tau": _u(rng, 0.05, 0.95)}
    k = int(rng.integers(0, 12))
    out.append(("meixner", p, (p["tau"] - 1.0) * k,
                int(rng.integers(20, 201))))

    N = int(rng.integers(20, 201))
    p = {"N": N, "tau": _u(rng, 0.2, 0.8)}
    k = int(rng.integers(0, N + 1))
    out.append(("krawtchouk", p, k / math.sqrt(p["tau"] * (1.0 - p["tau"])),
                int(rng.integers(10, N + 1))))

    p = {"tau": _u(rng, 0.1, 3.0), "a": _u(rng, 0.1, 3.0), "b": _u(rng, 0.1, 3.0)}
    out.append(("continuous_dual_hahn", p, _u(rng, 0.0, 9.0),
                int(rng.integers(20, 201))))

    N = int(rng.integers(20, 201))
    p = {"N": N, "tau": _u(rng, -0.6, 2.5), "sigma": _u(rng, -0.6, 2.5)}
    k = int(rng.integers(0, N + 1))
    out.append(("dual_hahn", p, (k + 0.5 * (p["tau"] + p["sigma"] + 1.0)) ** 2,
                int(rng.integers(10, N + 1))))

    p = {k: _u(rng, 0.3, 2.0) for k in ("a", "b", "c", "d")}
    out.append(("wilson", p, _u(rng, 0.0, 4.0), int(rng.integers(20, 201))))

    N = int(rng.integers(20, 201))
    p = {"N": N, "gamma": _u(rng, -0.9, 3.0), "sigma": _u(rng, -0.9, 3.0)}
    k = int(rng.integers(0, N + 1))
    out.append(("racah", p, 0.25 * (N - 2.0 * k) ** 2,
                int(rng.integers(10, N + 1))))
    return out


# Forward recursion at a mass point loses digits at high degree on the
# baseline program.  Where it shows, from 3300 tables per family: Meixner at
# mass point k has lost about (n - k) ln(1/tau) / 2 nats by degree n (the
# two solutions of its recursion part by a factor 1/tau per step) and misses
# the reference from 11.7 nats on; Krawtchouk and dual Hahn miss it from
# degree 20 on.  The ranges below keep a margin.
MASS_POINT_NATS = 9.0
MASS_POINT_DEGREE = 16


def _at_lossy_mass_point(family, p, z, n):
    """Whether degree n of this table lies where the mass-point defect
    shows on the baseline program."""
    if family == "meixner":
        k = z / (p["tau"] - 1.0)
        return (n - k) * math.log(1.0 / p["tau"]) / 2.0 >= MASS_POINT_NATS
    return family in ("krawtchouk", "dual_hahn") and n >= MASS_POINT_DEGREE


def _polytable_check(family, p, z, n_max):
    def check(rc, doc, err):
        # every Racah table exits 1 on the baseline program
        _require_exit_0(rc, err, "racah-polytable" if family == "racah"
                        and "ZeroOffDiagonal" in err else None)
        rows = doc["rows"]
        if [r["n"] for r in rows] != list(range(n_max + 1)):
            raise CheckFailed("degrees missing from the table")
        for n in sorted({1, min(10, n_max), n_max // 2, n_max}):
            ref = polytable_reference(family, p, z, n)
            got = rows[n]["P_n"]
            err = abs(got - ref) / max(1.0, abs(ref))
            if not err <= POLYTABLE_TOL:
                known = _at_lossy_mass_point(family, p, z, n)
                raise CheckFailed(f"P_{n} = {got:.6g}, reference {ref:.6g} "
                                  f"(rel err {err:.1e})",
                                  "mass-point-recursion" if known else None)
    return check


# ---------------------------------------------------------------------------

def rounds(workload: str, seed: int):
    """The endless round sequence of a workload for one seed."""
    rng = np.random.default_rng([seed, _SALT[workload]])
    make = {"spectrum": spectrum_round, "series": series_round,
            "verify": verify_round, "sweeps": sweeps_round}[workload]
    index = 0
    while True:
        yield make(rng, index)
        index += 1


_SALT = {"spectrum": 1, "series": 2, "verify": 3, "sweeps": 4}
WORKLOADS = tuple(_SALT)
