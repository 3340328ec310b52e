"""Command-line surface: spectra, phase shifts, wavefunction samples,
polynomial tables, property verification and family matching.

Output is CSV (numeric payload, 17 significant digits, LF endings) or JSON
(one object with "config", "rows", "diagnostics").  Exit codes: 0 success,
1 usage/config/domain error, 2 verification-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import families as fam
from . import physics, solve, verify
from .errors import TriseriesError
from .tra import OdeParams

DEFAULT_TRUNCATION = int(os.environ.get("TRA_DEFAULT_TRUNCATION", "60"))


def _cell(x):
    """A table cell as a JSON value: strings pass through, integers stay
    integers, everything else is a float."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


def _fmt(x) -> str:
    v = _cell(x)
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _emit(config: dict, header, rows, diagnostics: dict, fmt: str, out_path):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": config,
            "rows": [dict(zip(header, map(_cell, row))) for row in rows],
            "diagnostics": diagnostics,
        }
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_case(ns) -> object:
    kind = ns.case
    if kind == "coulomb":
        return physics.CoulombCase(Z=ns.Z, ell=ns.ell, lam=ns.lam)
    if kind == "oscillator":
        return physics.OscillatorCase(omega=ns.omega, ell=ns.ell, lam=ns.lam)
    if kind == "morse":
        return physics.MorseCase(lam=ns.lam, V1=ns.V1, V2=ns.V2, nu=ns.nu)
    if kind == "poschl_teller":
        return physics.PoschlTellerCase(lam=ns.lam, A=ns.A, B=ns.B, mu=ns.mu)
    if kind == "scarf":
        if ns.L is not None:
            return physics.ScarfCase(A=ns.A, B=ns.B, L=ns.L, mu=ns.mu)
        return physics.ScarfCase(A=ns.A, B=ns.B, lam=ns.lam, mu=ns.mu)
    if kind == "eckart":
        return physics.EckartCase(lam=ns.lam, A=ns.A, B=ns.B, mu=ns.mu)
    raise ValueError(f"unknown case {kind!r}")


# A run's configuration is every parser dest that holds a value, except the
# output path; ``func`` is the command hook build_parser sets as a default.
_NOT_CONFIG = ("out", "func")


def _case_config(ns) -> dict:
    return {k: v for k, v in vars(ns).items()
            if k not in _NOT_CONFIG and v is not None}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(ns) -> int:
    case = _build_case(ns)
    spec = physics.bound_spectrum(case, m_max=ns.m_max)
    oracle = physics.fd_oracle(case, n_levels=len(spec.levels))
    formula = spec.energies
    order = np.argsort(formula)
    rows = []
    ok = True
    for rank, idx in enumerate(order):
        m, e = spec.levels[idx]
        e_fd = float(oracle[rank])
        diff = abs(e - e_fd)
        rows.append((m, e, e_fd, diff))
        if diff > ns.tol * max(abs(e_fd), 1e-2):
            ok = False
    rows.sort(key=lambda r: r[0])
    _emit(_case_config(ns), ["m", "E_formula", "E_oracle", "abs_diff"], rows,
          {"tolerance": ns.tol, "within_tolerance": ok}, ns.format, ns.out)
    return 0 if ok else 2


def cmd_phaseshift(ns) -> int:
    case = _build_case(ns)
    if ns.E is not None:
        energies = [ns.E]
    else:
        energies = list(np.linspace(ns.E_min, ns.E_max, ns.n_E))
    rows = [(e, physics.phase_shift(case, float(e))) for e in energies]
    _emit(_case_config(ns), ["E", "delta"], rows, {}, ns.format, ns.out)
    return 0


def cmd_wavefunction(ns) -> int:
    case = _build_case(ns)
    _, sol = physics.bound_series(case, ns.m, truncation=ns.truncation)
    rs = np.linspace(ns.r_min, ns.r_max, ns.n_r)
    psi = physics.wavefunction(case, sol, rs)
    rows = [(float(r), float(p)) for r, p in zip(rs, psi)]
    _emit(_case_config(ns), ["r", "psi"], rows,
          {"truncation": sol.truncation,
           "unnormalized": bool(sol.unnormalized)}, ns.format, ns.out)
    return 0


_FAMILY_BUILDERS = {
    "meixner_pollaczek": lambda ns: fam.MeixnerPollaczek(ns.mu, ns.theta),
    "meixner": lambda ns: fam.Meixner(0.5 * (ns.nu + 1.0) if ns.mu is None
                                      else ns.mu, ns.tau),
    "krawtchouk": lambda ns: fam.Krawtchouk(ns.N, ns.tau),
    "continuous_dual_hahn": lambda ns: fam.ContinuousDualHahn(
        ns.tau, ns.a, ns.b if ns.b is not None else ns.a),
    "dual_hahn": lambda ns: fam.DualHahn(ns.N, ns.tau, ns.sigma),
    "wilson": lambda ns: fam.Wilson(ns.a, ns.b, ns.c, ns.d),
    "racah": lambda ns: fam.Racah(ns.N, ns.gamma, ns.sigma),
}


def cmd_polytable(ns) -> int:
    family = _FAMILY_BUILDERS[ns.family](ns)
    coeffs = fam.family_coeffs(family, max(ns.n_max, 1))
    from .recurrence import run_recursion
    vals = run_recursion(coeffs, ns.z, ns.n_max).values
    rows = [(n, float(v)) for n, v in enumerate(vals)]
    _emit(_case_config(ns), ["n", "P_n"], rows, {}, ns.format, ns.out)
    return 0


def cmd_verify(ns) -> int:
    names = None if ns.suite == "all" else [ns.suite]
    checks = verify.run_suites(names)
    rows = [(c.name, c.value, c.tolerance, "pass" if c.passed else "fail")
            for c in checks]
    ok = all(c.passed for c in checks)
    _emit(_case_config(ns), ["property", "value", "tolerance", "status"], rows,
          {"all_passed": ok}, ns.format, ns.out)
    return 0 if ok else 2


def cmd_match(ns) -> int:
    params = OdeParams(ns.equation, ns.a, ns.b, ns.A_plus, ns.A_minus,
                       ns.A_zero, A_one=ns.A_one)
    result = solve.match_family(params, ns.scenario, nu_sign=ns.nu_sign,
                                mu_sign=ns.mu_sign, free_value=ns.free_value)
    f = result.family
    fam_kind = fam.FAMILY_KINDS[type(f)]
    assignments = {}
    for key, val in vars(f).items():
        assignments[key] = (repr(val) if isinstance(val, complex) else val)
    diagnostics = {
        "family": fam_kind,
        "spectrum_kind": result.spectrum_kind,
        "n_finite": result.n_finite,
        "assignments": assignments,
        "spectral_map": {
            "combination": result.spectral_map.combination,
            "raw_value": result.spectral_map.raw_value,
            "scale": result.spectral_map.scale,
            "offset": result.spectral_map.offset,
            "family_value": result.spectral_map.family_value,
        },
        "basis": {"alpha": result.spec.alpha, "beta": result.spec.beta,
                  "nu": result.spec.nu, "mu": result.spec.mu,
                  "scenario": result.spec.scenario},
    }
    # a match has no table, only diagnostics, so it is written as JSON
    # whatever --format says
    _emit(_case_config(ns), [], [], diagnostics, "json", ns.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_case_flags(p: argparse.ArgumentParser):
    p.add_argument("--case", required=True, choices=sorted(physics.CASE_TYPES))
    p.add_argument("--Z", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--V1", type=float, default=1.0)
    p.add_argument("--V2", type=float, default=None)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=None)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triseries",
        description="Series solutions of Laguerre- and Jacobi-type equations "
                    "through three-term recursions and orthogonal polynomials")
    ap.add_argument("--config", default=None,
                    help="JSON file with defaults for the chosen command")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="bound levels vs the finite-difference oracle")
    _add_case_flags(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-3)
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phaseshift", help="scattering phase shift delta(E)")
    _add_case_flags(p)
    p.add_argument("--E", type=float, default=None)
    p.add_argument("--E-min", dest="E_min", type=float, default=0.1)
    p.add_argument("--E-max", dest="E_max", type=float, default=5.0)
    p.add_argument("--n-E", dest="n_E", type=int, default=50)
    _add_output_flags(p)
    p.set_defaults(func=cmd_phaseshift)

    p = sub.add_parser("wavefunction", help="bound-state wavefunction samples")
    _add_case_flags(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.1)
    p.add_argument("--r-max", dest="r_max", type=float, default=10.0)
    p.add_argument("--n-r", dest="n_r", type=int, default=50)
    _add_output_flags(p)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("polytable", help="P_n(z) table from the recursion")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_BUILDERS))
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    _add_output_flags(p)
    p.set_defaults(func=cmd_polytable)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(verify.SUITES))
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("match", help="match raw equation parameters to a family")
    p.add_argument("--equation", choices=("laguerre", "jacobi"), required=True)
    p.add_argument("--scenario", required=True,
                   choices=("LA", "LB", "JA", "JB", "JC"))
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--A-plus", dest="A_plus", type=float, required=True)
    p.add_argument("--A-minus", dest="A_minus", type=float, required=True)
    p.add_argument("--A-zero", dest="A_zero", type=float, required=True)
    p.add_argument("--A-one", dest="A_one", type=float, default=None)
    p.add_argument("--free-value", dest="free_value", type=float, default=None)
    p.add_argument("--nu-sign", dest="nu_sign", type=int, default=1,
                   choices=(-1, 1))
    p.add_argument("--mu-sign", dest="mu_sign", type=int, default=1,
                   choices=(-1, 1))
    _add_output_flags(p)
    p.set_defaults(func=cmd_match)
    return ap


def _extract_config_flag(args):
    """Pull --config out by hand; argparse would insist on required flags."""
    rest = []
    path = None
    i = 0
    while i < len(args):
        if args[i] == "--config":
            if i + 1 >= len(args):
                return None, rest + args[i:], "missing value for --config"
            path = args[i + 1]
            i += 2
            continue
        if args[i].startswith("--config="):
            path = args[i].split("=", 1)[1]
            i += 1
            continue
        rest.append(args[i])
        i += 1
    return path, rest, None


def main(argv=None) -> int:
    ap = build_parser()
    # --config supplies defaults; explicit flags override it
    raw_args = list(argv) if argv is not None else sys.argv[1:]
    config_path, raw_args, cfg_err = _extract_config_flag(raw_args)
    if cfg_err:
        print(f"error: {cfg_err}", file=sys.stderr)
        return 1
    if config_path:
        try:
            with open(config_path) as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        if isinstance(stored, dict) and "config" in stored:
            stored = stored["config"]
        args = raw_args
        command = stored.get("command")
        if command and (not args or args[0].startswith("--")):
            args = [command] + args
        injected = []
        for key, val in stored.items():
            if key == "command" or val is None:
                continue
            flag = "--" + key.replace("_", "-")
            if flag == "--lam":
                flag = "--lambda"
            injected.extend([flag, str(val)])
        # flags given on the command line win: argparse takes the last value
        order = ([args[0]] + injected + args[1:]) if args else injected
        ns = ap.parse_args(order)
    else:
        ns = ap.parse_args(raw_args)
    try:
        return ns.func(ns)
    except TriseriesError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(ns, "format", "csv") == "json":
            sys.stderr.write(json.dumps({"diagnostics": diag}) + "\n")
        else:
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
