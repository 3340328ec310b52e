"""Command-line surface: spectra, phase shifts, wavefunction samples,
polynomial tables, property verification and family matching.

Each command hands its table to the writer as columns.  Output is CSV
(numeric payload, 17 significant digits, LF endings) or JSON (one object
with "config", "rows", "diagnostics").  Exit codes: 0 success,
1 usage/config/domain/arithmetic error, 2 verification-tolerance failure.

Each case field has one flag (``lam``'s is ``--lambda``); what a case
derives from its fields, such as Morse's V2 = lam^2/8 or Scarf's box pi/lam,
has none.

A call of ``--flag value`` pairs of its command's own flags reads them from
a table taken from the parser; help, any other call and every usage error
stay argparse's.  A negative number (-20, -.5, -2e1) is a value.  A call
imports numpy, scipy.special and scipy.linalg; no command loads scipy's
quadrature stack (scipy.integrate), ``verify --suite weights`` included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import families as fam
from . import physics, verify
from .errors import TriseriesError
from .recurrence import run_recursion
from .tra import DEFAULT_TRUNCATION, OdeParams, resolve


def _cell(x):
    """A table cell as a JSON value: strings pass through, integers stay
    integers, everything else is a float."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


_STRING = json.encoder.encode_basestring_ascii


def _json_texts(values) -> list:
    """The JSON text of each scalar value from one call of json's C encoder
    (the float repr, NaN/Infinity, int text and ASCII escapes of
    json.dumps(indent=2)), split on the NUL that joins them: no text holds
    one, as the encoder escapes every control character in a string."""
    text = json.dumps(values, separators=("\0", ":"), default=str)
    return text[1:-1].split("\0") if values else []


def _json_object(keys, pad) -> str:
    """A %-template of the text json.dumps(indent=2) writes for an object
    with these sorted keys whose braces sit at indent pad: one %s a value."""
    items = [f"{pad}  {_STRING(k).replace('%', '%%')}: %s" for k in keys]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}" if keys else "{}"


def _emit(config: dict, header, columns, diagnostics: dict, fmt: str,
          out_path):
    """Write a table given as columns: a numpy array of a float or int dtype
    (never bool, which tolist would make true/false) becomes Python values in
    one tolist call, any other column passes through _cell cell by cell.

    JSON is the bytes of json.dumps({"config", "diagnostics", "rows"},
    sort_keys=True, indent=2, default=str): the config values (parser
    values, so scalars) and each column take one _json_texts call, and the
    diagnostics their own json.dumps, indented a level at each newline, all
    of which are structure (a string escapes its own)."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(map(_cell, c))
            for c in columns]
    if fmt == "csv":
        texts = [[f"{v:.17g}" if isinstance(v, float) else str(v) for v in col]
                 for col in cols]
        text = "\n".join([",".join(header), *map(",".join, zip(*texts))]) + "\n"
    else:
        # a repeated name keeps its last column, as dict(zip(...)) does
        last = {name: i for i, name in enumerate(header)}
        keys, ckeys = sorted(last), sorted(config)
        n_rows = len(cols[0]) if cols else 0
        cells = [None] * (len(keys) * n_rows)   # row-major
        for j, k in enumerate(keys):
            cells[j::len(keys)] = _json_texts(cols[last[k]])
        rows = ",\n".join(["    " + _json_object(keys, "    ")] * n_rows)
        text = '{\n  "config": %s,\n  "diagnostics": %s,\n  "rows": %s\n}\n' % (
            _json_object(ckeys, "  ")
            % tuple(_json_texts([config[k] for k in ckeys])),
            json.dumps(diagnostics, sort_keys=True, indent=2,
                       default=str).replace("\n", "\n  "),
            "[\n" + rows % tuple(cells) + "\n  ]" if n_rows else "[]")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_case(ns) -> object:
    cls = physics.CASE_TYPES[ns.case]
    return cls(**{f.name: getattr(ns, f.name) for f in dataclasses.fields(cls)})


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
    mesh = physics.default_mesh(case, len(spec.levels))
    oracle = physics.fd_oracle(case, n_levels=len(spec.levels), mesh=mesh)
    ms, formula = zip(*spec.levels)
    # the oracle lists the levels by energy, the table lists them by m
    e_fd = oracle[np.argsort(np.argsort(spec.energies))].tolist()
    diff = [abs(e - f) for e, f in zip(formula, e_fd)]
    ok = not any(d > ns.tol * max(abs(f), 1e-2) for d, f in zip(diff, e_fd))
    # the oracle tells the levels apart: each lies nearest its own formula
    # level, and equal oracle levels have equal formula levels
    ok = (ok and len(set(e_fd)) == len(set(zip(e_fd, formula)))
          and all(d <= min(abs(e - g) for g in formula) for d, e in zip(diff, e_fd)))
    _emit(_case_config(ns), ["m", "E_formula", "E_oracle", "abs_diff"],
          [ms, formula, e_fd, diff],
          {"tolerance": ns.tol, "within_tolerance": ok,
           "fd_nodes": [mesh.steps() - 1, mesh.halved().steps() - 1]},
          ns.format, ns.out)
    return 0 if ok else 2


def cmd_phaseshift(ns) -> int:
    case = _build_case(ns)
    if ns.E is not None:
        energies = np.array([ns.E])
    else:
        energies = np.linspace(ns.E_min, ns.E_max, ns.n_E)
    _emit(_case_config(ns), ["E", "delta"],
          [energies, physics.phase_shift(case, energies)], {}, ns.format,
          ns.out)
    return 0


def cmd_wavefunction(ns) -> int:
    case = _build_case(ns)
    _, sol = physics.bound_series(case, ns.m, truncation=ns.truncation)
    rs = np.linspace(ns.r_min, ns.r_max, ns.n_r)
    psi = physics.wavefunction(case, sol, rs)
    _emit(_case_config(ns), ["r", "psi"], [rs, psi],
          {"truncation": len(sol.f)}, ns.format, ns.out)
    return 0


def _b(ns) -> float:
    """--b, or --a when it is not given."""
    return ns.a if ns.b is None else ns.b


_FAMILY_BUILDERS = {
    "meixner_pollaczek": lambda ns: fam.MeixnerPollaczek(ns.mu, ns.theta),
    "meixner": lambda ns: fam.Meixner(ns.mu, ns.tau),
    "krawtchouk": lambda ns: fam.Krawtchouk(ns.N, ns.tau),
    "continuous_dual_hahn": lambda ns: fam.ContinuousDualHahn(ns.tau, ns.a,
                                                              _b(ns)),
    "dual_hahn": lambda ns: fam.DualHahn(ns.N, ns.tau, ns.sigma),
    "wilson": lambda ns: fam.Wilson(ns.a, _b(ns), ns.c, ns.d),
    "racah": lambda ns: fam.Racah(ns.N, ns.gamma, ns.sigma),
}


def cmd_polytable(ns) -> int:
    family = _FAMILY_BUILDERS[ns.family](ns)
    coeffs = fam.family_coeffs(family, max(ns.n_max, 1))
    vals = run_recursion(coeffs, ns.z, ns.n_max)
    _emit(_case_config(ns), ["n", "P_n"], [np.arange(vals.size), vals], {},
          ns.format, ns.out)
    return 0


def cmd_verify(ns) -> int:
    names = None if ns.suite == "all" else [ns.suite]
    checks = verify.run_suites(names)
    columns = [[c.name for c in checks], [c.value for c in checks],
               [c.tolerance for c in checks],
               ["pass" if c.passed else "fail" for c in checks]]
    ok = all(c.passed for c in checks)
    _emit(_case_config(ns), ["property", "value", "tolerance", "status"],
          columns, {"all_passed": ok}, ns.format, ns.out)
    return 0 if ok else 2


def cmd_match(ns) -> int:
    params = OdeParams(ns.equation, ns.a, ns.b, ns.A_plus, ns.A_minus,
                       ns.A_zero, A_one=ns.A_one)
    result = resolve(params, ns.scenario, nu_sign=ns.nu_sign, mu_sign=ns.mu_sign,
                     free_value=ns.free_value).match()
    f = result.family
    assignments = {key: repr(val) if isinstance(val, complex) else val
                   for key, val in vars(f).items()}
    diagnostics = {
        "family": f.kind,
        "spectrum_kind": result.spectrum_kind,
        "n_finite": result.n_finite,
        "assignments": assignments,
        "spectral_map": {key: getattr(result.spectral_map, key) for key in (
            "combination", "raw_value", "scale", "offset", "family_value")},
        "basis": {key: getattr(result.spec, key)
                  for key in ("alpha", "beta", "nu", "mu", "scenario")},
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
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1 (2 means a failed tolerance) and
    -2e1 read as a negative number; the subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every ``main`` call reuses it."""
    ap = _Parser(
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
    p.add_argument("--mu", type=float, default=0.5)
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


@functools.cache
def _flag_table(command: str) -> tuple:
    """What build_parser reads a command's ``--flag value`` pairs with: its
    store actions by flag, required actions, start namespace and parser."""
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    p, ns = sub.choices[command], {}
    for q in (ap, p):   # each default, a string one through its type
        ns.update({a.dest: q._get_value(a, a.default) if isinstance(
            a.default, str) else a.default for a in q._actions
            if argparse.SUPPRESS not in (a.dest, a.default)}, **q._defaults)
    return ({s: a for s, a in p._option_string_actions.items()
             if type(a) is argparse._StoreAction and a.nargs is None},
            {a for a in p._actions if a.required}, {**ns, sub.dest: command}, p)


def _parse(args) -> argparse.Namespace:
    """build_parser().parse_args(args), read from _flag_table when args is a
    command and ``--flag value`` pairs of its own flags that argparse takes."""
    try:
        actions, required, start, p = _flag_table(args[0])
        ns = dict(start)
        for flag, text in zip(args[1::2], args[2::2]):
            action = actions[flag]
            if text[:1] == "-" and not p._negative_number_matcher.match(text):
                break   # argparse reads it as an option
            ns[action.dest] = p._get_value(action, text)
            p._check_value(action, ns[action.dest])
        else:   # the last of a repeated flag wins, as in argparse
            if len(args) % 2 and required <= {actions[f] for f in args[1::2]}:
                return argparse.Namespace(**ns)
    except (IndexError, KeyError, argparse.ArgumentError):
        pass
    return build_parser().parse_args(args)


def _extract_config_flag(args):
    """Pull --config out by hand; argparse would insist on required flags."""
    rest, path, i = [], None, 0
    while i < len(args):
        if args[i] == "--config" and i + 1 == len(args):
            return None, rest + args[i:], "missing value for --config"
        if args[i] == "--config":
            path, i = args[i + 1], i + 2
        elif args[i].startswith("--config="):
            path, i = args[i].split("=", 1)[1], i + 1
        else:
            rest.append(args[i])
            i += 1
    return path, rest, None


def main(argv=None) -> int:
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
        if not isinstance(stored, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 1
        args = raw_args
        if stored.get("command") and (not args or args[0].startswith("--")):
            args = [stored["command"]] + args
        # each stored dest as its flag (lam's is --lambda); flags given on
        # the command line come after, and the last value of a flag wins
        injected = [t for key, val in stored.items()
                    if key != "command" and val is not None
                    for t in ("--lambda" if key == "lam" else
                              "--" + key.replace("_", "-"), str(val))]
        order = ([args[0]] + injected + args[1:]) if args else injected
        ns = _parse(order)
    else:
        ns = _parse(raw_args)
    try:
        return ns.func(ns)
    except (TriseriesError, ArithmeticError, ValueError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(ns, "format", "csv") == "json":
            sys.stderr.write(json.dumps({"diagnostics": diag}) + "\n")
        elif isinstance(exc, (TriseriesError, ArithmeticError)):
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        else:   # a ValueError, such as a record's refusal: its message alone
            sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
