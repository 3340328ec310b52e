"""Command-line behavior: outputs, exit codes, determinism, round trips."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import triseries
from triseries.cli import (_FAMILY_BUILDERS, _add_case_flags, _build_case,
                           _emit, _parse, build_parser, main)
from triseries.families import (MeixnerPollaczek, Wilson,
                                values_by_recursion)
from triseries.physics import (CASE_TYPES, CoulombCase, EckartCase, MorseCase,
                               OscillatorCase, PoschlTellerCase, ScarfCase,
                               SpectrumResult)
from triseries.tra import SeriesSolution


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_coulomb_rows(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--case", "coulomb", "--Z", "1",
                           "--ell", "0", "--m-max", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,E_formula,E_oracle,abs_diff"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-0.5)
    assert float(first[2]) == pytest.approx(-0.5, abs=1e-4)


def test_spectrum_oscillator_ell_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--case", "oscillator",
                           "--omega", "1", "--ell", "1", "--m-max", "1")
    assert code == 0
    first = out.strip().split("\n")[1].split(",")
    assert float(first[1]) == pytest.approx(2.5)


def test_spectrum_no_bound_states_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--case", "morse",
                             "--V1", "0.2", "--lambda", "1.0")
    assert code == 1
    assert "NoBoundStates" in err


def test_spectrum_tolerance_failure_exit_code(capsys):
    # the oracle misses this Scarf well by 2e-9 to 5e-8, its mesh error
    code, _, _ = run_cli(capsys, "spectrum", "--case", "scarf", "--A", "2",
                         "--B", "0.5", "--lambda", "1", "--tol", "1e-10")
    assert code == 2


@pytest.mark.parametrize("args, config", [
    (["--config", "CFG"], [1, 2]),
    (["--config", "CFG", "spectrum"], {"config": "spectrum"}),
    (["spectrum", "--case", "scarf", "--lambda", "-1"], None),
    (["spectrum", "--case", "scarf", "--lambda", "0"], None),
    (["spectrum", "--case", "scarf", "--lambda", "inf"], None),
], ids=["config-list", "config-string", "scarf-lambda-negative",
        "scarf-lambda-0", "scarf-lambda-inf"])
def test_bad_input_exits_1_with_one_error_line(args, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [str(cfg) if a == "CFG" else a for a in args]
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("args, config", [
    (["spectrum"], None),
    (["--config", "CFG"], {"command": "spectrum", "case": "oscillator",
                           "no_such_key": 1}),
    # the case commands take no basis index, and a stored one is refused
    (["spectrum", "--case", "morse", "--nu", "0.3"], None),
    (["phaseshift", "--case", "morse", "--nu", "0.3", "--E", "1"], None),
    (["wavefunction", "--case", "poschl_teller", "--mu", "0.3"], None),
    (["phaseshift", "--case", "eckart", "--A", "2", "--B", "-20", "--mu", "0.3"],
     None),
    (["--config", "CFG"], {"command": "phaseshift", "case": "morse",
                           "nu": 0.0}),
    # Morse's V2 = lam^2/8 and Scarf's box pi/lam are derived, not flags
    (["spectrum", "--case", "morse", "--V2", "0.125"], None),
    (["spectrum", "--case", "scarf", "--L", "3"], None),
    (["--config", "CFG"], {"command": "spectrum", "case": "scarf", "L": 3.0}),
    (["--config", "CFG"], {"command": "wavefunction", "case": "morse",
                           "V2": 0.125}),
    # polytable spells Meixner's and Meixner-Pollaczek's mu one way: --mu
    (["polytable", "--family", "meixner", "--nu", "0", "--z", "1"], None),
    (["--config", "CFG"], {"command": "polytable", "family": "meixner",
                           "nu": 0.0, "z": 1.0}),
], ids=["missing-case", "config-unknown-key", "spectrum-nu", "phaseshift-nu",
        "wavefunction-mu", "phaseshift-mu", "config-stored-nu", "spectrum-V2",
        "spectrum-L", "config-stored-L", "config-stored-V2", "polytable-nu",
        "config-polytable-nu"])
def test_usage_error_exits_1(args, config, tmp_path, capsys):
    # exit 2 is kept for a failed tolerance
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [str(cfg) if a == "CFG" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: triseries")
    assert err.splitlines()[-1].startswith(("triseries: error: ",
                                            "triseries spectrum: error: "))
    assert "Traceback" not in err


def test_only_polytable_takes_a_basis_index(capsys):
    # a case's basis index is derived from its record; polytable's --mu is a
    # family parameter
    for cls in CASE_TYPES.values():
        assert not {"mu", "nu"} & {f.name for f in dataclasses.fields(cls)}
    # no record stores what it derives: Morse's V2, Scarf's box, a series'
    # length, a spectrum's size and threshold
    names = lambda cls: tuple(f.name for f in dataclasses.fields(cls))
    assert names(MorseCase) == ("lam", "V1")
    assert names(ScarfCase) == ("A", "B", "lam")
    assert names(SeriesSolution) == ("f", "spec", "norm_factor")
    assert names(SpectrumResult) == ("levels",)
    p = argparse.ArgumentParser()
    _add_case_flags(p)
    assert [a.option_strings[0] for a in p._actions[1:]] == [
        "--case", "--Z", "--ell", "--omega", "--V1", "--A", "--B", "--lambda"]
    code, out, _ = run_cli(capsys, "polytable", "--family", "meixner", "--mu",
                           "0.7", "--z", "2", "--n-max", "3")
    assert code == 0 and out.count("\n") == 5


# SHA-256 of the default phaseshift tables as written while the basis index
# was a settable field left at its default
@pytest.mark.parametrize("flags, digest", [
    (["morse", "--lambda", "1", "--V1", "1"],
     "208daebfbf7f1b3c66cada3ef602537eb2aca2bd3be3b3889fa996fa827e32fd"),
    (["poschl_teller", "--lambda", "1", "--A", "1", "--B", "-36"],
     "1e9eda5da2b450061c5a3d8061b1f711625cc2aec9bde94abe67aae69b5b0640"),
    (["poschl_teller", "--lambda", "1", "--A", "2", "--B", "3"],
     "929a60972220a1189dcfe689ffc4e67a109d4621b0ca3b8d202f620347bf1766"),
    (["eckart", "--lambda", "1", "--A", "2", "--B", "-20"],
     "bdbf29917a88793b51bb98428e74ebd49e8f2e3e69df6c251992da0e2eb72eeb"),
    # the default grid starts below this threshold, lam B/2 = 0.2
    (["eckart", "--lambda", "0.8", "--A", "-1", "--B", "0.5", "--E-min", "0.25"],
     "d38bd4ba3f4f5dde09a6a7d23089489c0d61bbafbbdb3cf40c815325b9f1fe0a"),
], ids=["morse", "pt-tau2-neg", "pt-tau2-pos", "eckart-bound", "eckart-B-pos"])
def test_default_phase_tables_keep_their_bytes(flags, digest, capsys):
    code, out, err = run_cli(capsys, "phaseshift", "--case", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the default spectrum and wavefunction CSV tables of the six cases
# at the acceptance parameters (the series scale 0.3 for Coulomb and 0.4 for
# the oscillator), as written while Morse's V2 and Scarf's box size were
# settable fields left unset; the Coulomb, oscillator and Scarf wavefunction
# tables as the orthonormal basis recursion writes them
_ACCEPTANCE_FLAGS = {
    "coulomb": ["--Z", "1", "--ell", "0"],
    "oscillator": ["--omega", "1", "--ell", "0"],
    "morse": ["--lambda", "1", "--V1", "1"],
    "poschl_teller": ["--lambda", "1", "--A", "1", "--B", "-36"],
    "scarf": ["--A", "2", "--B", "0.5", "--lambda", "1"],
    "eckart": ["--lambda", "1", "--A", "2", "--B", "-20"],
}


_TABLE_DIGESTS = [
    ("spectrum", "coulomb",
     "76f298e9fba28ca8993cc0fb0592a5bd7c3f45d838c1f80c3e6115e4260538e1"),
    ("spectrum", "oscillator",
     "263b2edf14ab8bc9b89132d71d5747d336b0ded86e5d85e05011a674637229ae"),
    ("spectrum", "morse",
     "1b4f9a0da7f8373721cd06b041761ee4c5cfc353cca8fdc9c8f611195d2247de"),
    ("spectrum", "poschl_teller",
     "26795fe36fd977b0c68b6876fb6ef1ff41768386e6f4519350afad094cd5a1d3"),
    ("spectrum", "scarf",
     "c3eabe8f4a9f1db26cd3f6a8041124caea68c2e6bc35ea2c7a275405f419bfb0"),
    ("spectrum", "eckart",
     "78d8b785ad9f0d22a7869932eff021e3f93f121a18e78d28ef2b87bff55e549b"),
    ("wavefunction", "coulomb",
     "b7a04aac3828edb07eb3b1cab224569d2354722aa03252365f74f5bb869b11eb"),
    ("wavefunction", "oscillator",
     "e0bc77632eab079a662e4248a2b984ef8957e388fbcb6a1d30c0554a5ae29df1"),
    ("wavefunction", "morse",
     "df88a5ab95d6add219f99979ec695f1710872b6edf66f43ba78f635393eb8953"),
    ("wavefunction", "poschl_teller",
     "87bb1c51acf06841f8e76e78edc8c65bc6dae70d789a27dd4835712449344963"),
    ("wavefunction", "scarf",
     "0cd521de811e081194a5acf43f3a5118571c1252375116bd7f8ff3e7bc026329"),
    ("wavefunction", "eckart",
     "6b969a73cd1125a468ac32dacd0ea1b64c4d5a040f902016c8bfc71713d44ca5"),
]


@pytest.mark.parametrize("command, case, digest", _TABLE_DIGESTS,
                         ids=[f"{c}-{k}" for c, k, _ in _TABLE_DIGESTS])
def test_default_level_and_state_tables_keep_their_bytes(command, case, digest,
                                                         capsys):
    scale = {"coulomb": ["--lambda", "0.3"], "oscillator": ["--lambda", "0.4"]}
    extra = scale.get(case, []) if command == "wavefunction" else []
    code, out, err = run_cli(capsys, command, "--case", case,
                             *_ACCEPTANCE_FLAGS[case], *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--case" in capsys.readouterr().out


def test_polytable_wilson_parameter_sum_two(capsys):
    code, out, err = run_cli(capsys, "polytable", "--family", "wilson",
                             "--a", "0.5", "--b", "0.5", "--c", "0.5",
                             "--d", "0.5", "--z", "1", "--n-max", "3")
    assert code == 0, err
    vals = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    ref = values_by_recursion(Wilson(0.5, 0.5, 0.5, 0.5), 1.0, 3)
    assert vals == pytest.approx(list(ref), rel=1e-15)


def test_polytable_overflow_exits_one_with_one_error_line(capsys):
    code, out, err = run_cli(capsys, "polytable", "--family", "meixner",
                             "--mu", "0.7", "--tau", "0.4", "--z", "1e300",
                             "--n-max", "40")
    assert code == 1 and out == ""
    assert err == "error: NonFiniteValue: P_2 is not finite: the forward " \
                  "recursion overflowed or z is not finite\n"


def test_phaseshift_single_energy(capsys):
    code, out, _ = run_cli(capsys, "phaseshift", "--case", "coulomb",
                           "--Z", "1", "--ell", "0", "--E", "0.5")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[1]) == pytest.approx(0.30164, abs=1e-4)


def test_polytable_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "polytable", "--family", "meixner",
                           "--mu", "0.5", "--tau", "0.25", "--z", "3",
                           "--n-max", "0")
    assert code == 0
    assert out.strip().split("\n")[1] == "0,1"


def test_polytable_meixner_pollaczek_mu_defaults_to_a_half(capsys):
    # without --mu, mu = 1/2, as for Meixner
    code, out, err = run_cli(capsys, "polytable", "--family",
                             "meixner_pollaczek", "--theta", "1.1",
                             "--z", "0.5", "--n-max", "6")
    assert code == 0, err
    table = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    expect = values_by_recursion(MeixnerPollaczek(0.5, 1.1), 0.5, 6)
    assert table == expect.tolist()


def test_polytable_wilson_b_defaults_to_a(capsys):
    code, out, err = run_cli(capsys, "polytable", "--family", "wilson",
                             "--a", "0.5", "--c", "0.7", "--d", "0.9",
                             "--z", "2", "--n-max", "3")
    assert code == 0, err
    table = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    expect = values_by_recursion(Wilson(0.5, 0.5, 0.7, 0.9), 2.0, 3)
    assert table == expect.tolist()


def test_match_names_family_and_assignments(capsys):
    code, out, _ = run_cli(capsys, "match", "--equation", "laguerre",
                           "--scenario", "LA", "--a", "0", "--b", "0",
                           "--A-plus", "1.0", "--A-minus", "0",
                           "--A-zero", "2.0")
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert diag["family"] == "meixner_pollaczek"
    assert diag["spectral_map"]["family_value"] == pytest.approx(-1.0)
    assert diag["assignments"]["theta"] == pytest.approx(0.9272952180016123)


def test_determinism_byte_identical(capsys):
    args = ("phaseshift", "--case", "morse", "--V1", "1.0", "--lambda", "1.0",
            "--E-min", "0.2", "--E-max", "3.0", "--n-E", "7",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_config_round_trip(tmp_path, capsys):
    args = ("phaseshift", "--case", "coulomb", "--Z", "1", "--ell", "0",
            "--E", "0.5", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    cfg = tmp_path / "job.json"
    cfg.write_text(out1)
    code, out2, _ = run_cli(capsys, "--config", str(cfg), "phaseshift")
    assert code == 0
    assert out1 == out2


def test_cached_parser_reuse_is_safe(tmp_path, capsys):
    assert build_parser() is build_parser()
    spectrum = ("spectrum", "--case", "oscillator", "--omega", "0.8",
                "--m-max", "1", "--format", "json")
    phase = ("phaseshift", "--case", "eckart", "--A", "2", "--B", "-20",
             "--E-min", "0.1", "--E-max", "4", "--n-E", "9", "--format", "json")
    code, first, _ = run_cli(capsys, *spectrum)
    assert code == 0
    code, phase_out, _ = run_cli(capsys, *phase)
    assert code == 0
    cfg = tmp_path / "phase.json"
    cfg.write_text(phase_out)
    assert run_cli(capsys, "polytable", "--family", "wilson", "--a", "0.5",
                   "--z", "2", "--n-max", "3")[0] == 0
    for bad in (["spectrum"], ["phaseshift", "--case", "nowhere"],
                ["polytable", "--family", "racah", "--z", "1", "--n-max", "x"]):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
    code, last, _ = run_cli(capsys, *spectrum)
    assert code == 0
    assert last == first
    code, replay, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert replay == phase_out


def test_csv_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "polytable", "--family", "meixner_pollaczek",
                           "--mu", "0.5", "--theta", "1.1", "--z", "0.7",
                           "--n-max", "4", "--out", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("n,P_n\n")
    assert text.endswith("\n")
    assert "\r" not in text


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "degeneration")
    assert code == 0
    assert "extended_family_degeneration" in out
    assert "pass" in out


def test_wavefunction_rows(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--case", "oscillator",
                           "--omega", "1", "--ell", "0", "--m", "0",
                           "--r-min", "0.4", "--r-max", "4.0", "--n-r", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,psi"
    assert len(lines) == 6


def test_wavefunction_negative_nu_is_a_typed_error(capsys):
    # the level formula takes nu < 0 here: exit 1 with the error named, not
    # a traceback or an exit 0 with a wrong psi
    code, out, err = run_cli(capsys, "wavefunction", "--case", "scarf",
                             "--A", "0.488", "--B", "0.421", "--lambda",
                             "1.674", "--m", "0")
    assert code == 1 and out == ""
    assert "NoTerminatingIndex" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["coulomb", "oscillator", "morse",
                                  "poschl_teller", "scarf", "eckart"])
def test_negative_level_index_is_a_typed_error(case, capsys):
    for args in (("wavefunction", "--case", case, "--m", "-1"),
                 ("spectrum", "--case", case, "--m-max", "-1")):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert "IndexOutOfSpectrum" in err and "Traceback" not in err


def test_wavefunction_excited_eckart_level_terminates(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--case", "eckart", "--A",
                           "2", "--B", "-20", "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["diagnostics"]["truncation"] == 3


def test_spectrum_level_at_threshold_exits_0(capsys):
    # Poschl-Teller lam=1, A=2, B=-20: level m=1 sits at E = 0, the
    # threshold, so only m=0 is bound
    code, out, err = run_cli(capsys, "spectrum", "--case", "poschl_teller",
                             "--lambda", "1", "--A", "2", "--B", "-20")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,-1,")


def test_polytable_config_replay_keeps_every_flag(tmp_path, capsys):
    args = ("polytable", "--family", "wilson", "--a", "0.5", "--b", "0.6",
            "--c", "0.7", "--d", "0.9", "--z", "2", "--n-max", "3",
            "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    config = json.loads(out1)["config"]
    assert (config["c"], config["d"], config["gamma"]) == (0.7, 0.9, 0.5)
    cfg = tmp_path / "job.json"
    cfg.write_text(out1)
    code, out2, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert out1 == out2


def _smoke_argvs():
    """The argv of every triseries call in the CI smoke block but the
    --config replays, whose argv main composes from the stored config."""
    workflow = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"
    argvs = []
    for line in workflow.read_text().splitlines():
        line = line.strip().removeprefix("code=0; ")
        for part in line.replace("||", "&&").split("&&"):
            words = part.split(" 2>")[0].split()
            if words[:1] == ["triseries"] and "--config" not in words:
                argvs.append(shlex.split(" ".join(words[1:])))
    return argvs


_REQUIRED_ONLY = [
    ["spectrum", "--case", "coulomb"], ["phaseshift", "--case", "morse"],
    ["wavefunction", "--case", "eckart"],
    ["polytable", "--family", "meixner", "--z", "1"], ["verify"],
    ["match", "--equation", "laguerre", "--scenario", "LA", "--a", "0",
     "--b", "0", "--A-plus", "1", "--A-minus", "0", "--A-zero", "2"]]


def test_flag_table_reads_what_argparse_reads(monkeypatch):
    # the same namespace, its items in the same order, as argparse gives; the
    # fast path must take every call here, so argparse's parse is shut off
    # (the smoke block's usage errors and help are argparse's, tested below)
    usage = (["spectrum"], ["spectrum", "--help"],
             ["polytable", "--family", "meixner", "--nu", "0", "--z", "1"])
    argvs = _REQUIRED_ONLY + [a for a in _smoke_argvs() if a not in usage]
    argvs += [["phaseshift", "--case", "eckart", "--B", b]
              for b in ("-5", "-.5", "nan", " 1", "-2e1", "-1e-05", "-5.E+3")]
    argvs.append(["spectrum", "--case", "coulomb", "--Z", "2", "--case",
                  "oscillator", "--Z", "3"])
    assert len(argvs) > 40
    expect = [repr(vars(build_parser().parse_args(a))) for a in argvs]
    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_args", None)
        assert [repr(vars(_parse(a))) for a in argvs] == expect


def _outcome(capsys, call, args):
    try:
        code = call(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argparse_alone(args):
    ns = build_parser().parse_args(args)
    return ns.func(ns)


@pytest.mark.parametrize("args", [
    ["-h"], ["spectrum", "--help"],
    ["phaseshift", "--case", "morse", "--lam", "0.3", "--E", "1"],
    ["phaseshift", "--case", "eckart", "--A", "2", "--B=-3", "--E", "1"],
    ["spectrum", "--case", "coulomb", "--ell", "1.5"],
    ["spectrum", "--case", "nowhere"], ["spectrum", "--Z", "1"],
    ["spectrum", "--case", "coulomb", "--Z"],
    ["spectrum", "--case", "--Z", "1"],
    ["spectrum", "--case", "coulomb", "--n-max", "3"],
], ids=["help", "spectrum-help", "abbreviation", "equals", "bad-type",
        "bad-choice", "missing-case", "trailing-flag", "flag-as-value",
        "polytable-flag"])
def test_call_the_table_does_not_read_is_argparses(args, capsys):
    # help, usage errors and every call outside --flag value pairs of the
    # command's own flags end as build_parser().parse_args alone ends them
    assert _outcome(capsys, main, args) == _outcome(capsys, _argparse_alone,
                                                    args)


@pytest.mark.parametrize("extra", [[], ["--lam", "1"]],
                         ids=["table", "argparse"])
def test_negative_number_in_scientific_notation_is_a_value(extra, capsys):
    args = ["phaseshift", "--case", "eckart", "--A", "2", "--E", "1"] + extra
    assert run_cli(capsys, *args, "--B", "-2e1") == run_cli(capsys, *args,
                                                             "--B", "-20")


def test_negative_exponent_value_replays(tmp_path, capsys):
    # the config stores B as -1e-05, which the replay passes back as "-1e-05"
    first, again = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "phaseshift", "--case", "poschl_teller", "--B",
                   "-0.00001", "--E", "1", "--format", "json", "--out",
                   str(first))[0] == 0
    assert json.loads(first.read_text())["config"]["B"] == -1e-05
    assert run_cli(capsys, "--config", str(first), "--out", str(again)) == (
        0, "", "")
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("flags, expect", [
    (["coulomb", "--Z", "2", "--ell", "1", "--lambda", "0.5"],
     CoulombCase(Z=2.0, ell=1, lam=0.5)),
    (["oscillator", "--omega", "0.7", "--ell", "2", "--lambda", "0.4"],
     OscillatorCase(omega=0.7, ell=2, lam=0.4)),
    (["morse", "--V1", "1.1", "--lambda", "1.5"],
     MorseCase(lam=1.5, V1=1.1)),
    (["poschl_teller", "--A", "2", "--B", "-20"],
     PoschlTellerCase(lam=1.0, A=2.0, B=-20.0)),
    (["scarf", "--A", "2", "--B", "0.5", "--lambda", "1.2"],
     ScarfCase(A=2.0, B=0.5, lam=1.2)),
    (["eckart", "--A", "-1", "--B", "-30", "--lambda", "0.8"],
     EckartCase(lam=0.8, A=-1.0, B=-30.0)),
], ids=["coulomb", "oscillator", "morse", "poschl_teller", "scarf-lambda",
        "eckart"])
def test_build_case_equals_direct_construction(flags, expect):
    ns = build_parser().parse_args(["spectrum", "--case"] + flags)
    assert _build_case(ns) == expect


# every float field of every case record, as (case, field)
_FLOAT_FIELDS = [(name, f.name) for name, cls in sorted(CASE_TYPES.items())
                 for f in dataclasses.fields(cls) if f.name != "ell"]


@pytest.mark.parametrize("case, field", _FLOAT_FIELDS,
                         ids=[f"{c}-{f}" for c, f in _FLOAT_FIELDS])
def test_non_finite_case_field_exits_1(case, field, capsys):
    flag = "--lambda" if field == "lam" else f"--{field}"
    for value in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "spectrum", "--case", case,
                                 f"{flag}={value}")
        assert (code, out) == (1, ""), (value, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{field} must be finite" in err
        assert "Traceback" not in err


# commands whose JSON and CSV outputs the writer tests cover; match writes
# JSON only
_WRITER_COMMANDS = {
    "spectrum": ["spectrum", "--case", "coulomb", "--m-max", "2"],
    "phaseshift-200": ["phaseshift", "--case", "morse", "--V1", "1",
                       "--E-min", "0.1", "--E-max", "5", "--n-E", "200"],
    "phaseshift-0": ["phaseshift", "--case", "eckart", "--A", "2", "--B", "-20",
                     "--n-E", "0"],
    "phaseshift-1": ["phaseshift", "--case", "coulomb", "--E", "0.7"],
    "wavefunction-0": ["wavefunction", "--case", "oscillator", "--n-r", "0"],
    "wavefunction-37": ["wavefunction", "--case", "coulomb", "--n-r", "37"],
    "polytable-0": ["polytable", "--family", "meixner", "--z", "-0.5",
                    "--n-max", "0"],
    "polytable-40": ["polytable", "--family", "meixner", "--mu", "0.7",
                     "--tau", "0.4", "--z", "-1.2", "--n-max", "40"],
    "polytable-200": ["polytable", "--family", "wilson", "--a", "0.5",
                      "--b", "0.9", "--c", "1.3", "--d", "0.7", "--z", "2.5",
                      "--n-max", "200"],
    "verify-matches": ["verify", "--suite", "matches"],
    "match": ["match", "--equation", "laguerre", "--scenario", "LA",
              "--a", "0", "--b", "0", "--A-plus", "1.0", "--A-minus", "0",
              "--A-zero", "2.0"],
}


@pytest.mark.parametrize("name", sorted(_WRITER_COMMANDS))
def test_json_output_is_json_dumps_indent_2(name, capsys):
    code, out, err = run_cli(capsys, *_WRITER_COMMANDS[name], "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


@pytest.mark.parametrize("name", sorted(set(_WRITER_COMMANDS) - {"match"}))
def test_csv_output_is_the_json_cells_at_17_digits(name, capsys):
    # CSV: the header, then each row's cells in header order, floats with
    # 17 significant digits, integers and strings as they are
    args = _WRITER_COMMANDS[name]
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    header = out.split("\n", 1)[0].split(",")
    lines = [",".join(header)] + [
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                 for v in (row[k] for k in header))
        for row in json.loads(out_json)["rows"]]
    assert out == "\n".join(lines) + "\n"


def test_emit_json_equals_json_dumps_of_row_dicts(capsys):
    header = ["value", "label", "count", "%s"]
    rows = [(math.nan, 'a "quoted" \u00e9t\u00e9', np.int64(7), 1.5),
            (math.inf, "plain", 3, np.float64(0.1)),
            (-math.inf, "", np.int64(-2), 2),
            (np.float64(1e-310), "\u2603, \\ / \t", 12345678901234567890, -0.0),
            (0.25, "nul \x00, bell \x07, \x1f\n\r, ", 0, 1e300)]
    config = {"command": "test", "zeta": 1, "alpha": None,
              "note": "a\x00b, c\x01\x1b", "%d": 0.1}
    diagnostics = {"ok": True, "nested": {"b": 1, "a": [1, 2]},
                   "text": "x\x00\ny"}
    # every row; a header that repeats a name, whose last column wins as in
    # dict(zip(...)); and a table with no rows
    for head, table in ((header, rows), (["x", "label", "x"], rows),
                        (header, [])):
        columns = ([list(col) for col in zip(*table)] if table
                   else [[] for _ in head])
        _emit(config, head, columns, diagnostics, "json", None)
        out = capsys.readouterr().out
        cells = [[v if isinstance(v, str) else
                  int(v) if isinstance(v, (int, np.integer)) else float(v)
                  for v in row[:len(head)]] for row in table]
        expect = json.dumps({"config": config, "diagnostics": diagnostics,
                             "rows": [dict(zip(head, row)) for row in cells]},
                            sort_keys=True, indent=2, default=str) + "\n"
        assert out == expect


def test_level_outside_the_box_is_a_typed_error(capsys):
    # Eckart lam=1, A=2, B=-16.15: level 2 decays over 1/kappa = 53, longer
    # than the oracle's box of 50
    code, out, err = run_cli(capsys, "spectrum", "--case", "eckart",
                             "--lambda", "1", "--A", "2", "--B", "-16.15")
    assert (code, out) == (1, "")
    assert err.startswith("error: BoxTooSmall: only 2 eigenvalues below hi=")


def test_spectrum_json_reports_the_fd_node_counts(capsys):
    args = ("spectrum", "--case", "coulomb", "--m-max", "2")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    mesh = CoulombCase(Z=1.0).fd_mesh(3)
    assert json.loads(out)["diagnostics"]["fd_nodes"] == [
        mesh.nodes().size, mesh.halved().nodes().size]
    code, csv, _ = run_cli(capsys, *args)
    assert csv.count("\n") == 4 and "fd_nodes" not in csv


def test_poschl_teller_shallow_top_level_passes_the_gate(capsys):
    # B in (-34.8, -32] raised MeshTooCoarse on the uniform mesh
    for b in ("-34.7", "-33", "-32"):
        code, out, err = run_cli(capsys, "spectrum", "--case", "poschl_teller",
                                 "--lambda", "1", "--A", "1", "--B", b,
                                 "--format", "json")
        assert code == 0, (b, err)
        assert json.loads(out)["diagnostics"]["within_tolerance"] is True


def test_spectrum_fails_when_the_oracle_does_not_tell_levels_apart(
        capsys, monkeypatch):
    # Scarf A = 1e8: the oracle prints one value for m = 1 and m = 2, each
    # within 3e-8 of its formula level but nearer the m = 0 formula level
    args = ("spectrum", "--case", "scarf", "--A", "1e8", "--lambda", "1")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["diagnostics"]["within_tolerance"] is False
    e_fd = [row["E_oracle"] for row in doc["rows"]]
    assert e_fd[1] == e_fd[2]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (2, "") and out.count("\n") == 4
    # two equal oracle levels midway between their distinct formula levels
    # lie nearest neither other level, and still fail
    levels = [triseries.physics.bound_energy(CoulombCase(Z=1.0), m) for m in range(3)]
    mid = 0.5 * (levels[1] + levels[2])
    monkeypatch.setattr(triseries.physics, "fd_oracle",
                        lambda *a, **k: np.array([levels[0], mid, mid]))
    args = ("spectrum", "--case", "coulomb", "--m-max", "2", "--tol", "10")
    assert run_cli(capsys, *args)[0] == 2
    monkeypatch.setattr(triseries.physics, "fd_oracle",
                        lambda *a, **k: np.array([levels[0], mid, levels[2]]))
    assert run_cli(capsys, *args)[0] == 0


@pytest.mark.parametrize("args, field, value", [
    (("--lambda", "1e300"), "lam", "1e+300"),
    (("--lambda", "3.141592653589793e300"), "lam", "3.141592653589793e+300"),
    (("--lambda", "1.35e154"), "lam", "1.35e+154"),
])
def test_scarf_scale_past_its_level_energy_range_is_named(args, field, value,
                                                         capsys):
    # the level energies take lam^2, which overflows from lam = 1.35e154 on
    for command in ("spectrum", "wavefunction"):
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, command, "--case", "scarf", *args,
                                     "--format", fmt)
            assert (code, out) == (1, ""), err
            assert err.count("\n") == 1 and "OverflowError" not in err
            assert f"scarf: {field} = {value} is out of range" in err, err
    assert ScarfCase(A=2.0, B=0.5, lam=1.34e154).lam == 1.34e154


@pytest.mark.parametrize("args, error", [
    (("wavefunction", "--case", "eckart", "--A", "2", "--B", "-20"),
     "OverflowError"),
    (("spectrum", "--case", "oscillator"), "OverflowError"),
    (("phaseshift", "--case", "poschl_teller", "--E", "1"), "OverflowError"),
])
def test_arithmetic_fault_is_one_error_line(args, error, monkeypatch, capsys):
    # an overflow or a division by zero in a case or family formula exits 1
    # with one line, as a typed error does; no record admits a field whose
    # formulas fault, so the case's formulas are made to
    def fault(*_args, **_kwargs):
        raise OverflowError("math range error")

    formula = "phase" if args[0] == "phaseshift" else "level_energy"
    monkeypatch.setattr(CASE_TYPES[args[2]], formula, fault)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, ""), err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, out) == (1, ""), err
    assert json.loads(err)["diagnostics"]["error"] == error


# calls whose level formulas faulted before wavefunction asked the spectrum
# for the level; spectrum gives the same answer
@pytest.mark.parametrize("args, error", [
    (("poschl_teller", "--lambda", "1e300"), "NoBoundStates"),
    (("poschl_teller", "--lambda", "1e-300"), "NoBoundStates"),
    (("poschl_teller", "--A", "1e300"), "NoBoundStates"),
    (("poschl_teller", "--A", "1", "--B", "5"), "NoBoundStates"),
    (("eckart", "--A", "1e300"), "NoBoundStates"),
    (("eckart", "--B", "1e300"), "NoBoundStates"),
    (("eckart", "--lambda", "1e-300"), "NoBoundStates"),
    (("morse", "--m", "2"), "IndexOutOfSpectrum"),
], ids=["pt-lam-huge", "pt-lam-tiny", "pt-A-huge", "pt-B-5", "eckart-A-huge",
        "eckart-B-huge", "eckart-lam-tiny", "morse-m-2"])
def test_level_the_spectrum_does_not_hold_is_a_typed_error(args, error, capsys):
    commands = ["wavefunction"] + (["spectrum"] if error == "NoBoundStates"
                                   else [])
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "--case", *args)
        assert (code, out, caught) == (1, "", [])
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err


# every case command x each case field x {0, -1, 1e300, 1e-300} (ell, an
# integer, at 0 and -1 only): 192 calls
_FIELD_GRID = [(command, case, field.name, value)
               for command in ("spectrum", "phaseshift", "wavefunction")
               for case, cls in sorted(CASE_TYPES.items())
               for field in dataclasses.fields(cls)
               for value in (("0", "-1") if field.name == "ell"
                             else ("0", "-1", "1e300", "1e-300"))]


@pytest.mark.parametrize("command, case, field, value", _FIELD_GRID,
                         ids=["-".join(call) for call in _FIELD_GRID])
def test_field_grid_call_ends_cleanly(command, case, field, value, capsys):
    # a call prints its table (exit 0, or exit 2 when its own check fails) or
    # ends in one error line (exit 1), with no traceback and no warning
    flag = "--lambda" if field == "lam" else f"--{field}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command, "--case", case, flag, value)
    assert caught == [], [str(w.message) for w in caught]
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 2) and out and err == "", (code, err)


# the CI match replay of each scenario, with each of its numeric fields set
# to each of nine values: 279 calls
_MATCH_SETS = {
    "LA": ("laguerre", {"a": "0.3", "b": "0.4", "A-plus": "-0.9",
                        "A-minus": "-0.6", "A-zero": "1.7"}),
    "LB": ("laguerre", {"a": "1.3", "b": "0.6", "A-plus": "-0.16",
                        "A-minus": "0.7", "A-zero": "0.9", "free-value": "1.4"}),
    "JA": ("jacobi", {"a": "0.4", "b": "0.7", "A-plus": "-1.1", "A-minus": "-0.8",
                      "A-zero": "-3.595113879324", "A-one": "2.3"}),
    "JB": ("jacobi", {"a": "0.5", "b": "0.8", "A-plus": "1.2", "A-minus": "-0.9",
                      "A-zero": "1.1", "A-one": "0", "free-value": "0.9"}),
    "JC": ("jacobi", {"a": "0.8", "b": "0.5", "A-plus": "-0.9", "A-minus": "1.2",
                      "A-zero": "1.1", "A-one": "0", "free-value": "0.9"}),
}
_MATCH_GRID = [(scenario, field, value)
               for scenario, (_, fields) in _MATCH_SETS.items()
               for field in fields
               for value in ("0", "-1", "1e300", "-1e300", "1e-300", "1e305",
                             "-1e305", "nan", "inf")]


def _refused_by_name(scenario, field, value):
    """The grid calls whose field the record refuses by name: a square the
    scenario's formulas take overflows, or the free value is not finite."""
    if value in ("nan", "inf"):
        return field == "free-value"
    squared = {"LA": ("a",), "JA": ("a", "b", "A-one")}.get(scenario, ("a", "b"))
    return value.lstrip("-") in ("1e300", "1e305") and field in squared


@pytest.mark.parametrize("scenario, field, value", _MATCH_GRID,
                         ids=["-".join(call) for call in _MATCH_GRID])
def test_match_field_grid_call_ends_cleanly(scenario, field, value, capsys):
    # a match prints finite JSON (exit 0) or ends in one error line (exit 1),
    # with no traceback and no warning; an out-of-range field is named
    equation, fields = _MATCH_SETS[scenario]
    args = [token for key, text in {**fields, field: value}.items()
            for token in (f"--{key}", text)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "match", "--equation", equation,
                                 "--scenario", scenario, *args)
    assert caught == [], [str(w.message) for w in caught]
    if _refused_by_name(scenario, field, value):
        named = f"error: {field.replace('-', '_')} = {float(value)!r} "
        assert code == 1 and err.startswith(named), err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", (code, err)
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))


@pytest.mark.parametrize("args, line", [
    (("spectrum", "--case", "coulomb", "--Z", "1e300"),
     "error: coulomb: Z = 1e+300 is out of range: the level energies "
     "-Z^2/(2 n^2) overflow\n"),
    (("spectrum", "--case", "morse", "--lambda", "1e-300"),
     "error: morse: lam = 1e-300 is out of range: lam^2 is not a normal "
     "float\n"),
    (("polytable", "--family", "dual_hahn", "--tau", "1e300", "--z", "1",
      "--n-max", "3"),
     "error: InvalidFamilyParams: dual Hahn needs (tau + sigma + 1)^2 "
     "finite, got tau = 1e+300, sigma = 0.5\n"),
    # Eckart's basis index nu = 2A/lam - 1 must stay above -1
    (("phaseshift", "--case", "eckart", "--A", "1e-300", "--E", "1"),
     "error: eckart: A = 1e-300 is out of range for lam = 1.0: nu = 2A/lam - 1 "
     "rounds to -1\n"),
])
def test_out_of_range_field_is_named(args, line, capsys):
    # the record refuses a field whose derived quantity would overflow or
    # divide by zero, and the one error line names the field and its value
    assert run_cli(capsys, *args) == (1, "", line)


_HUGE_N = "1" * 401


@pytest.mark.parametrize("args, field, value", [
    (("polytable", "--family", "krawtchouk", "--N", _HUGE_N), "N", _HUGE_N),
    (("polytable", "--family", "dual_hahn", "--N", _HUGE_N), "N", _HUGE_N),
    (("polytable", "--family", "racah", "--N", _HUGE_N), "N", _HUGE_N),
    (("spectrum", "--case", "morse", "--V1", "1e300"), "V1", "1e+300"),
    (("spectrum", "--case", "scarf", "--A", "1e300"), "A", "1e+300"),
    (("wavefunction", "--case", "oscillator", "--lambda", "1e-300"), "lam",
     "1e-300"),
    (("wavefunction", "--case", "coulomb", "--lambda", "1e300"), "lam",
     "1e+300"),
    (("wavefunction", "--case", "coulomb", "--lambda", "1e-160"), "lam",
     "1e-160"),
    (("wavefunction", "--case", "coulomb", "--lambda", "1e-300"), "lam",
     "1e-300"),
    (("wavefunction", "--case", "oscillator", "--omega", "1e300"), "omega",
     "1e+300"),
], ids=["krawtchouk-N", "dual_hahn-N", "racah-N", "morse-V1", "scarf-A",
        "oscillator-lam", "coulomb-lam-huge", "coulomb-lam-1e-160",
        "coulomb-lam-tiny", "oscillator-omega"])
def test_field_the_record_cannot_hold_is_named(args, field, value, capsys):
    # a field past what the record's formulas can hold is refused by the
    # record, in one line naming the field and its value, not by an
    # arithmetic fault
    if args[0] == "polytable":
        args += ("--z", "1", "--n-max", "3")
    for fmt in ("csv", "json"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *args, "--format", fmt)
        assert (code, out, caught) == (1, "", [])
        assert err.count("\n") == 1 and f"{field} = {value} " in err, err
        assert "OverflowError" not in err and "ZeroDivision" not in err, err
        if fmt == "json":
            diag = json.loads(err)["diagnostics"]
            assert f"{field} = {value} " in diag["message"]


# Coulomb's basis scale enters as lam^2 (the discrete family's edge
# -lam^2/8) and 1/lam^2 (A_plus = 2E/lam^2); each bound is the last float at
# which that square stays finite, and the call just inside it still prints
@pytest.mark.parametrize("lam, kept", [
    (1.3407807929942596e154, True), (7.458340731200208e-155, True),
    (math.nextafter(1.3407807929942596e154, math.inf), False),
    (math.nextafter(7.458340731200208e-155, 0.0), False),
], ids=["huge-kept", "tiny-kept", "huge-refused", "tiny-refused"])
def test_coulomb_lam_is_refused_where_its_squares_overflow(lam, kept, capsys):
    square = lam * lam
    assert kept == (math.isfinite(square) and math.isfinite(1.0 / square))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "phaseshift", "--case", "coulomb",
                                 "--lambda", repr(lam), "--E", "1")
    assert caught == []
    if kept:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out, err) == (1, "", f"error: coulomb: lam = {lam} is out "
                                    f"of range: lam^2 or 1/lam^2 is not finite\n")


# Scarf fields whose derived quantities overflow, each bound measured: the
# bound series' Jacobi measure 2^(mu + nu + 1) from A/lam = 512.5, |B|/lam =
# 512 or A/lam = -511.5 on, and the FD polish from |A| + |B| = 7.86e84
# min(1, lam)^2 on; the calls just inside either bound still print their tables
@pytest.mark.parametrize("args, field, value", [
    (("wavefunction", "--A", "1e150"), "A", "1e+150"),
    (("spectrum", "--A", "1e150"), "A", "1e+150"),
    (("wavefunction", "--A", "1000"), "A", "1000.0"),
    (("wavefunction", "--B", "1000"), "B", "1000.0"),
    (("wavefunction", "--A", "512.5"), "A", "512.5"),
    (("wavefunction", "--B", "512"), "B", "512.0"),
    (("wavefunction", "--B", "-1000"), "B", "-1000.0"),
    (("wavefunction", "--B", "-512"), "B", "-512.0"),
    (("wavefunction", "--B", "-1e150"), "B", "-1e+150"),
    (("wavefunction", "--A", "-511.5"), "A", "-511.5"),
    (("spectrum", "--lambda", "1e-10", "--A", "1", "--B", "7.9e64"), "B",
     "7.9e+64"),
    (("spectrum", "--A", "5e84", "--B", "5e84"), "A", "5e+84"),
    (("spectrum", "--A", "1000"), None, None),
    (("wavefunction", "--A", "512.49"), None, None),
    (("wavefunction", "--B", "511.99"), None, None),
    (("wavefunction", "--B", "-511.99"), None, None),
    (("wavefunction", "--A", "-511.49"), None, None),
    (("spectrum", "--lambda", "1e-10", "--A", "1", "--B", "7.7e64"), None, None),
    # the FD operator's off-diagonals square past the float range above
    # lam = 6.43e73, and the FD polish's iterates can below lam = 1e-69
    (("spectrum", "--lambda", "1e152"), "lam", "1e+152"),
    (("spectrum", "--lambda", "1e154"), "lam", "1e+154"),
    (("spectrum", "--lambda", "1.3e154"), "lam", "1.3e+154"),
    (("spectrum", "--lambda", "6.44e73"), "lam", "6.44e+73"),
    (("spectrum", "--A", "0", "--lambda", "3.141592653589793e-200"), "lam",
     "3.141592653589793e-200"),
    (("spectrum", "--A", "0", "--B", "0", "--lambda", "1e-75"), "lam", "1e-75"),
    (("spectrum", "--A", "0", "--B", "0", "--lambda", "9.999999999999998e-70"),
     "lam", "9.999999999999998e-70"),
    (("spectrum", "--A", "0", "--B", "0", "--lambda", "1e-69"), None, None),
], ids=["wavefunction-A-1e150", "spectrum-A-1e150", "wavefunction-A-1000",
        "wavefunction-B-1000", "wavefunction-A-edge", "wavefunction-B-edge",
        "wavefunction-B-minus-1000", "wavefunction-B-minus-edge",
        "wavefunction-B-minus-1e150", "wavefunction-A-minus-edge",
        "spectrum-B-edge", "spectrum-A-plus-B", "spectrum-A-1000-kept", "wavefunction-A-kept",
        "wavefunction-B-kept", "wavefunction-B-minus-kept", "wavefunction-A-minus-kept", "spectrum-B-kept", "spectrum-lam-1e152",
        "spectrum-lam-1e154", "spectrum-lam-1.3e154", "spectrum-lam-edge",
        "spectrum-lam-pi-1e-200", "spectrum-lam-1e-75",
        "spectrum-lam-below-polish-edge", "spectrum-lam-polish-edge-kept"])
def test_scarf_field_past_its_derived_range_is_named(args, field, value, capsys):
    args = (args[0], "--case", "scarf", *args[1:])
    for fmt in ("csv", "json"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *args, "--format", fmt)
        assert caught == []
        if field is None:
            assert (code, err) == (0, "") and out
            continue
        assert (code, out) == (1, ""), err
        assert err.count("\n") == 1 and f"scarf: {field} = {value} " in err, err
        if fmt == "json":
            diag = json.loads(err)["diagnostics"]
            assert f"{field} = {value} " in diag["message"]


@pytest.mark.parametrize("args, message", [
    (("--lambda", "-1"), "scale lam must be > 0"),
    (("--Z", "1e300"), "coulomb: Z = 1e+300 is out of range: the level "
                       "energies -Z^2/(2 n^2) overflow"),
])
def test_record_refusal_is_one_json_line(args, message, capsys):
    # under --format json a record's ValueError is written as a typed
    # error's diagnostics line is
    code, out, err = run_cli(capsys, "spectrum", "--case", "coulomb", *args,
                             "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err.splitlines()[-1]) == {
        "diagnostics": {"error": "ValueError", "message": message}}


def _family_float_fields():
    ns = build_parser().parse_args(["polytable", "--family", "meixner", "--z", "1"])
    return [(family, f.name) for family, build in sorted(_FAMILY_BUILDERS.items())
            for f in dataclasses.fields(build(ns)) if f.type != "int"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family, field", _family_float_fields())
def test_non_finite_family_field_is_named(family, field, value, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "polytable", "--family", family,
                                 f"--{field}={value}", "--z", "1", "--n-max", "3")
    assert (code, out, caught) == (1, "", [])
    assert err == (f"error: InvalidFamilyParams: {family}: {field} must be "
                   f"finite, got {float(value)}\n")


def test_non_finite_phase_shift_is_a_typed_error(capsys):
    # lambda = 1e-300 makes Eckart's phase nan; nothing is printed for it and
    # no numpy warning escapes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "phaseshift", "--case", "eckart",
                                 "--lambda", "1e-300", "--E", "1")
    assert (code, out, caught) == (1, "", [])
    assert err == ("error: NonFiniteValue: eckart: the phase shift at E=1.0 "
                   "is not finite\n")


@pytest.mark.parametrize("v1, m, first", [(40, 0, 8.989795918367347),
                                          (40, 3, 9.393877551020408),
                                          (60, 0, 6.2875)])
def test_non_finite_wavefunction_is_a_typed_error(v1, m, first, capsys):
    # a deep Morse well puts the state where x^alpha overflows: psi is inf
    # or nan there, which is refused at its first r rather than printed
    grid = ("--r-min", "0.1", "--r-max", "10", "--n-r", "9") if v1 == 60 else ()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "wavefunction", "--case", "morse",
                                 "--lambda", "1", "--V1", str(v1), "--m", str(m),
                                 *grid)
    assert (code, out, caught) == (1, "", [])
    assert err == (f"error: NonFiniteValue: morse: psi at r={first!r} "
                   "is not finite\n")


def test_cli_import_leaves_the_quadrature_stack_out():
    # a fresh CLI process loads neither scipy.integrate nor the optimize and
    # sparse packages it pulls in, also after the weight suite has run
    code = ("import sys, triseries.cli\n"
            "triseries.cli.build_parser()\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.sparse')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "triseries.verify.weight_suite()\n"
            "print([m for m in heavy if m in sys.modules])\n")
    src = str(Path(triseries.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.mark.parametrize("args", [
    ("--case", "coulomb", "--Z", "1e-75"),
    ("--case", "oscillator", "--omega", "1e-150"),
    ("--case", "eckart", "--lambda", "1e-72", "--A", "2e-72", "--B", "-2e-71"),
], ids=["coulomb-Z-1e-75", "oscillator-omega-1e-150", "eckart-lambda-1e-72"])
def test_fd_polish_sends_an_overflowing_iterate_to_bisection(args, capsys):
    # at these operator norms a Rayleigh shift can sit within ~1e-154 of a
    # level, so the iterate's squared norm overflows; the levels then come
    # from the full bisection, with no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "spectrum", *args)
    assert (code, err, caught) == (0, "", [])
    for row in out.strip().split("\n")[1:]:
        _, formula, oracle, _ = map(float, row.split(","))
        assert abs(oracle - formula) <= 2e-9 * abs(formula)
