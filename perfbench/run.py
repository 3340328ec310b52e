"""triseries benchmark: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16
    python3 perfbench/run.py --selfcheck --seed 1

One client in one process runs ops back to back (closed loop) on the
program built from ``src/`` of this checkout.  ``--trace 0`` runs as many
rounds of the seed's ops (at least two) as took ``--seconds`` on the
baseline program and reports the end-to-end metrics; ``--trace 1`` runs a
smaller fixed list of rounds twice, untraced then traced, and reports the
per-layer metrics.
Both op lists depend on the seed only, so counts repeat exactly.  Every
time reported is CPU time scaled to the reference host speed by the
calibration kernel of ``calibrate.py``, timed before, during and after each
op; the report prints the wall times as measured beside them.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--workload all`` runs every workload, untraced and traced, each in its own
fresh process, and prints every metric.  ``--selfcheck`` runs each traced
workload twice and checks that the exact counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# One client, at most two threads: cap the BLAS/OpenMP pools before numpy
# is imported here or in any child.
THREAD_CAP = "2"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

from calibrate import SpeedSampler, cpu_seconds, speed  # noqa: E402  (numpy only after the cap)
from spans import Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, CheckFailed, rounds  # noqa: E402

SETUP_PROBES = 3

# Seconds of a run given to one round: about the wall time a round took,
# checks included, on the baseline program (the source tree this benchmark
# was added to) on a 2-core Intel Xeon with Python 3.11.  verify gets less
# than its 1.6 s so that a run holds 70 ops: with 60, the 11th-slowest op
# falls out of the slowest cluster of pairs (a quarter of the ops) in about
# one run in eleven, with 70 in one in thirty.  sweeps gets more than its
# 0.3-0.4 s, so that all runs of the four workloads fit the time budget.
# A run does round(--seconds / ROUND_SECONDS) rounds, and at least
# MIN_ROUNDS, the fewest that hold every spectrum input: a fixed count, not
# a deadline, so every run of a seed times the same ops, and the tail
# percentile (which depends on the op count) is the same in every run.
ROUND_SECONDS = {"spectrum": 17.0, "series": 7.0, "verify": 1.15, "sweeps": 0.55}
MIN_ROUNDS = 2
# Rounds in a traced run (see workloads.py for what a round holds).
TRACE_ROUNDS = {"spectrum": 1, "series": 1, "verify": 5, "sweeps": 30}
EXACT_COUNTS = ("basis.poly_steps", "eigensolve.sturm_pivots",
                "physics.fd_oracle.nodes", "recurrence.terms",
                "verify.closed_form_hp.calls")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def import_program():
    """Import triseries from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "triseries" / "__init__.py").is_file():
        fail(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import triseries
    import triseries.cli  # noqa: F401  (cli also pulls in physics, verify)
    if Path(triseries.__file__).resolve().parent != (src / "triseries").resolve():
        fail(f"imported triseries from {triseries.__file__}, not {src}")


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "thread_cap": int(THREAD_CAP)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(n: int = SETUP_PROBES) -> tuple:
    """Seconds from launching a fresh interpreter until triseries, its CLI
    module and the argument parser are ready, n times: (the probe's CPU time
    scaled to the reference host speed, wall time as measured).  Each probe
    samples the speed of its core (calibrate.py) while it sets up and once
    it is ready."""
    scaled, raw = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=str(ROOT), text=True)
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        # read the rest through the same buffered reader: readline() may
        # already hold it, and communicate() would not see that
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed: {err.strip()[-300:]}")
        pace = json.loads(out)
        scaled.append((pace["cpu"] - pace["spent"]) * statistics.fmean(pace["speeds"]))
        raw.append(dt)
    return scaled, raw


class Outcome:
    __slots__ = ("op", "seconds", "wall", "error", "defect", "speed")

    def __init__(self, op, seconds, wall, error=None, defect=None):
        self.op, self.seconds, self.wall = op, seconds, wall
        self.error, self.defect = error, defect
        self.speed = 1.0   # mean host speed during the op (calibrate.py)

    @property
    def scaled(self) -> float:
        """CPU seconds the op would take on the reference host speed."""
        return self.seconds * self.speed


def execute(op, sampler, tracer=None, index=0) -> Outcome:
    """Run one op, timed in CPU seconds less the speed samples taken during
    it and in wall seconds, then check its output (untimed)."""
    if tracer is not None:
        tracer.op = index
    raised = None
    sampler.start()
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        result = op.run()
    except Exception as exc:   # the op failed; record it and keep going
        raised = exc
    finally:
        sampler.stop()
        cpu, wall = cpu_seconds() - c0 - sampler.spent, time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
    if raised is not None:   # no known defect raises out of an op
        return Outcome(op, cpu, wall, f"{type(raised).__name__}: {raised}"[:200])
    try:
        op.check(result)
    except CheckFailed as exc:
        return Outcome(op, cpu, wall, f"CheckFailed: {exc}", exc.defect)
    except Exception as exc:   # output too malformed to check
        return Outcome(op, cpu, wall,
                       f"check raised {type(exc).__name__}: {exc}"[:200])
    return Outcome(op, cpu, wall)


def run_ops(ops, tracer=None) -> list:
    """Run ops back to back.  The host speed is measured before the first op,
    after every op and every ``SAMPLE_INTERVAL_S`` during one; an op's speed
    is the mean of the measurements before, during and after it."""
    outcomes = []
    sampler = SpeedSampler()
    before = speed()
    for i, op in enumerate(ops):
        o = execute(op, sampler, tracer, i)
        after = speed()
        o.speed = statistics.fmean([before, *sampler.samples, after])
        before = after
        outcomes.append(o)
    return outcomes


def fixed_ops(workload: str, seed: int, n_rounds: int) -> list:
    """The first ``n_rounds`` rounds of a seed, generated before any op runs
    (and so before any tracing starts)."""
    gen = rounds(workload, seed)
    return [op for _ in range(n_rounds) for op in next(gen)]


def tail(latencies: list):
    """(value, percentile, samples beyond): the highest percentile that has
    at least ten samples beyond it.  Below 20 ops that percentile would lie
    at or below the median, so the maximum stands in for it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def summarize(outcomes: list) -> dict:
    failed = [o for o in outcomes if o.error]
    unexpected = [o for o in failed if o.defect not in KNOWN_DEFECTS]
    return {"attempted": len(outcomes), "failed": len(failed),
            "failures": failed, "outcomes": outcomes,
            "correct": not unexpected and bool(outcomes)}


def end_to_end(outcomes: list, setup: tuple) -> tuple:
    timed = [o for o in outcomes if o.op.timed]
    lat = [o.scaled for o in timed]
    raw = [o.wall for o in timed]
    t_val, t_pct, t_beyond = tail(lat)
    scaled_setup, raw_setup = setup
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * t_val, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"setup_s": "median of " + ", ".join(f"{s:.3f}" for s in scaled_setup)
                        + f"; wall as measured {statistics.median(raw_setup):.3f} s",
             "ops_per_s": f"wall as measured {len(raw) / sum(raw):.6g} 1/s",
             "op_p50_ms": f"wall as measured {1e3 * statistics.median(raw):.6g} ms",
             "op_tail_ms": f"p{t_pct:.1f} of {len(lat)} ops, "
                           f"{t_beyond} beyond; wall as measured "
                           f"{1e3 * tail(raw)[0]:.6g} ms"}
    return metrics, notes


def per_layer(tr, traced: list, untraced: list) -> dict:
    c = tr.counters
    pts = c["solve.ode_residual.points"]
    terms = c["solve.terms"]
    failed = sum(1 for o in traced if o.error)
    return {
        "eigensolve.self_s": (tr.module_self_s("eigensolve"), "s"),
        "eigensolve.sturm_counts.calls": (tr.calls_of("eigensolve.sturm_counts"), "count"),
        "eigensolve.sturm_pivots": (c["eigensolve.sturm_pivots"], "count"),
        "physics.fd_oracle.calls": (tr.calls_of("physics.fd_oracle"), "count"),
        "physics.fd_oracle.nodes": (c["physics.fd_oracle.nodes"], "count"),
        "basis.self_s": (tr.module_self_s("basis"), "s"),
        "basis.basis_element.calls": (tr.calls_of("basis.basis_element"), "count"),
        "basis.poly_steps": (c["basis.poly_steps"], "count"),
        "solve.series_evals": (c["solve.series_evals"], "count"),
        "solve.series_evals_per_point": (
            c["solve.series_evals_in_residual"] / pts if pts else 0.0, "ratio"),
        "solve.ode_residual.points": (pts, "count"),
        "physics.wavefunction.points": (c["physics.wavefunction.points"], "count"),
        "solve.self_s": (tr.module_self_s("solve"), "s"),
        "solve.assemble_solution.calls": (tr.calls_of("solve.assemble_solution"), "count"),
        "solve.terms": (terms, "count"),
        "solve.nonzero_ratio": (c["solve.nonzero_terms"] / terms if terms else 0.0,
                                "ratio"),
        "recurrence.self_s": (tr.module_self_s("recurrence"), "s"),
        "recurrence.run_recursion.calls": (tr.calls_of("recurrence.run_recursion"), "count"),
        "recurrence.terms": (c["recurrence.terms"], "count"),
        "verify.self_s": (tr.module_self_s("verify"), "s"),
        "verify.closed_form_hp.calls": (tr.calls_of("verify.closed_form_hp"), "count"),
        "verify.closed_form_hp.self_s": (tr.self_of("verify.closed_form_hp"), "s"),
        "verify.quad.calls": (tr.calls_of("scipy.quad"), "count"),
        "verify.quad.total_s": (tr.total_of("scipy.quad"), "s"),
        "families.self_s": (tr.module_self_s("families"), "s"),
        "families.closed_form.calls": (tr.calls_of("families.closed_form"), "count"),
        "families.family_coeffs.calls": (tr.calls_of("families.family_coeffs"), "count"),
        "families.weight.calls": (tr.calls_of("families.weight"), "count"),
        "gammafn.self_s": (tr.module_self_s("gammafn"), "s"),
        "gammafn.calls": (tr.module_calls("gammafn"), "count"),
        "physics.phase_shift.calls": (tr.calls_of("physics.phase_shift"), "count"),
        "cli.self_s": (tr.module_self_s("cli"), "s"),
        "cli.out_bytes": (sum(o.op.out_bytes for o in traced), "bytes"),
        "tra.self_s": (tr.module_self_s("tra"), "s"),
        "tra.streams.calls": (tr.calls_of("tra.laguerre_st2r2")
                              + tr.calls_of("tra.jacobi_st2r2"), "count"),
        "solve.match_family.calls": (tr.calls_of("solve.match_family"), "count"),
        "fail_ratio": (failed / len(traced), "ratio"),
        "trace.overhead_ratio": (sum(o.scaled for o in traced)
                                 / sum(o.scaled for o in untraced), "ratio"),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def report(workload, metrics, notes, summary, env):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload}.{name} = {value:.6g} {unit}{note}")
    kinds = {}
    for o in summary["outcomes"]:
        kinds.setdefault(o.op.kind, []).append(o)
    for kind, group in sorted(kinds.items()):
        ms = statistics.median(o.scaled for o in group) * 1e3
        bad = sum(1 for o in group if o.error)
        print(f"  {kind}: {len(group)} ops, median {ms:.4g} ms, {bad} failed")
    print(f"{workload}: attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}")
    seen = set()
    for o in summary["failures"]:
        key = (o.defect, o.op.label.split("(")[0])
        tag = f"known defect {o.defect}" if o.defect else "UNEXPECTED"
        if key in seen and o.defect:
            continue
        seen.add(key)
        print(f"  failed [{tag}] {o.op.label}: {o.error}")
    print("env " + json.dumps(env, sort_keys=True))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> None:
    setup = None if trace else measure_setup()
    import_program()
    env = environment()
    if not trace:
        n = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))
        outcomes = run_ops(fixed_ops(workload, seed, n))
        metrics, notes = end_to_end(outcomes, setup)
    else:
        n = TRACE_ROUNDS[workload]
        untraced = run_ops(fixed_ops(workload, seed, n))
        ops = fixed_ops(workload, seed, n)
        tr = Tracer()
        tr.install()
        try:
            outcomes = run_ops(ops, tr)
        finally:
            tr.uninstall()
        metrics = per_layer(tr, outcomes, untraced)
        notes = {}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
        tr.write(spans, [op.label for op in ops])
        print(f"spans written to {spans.relative_to(ROOT)} "
              f"({len(tr.sp_start)} kept, {tr.dropped} past the cap)")
    summary = summarize(outcomes)
    report(workload, metrics, notes, summary, env)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _child(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} (trace {trace}) exited {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> None:
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            ok &= _child(w, seed, seconds, trace)["correct"]
    sys.exit(0 if ok else 2)


def selfcheck(seed: int) -> None:
    ok = True
    for w in WORKLOADS:
        a, b = (_child(w, seed, 0, 1)["metrics"] for _ in range(2))
        for name in EXACT_COUNTS:
            same = a[name]["value"] == b[name]["value"]
            ok &= same
            print(f"selfcheck {w}.{name}: {a[name]['value']:.0f} vs "
                  f"{b[name]['value']:.0f} {'same' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ns = ap.parse_args()
    if ns.selfcheck:
        selfcheck(ns.seed)
    elif ns.workload == "all":
        run_all(ns.seed, ns.seconds)
    elif ns.workload not in WORKLOADS:
        fail(f"unknown workload {ns.workload!r}; one of {WORKLOADS}")
    else:
        run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    main()
