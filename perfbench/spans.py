"""Span tracer installed from outside the program.

Every function defined in a ``triseries`` module is replaced by a wrapper
wherever a caller looks it up: its own module's global and every name that
another module re-bound with ``from ... import ...``.  ``SeriesSolution``
calls and scipy's ``quad`` are wrapped too.  Nothing under ``src/`` is
edited; ``uninstall`` puts the original objects back.

Each call records one span (name, parent span, op index, start, end) in
compact arrays.  Self time is derived when a span closes: its duration minus
the time covered by its direct children.  Work counters (terms, pivots,
mesh nodes, ...) are taken from the call arguments and results at the same
boundary.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Spans kept in memory and written out; calls past the cap are still timed
# and counted, only their span records are dropped (``dropped`` says how many).
MAX_STORED_SPANS = 1_000_000


def _bind(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.dropped = 0
        self.counters = defaultdict(float)
        self.active = defaultdict(int)   # open spans per name (for "inside X")
        self.op = -1
        self._stack: list[list] = []     # [span index, child seconds]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def wrap(self, fn, name, count=None):
        """A wrapper recording one span per call of ``fn`` under ``name``.

        ``count(tracer, args, kwargs, result)`` adds work counters after each
        call; ``result`` is None when the call raised.
        """
        nid = self._intern(name)
        stack = self._stack
        active = self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            stored = len(self.sp_start) < MAX_STORED_SPANS
            if stored:
                idx = len(self.sp_start)
                self.sp_name.append(nid)
                self.sp_parent.append(parent)
                self.sp_op.append(self.op)
                self.sp_start.append(0.0)
                self.sp_end.append(0.0)
            else:
                idx = parent   # children attach to the nearest stored span
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            active[name] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if not active[name]:
                    self.total_s[nid] += dur   # outermost call only
                if stored:
                    self.sp_start[idx] = start
                    self.sp_end[idx] = end
                if count is not None:   # result is None if the call raised
                    count(self, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the program's functions wherever callers look them up."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "triseries" or n.startswith("triseries.")}
        originals = {}
        for mname, mod in mods.items():
            short = mname.split(".", 1)[1] if "." in mname else mname
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mname
                        and not attr.startswith("__")):
                    originals[id(val)] = (val, f"{short}.{attr}")
        wrappers = {}
        for key, (fn, name) in originals.items():
            wrappers[key] = self.wrap(fn, name, _COUNTERS.get(name))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        solve = mods.get("triseries.solve")
        cls = getattr(solve, "SeriesSolution", None)
        fn = vars(cls).get("__call__") if cls is not None else None
        if fn is not None:
            self._patches.append((cls, "__call__", fn))
            setattr(cls, "__call__",
                    self.wrap(fn, "solve.SeriesSolution.__call__",
                              _COUNTERS["solve.SeriesSolution.__call__"]))
        # scipy's quad, both where verify bound it at import and at its home
        # (a lazy ``from scipy.integrate import quad`` looks it up there)
        import scipy.integrate
        quad = scipy.integrate.quad
        traced_quad = self.wrap(quad, "scipy.quad")
        for mod in [scipy.integrate, *mods.values()]:
            if getattr(mod, "quad", None) is quad:
                self._patches.append((mod, "quad", quad))
                mod.quad = traced_quad

    def uninstall(self):
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        pre = module + "."
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.startswith(pre))

    def module_calls(self, module: str) -> int:
        pre = module + "."
        return sum(c for n, c in zip(self.names, self.calls)
                   if n.startswith(pre))

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def total_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def write(self, path, op_labels):
        """Write the stored spans, the name table and the op labels (indexed
        by a span's ``op``) as a compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            op_labels=np.array(op_labels, dtype=str),
            name=np.frombuffer(self.sp_name, dtype=np.int32),
            parent=np.frombuffer(self.sp_parent, dtype=np.int32),
            op=np.frombuffer(self.sp_op, dtype=np.int32),
            start=np.frombuffer(self.sp_start, dtype=np.float64),
            end=np.frombuffer(self.sp_end, dtype=np.float64),
            dropped=np.array(self.dropped))


# ---------------------------------------------------------------------------
# work counters, keyed by span name
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_basis_element(tr, args, kwargs, result):
    tr.counters["basis.poly_steps"] += int(_arg(args, kwargs, 1, "n"))


def _count_sturm(tr, args, kwargs, result):
    tr.counters["eigensolve.sturm_pivots"] += (
        np.size(_arg(args, kwargs, 2, "xs"))
        * np.shape(_arg(args, kwargs, 0, "diag"))[0])


def _count_fd_oracle(tr, args, kwargs, result):
    from triseries import physics
    a = _bind(getattr(physics.fd_oracle, "__wrapped__", physics.fd_oracle),
              args, kwargs)
    mesh = a.get("mesh")
    if mesh is None:
        default_mesh = getattr(physics.default_mesh, "__wrapped__",
                               physics.default_mesh)
        mesh = default_mesh(a["case"], a["n_levels"])
    tr.counters["physics.fd_oracle.nodes"] += (
        mesh.nodes().size + mesh.halved().nodes().size)


def _count_recursion(tr, args, kwargs, result):
    tr.counters["recurrence.terms"] += int(_arg(args, kwargs, 2, "n_max")) + 1


def _count_recursion_general(tr, args, kwargs, result):
    tr.counters["recurrence.terms"] += int(_arg(args, kwargs, 4, "n_max")) + 1


def _count_assemble(tr, args, kwargs, result):
    if result is None:
        return
    f = np.asarray(result.f)
    tr.counters["solve.terms"] += f.size
    tr.counters["solve.nonzero_terms"] += int(np.count_nonzero(f))


def _count_series_eval(tr, args, kwargs, result):
    tr.counters["solve.series_evals"] += 1
    if tr.active["solve.ode_residual"]:
        tr.counters["solve.series_evals_in_residual"] += 1


def _count_residual(tr, args, kwargs, result):
    tr.counters["solve.ode_residual.points"] += np.size(
        _arg(args, kwargs, 2, "x_points"))


def _count_wavefunction(tr, args, kwargs, result):
    tr.counters["physics.wavefunction.points"] += np.size(
        _arg(args, kwargs, 2, "r"))


_COUNTERS = {
    "basis.basis_element": _count_basis_element,
    "eigensolve.sturm_counts": _count_sturm,
    "physics.fd_oracle": _count_fd_oracle,
    "recurrence.run_recursion": _count_recursion,
    "recurrence.run_recursion_general": _count_recursion_general,
    "solve.assemble_solution": _count_assemble,
    "solve.SeriesSolution.__call__": _count_series_eval,
    "solve._solution_value": _count_series_eval,
    "solve.ode_residual": _count_residual,
    "physics.wavefunction": _count_wavefunction,
}
