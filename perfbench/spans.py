"""Spans around the axns layer boundaries, recorded from outside the package.

The package imports its functions by name (``from .elliptic import
solve_stream``), so a wrapper is useful only where the name is looked up.
``Tracer.install`` therefore replaces every module-level reference to each
target function in every loaded ``axns`` module, and the few methods the
hot loops call on the class itself.  ``Tracer.uninstall`` puts the
originals back.

A span is ``(id, parent, run, name, start_ns, end_ns)``.  Spans stay in
memory until ``write_csv`` is called at the end of the benchmark.  Object
constructions in the inner loops (hundreds of thousands per run) are
counted, not spanned.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name).  Each function is wrapped once and the
# wrapper replaces every reference to it in the loaded axns modules.
FUNCTIONS = (
    ("axns.dynamics", "run", "dynamics.run"),
    ("axns.dynamics", "step", "dynamics.step"),
    ("axns.dynamics", "rhs", "dynamics.rhs"),
    ("axns.dynamics", "stable_dt", "dynamics.stable_dt"),
    ("axns.elliptic", "solve_stream", "elliptic.solve_stream"),
    ("axns.grid", "d_dr", "grid.d_dr"),
    ("axns.grid", "d_dz", "grid.d_dz"),
    ("axns.grid", "modified_laplacian", "grid.modified_laplacian"),
    ("axns.kinematics", "reconstruct_velocity", "kinematics.reconstruct_velocity"),
    ("axns.scenarios", "manufactured_solution", "scenarios.manufactured_solution"),
    ("axns.diagnostics", "sample", "diagnostics.sample"),
    ("axns.diagnostics", "lpq_norm", "diagnostics.lpq_norm"),
    ("axns.storage", "read_snapshot", "storage.read_snapshot"),
    ("axns.storage", "write_snapshot", "storage.write_snapshot"),
    ("axns.storage", "write_series", "storage.write_series"),
    ("axns.svgplot", "emit_plots", "svgplot.emit_plots"),
)

# (module, class, method, span name) for methods called through instances.
METHODS = (
    ("axns.scenarios", "ManufacturedSolution", "f_u", "scenarios.f_u"),
    ("axns.scenarios", "ManufacturedSolution", "f_om", "scenarios.f_om"),
)

# (module, class, counter name): constructions counted per run.
COUNTED_INITS = (
    ("axns.grid", "ScalarField", "grid.ScalarField.inits"),
    ("axns.kinematics", "State", "kinematics.State.inits"),
)

# Layer metric prefix -> span names it aggregates.
GROUPS = {
    "dynamics.step": ("dynamics.step",),
    "dynamics.rhs": ("dynamics.rhs",),
    "dynamics.stable_dt": ("dynamics.stable_dt",),
    "elliptic.solve_stream": ("elliptic.solve_stream",),
    "grid.stencil": ("grid.d_dr", "grid.d_dz", "grid.modified_laplacian"),
    "kinematics.reconstruct_velocity": ("kinematics.reconstruct_velocity",),
    "scenarios.forcing": ("scenarios.f_u", "scenarios.f_om"),
    "scenarios.manufactured_solution": ("scenarios.manufactured_solution",),
    "diagnostics.sample": ("diagnostics.sample",),
    "diagnostics.lpq_norm": ("diagnostics.lpq_norm",),
    "storage.read_snapshot": ("storage.read_snapshot",),
    "storage.write_snapshot": ("storage.write_snapshot",),
    "storage.write_series": ("storage.write_series",),
    "svgplot.emit_plots": ("svgplot.emit_plots",),
}

# Span names whose calls carry a size: the file written or read.
_BYTES_ARG = {"storage.read_snapshot": 0, "storage.write_snapshot": 1}


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for sid, parent, _run, _name, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _run, _name, t0, t1 in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


class Tracer:
    """Records spans and counts for every call made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(int)  # (run, name) -> count
        self.values: dict = defaultdict(list)  # (run, name) -> [value]
        self.last_sampled: dict = {}  # run -> last state sampled
        self.run = "setup"
        self._next = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.run, name, t0, t1))

    def _wrap(self, fn, name: str):
        tracer = self
        byte_arg = _BYTES_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            if name == "dynamics.step":
                tracer.values[(tracer.run, "dt")].append(float(args[1]))
            elif name == "diagnostics.sample":
                tracer.last_sampled[tracer.run] = args[0]
            elif byte_arg is not None:
                tracer.values[(tracer.run, name + ".bytes")].append(
                    os.path.getsize(args[byte_arg])
                )
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count_inits(self, cls, name: str):
        tracer = self
        orig = cls.__post_init__

        @functools.wraps(orig)
        def post_init(obj):
            tracer.counts[(tracer.run, name)] += 1
            orig(obj)

        return orig, post_init

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items()) if n == "axns" or n.startswith("axns.")
        ]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name))
            self._undo.append((cls, attr, orig))
        for modname, clsname, name in COUNTED_INITS:
            cls = getattr(sys.modules[modname], clsname)
            orig, post_init = self._count_inits(cls, name)
            cls.__post_init__ = post_init
            self._undo.append((cls, "__post_init__", orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- output ------------------------------------------------------------

    def write_csv(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "run", "name", "start_ns", "end_ns", "self_ns"))
            for sid, parent, run, name, t0, t1 in self.spans:
                out.writerow((sid, "" if parent is None else parent, run, name, t0, t1, selfs[sid]))


def run_metrics(tracer: Tracer) -> dict:
    """Run -> additive layer metrics of that run: calls, total_s, self_s,
    bytes and construction counts."""
    selfs = self_times(tracer.spans)
    by_name = defaultdict(lambda: [0, 0, 0])  # (run, name) -> calls, total ns, self ns
    for sid, _parent, run, name, t0, t1 in tracer.spans:
        agg = by_name[(run, name)]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += selfs[sid]
    out = {}
    for run in dict.fromkeys(["setup", *(r for _s, _p, r, *_ in tracer.spans)]):
        m = out[run] = {}
        for group, names in GROUPS.items():
            aggs = [by_name.get((run, n), (0, 0, 0)) for n in names]
            m[group + ".calls"] = sum(a[0] for a in aggs)
            m[group + ".total_s"] = sum(a[1] for a in aggs) * 1e-9
            m[group + ".self_s"] = sum(a[2] for a in aggs) * 1e-9
        for name in _BYTES_ARG:
            m[name + ".bytes"] = sum(tracer.values.get((run, name + ".bytes"), ()))
        for _mod, _cls, name in COUNTED_INITS:
            m[name] = tracer.counts.get((run, name), 0)
    return out


def durations_ms(tracer: Tracer, group: str, runs) -> np.ndarray:
    """Durations in ms of every span of a group in the given runs."""
    names = set(GROUPS[group])
    runs = set(runs)
    return np.array(
        [(t1 - t0) * 1e-6 for _s, _p, r, n, t0, t1 in tracer.spans if n in names and r in runs]
    )
