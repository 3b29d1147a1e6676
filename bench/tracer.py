"""In-memory span trace of one benchmark process, recorded from outside the
program by wrapping the module attributes each caller looks up.

A span is a dict with an id, its parent's id, name, start and end
(perf_counter seconds), attrs, children, and ``agg``: aggregated calls and
seconds of per-cell functions that ran while the span was innermost on the
main thread (worker threads of the analyze pool included). Each CLI op is a
root span "cli.op". Calls the trace makes only to time a layer run after
the op, under a root span "probe", so they stay out of the op and pass
times.

A wrapped name that no longer exists, or a probe or attribute that no
longer fits the program, is recorded in ``absent`` with the reason; the run
goes on, and the metrics that need it are reported as absent.
"""

import contextlib
import functools
import os
import threading
from time import perf_counter

import numpy as np

# (module, attribute, span name). Per-cell functions are aggregated instead.
SPANS = (
    ("gridgauge.cli", "load_grid", "grid.load"),
    ("gridgauge.grid", "parse_grid", "grid.parse"),
    ("gridgauge.grid", "derive_geometry", "grid.geometry"),
    ("gridgauge.measures", "analyze", "measures.analyze"),
    ("gridgauge.cli", "write_vtk", "vtkio.write"),
    ("gridgauge.solver", "defect_correction_solve", "solver.solve"),
    ("gridgauge.solver", "gradient_systems", "solver.gradient_systems"),
)
AGGREGATES = (
    ("gridgauge.measures", "build_stencil", "grid.stencil"),
    ("gridgauge.solver", "build_stencil", "grid.stencil"),
    ("gridgauge.measures", "build_system", "lsq.build"),
    ("gridgauge.solver", "build_system", "lsq.build"),
    ("gridgauge.measures", "f_measure", "measures.fg"),
    ("gridgauge.measures", "g_measure", "measures.fg"),
)


def _observe_stencil(agg, stencil):
    n = len(stencil.neighbors)
    agg["size_sum"] = agg.get("size_sum", 0) + n
    agg["size_max"] = max(agg.get("size_max", 0), n)


def _observe_system(agg, system):
    if system.condition != float("inf"):
        agg["cond_max"] = max(agg.get("cond_max", 0.0), system.condition)


_OBSERVERS = {"grid.stencil": _observe_stencil, "lsq.build": _observe_system}
# Exceptions a per-cell function raises for a degenerate or singular cell.
_COUNTED = {
    "DegenerateStencilError": "degenerate",
    "SingularStencilError": "singular",
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules      # module name -> module, like sys.modules
        self.roots = []
        self.absent = {}            # "module.attr" or probe name -> reason
        self._stack = []
        self._ids = 0
        self._lock = threading.Lock()
        self._patched = []
        self._captured = {}

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        self._ids += 1
        s = {"id": self._ids, "parent": parent["id"] if parent else None,
             "name": name, "start": perf_counter(), "end": None,
             "attrs": attrs, "agg": {}, "children": []}
        (parent["children"] if parent else self.roots).append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = perf_counter()
            self._stack.pop()

    def _aggregate(self, layer, seconds, out=None, error=None):
        with self._lock:
            if not self._stack:
                return
            agg = self._stack[-1]["agg"].setdefault(
                layer, {"calls": 0, "seconds": 0.0})
            agg["calls"] += 1
            agg["seconds"] += seconds
            if error is not None:
                agg[error] = agg.get(error, 0) + 1
            elif layer in _OBSERVERS:
                try:
                    _OBSERVERS[layer](agg, out)
                except (AttributeError, TypeError) as exc:
                    self.absent[f"{layer} attrs"] = repr(exc)

    # -- wrappers --------------------------------------------------------

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name:
                        self._spanned(fn, name))
        for module, attr, layer in AGGREGATES:
            self._patch(module, attr, lambda fn, layer=layer:
                        self._aggregated(fn, layer))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _patch(self, module_name, attr, make):
        module = self.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent[f"{module_name}.{attr}"] = "no such attribute"
            return
        setattr(module, attr, make(fn))
        self._patched.append((module, attr, fn))

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            try:
                self._after(s, args, kwargs, out)
            except (AttributeError, LookupError, TypeError, OSError) as exc:
                self.absent[f"{name} attrs"] = repr(exc)
            return out
        return wrapper

    def _aggregated(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                error = _COUNTED.get(type(exc).__name__, "errors")
                self._aggregate(layer, perf_counter() - t0, error=error)
                raise
            self._aggregate(layer, perf_counter() - t0, out)
            return out
        return wrapper

    def _after(self, s, args, kwargs, out):
        """Attributes and probe inputs, recorded after the span has ended."""
        name, attrs = s["name"], s["attrs"]
        if name == "grid.load":
            attrs["bytes"] = os.path.getsize(args[0])
        elif name == "grid.geometry":
            grid = out if out is not None else args[0]
            neighbors = [f.neighbor for f in grid.faces]
            attrs.update(cells=grid.n_cells, faces=len(neighbors),
                         boundary_faces=neighbors.count(-1))
        elif name == "vtkio.write" and isinstance(args[0], (str, os.PathLike)):
            attrs["bytes"] = os.path.getsize(args[0])
        elif name == "measures.analyze":
            self._captured["analyze"] = (args, kwargs)
        elif name == "solver.solve":
            self._captured["solve"] = (args[0], args[1].theta)
        elif name == "solver.gradient_systems":
            self._captured["systems"] = out

    # -- probes ----------------------------------------------------------

    def run_probes(self):
        """Time the layers no op call covers on its own, from the inputs the
        last op passed to the wrapped functions."""
        captured = self._captured
        measures = self.modules.get("gridgauge.measures")
        solver = self.modules.get("gridgauge.solver")
        with self.span("probe"):
            if "analyze" in captured:
                args, kwargs = captured["analyze"]
                # The benchmark runs with GRIDGAUGE_THREADS unset.
                os.environ["GRIDGAUGE_THREADS"] = "1"
                try:
                    self._probe("measures.analyze_1t",
                                getattr(measures, "analyze", None),
                                *args, **kwargs)
                finally:
                    del os.environ["GRIDGAUGE_THREADS"]
            if "solve" in captured:
                grid, theta = captured["solve"]
                systems = captured.get("systems")
                if systems is None:
                    self.absent["solver.assemble"] = "no gradient systems"
                else:
                    self._probe("solver.assemble",
                                getattr(solver, "residual_second_order", None),
                                grid, *systems, np.zeros(grid.n_cells), theta)
                self._probe("solver.jacobian",
                            getattr(solver, "jacobian_low_order", None),
                            grid, theta)
        # The probes' own wrapped calls captured inputs too; drop them.
        self._captured = {}

    def _probe(self, name, fn, *args, **kwargs):
        if fn is None:
            self.absent[name] = "no such function"
            return
        try:
            with self.span(name):
                fn(*args, **kwargs)
        except Exception as exc:
            # A refactor changed what the probe calls: report it absent.
            self.absent[name] = repr(exc)


# -- per-layer metrics ----------------------------------------------------

def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s["children"])


def _dur(s):
    return s["end"] - s["start"]


def _minus_geometry(s):
    """Span duration without the geometry derivation nested in it."""
    return _dur(s) - sum(_dur(c) for c in _walk(s["children"])
                         if c["name"] == "grid.geometry")


_SPAN_DEPS = {name: f"{module}.{attr}" for module, attr, name in SPANS}
_STENCIL = ("gridgauge.measures.build_stencil", "gridgauge.solver.build_stencil")
_LSQ = ("gridgauge.measures.build_system", "gridgauge.solver.build_system")
_COUNTS = (_SPAN_DEPS["grid.geometry"], "grid.geometry attrs")
_SOLVE_PARTS = (_SPAN_DEPS["solver.solve"], _SPAN_DEPS["solver.gradient_systems"],
                "solver.solve attrs", "solver.assemble", "solver.jacobian")

# metric -> (unit, what it needs: wrapped "module.attr", a probe, or the
# attributes a wrapper records, each of which the trace may find absent)
LAYER_METRICS = {
    "grid.parse_s": ("s", (_SPAN_DEPS["grid.parse"],)),
    "grid.bytes_read": ("bytes", (_SPAN_DEPS["grid.load"], "grid.load attrs")),
    "grid.geometry_s": ("s", (_SPAN_DEPS["grid.geometry"],)),
    "grid.cells": ("count", _COUNTS),
    "grid.faces": ("count", _COUNTS),
    "grid.boundary_faces": ("count", _COUNTS),
    "gridgen.generate_s": ("s", ()),
    "grid.write_s": ("s", ()),
    "grid.stencil_s": ("s", _STENCIL),
    "grid.stencil_calls": ("count", _STENCIL),
    "grid.stencil_size_mean": ("count", _STENCIL + ("grid.stencil attrs",)),
    "grid.stencil_size_max": ("count", _STENCIL + ("grid.stencil attrs",)),
    "grid.degenerate": ("count", _STENCIL),
    "lsq.build_s": ("s", _LSQ),
    "lsq.singular": ("count", _LSQ),
    "lsq.cond_max": ("ratio", _LSQ + ("lsq.build attrs",)),
    "measures.analyze_s": ("s", (_SPAN_DEPS["measures.analyze"],)),
    "measures.analyze_1t_s": ("s", ("measures.analyze_1t",)),
    "measures.fg_s": ("s", ("gridgauge.measures.f_measure",
                            "gridgauge.measures.g_measure")),
    "vtkio.write_s": ("s", (_SPAN_DEPS["vtkio.write"],)),
    "vtkio.bytes": ("bytes", (_SPAN_DEPS["vtkio.write"], "vtkio.write attrs")),
    "solver.solve_s": ("s", (_SPAN_DEPS["solver.solve"],)),
    "solver.gradient_systems_s": ("s", (_SPAN_DEPS["solver.gradient_systems"],)),
    "solver.assemble_s": ("s", ("solver.solve attrs", "solver.assemble")),
    "solver.jacobian_s": ("s", ("solver.solve attrs", "solver.jacobian")),
    "solver.loop_s": ("s", _SOLVE_PARTS),
    "solver.loop_s_per_work_unit": ("s/wu", _SOLVE_PARTS),
    "solver.outer_iters": ("count", ()),
    "solver.work_units": ("wu", ()),
    "solver.sweeps": ("count", ()),
    "solver.sweeps_per_outer": ("count", ()),
    "cli.self_s": ("s", tuple(_SPAN_DEPS[n] for n in (
        "grid.load", "measures.analyze", "vtkio.write", "solver.solve"))),
    "trace.overhead_s": ("s", ()),
}


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(roots, solves, outer, work_units):
    """Per-layer values of one traced pass, from the root spans it recorded
    and its solver counts: number of solve ops, and outer iterations and
    work units summed over them. 0 where the pass does not
    exercise a layer. Lacks the set-up metrics and trace.overhead_s, which
    are not per pass."""
    ops = [s for s in roots if s["name"] == "cli.op"]
    probes = [s for s in roots if s["name"] == "probe"]
    spans = list(_walk(ops))

    def total(name, how=_dur, among=spans):
        return sum(how(s) for s in among if s["name"] == name)

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    agg = {}
    for s in spans:
        for layer, a in s["agg"].items():
            into = agg.setdefault(layer, {})
            for key, value in a.items():
                if key.endswith("_max"):
                    into[key] = max(into.get(key, value), value)
                else:
                    into[key] = into.get(key, 0) + value
    stencil = agg.get("grid.stencil", {})
    lsq = agg.get("lsq.build", {})
    built = stencil.get("calls", 0) - stencil.get("degenerate", 0)
    probe_spans = list(_walk(probes))
    solve_s = total("solver.solve", _minus_geometry)
    gradient_s = total("solver.gradient_systems")
    assemble_s = total("solver.assemble", among=probe_spans)
    jacobian_s = total("solver.jacobian", among=probe_spans)
    loop_s = solve_s - gradient_s - assemble_s - jacobian_s
    # Work units are 1 per residual and 0.5 per symmetric sweep.
    sweeps = 2 * (work_units - solves - outer)

    return {
        "grid.parse_s": total("grid.parse"),
        "grid.bytes_read": attr("grid.load", "bytes"),
        "grid.geometry_s": total("grid.geometry"),
        "grid.cells": attr("grid.geometry", "cells"),
        "grid.faces": attr("grid.geometry", "faces"),
        "grid.boundary_faces": attr("grid.geometry", "boundary_faces"),
        "grid.stencil_s": stencil.get("seconds", 0.0),
        "grid.stencil_calls": stencil.get("calls", 0),
        "grid.stencil_size_mean": _ratio(stencil.get("size_sum", 0), built),
        "grid.stencil_size_max": stencil.get("size_max", 0),
        "grid.degenerate": stencil.get("degenerate", 0),
        "lsq.build_s": lsq.get("seconds", 0.0),
        "lsq.singular": lsq.get("singular", 0),
        "lsq.cond_max": lsq.get("cond_max", 0.0),
        "measures.analyze_s": total("measures.analyze", _minus_geometry),
        "measures.analyze_1t_s": total("measures.analyze_1t", _minus_geometry,
                                       probe_spans),
        "measures.fg_s": agg.get("measures.fg", {}).get("seconds", 0.0),
        "vtkio.write_s": total("vtkio.write"),
        "vtkio.bytes": attr("vtkio.write", "bytes"),
        "solver.solve_s": solve_s,
        "solver.gradient_systems_s": gradient_s,
        "solver.assemble_s": assemble_s,
        "solver.jacobian_s": jacobian_s,
        "solver.loop_s": loop_s,
        "solver.loop_s_per_work_unit": _ratio(loop_s, work_units),
        "solver.outer_iters": outer,
        "solver.work_units": work_units,
        "solver.sweeps": sweeps,
        "solver.sweeps_per_outer": _ratio(sweeps, outer),
        "cli.self_s": sum(_dur(s) - sum(_dur(c) for c in s["children"])
                          for s in ops),
    }
