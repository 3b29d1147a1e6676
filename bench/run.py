#!/usr/bin/env python3
"""Benchmark of the gridgauge command line, run in-process.

    python3 -B bench/run.py --workload analyze-mix --seed 42 --seconds 36 --trace 0
    python3 -B bench/run.py --smoke

(-B keeps the import of gridgauge the same on every run: no bytecode cache
is written or read for the checkout's files.)

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing is installed. One run imports gridgauge,
generates and writes the workload's grid files (``gridgen.generate`` +
``grid.save_grid``, SETUP_REPS times), then runs passes over the workload's
CLI ops (``gridgauge.cli.main(argv)``, stdout captured) in a closed loop for
about ``--seconds`` seconds, and checks every op's output (see gate.py)
outside the timed region.

End-to-end times (setup_s, pass_s and so cells_per_s) are reported in
reference-speed seconds: each interval is scaled by the time of a fixed
reference kernel timed next to it (see ``_reference``), because the speed
of a shared machine drifts more than any median over a run can hide. Wall
times are printed and recorded beside them; per-layer times are wall times.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the run spends half its time on
untraced passes and half on traced ones (see tracer.py) and carries the
per-layer metrics instead. Earlier lines give the run context, per-op times
and output fingerprints, the gate's findings and the solver counts. The same
record, with the span tree of a traced run, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``; grid and VTK files go
to a temporary directory under ``.bench_out/`` that is removed at exit.

``--smoke`` runs every workload, untraced and traced, on SMOKE_NODES^2 grids,
and exits non-zero unless every metric of BENCHMARK.json is printed with its
unit and the gate passes.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import GRID_KINDS, NODES, PERTURB, SMOKE_NODES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
# The untraced path needs only cli.main, gridgen.generate and grid.save_grid.
MODULES = ("gridgauge.cli", "gridgauge.grid", "gridgauge.gridgen")
# Median time of _reference() on the 2-core machine the benchmark was
# defined on.
REF_NOMINAL_S = 0.054


@functools.cache
def _reference_system():
    """A fixed sparse matrix and its factored lower triangle, shaped like the
    solver's first-order Jacobian on a 64 x 64 grid. Its vectors (32 KiB)
    stay below the allocator's mmap threshold, so the kernel does not move
    the program's peak RSS from run to run."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 4096
    a = sp.diags([np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 64, -1.0),
                  np.full(n - 1, -1.0)], [0, -1, -64, 1], format="csr")
    lower = spla.splu(sp.tril(a, format="csc"), permc_spec="NATURAL",
                      diag_pivot_thresh=0.0)
    return a, lower, np.ones(n)


def _reference():
    """Seconds a fixed kernel takes now: a Python loop building tuples and a
    NumPy conversion of them, then sparse triangular solves and products like
    the solver's sweeps.

    The speed of a shared machine drifts (by up to 1.6x over minutes on the
    2-core machine the benchmark was defined on), which no run length
    averages out, and the drift slows this kernel and the program alike.
    So each end-to-end interval is timed next to a reference and reported
    in reference-speed seconds, interval * REF_NOMINAL_S / ref. Wall
    seconds are printed and recorded beside them.
    """
    import numpy as np

    a, lower, x = _reference_system()
    gc.collect()
    t0 = perf_counter()
    for _ in range(2):
        acc, items = 0.0, []
        for i in range(20000):
            pair = (i * 0.5, i * 0.25)
            acc += math.hypot(*pair)
            items.append(pair)
        acc += float(np.array(items).sum())
    for _ in range(200):
        x = lower.solve(a @ x) * 0.25
    return perf_counter() - t0


def _at_reference_speed(seconds, ref_s):
    return seconds * REF_NOMINAL_S / ref_s


def _import_gridgauge():
    """Import the checkout's package; returns the import time in wall and
    in reference-speed seconds, or None when the checkout has no package
    source."""
    if not (SRC / "gridgauge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    import_s = perf_counter() - t0
    ref_s = _reference()    # right after: it needs numpy
    loaded = Path(sys.modules["gridgauge"].__file__).resolve().parent
    if loaded != SRC / "gridgauge":
        return None
    return import_s, _at_reference_speed(import_s, ref_s)


def _setup(workload, seed, nodes, work):
    """Generate and write the workload's grids SETUP_REPS times; returns the
    grid paths, cell counts and the (generate_s, write_s, reference_s) of
    each rep."""
    gridgen = sys.modules["gridgauge.gridgen"]
    save_grid = sys.modules["gridgauge.grid"].save_grid
    paths = {key: work / f"{key}.txt" for key in workload.grids}
    n_cells, reps = {}, []
    for _ in range(SETUP_REPS):
        ref_s = _reference()
        gen_s = write_s = 0.0
        for key in workload.grids:
            spec = gridgen.GenSpec(kind=GRID_KINDS[key], nx=nodes, ny=nodes,
                                   perturb=PERTURB, seed=seed)
            t0 = perf_counter()
            grid = gridgen.generate(spec)
            t1 = perf_counter()
            save_grid(grid, paths[key])
            t2 = perf_counter()
            gen_s += t1 - t0
            write_s += t2 - t1
            n_cells[key] = grid.n_cells
            del grid
        reps.append((gen_s, write_s, ref_s))
    return paths, n_cells, reps


@dataclass
class OpRecord:
    """Outcome of one CLI op."""

    rc: object
    stdout: str
    stderr: str
    seconds: float
    ref_s: float        # the reference timed right before the op
    vtk_sha: str | None


def _run_op(argv, vtk_path, tracer):
    cli = sys.modules["gridgauge.cli"]
    out, err = io.StringIO(), io.StringIO()
    ref_s = _reference()
    span = tracer.span("cli.op", argv=argv) if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                span:
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        # An uncaught error is a failed op; record it and keep running.
        rc = "uncaught exception"
        err.write(traceback.format_exc())
    seconds = perf_counter() - t0
    vtk_sha = None
    if vtk_path is not None and vtk_path.exists():
        vtk_sha = hashlib.sha256(vtk_path.read_bytes()).hexdigest()
    return OpRecord(rc, out.getvalue(), err.getvalue(), seconds, ref_s,
                    vtk_sha)


def _passes(argvs, vtk_paths, budget, tracer=None):
    """Closed-loop passes until the next one would end past ``budget``
    seconds (at least one). Returns the op records of each pass and, when
    traced, the root spans each pass recorded."""
    passes, roots = [], []
    start = perf_counter()
    while True:
        first = len(tracer.roots) if tracer else 0
        records = []
        for i, argv in enumerate(argvs):
            records.append(_run_op(argv, vtk_paths.get(i), tracer))
            if tracer:
                tracer.run_probes()
        passes.append(records)
        if tracer:
            roots.append(tracer.roots[first:])
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes, roots


def _pass_seconds(passes):
    return [sum(r.seconds for r in records) for records in passes]


def _pass_reference_seconds(passes):
    return [_at_reference_speed(sum(r.seconds for r in records),
                                statistics.mean(r.ref_s for r in records))
            for records in passes]


def _context(seed, nodes):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "nodes": nodes,
        "workloads": {name: w.describe() for name, w in WORKLOADS.items()},
    }


def run(workload, seed, seconds, trace, nodes, import_s):
    """One benchmark run; returns its full record (see ``report``).
    ``import_s`` is the (wall, reference-speed) import time."""
    from gate import gate
    from tracer import LAYER_METRICS, Tracer, pass_metrics

    os.environ.pop("GRIDGAUGE_THREADS", None)   # the program's default: all cores
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths, n_cells, reps = _setup(workload, seed, nodes, work)
        vtk_paths = {i: work / f"op{i}.vtk" for i, op in enumerate(workload.ops)
                     if op.command == "analyze"}
        argvs = [op.argv(paths[op.grid], vtk_paths.get(i))
                 for i, op in enumerate(workload.ops)]
        tracer = None
        if trace:
            untraced, _ = _passes(argvs, vtk_paths, seconds / 2)
            tracer = Tracer(sys.modules)
            tracer.install()
            try:
                traced, traced_roots = _passes(argvs, vtk_paths, seconds / 2,
                                               tracer)
            finally:
                tracer.uninstall()
        else:
            untraced, _ = _passes(argvs, vtk_paths, seconds)
            traced, traced_roots = [], []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = gate(workload, untraced + traced, paths, n_cells, vtk_paths,
                       nodes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced_s = _pass_seconds(untraced)
    pass_s = statistics.median(_pass_reference_seconds(untraced))
    cells = sum(n_cells[op.grid] for op in workload.ops)
    if trace:
        solves = sum(op.command == "solve" for op in workload.ops)
        counts = checked.solver_counts[len(untraced):]
        per_pass = [pass_metrics(roots, solves, outer, wu)
                    for roots, (outer, wu) in zip(traced_roots, counts)]
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        values["gridgen.generate_s"] = statistics.median(g for g, _, _ in reps)
        values["grid.write_s"] = statistics.median(w for _, w, _ in reps)
        values["trace.overhead_s"] = (statistics.median(_pass_seconds(traced))
                                      - statistics.median(untraced_s))
        # A metric whose layer is absent reads 0, like a layer the workload
        # does not exercise, and is named on the "absent" lines.
        absent = [name for name, (_, needs) in LAYER_METRICS.items()
                  if any(dep in tracer.absent for dep in needs)]
        metrics = {name: (0 if name in absent else values[name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": (import_s[1] + statistics.median(
                _at_reference_speed(g + w, ref) for g, w, ref in reps), "s"),
            "pass_s": (pass_s, "s"),
            "cells_per_s": (cells / pass_s, "cells/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "context": _context(seed, nodes),
        "import_s": import_s, "setup_reps": reps,
        "cells_per_pass": cells,
        "pass_s": untraced_s, "traced_pass_s": _pass_seconds(traced),
        "pass_reference_s": _pass_reference_seconds(untraced),
        "reference_s": [r.ref_s for p in untraced + traced for r in p],
        "op_s": {op.label: [p[i].seconds for p in untraced]
                 for i, op in enumerate(workload.ops)},
        "gate": checked, "metrics": metrics,
        "absent": tracer.absent if tracer else {},
        "absent_metrics": absent if trace else [],
        "spans": tracer.roots if tracer else [],
    }


def _tail(samples):
    """(q, value) of the highest percentile with at least ten samples beyond
    it, when that is above the median; else None."""
    n = len(samples)
    if n <= 20:
        return None
    q = 100 * (n - 10) // n
    return q, sorted(samples)[-11]


def _describe_times(samples):
    text = f"n={len(samples)} median={statistics.median(samples):.4f} s"
    tail = _tail(samples)
    if tail is None:
        return text + " (too few samples for a tail percentile)"
    return text + f" p{tail[0]}={tail[1]:.4f} s"


def report(result, stream=sys.stdout):
    """Write the run's record file, then print the human-readable lines and
    the JSON result line."""
    checked = result["gate"]
    w = stream.write
    w(f"gridgauge bench: workload={result['workload']} seed={result['seed']} "
      f"seconds={result['seconds']:g} trace={result['trace']}\n")
    w(f"context: {json.dumps(result['context'])}\n")
    reps = result["setup_reps"]
    w(f"setup (wall): import {result['import_s'][0]:.4f} s; {len(reps)} reps "
      f"of generate+write: " + ", ".join(f"{g:.4f}+{s:.4f} s"
                                          for g, s, _ in reps) + "\n")
    w(f"reference kernel (nominal {REF_NOMINAL_S} s): "
      f"{_describe_times(result['reference_s'])}\n")
    for label, times in result["op_s"].items():
        shas = checked.fingerprints[label]
        w(f"op {label}: {_describe_times(times)}; stdout sha256 "
          f"{' '.join(shas)}{' (varies between passes)' if len(shas) > 1 else ''}\n")
    w(f"pass ({result['cells_per_pass']} cells), wall: "
      f"{_describe_times(result['pass_s'])}\n")
    w(f"pass, reference-speed: "
      f"{_describe_times(result['pass_reference_s'])}\n")
    if result["traced_pass_s"]:
        w(f"traced pass: {_describe_times(result['traced_pass_s'])}\n")
    w(f"failed_ops: {checked.failed}/{checked.attempted} = "
      f"{checked.failed / checked.attempted:g}\n")
    for label, reasons in checked.reasons.items():
        w(f"FAILED {label}: {'; '.join(reasons)}\n")
    if any(outer for outer, _ in checked.solver_counts):
        outer, wu = checked.solver_counts[0]
        same = len(set(checked.solver_counts)) == 1
        w(f"solver per pass: outer_iters={outer} work_units={wu:g} "
          f"(identical on every pass: {'yes' if same else 'NO'})\n")
    if checked.l1_error is not None:
        w(f"library solve: L1 error {checked.l1_error:.6g} vs bound "
          f"{checked.l1_bound:.6g}: {'ok' if checked.library_ok else 'FAILED'}\n")
    for name, reason in result["absent"].items():
        w(f"absent: {name}: {reason}\n")
    for name, (value, unit) in result["metrics"].items():
        flag = " (absent)" if name in result["absent_metrics"] else ""
        w(f"metric {name} = {value:.6g} {unit}{flag}\n")
    path = OUT / (f"{result['workload']}-seed{result['seed']}"
                  f"-trace{result['trace']}.json")
    record = dict(result, gate=vars(checked))
    path.write_text(json.dumps(record, indent=1, default=str))
    w(f"record: {path.relative_to(ROOT)}\n")
    w(json.dumps({
        "correct": checked.correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }) + "\n")


def smoke(import_s):
    """Every workload, untraced and traced, on small grids; returns the
    process exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            result = run(workload, 42, 0.01, trace, SMOKE_NODES, import_s)
            buf = io.StringIO()
            report(result, buf)
            last = json.loads(buf.getvalue().splitlines()[-1])
            where = f"{workload.name} trace={trace}"
            if not (last["correct"] and last["failed"] == 0
                    and last["attempted"] >= 1):
                problems.append(f"{where}: gate failed\n{buf.getvalue()}")
            wanted = {m["name"]: m["unit"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            got = last["metrics"]
            if set(got) != set(wanted):
                problems.append(f"{where}: metric names {sorted(got)} "
                                f"!= {sorted(wanted)}")
            for name, unit in wanted.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {entry.get('unit')}")
                if not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{where}: {name} value {entry.get('value')!r}")
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    import_s = _import_gridgauge()
    if import_s is None:
        print(f"bench: no gridgauge package source under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(import_s)
    report(run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
               NODES, import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
