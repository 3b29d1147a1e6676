"""Correctness gate, run outside the timed region.

An analyze op passes when it exits 0, its CSV row has the grid's cell count
and no non-finite value, its aggregates and degenerate count match the
scalar oracle (build_stencil + build_system + f_measure + g_measure per
cell) within REL_TOL, and its VTK file carries the oracle's per-cell F and
G. A solve op passes when it exits 0 and prints a consistent history and a
"converged" summary with final residual <= tol. Once per run, the library
solve of the workload's solve op on its smallest grid (the cheapest) must
lie within L1_CONSTANT * h^2 of the manufactured solution (area-weighted L1;
second-order accuracy).

The sha256 of each op's stdout is recorded as a fingerprint. A changed
fingerprint is information, not a failure.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

import gridgauge
from gridgauge import (
    DegenerateStencilError,
    SingularStencilError,
    build_stencil,
    build_system,
    f_measure,
    g_measure,
)
from gridgauge.measures import CSV_HEADER

from workloads import THETA

REL_TOL = 1e-12
# Measured error / h^2 is at most 1.0 on every workload grid (17^2 and
# 129^2, tri-irregular seeds 0-13, 42, 99, 1234, 2^31-1).
L1_CONSTANT = 2.0
HISTORY_HEADER = "iter,residual_norm,work_units"
SUMMARY = re.compile(
    r"(\S+) grid=\S+ iterations=(\S+) work_units=(\S+) final_residual=(\S+)"
)
AGGREGATES = ("F_min", "F_max", "F_avg", "G_min", "G_max", "G_avg")


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)       # op label -> reasons
    fingerprints: dict = field(default_factory=dict)  # op label -> shas
    solver_counts: list = field(default_factory=list)  # per pass (outer, wu)
    l1_error: float | None = None
    l1_bound: float | None = None
    library_ok: bool = True

    @property
    def correct(self):
        return self.failed == 0 and self.library_ok


class _Oracle:
    """Per-cell F, G and degeneracy from the scalar functions, cached per
    (grid file, p, stencil)."""

    def __init__(self):
        self._cache = {}

    def cells(self, path, p, stencil):
        key = (str(path), p, stencil)
        if key not in self._cache:
            grid = gridgauge.load_grid(path)
            f, g, bad = [], [], []
            for j in range(grid.n_cells):
                try:
                    st = build_stencil(grid, j, stencil)
                    sy = build_system(st, p)
                except (DegenerateStencilError, SingularStencilError):
                    f.append(math.nan)
                    g.append(math.nan)
                    bad.append(True)
                    continue
                f.append(f_measure(st, sy))
                g.append(g_measure(st, sy))
                bad.append(False)
            self._cache[key] = (np.array(f), np.array(g), np.array(bad))
        return self._cache[key]

    def aggregates(self, path, p, stencil):
        f, g, bad = self.cells(path, p, stencil)
        good_f = [float(v) for v in f[~bad]]
        good_g = [float(v) for v in g[~bad]]
        values = (min(good_f), max(good_f), sum(good_f) / len(good_f),
                  min(good_g), max(good_g), sum(good_g) / len(good_g))
        return values, int(bad.sum())


def _check_analyze(rec, op, n_cells, oracle, grid_path):
    lines = rec.stdout.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        return ["output is not the CSV header plus one row"]
    fields = lines[1].split(",")
    if len(fields) != 11:
        return [f"CSV row has {len(fields)} fields, expected 11"]
    reasons = []
    if fields[1] != str(n_cells):
        reasons.append(f"ncells {fields[1]} != {n_cells}")
    if fields[2] != str(op.p) or fields[3] != op.stencil:
        reasons.append(f"row is for p={fields[2]} {fields[3]}")
    got = [float(v) for v in fields[4:10]]
    if not all(math.isfinite(v) for v in got):
        return reasons + ["non-finite aggregate in the CSV row"]
    want, degenerate = oracle.aggregates(grid_path, op.p, op.stencil)
    for name, a, b in zip(AGGREGATES, got, want):
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
            reasons.append(f"{name} {a!r} differs from oracle {b!r}")
    if fields[10] != str(degenerate):
        reasons.append(f"degenerate_count {fields[10]} != oracle {degenerate}")
    return reasons


def _vtk_reasons(vtk_path, op, oracle, grid_path):
    """Check the per-cell fields of a written VTK file against the oracle."""
    f, g, bad = oracle.cells(grid_path, op.p, op.stencil)
    with open(vtk_path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = {}
    for i, line in enumerate(lines):
        if line.startswith("SCALARS "):
            fields[line.split()[1]] = np.array(
                [float(v) for v in lines[i + 2:i + 2 + len(bad)]]
            )
    reasons = []
    for name, want in (("F_measure", f), ("G_measure", g)):
        got = fields.get(name)
        if got is None or got.shape != want.shape:
            reasons.append(f"VTK lacks {len(bad)} {name} values")
        elif not (np.array_equal(np.isnan(got), bad)
                  and np.allclose(got, want, rtol=REL_TOL, atol=0.0,
                                  equal_nan=True)):
            reasons.append(f"VTK {name} differs from the per-cell oracle")
    return reasons


def _check_solve(rec, op):
    """Reasons for failure, plus (outer iterations, work units)."""
    lines = rec.stdout.splitlines()
    m = SUMMARY.fullmatch(lines[-1]) if lines else None
    if m is None or lines[0] != HISTORY_HEADER:
        return ["output is not a history CSV plus a summary line"], 0, 0.0
    status, iters, wu, final = m.groups()
    if status != "converged":
        return [f"solve {status}"], 0, 0.0
    rows = [row.split(",") for row in lines[1:-1]]
    outer, wu, final = int(iters), float(wu), float(final)
    reasons = []
    if len(rows) != outer + 1:
        reasons.append(f"{len(rows)} history rows for {outer} iterations")
    elif float(rows[-1][1]) != final or float(rows[-1][2]) != wu:
        reasons.append("last history row disagrees with the summary")
    if not final <= op.tol:
        reasons.append(f"final residual {final!r} above tol {op.tol!r}")
    return reasons, outer, wu


def _library_l1(op, grid_path, nodes):
    """Area-weighted L1 error of the library solve and its bound."""
    grid = gridgauge.load_grid(grid_path)
    spec = gridgauge.ProblemSpec(theta=float(THETA), tolerance=op.tol)
    report = gridgauge.defect_correction_solve(
        grid, spec, p=op.p, stencil_mode=op.stencil
    )
    c = grid.centroids
    err = float(np.sum(
        grid.areas * np.abs(report.solution
                            - gridgauge.exact_solution(c[:, 0], c[:, 1]))
    ))
    bound = L1_CONSTANT / (nodes - 1) ** 2
    return report.converged and err <= bound, err, bound


def gate(workload, passes, grid_paths, n_cells, vtk_paths, nodes):
    """Check every op record of every pass; see the module docstring. A
    record has the op's exit code (rc), stdout, stderr and the sha256 of the
    VTK file it wrote (vtk_sha)."""
    oracle = _Oracle()
    result = GateResult()
    vtk_checked = {}
    for i, op in enumerate(workload.ops):
        result.fingerprints[op.label] = []
        if op.command == "analyze":
            try:
                reasons = _vtk_reasons(vtk_paths[i], op, oracle,
                                       grid_paths[op.grid])
                with open(vtk_paths[i], "rb") as fh:
                    sha = hashlib.sha256(fh.read()).hexdigest()
            except (OSError, ValueError) as exc:
                sha, reasons = None, [f"VTK unreadable: {exc}"]
            vtk_checked[i] = (sha, reasons)

    for recs in passes:
        outer = wu = 0
        for i, (op, rec) in enumerate(zip(workload.ops, recs)):
            result.attempted += 1
            fp = hashlib.sha256(rec.stdout.encode("utf-8")).hexdigest()
            if fp not in result.fingerprints[op.label]:
                result.fingerprints[op.label].append(fp)
            try:
                if rec.rc != 0:
                    reasons = [f"exit code {rec.rc}: "
                               f"{rec.stderr.strip()[-200:]}"]
                elif op.command == "analyze":
                    reasons = _check_analyze(rec, op, n_cells[op.grid],
                                             oracle, grid_paths[op.grid])
                    sha, vtk_reasons = vtk_checked[i]
                    reasons += vtk_reasons
                    if rec.vtk_sha != sha:
                        reasons.append("VTK file differs from the checked one")
                else:
                    reasons, o, w = _check_solve(rec, op)
                    outer += o
                    wu += w
            except ValueError as exc:
                reasons = [f"unparsable output: {exc}"]
            if reasons:
                result.failed += 1
                known = result.reasons.setdefault(op.label, [])
                known.extend(r for r in reasons if r not in known)
        result.solver_counts.append((outer, wu))

    solves = [op for op in workload.ops if op.command == "solve"]
    if solves:
        op = min(solves, key=lambda op: n_cells[op.grid])
        ok, result.l1_error, result.l1_bound = _library_l1(
            op, grid_paths[op.grid], nodes
        )
        result.library_ok = ok
    return result
