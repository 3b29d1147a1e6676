"""Per-cell grid-quality measures and grid-level aggregation.

Two measures are computed from each cell's least-squares gradient stencil:

* F-measure: s / ||A^T A||_F with s = sum_k w_k^2 d_k. Units 1/length;
  a smaller value predicts faster implicit-solver convergence.
* G-measure: magnitude of the least-squares gradient of the isotropic bump
  exp(-(x~^2 + y~^2)) evaluated in offsets normalized by the farthest
  neighbor distance. Dimensionless, ideal value 0 (reached on centrally
  symmetric stencils).

``analyze`` takes both for every cell from the LSQ table and aggregates
min/max/avg over the non-degenerate cells. The GRIDGAUGE_THREADS environment
variable is validated but has no effect.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError
from .lsq import apply_gradient, check_stencils, lsq_table

CSV_HEADER = (
    "grid_name,ncells,p,stencil_mode,"
    "F_min,F_max,F_avg,G_min,G_max,G_avg,degenerate_count"
)


@dataclass
class MeasureReport:
    """Per-cell measure arrays (NaN where degenerate) plus aggregates."""

    grid_name: str
    n_cells: int
    p: int
    stencil_mode: str
    f_values: np.ndarray
    g_values: np.ndarray
    degenerate: np.ndarray
    f_min: float
    f_max: float
    f_avg: float
    g_min: float
    g_max: float
    g_avg: float
    degenerate_count: int

    def csv_row(self):
        return (
            f"{self.grid_name},{self.n_cells},{self.p},{self.stencil_mode},"
            f"{self.f_min:.17g},{self.f_max:.17g},{self.f_avg:.17g},"
            f"{self.g_min:.17g},{self.g_max:.17g},{self.g_avg:.17g},"
            f"{self.degenerate_count}"
        )


def f_measure(stencil, system):
    """Stencil quality ratio s / ||A^T A||_F, s = sum of w^2 * distance."""
    s = 0.0
    for k in range(len(stencil.d)):
        wk = system.weights[k]
        s += wk * wk * stencil.d[k]
    return s / system.frobenius_norm


def g_measure(stencil, system):
    """Gradient magnitude of the unit bump in farthest-distance-normalized
    offsets.

    The cached coefficients are per physical length; multiplying the
    gradient magnitude by s_max converts it to the normalized frame, which
    makes G dimensionless and invariant under uniform scaling.
    """
    smax = max(stencil.d)
    du = []
    for k in range(len(stencil.d)):
        xk = stencil.dx[k] / smax
        yk = stencil.dy[k] / smax
        du.append(math.exp(-(xk * xk + yk * yk)) - 1.0)
    gx, gy = apply_gradient(system, du)
    return smax * math.hypot(gx, gy)


def _check_threads_env():
    """Reject a non-integer GRIDGAUGE_THREADS. The value is otherwise unused:
    the sweep runs in one thread, as threads gain nothing on it (GIL)."""
    env = os.environ.get("GRIDGAUGE_THREADS", "").strip()
    try:
        int(env or "0")
    except ValueError:
        raise ValueError(
            f"GRIDGAUGE_THREADS must be an integer, got {env!r}"
        ) from None


def analyze(grid, p=0, stencil_mode="face"):
    """Evaluate F and G for every cell and aggregate.

    Cells whose stencil is degenerate or singular are flagged, carry NaN in
    the per-cell arrays, and are excluded from the aggregates.

    Raises
    ------
    DegenerateGridError
        More than half of the cells are degenerate.
    """
    n = grid.n_cells
    if n == 0:
        raise DegenerateGridError("grid has no cells")
    _check_threads_env()
    table = lsq_table(grid, p, stencil_mode)
    n_bad = check_stencils(table.degenerate, stencil_mode)
    f_values, g_values, degenerate = table.f, table.g, table.degenerate

    good_f = f_values[~degenerate]
    good_g = g_values[~degenerate]
    return MeasureReport(
        grid_name=grid.name,
        n_cells=n,
        p=p,
        stencil_mode=stencil_mode,
        f_values=f_values,
        g_values=g_values,
        degenerate=degenerate,
        f_min=float(good_f.min()),
        f_max=float(good_f.max()),
        f_avg=float(good_f.sum() / len(good_f)),
        g_min=float(good_g.min()),
        g_max=float(good_g.max()),
        g_avg=float(good_g.sum() / len(good_g)),
        degenerate_count=n_bad,
    )
