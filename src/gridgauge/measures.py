"""Per-cell grid-quality measures and grid-level aggregation.

Two measures are computed from each cell's least-squares gradient stencil:

* F-measure: s / ||A^T A||_F with s = sum_k w_k^2 d_k. Units 1/length;
  a smaller value predicts faster implicit-solver convergence.
* G-measure: magnitude of the least-squares gradient of the isotropic bump
  exp(-(x~^2 + y~^2)) evaluated in offsets normalized by the farthest
  neighbor distance. Dimensionless, ideal value 0 (reached on centrally
  symmetric stencils).

``analyze`` takes both for every cell from the LSQ table and aggregates
min/max/avg over the non-degenerate cells. The table evaluates the bump by
the package's exp rule (:func:`gridgauge.lsq._exp`), within 2 ulp of exp
and the same on every IEEE-754 machine.
"""

from dataclasses import dataclass

import numpy as np

from .lsq import check_stencils, lsq_table

CSV_HEADER = (
    "grid_name,ncells,p,stencil_mode,"
    "F_min,F_max,F_avg,G_min,G_max,G_avg,degenerate_count"
)


def csv_field(text):
    """``text`` as one CSV field: quoted as RFC 4180 quotes it, inner quotes
    doubled, when it holds a comma, a quote, CR or LF; else unchanged."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
            f"{csv_field(self.grid_name)},{self.n_cells},{self.p},"
            f"{self.stencil_mode},"
            f"{self.f_min:.17g},{self.f_max:.17g},{self.f_avg:.17g},"
            f"{self.g_min:.17g},{self.g_max:.17g},{self.g_avg:.17g},"
            f"{self.degenerate_count}"
        )


def analyze(grid, p=0, stencil_mode="face"):
    """Evaluate F and G for every cell and aggregate.

    Cells whose stencil is degenerate or singular are flagged, carry NaN in
    the per-cell arrays, and are excluded from the aggregates.

    Raises
    ------
    DegenerateGridError
        The grid has no cells, or more than half of them are degenerate.
    """
    table = lsq_table(grid, p, stencil_mode)
    n_bad = check_stencils(table.degenerate, stencil_mode)
    f_values, g_values, degenerate = table.f, table.g, table.degenerate

    good_f = f_values[~degenerate]
    good_g = g_values[~degenerate]
    return MeasureReport(
        grid_name=grid.name,
        n_cells=grid.n_cells,
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
