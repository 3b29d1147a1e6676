"""Weighted linear least-squares gradient kernel.

For a cell j with neighbor offsets (dx_k, dy_k) and inverse-distance weights
w_k = 1/d_k^p, the gradient of a field u solves the 2x2 normal system

    [ sum w^2 dx^2    sum w^2 dx dy ] [gx]   [ sum w^2 dx du ]
    [ sum w^2 dx dy   sum w^2 dy^2  ] [gy] = [ sum w^2 dy du ]

with du_k = u_k - u_j. The system is solved once per cell for unit-impulse
data, giving per-neighbor coefficients (cx_k, cy_k) so that the gradient is
the dot product sum_k (cx_k, cy_k) du_k. :func:`lsq_table` builds them for
all cells at once, shared by the quality measures and the flow solver;
:mod:`gridgauge.oracle` holds the per-cell reference it is tested against.
The solver needs only the coefficients and the degenerate flags, so it
builds a coefficient-only table, whose F and G fields are None.

Every per-cell sum over a stencil is a ``np.bincount`` over the cells' rows
of neighbors, which adds a row's values in neighbor order from +0.0, as the
scalar loops do and as the CSR matvecs of the solver's gradient operators
do; so the table and those operators are bit-equal to the per-stencil
reference. The module uses NumPy alone.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError
from .grid import DEGENERACY_RTOL, _hypot

# Relative determinant floor for the 2x2 normal matrix.
SINGULARITY_EPS = 1e-12
# Cells per block of lsq_table: bounds its temporary arrays, which set the
# peak memory of analyze on large grids.
BLOCK = 1024


@dataclass
class LsqTable:
    """Stencils, gradient coefficients and F/G measures of all cells.

    Row j of the CSR (indptr, indices, cx, cy) lists cell j's neighbors in
    ascending order with their coefficients, zero where ``degenerate``.
    f and g are NaN where degenerate, and None in the coefficient-only
    table the solver builds (``lsq_table(..., measures=False)``).
    """

    degenerate: np.ndarray
    f: np.ndarray
    g: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    cx: np.ndarray
    cy: np.ndarray


def check_stencils(degenerate, stencil_mode):
    """Number of degenerate cells, given an :class:`LsqTable`'s
    ``degenerate`` flags; raises :class:`DegenerateGridError` when there are
    no cells, or when they are more than half of all cells."""
    n, n_bad = len(degenerate), int(degenerate.sum())
    if n == 0:
        raise DegenerateGridError("grid has no cells")
    if n_bad * 2 > n:
        raise DegenerateGridError(
            f"{n_bad} of {n} cells have degenerate stencils "
            f"({stencil_mode} mode)"
        )
    return n_bad


def _adjacency(grid, mode):
    """Sorted neighbor lists of all cells as CSR (indptr, indices): cells
    sharing an edge, or for mode="vertex" a node. Vertex pairs are made from
    the node-to-cell incidence a block of BLOCK cells at a time, which bounds
    their temporary arrays."""
    n = grid.n_cells
    if mode == "face":
        fa = grid.face_arrays
        inner = fa.neighbor != -1
        own, nb = fa.owner[inner], fa.neighbor[inner]
        blocks = [(0, n, np.concatenate([own * n + nb, nb * n + own]))]
    elif mode == "vertex":
        blocks = _vertex_pairs(grid)
    else:
        raise ValueError(f"unknown stencil mode {mode!r}")
    # Half the memory of np.intp on any grid that fits in memory.
    index_type = np.int32 if n < 2**31 else np.intp
    counts, indices = [np.zeros(0, np.intp)], [np.zeros(0, index_type)]
    for lo, hi, key in blocks:
        # Pairs (row, col) as keys row * n + col, sorted without repeats
        # (np.unique is several times slower), less a cell's pair with itself.
        key = np.sort(key)
        row, col = key // n, key % n
        keep = (np.diff(key, prepend=-1) > 0) & (row != col)
        counts.append(np.bincount(row[keep] - lo, minlength=hi - lo))
        indices.append(col[keep].astype(index_type))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return indptr, np.concatenate(indices)


def _vertex_pairs(grid):
    """(lo, hi, keys) per block of cells lo..hi-1: row * n + col for every
    cell row of the block and cell col that share a node, with repeats."""
    n = grid.n_cells
    verts = grid.cell_nodes[grid.cell_nodes >= 0]
    cells = np.repeat(np.arange(n), grid.cell_nverts)
    cell_ptr = np.concatenate([[0], np.cumsum(grid.cell_nverts)])
    # The cells at each node, in CSR form over the nodes.
    node_cells = cells[np.argsort(verts, kind="stable")]
    node_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(verts, minlength=grid.n_nodes))])
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        inc = slice(cell_ptr[lo], cell_ptr[hi])
        nodes = verts[inc]
        size = node_ptr[nodes + 1] - node_ptr[nodes]
        # Position k of the run for node v reads node_cells[node_ptr[v] + k].
        at = np.repeat(node_ptr[nodes] - (np.cumsum(size) - size), size)
        at += np.arange(len(at))
        yield lo, hi, np.repeat(cells[inc] * n, size) + node_cells[at]


def lsq_table(grid, p=0, stencil_mode="face", *, measures=True):
    """Build the :class:`LsqTable` of a grid.

    A cell is degenerate where :func:`gridgauge.oracle.build_stencil` or
    :func:`gridgauge.oracle.build_system` would raise. Cells are taken in
    blocks of BLOCK, and all arithmetic follows those scalar functions
    operation for operation, so the table equals their results bit for
    bit. With ``measures=False`` the table stops at the coefficients and
    the degenerate flags, which is all the solver uses: F and G are not
    computed, and ``f`` and ``g`` are None.
    """
    if p not in (0, 1):
        raise ValueError(f"weight exponent p must be 0 or 1, got {p}")
    indptr, indices = _adjacency(grid, stencil_mode)
    n, nnz = grid.n_cells, len(indices)
    xc, yc = grid.centroids.T
    tol = DEGENERACY_RTOL * grid.bbox_diagonal
    fg = (np.empty(n), np.empty(n)) if measures else (None, None)
    table = LsqTable(np.empty(n, dtype=bool), *fg,
                     indptr, indices, np.empty(nnz), np.empty(nnz))
    for lo in range(0, n, BLOCK):
        rows = slice(lo, min(lo + BLOCK, n))
        flat = slice(indptr[rows.start], indptr[rows.stop])
        length = np.diff(indptr[rows.start:rows.stop + 1])
        row = np.repeat(np.arange(len(length)), length)

        def rowsum(v):
            """Per-cell sums of per-neighbor values v, in order from +0.0."""
            return np.bincount(row, weights=v, minlength=len(length))

        nb = indices[flat]
        dx, dy = xc[nb] - xc[lo + row], yc[nb] - yc[lo + row]
        d = _hypot(dx, dy)
        # Degenerate cells divide by zero here, and huge offsets overflow;
        # their results are masked.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w2 = np.ones_like(d) if p == 0 else (1.0 / d) * (1.0 / d)
            bx, by = w2 * dx, w2 * dy
            m11, m12, m22 = (rowsum(v) for v in (bx * dx, bx * dy, by * dy))
            det = m11 * m22 - m12 * m12
            fro2 = m11 * m11 + 2.0 * m12 * m12 + m22 * m22
            too_close = rowsum(d < tol)
            bad = ((length < 2) | (too_close > 0)
                   | ~(det > SINGULARITY_EPS * fro2)
                   | (det < sys.float_info.min))
            cx = np.where(bad[row], 0.0,
                          (m22[row] * bx - m12[row] * by) / det[row])
            cy = np.where(bad[row], 0.0,
                          (m11[row] * by - m12[row] * bx) / det[row])
            if measures:
                # G: gradient of the bump exp(-(x^2 + y^2)) in offsets
                # scaled by the farthest neighbor distance.
                smax = np.zeros(len(length))
                np.maximum.at(smax, row, d)
                x, y = dx / smax[row], dy / smax[row]
                bump = np.fromiter(map(math.exp, (-(x * x + y * y)).tolist()),
                                   float, len(x))
                gx, gy = (rowsum(c * (bump - 1.0)) for c in (cx, cy))
                s = rowsum(w2 * d)
                table.f[rows] = np.where(bad, np.nan, s / np.sqrt(fro2))
                table.g[rows] = np.where(bad, np.nan, smax * _hypot(gx, gy))
        table.degenerate[rows] = bad
        table.cx[flat], table.cy[flat] = cx, cy
    return table
