"""Weighted linear least-squares gradient kernel.

For a cell j with neighbor offsets (dx_k, dy_k) and inverse-distance weights
w_k = 1/d_k^p, the gradient of a field u solves the 2x2 normal system

    [ sum w^2 dx^2    sum w^2 dx dy ] [gx]   [ sum w^2 dx du ]
    [ sum w^2 dx dy   sum w^2 dy^2  ] [gy] = [ sum w^2 dy du ]

with du_k = u_k - u_j. The system is solved once per cell for unit-impulse
data, giving per-neighbor coefficients (cx_k, cy_k) so that the gradient is
the dot product sum_k (cx_k, cy_k) du_k. :func:`_systems` builds the systems
of all cells block by block for two consumers: :func:`lsq_table` reduces
each block to the quality measures F and G, and the flow solver writes each
block's coefficients into its gradient operators. :mod:`gridgauge.oracle`
holds the per-cell reference both are tested against.

Every per-cell sum over a stencil is a ``np.bincount`` over the cells' rows
of neighbors, which adds a row's values in neighbor order from +0.0, as the
scalar loops do; so are the solver's row sums of the coefficients. Lengths
follow the distance rule :func:`gridgauge.grid._hypot` and G's bump the exp
rule :func:`_exp`, whose scalar twins the reference calls. So the table and
the solver's operators are bit-equal to the per-stencil reference, on every
IEEE-754 machine: no step calls the C library's exp or hypot. The module
uses NumPy alone.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError
from .grid import _hypot

# Distances below this fraction of Grid.bbox_diagonal, over the nodes the
# cells use, make a neighbor unusable for gradient reconstruction.
DEGENERACY_RTOL = 1e-13
# Relative determinant floor for the 2x2 normal matrix.
SINGULARITY_EPS = 1e-12
# Stencil entries per block, which bound the temporary arrays of both
# blocked loops and so the peak memory of analyze on large grids: the
# neighbors of _systems' cells, cut at whole cells, and the padded rows of
# the vertex stencil build. A row wider than this gets a block of its own.
ENTRIES = 2**14
# G's bump by the package's one exp rule (see _exp): ln 2 rounded; fdlibm's
# split of ln 2 (Cody & Waite) into a high part of 32 significant bits, so
# that k * LN2_HI is exact for |k| < 2**21, and the low part; and the
# Taylor coefficients 1/i! of e^r for i = 12 down to 0.
LN2 = 0.6931471805599453
LN2_HI = 6.93147180369123816490e-01
LN2_LO = 1.90821492927058770002e-10
EXP_TAYLOR = tuple(1.0 / math.factorial(i) for i in range(12, -1, -1))


@dataclass
class LsqTable:
    """Stencils, degenerate flags and F/G measures of all cells.

    Row j of the CSR (indptr, indices) lists cell j's neighbors in
    ascending order; f and g are NaN where ``degenerate``.
    """

    degenerate: np.ndarray
    f: np.ndarray
    g: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _exp(q):
    """exp(q) elementwise by the package's one exp rule: k = rint(q / LN2),
    r = (q - k * LN2_HI) - k * LN2_LO, e^r by Horner's rule on EXP_TAYLOR,
    scaled by 2**k with ldexp. Each step is one correctly rounded IEEE
    operation, so the result is the same on every IEEE-754 machine; on
    [-2, 0], where G takes it, it is within 2 ulp of exp. Non-finite lanes
    are masked before the int cast: exp(-inf) = 0, NaN and inf pass."""
    q = np.asarray(q, dtype=float)
    finite = np.isfinite(q)
    x = np.where(finite, q, 0.0)
    k = np.rint(x / LN2)
    r = (x - k * LN2_HI) - k * LN2_LO
    e = np.full_like(r, EXP_TAYLOR[0])
    for c in EXP_TAYLOR[1:]:
        e *= r
        e += c
    e = np.ldexp(e, k.astype(np.int32))
    return np.where(finite, e, np.where(q < 0.0, 0.0, q))


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


def check_options(p, stencil_mode):
    """Raise ValueError naming a weight exponent p other than 0 or 1 or a
    stencil mode other than "face" or "vertex", before anything is built."""
    if p not in (0, 1):
        raise ValueError(f"weight exponent p must be 0 or 1, got {p}")
    if stencil_mode not in ("face", "vertex"):
        raise ValueError(f"unknown stencil mode {stencil_mode!r}")


def _adjacency(grid, mode):
    """Sorted neighbor lists of all cells as CSR (indptr, indices): cells
    sharing an edge, or for mode="vertex" a node."""
    n = grid.n_cells
    # Half the memory of np.intp on any grid that fits in memory.
    index_type = np.int32 if n < 2**31 else np.intp
    if mode == "vertex":
        return _vertex_rows(grid, index_type)
    fa = grid.face_arrays
    inner = fa.neighbor != -1
    own, nb = fa.owner[inner], fa.neighbor[inner]
    # Pairs (row, col) as keys row * n + col, sorted without repeats
    # (np.unique is several times slower), less a cell's pair with itself.
    key = np.sort(np.concatenate([own * n + nb, nb * n + own]))
    row, col = key // n, key % n
    keep = (np.diff(key, prepend=-1) > 0) & (row != col)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row[keep],
                                                        minlength=n))])
    return indptr, col[keep].astype(index_type)


def _vertex_rows(grid, index_type):
    """Vertex-mode CSR (indptr, indices) of :func:`_adjacency`. Each cell's
    row lists the cells at each of its nodes, every list padded to the
    block's largest by repeating its last cell, and is sorted; the repeats
    and the cell itself are then dropped. Blocks hold about ENTRIES padded
    row entries, each sized by the most shared node among its own cells, so
    a node shared by many cells shortens only the blocks that use it
    instead of widening every row."""
    n, cell_nodes = grid.n_cells, grid.cell_nodes
    verts = cell_nodes[cell_nodes >= 0]
    cells = np.repeat(np.arange(n, dtype=index_type), grid.cell_nverts)
    # The cells at each node, ascending, as node_cells[first[v]:last[v] + 1].
    node_cells = cells[np.argsort(verts, kind="stable")]
    size = np.bincount(verts, minlength=grid.n_nodes)
    last = np.cumsum(size) - 1
    first = last - size + 1
    # A triangle's empty slot repeats its first node.
    nv = int(grid.cell_nverts.max(initial=3))
    nodes = np.where(cell_nodes >= 0, cell_nodes, cell_nodes[:, :1])[:, :nv]
    # The padded row width of each cell alone: a block of k cells pads k
    # times its widest, so it holds at most ENTRIES // width[lo] cells.
    width = nv * size[nodes].max(axis=1, initial=1)
    counts, indices = [np.zeros(0, np.intp)], [np.zeros(0, index_type)]
    lo = 0
    while lo < n:
        padded = np.maximum.accumulate(
            width[lo:lo + max(1, ENTRIES // int(width[lo]))])
        padded *= np.arange(1, len(padded) + 1)
        hi = lo + max(1, int(np.count_nonzero(padded <= ENTRIES)))
        v = nodes[lo:hi, :, None]
        at = first[v] + np.arange(size[v].max())
        np.minimum(at, last[v], out=at)
        row = np.sort(node_cells[at.reshape(hi - lo, -1)], axis=1)
        keep = row != np.arange(lo, hi, dtype=index_type)[:, None]
        keep[:, 1:] &= row[:, 1:] != row[:, :-1]
        counts.append(np.count_nonzero(keep, axis=1))
        indices.append(row.ravel()[keep.ravel()])
        lo = hi
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return indptr, np.concatenate(indices)


def _systems(grid, p, indptr, indices):
    """The LSQ systems of the cells with stencils (indptr, indices), in
    blocks of whole rows within ENTRIES neighbors, or one row wider than
    that: (rows, row, dx, dy, d, w2, fro2, bad, cx, cy), the block's cells,
    each entry's row in the block, offset, distance and squared weight
    (1.0 for p = 0), each cell's squared norm of the normal matrix and
    degenerate flag, and the coefficients, zero where degenerate. All
    follow the scalar :func:`gridgauge.oracle.build_system` operation for
    operation, and a cell is degenerate where it or ``build_stencil`` would
    raise. A block is dropped here once yielded, so a consumer that drops
    it too holds one block at a time. The caller checks p."""
    xc, yc = grid.centroids.T
    tol = DEGENERACY_RTOL * grid.bbox_diagonal
    lo = 0
    while lo < grid.n_cells:
        # Whole rows within ENTRIES neighbors, or one row wider than that.
        end = np.searchsorted(indptr, indptr[lo] + ENTRIES, "right") - 1
        rows = slice(lo, max(int(end), lo + 1))
        length = np.diff(indptr[rows.start:rows.stop + 1])
        row = np.repeat(np.arange(len(length)), length)

        def rowsum(v):
            """Per-cell sums of per-neighbor values v, in order from +0.0
            (as floats also where the block has no entries, for which
            bincount gives integers)."""
            return np.bincount(row, weights=v, minlength=len(length)
                               ).astype(float, copy=False)

        nb = indices[indptr[rows.start]:indptr[rows.stop]]
        dx, dy = xc[nb] - xc[lo + row], yc[nb] - yc[lo + row]
        del nb
        d = _hypot(dx, dy)
        # Degenerate cells divide by zero here, and huge offsets overflow;
        # their results are masked.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if p == 0:
                # Weight 1.0: 1.0 * v is v, so no weighted copies are made.
                w2, bx, by = 1.0, dx, dy
            else:
                w2 = (1.0 / d) * (1.0 / d)
                bx, by = w2 * dx, w2 * dy
            m11, m12, m22 = (rowsum(v) for v in (bx * dx, bx * dy, by * dy))
            det = m11 * m22 - m12 * m12
            fro2 = m11 * m11 + 2.0 * m12 * m12 + m22 * m22
            too_close = rowsum(d < tol)
            bad = ((length < 2) | (too_close > 0)
                   | ~(det > SINGULARITY_EPS * fro2)
                   | (det < sys.float_info.min))
            flag = bad[row]
            cx = _coefficients(m22, m12, bx, by, det, row, flag)
            cy = _coefficients(m11, m12, by, bx, det, row, flag)
            del bx, by, flag
        yield rows, row, dx, dy, d, w2, fro2, bad, cx, cy
        del row, dx, dy, d, w2, cx, cy
        lo = rows.stop


def _coefficients(a, b, u, v, det, row, bad):
    """(a[row] * u - b[row] * v) / det[row], zero where bad: the operations
    of that expression, each rounded as it is, with two temporaries instead
    of four."""
    c = a[row]
    c *= u
    t = b[row]
    t *= v
    c -= t
    np.take(det, row, out=t)
    c /= t
    c[bad] = 0.0
    return c


def lsq_table(grid, p=0, stencil_mode="face"):
    """Build the :class:`LsqTable` of a grid from the blocks of
    :func:`_systems`, each dropped once its F and G are taken."""
    check_options(p, stencil_mode)
    indptr, indices = _adjacency(grid, stencil_mode)
    n = grid.n_cells
    table = LsqTable(np.empty(n, dtype=bool), np.empty(n), np.empty(n),
                     indptr, indices)
    for rows, row, dx, dy, d, w2, fro2, bad, cx, cy in _systems(
            grid, p, indptr, indices):
        # G: gradient of the bump exp(-(x^2 + y^2)) in offsets scaled by the
        # farthest neighbor distance.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            far = np.zeros(len(bad))
            np.maximum.at(far, row, d)
            x, y = dx / far[row], dy / far[row]
            q = -(x * x + y * y)
            del x, y
            bump = _exp(q)
            gx, gy = (np.bincount(row, c * (bump - 1.0), len(bad))
                      for c in (cx, cy))
            table.g[rows] = np.where(bad, np.nan, far * _hypot(gx, gy))
            s = np.bincount(row, w2 * d, len(bad))
            table.f[rows] = np.where(bad, np.nan, s / np.sqrt(fro2))
        table.degenerate[rows] = bad
        # Each block is dropped before the next is built.
        del row, dx, dy, d, w2, cx, cy, q, bump
    return table
