"""Weighted linear least-squares gradient kernel.

For a cell j with neighbor offsets (dx_k, dy_k) and inverse-distance weights
w_k = 1/d_k^p, the gradient of a field u solves the 2x2 normal system

    [ sum w^2 dx^2    sum w^2 dx dy ] [gx]   [ sum w^2 dx du ]
    [ sum w^2 dx dy   sum w^2 dy^2  ] [gy] = [ sum w^2 dy du ]

with du_k = u_k - u_j. The system is solved once per cell for unit-impulse
data, giving per-neighbor coefficients (cx_k, cy_k) so that the gradient is
the dot product sum_k (cx_k, cy_k) du_k. :func:`lsq_table` builds them for
all cells at once, shared by the quality measures and the flow solver;
:func:`build_system` is the per-stencil reference it is tested against.
The solver needs only the coefficients and the degenerate flags, so it
builds a coefficient-only table, whose F and G fields are None.

Every per-cell sum over a stencil is a CSR matvec, which adds a row's
entries in neighbor order from 0.0, as the scalar loops do; so the table and
the solver's gradient operators are bit-equal to the per-stencil reference.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateGridError, SingularStencilError
from .grid import DEGENERACY_RTOL, _hypot

# Relative determinant floor for the 2x2 normal matrix.
SINGULARITY_EPS = 1e-12
# Cells per block of lsq_table: bounds its temporary arrays, which set the
# peak memory of analyze on large grids.
BLOCK = 1024


@dataclass
class LsqSystem:
    """Per-cell normal matrix, weights, and gradient coefficients."""

    p: int
    weights: tuple
    m11: float
    m12: float
    m22: float
    cx: tuple
    cy: tuple
    condition: float

    @property
    def n(self):
        return len(self.cx)

    @property
    def frobenius_norm(self):
        """Frobenius norm of the full 2x2 matrix (off-diagonal counted twice)."""
        return math.sqrt(
            self.m11 * self.m11 + 2.0 * self.m12 * self.m12 + self.m22 * self.m22
        )


def build_system(stencil, p=0):
    """Assemble and solve the normal system of a stencil.

    p is the inverse-distance weight exponent, restricted to 0 (uniform
    weights, the default) or 1.

    Raises
    ------
    SingularStencilError
        det(A^T A) is not above SINGULARITY_EPS * ||A^T A||_F^2, i.e. the
        neighbor centroids are (numerically) collinear, or the normal
        matrix overflows, or its determinant is subnormal.
    """
    if p not in (0, 1):
        raise ValueError(f"weight exponent p must be 0 or 1, got {p}")

    dx, dy, d = stencil.dx, stencil.dy, stencil.d
    if p == 0:
        w2 = tuple(1.0 for _ in d)
        weights = w2
    else:
        weights = tuple(1.0 / dk for dk in d)
        w2 = tuple(wk * wk for wk in weights)

    m11 = m12 = m22 = 0.0
    for k in range(len(d)):
        m11 += w2[k] * dx[k] * dx[k]
        m12 += w2[k] * dx[k] * dy[k]
        m22 += w2[k] * dy[k] * dy[k]

    det = m11 * m22 - m12 * m12
    fro2 = m11 * m11 + 2.0 * m12 * m12 + m22 * m22
    # Written so that a NaN det (from overflow) counts as singular, and so
    # does a subnormal one (from underflow), which has lost its precision.
    if not det > SINGULARITY_EPS * fro2 or det < sys.float_info.min:
        raise SingularStencilError(
            f"cell {stencil.cell}: normal matrix is singular "
            f"(det={det:.3e}, ||A^T A||_F^2={fro2:.3e})"
        )

    cx = []
    cy = []
    for k in range(len(d)):
        bx = w2[k] * dx[k]
        by = w2[k] * dy[k]
        cx.append((m22 * bx - m12 * by) / det)
        cy.append((m11 * by - m12 * bx) / det)

    # Eigenvalue ratio of the symmetric 2x2 normal matrix.
    half_trace = 0.5 * (m11 + m22)
    disc = math.sqrt(max(0.25 * (m11 - m22) ** 2 + m12 * m12, 0.0))
    lo = half_trace - disc
    condition = (half_trace + disc) / lo if lo > 0.0 else math.inf

    return LsqSystem(
        p=p,
        weights=weights,
        m11=m11,
        m12=m12,
        m22=m22,
        cx=tuple(cx),
        cy=tuple(cy),
        condition=condition,
    )


def apply_gradient(system, du):
    """Gradient (gx, gy) from per-neighbor value differences du."""
    if len(du) != system.n:
        raise ValueError(
            f"expected {system.n} value differences, got {len(du)}"
        )
    gx = gy = 0.0
    for k in range(system.n):
        gx += system.cx[k] * du[k]
        gy += system.cy[k] * du[k]
    return (gx, gy)


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
    sharing an edge, or for mode="vertex" a node (C C^T less its diagonal,
    C the cell-node incidence)."""
    n = grid.n_cells
    if mode == "face":
        fa = grid.face_arrays
        inner = fa.neighbor != -1
        a = sp.csr_matrix((np.ones(inner.sum(), np.int8),
                           (fa.owner[inner], fa.neighbor[inner])), shape=(n, n))
        a = a + a.T
    elif mode == "vertex":
        verts = grid.cell_nodes[grid.cell_nodes >= 0]
        a = sp.csr_matrix((np.ones(len(verts), np.int8), verts,
                           np.concatenate([[0], np.cumsum(grid.cell_nverts)])),
                          shape=(n, grid.n_nodes))
        a = a @ a.T
        a.setdiag(0)
        a.eliminate_zeros()
    else:
        raise ValueError(f"unknown stencil mode {mode!r}")
    a.sort_indices()
    return a.indptr, a.indices


def lsq_table(grid, p=0, stencil_mode="face", *, measures=True):
    """Build the :class:`LsqTable` of a grid.

    A cell is degenerate where :func:`~gridgauge.grid.build_stencil` or
    :func:`build_system` would raise. Cells are taken in blocks of BLOCK,
    and all arithmetic follows the scalar functions operation for operation,
    so the table equals their results bit for bit. With ``measures=False``
    the table stops at the coefficients and the degenerate flags, which is
    all the solver uses: F and G are not computed, and ``f`` and ``g`` are
    None.
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
        start = indptr[rows.start:rows.stop + 1] - indptr[lo]
        length = np.diff(start)
        row = np.repeat(np.arange(len(length)), length)
        # rowsum @ v: per-cell sums of per-neighbor values v, in order.
        rowsum = sp.csr_matrix((np.ones(len(row)), np.arange(len(row)), start),
                               shape=(len(length), len(row)))
        nb = indices[flat]
        dx, dy = xc[nb] - xc[lo + row], yc[nb] - yc[lo + row]
        d = _hypot(dx, dy)
        # Degenerate cells divide by zero here, and huge offsets overflow;
        # their results are masked.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w2 = np.ones_like(d) if p == 0 else (1.0 / d) * (1.0 / d)
            bx, by = w2 * dx, w2 * dy
            m11, m12, m22 = (rowsum @ v for v in (bx * dx, bx * dy, by * dy))
            det = m11 * m22 - m12 * m12
            fro2 = m11 * m11 + 2.0 * m12 * m12 + m22 * m22
            too_close = rowsum @ (d < tol).astype(float)
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
                gx, gy = (rowsum @ (c * (bump - 1.0)) for c in (cx, cy))
                s = rowsum @ (w2 * d)
                table.f[rows] = np.where(bad, np.nan, s / np.sqrt(fro2))
                table.g[rows] = np.where(bad, np.nan, smax * _hypot(gx, gy))
        table.degenerate[rows] = bad
        table.cx[flat], table.cy[flat] = cx, cy
    return table
