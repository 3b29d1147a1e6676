"""Scalar per-cell reference for the stencils, the least-squares gradient
coefficients and the F and G measures.

No command runs these functions: :func:`gridgauge.lsq.lsq_table` computes
the same quantities for all cells at once, following them operation for
operation, and the tests and the benchmark's correctness gate hold the
table to them bit for bit. They take one cell at a time in Python floats,
so each step can be read against the paper's formulas. No other module of
the package imports this one.
"""

import math
import sys
import weakref
from dataclasses import dataclass

from .errors import DegenerateStencilError, SingularStencilError
from .grid import DEGENERACY_RTOL
from .lsq import SINGULARITY_EPS


@dataclass
class Stencil:
    """Neighbor set of one cell with centroid offsets and distances."""

    cell: int
    neighbors: tuple
    dx: tuple
    dy: tuple
    d: tuple

    @property
    def n(self):
        return len(self.neighbors)


@dataclass
class LsqSystem:
    """Per-cell normal matrix, weights, and gradient coefficients."""

    weights: tuple
    m11: float
    m12: float
    m22: float
    cx: tuple
    cy: tuple

    @property
    def n(self):
        return len(self.cx)

    @property
    def frobenius_norm(self):
        """Frobenius norm of the full 2x2 matrix (off-diagonal counted twice)."""
        return math.sqrt(
            self.m11 * self.m11 + 2.0 * self.m12 * self.m12 + self.m22 * self.m22
        )


def _face_adjacency(grid):
    """Per cell, the cells across its interior faces, in face order."""
    adj = [[] for _ in range(grid.n_cells)]
    fa = grid.face_arrays
    for owner, neighbor in zip(fa.owner.tolist(), fa.neighbor.tolist()):
        if neighbor != -1:
            adj[owner].append(neighbor)
            adj[neighbor].append(owner)
    return adj


def _vertex_adjacency(grid):
    """Per cell, the sorted other cells that share a node with it."""
    cells = [row[:k] for row, k in zip(grid.cell_nodes.tolist(),
                                       grid.cell_nverts.tolist())]
    node_cells = [[] for _ in range(grid.n_nodes)]
    for j, verts in enumerate(cells):
        for v in verts:
            node_cells[v].append(j)
    adj = []
    for j, verts in enumerate(cells):
        seen = set()
        for v in verts:
            seen.update(node_cells[v])
        seen.discard(j)
        adj.append(sorted(seen))
    return adj


_ADJACENCY = {"face": _face_adjacency, "vertex": _vertex_adjacency}
# mode -> (weak reference to a grid's face_arrays, that grid's neighbor
# lists). derive_geometry makes a new face_arrays on every call, so a new or
# re-derived grid never matches the lists of another.
_last = {}


def _neighbor_lists(grid, mode):
    """The neighbor lists of all cells of the grid, kept for the last grid
    asked in each mode, as build_stencil is called for every cell in turn."""
    ref, adj = _last.get(mode, (None, None))
    if ref is None or ref() is not grid.face_arrays:
        adj = _ADJACENCY[mode](grid)
        _last[mode] = (weakref.ref(grid.face_arrays), adj)
    return adj


def build_stencil(grid, cell_index, mode="face"):
    """Neighbor stencil of one cell, neighbors in ascending index order.

    mode="face" takes edge-sharing cells, mode="vertex" all cells sharing at
    least one node.

    Raises
    ------
    DegenerateStencilError
        Fewer than 2 neighbors, or a centroid distance below
        ``DEGENERACY_RTOL`` times the bounding-box diagonal.
    """
    if mode not in _ADJACENCY:
        raise ValueError(f"unknown stencil mode {mode!r}")
    neighbors = _neighbor_lists(grid, mode)[cell_index]
    if mode == "face":
        neighbors = sorted(set(neighbors))

    if len(neighbors) < 2:
        raise DegenerateStencilError(
            f"cell {cell_index}: only {len(neighbors)} neighbor(s) in "
            f"{mode} mode"
        )

    xj, yj = grid.centroids[cell_index].tolist()
    tol = DEGENERACY_RTOL * grid.bbox_diagonal
    dx = []
    dy = []
    d = []
    for k in neighbors:
        xk, yk = grid.centroids[k].tolist()
        ddx, ddy = xk - xj, yk - yj
        dist = math.hypot(ddx, ddy)
        if dist < tol:
            raise DegenerateStencilError(
                f"cells {cell_index} and {k}: centroid distance {dist} below "
                f"degeneracy threshold {tol}"
            )
        dx.append(ddx)
        dy.append(ddy)
        d.append(dist)

    return Stencil(
        cell=cell_index,
        neighbors=tuple(neighbors),
        dx=tuple(dx),
        dy=tuple(dy),
        d=tuple(d),
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

    return LsqSystem(
        weights=weights,
        m11=m11,
        m12=m12,
        m22=m22,
        cx=tuple(cx),
        cy=tuple(cy),
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
