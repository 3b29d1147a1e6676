"""Model implicit solver: steady linear advection on an unstructured grid.

The discretization is a second-order cell-centered finite-volume scheme.
Face states are reconstructed to face midpoints with the least-squares
gradients of the LSQ table and fed to the scalar upwind flux

    flux(uL, uR, n) = 0.5 (a.n)(uL + uR) - 0.5 |a.n| (uR - uL)

with advection direction a = (cos theta, sin theta). The manufactured field
sin(pi x) sin(pi y) supplies the source term a.grad(u*) and the Dirichlet
inflow data, so the exact steady solution is known.

The residual is affine in u, R(u) = J u + Kx (Gx u) + Ky (Gy u) - b: Gx, Gy
give the LSQ gradients, Kx, Ky carry them to the face states, b holds the
source and the inflow data, and J is the exact Jacobian of the
*first-order* residual (zero gradients). The implicit iteration is defect
correction: each update solves J du = -R(u), which with exact inner solves
propagates the error by -J^-1 (Kx Gx + Ky Gy). The linear systems are
relaxed with symmetric point-implicit (forward/backward) sweeps until the
inner residual drops tenfold or the sweep cap is hit.

The sweeps run in downwind order (Bey & Wittum, Appl. Numer. Math. 23,
1997). J's off-diagonal nonzeros are the upwind neighbors; one
strong-components pass over that graph orders its components so that each
is downwind of those before it, and the sweeps solve the triangles of
P J P^T, x = P^T solve(P r), while the operators, the residual and the
history stay in file order. Where the graph is acyclic, as on every
generated grid, P J P^T has no nonzero above its diagonal, so one forward
sweep solves J exactly and the counts do not depend on the cell numbering;
only a cycle's entries lie above it. So the upper triangle is the diagonal
outside the cycles, and the lower one holds the upwind neighbors and is
deep: hundreds of levels at theta = 30 on 129^2 triangle grids.

A triangle at most MAX_LEVELS deep is solved level by level in NumPy
(level scheduling, Anderson & Saad, Int. J. High Speed Computing 1(1),
1989), x = r / D and then, level after level,
x[rows] = (r[rows] - S[rows] @ x) / D[rows], with D the diagonal and S the
zero-free strict part; each row is summed from +0.0 in ascending column
order, which rests on IEEE arithmetic alone. A deeper triangle goes to
SuperLU, factored once with J's stored zeros, whose bits it depends on, and
with panel_size=1: a triangle factors without updates, having nothing below
its diagonal to eliminate, so the panel width sizes only SuperLU's work
arrays, which are allocated in C and grow with it, and cannot change a bit
of the factors. A short walk settles most deep triangles before any level
is counted: MAX_LEVELS + 1 steps along strict nonzero entries from one of
a few end columns prove a row deeper than the cap, so the triangle goes
straight to SuperLU. Only where no walk gets that far do the level rounds
run, and they decide as they would alone.

The face adjacency and J's CSR pattern are built once, for J, Kx and Ky and
for face-stencil Gx and Gy. J keeps that pattern, stored zeros included,
until its triangles are built; Kx and Ky share one zero-free pattern, the
entries where J, Kx or Ky is nonzero, and the loop takes J on it too. Each
sums its terms per entry in the order of a COO-to-CSR assembly. Gx and Gy
take each block of LSQ coefficients straight into their rows, beside a
diagonal slot, and share their pattern, J's for face stencils, wherever
neither drops a zero. An operator that drops one owns arrays of exactly its
entries (see _Advection for the order of the build).

Costs are reported in work units: 1 per outer residual evaluation plus 0.5
per symmetric sweep, which stands in for CPU time normalized by the cost of
one residual evaluation.

SciPy is imported by the functions that use it, not with the module, so that
importing gridgauge loads NumPy alone and only a solve pays for SciPy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lsq import _adjacency, _systems, check_stencils

DIVERGENCE_FACTOR = 1e6
INNER_REDUCTION = 0.1
# The deepest sweep triangle solved level by level; a deeper one goes to
# SuperLU. In downwind order the upper triangle is the diagonal, or a few
# levels inside cycles, and the lower one is far deeper than this, hundreds
# of levels: a walk of MAX_LEVELS + 1 steps (_too_deep) proves that in about
# 0.02 ms, where counting the levels copies the triangle and runs all
# MAX_LEVELS + 1 rounds over every entry (0.2-9 ms from 17^2 to 129^2). The
# cap was set when the sweeps ran in file order, with both triangles shallow
# or deep. Per triangular solve (2-core x86-64, best of 5; BENCH_19.json),
# SuperLU -> levels: 129^2 nodes depth 3 479 -> 87 us, depth 14 776 -> 359;
# 65^2 depth 12 119 -> 96; 33^2 depth 3 45 -> 18, depth 12 29 -> 66; 17^2
# depth 2 9 -> 10, depth 9 9 -> 42. A level costs about 5 us up to 33^2 and
# 20 us at 129^2, so 8 levels win from 65^2 up and lose some 30 us below.
MAX_LEVELS = 8


def exact_solution(x, y):
    """Manufactured field; doubles as the Dirichlet inflow data."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def source_term(x, y, theta):
    """Advective derivative a.grad(u*) of the manufactured field."""
    t = math.radians(theta)
    return np.pi * (
        math.cos(t) * np.cos(np.pi * x) * np.sin(np.pi * y)
        + math.sin(t) * np.sin(np.pi * x) * np.cos(np.pi * y)
    )


@dataclass
class ProblemSpec:
    theta: float = 30.0
    tolerance: float = 1e-10
    max_outer: int = 200
    max_sweeps: int = 30
    first_order: bool = False

    def validate(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.max_outer < 1 or self.max_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class SolveReport:
    """Why the solve stopped (``status``: "converged", "diverged" or
    "not-converged"), its history and its final state."""

    status: str
    residual_history: list
    work_history: list
    solution: np.ndarray

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"

    @property
    def iterations_to_tol(self):
        return len(self.residual_history) - 1 if self.converged else None

    @property
    def work_units(self):
        return self.work_history[-1]

    def write_history_csv(self, stream):
        stream.write("iter,residual_norm,work_units\n")
        for i, (r, w) in enumerate(zip(self.residual_history, self.work_history)):
            stream.write(f"{i},{r:.17g},{w:.17g}\n")


class _Advection:
    """R(u) = J u + Kx (Gx u) + Ky (Gy u) - b, with J, Kx, Ky from one rule.

    The operators share their patterns as the module docstring says. J, Kx
    and Ky come first, Gx and Gy next and b last, so that the working
    arrays of the first build are gone before the gradient build, the
    largest transient, starts, and it runs beside as little as can be."""

    def __init__(self, grid, theta, p=0, stencil_mode="face",
                 first_order=False, source=source_term, inflow=exact_solution):
        import scipy.sparse as sp

        n = grid.n_cells
        pattern = _with_diagonal(*_adjacency(grid, "face"))
        self.jac, self.kx, self.ky = _face_operators(grid, theta, pattern)
        if stencil_mode != "face":
            pattern = None
        if first_order:
            self.degenerate = np.zeros(n, dtype=bool)
            self.gx_op = self.gy_op = sp.csr_matrix((n, n))  # zero gradients
        else:
            self.degenerate, self.gx_op, self.gy_op = _gradient_operators(
                grid, p, stencil_mode, pattern)
        del pattern
        self.b = _source_vector(grid, theta, source, inflow)

    def share_pattern(self):
        """Move J onto the pattern of Kx and Ky, without the stored zeros
        that only SuperLU's bits rest on. A CSR matvec adds each row from
        +0.0, so its sums never turn -0.0, and on finite vectors the zero
        products it drops add nothing.

        That pattern is J's nonzero entries: the terms of each entry of J
        share one sign (outflow weights on the diagonal, inflow weights off
        it), so an entry is zero only where all its weights are, and then
        Kx's and Ky's, each weight times a finite offset, are zero too.
        Were it not so, J's data would not fit Kx's indices and SciPy would
        refuse the matrix."""
        import scipy.sparse as sp

        jac = self.jac
        self.jac = sp.csr_matrix(
            (jac.data[jac.data != 0], self.kx.indices, self.kx.indptr),
            shape=jac.shape)

    def residual(self, u):
        return (self.jac @ u + self.kx @ (self.gx_op @ u)
                + self.ky @ (self.gy_op @ u) - self.b)


def _upwind(fa, theta, faces=slice(None)):
    """Weights (up, dn) of the flux up x_near + dn x_far out of the owner's
    side of the given faces, and (vp, vn) out of the neighbor's side. With
    c = a.n on the owner's side, (up, dn) = (c + |c|, c - |c|) l / 2 and
    (vp, vn) likewise of -c. These equal (-dn, -up), so what leaves one cell
    enters the other, but negating would flip the sign of zero weights in
    J's pinned bytes."""
    t = math.radians(theta)
    c = (math.cos(t) * fa.normal[faces, 0]
         + math.sin(t) * fa.normal[faces, 1])
    length = fa.length[faces]
    return [(0.5 * (s + np.abs(s)) * length, 0.5 * (s - np.abs(s)) * length)
            for s in (c, -c)]


def _face_operators(grid, theta, pattern):
    """J, Kx and Ky of _Advection, with J on the face pattern (indptr,
    indices, diag) of _with_diagonal."""
    import scipy.sparse as sp

    n = grid.n_cells
    indptr, indices, diag = pattern
    slots = _face_slots(grid, indptr, indices, diag)
    fa = grid.face_arrays
    own, nb = fa.owner, fa.neighbor
    inner, outer = nb != -1, nb == -1
    (up, dn), (vp, vn) = _upwind(fa, theta)

    def faces(so, sn):
        """Sum over the sides of all faces of the flux out of that side,
        with the owner's state scaled by so and the neighbor's by sn; a
        boundary face has only its owner's side. Each entry adds its terms
        in the order of the slots, from -0.0 so that the first passes
        unchanged: x = first, then x += next, as SciPy sums the duplicates
        of a COO matrix. J's pinned bytes, stored zeros included, rest on
        that order."""
        data = np.full(len(indices), -0.0)
        for slot, (w, s, side) in zip(slots, (
                (up, so, inner), (dn, sn, inner), (vp, sn, inner),
                (vn, so, inner), (up, so, outer))):
            np.add.at(data, slot, (w * s)[side])
        return data

    # Face states are reconstructed to the midpoint m from the centroid
    # c_j, u_j + (m - c_j) . grad u_j, so Kx scales x_j by mx - cx_j.
    cx, cy = grid.centroids.T
    mx, my = fa.midpoint.T
    jac = faces(1.0, 1.0)
    kx = faces(mx - cx[own], mx - cx[nb])
    ky = faces(my - cy[own], my - cy[nb])
    del slots
    nonzero = (jac != 0) | (kx != 0) | (ky != 0)
    ptr, ind = _kept(indptr, indices, nonzero)
    kx, ky = (sp.csr_matrix((k[nonzero], ind, ptr), shape=(n, n))
              for k in (kx, ky))
    return sp.csr_matrix((jac, indices, indptr), shape=(n, n)), kx, ky


def _source_vector(grid, theta, source, inflow):
    """b of _Advection: the source, less what the inflow data, a boundary
    face's far state, carries in."""
    fa = grid.face_arrays
    outer = np.flatnonzero(fa.neighbor == -1)
    dn = _upwind(fa, theta, outer)[0][1]
    mx, my = fa.midpoint[outer].T
    ub = np.asarray(inflow(mx, my), dtype=float)
    cx, cy = grid.centroids.T
    return source(cx, cy, theta) * grid.areas - np.bincount(
        fa.owner[outer], weights=dn * ub, minlength=grid.n_cells)


def _with_diagonal(indptr, indices):
    """A CSR pattern (indptr, indices) whose rows are ascending and lack
    their own column, as lsq's stencils do, with it inserted: the new
    (indptr, indices), of one dtype so that SciPy takes them as they are,
    and the positions of the diagonal in them."""
    n = len(indptr) - 1
    # Half the memory of np.intp; the one index dtype of the pattern and of
    # every slot array built from it.
    index = np.int32 if len(indices) + n < 2**31 else np.intp
    row = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    at = (indptr[:-1] + np.bincount(row[indices < row], minlength=n)
          ).astype(index)
    del row
    cells = np.arange(n, dtype=index)
    indices = np.insert(indices.astype(index, copy=False), at, cells)
    at += cells
    return (indptr + np.arange(n + 1)).astype(index), indices, at


def _kept(indptr, indices, keep):
    """The CSR pattern (indptr, indices) of the entries where keep is True."""
    before = np.zeros(len(keep) + 1, dtype=indptr.dtype)
    np.cumsum(keep, dtype=indptr.dtype, out=before[1:])
    return before[indptr], indices[keep]


def _face_slots(grid, indptr, indices, diag):
    """The slots of J's pattern (indptr, indices), each cell's own column
    at diag and its face neighbors' ascending, that the sides of the faces
    add to, in the order they add: owner-owner, owner-neighbor,
    neighbor-neighbor and neighbor-owner of each interior face, then
    owner-owner of each boundary face."""
    fa = grid.face_arrays
    inner = fa.neighbor != -1
    o, m, ob = fa.owner[inner], fa.neighbor[inner], fa.owner[~inner]
    n = grid.n_cells
    key = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    key += indices
    slots = (diag[o], np.searchsorted(key, o * n + m), diag[m],
             np.searchsorted(key, m * n + o), diag[ob])
    return [s.astype(indptr.dtype, copy=False) for s in slots]


def _gradient_operators(grid, p, stencil_mode, pattern=None):
    """The degenerate flags of the LSQ stencils, and Gx and Gy: each row holds
    the cell's coefficients and, on the diagonal, 0.0 less their sum, so
    that grad = (Gx u, Gy u). Each block of :func:`gridgauge.lsq._systems`
    is written into place and dropped; its row sums are ``np.bincount``
    sums, from +0.0 in column order. Zeros are dropped, so degenerate rows
    are empty; an operator that drops none takes the pattern as it is, so
    Gx and Gy share it. ``pattern`` is the ``_with_diagonal`` (indptr,
    indices, diag) of the stencils' ``_adjacency``; given, the stencils are
    read off it, else both are built here."""
    import scipy.sparse as sp

    n = grid.n_cells
    if pattern is None:
        ptr, stencil = _adjacency(grid, stencil_mode)
    else:
        ptr = pattern[0] - np.arange(n + 1)
        stencil = np.delete(pattern[1], pattern[2])
    degenerate = np.empty(n, dtype=bool)
    data = [np.empty(len(stencil) + n), np.empty(len(stencil) + n)]
    for rows, row, *_, bad, cx, cy in _systems(grid, p, ptr, stencil):
        # Row j starts at slot ptr[j] + j, and its diagonal follows its
        # neighbors below j.
        lo, hi = ptr[rows.start], ptr[rows.stop]
        above = stencil[lo:hi] > rows.start + row
        at = np.arange(lo + rows.start, hi + rows.start)
        at += row
        at += above
        diag = (ptr[rows] + np.arange(rows.start, rows.stop)
                + np.bincount(row[~above], minlength=len(bad)))
        for out, c in zip(data, (cx, cy)):
            out[at] = c
            out[diag] = 0.0 - np.bincount(row, c, minlength=len(bad))
        degenerate[rows] = bad
        # Each block is dropped before the next is built.
        del row, _, cx, cy, c, above, at
    indptr, indices = (pattern or _with_diagonal(ptr, stencil))[:2]
    del ptr, stencil, pattern

    def gradient(data):
        keep = data != 0
        if keep.all():
            return sp.csr_matrix((data, indices, indptr), shape=(n, n))
        ptr, ind = _kept(indptr, indices, keep)
        return sp.csr_matrix((data[keep], ind, ptr), shape=(n, n))

    gx = gradient(data.pop(0))
    return degenerate, gx, gradient(data.pop(0))


def residual_second_order(grid, u, theta, *, p=0, stencil_mode="face",
                          first_order=False, source=source_term,
                          inflow=exact_solution):
    """Second-order residual of state u (per cell, integral form).

    p and stencil_mode select the gradient stencils. ``source`` and
    ``inflow`` default to the manufactured problem; tests may override them
    (e.g. with zeros) to probe conservation.
    """
    op = _Advection(grid, theta, p, stencil_mode,
                    first_order=first_order, source=source, inflow=inflow)
    return op.residual(np.asarray(u, dtype=float))


def jacobian_low_order(grid, theta):
    """Sparse exact Jacobian of the first-order residual (CSR)."""
    return _Advection(grid, theta, first_order=True).jac


class _LevelSolve:
    """The level-by-level solve of a triangle D + S (module docstring), with
    (rows, S[rows], D[rows]) per level from 1 up. S[rows] @ x is SciPy's CSR
    matvec, which sums each row from +0.0 in ascending column order."""

    def __init__(self, diag, strict, level):
        self.diag = diag
        self.parts = []
        for k in range(1, int(level.max(initial=0)) + 1):
            rows = np.flatnonzero(level == k)
            self.parts.append((rows, strict[rows], diag[rows]))

    def solve(self, r):
        x = r / self.diag
        for rows, part, diag in self.parts:
            x[rows] = (r[rows] - part @ x) / diag
        return x


def _levels(strict):
    """The level of each row of a zero-free strict triangle (CSR): 0 for a
    row without entries, else one more than the deepest level it reads.
    None when some row is deeper than MAX_LEVELS.

    After k rounds of level = 1 + max(level[cols]) from all zeros, each
    row holds min(its level, k), so a round that changes nothing ends it.
    """
    n = strict.shape[0]
    level = np.zeros(n, dtype=np.intp)
    if strict.nnz == 0:
        return level
    nonempty = np.flatnonzero(np.diff(strict.indptr))
    starts = strict.indptr[nonempty]
    for _ in range(MAX_LEVELS + 1):
        deeper = np.zeros(n, dtype=np.intp)
        deeper[nonempty] = np.maximum.reduceat(level[strict.indices] + 1,
                                               starts)
        if np.array_equal(deeper, level):
            return level
        level = deeper
    return None


def _too_deep(tri):
    """Whether a walk along the strict nonzero entries of the triangle
    ``tri`` (CSC) proves some row deeper than MAX_LEVELS. From each of its
    first and last three columns it steps MAX_LEVELS + 1 times from column
    j to the last row that reads j; a row that reads a row of level k has
    level k + 1 or more, so a walk that makes every step ends deeper than
    MAX_LEVELS. A walk that stops short proves nothing."""
    n = tri.shape[0]
    ptr, rows, data = tri.indptr, tri.indices, tri.data
    for j in (*range(min(n, 3)), *range(max(n - 3, 0), n)):
        for _ in range(MAX_LEVELS + 1):
            lo, hi = ptr[j], ptr[j + 1]
            readers = [i for i, v in zip(rows[lo:hi].tolist(),
                                         data[lo:hi].tolist())
                       if v != 0 and i != j]
            if not readers:
                break
            j = readers[-1]
        else:
            return True
    return False


def _triangle_solver(tri):
    """A solver of one sweep triangle of P J P^T, given in CSC with J's
    stored zeros: a _LevelSolve when its strict part is at most MAX_LEVELS
    levels deep, else SuperLU's factor of ``tri`` as given. Both have
    solve(r). _levels counts the levels only where _too_deep's walk does
    not already prove the triangle too deep."""
    import scipy.sparse.linalg as spla

    if not _too_deep(tri):
        strict = tri.tocsr()
        strict.setdiag(0.0)
        strict.eliminate_zeros()
        strict.sort_indices()
        level = _levels(strict)
        if level is not None:
            return _LevelSolve(tri.diagonal(), strict, level)
        del strict  # before SuperLU allocates its factors
    return spla.splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     panel_size=1)


def _downwind_order(jac):
    """The cells in downwind order, perm (cell perm[k] comes k-th), and its
    inverse inv (cell i comes inv[i]-th): the strongly connected components
    of J's upwind graph, each upwind of the ones after it, with a
    component's cells in ascending index order. SciPy labels the components
    in the order its depth-first search completes them (Pearce, 2005), so a
    cell's upwind neighbors outside its component carry smaller labels; the
    tests pin that. The graph is J's zero-free pattern: SciPy would take J's
    stored zeros, the downwind side of each face, for edges."""
    from scipy.sparse.csgraph import connected_components

    graph = jac.copy()  # eliminate_zeros works in place
    graph.eliminate_zeros()
    labels = connected_components(graph, directed=True,
                                  connection="strong")[1]
    perm = np.argsort(labels, kind="stable")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return perm, inv


def _sweep_triangles(jac, inv):
    """The lower and upper triangles of P J P^T (CSC, with J's stored
    zeros), where P moves cell i to position inv[i]."""
    import scipy.sparse as sp

    n = jac.shape[0]
    inv = inv.astype(jac.indices.dtype)
    row = np.repeat(inv, np.diff(jac.indptr))
    col = inv[jac.indices]
    return [sp.csc_matrix((jac.data[k], (row[k], col[k])), shape=(n, n))
            for k in (col <= row, col >= row)]


def defect_correction_solve(grid, spec, p=0, stencil_mode="face"):
    """Drive the second-order residual to spec.tolerance (relative L1).

    Outer loop: evaluate R(u); stop on convergence; otherwise relax
    J du = -R with symmetric sweeps in downwind order and update u. The
    report carries the stop reason, the normalized residual history (entry
    0 is 1, or 0 when the initial residual is zero) and the cumulative work
    units per entry. A residual norm above DIVERGENCE_FACTOR times the
    initial one, or a non-finite one, stops the solve as diverged.
    """
    spec.validate()

    op = _Advection(grid, spec.theta, p, stencil_mode,
                    first_order=spec.first_order)
    check_stencils(op.degenerate, stencil_mode)

    n = grid.n_cells
    u = np.zeros(n)
    res = op.residual(u)
    work = 1.0
    r0 = float(np.abs(res).sum())
    history = [1.0]
    work_history = [work]

    if r0 == 0.0:
        return SolveReport("converged", [0.0], work_history, u)
    if not math.isfinite(r0):
        return SolveReport("diverged", history, work_history, u)

    # The triangles keep J's stored zeros, which SuperLU's bits rest on; the
    # loop takes J on the pattern of Kx and Ky.
    full = op.jac
    op.share_pattern()
    jac = op.jac
    perm, inv = _downwind_order(jac)
    triangles = _sweep_triangles(full, inv)
    del full  # before SuperLU allocates its factors
    lower, upper = map(_triangle_solver, triangles)
    del triangles

    status = "not-converged"
    b, r, mag = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(spec.max_outer):
        np.negative(res, out=b)
        bnorm = float(np.abs(b, out=mag).sum())
        delta = np.zeros(n)
        r[:] = b
        for _ in range(spec.max_sweeps):
            delta += lower.solve(r[perm])[inv]
            np.subtract(b, jac @ delta, out=r)
            delta += upper.solve(r[perm])[inv]
            np.subtract(b, jac @ delta, out=r)
            work += 0.5
            if float(np.abs(r, out=mag).sum()) <= INNER_REDUCTION * bnorm:
                break

        u = u + delta
        res = op.residual(u)
        work += 1.0
        rnorm = float(np.abs(res).sum())
        history.append(rnorm / r0)
        work_history.append(work)
        if rnorm / r0 <= spec.tolerance:
            status = "converged"
            break
        if not math.isfinite(rnorm) or rnorm > DIVERGENCE_FACTOR * r0:
            status = "diverged"
            break

    return SolveReport(status, history, work_history, u)
