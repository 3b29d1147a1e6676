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

Each sweep solves one triangle of J exactly. J's off-diagonal nonzeros are
the upwind neighbors, so a triangle's strict part is often only a few levels
deep (level scheduling, Anderson & Saad, Int. J. High Speed Computing 1(1),
1989): at theta = 30 the upper triangle is diagonal on quad grids and 1 or 3
levels deep on triangle grids. A triangle at most MAX_LEVELS deep is solved
level by level in NumPy, x = r / D and then, level after level,
x[rows] = (r[rows] - S[rows] @ x) / D[rows], with D the diagonal and S the
zero-free strict part; each row is summed from +0.0 in ascending column
order, which rests on IEEE arithmetic alone. A deeper triangle goes to
SuperLU, factored once with J's stored zeros, whose bits it depends on.

Costs are reported in work units: 1 per outer residual evaluation plus 0.5
per symmetric sweep, which stands in for CPU time normalized by the cost of
one residual evaluation.

SciPy is imported by the functions that use it, not with the module, so that
importing gridgauge loads NumPy alone and only a solve pays for SciPy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lsq import check_stencils, lsq_table

DIVERGENCE_FACTOR = 1e6
INNER_REDUCTION = 0.1
# The deepest sweep triangle solved level by level; a deeper one goes to
# SuperLU. Per triangular solve (2-core x86-64, best of 5; BENCH_19.json),
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
    """R(u) = J u + Kx (Gx u) + Ky (Gy u) - b, with J, Kx, Ky from one rule."""

    def __init__(self, grid, theta, p=0, stencil_mode="face",
                 first_order=False, source=source_term, inflow=exact_solution):
        import scipy.sparse as sp

        n = grid.n_cells
        t = math.radians(theta)
        fa = grid.face_arrays
        own, nb = fa.owner, fa.neighbor
        inner, outer = nb != -1, nb == -1

        def upwind(c):
            """Weights (up, dn) of the flux up x_near + dn x_far out of a face
            side whose outward normal has a.n = c."""
            return (0.5 * (c + np.abs(c)) * fa.length,
                    0.5 * (c - np.abs(c)) * fa.length)

        # (up, dn) on the owner's side; (vp, vn) on the neighbor's. These
        # equal (-dn, -up), so what leaves one cell enters the other, but
        # negating would flip the sign of zero weights in J's pinned bytes.
        c = math.cos(t) * fa.normal[:, 0] + math.sin(t) * fa.normal[:, 1]
        (up, dn), (vp, vn) = upwind(c), upwind(-c)

        def faces(so, sn):
            """Sum over the sides of all faces of the flux out of that side,
            with the owner's state scaled by so and the neighbor's by sn; a
            boundary face has only its owner's side."""
            o, m, ob = own[inner], nb[inner], own[outer]
            rows = np.concatenate([o, o, m, m, ob])
            cols = np.concatenate([o, m, m, o, ob])
            vals = np.concatenate([(up * so)[inner], (dn * sn)[inner],
                                   (vp * sn)[inner], (vn * so)[inner],
                                   (up * so)[outer]])
            return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

        # Face states are reconstructed to the midpoint m from the centroid
        # c_j, u_j + (m - c_j) . grad u_j, so Kx scales x_j by mx - cx_j.
        cx, cy = grid.centroids.T
        mx, my = fa.midpoint.T
        self.jac = faces(np.ones(len(c)), np.ones(len(c)))
        self.kx = faces(mx - cx[own], mx - cx[nb])
        self.ky = faces(my - cy[own], my - cy[nb])
        # A boundary face's far state is the inflow data.
        ub = np.asarray(inflow(mx[outer], my[outer]), dtype=float)
        self.b = source(cx, cy, theta) * grid.areas \
            - np.bincount(own[outer], weights=dn[outer] * ub, minlength=n)

        # The stencils' degenerate flags, for the solve's check; not the
        # whole table, which would stay alive through the solve.
        if first_order:
            self.degenerate = np.zeros(n, dtype=bool)
            self.gx_op = self.gy_op = sp.csr_matrix((n, n))  # zero gradients
        else:
            # Gx, Gy with rows summing to zero, so grad = (Gx u, Gy u); their
            # row sums follow the order rule of the lsq module docstring. The
            # subtraction drops zeros, so degenerate rows are empty.
            table = lsq_table(grid, p, stencil_mode, measures=False)
            self.degenerate = table.degenerate
            ops = [sp.csr_matrix((c, table.indices, table.indptr), shape=(n, n))
                   for c in (table.cx, table.cy)]
            self.gx_op, self.gy_op = (g - sp.diags(g @ np.ones(n)) for g in ops)

    def residual(self, u):
        return (self.jac @ u + self.kx @ (self.gx_op @ u)
                + self.ky @ (self.gy_op @ u) - self.b)


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


def _triangle_solver(tri):
    """A solver of one sweep triangle of J, given in CSC with J's stored
    zeros: a _LevelSolve when its strict part is at most MAX_LEVELS levels
    deep, else SuperLU's factor of ``tri`` as given. Both have solve(r)."""
    import scipy.sparse.linalg as spla

    strict = tri.tocsr()
    strict.setdiag(0.0)
    strict.eliminate_zeros()
    strict.sort_indices()
    level = _levels(strict)
    if level is None:
        return spla.splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    return _LevelSolve(tri.diagonal(), strict, level)


def defect_correction_solve(grid, spec, p=0, stencil_mode="face"):
    """Drive the second-order residual to spec.tolerance (relative L1).

    Outer loop: evaluate R(u); stop on convergence; otherwise relax
    J du = -R with symmetric sweeps and update u. The report carries the
    stop reason, the normalized residual history (entry 0 is 1, or 0 when
    the initial residual is zero) and the cumulative work units per entry.
    A residual norm above DIVERGENCE_FACTOR times the initial one, or a
    non-finite one, stops the solve as diverged.
    """
    import scipy.sparse as sp

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

    jac = op.jac
    lower = _triangle_solver(sp.tril(jac, format="csc"))
    upper = _triangle_solver(sp.triu(jac, format="csc"))
    # SuperLU's bits depend on J's stored zeros, so the solvers come first.
    # A CSR matvec adds each row from +0.0, so its sums never turn -0.0, and
    # on finite vectors the zero products it drops add nothing.
    for m in (jac, op.kx, op.ky):
        m.eliminate_zeros()

    status = "not-converged"
    b, r, mag = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(spec.max_outer):
        np.negative(res, out=b)
        bnorm = float(np.abs(b, out=mag).sum())
        delta = np.zeros(n)
        r[:] = b
        for _ in range(spec.max_sweeps):
            delta += lower.solve(r)
            np.subtract(b, jac @ delta, out=r)
            delta += upper.solve(r)
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
