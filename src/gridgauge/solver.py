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

Costs are reported in work units: 1 per outer residual evaluation plus 0.5
per symmetric sweep, which stands in for CPU time normalized by the cost of
one residual evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lsq import check_stencils, lsq_table

DIVERGENCE_FACTOR = 1e6
INNER_REDUCTION = 0.1


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


def defect_correction_solve(grid, spec, p=0, stencil_mode="face"):
    """Drive the second-order residual to spec.tolerance (relative L1).

    Outer loop: evaluate R(u); stop on convergence; otherwise relax
    J du = -R with symmetric sweeps and update u. The report carries the
    stop reason, the normalized residual history (entry 0 is 1) and the
    cumulative work units per entry. A residual norm above DIVERGENCE_FACTOR
    times the initial one, or a non-finite one, stops the solve as diverged.
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
        return SolveReport("converged", history, work_history, u)
    if not math.isfinite(r0):
        return SolveReport("diverged", history, work_history, u)

    jac = op.jac
    lower = spla.splu(sp.tril(jac, format="csc"),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0)
    upper = spla.splu(sp.triu(jac, format="csc"),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0)

    status = "not-converged"
    for _ in range(spec.max_outer):
        b = -res
        bnorm = float(np.abs(b).sum())
        delta = np.zeros(n)
        r = b.copy()
        for _ in range(spec.max_sweeps):
            delta += lower.solve(r)
            r = b - jac @ delta
            delta += upper.solve(r)
            r = b - jac @ delta
            work += 0.5
            if float(np.abs(r).sum()) <= INNER_REDUCTION * bnorm:
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
