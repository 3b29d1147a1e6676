"""Model implicit solver: steady linear advection on an unstructured grid.

The discretization is a second-order cell-centered finite-volume scheme.
Face states are reconstructed to face midpoints with the least-squares
gradients of the LSQ table and fed to the scalar upwind flux

    flux(uL, uR, n) = 0.5 (a.n)(uL + uR) - 0.5 |a.n| (uR - uL)

with advection direction a = (cos theta, sin theta). The manufactured field
sin(pi x) sin(pi y) supplies the source term a.grad(u*) and the Dirichlet
inflow data, so the exact steady solution is known.

The implicit iteration is defect correction: the nonlinear update solves
J du = -R(u) where R is the second-order residual but J is the exact
Jacobian of the *first-order* residual (zero gradients). The linear systems
are relaxed with symmetric point-implicit (forward/backward) sweeps until
the inner residual drops tenfold or the sweep cap is hit.

Costs are reported in work units: 1 per outer residual evaluation plus 0.5
per symmetric sweep, which stands in for CPU time normalized by the cost of
one residual evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import _require_geometry
from .lsq import lsq_table

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
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_outer < 1 or self.max_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class SolveReport:
    residual_history: list
    work_history: list
    iterations_to_tol: int | None
    work_units: float
    converged: bool
    diverged: bool
    solution: np.ndarray

    def write_history_csv(self, stream):
        stream.write("iter,residual_norm,work_units\n")
        for i, (r, w) in enumerate(zip(self.residual_history, self.work_history)):
            stream.write(f"{i},{r:.17g},{w:.17g}\n")


class _Advection:
    """Packed face arrays and residual/Jacobian evaluation for one setup."""

    def __init__(self, grid, theta, p=0, stencil_mode="face",
                 first_order=False, source=source_term, inflow=exact_solution):
        _require_geometry(grid)
        self.grid = grid
        self.theta = theta
        n = grid.n_cells

        t = math.radians(theta)
        ax, ay = math.cos(t), math.sin(t)

        fa = grid.face_arrays
        inner = fa.neighbor != -1
        outer = ~inner
        an = ax * fa.normal[:, 0] + ay * fa.normal[:, 1]
        mx, my = fa.midpoint.T

        self.own, self.nb = fa.owner[inner], fa.neighbor[inner]
        self.an, self.ln = an[inner], fa.length[inner]
        self.mx, self.my = mx[inner], my[inner]

        self.bown, self.ban = fa.owner[outer], an[outer]
        self.bln, self.bmx, self.bmy = fa.length[outer], mx[outer], my[outer]
        self.ub = np.asarray(inflow(self.bmx, self.bmy), dtype=float)

        self.cx, self.cy = grid.centroids.T
        self.fv = source(self.cx, self.cy, theta) * grid.areas

        if first_order:
            self.gx_op = self.gy_op = sp.csr_matrix((n, n))  # zero gradients
        else:
            # Gx, Gy with rows summing to zero, so grad = (Gx u, Gy u). The
            # matvec adds each row's entries in order, as the scalar kernel
            # does; the subtraction drops zeros, so degenerate rows are empty.
            table = lsq_table(grid, p, stencil_mode)
            ops = [sp.csr_matrix((c, table.indices, table.indptr), shape=(n, n))
                   for c in (table.cx, table.cy)]
            self.gx_op, self.gy_op = (g - sp.diags(g @ np.ones(n)) for g in ops)

    def residual(self, u):
        n = self.grid.n_cells
        gx = self.gx_op @ u
        gy = self.gy_op @ u

        res = np.zeros(n)
        own, nb = self.own, self.nb
        if len(own):
            ul = u[own] + gx[own] * (self.mx - self.cx[own]) \
                + gy[own] * (self.my - self.cy[own])
            ur = u[nb] + gx[nb] * (self.mx - self.cx[nb]) \
                + gy[nb] * (self.my - self.cy[nb])
            an = self.an
            flux = (0.5 * an * (ul + ur) - 0.5 * np.abs(an) * (ur - ul)) * self.ln
            res += np.bincount(own, weights=flux, minlength=n)
            res -= np.bincount(nb, weights=flux, minlength=n)

        bown = self.bown
        if len(bown):
            ul = u[bown] + gx[bown] * (self.bmx - self.cx[bown]) \
                + gy[bown] * (self.bmy - self.cy[bown])
            ban = self.ban
            bflux = (0.5 * ban * (ul + self.ub)
                     - 0.5 * np.abs(ban) * (self.ub - ul)) * self.bln
            res += np.bincount(bown, weights=bflux, minlength=n)

        return res - self.fv

    def jacobian(self):
        """Exact Jacobian of the first-order (zero-gradient) residual."""
        n = self.grid.n_cells
        own, nb, an, ln = self.own, self.nb, self.an, self.ln
        dplus = 0.5 * (an + np.abs(an)) * ln
        dminus = 0.5 * (an - np.abs(an)) * ln
        rows = np.concatenate([own, own, nb, nb, self.bown])
        cols = np.concatenate([own, nb, nb, own, self.bown])
        vals = np.concatenate([
            dplus,                                     # outflow part, owner
            dminus,                                    # inflow from neighbor
            0.5 * (-an + np.abs(an)) * ln,             # same face, seen from nb
            0.5 * (-an - np.abs(an)) * ln,
            0.5 * (self.ban + np.abs(self.ban)) * self.bln,
        ])
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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
    op = _Advection(grid, theta, first_order=True)
    return op.jacobian()


def defect_correction_solve(grid, spec, p=0, stencil_mode="face"):
    """Drive the second-order residual to spec.tolerance (relative L1).

    Outer loop: evaluate R(u); stop on convergence; otherwise relax
    J du = -R with symmetric sweeps and update u. The returned report
    carries the normalized residual history (entry 0 is 1) and cumulative
    work units per entry. A residual norm above DIVERGENCE_FACTOR times the
    initial one, or a non-finite one, stops the solve as diverged.
    """
    spec.validate()
    _require_geometry(grid)

    op = _Advection(grid, spec.theta, p, stencil_mode,
                    first_order=spec.first_order)

    n = grid.n_cells
    u = np.zeros(n)
    res = op.residual(u)
    work = 1.0
    r0 = float(np.abs(res).sum())
    history = [1.0]
    work_history = [work]

    if r0 == 0.0:
        return SolveReport(history, work_history, 0, work, True, False, u)
    if not math.isfinite(r0):
        return SolveReport(history, work_history, None, work, False, True, u)

    jac = op.jacobian()
    lower = spla.splu(sp.tril(jac, format="csc"),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0)
    upper = spla.splu(sp.triu(jac, format="csc"),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0)

    converged = False
    diverged = False
    iterations = None
    for it in range(1, spec.max_outer + 1):
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
            converged = True
            iterations = it
            break
        if not math.isfinite(rnorm) or rnorm > DIVERGENCE_FACTOR * r0:
            diverged = True
            break

    return SolveReport(
        residual_history=history,
        work_history=work_history,
        iterations_to_tol=iterations,
        work_units=work,
        converged=converged,
        diverged=diverged,
        solution=u,
    )
