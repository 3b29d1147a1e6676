import io
import math

import numpy as np
import pytest

from gridgauge import (
    DegenerateStencilError,
    GenSpec,
    ProblemSpec,
    SingularStencilError,
    apply_gradient,
    build_stencil,
    build_system,
    defect_correction_solve,
    exact_solution,
    generate,
    jacobian_low_order,
    residual_second_order,
    save_grid,
    source_term,
)
from gridgauge import solver
from gridgauge.cli import main

# frozen from a reference run: quad 33x33, theta=30, p=0, face stencils,
# tol 1e-10, sweep cap 30
QUAD33_BASELINE_ITERS = 33


def zero_source(x, y, theta):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_inflow(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def scalar_systems(grid):
    """Per-cell face stencils and solved systems from the scalar functions,
    None where the stencil is degenerate or singular."""
    stencils = []
    systems = []
    for j in range(grid.n_cells):
        try:
            stencil = build_stencil(grid, j)
            system = build_system(stencil)
        except (DegenerateStencilError, SingularStencilError):
            stencil = system = None
        stencils.append(stencil)
        systems.append(system)
    return stencils, systems


def injected_residual(nx, theta):
    grid = generate(GenSpec(kind="quad", nx=nx, ny=nx))
    u = exact_solution(grid.centroids[:, 0], grid.centroids[:, 1])
    return residual_second_order(grid, u, theta)


def test_source_term_matches_directional_derivative():
    # oracle: central finite differences of the manufactured field
    rng = np.random.default_rng(1)
    eps = 1e-6
    for theta in (0.0, 30.0, 75.0):
        t = math.radians(theta)
        ax, ay = math.cos(t), math.sin(t)
        for _ in range(20):
            x, y = rng.uniform(0.1, 0.9, 2)
            fd = (
                exact_solution(x + eps * ax, y + eps * ay)
                - exact_solution(x - eps * ax, y - eps * ay)
            ) / (2 * eps)
            assert source_term(x, y, theta) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("pair", [(17, 33), (33, 65)])
def test_residual_second_order_refinement(pair):
    nxa, nxb = pair
    ra = np.abs(injected_residual(nxa, 0.0)).sum()
    rb = np.abs(injected_residual(nxb, 0.0)).sum()
    assert 3.2 <= ra / rb <= 4.8


def test_zero_state_zero_data_zero_residual():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=5))
    res = residual_second_order(
        grid, np.zeros(grid.n_cells), 30.0,
        source=zero_source, inflow=zero_inflow,
    )
    assert np.abs(res).max() == 0.0


def test_single_cell_residual_finite():
    grid = generate(GenSpec(kind="quad", nx=2, ny=2))
    stencils, systems = scalar_systems(grid)
    assert stencils == [None]
    res = residual_second_order(grid, np.zeros(1), 30.0)
    assert res.shape == (1,)
    assert np.isfinite(res).all()


def test_linear_field_exact_away_from_fallback_cells():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=1))
    stencils, systems = scalar_systems(grid)
    cx, cy = grid.centroids[:, 0], grid.centroids[:, 1]
    theta = 25.0
    t = math.radians(theta)

    def src(x, y, th):
        return 3.0 * math.cos(t) - 2.0 * math.sin(t) + np.zeros_like(
            np.asarray(x, dtype=float)
        )

    def inflow(x, y):
        return 3.0 * x - 2.0 * y

    res = residual_second_order(
        grid, 3.0 * cx - 2.0 * cy, theta,
        source=src, inflow=inflow,
    )
    affected = set(j for j, s in enumerate(stencils) if s is None)
    for f in grid.faces:
        if f.neighbor != -1 and (f.owner in affected or f.neighbor in affected):
            affected.add(f.owner)
            affected.add(f.neighbor)
    mask = np.ones(grid.n_cells, dtype=bool)
    mask[list(affected)] = False
    assert mask.sum() > grid.n_cells // 2
    assert np.abs(res[mask]).max() < 1e-13


def test_jacobian_theta_zero_upwind_structure():
    grid = generate(GenSpec(kind="quad", nx=5, ny=5))
    h = 0.25
    jac = jacobian_low_order(grid, 0.0).toarray()
    ncx = 4
    j = 1 * ncx + 1  # interior cell (1, 1)
    assert jac[j, j - 1] == pytest.approx(-h, abs=1e-14)   # west, full upwind
    assert jac[j, j + 1] == pytest.approx(0.0, abs=1e-14)  # east
    assert jac[j, j] == pytest.approx(h, abs=1e-14)
    assert jac[j, j - ncx] == pytest.approx(0.0, abs=1e-14)
    assert jac[j, j + ncx] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 30.0, 120.0, 245.0])
def test_jacobian_diagonal_nonnegative_and_dominant(theta):
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=3))
    jac = jacobian_low_order(grid, theta).toarray()
    diag = np.diag(jac)
    assert (diag >= 0.0).all()
    off = jac - np.diag(diag)
    assert (off <= 1e-14).all()  # off-diagonals are inflow terms, never positive
    # diagonal collects outflow, off-diagonals inflow: weak row dominance,
    # with equality on cells not touching an inflow boundary
    row_sum = np.abs(off).sum(axis=1)
    assert (diag - row_sum >= -1e-10).all()


def test_jacobian_pattern_matches_face_adjacency():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=3))
    jac = jacobian_low_order(grid, 30.0)
    adj = {j: {j} for j in range(grid.n_cells)}
    for f in grid.faces:
        if f.neighbor != -1:
            adj[f.owner].add(f.neighbor)
            adj[f.neighbor].add(f.owner)
    indptr, indices = jac.indptr, jac.indices
    for j in range(grid.n_cells):
        cols = set(indices[indptr[j]:indptr[j + 1]])
        assert cols == adj[j]


def test_first_order_newton_property():
    grid = generate(GenSpec(kind="quad", nx=33, ny=33))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0, first_order=True))
    assert report.converged
    assert report.iterations_to_tol <= 2


def test_quad33_regression_baseline():
    grid = generate(GenSpec(kind="quad", nx=33, ny=33))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    assert report.converged
    assert report.iterations_to_tol == QUAD33_BASELINE_ITERS
    assert report.residual_history[0] == 1.0
    assert report.residual_history[-1] <= 1e-10
    assert report.work_units > 0.0


def test_history_monotone_on_quad():
    grid = generate(GenSpec(kind="quad", nx=17, ny=17))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    hist = report.residual_history
    for i in range(1, len(hist) - 1):
        assert hist[i + 1] < hist[i]


def test_determinism():
    grid = generate(GenSpec(kind="quad", nx=17, ny=17))
    a = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    b = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    assert a.residual_history == b.residual_history
    assert a.work_history == b.work_history
    assert np.array_equal(a.solution, b.solution)


def test_solution_accuracy_order():
    errors = {}
    for nx in (17, 33):
        grid = generate(GenSpec(kind="quad", nx=nx, ny=nx))
        report = defect_correction_solve(grid, ProblemSpec(theta=30.0))
        assert report.converged
        err = np.abs(
            report.solution
            - exact_solution(grid.centroids[:, 0], grid.centroids[:, 1])
        )
        errors[nx] = float((err * grid.areas).sum())
    order = math.log2(errors[17] / errors[33])
    assert order >= 1.8


def test_conservation_interior_fluxes_cancel():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=7))
    stencils, systems = scalar_systems(grid)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.0, 1.0, grid.n_cells)
    theta = 40.0
    res = residual_second_order(
        grid, u, theta, source=zero_source, inflow=zero_inflow
    )

    # independent tally of the boundary fluxes only
    t = math.radians(theta)
    ax, ay = math.cos(t), math.sin(t)
    grads = {}
    for j, (st, sy) in enumerate(zip(stencils, systems)):
        if st is None:
            grads[j] = (0.0, 0.0)
        else:
            du = [u[k] - u[j] for k in st.neighbors]
            grads[j] = apply_gradient(sy, du)
    boundary_total = 0.0
    for f in grid.faces:
        if f.neighbor != -1:
            continue
        j = f.owner
        cx, cy = grid.cells[j].centroid
        gx, gy = grads[j]
        ul = u[j] + gx * (f.midpoint[0] - cx) + gy * (f.midpoint[1] - cy)
        an = ax * f.normal[0] + ay * f.normal[1]
        boundary_total += (0.5 * an * ul - 0.5 * abs(an) * (-ul)) * f.length
    assert res.sum() == pytest.approx(boundary_total, abs=1e-12)


def test_irregular_grid_worse_than_quad():
    quad = generate(GenSpec(kind="quad", nx=33, ny=33))
    irr = generate(GenSpec(kind="tri_irregular", nx=33, ny=33, perturb=0.3, seed=42))
    rq = defect_correction_solve(quad, ProblemSpec(theta=30.0, tolerance=1e-8))
    ri = defect_correction_solve(irr, ProblemSpec(theta=30.0, tolerance=1e-8))
    assert rq.converged
    if ri.converged:
        assert rq.iterations_to_tol <= ri.iterations_to_tol
    # with face stencils and no damping this grid family drives the plain
    # defect-correction loop unstable, which is the signal being measured
    assert ri.diverged or ri.iterations_to_tol is None or \
        rq.iterations_to_tol <= ri.iterations_to_tol


def test_vertex_stencils_stabilize_irregular_grid():
    irr = generate(GenSpec(kind="tri_irregular", nx=33, ny=33, perturb=0.3, seed=42))
    report = defect_correction_solve(
        irr, ProblemSpec(theta=30.0, tolerance=1e-8), stencil_mode="vertex"
    )
    assert report.converged


def test_divergence_reported():
    irr = generate(GenSpec(kind="tri_irregular", nx=33, ny=33, perturb=0.3, seed=42))
    report = defect_correction_solve(irr, ProblemSpec(theta=30.0, tolerance=1e-8))
    assert not report.converged
    assert report.diverged
    assert report.iterations_to_tol is None


def test_history_csv_format():
    grid = generate(GenSpec(kind="quad", nx=9, ny=9))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    buf = io.StringIO()
    report.write_history_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "iter,residual_norm,work_units"
    assert len(lines) == len(report.residual_history) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0
    assert float(first[2]) == 1.0
    # work units strictly increase
    works = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(works, works[1:]))


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(tolerance=0.0).validate()
    with pytest.raises(ValueError):
        ProblemSpec(max_outer=0).validate()
    with pytest.raises(ValueError):
        ProblemSpec(max_sweeps=0).validate()


def test_max_iterations_cap():
    grid = generate(GenSpec(kind="quad", nx=17, ny=17))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0, max_outer=2))
    assert not report.converged
    assert not report.diverged
    assert report.iterations_to_tol is None
    assert len(report.residual_history) == 3


@pytest.mark.parametrize("nan_call", [1, 2])
def test_non_finite_residual_diverges(nan_call, monkeypatch, tmp_path, capsys):
    # A NaN residual norm fails both the convergence and the divergence
    # comparison; it must still stop the solve as diverged.
    real = solver._Advection.residual
    calls = []

    def residual(self, u):
        calls.append(None)
        res = real(self, u)
        return res if len(calls) < nan_call else np.full_like(res, np.nan)

    monkeypatch.setattr(solver._Advection, "residual", residual)
    grid = generate(GenSpec(kind="quad", nx=9, ny=9))
    report = defect_correction_solve(grid, ProblemSpec())
    assert report.diverged and not report.converged
    assert len(report.residual_history) == nan_call
    assert len(calls) == nan_call

    path = tmp_path / "g.txt"
    save_grid(grid, path)
    calls.clear()
    assert main(["solve", str(path)]) == 4
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("diverged grid=quad_9x9 iterations=n/a ")
