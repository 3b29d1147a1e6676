import hashlib
import io
import math

import numpy as np
import pytest

from gridgauge import (
    DegenerateStencilError,
    GenSpec,
    ProblemSpec,
    SingularStencilError,
    analyze,
    defect_correction_solve,
    exact_solution,
    generate,
    jacobian_low_order,
    residual_second_order,
    save_grid,
    source_term,
)
from gridgauge.oracle import apply_gradient, build_stencil, build_system
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
    fa = grid.face_arrays
    for owner, nb in zip(fa.owner.tolist(), fa.neighbor.tolist()):
        if nb != -1 and (owner in affected or nb in affected):
            affected.add(owner)
            affected.add(nb)
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
    fa = grid.face_arrays
    for owner, nb in zip(fa.owner.tolist(), fa.neighbor.tolist()):
        if nb != -1:
            adj[owner].add(nb)
            adj[nb].add(owner)
    indptr, indices = jac.indptr, jac.indices
    for j in range(grid.n_cells):
        cols = set(indices[indptr[j]:indptr[j + 1]])
        assert cols == adj[j]


# sha256 of the Jacobian's CSR arrays (indptr and indices as int64, data as
# float64) on 17x17 grids (tri_irregular: perturb 0.3, seed 42), taken before
# the residual and the Jacobian were assembled by one face rule.
JACOBIAN_GOLDEN = {
    ("quad", 0.0):
        "a481964020b9f695fc89057730bfef68153d2359f8d60ede0585e20d9c018cac",
    ("quad", 30.0):
        "472f8bb7587aa45dc48377ac3a8ec5a7203e35e92cd0bfa1946a689af9a4d2be",
    ("quad", 245.0):
        "0991cdc9d67d7d1d731b6065c8fb480472f526e655f56baf978266613127f8bd",
    ("tri_regular", 0.0):
        "6715a72c1bc4ac9b3b1c27d323ba9afb69995afd828368372a5367e01d2f5cde",
    ("tri_regular", 30.0):
        "c512c271cef8a70d2eb8eeb01fe1a2d952183f7252b2b62dba57ab0dd47f85bb",
    ("tri_regular", 245.0):
        "62c6490bafeabcf5994211a863a6fa2b9aa70811ab4d530c0f9052cb458d4966",
    ("tri_irregular", 0.0):
        "2ce3901726c21d29feab0f691dce8ef3b3b0fe84bba1a90164a77276aea56082",
    ("tri_irregular", 30.0):
        "6d70606293db6a4c3ecd68f3549ba06dfee2f422dcb5b787ef9c52efb675581e",
    ("tri_irregular", 245.0):
        "1aa8bcbf51ef655354b8ba825c3ae1b122040d18712637a4b2786511c1a72103",
}


@pytest.mark.parametrize("kind, theta", sorted(JACOBIAN_GOLDEN))
def test_jacobian_golden_digest(kind, theta):
    grid = generate(GenSpec(kind=kind, nx=17, ny=17, perturb=0.3, seed=42))
    jac = jacobian_low_order(grid, theta)
    digest = hashlib.sha256()
    for a, dtype in ((jac.indptr, np.int64), (jac.indices, np.int64),
                     (jac.data, np.float64)):
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert digest.hexdigest() == JACOBIAN_GOLDEN[kind, theta]


# (exit code, sha256 of solve's history CSV followed by its summary line) on
# 17x17 grids (tri_irregular: perturb 0.3, seed 42) at theta 30 and the
# default tolerance; tri_irregular with face stencils diverges.
SOLVE_GOLDEN = {
    ("quad", "face", 0): (0, "030ed878da39cf2a28a3d9cc022dc5b2"
                             "22fe98875506894b92b37c52fa12e4f4"),
    ("quad", "face", 1): (0, "030ed878da39cf2a28a3d9cc022dc5b2"
                             "22fe98875506894b92b37c52fa12e4f4"),
    ("quad", "vertex", 0): (0, "159035190e7b8b157016cfca24458735"
                               "5250cab0d482e1765e0a781e7d080152"),
    ("quad", "vertex", 1): (0, "df706e8ad28fbcd2ece9cddca250c2d6"
                               "85949f9f0f7d0de4167ed5985c23109a"),
    ("tri_irregular", "face", 0): (4, "26bd6fb7fbd1dbdadaa8c76329a5e91d"
                                      "b9feec321fc21f424b5be2c304a03a01"),
    ("tri_irregular", "face", 1): (4, "37064fff9c23f3711992c924a0de7f6f"
                                      "a558624732027fd731fabf404c4788a4"),
    ("tri_irregular", "vertex", 0): (0, "c08644b2c34d30d491b31108c3e75b2b"
                                        "f47e775e20db9ab12ae8aaace582c5d5"),
    ("tri_irregular", "vertex", 1): (0, "12e0f90332da74047a77c8d0a3749f68"
                                        "459a1bf44e4942ddaee9b58cd0fa3314"),
    ("tri_regular", "face", 0): (0, "807cbe30a4ca449ce0f2a3604bed5957"
                                    "ae49c602f8c0c317450496060ff9737c"),
    ("tri_regular", "face", 1): (0, "6cea381456456654c51ae8ebc527508a"
                                    "87d5e4b67e194a0ce861549a372260b4"),
    ("tri_regular", "vertex", 0): (0, "9f8e5ccb97c028f7ba9b1969a5b30a84"
                                      "3e37d92b70331e644f013966de9dc4e2"),
    ("tri_regular", "vertex", 1): (0, "43b7059d6283c5f09a422d991228fe65"
                                      "abf63628df8ee0cb4e63d6c0e96ef31b"),
}


@pytest.mark.parametrize("kind, mode, p", sorted(SOLVE_GOLDEN))
def test_solve_golden_digest(tmp_path, capsys, kind, mode, p):
    grid, history = tmp_path / "g.txt", tmp_path / "history.csv"
    save_grid(generate(GenSpec(kind=kind, nx=17, ny=17, perturb=0.3, seed=42)),
              grid)
    code = main(["solve", str(grid), "--stencil", mode, "--p", str(p),
                 "--theta", "30", "-o", str(history)])
    summary = capsys.readouterr().out
    digest = hashlib.sha256(history.read_bytes() + summary.encode())
    assert (code, digest.hexdigest()) == SOLVE_GOLDEN[kind, mode, p]


def per_face_residual(grid, u, theta, p, mode, first_order):
    """The residual one face at a time: scalar-oracle gradients (zero on
    degenerate cells), midpoint states, the upwind flux with inflow data on
    boundary faces, less source times area."""
    cx, cy = grid.centroids.T.tolist()
    grads = [(0.0, 0.0)] * grid.n_cells
    for j in range(0 if first_order else grid.n_cells):
        try:
            stencil = build_stencil(grid, j, mode)
            system = build_system(stencil, p)
        except (DegenerateStencilError, SingularStencilError):
            continue
        grads[j] = apply_gradient(system,
                                  [u[k] - u[j] for k in stencil.neighbors])

    def state(j, mx, my):
        gx, gy = grads[j]
        return u[j] + gx * (mx - cx[j]) + gy * (my - cy[j])

    t = math.radians(theta)
    res = [0.0] * grid.n_cells
    fa = grid.face_arrays
    for j, nb, (nx, ny), (mx, my), length in zip(
            fa.owner.tolist(), fa.neighbor.tolist(), fa.normal.tolist(),
            fa.midpoint.tolist(), fa.length.tolist()):
        ul = state(j, mx, my)
        ur = float(exact_solution(mx, my)) if nb == -1 else state(nb, mx, my)
        an = math.cos(t) * nx + math.sin(t) * ny
        flux = (0.5 * an * (ul + ur) - 0.5 * abs(an) * (ur - ul)) * length
        res[j] += flux
        if nb != -1:
            res[nb] -= flux
    return np.array(res) - source_term(grid.centroids[:, 0],
                                       grid.centroids[:, 1], theta) * grid.areas


@pytest.mark.parametrize("mode, p, first_order", [
    ("face", 0, False), ("face", 1, False), ("vertex", 0, False),
    ("vertex", 1, False), ("face", 0, True)])
@pytest.mark.parametrize("kind", ["quad", "tri_irregular"])
def test_residual_matches_per_face_evaluation(kind, mode, p, first_order):
    grid = generate(GenSpec(kind=kind, nx=9, ny=9, perturb=0.3, seed=3))
    u = np.random.default_rng(2).uniform(-1.0, 1.0, grid.n_cells)
    for theta in (30.0, 245.0):
        got = residual_second_order(grid, u, theta, p=p, stencil_mode=mode,
                                    first_order=first_order)
        want = per_face_residual(grid, u, theta, p, mode, first_order)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_first_order_newton_property():
    grid = generate(GenSpec(kind="quad", nx=33, ny=33))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0, first_order=True))
    assert report.converged
    assert report.iterations_to_tol <= 2


def test_quad33_regression_baseline():
    grid = generate(GenSpec(kind="quad", nx=33, ny=33))
    report = defect_correction_solve(grid, ProblemSpec(theta=30.0))
    assert report.status == "converged"
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
    fa = grid.face_arrays
    for j, nb, (nx, ny), (mx, my), length in zip(
            fa.owner.tolist(), fa.neighbor.tolist(), fa.normal.tolist(),
            fa.midpoint.tolist(), fa.length.tolist()):
        if nb != -1:
            continue
        cx, cy = grid.centroids[j].tolist()
        gx, gy = grads[j]
        ul = u[j] + gx * (mx - cx) + gy * (my - cy)
        an = ax * nx + ay * ny
        boundary_total += (0.5 * an * ul - 0.5 * abs(an) * (-ul)) * length
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
    assert report.status == "not-converged"
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
    assert report.status == "diverged"
    assert report.diverged and not report.converged
    assert len(report.residual_history) == nan_call
    assert len(calls) == nan_call

    path = tmp_path / "g.txt"
    save_grid(grid, path)
    calls.clear()
    assert main(["solve", str(path)]) == 4
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("diverged grid=quad_9x9 iterations=n/a ")


class ExpCalled(Exception):
    pass


def test_solve_evaluates_no_bump(monkeypatch):
    # The solver's table stops at the gradient coefficients; only the G
    # measure evaluates the bump exp(-(x^2 + y^2)), with math.exp.
    def exp(x):
        raise ExpCalled

    monkeypatch.setattr(math, "exp", exp)
    for kind, mode in (("quad", "face"), ("tri_irregular", "vertex")):
        grid = generate(GenSpec(kind=kind, nx=9, ny=9, seed=1))
        with pytest.raises(ExpCalled):
            analyze(grid, 1, mode)
        report = defect_correction_solve(grid, ProblemSpec(tolerance=1e-6),
                                         p=1, stencil_mode=mode)
        assert report.converged
