import math

import numpy as np
import pytest
import scipy.sparse as sp

from gridgauge import (
    DegenerateStencilError,
    GenSpec,
    Grid,
    ProblemSpec,
    SingularStencilError,
    analyze,
    defect_correction_solve,
    derive_geometry,
    generate,
    replace_nodes,
)
from gridgauge.oracle import (
    Stencil,
    apply_gradient,
    build_stencil,
    build_system,
    f_measure,
    g_measure,
)
from gridgauge import lsq
from gridgauge.solver import _Advection


def make_stencil(dx, dy):
    dx = tuple(float(v) for v in dx)
    dy = tuple(float(v) for v in dy)
    d = tuple(math.hypot(a, b) for a, b in zip(dx, dy))
    return Stencil(cell=0, neighbors=tuple(range(1, len(dx) + 1)), dx=dx, dy=dy, d=d)


def dense_oracle_coefficients(stencil, p):
    """Independent route: weighted over-determined solve by SVD, one
    unit-impulse right-hand side per neighbor."""
    a = np.column_stack([stencil.dx, stencil.dy])
    w = 1.0 / np.asarray(stencil.d) ** p
    wa = a * w[:, None]
    coeffs = []
    for k in range(len(stencil.dx)):
        e = np.zeros(len(stencil.dx))
        e[k] = 1.0
        sol, *_ = np.linalg.lstsq(wa, w * e, rcond=None)
        coeffs.append(sol)
    return np.asarray(coeffs)  # row k = (cx_k, cy_k)


def random_nonsingular_stencil(rng):
    while True:
        n = int(rng.integers(3, 10))
        dx = rng.uniform(-1.0, 1.0, n)
        dy = rng.uniform(-1.0, 1.0, n)
        if np.hypot(dx, dy).min() < 1e-3:
            continue
        st = make_stencil(dx, dy)
        try:
            build_system(st, 0)
            build_system(st, 1)
        except SingularStencilError:
            continue
        return st


CROSS = make_stencil([1, -1, 0, 0], [0, 0, 1, -1])


def test_cross_stencil_normal_matrix():
    system = build_system(CROSS, 0)
    assert (system.m11, system.m12, system.m22) == (2.0, 0.0, 2.0)
    assert system.cx == pytest.approx((0.5, -0.5, 0.0, 0.0), abs=1e-15)
    assert system.cy == pytest.approx((0.0, 0.0, 0.5, -0.5), abs=1e-15)


def test_unit_distance_weights_make_p_irrelevant():
    s0 = build_system(CROSS, 0)
    s1 = build_system(CROSS, 1)
    assert s0.m11 == s1.m11
    assert s0.cx == s1.cx
    assert s0.cy == s1.cy


def test_collinear_stencil_singular():
    st = make_stencil([1, 2, 3], [0, 0, 0])
    with pytest.raises(SingularStencilError):
        build_system(st, 0)


def test_nearly_collinear_stencil_singular():
    st = make_stencil([1, 2, 3], [0, 1e-8, 0])
    with pytest.raises(SingularStencilError):
        build_system(st, 0)


def test_bad_weight_exponent():
    with pytest.raises(ValueError):
        build_system(CROSS, 2)
    grid = generate(GenSpec(kind="quad", nx=4, ny=4))
    with pytest.raises(ValueError, match="weight exponent p must be 0 or 1"):
        lsq.lsq_table(grid, 2)


@pytest.mark.parametrize("run", [
    analyze,
    lambda grid, **kw: defect_correction_solve(grid, ProblemSpec(), **kw),
], ids=["analyze", "solve"])
def test_unknown_stencil_mode_rejected(run):
    grid = generate(GenSpec(kind="quad", nx=4, ny=4))
    with pytest.raises(ValueError, match="unknown stencil mode 'bogus'"):
        run(grid, stencil_mode="bogus")


def test_constant_field_zero_gradient_exactly():
    system = build_system(CROSS, 0)
    assert apply_gradient(system, [0.0, 0.0, 0.0, 0.0]) == (0.0, 0.0)


def test_length_mismatch():
    system = build_system(CROSS, 0)
    with pytest.raises(ValueError):
        apply_gradient(system, [1.0, 2.0])


@pytest.mark.parametrize("p", [0, 1])
def test_linear_exactness(p):
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_nonsingular_stencil(rng)
        system = build_system(st, p)
        du = [3.0 * x - 2.0 * y for x, y in zip(st.dx, st.dy)]
        gx, gy = apply_gradient(system, du)
        assert gx == pytest.approx(3.0, rel=1e-12)
        assert gy == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.parametrize("theta_deg", [30.0, 90.0, 137.0])
def test_rotation_equivariance(theta_deg):
    rng = np.random.default_rng(12)
    t = math.radians(theta_deg)
    ct, sn = math.cos(t), math.sin(t)
    for _ in range(10):
        st = random_nonsingular_stencil(rng)
        rot = make_stencil(
            [ct * x - sn * y for x, y in zip(st.dx, st.dy)],
            [sn * x + ct * y for x, y in zip(st.dx, st.dy)],
        )
        du = [1.7 * x + 0.4 * y for x, y in zip(st.dx, st.dy)]
        gx, gy = apply_gradient(build_system(st, 0), du)
        # same data attached to rotated offsets: gradient components rotate
        rx, ry = apply_gradient(build_system(rot, 0), du)
        assert rx == pytest.approx(ct * gx - sn * gy, abs=1e-10)
        assert ry == pytest.approx(sn * gx + ct * gy, abs=1e-10)


@pytest.mark.parametrize("p", [0, 1])
def test_oracle_equivalence_100_stencils(p):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        st = random_nonsingular_stencil(rng)
        system = build_system(st, p)
        oracle = dense_oracle_coefficients(st, p)
        got = np.column_stack([system.cx, system.cy])
        scale = max(np.abs(oracle).max(), 1e-30)
        assert np.abs(got - oracle).max() <= 1e-9 * scale

        du = rng.uniform(-1.0, 1.0, st.n)
        gx, gy = apply_gradient(system, du)
        a = np.column_stack([st.dx, st.dy])
        w = 1.0 / np.asarray(st.d) ** p
        sol, *_ = np.linalg.lstsq(a * w[:, None], w * du, rcond=None)
        assert math.hypot(gx - sol[0], gy - sol[1]) <= 1e-9 * max(
            1.0, float(np.hypot(*sol))
        )


def test_normal_matrix_positive_definite_on_random_stencils():
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = random_nonsingular_stencil(rng)
        system = build_system(st, 0)
        assert system.m11 > 0.0
        assert system.m22 > 0.0
        assert system.m11 * system.m22 - system.m12 ** 2 > 0.0


def test_unit_impulse_reproduction():
    # applying the coefficients to du = dx must give gradient (1, 0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_nonsingular_stencil(rng)
        system = build_system(st, 0)
        gx, gy = apply_gradient(system, list(st.dx))
        assert gx == pytest.approx(1.0, abs=1e-12)
        assert gy == pytest.approx(0.0, abs=1e-12)
        gx, gy = apply_gradient(system, list(st.dy))
        assert gx == pytest.approx(0.0, abs=1e-12)
        assert gy == pytest.approx(1.0, abs=1e-12)


def notch_grid():
    """4x2 quads without the two top-right cells: cell 2 has two collinear
    face neighbors (singular), cell 3 one neighbor (degenerate)."""
    quad = generate(GenSpec(kind="quad", nx=5, ny=3))
    return derive_geometry(Grid(name="notch", nodes=quad.nodes,
                                cell_nodes=quad.cell_nodes[:6],
                                cell_nverts=quad.cell_nverts[:6]))


def far_grid():
    """2x2 quads plus one cell so far away that the block's centroid
    spacing falls below the degeneracy threshold."""
    quad = generate(GenSpec(kind="quad", nx=3, ny=3))
    far = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + 3.0e13
    nodes = np.vstack([quad.nodes, far])
    return derive_geometry(Grid(
        name="far", nodes=nodes,
        cell_nodes=np.vstack([quad.cell_nodes, [9, 10, 11, 12]]),
        cell_nverts=np.append(quad.cell_nverts, 4)))


def scalar_table(grid, p, mode):
    """Degenerate mask, F, G and the gradient operators Gx, Gy from the
    per-cell scalar functions."""
    n = grid.n_cells
    bad = np.zeros(n, dtype=bool)
    f = np.full(n, np.nan)
    g = np.full(n, np.nan)
    rows, cols, vx, vy = [], [], [], []
    for j in range(n):
        try:
            stencil = build_stencil(grid, j, mode)
            system = build_system(stencil, p)
        except (DegenerateStencilError, SingularStencilError):
            bad[j] = True
            continue
        f[j] = f_measure(stencil, system)
        g[j] = g_measure(stencil, system)
        sx = sy = 0.0
        for k, nb in enumerate(stencil.neighbors):
            rows.append(j)
            cols.append(nb)
            vx.append(system.cx[k])
            vy.append(system.cy[k])
            sx += system.cx[k]
            sy += system.cy[k]
        rows.append(j)
        cols.append(j)
        vx.append(-sx)
        vy.append(-sy)
    ops = [sp.csr_matrix((v, (rows, cols)), shape=(n, n)) for v in (vx, vy)]
    return bad, f, g, ops


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("mode", ["face", "vertex"])
@pytest.mark.parametrize(
    "kind",
    ["quad", "quad_ar", "tri_regular", "tri_irregular", "notch", "far", "huge",
     "tiny"],
)
def test_lsq_table_matches_scalar_path(kind, mode, p, monkeypatch):
    if kind == "notch":
        grid = notch_grid()
    elif kind == "far":
        grid = far_grid()
    elif kind == "huge":
        # With p = 0 the normal matrix overflows to inf and NaN entries.
        grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
        grid = replace_nodes(grid, grid.nodes * 1e80)
    elif kind == "tiny":
        # With p = 0 the determinant of the normal matrix is subnormal.
        grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
        grid = replace_nodes(grid, grid.nodes * 1e-80)
    else:
        grid = generate(GenSpec(kind=kind, nx=17, ny=17, perturb=0.3, seed=4))
    # Blocks smaller than the grid, not dividing its cell count.
    monkeypatch.setattr(lsq, "BLOCK", 100 if grid.n_cells > 100 else 4)
    bad, f, g, ops = scalar_table(grid, p, mode)
    table = lsq.lsq_table(grid, p, mode)
    assert np.array_equal(table.degenerate, bad)
    assert np.array_equal(table.f, f, equal_nan=True)
    assert np.array_equal(table.g, g, equal_nan=True)
    advection = _Advection(grid, 30.0, p, mode)
    for got, want in zip((advection.gx_op, advection.gy_op), ops):
        want.eliminate_zeros()
        assert got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    if kind == "notch":
        assert bad[3] and bad[2] == (mode == "face")
    if kind == "far" or (kind in ("huge", "tiny") and p == 0):
        assert bad.all()


def test_notch_grid_has_singular_and_degenerate_cells():
    grid = notch_grid()
    with pytest.raises(SingularStencilError):
        build_system(build_stencil(grid, 2, "face"))
    with pytest.raises(DegenerateStencilError):
        build_stencil(grid, 3, "face")
