"""Property tests of the grid core on small random grids."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgauge import (
    GenSpec,
    Grid,
    GridFormatError,
    ProblemSpec,
    analyze,
    defect_correction_solve,
    derive_geometry,
    generate,
    grid_to_text,
    parse_grid,
)
from gridgauge import lsq, solver
from gridgauge.grid import _cell_nverts, _parse_bulk, _parse_lines
from gridgauge.oracle import _face_adjacency, _vertex_adjacency
from tests.test_lsq import scalar_table

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)

specs = st.builds(
    GenSpec,
    kind=st.just("tri_irregular"),
    nx=st.integers(2, 7),
    ny=st.integers(2, 7),
    perturb=st.floats(0.0, 0.45),
    seed=st.integers(0, 2**32 - 1),
)

# All four generator kinds.
all_kinds = st.builds(
    GenSpec,
    kind=st.sampled_from(["quad", "quad_ar", "tri_regular", "tri_irregular"]),
    nx=st.integers(2, 7),
    ny=st.integers(2, 7),
    aspect_ratio=st.floats(0.25, 8.0),
    perturb=st.floats(0.0, 0.45),
    seed=st.integers(0, 2**32 - 1),
)


def face_set(grid, cell_label):
    """Each face as (undirected node pair, cell, normal out of that cell),
    once per adjacent cell, with cells renamed by cell_label."""
    fa = grid.face_arrays
    out = set()
    for a, b, owner, nb, (nx, ny), length, mid in zip(
            fa.node_a.tolist(), fa.node_b.tolist(), fa.owner.tolist(),
            fa.neighbor.tolist(), fa.normal.tolist(), fa.length.tolist(),
            fa.midpoint.tolist()):
        edge = (min(a, b), max(a, b), length, tuple(mid))
        out.add((edge, cell_label[owner], (nx, ny)))
        if nb != -1:
            out.add((edge, cell_label[nb], (-nx, -ny)))
    return out


@SETTINGS
@given(specs)
def test_write_read_write_fixpoint(spec):
    grid = generate(spec)
    text = grid_to_text(grid)
    again = parse_grid(text)
    assert grid_to_text(again) == text
    assert np.array_equal(again.nodes, grid.nodes)
    assert np.array_equal(again.cell_nodes, grid.cell_nodes)


@SETTINGS
@given(all_kinds)
def test_bulk_parse_equals_line_parse(spec):
    text = grid_to_text(generate(spec))
    bulk = _parse_bulk(text.encode("ascii"), "")
    lines = _parse_lines(text, "")
    assert bulk is not None
    name, nodes, cell_nodes = bulk
    assert name == lines.name
    # Bitwise: array_equal takes -0.0 for 0.0.
    assert np.array_equal(nodes.view(np.int64), lines.nodes.view(np.int64))
    assert np.array_equal(cell_nodes, lines.cell_nodes)


def _polygon_centroid_area(pts):
    """Exact area centroid via a signed triangle fan from the first vertex.

    For triangles this is the vertex mean; for quads it is the area-weighted
    mean of the two triangles split along the (v0, v2) diagonal. The scalar
    reference that the geometry test below holds :func:`derive_geometry` to.
    """
    x0, y0 = pts[0]
    cx = cy = area = 0.0
    for i in range(1, len(pts) - 1):
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        a = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        area += a
        cx += a * (x0 + x1 + x2) / 3.0
        cy += a * (y0 + y1 + y2) / 3.0
    return (cx / area, cy / area), area


@SETTINGS
@given(specs)
def test_geometry_equals_scalar_fan(spec):
    grid = generate(spec)
    for j, (row, k) in enumerate(zip(grid.cell_nodes.tolist(),
                                     grid.cell_nverts.tolist())):
        pts = [tuple(grid.nodes[v].tolist()) for v in row[:k]]
        centroid, area = _polygon_centroid_area(pts)
        assert grid.centroids[j].tolist() == list(centroid)
        assert grid.areas[j] == area


@SETTINGS
@given(specs)
def test_lsq_table_equals_scalar_oracle(spec):
    grid = generate(spec)
    for mode in ("face", "vertex"):
        for p in (0, 1):
            bad, f, g, ops = scalar_table(grid, p, mode)
            # Blocks of 16 stencil entries, so that most grids span several,
            # and of one cell, so that all do. F and G come from the
            # measures table, the coefficients from the solver's Gx and Gy.
            for entries in (16, 1):
                with mock.patch.object(lsq, "ENTRIES", entries):
                    table = lsq.lsq_table(grid, p, mode)
                    degenerate, *got = solver._gradient_operators(grid, p,
                                                                  mode)
                assert np.array_equal(degenerate, bad)
                assert np.array_equal(table.f, f, equal_nan=True)
                assert np.array_equal(table.g, g, equal_nan=True)
                for op, want in zip(got, ops):
                    assert np.array_equal(op.toarray(), want.toarray())


@SETTINGS
@given(all_kinds)
def test_coefficient_table_equals_full_table(spec):
    grid = generate(spec)
    for mode in ("face", "vertex"):
        for p, entries in itertools.product((0, 1), (16, 1)):
            with mock.patch.object(lsq, "ENTRIES", entries):
                table = lsq.lsq_table(grid, p, mode)
                degenerate, *ops = solver._gradient_operators(grid, p, mode)
            # The blocks' sizes move no byte of the flags, Gx or Gy: they are
            # compared with a build in blocks of the default size.
            whole, *whole_ops = solver._gradient_operators(grid, p, mode)
            assert degenerate.tobytes() == table.degenerate.tobytes()
            assert degenerate.tobytes() == whole.tobytes()
            for op, other in zip(ops, whole_ops):
                for key in ("indptr", "indices", "data"):
                    got, want = getattr(op, key), getattr(other, key)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("mode", ["face", "vertex"])
@pytest.mark.parametrize("kind",
                         ["quad", "quad_ar", "tri_regular", "tri_irregular"])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(nx=st.integers(3, 7), ny=st.integers(3, 7),
       aspect_ratio=st.floats(0.25, 8.0), perturb=st.floats(0.0, 0.45),
       seed=st.integers(0, 2**32 - 1))
def test_f_is_a_lower_bound_of_the_gradient(kind, mode, p, **spec):
    # The abstract's first claim. With M the normal matrix and s the sum of
    # w_k^2 d_k, each coefficient vector c_k = M^-1 w_k^2 (dx_k, dy_k) has
    # |c_k| >= w_k^2 d_k / lambda_max(M), so sum_k |c_k| >= s / lambda_max
    # >= s / |M|_F = F.
    grid = generate(GenSpec(kind=kind, **spec))
    table = lsq.lsq_table(grid, p, mode)
    _, gx, gy = solver._gradient_operators(grid, p, mode)
    row = np.repeat(np.arange(grid.n_cells), np.diff(table.indptr))
    dx, dy = (grid.centroids[table.indices] - grid.centroids[row]).T
    d = np.hypot(dx, dy)
    w2 = d ** (-2 * p)

    def rowsum(v):
        return np.bincount(row, weights=v, minlength=grid.n_cells)

    m11, m12, m22 = rowsum(w2 * dx * dx), rowsum(w2 * dx * dy), rowsum(
        w2 * dy * dy)
    lam_max = (m11 + m22) / 2.0 + np.hypot((m11 - m22) / 2.0, m12)
    # Sum_k |c_k| over the off-diagonal entries of Gx and Gy; the zeros they
    # drop add nothing to it.
    cx, cy = gx.toarray(), gy.toarray()
    np.fill_diagonal(cx, 0.0)
    np.fill_diagonal(cy, 0.0)
    total = np.hypot(cx, cy).sum(axis=1)
    ok = ~table.degenerate
    assert ok.any()
    floor = 1.0 - 1e-12
    assert (total[ok] >= table.f[ok] * floor).all()
    assert (total[ok] >= rowsum(w2 * d)[ok] / lam_max[ok] * floor).all()


@SETTINGS
@given(all_kinds, st.randoms(use_true_random=False))
def test_adjacency_equals_scalar_neighbor_lists(spec, rnd):
    # Cells in random order, so that a cell's neighbors are not near it in
    # number; blocks of 100 padded row entries, a few cells, and of one
    # cell, so that the vertex rows span several.
    grid = generate(spec)
    order = list(range(grid.n_cells))
    rnd.shuffle(order)
    grid = Grid(name=grid.name, nodes=grid.nodes,
                cell_nodes=grid.cell_nodes[order])
    for (mode, scalar), entries in itertools.product(
            (("face", _face_adjacency), ("vertex", _vertex_adjacency)),
            (100, 1)):
        with mock.patch.object(lsq, "ENTRIES", entries):
            indptr, indices = lsq._adjacency(grid, mode)
        assert indptr[0] == 0
        assert [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])] \
            == [sorted(set(nbs)) for nbs in scalar(grid)]


@SETTINGS
@given(specs, st.randoms(use_true_random=False))
def test_cell_renumbering_equivariance(spec, rnd):
    grid = generate(spec)
    order = list(range(grid.n_cells))
    rnd.shuffle(order)
    renumbered = derive_geometry(Grid(
        name=grid.name, nodes=grid.nodes,
        cell_nodes=grid.cell_nodes[order]))
    assert np.array_equal(renumbered.centroids, grid.centroids[order])
    assert np.array_equal(renumbered.areas, grid.areas[order])
    # Old cell order[k] is new cell k.
    new_label = np.empty(grid.n_cells, dtype=int)
    new_label[order] = np.arange(grid.n_cells)
    assert face_set(renumbered, range(grid.n_cells)) == face_set(
        grid, new_label.tolist())
    # The measures permute too, up to roundoff: each cell's sums add its
    # neighbors in ascending cell number, which the renumbering reorders.
    for stencil_mode in ("face", "vertex"):
        for p in (0, 1):
            a = lsq.lsq_table(grid, p, stencil_mode)
            b = lsq.lsq_table(renumbered, p, stencil_mode)
            assert np.array_equal(b.degenerate, a.degenerate[order])
            np.testing.assert_allclose(b.f, a.f[order], rtol=1e-12)
            np.testing.assert_allclose(b.g, a.g[order], rtol=0, atol=1e-12)


@SETTINGS
@given(st.builds(GenSpec,
                 kind=st.sampled_from(["quad", "tri_regular", "tri_irregular"]),
                 nx=st.integers(3, 6), ny=st.integers(3, 6),
                 perturb=st.floats(0.0, 0.45), seed=st.integers(0, 2**32 - 1)),
       st.randoms(use_true_random=False))
def test_node_renumbering_equivariance(spec, rnd):
    grid = generate(spec)
    label = list(range(grid.n_nodes))
    rnd.shuffle(label)
    label = np.array(label)         # old node i is new node label[i]
    nodes = np.empty_like(grid.nodes)
    nodes[label] = grid.nodes
    renumbered = Grid(name=grid.name, nodes=nodes,
                      cell_nodes=np.where(grid.cell_nodes >= 0,
                                          label[grid.cell_nodes], -1))
    assert np.array_equal(renumbered.centroids, grid.centroids)
    assert np.array_equal(renumbered.areas, grid.areas)
    fa, fb = grid.face_arrays, renumbered.face_arrays
    for key in ("owner", "neighbor", "normal", "length", "midpoint"):
        assert np.array_equal(getattr(fb, key), getattr(fa, key))
    assert np.array_equal(fb.node_a, label[fa.node_a])
    assert np.array_equal(fb.node_b, label[fa.node_b])
    for stencil_mode in ("face", "vertex"):
        for p in (0, 1):
            a = analyze(grid, p, stencil_mode)
            b = analyze(renumbered, p, stencil_mode)
            assert np.array_equal(b.f_values, a.f_values, equal_nan=True)
            assert np.array_equal(b.g_values, a.g_values, equal_nan=True)
    problem = ProblemSpec(tolerance=1e-8, max_outer=50)
    a = defect_correction_solve(grid, problem, stencil_mode="vertex")
    b = defect_correction_solve(renumbered, problem, stencil_mode="vertex")
    assert b.residual_history == a.residual_history
    assert b.work_history == a.work_history


def moved(grid, nodes):
    return Grid(name=grid.name, nodes=nodes, cell_nodes=grid.cell_nodes)


@SETTINGS
@given(all_kinds, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
       st.floats(0.0, 2 * math.pi), st.integers(-60, 60))
def test_measures_invariant_under_motion_and_scaling(spec, tx, ty, angle, j):
    """Rotation plus translation keeps F and G to within 1e-9 relative (G
    also 1e-9 absolute, as it is 0 on symmetric stencils); the roundoff of
    the moved coordinates is about 1e-12 relative at these sizes. Scaling
    by 2^j is exact, so F * 2^j, G and the degenerate flags stay bit for
    bit; |j| <= 60 keeps every normal-matrix determinant normal."""
    grid = generate(spec)
    c, s = math.cos(angle), math.sin(angle)
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    motion = moved(grid, np.column_stack([c * x - s * y + tx,
                                          s * x + c * y + ty]))
    scaled = moved(grid, grid.nodes * 2.0 ** j)
    for mode in ("face", "vertex"):
        for p in (0, 1):
            a = lsq.lsq_table(grid, p, mode)
            b = lsq.lsq_table(motion, p, mode)
            assert np.array_equal(b.degenerate, a.degenerate)
            np.testing.assert_allclose(b.f, a.f, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(b.g, a.g, rtol=1e-9, atol=1e-9)
            b = lsq.lsq_table(scaled, p, mode)
            assert np.array_equal(b.degenerate, a.degenerate)
            assert np.array_equal(b.f * 2.0 ** j, a.f, equal_nan=True)
            assert np.array_equal(b.g, a.g, equal_nan=True)


def _scalar_first_bad_row(rows, n_nodes):
    """The first row that is not 3 or 4 node indices then -1 padding."""
    for j, row in enumerate(rows):
        k = 3 if row[3] == -1 else 4
        if not all(0 <= v < n_nodes for v in row[:k]):
            return j
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-3, n + 1), min_size=4,
                                  max_size=4), max_size=6))))
def test_cell_table_check_equals_scalar_rule(case):
    # Random tables over a few nodes: the reductions accept exactly the
    # tables the row-by-row rule accepts, and name its first bad row.
    n_nodes, rows = case
    table = np.array(rows, dtype=np.intp).reshape(-1, 4)
    j = _scalar_first_bad_row(rows, n_nodes)
    if j is None:
        assert _cell_nverts(table, n_nodes).tolist() == [
            3 if row[3] == -1 else 4 for row in rows]
    else:
        with pytest.raises(GridFormatError, match=f"^cell {j} has nodes "):
            _cell_nverts(table, n_nodes)
