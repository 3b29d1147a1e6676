"""Property tests of the grid core on small random grids."""

import math
import sys
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgauge import (
    GenSpec,
    Grid,
    ProblemSpec,
    analyze,
    defect_correction_solve,
    derive_geometry,
    generate,
    grid_to_text,
    parse_grid,
)
from gridgauge import lsq
from gridgauge.grid import _HYPOT_BLOCK, _hypot, _parse_bulk, _parse_lines
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
    bulk = _parse_bulk(text, "")
    lines = _parse_lines(text, "")
    assert bulk is not None
    name, nodes, cell_nodes, cell_nverts = bulk
    assert name == lines.name
    # Bitwise: array_equal takes -0.0 for 0.0.
    assert np.array_equal(nodes.view(np.int64), lines.nodes.view(np.int64))
    assert np.array_equal(cell_nodes, lines.cell_nodes)
    assert np.array_equal(cell_nverts, lines.cell_nverts)


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
            # Blocks of 16 cells, so that most grids span several.
            with mock.patch.object(lsq, "BLOCK", 16):
                table = lsq.lsq_table(grid, p, mode)
            assert np.array_equal(table.degenerate, bad)
            assert np.array_equal(table.f, f, equal_nan=True)
            assert np.array_equal(table.g, g, equal_nan=True)
            for coefficients, op in zip((table.cx, table.cy), ops):
                want = op.toarray()
                np.fill_diagonal(want, 0.0)
                got = sp.csr_matrix((coefficients, table.indices,
                                     table.indptr), shape=op.shape).toarray()
                assert np.array_equal(got, want)


@SETTINGS
@given(all_kinds)
def test_coefficient_table_equals_full_table(spec):
    grid = generate(spec)
    for mode in ("face", "vertex"):
        for p in (0, 1):
            with mock.patch.object(lsq, "BLOCK", 16):
                full = lsq.lsq_table(grid, p, mode)
                table = lsq.lsq_table(grid, p, mode, measures=False)
            assert table.f is None and table.g is None
            for key in ("degenerate", "indptr", "indices", "cx", "cy"):
                got, want = getattr(table, key), getattr(full, key)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def math_hypot(x, y):
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())), float)


def assert_hypot_exact(x, y):
    got = _hypot(x, y)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), math_hypot(x, y).view(np.int64))


# Every kind of float: zeros of both signs, subnormals, the ends of the
# normal range, 2**1022 (from where _hypot hands lanes to math.hypot), inf
# and NaN.
any_float = st.one_of(
    st.floats(),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min, 2.0**1022,
                     math.nextafter(2.0**1022, 0.0), sys.float_info.max,
                     math.inf, -math.inf, math.nan]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(any_float, any_float), max_size=40))
def test_hypot_equals_math_hypot(pairs):
    x, y = np.array(pairs, float).reshape(-1, 2).T
    assert_hypot_exact(x, y)


def test_hypot_equals_math_hypot_on_sample():
    # 10**6 pairs of magnitudes 2**-1080 (zero) to 2**1030 (inf), half of
    # them within 2**60 of each other, where both squares count.
    rng = np.random.default_rng(20261018)
    n = 10**6
    ex = rng.integers(-1080, 1031, n)
    ey = np.where(rng.random(n) < 0.5, ex + rng.integers(-60, 61, n),
                  rng.integers(-1080, 1031, n))
    with np.errstate(over="ignore"):
        x, y = (rng.choice([-1.0, 1.0], n) * np.ldexp(rng.random(n) + 0.5, e)
                for e in (ex, ey))
    assert_hypot_exact(x, y)
    # Lengths around the block size.
    for length in (0, 1, _HYPOT_BLOCK - 1, _HYPOT_BLOCK, _HYPOT_BLOCK + 1):
        assert_hypot_exact(x[:length], y[:length])
    # Integers, cast to float64 as math.hypot converts them.
    for bound in (100, 2**62):
        i, k = rng.integers(-bound, bound, (2, 1000))
        assert_hypot_exact(i, k)


@SETTINGS
@given(all_kinds, st.randoms(use_true_random=False))
def test_adjacency_equals_scalar_neighbor_lists(spec, rnd):
    # Cells in random order, so that a cell's neighbors are not near it in
    # number; blocks of 5 cells, so that the vertex pairs span several.
    grid = generate(spec)
    order = list(range(grid.n_cells))
    rnd.shuffle(order)
    grid = Grid(name=grid.name, nodes=grid.nodes,
                cell_nodes=grid.cell_nodes[order],
                cell_nverts=grid.cell_nverts[order])
    for mode, scalar in (("face", _face_adjacency),
                         ("vertex", _vertex_adjacency)):
        with mock.patch.object(lsq, "BLOCK", 5):
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
        cell_nodes=grid.cell_nodes[order], cell_nverts=grid.cell_nverts[order]))
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
                                          label[grid.cell_nodes], -1),
                      cell_nverts=grid.cell_nverts)
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
    return Grid(name=grid.name, nodes=nodes, cell_nodes=grid.cell_nodes,
                cell_nverts=grid.cell_nverts)


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
