"""Property tests of the grid core on small random grids."""

import numpy as np
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
from gridgauge.grid import _parse_bulk, _parse_lines, _polygon_centroid_area

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)

specs = st.builds(
    GenSpec,
    kind=st.just("tri_irregular"),
    nx=st.integers(2, 7),
    ny=st.integers(2, 7),
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
@given(specs)
def test_bulk_parse_equals_line_parse(spec):
    text = grid_to_text(generate(spec))
    bulk = _parse_bulk(text, "")
    lines = _parse_lines(text, "")
    assert bulk is not None
    name, nodes, cell_nodes, cell_nverts = bulk
    assert name == lines.name
    assert np.array_equal(nodes, lines.nodes)
    assert np.array_equal(cell_nodes, lines.cell_nodes)
    assert np.array_equal(cell_nverts, lines.cell_nverts)


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
