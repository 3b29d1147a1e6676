import io
import math

import numpy as np
import pytest

from gridgauge import (
    DegenerateStencilError,
    GenSpec,
    GridFormatError,
    build_stencil,
    build_stencils,
    derive_geometry,
    generate,
    grid_to_text,
    parse_grid,
    replace_nodes,
    write_grid,
)

UNIT_QUAD = """4 1
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
4 0 1 2 3
"""

TRIANGLE = """3 1
0.0 0.0
1.0 0.0
0.0 1.0
3 0 1 2
"""

TWO_BY_TWO = """9 4
0 0
0.5 0
1 0
0 0.5
0.5 0.5
1 0.5
0 1
0.5 1
1 1
4 0 1 4 3
4 1 2 5 4
4 3 4 7 6
4 4 5 8 7
"""


def test_parse_smallest_quad():
    grid = parse_grid(UNIT_QUAD)
    assert grid.n_nodes == 4
    assert grid.n_cells == 1
    assert grid.cells[0].vertices == (0, 1, 2, 3)


def test_parse_out_of_range_vertex():
    bad = UNIT_QUAD.replace("4 0 1 2 3", "4 0 1 2 5")
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert "out of range" in str(err.value)
    assert "line 6" in str(err.value)


def test_parse_clockwise_quad_rejected():
    bad = UNIT_QUAD.replace("4 0 1 2 3", "4 0 3 2 1")
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert "counter-clockwise" in str(err.value)


def test_parse_bad_header():
    with pytest.raises(GridFormatError) as err:
        parse_grid("4\n0 0\n")
    assert "header" in str(err.value)


def test_parse_wrong_node_token_count():
    bad = UNIT_QUAD.replace("1.0 0.0", "1.0 0.0 9.0", 1)
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_non_finite_coordinate(value):
    bad = UNIT_QUAD.replace("1.0 0.0", f"1.0 {value}", 1)
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert "non-finite" in str(err.value)
    assert "line 3" in str(err.value)


def test_parse_wrong_cell_token_count():
    bad = UNIT_QUAD.replace("4 0 1 2 3", "4 0 1 2")
    with pytest.raises(GridFormatError):
        parse_grid(bad)


def test_parse_bad_vertex_count():
    bad = UNIT_QUAD.replace("4 0 1 2 3", "5 0 1 2 3 0")
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert "3 or 4" in str(err.value)


def test_parse_repeated_vertex():
    bad = UNIT_QUAD.replace("4 0 1 2 3", "4 0 1 1 3")
    with pytest.raises(GridFormatError):
        parse_grid(bad)


def test_parse_truncated_file():
    with pytest.raises(GridFormatError):
        parse_grid("4 1\n0 0\n1 0\n1 1\n")


def test_parse_trailing_data():
    with pytest.raises(GridFormatError):
        parse_grid(UNIT_QUAD + "0 0\n")


def test_comments_and_name_comment():
    text = "# name: demo\n# a comment\n" + UNIT_QUAD
    grid = parse_grid(text)
    assert grid.name == "demo"
    assert grid.n_cells == 1


def test_roundtrip_exact():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=3))
    text1 = grid_to_text(grid)
    again = parse_grid(text1)
    assert np.array_equal(again.nodes, grid.nodes)
    assert [c.vertices for c in again.cells] == [c.vertices for c in grid.cells]
    assert grid_to_text(again) == text1


def test_write_then_parse_stream():
    grid = parse_grid(UNIT_QUAD)
    buf = io.StringIO()
    write_grid(grid, buf)
    again = parse_grid(io.StringIO(buf.getvalue()))
    assert np.array_equal(again.nodes, grid.nodes)


def test_triangle_geometry():
    grid = derive_geometry(parse_grid(TRIANGLE))
    cell = grid.cells[0]
    assert cell.centroid == pytest.approx((1 / 3, 1 / 3), abs=1e-15)
    assert cell.area == pytest.approx(0.5, abs=1e-15)


def test_unit_square_geometry():
    grid = derive_geometry(parse_grid(UNIT_QUAD))
    cell = grid.cells[0]
    assert cell.centroid == pytest.approx((0.5, 0.5), abs=1e-15)
    assert cell.area == pytest.approx(1.0, abs=1e-15)


def test_two_by_two_faces():
    # enumerated by hand: 4 shared edges inside, 8 on the boundary
    grid = derive_geometry(parse_grid(TWO_BY_TWO))
    interior = [f for f in grid.faces if f.neighbor != -1]
    boundary = [f for f in grid.faces if f.neighbor == -1]
    assert len(interior) == 4
    assert len(boundary) == 8
    for f in interior:
        assert f.owner != f.neighbor


def test_face_normals_unit_and_outward():
    grid = derive_geometry(parse_grid(UNIT_QUAD))
    for f in grid.faces:
        nx, ny = f.normal
        assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-14)
        # outward: normal points away from the cell centroid
        cx, cy = grid.cells[f.owner].centroid
        mx, my = f.midpoint
        assert (mx - cx) * nx + (my - cy) * ny > 0


def test_face_conservation_closed_cells():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.35, seed=11))
    sums = np.zeros((grid.n_cells, 2))
    for f in grid.faces:
        v = np.array(f.normal) * f.length
        sums[f.owner] += v
        if f.neighbor != -1:
            sums[f.neighbor] -= v
    assert np.abs(sums).max() < 1e-12


def test_edge_shared_twice_same_direction_rejected():
    text = """3 2
0.0 0.0
1.0 0.0
0.0 1.0
3 0 1 2
3 0 1 2
"""
    with pytest.raises(GridFormatError):
        derive_geometry(parse_grid(text))


def test_face_stencil_interior_quad():
    grid = generate(GenSpec(kind="quad", nx=5, ny=5))
    h = 0.25
    stencil = build_stencil(grid, 5, mode="face")  # cell (1, 1)
    assert stencil.n == 4
    offsets = sorted(zip(stencil.dx, stencil.dy))
    expect = sorted([(-h, 0.0), (h, 0.0), (0.0, -h), (0.0, h)])
    for got, want in zip(offsets, expect):
        assert got == pytest.approx(want, abs=1e-14)
    assert all(abs(d - h) < 1e-14 for d in stencil.d)


def test_face_stencil_corner_quad():
    grid = generate(GenSpec(kind="quad", nx=5, ny=5))
    stencil = build_stencil(grid, 0, mode="face")
    assert stencil.n == 2


def test_vertex_stencil_interior_quad():
    grid = generate(GenSpec(kind="quad", nx=5, ny=5))
    stencil = build_stencil(grid, 5, mode="vertex")
    assert stencil.n == 8


def test_stencil_neighbors_sorted_and_self_free():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=5))
    for mode in ("face", "vertex"):
        for j in range(grid.n_cells):
            try:
                st = build_stencil(grid, j, mode=mode)
            except DegenerateStencilError:
                continue
            assert list(st.neighbors) == sorted(set(st.neighbors))
            assert j not in st.neighbors


def test_face_stencil_symmetry():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=5))
    listed = {}
    for j in range(grid.n_cells):
        try:
            listed[j] = set(build_stencil(grid, j, mode="face").neighbors)
        except DegenerateStencilError:
            listed[j] = None
    adj = {}
    for f in grid.faces:
        if f.neighbor != -1:
            adj.setdefault(f.owner, set()).add(f.neighbor)
            adj.setdefault(f.neighbor, set()).add(f.owner)
    for j, nbs in listed.items():
        if nbs is None:
            continue
        assert nbs == adj[j]
        for k in nbs:
            if listed[k] is not None:
                assert j in listed[k]


def test_stencil_translation_invariance():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=5))
    moved = replace_nodes(grid, grid.nodes + np.array([7.25, -9.5]))
    for j in range(grid.n_cells):
        try:
            a = build_stencil(grid, j, mode="face")
        except DegenerateStencilError:
            continue
        b = build_stencil(moved, j, mode="face")
        assert b.neighbors == a.neighbors
        assert np.abs(np.array(b.dx) - np.array(a.dx)).max() < 1e-12
        assert np.abs(np.array(b.dy) - np.array(a.dy)).max() < 1e-12
        assert np.abs(np.array(b.d) - np.array(a.d)).max() < 1e-12


def test_offsets_recomputable_from_centroids():
    grid = generate(GenSpec(kind="tri_regular", nx=5, ny=5))
    st = build_stencil(grid, 7, mode="face")
    xj, yj = grid.cells[7].centroid
    for k, nb in enumerate(st.neighbors):
        xk, yk = grid.cells[nb].centroid
        assert st.dx[k] == xk - xj
        assert st.dy[k] == yk - yj
        assert st.d[k] == math.hypot(xk - xj, yk - yj)


def test_single_neighbor_is_degenerate():
    text = """6 2
0 0
1 0
2 0
0 1
1 1
2 1
4 0 1 4 3
4 1 2 5 4
"""
    grid = derive_geometry(parse_grid(text))
    with pytest.raises(DegenerateStencilError):
        build_stencil(grid, 0, mode="face")
    with pytest.raises(DegenerateStencilError):
        build_stencils(grid, mode="face")


def test_unknown_stencil_mode():
    grid = derive_geometry(parse_grid(UNIT_QUAD))
    with pytest.raises(ValueError):
        build_stencil(grid, 0, mode="knn")


BLOCK_2X2 = """9 4
0 0
1 0
2 0
0 1
1 1
2 1
0 2
1 2
2 2
4 0 1 4 3
4 1 2 5 4
4 3 4 7 6
4 4 5 8 7
"""


def test_tiny_relative_distance_is_degenerate():
    # same 2x2 block, but a far-away cell stretches the bounding box until
    # the block's unit centroid spacing falls below 1e-13 of its diagonal
    grid = derive_geometry(parse_grid(BLOCK_2X2))
    assert build_stencil(grid, 0, mode="face").n == 2

    far = 3.0e13
    lines = BLOCK_2X2.strip().splitlines()
    lines[0] = "13 5"
    extra_nodes = [f"{far} 0.0", f"{far + 1.0} 0.0", f"{far + 1.0} 1.0",
                   f"{far} 1.0"]
    lines = lines[:10] + extra_nodes + lines[10:] + ["4 9 10 11 12"]
    stretched = derive_geometry(parse_grid("\n".join(lines) + "\n"))
    with pytest.raises(DegenerateStencilError) as err:
        build_stencil(stretched, 0, mode="face")
    assert "threshold" in str(err.value)
