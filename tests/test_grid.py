import dataclasses
import hashlib
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from gridgauge import (
    DegenerateStencilError,
    GenSpec,
    Grid,
    GridFormatError,
    derive_geometry,
    generate,
    grid_to_text,
    load_grid,
    parse_grid,
    replace_nodes,
    save_grid,
    write_grid,
)
from gridgauge.grid import (
    _hypot,
    _parse_bulk,
    _parse_lines,
    cell_lines,
    one_line,
)
from gridgauge.lsq import _adjacency
from gridgauge.oracle import build_stencil, distance

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
    assert grid.cell_nodes[0].tolist() == [0, 1, 2, 3]
    assert grid.cell_nverts.tolist() == [4]


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
    assert np.array_equal(again.cell_nodes, grid.cell_nodes)
    assert np.array_equal(again.cell_nverts, grid.cell_nverts)
    assert grid_to_text(again) == text1


def test_write_then_parse_stream():
    grid = parse_grid(UNIT_QUAD)
    buf = io.StringIO()
    write_grid(grid, buf)
    again = parse_grid(io.StringIO(buf.getvalue()))
    assert np.array_equal(again.nodes, grid.nodes)


@pytest.mark.parametrize("data, message", [
    (b"# name: x\xff\n3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n3 0 1 2\n",
     "line 1: invalid UTF-8 byte 0xff at offset 9"),
    (b"3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n3 0 1 2\n# caf\xc3\xa9\xfe\n",
     "line 6: invalid UTF-8 byte 0xfe at offset 43"),
], ids=["comment", "last-line"])
def test_text_stream_decode_error(tmp_path, data, message):
    # A text stream decodes in its read(); its error is the one bytes and
    # binary streams give.
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
        for source in (data, binary, text):
            with pytest.raises(GridFormatError) as info:
                parse_grid(source)
            assert str(info.value) == message


def test_triangle_geometry():
    grid = derive_geometry(parse_grid(TRIANGLE))
    assert grid.centroids[0] == pytest.approx((1 / 3, 1 / 3), abs=1e-15)
    assert grid.areas[0] == pytest.approx(0.5, abs=1e-15)


def test_unit_square_geometry():
    grid = derive_geometry(parse_grid(UNIT_QUAD))
    assert grid.centroids[0] == pytest.approx((0.5, 0.5), abs=1e-15)
    assert grid.areas[0] == pytest.approx(1.0, abs=1e-15)


def test_two_by_two_faces():
    # enumerated by hand: 4 shared edges inside, 8 on the boundary
    grid = derive_geometry(parse_grid(TWO_BY_TWO))
    fa = grid.face_arrays
    interior = fa.neighbor != -1
    assert interior.sum() == 4
    assert (~interior).sum() == 8
    assert (fa.owner[interior] != fa.neighbor[interior]).all()


def test_face_normals_unit_and_outward():
    grid = derive_geometry(parse_grid(UNIT_QUAD))
    fa = grid.face_arrays
    for owner, (nx, ny), (mx, my) in zip(fa.owner, fa.normal, fa.midpoint):
        assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-14)
        # outward: normal points away from the cell centroid
        cx, cy = grid.centroids[owner]
        assert (mx - cx) * nx + (my - cy) * ny > 0


def test_face_conservation_closed_cells():
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.35, seed=11))
    sums = np.zeros((grid.n_cells, 2))
    fa = grid.face_arrays
    for owner, nb, normal, length in zip(fa.owner, fa.neighbor, fa.normal,
                                         fa.length):
        v = normal * length
        sums[owner] += v
        if nb != -1:
            sums[nb] -= v
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
    fa = grid.face_arrays
    for owner, nb in zip(fa.owner.tolist(), fa.neighbor.tolist()):
        if nb != -1:
            adj.setdefault(owner, set()).add(nb)
            adj.setdefault(nb, set()).add(owner)
    for j, nbs in listed.items():
        if nbs is None:
            continue
        assert nbs == adj[j]
        for k in nbs:
            if listed[k] is not None:
                assert j in listed[k]


def test_stencil_neighbors_follow_the_grid_asked():
    # build_stencil keeps one grid's neighbor lists per mode: a call on
    # another grid, or on a grid re-derived with new connectivity, must not
    # read them.
    quad = generate(GenSpec(kind="quad", nx=5, ny=5))
    tri = generate(GenSpec(kind="tri_irregular", nx=5, ny=5, seed=3))
    flipped = generate(GenSpec(kind="tri_irregular", nx=5, ny=5, seed=3))

    def check(grid, mode, cells):
        indptr, indices = _adjacency(grid, mode)
        for j in cells:
            want = indices[indptr[j]:indptr[j + 1]].tolist()
            if len(want) >= 2:
                assert list(build_stencil(grid, j, mode).neighbors) == want

    for mode in ("face", "vertex"):
        for j in range(quad.n_cells):
            check(quad, mode, [j])
            check(tri, mode, [j])
        check(flipped, mode, range(flipped.n_cells))
    flipped.cell_nodes = flipped.cell_nodes[::-1].copy()
    derive_geometry(flipped)
    for mode in ("face", "vertex"):
        check(flipped, mode, range(flipped.n_cells))


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
    xj, yj = grid.centroids[7].tolist()
    for k, nb in enumerate(st.neighbors):
        xk, yk = grid.centroids[nb].tolist()
        assert st.dx[k] == xk - xj
        assert st.dy[k] == yk - yj
        assert st.d[k] == distance(xk - xj, yk - yj)


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


# sha256 of each core output of the 17x17 generated grids (tri_irregular:
# perturb 0.3, seed 42), taken before the grid core was vectorized; the
# tri_irregular lengths and normals were re-taken when the distance rule
# replaced math.hypot.
GOLDEN = {
    "quad": {
        "text":
            "394845fd52455aa7296c4c90cc58e06ab0d84306dd4d3d15d6097a1af43ffe45",
        "centroids":
            "88e02e06d66a3dfd4a7cd6a1a3e2c667d9b0c0b40cacff782fa7e741250a4fe6",
        "areas":
            "62fd56f6dba82940fef0d2e81f7ee6eb90b9a1966386285b96b358940370ef9c",
        "node_a":
            "fb02e4777e3b09b44fef081a20ff853f70fd0cc64fdb53ff0b5a156c651c62bb",
        "node_b":
            "51f72f40c9536353b87080ad3e3b3dc22b27cc8dda30cbcc679b070a61dcc9dd",
        "owner":
            "5583a47fd6b86f333e2ebefb135de7ac863f6978199d4bfb57a0ddfcb67d110b",
        "neighbor":
            "6d59fbdce1b5a1b1c4b068fabc55eb93cab6e3d3f1ad1c56dda4a1894e917123",
        "normal":
            "16974182d03ede58fa8cbfdc75c770a66829d878ecfa21516dc56052f20e7702",
        "length":
            "0aee5fd265cc62c073bc3919f6451bfd4bd279b7f8f64372f15a89f0d4b45df4",
        "midpoint":
            "ded79882aa21bee724e08e35ff6395ba4a17ee28144901c129d273d11f373620",
    },
    "quad_ar": {
        "text":
            "dcc2c7508bb4b75c9765171baf393c50555d4620de8b44d2850737593914d2a8",
        "centroids":
            "e1c5e2b4f1a2470135a009cb47c31837231ff8d1ca73aec4f01c42c4e976aee0",
        "areas":
            "b0f96142c5cede59e16b6d3ecc374431ff82b5321948400516b9a9606a0bf0d4",
        "node_a":
            "fb02e4777e3b09b44fef081a20ff853f70fd0cc64fdb53ff0b5a156c651c62bb",
        "node_b":
            "51f72f40c9536353b87080ad3e3b3dc22b27cc8dda30cbcc679b070a61dcc9dd",
        "owner":
            "5583a47fd6b86f333e2ebefb135de7ac863f6978199d4bfb57a0ddfcb67d110b",
        "neighbor":
            "6d59fbdce1b5a1b1c4b068fabc55eb93cab6e3d3f1ad1c56dda4a1894e917123",
        "normal":
            "16974182d03ede58fa8cbfdc75c770a66829d878ecfa21516dc56052f20e7702",
        "length":
            "0f0305b5c189917903b733cda1d807e17aea6886adbe2014de40a7eeb303a851",
        "midpoint":
            "2a28e327af021af594285dc852471819fdace37729b2be579bea1a67cc16a16f",
    },
    "tri_regular": {
        "text":
            "25beff222c2fc8fa2383be548d42c6b50861ae0b6b83d877718d3dedafea9347",
        "centroids":
            "75731a96e7b002c0983f233876ac264cfde3ec96183e8d6ce64132b10be0a37a",
        "areas":
            "8c74246543874a35da372ef26ccdb31ce88d8366951703be4b70427ff681dc3e",
        "node_a":
            "301c67b31bb08e06fd7da92a18f00085fbd44d7433dc1525e325f158a3374934",
        "node_b":
            "db085d913e8d3d459326b108a2b2b35682c8863d1023998beec65778cbe48768",
        "owner":
            "0815899e4325835c3e89147fd20735d37b8ab0989f07668b456726cb6e2a77da",
        "neighbor":
            "76c14e74ed94facd6e0b89feefd4ead35cb26b7ee76b4e12156c1279e9594a7f",
        "normal":
            "77785e5cf3742a3cfb6e3473e15f061c7df9447c796bdbdd0cdc27df913bd5cf",
        "length":
            "b56fbce65bc28a539daf31e5505bccbe5779737489c0a563f4fd0ca42fa165ea",
        "midpoint":
            "9bf957eb498c60e795a4f215be2816400f7d4d66e4c9f601da5f88942e1e2186",
    },
    "tri_irregular": {
        "text":
            "f3347344b5cdd45e5e18392a17409ac97f8a150501e28d7d67fbfe3e79d6f2ee",
        "centroids":
            "9dbc71febd2627b5feda6d6a3ca33a52e307db29c1fdf820389ed8cf06ae402e",
        "areas":
            "5cd62712dd0f9b85b534ffc7f2f054308d8eb6b79df26f74408089e818958109",
        "node_a":
            "b90c27b6c252cbda2db8debe430c6b1ae764320c0acf3fc6eb5eadeed2a9a991",
        "node_b":
            "55b926169c82bdebe01d2c7a9ea7d8ad5d32003d6e4db553f9c5ae7162cfae99",
        "owner":
            "29a5995905d416f2a51849b7f49625e3c610e322682e73c3eb3c562f865b8691",
        "neighbor":
            "9309d64c0163d89f7a30ff2a40789d732f0bb767334486aa2e3fded93b125ca8",
        "normal":
            "2f176cf8f07c3de6fb242f693b8e31919c6c4cd889dedb401fd5ee9082a72205",
        "length":
            "878a81bb03c2a9f3be5bcbab2a7e0b7e545a205a4c3f2a246ca985e5625baafd",
        "midpoint":
            "cecbf83b52d01652a8fb9bf1ef15cc529267bef4eae8d75b349804186252e3b2",
    },
}


def core_digests(grid):
    fa = grid.face_arrays
    arrays = {"centroids": grid.centroids, "areas": grid.areas,
              "node_a": fa.node_a, "node_b": fa.node_b, "owner": fa.owner,
              "neighbor": fa.neighbor, "normal": fa.normal,
              "length": fa.length, "midpoint": fa.midpoint}
    out = {"text": hashlib.sha256(grid_to_text(grid).encode()).hexdigest()}
    for key, a in arrays.items():
        dtype = np.int64 if a.dtype.kind == "i" else np.float64
        out[key] = hashlib.sha256(
            np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_grid_core_golden_digest(kind):
    # Only + - * / and sqrt go into these arrays, so the digests hold
    # on every IEEE-754 platform.
    grid = generate(GenSpec(kind=kind, nx=17, ny=17, perturb=0.3, seed=42))
    assert core_digests(grid) == GOLDEN[kind]
    parsed = derive_geometry(parse_grid(grid_to_text(grid)))
    assert core_digests(parsed) == GOLDEN[kind]


def test_edge_shared_by_three_cells_rejected():
    text = """5 3
0.0 0.0
1.0 0.0
0.5 1.0
0.5 -1.0
0.5 2.0
3 0 1 2
3 1 0 3
3 0 1 4
"""
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == "edge (0, 1) shared by more than two cells"
    assert err.value.line is None


def test_coincident_nodes_zero_length_edge_rejected():
    # Nodes 1 and 2 coincide; the quad still has positive area.
    text = UNIT_QUAD.replace("1.0 1.0", "1.0 0.0")
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == "zero-length edge (1, 2) in cell 0"
    assert err.value.line is None


def test_zero_fan_area_rejected():
    # A bow-tie quad: its shoelace area rounds to a positive number, but its
    # two fan triangles cancel exactly. The fan is the one area rule, so
    # the parser names the cell's line.
    text = """4 1
0.6666666666666666 0.5
1.0 1.0
1.0 0.5
0.6666666666666666 1.0
4 0 1 2 3
"""
    with pytest.raises(GridFormatError) as err:
        Grid("bow-tie", np.array([[2 / 3, 0.5], [1.0, 1.0], [1.0, 0.5],
                                  [2 / 3, 1.0]]), np.array([[0, 1, 2, 3]]))
    assert str(err.value) == "cell 0 has non-positive area 0.0"
    assert err.value.line is None
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == ("line 6: cell has non-positive area "
                              "(vertices must be counter-clockwise)")
    assert err.value.line == 6


def test_first_faulty_edge_reported():
    # Cell 2 is the third cell on edge (0, 1); cell 3, later, has a
    # zero-length edge.
    text = """9 4
0.0 0.0
1.0 0.0
0.5 1.0
0.5 -1.0
0.5 2.0
5.0 0.0
6.0 0.0
6.0 0.0
5.0 1.0
3 0 1 2
3 1 0 3
3 0 1 4
4 5 6 7 8
"""
    with pytest.raises(GridFormatError) as err:
        derive_geometry(parse_grid(text))
    assert str(err.value) == "edge (0, 1) shared by more than two cells"


def distances(x, y):
    """The scalar distance rule over two arrays, one pair at a time."""
    return np.array(list(map(distance, x.tolist(), y.tolist())), float)


def check_distance_rule(x, y):
    """_hypot(x, y) equals the scalar rule bit for bit, changes under no swap
    or sign flip of its arguments, and is within 2 ulp of math.hypot (1 ulp
    on subnormal results), with NaN where it is NaN; no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _hypot(x, y)
        assert got.dtype == np.float64
        bits = got.view(np.int64)
        assert np.array_equal(bits, distances(x, y).view(np.int64))
        for a, b in ((y, x), (-x, y), (x, -y), (-y, -x)):
            assert np.array_equal(_hypot(a, b).view(np.int64), bits)
    want = np.array(list(map(math.hypot, x.tolist(), y.tolist())), float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # Non-negative doubles are ordered as their bits, and inf is one step
    # past the largest double, so the bit distance counts ulps.
    ulps = np.abs(bits[~nan] - want[~nan].view(np.int64))
    assert ulps.max(initial=0) <= 2
    assert ulps[want[~nan] < sys.float_info.min].max(initial=0) <= 1


# Every kind of float: zeros of both signs, subnormals, the ends of the
# normal range, 2**1022 and its predecessor, inf and NaN.
any_float = strategies.one_of(
    strategies.floats(),
    strategies.floats(-2.3e-308, 2.3e-308),
    strategies.sampled_from([
        0.0, -0.0, 5e-324, sys.float_info.min, 2.0**1022,
        math.nextafter(2.0**1022, 0.0), sys.float_info.max, math.inf,
        -math.inf, math.nan]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(strategies.lists(strategies.tuples(any_float, any_float), max_size=40))
def test_distance_rule_on_any_floats(pairs):
    x, y = np.array(pairs, float).reshape(-1, 2).T
    check_distance_rule(x, y)


def test_distance_rule_on_sample():
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
    check_distance_rule(x, y)
    for length in (0, 1):
        check_distance_rule(x[:length], y[:length])
    # Integers, cast to float64 as math.hypot converts them.
    for bound in (100, 2**62):
        i, k = rng.integers(-bound, bound, (2, 1000))
        check_distance_rule(i, k)


def test_distance_rule_exact_cases():
    # (3, 4) * 2**k has length 5 * 2**k, and an axis-aligned offset its
    # magnitude, from the least subnormal to the largest double.
    k = np.arange(-1074, 1022)
    three, four, five = (np.ldexp(float(c), k) for c in (3, 4, 5))
    assert np.array_equal(_hypot(three, four), five)
    assert np.array_equal(distances(three, four), five)
    rng = np.random.default_rng(7)
    v = np.concatenate([
        [5e-324, sys.float_info.min, sys.float_info.max, math.inf],
        np.ldexp(rng.random(1000) + 0.5, rng.integers(-1074, 1023, 1000))])
    v = np.concatenate([v, -v, [0.0, -0.0]])
    zero = np.zeros_like(v)
    for x, y in ((v, zero), (zero, v), (v, -zero)):
        assert np.array_equal(_hypot(x, y), np.abs(v))
        assert np.array_equal(distances(x, y), np.abs(v))
    # Scalars give 0-d results, as Grid.bbox_diagonal takes them.
    assert float(_hypot(3.0, -4.0)) == distance(3.0, -4.0) == 5.0
    assert float(_hypot(-0.0, 0.0)) == distance(-0.0, 0.0) == 0.0


def unique_faces(nodes, cell_nodes):
    """Face discovery by np.unique, as derive_geometry did it before its one
    stable sort: the FaceArrays fields, or the message of the first faulty
    edge in discovery order."""
    nverts = (cell_nodes[:, 3] >= 0) + 3
    x, y = nodes[:, 0], nodes[:, 1]
    end, valid = np.roll(cell_nodes, -1, 1), cell_nodes >= 0
    a, b = cell_nodes[valid], np.where(end >= 0, end, cell_nodes[:, :1])[valid]
    cell = np.repeat(np.arange(len(nverts)), nverts)
    key = np.minimum(a, b) * len(nodes) + np.maximum(a, b)
    _, first, group, count = np.unique(key, return_index=True,
                                       return_inverse=True, return_counts=True)
    group = group.ravel()
    by_group = np.argsort(group, kind="stable")
    group_start = np.cumsum(count) - count
    second = by_group[group_start[count > 1] + 1]
    third = by_group[group_start[count > 2] + 2]
    order = np.argsort(first)
    face = np.argsort(order)[group]
    first = first[order]
    na, nb = a[first], b[first]
    dx, dy = x[nb] - x[na], y[nb] - y[na]
    length = distances(dx, dy)
    twice = second[(a[second] == na[face[second]])
                   & (b[second] == nb[face[second]])]
    faults = {"zero": first[length == 0.0], "twice": twice, "thrice": third}
    faults = [(int(e.min()), kind) for kind, e in faults.items() if len(e)]
    if faults:
        i, kind = min(faults)
        pair = (int(min(a[i], b[i])), int(max(a[i], b[i])))
        j = int(cell[i])
        if kind == "zero":
            return f"zero-length edge {pair} in cell {j}"
        if kind == "thrice":
            return f"edge {pair} shared by more than two cells"
        return (f"edge {pair} traversed twice in the same direction (cells "
                f"{int(cell[first[face[i]]])} and {j} overlap or are flipped)")
    neighbor = np.full(len(first), -1, dtype=np.intp)
    neighbor[face[second]] = cell[second]
    return {"node_a": na, "node_b": nb, "owner": cell[first],
            "neighbor": neighbor,
            "normal": np.column_stack([dy / length, -dx / length]),
            "length": length,
            "midpoint": np.column_stack([(x[na] + x[nb]) / 2.0,
                                         (y[na] + y[nb]) / 2.0])}


def face_outcome(nodes, cell_nodes):
    """derive_geometry's FaceArrays fields, or its error message."""
    try:
        fa = Grid("g", nodes, cell_nodes).face_arrays
    except GridFormatError as exc:
        return str(exc)
    return {name: getattr(fa, name) for name in (
        "node_a", "node_b", "owner", "neighbor", "normal", "length",
        "midpoint")}


FAULTS = ("zero-length edge", "shared by more than two cells",
          "traversed twice in the same direction")


def fault_tables(grid, rng):
    """Cell tables of grid with a copy of its first cell (edges traversed
    twice in one direction, or by three cells) and with a copy of an
    interior cell; for quads, also with node 1 moved onto node 0, which
    makes a zero-length edge in a cell of positive area (in a triangle the
    area would be 0)."""
    fa = grid.face_arrays
    inner = np.flatnonzero(np.bincount(fa.owner[fa.neighbor < 0],
                                       minlength=grid.n_cells) == 0)
    cases = [
        (grid.nodes, np.vstack([grid.cell_nodes, grid.cell_nodes[:1]])),
        (grid.nodes, np.vstack([grid.cell_nodes,
                                grid.cell_nodes[rng.choice(inner)][None]])),
    ]
    if grid.cell_nverts[0] == 4:
        nodes = grid.nodes.copy()
        nodes[1] = nodes[0]
        cases.append((nodes, grid.cell_nodes))
    return cases


@pytest.mark.parametrize("kind", ["quad", "quad_ar", "tri_regular",
                                  "tri_irregular"])
def test_face_discovery_matches_unique_reference(kind):
    rng = np.random.default_rng(18)
    grid = generate(GenSpec(kind=kind, nx=9, ny=7, seed=3))
    table = grid.cell_nodes
    for _ in range(4):
        got = face_outcome(grid.nodes, table)
        want = unique_faces(grid.nodes, table)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert np.array_equal(got[name], value), name
        table = table[rng.permutation(len(table))]
    seen = set()
    for nodes, table in fault_tables(grid, rng):
        for _ in range(4):
            got = face_outcome(nodes, table)
            assert got == unique_faces(nodes, table)
            seen.update(fault for fault in FAULTS if fault in got)
            table = table[rng.permutation(len(table))]
    # Each fault the grid's cells can have is reached.
    assert seen == set(FAULTS if kind.startswith("quad") else FAULTS[1:])


@pytest.mark.parametrize("corners, scale, message", [
    # Both fan products overflow to inf: the area is inf - inf = NaN.
    ([[0, 0], [2, 1], [1, 2]], 1e160, "cell 0 has non-positive area nan"),
    # The area is finite, but area times coordinate sum overflows.
    ([[0, 0], [1, 0], [0, 1]], 1e150, "cell 0 has a non-finite centroid"),
    # The area, 5e-221, is normal, but area times coordinate sum underflows.
    ([[0, 0], [1, 0], [0, 1]], 1e-110, "cell 0 has a centroid that underflows"),
])
def test_overflowing_geometry_rejected(corners, scale, message):
    nodes = np.array(corners, dtype=float) * scale
    with pytest.raises(GridFormatError) as err:
        Grid("huge", nodes, np.array([[0, 1, 2, -1]]))
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    # Finite fan area, overflowing centroid sums.
    ("3 1\n0 0\n1e160 0\n0 1e140\n3 0 1 2\n",
     "line 5: cell 0 has a non-finite centroid"),
    ("3 1\n0 0\n1e-110 0\n0 1e-110\n3 0 1 2\n",
     "line 5: cell 0 has a centroid that underflows"),
    # An edge fault comes before a centroid fault, and names no line.
    ("3 2\n0 0\n1e160 0\n0 1e140\n3 0 1 2\n3 0 1 2\n",
     "edge (0, 1) traversed twice in the same direction (cells 0 and 1 "
     "overlap or are flipped)"),
])
def test_centroid_fault_has_line_number(text, message):
    for parse in (parse_grid, lambda t: _parse_lines(t, "")):
        with pytest.raises(GridFormatError) as err:
            parse(text)
        assert str(err.value) == message


def test_overflowing_shoelace_area_has_line_number():
    # Fan-area products overflow to inf and their difference to NaN, which
    # the parser rejects, without a NumPy warning, at that cell's line.
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
    text = f"{grid.n_nodes} {grid.n_cells}\n" + "".join(
        f"{x!r} {y!r}\n" for x, y in (grid.nodes * 1e160).tolist())
    with pytest.raises(GridFormatError) as err:
        parse_grid(text + "".join(cell_lines(grid)))
    assert err.value.line is not None
    assert str(err.value) == f"line {err.value.line}: cell area overflows"


@pytest.mark.parametrize("index", ["4", "-1"])
def test_parse_vertex_index_bounds(index):
    bad = UNIT_QUAD.replace("4 0 1 2 3", f"4 0 1 2 {index}")
    with pytest.raises(GridFormatError) as err:
        parse_grid(bad)
    assert str(err.value) == f"line 6: vertex index {index} out of range [0, 4)"
    assert err.value.line == 6

def test_first_bad_cell_line_reported():
    text = UNIT_QUAD.replace("4 1\n", "4 2\n").replace(
        "4 0 1 2 3\n", "3 0 0 1\n4 0 1 2 9\n")
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == "line 6: repeated vertex in cell (0, 0, 1)"
    assert err.value.line == 6


@pytest.mark.parametrize("cells, message", [
    ("4 0 3 2 1\n4 0 1 2 9\n",
     "cell has non-positive area (vertices must be counter-clockwise)"),
    ("4 0 1 2 9\n4 0 3 2 1\n", "vertex index 9 out of range [0, 4)"),
], ids=["area-first", "index-first"])
def test_first_bad_cell_line_wins_over_area(cells, message):
    # The line parser tests the cells' areas together, but only those
    # before its first otherwise faulty line.
    text = UNIT_QUAD.replace("4 1\n", "4 2\n").replace("4 0 1 2 3\n", cells)
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == f"line 6: {message}"


def test_bad_node_line_wins_over_later_bad_cell_line():
    text = UNIT_QUAD.replace("1.0 0.0\n", "1.0 x\n").replace(
        "4 0 1 2 3", "4 0 1 2 9")
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert str(err.value) == "line 3: bad coordinate '1.0 x'"
    assert err.value.line == 3


@pytest.mark.parametrize("layout", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(" ", " \t "),
    lambda t: t.replace("\n3 ", "\n# a comment\n\n3 ", 1),
    lambda t: t + "# trailing comment\n\n",
    lambda t: "\n# name: renamed\n" + t,
], ids=["crlf", "tabs", "inner-comment", "trailing-comment", "leading-lines"])
def test_layouts_parse_alike(layout):
    grid = generate(GenSpec(kind="tri_irregular", nx=5, ny=4, seed=2))
    text = grid_to_text(grid)
    again = parse_grid(layout(text))
    assert np.array_equal(again.nodes, grid.nodes)
    assert np.array_equal(again.cell_nodes, grid.cell_nodes)
    assert grid_to_text(again).split("\n", 1)[1] == text.split("\n", 1)[1]


# Two quads and four triangles on a 3x3 block of nodes.
MIXED = """# name: mixed
9 6
0.0 0.0
1.0 0.0
2.0 0.0
0.0 1.0
1.0 1.0
2.0 1.0
0.0 2.0
1.0 2.0
2.0 2.0
4 0 1 4 3
4 1 2 5 4
3 3 4 7
3 3 7 6
3 4 5 8
3 4 8 7
"""


def parse_outcome(parse, text):
    """The parsed name, node bits and cell table, or the GridFormatError
    message and line; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = parse(text)
        except GridFormatError as exc:
            return "error", str(exc), exc.line
    return (grid.name, grid.nodes.view(np.int64).tolist(),
            grid.cell_nodes.tolist(), grid.cell_nverts.tolist())


def vertex(token):
    return MIXED.replace("4 0 1 4 3\n", f"4 0 1 4 {token}\n")


def triangle(*corners):
    return "3 1\n" + "".join(f"{x!r} {y!r}\n" for x, y in corners) + "3 0 1 2\n"


# Triangles on which the shoelace area and the fan area from vertex 0
# disagree in sign: shoelace 0.0 and fan +1.2e-9, shoelace +1.1e-13 and fan
# -6.8e-15. The fan decides.
FAN_POSITIVE = triangle((-20068755.773909453, 22581898.38048783),
                        (-20068755.282541193, 22581896.741630685),
                        (-20068755.022497073, 22581895.874307342))
FAN_NEGATIVE = triangle((78.34221408903144, 17.032587978181613),
                        (78.07259376168953, 16.78902929910251),
                        (77.95308895132821, 16.681075889053133))


def coordinate(token):
    return MIXED.replace("\n0.0 0.0\n", f"\n{token} 0.0\n")


@pytest.mark.parametrize("text", [
    MIXED,
    vertex("+3"),
    MIXED.replace("3 3 4 7\n", "3 3 4 007\n"),
    MIXED.replace("4 0 1 4 3\n", "4 -0 1 4 3\n"),
    vertex("1_0"),
    vertex("0_3"),
    vertex(str(2**63)),
    vertex("-"),
    # Read as 0, the sign would make the quad's last vertex node 0.
    MIXED.replace("4 0 1 4 3\n", "") + "4 1 4 3 +",
    vertex("3.0"),
    vertex("3e0"),
    vertex("1-2"),
    coordinate("1_0"),
    coordinate("0_0.5"),
    coordinate("-0.0"),
    coordinate(".5"),
    coordinate("1."),
    coordinate("1e400"),
    coordinate("nan"),
    coordinate("1e5-3"),
    coordinate("1.0x"),
    coordinate("5e-324"),
    coordinate("-"),
    MIXED.replace("0.0 1.0\n", "0.0 1.0\r", 1),
    MIXED.replace("0.0 1.0\n", "0.0 1.0\x0c", 1),
    MIXED.replace("0.0 1.0\n", "0.0 1.0\x1d", 1),
    MIXED.replace("# name: mixed\n", "# name: mixed\r"),
    MIXED.replace("# name: mixed\n", "# name: mixed\x0c# other\n"),
    MIXED.replace("mixed", "mixed\u00e9"),
    MIXED + "\n\n",
    MIXED[:-1],
    MIXED.replace("\n", "\r\n"),
    MIXED.replace(" ", "\t"),
    MIXED.replace("0.0 2.0\n", "0.0  2.0 \n"),
    MIXED.replace("9 6\n", "9 6\n\n"),
    MIXED.replace("9 6\n", "9 6 0\n"),
    MIXED.replace("4 1 2 5 4\n", "4 1 2 5\n"),
    MIXED.replace("4 0 1 4 3\n", "4 0 1 2 -1\n"),
    MIXED.replace("4 0 1 4 3\n", "4 0 1 2 9\n"),
    vertex("1"),
    MIXED.replace("4 0 1 4 3\n", "4 0 1 1 3\n"),
    FAN_POSITIVE,
    FAN_NEGATIVE,
], ids=[
    "plain", "index-plus", "index-leading-zeros", "index-minus-zero",
    "index-underscore", "index-underscore-valid", "index-2**63",
    "index-lone-sign", "index-lone-sign-at-end", "index-point",
    "index-exponent", "index-1-2", "coord-underscore",
    "coord-underscore-valid", "coord-minus-zero", "coord-leading-point",
    "coord-trailing-point", "coord-1e400", "coord-nan", "coord-1e5-3",
    "coord-1.0x", "coord-subnormal", "coord-lone-sign", "lone-cr",
    "form-feed", "group-separator", "cr-in-prefix", "form-feed-in-comment",
    "non-ascii-name",
    "trailing-blank-lines", "no-final-newline", "crlf", "tabs",
    "extra-blanks", "blank-line-after-header", "long-header",
    "short-cell-line", "index-minus-one", "index-past-last",
    "repeated-opposite", "repeated-adjacent", "fan-positive", "fan-negative",
])
def test_bulk_parse_matches_line_parse(text):
    assert parse_outcome(parse_grid, text) == parse_outcome(
        lambda t: _parse_lines(t, ""), text)


def test_fan_area_decides():
    assert parse_grid(FAN_POSITIVE).areas[0] > 0.0
    with pytest.raises(GridFormatError) as err:
        parse_grid(FAN_NEGATIVE)
    assert str(err.value) == ("line 5: cell has non-positive area "
                              "(vertices must be counter-clockwise)")


@pytest.mark.parametrize("layout", [
    lambda t: t,
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(" ", "\t"),
    lambda t: "\n# a comment\n\n# name: renamed\n" + t,
    lambda t: t[:-1],
], ids=["lf", "crlf", "tabs", "leading-comments", "no-final-newline"])
def test_layouts_take_bulk_parse(layout):
    assert _parse_bulk(layout(MIXED).encode("ascii"), "") is not None


@pytest.mark.parametrize("row", [
    [0, 1, -1, 2],          # padding before a vertex
    [0, 1, 2, 99],          # index past the last node
    [0, 1, 2, -2],          # negative index other than the padding
    [0, -1, -1, -1],        # one vertex
])
def test_malformed_cell_row_named(row):
    quad = generate(GenSpec(kind="quad", nx=4, ny=4))
    cell_nodes = quad.cell_nodes.copy()
    cell_nodes[0] = row
    with pytest.raises(GridFormatError) as err:
        Grid("bad", quad.nodes, cell_nodes)
    assert str(err.value) == (
        f"cell 0 has nodes {row}, not 3 or 4 indices in [0, 16) then -1")


def test_first_malformed_cell_row_named():
    quad = generate(GenSpec(kind="quad", nx=4, ny=4))
    cell_nodes = quad.cell_nodes.copy()
    cell_nodes[[4, 7]] = [[5, 6, 10, 16], [-1, 9, 13, 12]]
    with pytest.raises(GridFormatError, match="^cell 4 has nodes"):
        Grid("bad", quad.nodes, cell_nodes)


@pytest.mark.parametrize("cell_nodes", [
    np.array([[0.0, 1.0, 2.0, -1.0]]),
    np.array([[0, 1, 2, -1]], dtype=np.int32),
    np.array([[0, 1, 2, 2]], dtype=np.uint64),
    np.array([[0, 1, 2]]),
    np.array([0, 1, 2, -1]),
    [[0, 1, 2, -1]],
])
def test_cell_table_must_be_intp_n_by_4(cell_nodes):
    with pytest.raises(GridFormatError, match=r"^the cell table is not an "
                                              r"\(n, 4\) array of intp$"):
        Grid("bad", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             cell_nodes)


def test_vertex_counts_follow_the_padding():
    # The one table says how many vertices each cell has: a quad row read
    # whole, a row padded after three nodes read as a triangle.
    quad = generate(GenSpec(kind="quad", nx=4, ny=4))
    assert quad.cell_nverts.tolist() == [4] * 9
    cell_nodes = quad.cell_nodes.copy()
    cell_nodes[0] = [0, 1, 5, -1]
    grid = Grid("corner", quad.nodes, cell_nodes)
    assert grid.cell_nverts.tolist() == [3] + [4] * 8
    assert grid.areas[0] == pytest.approx(quad.areas[0] / 2)
    empty = Grid("empty", quad.nodes, np.empty((0, 4), dtype=np.intp))
    assert empty.n_cells == 0


@pytest.mark.parametrize("name, written", [
    ("two\nlines", "two lines"),
    ("crlf\r\nend", "crlf end"),
    ("lf\n\ntwice", "lf  twice"),
    ("all\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", "all" + " " * 9),
])
def test_name_comment_is_one_line(name, written):
    grid = parse_grid(UNIT_QUAD)
    grid.name = name
    text = grid_to_text(grid)
    assert text.splitlines()[0] == f"# name: {written}"
    assert parse_grid(text).name == written.strip()


def test_one_line_replaces_every_splitlines_break():
    # Every code point, each after an "x", so that no two form a CRLF.
    text = "".join(f"x{chr(c)}" for c in range(0x110000))
    assert one_line(text) == " ".join(text.splitlines())
    assert one_line("a\r\nb\n\rc") == "a b  c"


def grid_nbytes(grid):
    """Bytes of the arrays a grid keeps."""
    fa = grid.face_arrays
    arrays = [grid.nodes, grid.cell_nodes, grid.cell_nverts, grid.centroids,
              grid.areas]
    arrays += [getattr(fa, f.name) for f in dataclasses.fields(fa)]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("build", ["generate", "load_grid"])
def test_generate_and_load_memory(build, tmp_path):
    # derive_geometry and the bulk parser free each temporary once it is
    # used, so building a grid or reading one peaks within twice what the
    # grid keeps. Holding them to the end, generate peaked at 2.69 times
    # and load_grid at 2.79 times here.
    spec = GenSpec(kind="tri_irregular", nx=65, ny=65, perturb=0.3, seed=42)
    path = tmp_path / "g.txt"
    save_grid(generate(spec), path)
    run = {"generate": lambda: generate(spec),
           "load_grid": lambda: load_grid(path)}[build]
    run()
    tracemalloc.start()
    try:
        grid = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * grid_nbytes(grid)


@pytest.mark.parametrize("build, bound", [("generate", 1.34),
                                          ("load_grid", 1.46)])
def test_face_columns_memory(build, bound, tmp_path):
    # derive_geometry frees the edge offsets and the face numbering before
    # it writes the (m, 2) normal and midpoint columns in place and takes
    # the bounding box. Holding them to the end, a 129^2 grid peaked at 1.39
    # (generate) and 1.50 (load_grid) times what it keeps, and here at 1.29
    # and 1.41.
    spec = GenSpec(kind="tri_irregular", nx=129, ny=129, perturb=0.3,
                   seed=42)
    path = tmp_path / "g.txt"
    save_grid(generate(spec), path)
    run = {"generate": lambda: generate(spec),
           "load_grid": lambda: load_grid(path)}[build]
    run()
    tracemalloc.start()
    try:
        grid = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid_nbytes(grid)
