"""Golden digests of the bytes the grid and VTK writers produce."""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest

import gridgauge.grid
from gridgauge import GenSpec, Grid, generate, grid_to_text, write_vtk
from gridgauge.grid import cell_lines
from gridgauge.lsq import lsq_table
from tests.helpers import notch_grid

# sha256 of write_vtk's output with the F/G fields of lsq_table, and of
# grid_to_text, as the per-value writers of earlier versions formatted them.
# The VTK digests that the distance rule moved, in the last digits of F and
# G, were re-taken when it replaced math.hypot, and those that the exp rule
# moved, in the last digits of G, when it replaced math.exp.
VTK_GOLDEN = {
    ("quad", "face", 0):
        "2c7b3013f3c70e605c26977e521bfb3381f92f478a7774938c2230fb95ee8bdb",
    ("quad", "face", 1):
        "2c7b3013f3c70e605c26977e521bfb3381f92f478a7774938c2230fb95ee8bdb",
    ("quad", "vertex", 0):
        "e100ef6dfa9b7519e3b64f020953567cd530b534f239374f4f00d925e2a195b7",
    ("quad", "vertex", 1):
        "cbeafcbf126f4ff959aa839e2b666f71d14fe057ab1935b3240ecc752a792b0f",
    ("tri_regular", "face", 0):
        "4aed1e40909a2b6d1d2cd942cc348efccf19c4311118958042f3ceec16106ad2",
    ("tri_regular", "face", 1):
        "1bf8cca1d23e810c306ac2681ccf6442ae3df0e57e1363edf3f3771ef256ae21",
    ("tri_regular", "vertex", 0):
        "6fc48ff386a6f531c6ce23a5c46f7de180e2d1889c0915eba747c43f20ec0295",
    ("tri_regular", "vertex", 1):
        "b408231b1a6ab5017b1d96e8ab31664f7426924ce2dce791125af9eb65b7dda6",
    ("tri_irregular", "face", 0):
        "86c532a71efba7f728383e75c9d941e6a4a4f4b6b4f8d894ace7bf212c56fc2b",
    ("tri_irregular", "face", 1):
        "6760bdd37b5d8b5792c9e7b143285cd1d313d237f7bd3355dfdfb61d260bd877",
    ("tri_irregular", "vertex", 0):
        "e2b659f66e5572496d09e87c281bc8846c44c87f99fbdc731b671e4d4cb9f703",
    ("tri_irregular", "vertex", 1):
        "f0c94333fc43e35b900689b35f05f4f7f9bfb3830d1145dfe25e0e1932c838ad",
    ("notch", "face", 0):
        "5bb5ac0efa553be914f5fc8c5a2cd626174825caf6341fde2ff386c186f24522",
    ("mixed", "vertex", 0):
        "4cccb60a88d3ef9e9d71acdbd461c2cf0f90313c54aaab18b38cf3cd1b11a29c",
}
TEXT_GOLDEN = {
    "mixed":
        "1a54352e136b5b80caf119da5915316a5ed22865288f5d7ab99c02a91ed5f27d",
}


def mixed_grid():
    """A named grid of one quad and two triangles, with nodes given as
    integers: no generated grid mixes cell shapes."""
    return Grid(name="mixed", nodes=np.array([[0, 0], [1, 0], [2, 0],
                                              [0, 1], [1, 1], [2, 1]]),
                cell_nodes=np.array([[0, 1, 4, 3], [1, 2, 5, -1],
                                     [1, 5, 4, -1]]))


def make_grid(kind):
    if kind == "notch":
        return notch_grid()
    if kind == "mixed":
        return mixed_grid()
    return generate(GenSpec(kind=kind, nx=17, ny=17, perturb=0.3, seed=42))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def vtk_text(grid, p, mode):
    table = lsq_table(grid, p, mode)
    buf = io.StringIO()
    write_vtk(buf, grid, {"F_measure": table.f, "G_measure": table.g},
              title=f"gridgauge measures for {grid.name}")
    return buf.getvalue()


@pytest.mark.parametrize("kind, mode, p", sorted(VTK_GOLDEN))
def test_vtk_golden_digest(kind, mode, p):
    assert sha256(vtk_text(make_grid(kind), p, mode)) == \
        VTK_GOLDEN[kind, mode, p]


@pytest.mark.parametrize("kind", sorted(TEXT_GOLDEN))
def test_grid_text_golden_digest(kind):
    assert sha256(grid_to_text(make_grid(kind))) == TEXT_GOLDEN[kind]


@pytest.mark.parametrize("lines", [1, 2, 7])
def test_writers_golden_in_small_blocks(lines, monkeypatch):
    # The writers build node and cell lines in blocks of _LINES lines; here
    # every file spans several blocks, most of which end mid-file.
    monkeypatch.setattr(gridgauge.grid, "_LINES", lines)
    assert sha256(grid_to_text(mixed_grid())) == TEXT_GOLDEN["mixed"]
    for kind, mode, p in (("mixed", "vertex", 0),
                          ("tri_irregular", "face", 1)):
        assert sha256(vtk_text(make_grid(kind), p, mode)) == \
            VTK_GOLDEN[kind, mode, p]


def test_mixed_grid_sections():
    grid = mixed_grid()
    assert "".join(cell_lines(grid)) == "4 0 1 4 3\n3 1 2 5\n3 1 5 4\n"
    lines = vtk_text(grid, 0, "vertex").splitlines()
    start = lines.index("CELL_TYPES 3")
    assert lines[start + 1:start + 4] == ["9", "5", "5"]
    assert "CELLS 3 13" in lines
    assert grid_to_text(grid).splitlines()[2] == "0.0 0.0"


def test_cell_lines_memory():
    # The node words are formatted _LINES indices at a time, so the cell
    # lines of a 257^2 grid (66,049 nodes) peak at the word table plus one
    # block, 1.17 MiB here. Formatted from one tuple of all indices, they
    # peaked at 3.44 MiB.
    grid = generate(GenSpec(kind="quad", nx=257, ny=257))
    for _ in cell_lines(grid):
        pass
    tracemalloc.start()
    try:
        for _ in cell_lines(grid):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
