"""Golden digests of the bytes the grid and VTK writers produce."""

import hashlib
import io

import numpy as np
import pytest

from gridgauge import GenSpec, Grid, generate, grid_to_text, write_vtk
from gridgauge.grid import cell_lines
from gridgauge.lsq import lsq_table
from tests.test_lsq import notch_grid

# sha256 of write_vtk's output with the F/G fields of lsq_table, and of
# grid_to_text, as the per-value writers of earlier versions formatted them.
# The VTK digests that the distance rule moved, in the last digits of F and
# G, were re-taken when it replaced math.hypot.
VTK_GOLDEN = {
    ("quad", "face", 0):
        "2c7b3013f3c70e605c26977e521bfb3381f92f478a7774938c2230fb95ee8bdb",
    ("quad", "face", 1):
        "2c7b3013f3c70e605c26977e521bfb3381f92f478a7774938c2230fb95ee8bdb",
    ("quad", "vertex", 0):
        "2d180a650086a605c98739a9534aff254eb47ac9a7322609ff897fe5c0685047",
    ("quad", "vertex", 1):
        "575c0185fb395a4641552ebd8c561d3985efb888156c0238ea134ce488095f41",
    ("tri_regular", "face", 0):
        "3416a29a32d651586d8234ab65b6f94ae10601791d5f791b2a20268289a05317",
    ("tri_regular", "face", 1):
        "5d767114163cbc833bf7b08b2e7f07aa7d96bb8c7c8a7d58b5c094f373ca1fe2",
    ("tri_regular", "vertex", 0):
        "78aec82630ba5763da267a0b2d83cbd10f540ec8a2a4c51fb9ba90693f2b28e8",
    ("tri_regular", "vertex", 1):
        "20dc977a8a2bdb0e4123eb110817b9e9aea3850150e4e2b78684b4a34758dd1d",
    ("tri_irregular", "face", 0):
        "a1824237e78ac468261ba44878118029eb3760d309245aad85b001e48db81fcc",
    ("tri_irregular", "face", 1):
        "5cfb8965e31ded6078c99bf1ae30c1f59229be0da8a7c3d2cbace96faf91f2a8",
    ("tri_irregular", "vertex", 0):
        "01ab6fc82bffde8e81f4df06e4ac1ea9e0f51298b89d740d151f574966e793b1",
    ("tri_irregular", "vertex", 1):
        "9715748af268b6448e056124a6929650d44385bf263bb909d73d78e35508c7dd",
    ("notch", "face", 0):
        "5bb5ac0efa553be914f5fc8c5a2cd626174825caf6341fde2ff386c186f24522",
    ("mixed", "vertex", 0):
        "08f109b14bd448834debd820bd351ed5d24e1427837cf2243a5138f12e2bf1d7",
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


def test_mixed_grid_sections():
    grid = mixed_grid()
    assert cell_lines(grid) == "4 0 1 4 3\n3 1 2 5\n3 1 5 4\n"
    lines = vtk_text(grid, 0, "vertex").splitlines()
    start = lines.index("CELL_TYPES 3")
    assert lines[start + 1:start + 4] == ["9", "5", "5"]
    assert "CELLS 3 13" in lines
    assert grid_to_text(grid).splitlines()[2] == "0.0 0.0"
