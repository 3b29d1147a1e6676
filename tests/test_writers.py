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
VTK_GOLDEN = {
    ("quad", "face", 0):
        "1b06bad2850c80012bcfeffecf3a3709c9687dfabf12e6ac1ecb46aebd1c6a13",
    ("quad", "face", 1):
        "1b06bad2850c80012bcfeffecf3a3709c9687dfabf12e6ac1ecb46aebd1c6a13",
    ("quad", "vertex", 0):
        "2d180a650086a605c98739a9534aff254eb47ac9a7322609ff897fe5c0685047",
    ("quad", "vertex", 1):
        "575c0185fb395a4641552ebd8c561d3985efb888156c0238ea134ce488095f41",
    ("tri_regular", "face", 0):
        "cc1a013dc2e65de04050b347245f5277095a5ba6784082519c6e4e1ee6b0c6d7",
    ("tri_regular", "face", 1):
        "19e144fcc0610dfaf54a9b1e115add6b305b284fdc38510aab9f5338f510c0ad",
    ("tri_regular", "vertex", 0):
        "961453c3629455abc6fd6e117f150326f52bee4c3cca11faf5333f4cf9973201",
    ("tri_regular", "vertex", 1):
        "c27473c70e91c2e87bf56b3c4d377b4a4ec708e32ad40fa9ed87da909fb6ae81",
    ("tri_irregular", "face", 0):
        "5c0feab8a686bb6557e9083b9c026373f3728518adbe26bd2a1160a372754f19",
    ("tri_irregular", "face", 1):
        "ddaf9c705b017795cc5c730f1b74ba4ad09c5cef2aecc7544864628c56f86f53",
    ("tri_irregular", "vertex", 0):
        "38a34d15b8cdbb0e982d4de5f18fab60e20426b1a7529a6d41f8d940cb33a623",
    ("tri_irregular", "vertex", 1):
        "a5936cc7e39dc158b4c39d740762219c926404a1b42c6c60105e06ce03480fc0",
    ("notch", "face", 0):
        "5bb5ac0efa553be914f5fc8c5a2cd626174825caf6341fde2ff386c186f24522",
    ("mixed", "vertex", 0):
        "8c1fdb0df26a34b06d43334021b1660c4b43546aa08159ff54e08444e2b00e5d",
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
