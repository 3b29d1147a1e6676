"""Stencils and grids shared by several test modules. NumPy alone: the
modules that import them run without SciPy too."""

from gridgauge import GenSpec, Grid, derive_geometry, generate
from gridgauge.oracle import Stencil, distance


def make_stencil(dx, dy):
    dx = tuple(float(v) for v in dx)
    dy = tuple(float(v) for v in dy)
    d = tuple(distance(a, b) for a, b in zip(dx, dy))
    return Stencil(cell=0, neighbors=tuple(range(1, len(dx) + 1)), dx=dx, dy=dy, d=d)


def notch_grid():
    """4x2 quads without the two top-right cells: cell 2 has two collinear
    face neighbors (singular), cell 3 one neighbor (degenerate)."""
    quad = generate(GenSpec(kind="quad", nx=5, ny=3))
    return derive_geometry(Grid(name="notch", nodes=quad.nodes,
                                cell_nodes=quad.cell_nodes[:6]))
