"""Deterministic generators for the four structured test-grid families.

All families live on the unit square (height 1/aspect_ratio for the
high-aspect-ratio family) with ``nx`` by ``ny`` nodes:

* ``quad``          uniform quadrilateral lattice
* ``quad_ar``       uniform lattice on [0,1] x [0,1/AR], so dx/dy = AR
* ``tri_regular``   every quad split along the same (lower-left to
                    upper-right) diagonal
* ``tri_irregular`` interior nodes jittered, each quad split along a
                    randomly chosen diagonal

Randomness (tri_irregular only) comes from ``numpy.random.default_rng(seed)``
and is consumed in a fixed order: first one uniform [-1, 1) pair per node
(row-major; boundary rows and columns are zeroed afterwards, then scaled by
perturb * spacing per axis), then one integer in {0, 1} per quad cell
(row-major) selecting the split diagonal. When the drawn diagonal would cut
a non-convex perturbed quad the wrong way (inverted triangle), the other
diagonal is used instead; for perturb < 0.5 the perturbed quad is always
simple, so one of the two diagonals is always valid. Identical specs
therefore yield bit-identical grids.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid

KINDS = ("quad", "quad_ar", "tri_regular", "tri_irregular")


@dataclass(frozen=True)
class GenSpec:
    kind: str
    nx: int
    ny: int
    aspect_ratio: float = 4.0
    perturb: float = 0.3
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need nx >= 2 and ny >= 2, got {self.nx}x{self.ny}")
        if not 0.0 <= self.perturb < 0.5:
            raise ValueError(f"perturb must be in [0, 0.5), got {self.perturb}")
        ar = self.aspect_ratio
        if not (0.0 < ar < math.inf and 1.0 / ar < math.inf):
            raise ValueError("aspect_ratio and 1/aspect_ratio must be "
                             f"positive and finite, got {ar}")

    @property
    def grid_name(self):
        base = f"{self.kind}_{self.nx}x{self.ny}"
        if self.kind == "quad_ar":
            base = f"quad_ar{self.aspect_ratio:g}_{self.nx}x{self.ny}"
        elif self.kind == "tri_irregular":
            base += f"_b{self.perturb:g}_s{self.seed}"
        return base


def _lattice(nx, ny, width, height):
    xs = np.linspace(0.0, width, nx)
    ys = np.linspace(0.0, height, ny)
    return np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])


def _corners(nx, ny):
    """Lower-left, lower-right, upper-right and upper-left node of every
    quad, quads in row-major order."""
    n00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    return n00, n00 + 1, n00 + 1 + nx, n00 + nx


def _quad_cells(nx, ny):
    cells = np.column_stack(_corners(nx, ny))
    return cells, np.full(len(cells), 4, dtype=np.intp)


def _tri_cells(nodes, nx, ny, diagonals):
    """Split each quad in two; diagonals[j, i] = 0 asks for the lower-left to
    upper-right diagonal, 1 for the other one. A choice that would invert a
    triangle (non-convex perturbed quad) falls back to the other diagonal.
    Each quad's two triangles are consecutive cells."""
    n00, n10, n11, n01 = _corners(nx, ny)
    splits = np.stack([
        np.column_stack([n00, n10, n11, n00, n11, n01]),
        np.column_stack([n00, n10, n01, n10, n11, n01]),
    ])
    x, y = nodes[:, 0], nodes[:, 1]

    def ccw(tri):
        a, b, c = tri.T
        return (x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a]) > 0.0

    quad = np.arange(len(n00))
    wanted = diagonals.ravel()
    chosen = splits[wanted, quad]
    ok = ccw(chosen[:, :3]) & ccw(chosen[:, 3:])
    tris = splits[np.where(ok, wanted, 1 - wanted), quad].reshape(-1, 3)
    cells = np.column_stack([tris, np.full(len(tris), -1)])
    return cells, np.full(len(cells), 3, dtype=np.intp)


def generate(spec):
    """Build the grid described by ``spec``."""
    spec.validate()
    nx, ny = spec.nx, spec.ny
    height = 1.0 / spec.aspect_ratio if spec.kind == "quad_ar" else 1.0
    nodes = _lattice(nx, ny, 1.0, height)

    if spec.kind in ("quad", "quad_ar"):
        cells, nverts = _quad_cells(nx, ny)
    elif spec.kind == "tri_regular":
        diagonals = np.zeros((ny - 1, nx - 1), dtype=int)
        cells, nverts = _tri_cells(nodes, nx, ny, diagonals)
    else:
        rng = np.random.default_rng(spec.seed)
        disp = rng.uniform(-1.0, 1.0, size=(ny * nx, 2))
        mask = np.ones((ny, nx, 1))
        mask[0, :, 0] = 0.0
        mask[-1, :, 0] = 0.0
        mask[:, 0, 0] = 0.0
        mask[:, -1, 0] = 0.0
        hx = 1.0 / (nx - 1)
        hy = height / (ny - 1)
        nodes = nodes + disp * mask.reshape(-1, 1) * np.array(
            [spec.perturb * hx, spec.perturb * hy]
        )
        diagonals = rng.integers(0, 2, size=(ny - 1, nx - 1))
        cells, nverts = _tri_cells(nodes, nx, ny, diagonals)

    return Grid(name=spec.grid_name, nodes=nodes, cell_nodes=cells,
                cell_nverts=nverts)
