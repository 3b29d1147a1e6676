"""Legacy (ASCII, version 2.0) VTK unstructured-grid writer with cell data."""

import numpy as np

from .grid import _node_values, cell_lines

_VTK_TRIANGLE = 5
_VTK_QUAD = 9


def write_vtk(target, grid, cell_data=None, title="gridgauge export"):
    """Write the grid and optional per-cell scalar fields.

    cell_data maps field names to sequences with one value per cell.
    ``target`` may be a path or a writable text stream.
    """
    if hasattr(target, "write"):
        _write(target, grid, cell_data or {}, title)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, grid, cell_data or {}, title)


def _write(out, grid, cell_data, title):
    n, nverts = grid.n_cells, grid.cell_nverts
    out.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {grid.n_nodes} double\n")
    out.write(("%.17g %.17g 0\n" * grid.n_nodes) % _node_values(grid))
    out.write(f"CELLS {n} {int(nverts.sum()) + n}\n")
    out.write(cell_lines(grid))
    out.write(f"CELL_TYPES {n}\n")
    out.write("".join(np.where(nverts == 3, f"{_VTK_TRIANGLE}\n",
                               f"{_VTK_QUAD}\n").tolist()))

    if cell_data:
        out.write(f"CELL_DATA {n}\n")
        for name, values in cell_data.items():
            if len(values) != n:
                raise ValueError(
                    f"cell field {name!r} has {len(values)} values for "
                    f"{n} cells"
                )
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.write(("%.17g\n" * n)
                      % tuple(np.asarray(values, dtype=float).tolist()))
