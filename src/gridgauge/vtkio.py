"""Legacy (ASCII, version 2.0) VTK unstructured-grid writer with cell data."""

from .grid import cell_lines

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
    out.write("# vtk DataFile Version 2.0\n")
    out.write(f"{title}\n")
    out.write("ASCII\n")
    out.write("DATASET UNSTRUCTURED_GRID\n")

    out.write(f"POINTS {grid.n_nodes} double\n")
    for x, y in grid.nodes:
        out.write(f"{float(x):.17g} {float(y):.17g} 0\n")

    nverts = grid.cell_nverts.tolist()
    out.write(f"CELLS {grid.n_cells} {sum(nverts) + grid.n_cells}\n")
    out.writelines(cell_lines(grid))

    out.write(f"CELL_TYPES {grid.n_cells}\n")
    for k in nverts:
        out.write(f"{_VTK_TRIANGLE if k == 3 else _VTK_QUAD}\n")

    if cell_data:
        out.write(f"CELL_DATA {grid.n_cells}\n")
        for name, values in cell_data.items():
            if len(values) != grid.n_cells:
                raise ValueError(
                    f"cell field {name!r} has {len(values)} values for "
                    f"{grid.n_cells} cells"
                )
            out.write(f"SCALARS {name} double 1\n")
            out.write("LOOKUP_TABLE default\n")
            for v in values:
                out.write(f"{float(v):.17g}\n")
