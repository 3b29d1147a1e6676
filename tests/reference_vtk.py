"""The reference VTK writer: every float and every node index formatted by
``%`` one value at a time, as ``gridgauge.vtkio`` did before its array
formatters. Tests compare the library's output with it byte for byte.

    python tests/reference_vtk.py GRID [--p 0|1] [--stencil face|vertex] -o OUT

writes the VTK file that ``gridgauge analyze GRID --vtk OUT`` (with the
same flags) should write.
"""

import argparse
import sys

import numpy as np

from gridgauge import load_grid
from gridgauge.measures import analyze


def percent_format(values, suffixes):
    """``"%.17g" % x`` of each value, followed by the suffixes in turn."""
    values = np.asarray(values, dtype=float).ravel()
    pattern = "".join("%.17g" + s for s in suffixes)
    return (pattern * (values.size // len(suffixes))) % tuple(values.tolist())


def cell_lines(grid):
    """The lines "<nverts> v1 ... vn" of all cells, one ``%d`` per index."""
    line = [f"{k}{' %d' * k}\n" for k in range(5)]
    verts = grid.cell_nodes[grid.cell_nodes >= 0]
    return "".join(map(line.__getitem__, grid.cell_nverts.tolist())) \
        % tuple(verts.tolist())


def one_line(text):
    """text with each line break that str.splitlines finds replaced by one
    space."""
    out = []
    for line in text.splitlines(keepends=True):
        body = line.splitlines()[0]
        out.append(body + " " if body != line else line)
    return "".join(out)


def write_vtk_reference(out, grid, cell_data, title):
    """The text ``gridgauge.write_vtk(out, grid, cell_data, title)`` writes."""
    n, nverts = grid.n_cells, grid.cell_nverts
    title = one_line(title)
    out.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {grid.n_nodes} double\n")
    out.write(percent_format(grid.nodes, (" ", " 0\n")))
    out.write(f"CELLS {n} {int(nverts.sum()) + n}\n")
    out.write(cell_lines(grid))
    out.write(f"CELL_TYPES {n}\n")
    out.write("".join("5\n" if k == 3 else "9\n" for k in nverts.tolist()))
    if cell_data:
        out.write(f"CELL_DATA {n}\n")
        for name, values in cell_data.items():
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.write(percent_format(values, ("\n",)))


def write_analyze_reference(out, grid, p, stencil):
    """The VTK text of ``gridgauge analyze --vtk`` for a loaded grid."""
    report = analyze(grid, p=p, stencil_mode=stencil)
    write_vtk_reference(out, grid, {"F_measure": report.f_values,
                                    "G_measure": report.g_values},
                        f"gridgauge measures for {grid.name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("grid")
    parser.add_argument("--p", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stencil", choices=("face", "vertex"),
                        default="face")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    grid = load_grid(args.grid)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        write_analyze_reference(fh, grid, args.p, args.stencil)
    return 0


if __name__ == "__main__":
    sys.exit(main())
