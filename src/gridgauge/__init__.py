"""gridgauge: quality measures and a model implicit solver for 2D grids."""

from .errors import DegenerateGridError, GridFormatError, GridGaugeError
from .grid import (
    FaceArrays,
    Grid,
    derive_geometry,
    grid_to_text,
    load_grid,
    parse_grid,
    replace_nodes,
    save_grid,
    write_grid,
)
from .gridgen import GenSpec, generate
from .measures import CSV_HEADER, MeasureReport, analyze
from .solver import (
    ProblemSpec,
    SolveReport,
    defect_correction_solve,
    exact_solution,
    jacobian_low_order,
    residual_second_order,
    source_term,
)
from .vtkio import write_vtk

# Not in __all__: the scalar oracle's names that bench/gate.py imports.
from .errors import DegenerateStencilError, SingularStencilError
from .oracle import build_stencil, build_system, f_measure, g_measure

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "DegenerateGridError",
    "FaceArrays",
    "GenSpec",
    "Grid",
    "GridFormatError",
    "GridGaugeError",
    "MeasureReport",
    "ProblemSpec",
    "SolveReport",
    "analyze",
    "defect_correction_solve",
    "derive_geometry",
    "exact_solution",
    "generate",
    "grid_to_text",
    "jacobian_low_order",
    "load_grid",
    "parse_grid",
    "replace_nodes",
    "residual_second_order",
    "save_grid",
    "source_term",
    "write_grid",
    "write_vtk",
]
