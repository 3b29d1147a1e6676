"""gridgauge: quality measures and a model implicit solver for 2D grids."""

from .errors import (
    DegenerateGridError,
    DegenerateStencilError,
    GridFormatError,
    GridGaugeError,
    SingularStencilError,
)
from .grid import (
    FaceArrays,
    Grid,
    Stencil,
    build_stencil,
    derive_geometry,
    grid_to_text,
    load_grid,
    parse_grid,
    replace_nodes,
    save_grid,
    write_grid,
)
from .gridgen import GenSpec, generate
from .lsq import LsqSystem, apply_gradient, build_system
from .measures import (
    CSV_HEADER,
    MeasureReport,
    analyze,
    f_measure,
    g_measure,
)
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

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "DegenerateGridError",
    "DegenerateStencilError",
    "FaceArrays",
    "GenSpec",
    "Grid",
    "GridFormatError",
    "GridGaugeError",
    "LsqSystem",
    "MeasureReport",
    "ProblemSpec",
    "SingularStencilError",
    "SolveReport",
    "Stencil",
    "analyze",
    "apply_gradient",
    "build_stencil",
    "build_system",
    "defect_correction_solve",
    "derive_geometry",
    "exact_solution",
    "f_measure",
    "g_measure",
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
