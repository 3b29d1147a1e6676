"""Command-line front end.

Subcommands: ``gen`` (write a generated grid), ``analyze`` (quality-measure
CSV row, optional VTK export), ``rank`` (order several grids by one
statistic), ``solve`` (run the implicit advection solver, residual history
CSV).

Exit codes: 0 success, 2 usage error (also ``solve`` without SciPy),
3 unreadable/malformed input, 4 numerical failure (degenerate grid, singular
stencil, non-convergence).
"""

import argparse
import contextlib
import re
import sys
from urllib.parse import quote

from . import measures, solver
from .errors import DegenerateGridError, GridFormatError
from .grid import load_grid, save_grid
from .gridgen import KINDS, GenSpec, generate
from .vtkio import write_vtk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number as a value, as in
    ``--theta -1e3`` or ``--theta -inf``. argparse's own pattern matches only
    forms like -5 and -.5, and takes the others for unknown options."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


def _add_measure_flags(p):
    p.add_argument("--p", type=int, choices=(0, 1), default=0,
                   help="inverse-distance weight exponent (default 0)")
    p.add_argument("--stencil", choices=("face", "vertex"), default="face",
                   help="neighbor selection rule (default face)")


def _build_parser():
    parser = _Parser(
        prog="gridgauge",
        description="Grid-quality measures and a model implicit solver "
                    "for 2D unstructured grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a grid file")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--kind", required=True,
                     choices=sorted(k.replace("_", "-") for k in KINDS))
    gen.add_argument("--nx", type=int, required=True)
    gen.add_argument("--ny", type=int, required=True)
    gen.add_argument("--ar", type=float, default=4.0,
                     help="aspect ratio for quad-ar (default 4)")
    gen.add_argument("--perturb", type=float, default=0.3,
                     help="node jitter fraction for tri-irregular (default 0.3)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    an = sub.add_parser("analyze", help="compute F/G measures of a grid")
    an.set_defaults(run=_cmd_analyze)
    an.add_argument("grid")
    _add_measure_flags(an)
    an.add_argument("--vtk", help="also write per-cell fields to a VTK file")
    an.add_argument("-o", "--output", help="write the CSV to a file "
                                           "instead of stdout")

    rank = sub.add_parser("rank", help="order grids by a measure statistic")
    rank.set_defaults(run=_cmd_rank)
    rank.add_argument("grids", nargs="+")
    rank.add_argument("--measure", choices=("f", "g"), default="g")
    rank.add_argument("--stat", choices=("min", "max", "avg"), default="avg")
    _add_measure_flags(rank)

    so = sub.add_parser("solve", help="run the implicit advection solver")
    so.set_defaults(run=_cmd_solve)
    so.add_argument("grid")
    _add_measure_flags(so)
    so.add_argument("--theta", type=float, default=30.0,
                    help="advection angle in degrees (default 30)")
    so.add_argument("--tol", type=float, default=1e-10)
    so.add_argument("--max-iter", type=int, default=200)
    so.add_argument("--max-sweeps", type=int, default=30)
    so.add_argument("--first-order", action="store_true",
                    help="disable gradient reconstruction")
    so.add_argument("-o", "--output", help="write the history CSV to a file")

    return parser


def _output(path):
    """The file at ``path`` for writing, or stdout when there is none."""
    if path:
        return open(path, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


def _cmd_gen(args):
    spec = GenSpec(
        kind=args.kind.replace("-", "_"),
        nx=args.nx,
        ny=args.ny,
        aspect_ratio=args.ar,
        perturb=args.perturb,
        seed=args.seed,
    )
    grid = generate(spec)
    save_grid(grid, args.output)
    return EXIT_OK


def _cmd_analyze(args):
    grid = load_grid(args.grid)
    report = measures.analyze(grid, p=args.p, stencil_mode=args.stencil)
    with _output(args.output) as fh:
        fh.write(f"{measures.CSV_HEADER}\n{report.csv_row()}\n")
    if args.vtk:
        write_vtk(
            args.vtk,
            grid,
            cell_data={
                "F_measure": report.f_values,
                "G_measure": report.g_values,
            },
            title=f"gridgauge measures for {grid.name}",
        )
    return EXIT_OK


def _cmd_rank(args):
    entries = []
    for path in args.grids:
        grid = load_grid(path)
        report = measures.analyze(grid, p=args.p, stencil_mode=args.stencil)
        value = getattr(report, f"{args.measure}_{args.stat}")
        entries.append((value, grid.name))
    entries.sort()
    label = f"{args.measure.upper()}_{args.stat}"
    sys.stdout.write(f"rank,grid_name,{label}\n")
    for pos, (value, name) in enumerate(entries, start=1):
        sys.stdout.write(f"{pos},{measures.csv_field(name)},{value:.17g}\n")
    return EXIT_OK


def _cmd_solve(args):
    try:
        import scipy.sparse.linalg  # noqa: F401  (the solver's sparse LU)
    except ImportError as exc:
        print(f"gridgauge: solve needs SciPy: {exc}", file=sys.stderr)
        return EXIT_USAGE
    grid = load_grid(args.grid)
    spec = solver.ProblemSpec(
        theta=args.theta,
        tolerance=args.tol,
        max_outer=args.max_iter,
        max_sweeps=args.max_sweeps,
        first_order=args.first_order,
    )
    report = solver.defect_correction_solve(
        grid, spec, p=args.p, stencil_mode=args.stencil
    )
    with _output(args.output) as fh:
        report.write_history_csv(fh)
    iters = report.iterations_to_tol
    sys.stdout.write(
        f"{report.status} grid={_summary_name(grid.name)} iterations="
        f"{iters if iters is not None else 'n/a'} "
        f"work_units={report.work_units:.17g} "
        f"final_residual={report.residual_history[-1]:.17g}\n"
    )
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _summary_name(name):
    """name with each whitespace character and each '%' percent-encoded,
    as one token that urllib.parse.unquote turns back into name."""
    return "".join(quote(c, safe="") if c.isspace() or c == "%" else c
                   for c in name)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "rank" and len(args.grids) < 2:
        parser.error("rank needs at least two grid files")
    try:
        return args.run(args)
    except (GridFormatError, OSError) as exc:
        print(f"gridgauge: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateGridError as exc:
        print(f"gridgauge: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"gridgauge: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
