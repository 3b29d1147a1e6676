"""Workload definitions: the grids a workload generates and the CLI ops that
one pass runs over them, in a closed loop (each op starts when the previous
one has finished).

Every grid has NODES x NODES nodes; tri-irregular grids use perturbation
PERTURB and the benchmark's seed. All solves use theta = THETA degrees.
"""

from dataclasses import dataclass

NODES = 129
SMOKE_NODES = 17
PERTURB = 0.3
THETA = "30"

# Grid key -> gridgen kind.
GRID_KINDS = {
    "quad": "quad",
    "tri-regular": "tri_regular",
    "tri-irregular": "tri_irregular",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass."""

    command: str       # "analyze" or "solve"
    grid: str          # key of GRID_KINDS
    stencil: str
    p: int = 0
    tol: float = 1e-10

    @property
    def label(self):
        if self.command == "analyze":
            return f"analyze {self.grid} {self.stencil} p{self.p} --vtk"
        return f"solve {self.grid} {self.stencil} tol={self.tol:g}"

    def argv(self, grid_path, vtk_path):
        args = [self.command, str(grid_path),
                "--p", str(self.p), "--stencil", self.stencil]
        if self.command == "analyze":
            return args + ["--vtk", str(vtk_path)]
        return args + ["--theta", THETA, "--tol", repr(self.tol)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple

    @property
    def grids(self):
        """Grid keys in first-use order."""
        return tuple(dict.fromkeys(op.grid for op in self.ops))

    def describe(self):
        return {"why": self.why, "ops": [op.label for op in self.ops]}


WORKLOADS = {w.name: w for w in (
    Workload(
        "analyze-mix",
        "parse, geometry, stencil, LSQ, F/G and VTK output do all the work "
        "over face and vertex stencils; the solver does none, so solver "
        "changes should not move it",
        (
            Op("analyze", "quad", "face", p=0),
            Op("analyze", "quad", "vertex", p=1),
            Op("analyze", "tri-irregular", "face", p=1),
            Op("analyze", "tri-irregular", "vertex", p=0),
        ),
    ),
    Workload(
        "solve-setup",
        "solves dominated by per-cell setup (stencils, LSQ systems, "
        "operator assembly), about 80% of solve time",
        (
            Op("solve", "tri-irregular", "vertex"),
            Op("solve", "quad", "face"),
        ),
    ),
    Workload(
        "solve-loop",
        "the most outer iterations and sweeps per unit of setup: residual "
        "and triangular-sweep cost dominate, stencil and LSQ cost least",
        (
            Op("solve", "tri-regular", "face", tol=1e-12),
        ),
    ),
)}
