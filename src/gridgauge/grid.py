"""2D unstructured grid: data model, text I/O, geometry, and neighbor stencils.

Grid file format (the "gridgauge" format, UTF-8, whitespace separated)::

    # comment lines start with '#' and are skipped
    <nnodes> <ncells>
    x y            (one line per node, full-precision decimals)
    ...
    <nverts> v1 v2 ... vn   (0-based node indices, counter-clockwise)
    ...

A comment of the form ``# name: <label>`` is recognized by the parser and
restores the grid's name; all other comments are ignored.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStencilError, GridFormatError

# Distances below this fraction of the bounding-box diagonal make a
# neighbor unusable for gradient reconstruction.
DEGENERACY_RTOL = 1e-13


@dataclass
class Cell:
    """Polygonal cell: 3 or 4 node indices in counter-clockwise order."""

    vertices: tuple
    centroid: tuple | None = None
    area: float | None = None


@dataclass
class Face:
    """Edge of a cell; ``neighbor`` is -1 on the boundary.

    The unit normal points out of the owner cell.
    """

    node_a: int
    node_b: int
    owner: int
    neighbor: int
    normal: tuple
    length: float
    midpoint: tuple


@dataclass
class Stencil:
    """Neighbor set of one cell with centroid offsets and distances."""

    cell: int
    neighbors: tuple
    dx: tuple
    dy: tuple
    d: tuple

    @property
    def n(self):
        return len(self.neighbors)


@dataclass
class Grid:
    """Immutable after :func:`derive_geometry`; queries are then pure."""

    name: str
    nodes: np.ndarray
    cells: list
    faces: list | None = None
    centroids: np.ndarray | None = None
    areas: np.ndarray | None = None
    _face_adj: list | None = field(default=None, repr=False, compare=False)
    _vertex_adj: list | None = field(default=None, repr=False, compare=False)
    _bbox_diag: float | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def bbox(self):
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    @property
    def bbox_diagonal(self):
        if self._bbox_diag is None:
            x0, y0, x1, y1 = self.bbox
            self._bbox_diag = math.hypot(x1 - x0, y1 - y0)
        return self._bbox_diag


def _signed_area(pts):
    """Shoelace area of a polygon given as a list of (x, y) tuples."""
    a = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def _polygon_centroid_area(pts):
    """Exact area centroid via a signed triangle fan from the first vertex.

    For triangles this is the vertex mean; for quads it is the area-weighted
    mean of the two triangles split along the (v0, v2) diagonal.
    """
    x0, y0 = pts[0]
    cx = cy = area = 0.0
    for i in range(1, len(pts) - 1):
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        a = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        area += a
        cx += a * (x0 + x1 + x2) / 3.0
        cy += a * (y0 + y1 + y2) / 3.0
    return (cx / area, cy / area), area


def parse_grid(source, name=""):
    """Parse a gridgauge text stream into a validated :class:`Grid`.

    Connectivity and orientation are checked here; geometry (centroids,
    areas, faces) is filled in later by :func:`derive_geometry`.

    Raises
    ------
    GridFormatError
        Malformed header, wrong token count, non-finite coordinate,
        out-of-range or repeated vertex index, non-positive cell area -- all
        with a line number.
    """
    text = source.read() if hasattr(source, "read") else source
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("name:"):
                name = comment[len("name:"):].strip()
            continue
        data_lines.append((lineno, line))

    if not data_lines:
        raise GridFormatError("empty grid file", line=1)

    lineno, header = data_lines[0]
    tokens = header.split()
    if len(tokens) != 2:
        raise GridFormatError(
            f"header must be '<nnodes> <ncells>', got {len(tokens)} tokens",
            line=lineno,
        )
    try:
        n_nodes, n_cells = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise GridFormatError(f"non-integer header {tokens!r}", line=lineno)
    if n_nodes < 0 or n_cells < 0:
        raise GridFormatError("negative counts in header", line=lineno)

    expected = 1 + n_nodes + n_cells
    if len(data_lines) < expected:
        last = data_lines[-1][0]
        raise GridFormatError(
            f"expected {expected} data lines, file ends after {len(data_lines)}",
            line=last,
        )
    if len(data_lines) > expected:
        raise GridFormatError(
            "unexpected trailing data", line=data_lines[expected][0]
        )

    nodes = np.empty((n_nodes, 2), dtype=float)
    for i in range(n_nodes):
        lineno, line = data_lines[1 + i]
        tokens = line.split()
        if len(tokens) != 2:
            raise GridFormatError(
                f"node line needs 2 coordinates, got {len(tokens)} tokens",
                line=lineno,
            )
        try:
            nodes[i, 0] = float(tokens[0])
            nodes[i, 1] = float(tokens[1])
        except ValueError:
            raise GridFormatError(f"bad coordinate {line!r}", line=lineno)
        if not np.isfinite(nodes[i]).all():
            raise GridFormatError(f"non-finite coordinate {line!r}", line=lineno)

    cells = []
    for c in range(n_cells):
        lineno, line = data_lines[1 + n_nodes + c]
        tokens = line.split()
        try:
            counts = [int(t) for t in tokens]
        except ValueError:
            raise GridFormatError(f"bad cell line {line!r}", line=lineno)
        nverts = counts[0]
        if nverts not in (3, 4):
            raise GridFormatError(
                f"cell must have 3 or 4 vertices, got {nverts}", line=lineno
            )
        if len(counts) != nverts + 1:
            raise GridFormatError(
                f"cell line needs {nverts + 1} tokens, got {len(counts)}",
                line=lineno,
            )
        verts = tuple(counts[1:])
        for v in verts:
            if not 0 <= v < n_nodes:
                raise GridFormatError(
                    f"vertex index {v} out of range [0, {n_nodes})", line=lineno
                )
        if len(set(verts)) != nverts:
            raise GridFormatError(f"repeated vertex in cell {verts}", line=lineno)
        pts = [(float(nodes[v, 0]), float(nodes[v, 1])) for v in verts]
        if _signed_area(pts) <= 0.0:
            raise GridFormatError(
                "cell has non-positive area (vertices must be counter-clockwise)",
                line=lineno,
            )
        cells.append(Cell(vertices=verts))

    return Grid(name=name, nodes=nodes, cells=cells)


def write_grid(grid, stream):
    """Write a grid in gridgauge text format with round-trip-exact coordinates."""
    if grid.name:
        stream.write(f"# name: {grid.name}\n")
    stream.write(f"{grid.n_nodes} {grid.n_cells}\n")
    for x, y in grid.nodes:
        stream.write(f"{float(x)!r} {float(y)!r}\n")
    for cell in grid.cells:
        verts = " ".join(str(v) for v in cell.vertices)
        stream.write(f"{len(cell.vertices)} {verts}\n")


def grid_to_text(grid):
    import io

    buf = io.StringIO()
    write_grid(grid, buf)
    return buf.getvalue()


def load_grid(path):
    """Read a grid file; an unnamed grid takes its name from the file stem."""
    import pathlib

    p = pathlib.Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        grid = parse_grid(fh)
    if not grid.name:
        grid.name = p.stem
    return grid


def save_grid(grid, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_grid(grid, fh)


def derive_geometry(grid):
    """Fill centroids, areas, and the face list; returns the same grid.

    Faces are discovered in deterministic order (cells in index order, edges
    in vertex order). Raises :class:`GridFormatError` if an edge is shared by
    more than two cells or traversed twice in the same direction.
    """
    n_cells = grid.n_cells
    centroids = np.empty((n_cells, 2), dtype=float)
    areas = np.empty(n_cells, dtype=float)
    nodes = grid.nodes
    for j, cell in enumerate(grid.cells):
        pts = [(float(nodes[v, 0]), float(nodes[v, 1])) for v in cell.vertices]
        (cx, cy), area = _polygon_centroid_area(pts)
        if area <= 0.0:
            raise GridFormatError(f"cell {j} has non-positive area {area}")
        cell.centroid = (cx, cy)
        cell.area = area
        centroids[j] = (cx, cy)
        areas[j] = area

    # key: undirected node pair -> index into faces
    edge_index = {}
    faces = []
    for j, cell in enumerate(grid.cells):
        verts = cell.vertices
        nv = len(verts)
        for k in range(nv):
            a, b = verts[k], verts[(k + 1) % nv]
            key = (a, b) if a < b else (b, a)
            idx = edge_index.get(key)
            if idx is None:
                xa, ya = nodes[a]
                xb, yb = nodes[b]
                dx, dy = float(xb - xa), float(yb - ya)
                length = math.hypot(dx, dy)
                if length == 0.0:
                    raise GridFormatError(f"zero-length edge {key} in cell {j}")
                edge_index[key] = len(faces)
                faces.append(
                    Face(
                        node_a=a,
                        node_b=b,
                        owner=j,
                        neighbor=-1,
                        normal=(dy / length, -dx / length),
                        length=length,
                        midpoint=(float(xa + xb) / 2.0, float(ya + yb) / 2.0),
                    )
                )
            else:
                face = faces[idx]
                if face.neighbor != -1:
                    raise GridFormatError(
                        f"edge {key} shared by more than two cells"
                    )
                if (face.node_a, face.node_b) == (a, b):
                    raise GridFormatError(
                        f"edge {key} traversed twice in the same direction "
                        f"(cells {face.owner} and {j} overlap or are flipped)"
                    )
                face.neighbor = j

    grid.centroids = centroids
    grid.areas = areas
    grid.faces = faces
    grid._face_adj = None
    grid._vertex_adj = None
    return grid


def replace_nodes(grid, nodes, name=None):
    """New grid with the same connectivity on moved nodes, geometry derived."""
    out = Grid(
        name=grid.name if name is None else name,
        nodes=np.asarray(nodes, dtype=float).copy(),
        cells=[Cell(vertices=c.vertices) for c in grid.cells],
    )
    return derive_geometry(out)


def _require_geometry(grid):
    if grid.faces is None:
        derive_geometry(grid)


def _face_adjacency(grid):
    if grid._face_adj is None:
        adj = [[] for _ in range(grid.n_cells)]
        for face in grid.faces:
            if face.neighbor != -1:
                adj[face.owner].append(face.neighbor)
                adj[face.neighbor].append(face.owner)
        grid._face_adj = adj
    return grid._face_adj


def _vertex_adjacency(grid):
    if grid._vertex_adj is None:
        node_cells = [[] for _ in range(grid.n_nodes)]
        for j, cell in enumerate(grid.cells):
            for v in cell.vertices:
                node_cells[v].append(j)
        adj = []
        for j, cell in enumerate(grid.cells):
            seen = set()
            for v in cell.vertices:
                seen.update(node_cells[v])
            seen.discard(j)
            adj.append(sorted(seen))
        grid._vertex_adj = adj
    return grid._vertex_adj


def build_stencil(grid, cell_index, mode="face"):
    """Neighbor stencil of one cell, neighbors in ascending index order.

    mode="face" takes edge-sharing cells, mode="vertex" all cells sharing at
    least one node.

    Raises
    ------
    DegenerateStencilError
        Fewer than 2 neighbors, or a centroid distance below
        ``DEGENERACY_RTOL`` times the bounding-box diagonal.
    """
    _require_geometry(grid)
    if mode == "face":
        neighbors = sorted(set(_face_adjacency(grid)[cell_index]))
    elif mode == "vertex":
        neighbors = _vertex_adjacency(grid)[cell_index]
    else:
        raise ValueError(f"unknown stencil mode {mode!r}")

    if len(neighbors) < 2:
        raise DegenerateStencilError(
            f"cell {cell_index}: only {len(neighbors)} neighbor(s) in "
            f"{mode} mode"
        )

    xj, yj = grid.cells[cell_index].centroid
    tol = DEGENERACY_RTOL * grid.bbox_diagonal
    dx = []
    dy = []
    d = []
    for k in neighbors:
        xk, yk = grid.cells[k].centroid
        ddx, ddy = xk - xj, yk - yj
        dist = math.hypot(ddx, ddy)
        if dist < tol:
            raise DegenerateStencilError(
                f"cells {cell_index} and {k}: centroid distance {dist} below "
                f"degeneracy threshold {tol}"
            )
        dx.append(ddx)
        dy.append(ddy)
        d.append(dist)

    return Stencil(
        cell=cell_index,
        neighbors=tuple(neighbors),
        dx=tuple(dx),
        dy=tuple(dy),
        d=tuple(d),
    )


def build_stencils(grid, mode="face"):
    """Stencils for every cell; raises on the first degenerate one."""
    _require_geometry(grid)
    return [build_stencil(grid, j, mode) for j in range(grid.n_cells)]
