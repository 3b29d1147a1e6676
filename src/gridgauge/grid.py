"""2D unstructured grid: data model, text I/O and geometry.

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
import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridFormatError

# Distances below this fraction of the bounding-box diagonal make a
# neighbor unusable for gradient reconstruction.
DEGENERACY_RTOL = 1e-13
# Elements per block of _hypot: its temporaries then stay in the L2 cache.
_HYPOT_BLOCK = 4096
# Veltkamp's splitting constant, 2**27 + 1.
_VELTKAMP = 134217729.0
# Slot numbers of the padded (n, 4) cell-node table.
_SLOTS = np.arange(4)
# The bytes the bulk parser takes after the header line.
_BODY_BYTES = b"0123456789+-.eE \t\n"
_LF, _SPACE = ord("\n"), ord(" ")
_LONE_SIGN = re.compile(rb"[+-](?![0-9])")
# The ASCII line breaks of str.splitlines besides LF and CRLF.
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


@dataclass
class FaceArrays:
    """All faces in discovery order: cells in index order, each cell's edges
    in vertex order, every edge at its first occurrence.

    The owner traverses its face from ``node_a`` to ``node_b``; ``neighbor``
    is the other cell, -1 on the boundary. ``normal`` (m, 2) is the unit
    normal out of the owner, ``midpoint`` (m, 2) the edge midpoint.
    """

    node_a: np.ndarray
    node_b: np.ndarray
    owner: np.ndarray
    neighbor: np.ndarray
    normal: np.ndarray
    length: np.ndarray
    midpoint: np.ndarray


@dataclass
class Grid:
    """A grid and its geometry, derived when the grid is built; queries are
    pure.

    ``cell_nodes`` is the (n, 4) node table, padded with -1 after each cell's
    ``cell_nverts`` (3 or 4) vertices. :func:`derive_geometry` fills
    ``centroids`` (n, 2), ``areas``, ``face_arrays`` and ``bbox_diagonal``
    (0.0 without nodes), and raises :class:`GridFormatError` for a grid it
    cannot derive them for.
    """

    name: str
    nodes: np.ndarray
    cell_nodes: np.ndarray
    cell_nverts: np.ndarray
    centroids: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    face_arrays: FaceArrays = field(init=False)
    bbox_diagonal: float = field(init=False)

    def __post_init__(self):
        derive_geometry(self)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_cells(self):
        return len(self.cell_nverts)

    @property
    def bbox(self):
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def _hypot(x, y):
    """Elementwise math.hypot of two arrays, bit for bit; np.hypot differs
    from it in the last ulp on some inputs.

    A NumPy port of CPython's ``vector_norm`` (Modules/mathmodule.c) for two
    coordinates: scale both magnitudes by 2**-e, e the frexp exponent of the
    larger; square each exactly (Veltkamp/Dekker ``dl_mul``); add the
    squares to 1.0 with ``dl_fast_sum``, carrying the rounding errors in
    two sums; take the square root, apply one differential correction and
    unscale. Lanes whose larger magnitude is zero, subnormal, at least
    2**1022, inf or NaN, where the scale would not be a normal number or
    vector_norm takes another branch, go to math.hypot itself. Integer
    input is cast to float64, as math.hypot converts it.
    """
    x = np.abs(np.asarray(x, dtype=float))
    y = np.abs(np.asarray(y, dtype=float))
    out = np.empty(len(x))
    # The fast formula overflows and divides by zero in the fallback lanes.
    with np.errstate(all="ignore"):
        for lo in range(0, len(x), _HYPOT_BLOCK):
            block = slice(lo, lo + _HYPOT_BLOCK)
            out[block] = _vector_norm(x[block], y[block])
    return out


def _vector_norm(x, y):
    """math.hypot of the magnitudes x, y: one block of :func:`_hypot`."""
    biased = np.maximum(x, y).view(np.int64) >> 52
    # 2**-e with e = biased - 1022, built from its exponent bits.
    scale = ((2045 - biased) << 52).view(float)
    csum, frac1, frac2 = 1.0, 0.0, 0.0

    def add(hi, lo):
        # dl_fast_sum(csum, hi), then csum = sm.hi, frac1 += pr.lo and
        # frac2 += sm.lo; the first call adds lo to 0.0, which sets the
        # sign of a zero as vector_norm does.
        nonlocal csum, frac1, frac2
        total = csum + hi
        frac1 = frac1 + lo
        frac2 = frac2 + (hi - (total - csum))
        csum = total

    for v in (x * scale, y * scale):
        add(*_dl_mul(v, v))
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    add(*_dl_mul(-h, h))
    h = h + (csum - 1.0 + (frac1 + frac2)) / (2.0 * h)
    out = h / scale
    fall = np.flatnonzero((biased == 0) | (biased >= 2045))
    if len(fall):
        out[fall] = list(map(math.hypot, x[fall].tolist(), y[fall].tolist()))
    return out


def _dl_split(v):
    """Veltkamp split of v into hi + lo, each of at most 26 bits."""
    t = v * _VELTKAMP
    hi = t - (t - v)
    return hi, v - hi


def _dl_mul(a, b):
    """Dekker's exact product: (z, zz) with a * b == z + zz."""
    ahi, alo = _dl_split(a)
    bhi, blo = (ahi, alo) if b is a else _dl_split(b)
    p = ahi * bhi
    q = ahi * blo + alo * bhi
    z = p + q
    return z, p - z + q + alo * blo


def _edge_ends(cell_nodes, nverts):
    """End node of the edge that starts at each slot of the cell table, and
    which slots hold a vertex."""
    valid = _SLOTS < nverts[:, None]
    end = np.where(_SLOTS + 1 < nverts[:, None], np.roll(cell_nodes, -1, 1),
                   cell_nodes[:, :1])
    return end, valid


def _signed_areas(nodes, cell_nodes, nverts):
    """Shoelace area of every cell, summed in vertex order as
    :func:`_signed_area` sums it."""
    end, valid = _edge_ends(cell_nodes, nverts)
    x, y = nodes[:, 0], nodes[:, 1]
    a = np.zeros(len(nverts))
    # Huge coordinates overflow to inf and NaN, which the callers reject.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(4):
            s, e = cell_nodes[:, k], end[:, k]
            a = np.where(valid[:, k], a + (x[s] * y[e] - x[e] * y[s]), a)
    return 0.5 * a


def _signed_area(pts):
    """Shoelace area of a polygon given as a list of (x, y) tuples."""
    a = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def _comment_name(line, name):
    """The grid name after the stripped comment line ``line``."""
    comment = line[1:].strip()
    if comment.startswith("name:"):
        return comment[len("name:"):].strip()
    return name


def parse_grid(source, name=""):
    """Parse gridgauge text (a str, UTF-8 bytes, or a text or binary stream)
    into a validated :class:`Grid`.

    Raises
    ------
    GridFormatError
        Bytes that are not UTF-8 or a text stream that fails to decode,
        malformed header, wrong token count, non-finite coordinate,
        out-of-range or repeated vertex index, non-positive cell area --
        all with a line number -- or a geometry fault found by
        :func:`derive_geometry`.
    """
    try:
        # A text stream decodes in its read().
        text = source.read() if hasattr(source, "read") else source
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _decode_error(exc) from None
    parsed = _parse_bulk(text, name)
    if parsed is None:
        return _parse_lines(text, name)
    # Derive the geometry only once the text read from a stream is freed:
    # it would otherwise raise the peak memory of a load.
    del text
    return Grid(*parsed)


def _decode_error(exc):
    """The GridFormatError of a failed decode: the first bad byte, its
    offset in the bytes decoded, and its line as _parse_lines counts."""
    data = exc.object
    # The bytes before the bad one decode; "replace" keeps a stateful codec
    # from raising again.
    head = data[:exc.start].decode(exc.encoding, "replace") + "x"
    return GridFormatError(
        f"invalid {exc.encoding.upper()} byte 0x{data[exc.start]:02x} at "
        f"offset {exc.start}", line=len(head.splitlines()))


def _parse_bulk(text, name):
    """parse_grid for ASCII files whose comment and blank lines all precede
    the header, converting all nodes and all cells at once into the
    :class:`Grid` arguments (name, nodes, cell_nodes, cell_nverts). Returns
    None for any other file and wherever a check fails;
    :func:`_parse_lines` then parses the file or raises the error of its
    first bad line."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    end = -1
    while True:
        start, end = end + 1, data.find(b"\n", end + 1)
        if end < 0:
            return None
        line = data[start:end].decode().strip()
        if line and not line.startswith("#"):
            break
        if line:
            name = _comment_name(line, name)
    # Split at LF, these lines match str.splitlines only if none holds one of
    # its other line breaks; _BODY_BYTES keeps those out of the body.
    if any(c in data[:end] for c in _OTHER_BREAKS):
        return None
    try:
        n_nodes, n_cells = map(int, line.split())
    except ValueError:
        return None
    body = data[end + 1:]
    if min(n_nodes, n_cells) < 0 or body.translate(None, _BODY_BYTES):
        return None
    # Line ends and the number of tokens on each line, from the header's
    # line feed on; every body byte above the space belongs to a token.
    b = np.frombuffer(data, np.uint8, offset=end)
    ends = np.flatnonzero(b[1:] == _LF)
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(body))
    token = b > _SPACE
    starts = np.flatnonzero(token[1:] > token[:-1])
    counts = np.diff(np.searchsorted(starts, ends), prepend=0)
    if len(ends) != n_nodes + n_cells or (counts[:n_nodes] != 2).any():
        return None
    lengths = counts[n_nodes:]
    split = int(ends[n_nodes - 1]) + 1 if n_nodes else 0
    node_text, cell_text = body[:split], body[split:]
    # Cell lines hold integers only; numpy reads a lone sign as 0.
    if (lengths < 4).any() or any(c in cell_text for c in b".eE") or (
            (b"+" in cell_text or b"-" in cell_text)
            and _LONE_SIGN.search(cell_text)):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 warns and stops at a token it cannot read.
            warnings.simplefilter("error", DeprecationWarning)
            nodes = np.fromstring(node_text, sep=" ")
            flat = np.fromstring(cell_text, np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    # Every token gives one number.
    if len(nodes) != 2 * n_nodes or len(flat) != lengths.sum():
        return None
    nodes = nodes.reshape(n_nodes, 2)
    first = np.cumsum(lengths) - lengths
    nverts = flat[first].astype(np.intp)
    inside = _SLOTS < nverts[:, None]
    if not (np.isfinite(nodes).all() and ((nverts == 3) | (nverts == 4)).all()
            and (lengths == nverts + 1).all()):
        return None
    verts = flat[(first[:, None] + 1 + _SLOTS)[inside]]
    if ((verts < 0) | (verts >= n_nodes)).any():
        return None
    cell_nodes = np.full((n_cells, 4), -1, dtype=np.intp)
    cell_nodes[inside] = verts
    # Padding is -1, so it never equals a vertex index.
    if any((cell_nodes[:, i] == cell_nodes[:, k]).any()
           for i in range(4) for k in range(i + 1, 4)):
        return None
    if not (_signed_areas(nodes, cell_nodes, nverts) > 0.0).all():
        return None
    return name, nodes, cell_nodes, nverts


def _parse_lines(text, name):
    """parse_grid one line at a time: the reference for every file, and the
    source of each error message and line number."""
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            name = _comment_name(line, name)
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
        area = _signed_area(pts)
        if not area > 0.0:
            raise GridFormatError(
                "cell area overflows" if math.isnan(area) else
                "cell has non-positive area (vertices must be counter-clockwise)",
                line=lineno,
            )
        cells.append(verts + (-1,) * (4 - nverts))

    cell_nodes = np.array(cells, dtype=np.intp).reshape(-1, 4)
    return Grid(name=name, nodes=nodes, cell_nodes=cell_nodes,
                cell_nverts=(cell_nodes >= 0).sum(axis=1))


def write_grid(grid, stream):
    """Write a grid in gridgauge text format with round-trip-exact coordinates."""
    if grid.name:
        stream.write(f"# name: {grid.name}\n")
    stream.write(f"{grid.n_nodes} {grid.n_cells}\n")
    stream.write(("%r %r\n" * grid.n_nodes) % _node_values(grid))
    stream.write(cell_lines(grid))


def _node_values(grid):
    """The flat tuple x0, y0, x1, y1, ... of node coordinates as floats."""
    return tuple(grid.nodes.astype(float).ravel().tolist())


def cell_lines(grid):
    """One string of the lines "<nverts> v1 ... vn" of all cells, as grid
    and VTK files list them."""
    line = [f"{k}{' %d' * k}\n" for k in range(5)]
    verts = grid.cell_nodes[_SLOTS < grid.cell_nverts[:, None]]
    return "".join(map(line.__getitem__, grid.cell_nverts.tolist())) \
        % tuple(verts.tolist())


def grid_to_text(grid):
    import io

    buf = io.StringIO()
    write_grid(grid, buf)
    return buf.getvalue()


def load_grid(path):
    """Read a grid file; an unnamed grid takes its name from the file stem."""
    import pathlib

    p = pathlib.Path(path)
    with open(p, "rb") as fh:
        grid = parse_grid(fh)
    if not grid.name:
        grid.name = p.stem
    return grid


def save_grid(grid, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_grid(grid, fh)


def derive_geometry(grid):
    """Fill centroids, areas, face_arrays and bbox_diagonal; returns the grid.
    Every :class:`Grid` calls it when it is built.

    Faces are discovered in deterministic order (cells in index order, edges
    in vertex order). Raises :class:`GridFormatError` for a cell of
    non-positive (or NaN) area; else for a zero-length edge, or an edge
    shared by more than two cells or traversed twice in the same direction,
    reporting the first in that order; else for a cell whose centroid
    overflows, then for one whose centroid underflows.
    """
    nodes, cell_nodes, nverts = grid.nodes, grid.cell_nodes, grid.cell_nverts
    x, y = nodes[:, 0], nodes[:, 1]
    # Triangle fan from vertex 0, added up triangle by triangle as the
    # scalar fan of tests/test_properties.py adds it; a quad's second
    # triangle is (v0, v2, v3).
    x0, y0 = x[cell_nodes[:, 0]], y[cell_nodes[:, 0]]
    cx = cy = area = np.zeros(len(nverts))
    underflow = np.zeros(len(nverts), dtype=bool)
    # Huge coordinates overflow here, tiny ones underflow; the checks below
    # reject the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 2):
            x1, y1 = x[cell_nodes[:, k]], y[cell_nodes[:, k]]
            x2, y2 = x[cell_nodes[:, k + 1]], y[cell_nodes[:, k + 1]]
            a = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            fan = nverts > k + 1
            sx, sy = x0 + x1 + x2, y0 + y1 + y2
            tx, ty = a * sx / 3.0, a * sy / 3.0
            # A term of nonzero factors below the normal range has lost
            # precision, all of it if it is zero.
            underflow |= fan & (a != 0.0) & (
                (sx != 0.0) & (np.abs(tx) < sys.float_info.min)
                | (sy != 0.0) & (np.abs(ty) < sys.float_info.min))
            area = np.where(fan, area + a, area)
            cx = np.where(fan, cx + tx, cx)
            cy = np.where(fan, cy + ty, cy)
        bad = np.flatnonzero(~(area > 0.0))
        if len(bad):
            j = int(bad[0])
            raise GridFormatError(
                f"cell {j} has non-positive area {float(area[j])}")
        centroids = np.column_stack([cx / area, cy / area])

    # Every cell's edges in discovery order. An edge's first occurrence
    # makes a face, its second gives the face's neighbor; faces are numbered
    # in order of first occurrence.
    end, valid = _edge_ends(cell_nodes, nverts)
    a, b = cell_nodes[valid], end[valid]
    cell = np.repeat(np.arange(len(nverts)), nverts)
    key = np.minimum(a, b) * len(nodes) + np.maximum(a, b)
    _, first, group, count = np.unique(key, return_index=True,
                                       return_inverse=True, return_counts=True)
    by_group = np.argsort(group, kind="stable")
    group_start = np.cumsum(count) - count
    second = by_group[group_start[count > 1] + 1]
    third = by_group[group_start[count > 2] + 2]
    order = np.argsort(first)
    face = np.argsort(order)[group]     # face number of every edge
    first = first[order]

    na, nb = a[first], b[first]
    dx, dy = x[nb] - x[na], y[nb] - y[na]
    length = _hypot(dx, dy)
    twice = second[(a[second] == na[face[second]])
                   & (b[second] == nb[face[second]])]
    faults = {"zero": first[length == 0.0], "twice": twice, "thrice": third}
    faults = [(int(e.min()), kind) for kind, e in faults.items() if len(e)]
    if faults:
        # The earliest faulty edge in discovery order is reported.
        i, kind = min(faults)
        pair = (int(min(a[i], b[i])), int(max(a[i], b[i])))
        j = int(cell[i])
        if kind == "zero":
            raise GridFormatError(f"zero-length edge {pair} in cell {j}")
        if kind == "thrice":
            raise GridFormatError(f"edge {pair} shared by more than two cells")
        raise GridFormatError(
            f"edge {pair} traversed twice in the same direction "
            f"(cells {int(cell[first[face[i]]])} and {j} overlap or are "
            f"flipped)"
        )
    bad = np.flatnonzero(~np.isfinite(centroids).all(axis=1))
    if len(bad):
        raise GridFormatError(f"cell {int(bad[0])} has a non-finite centroid")
    bad = np.flatnonzero(underflow)
    if len(bad):
        raise GridFormatError(f"cell {int(bad[0])} has a centroid that "
                              "underflows")

    neighbor = np.full(len(first), -1, dtype=np.intp)
    neighbor[face[second]] = cell[second]
    grid.centroids = centroids
    grid.areas = area
    grid.face_arrays = FaceArrays(
        node_a=na, node_b=nb, owner=cell[first], neighbor=neighbor,
        normal=np.column_stack([dy / length, -dx / length]), length=length,
        midpoint=np.column_stack([(x[na] + x[nb]) / 2.0,
                                  (y[na] + y[nb]) / 2.0]),
    )
    x0, y0, x1, y1 = grid.bbox if len(nodes) else (0.0,) * 4
    grid.bbox_diagonal = math.hypot(x1 - x0, y1 - y0)
    return grid


def replace_nodes(grid, nodes, name=None):
    """New grid with the same connectivity on moved nodes."""
    return Grid(
        name=grid.name if name is None else name,
        nodes=np.asarray(nodes, dtype=float).copy(),
        cell_nodes=grid.cell_nodes,
        cell_nverts=grid.cell_nverts,
    )
