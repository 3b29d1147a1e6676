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

import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridFormatError

# Slot numbers of the padded (n, 4) cell-node table.
_SLOTS = np.arange(4)
# The bytes the bulk parser takes after the header line.
_BODY_BYTES = b"0123456789+-.eE \t\n"
_LF, _SPACE = ord("\n"), ord(" ")
_LONE_SIGN = re.compile(rb"[+-](?![0-9])")
# The ASCII line breaks of str.splitlines besides LF and CRLF.
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
# Every line break of str.splitlines, CRLF first so that it is one break.
_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# cell_lines: its 8-byte words of the vertex counts 3 and 4 and of LF, and
# the table that turns its "\x01<index>   " node words into " <index>\0\0\0".
_LINE_WORDS = np.frombuffer(b"3\0\0\0\0\0\0\0" b"4\0\0\0\0\0\0\0"
                            b"\n\0\0\0\0\0\0\0", np.uint64)
_NODE_WORD = bytes.maketrans(b"\x01 ", b" \0")
# Lines per block of the node and cell lines that the writers build, which
# bounds their temporaries.
_LINES = 1 << 12


class _CellFault(GridFormatError):
    """A fault of one cell's own vertices, which :func:`_parse_lines` places
    on that cell's line."""

    def __init__(self, fault, cell):
        super().__init__(f"cell {cell} {fault}")
        self.cell = cell


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

    ``cell_nodes`` is the (n, 4) intp node table: each row holds a cell's 3
    or 4 vertices, then -1 padding. :func:`derive_geometry` checks it, fills
    ``cell_nverts``, ``centroids`` (n, 2), ``areas``, ``face_arrays`` and
    ``bbox_diagonal`` (over the nodes the cells use, 0.0 without cells), or
    raises :class:`GridFormatError`.
    """

    name: str
    nodes: np.ndarray
    cell_nodes: np.ndarray
    cell_nverts: np.ndarray = field(init=False)
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
        """(xmin, ymin, xmax, ymax) of the nodes the cells use, so that a node
        no cell uses changes no answer; ValueError for a grid without cells."""
        used = self.nodes[np.bincount(self.cell_nodes[self.cell_nodes >= 0],
                                      minlength=self.n_nodes) > 0]
        lo = used.min(axis=0)
        hi = used.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def _hypot(x, y):
    """Elementwise length of the offsets (x, y), arrays or scalars, by the
    package's one distance rule: m * sqrt(1 + (s / m)**2), m and s the larger
    and the smaller magnitude, 0 where m is 0, inf where x or y is inf. Each
    step is one correctly rounded IEEE operation, so the result is the same
    on every IEEE-754 machine and within 2 ulp of the exact length."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # In place, so that at most three arrays of the result's size exist.
    s = np.abs(x, out=np.empty_like(x))
    m = np.maximum(s, np.abs(y), out=np.empty_like(s))
    np.minimum(s, np.abs(y), out=s)
    # Overflow gives inf; NaN lanes (0/0, inf/inf, NaN) are settled below.
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(s, m, out=s)
        np.multiply(s, s, out=s)
        np.add(1.0, s, out=s)
        np.multiply(m, np.sqrt(s, out=s), out=s)
    nan = np.isnan(s)
    if nan.any():
        s = np.select([np.isinf(x) | np.isinf(y), m == 0.0, nan],
                      [np.inf, 0.0, np.nan], s)
    return s


def _comment_name(line, name):
    """The grid name after the stripped comment line ``line``."""
    comment = line[1:].strip()
    if comment.startswith("name:"):
        return comment[len("name:"):].strip()
    return name


def parse_grid(source):
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
        # A text stream decodes in its read(); ASCII bytes need no decoding.
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, bytes) and not data.isascii():
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _decode_error(exc) from None
    if isinstance(data, str):
        if not data.isascii():
            return _parse_lines(data, "")
        data = data.encode("ascii")
    parsed = _parse_bulk(data, "")
    if parsed is not None:
        try:
            return Grid(*parsed)
        except GridFormatError:
            pass
    return _parse_lines(data.decode("ascii"), "")


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


def _parse_bulk(data, name):
    """parse_grid for ASCII bytes whose comment and blank lines all precede
    the header, converting all nodes and all cells at once into the
    :class:`Grid` arguments (name, nodes, cell_nodes). Returns None for any
    other file and wherever its tokens are not the numbers of a grid file;
    :func:`_parse_lines` then parses the file or raises the error of its
    first bad line. Which cells are valid is for :func:`derive_geometry`
    to judge."""
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
    # The body holds only _BODY_BYTES when deleting them from the whole
    # file leaves what deleting them leaves of the lines before the body.
    if min(n_nodes, n_cells) < 0 or (data.translate(None, _BODY_BYTES)
                                     != data[:end].translate(None,
                                                             _BODY_BYTES)):
        return None
    # Line ends and the number of tokens on each line, from the header's
    # line feed on; every body byte above the space belongs to a token.
    b = np.frombuffer(data, np.uint8, offset=end)
    ends = np.flatnonzero(b[1:] == _LF)
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(b) - 1)
    token = b > _SPACE
    starts = np.flatnonzero(token[1:] > token[:-1])
    del token
    counts = np.diff(np.searchsorted(starts, ends), prepend=0)
    del starts
    if len(ends) != n_nodes + n_cells or (counts[:n_nodes] != 2).any():
        return None
    lengths = counts[n_nodes:]
    # The node and the cell lines, as views of the body b[1:].
    split = int(ends[n_nodes - 1]) + 2 if n_nodes else 1
    node_text, cell_text = b[1:split], b[split:]
    cells_at = end + split
    # Cell lines hold integers only; numpy reads a lone sign as 0.
    if (lengths < 4).any() or any(data.find(c, cells_at) >= 0
                                  for c in b".eE") or (
            (data.find(b"+", cells_at) >= 0 or data.find(b"-", cells_at) >= 0)
            and _LONE_SIGN.search(data, cells_at)):
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
    nverts = flat[first]
    # A vertex -1 would read as padding; the counts are 3 or 4.
    if not (np.isfinite(nodes).all() and ((nverts == 3) | (nverts == 4)).all()
            and (lengths == nverts + 1).all() and flat.min(initial=0) >= 0):
        return None
    # The tokens after each line's count are its vertices.
    vertex = np.ones(len(flat), dtype=bool)
    vertex[first] = False
    cell_nodes = np.full((n_cells, 4), -1, dtype=np.intp)
    cell_nodes[_SLOTS < nverts[:, None]] = flat[vertex]
    return name, nodes, cell_nodes


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

    cells, fault = [], None
    try:
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
                        f"vertex index {v} out of range [0, {n_nodes})",
                        line=lineno,
                    )
            if len(set(verts)) != nverts:
                raise GridFormatError(f"repeated vertex in cell {verts}",
                                      line=lineno)
            cells.append(verts + (-1,) * (4 - nverts))
    except GridFormatError as exc:
        fault = exc
    # The area rule of derive_geometry, over the cells before the first
    # faulty line.
    cell_nodes = np.array(cells, dtype=np.intp).reshape(-1, 4)
    area = _fan(nodes, cell_nodes)[0]
    bad = np.flatnonzero(~(area > 0.0))
    if len(bad):
        raise GridFormatError(
            "cell area overflows" if np.isnan(area[bad[0]]) else
            "cell has non-positive area (vertices must be counter-clockwise)",
            line=data_lines[1 + n_nodes + bad[0]][0],
        )
    if fault:
        raise fault
    try:
        return Grid(name, nodes, cell_nodes)
    except _CellFault as exc:
        raise GridFormatError(
            str(exc), line=data_lines[1 + n_nodes + exc.cell][0]) from None


def write_grid(grid, stream):
    """Write a grid in gridgauge text format with round-trip-exact coordinates."""
    if grid.name:
        stream.write(f"# name: {one_line(grid.name)}\n")
    stream.write(f"{grid.n_nodes} {grid.n_cells}\n")
    for lo in range(0, grid.n_nodes, _LINES):
        xy = grid.nodes[lo:lo + _LINES].astype(float, copy=False)
        stream.write(("%r %r\n" * len(xy)) % tuple(xy.ravel().tolist()))
    stream.writelines(cell_lines(grid))


def one_line(text):
    """text with each line break that str.splitlines finds replaced by one
    space."""
    return _BREAK.sub(" ", text)


def cell_lines(grid):
    """The lines "<nverts> v1 ... vn" of all cells, as grid and VTK files
    list them, yielded in cell order as strings of at most _LINES lines.

    Each node index from the least to the greatest the cells use is
    formatted once, _LINES indices at a time, as a word of " <index>"
    padded with NUL bytes to a multiple of 8 bytes. A row of the count
    word, the cell's four node words (the padding -1 picks a word of NULs)
    and a LF word is then the cell's line once the NULs are deleted."""
    cells = grid.cell_nodes
    if not len(cells):
        return
    # Viewed unsigned, the padding -1 is the greatest entry.
    lo, top = int(cells.view(np.uintp).min()), int(cells.max()) + 1
    width = -(-(len(str(top - 1)) + 1) // 8) * 8
    # Row 0 is the word of NULs; index i is row i - lo + 1.
    words = np.zeros((top - lo + 1, width // 8), np.uint64)
    # "\x01" stands for the leading space until the padding spaces are NULs.
    word = f"\x01%-{width - 1}d"
    for first in range(lo, top, _LINES):
        index = range(first, min(first + _LINES, top))
        text = word * len(index) % tuple(index)
        words[first - lo + 1:index.stop - lo + 1] = np.frombuffer(
            text.encode("ascii").translate(_NODE_WORD), np.uint64
        ).reshape(len(index), -1)
    for start in range(0, len(cells), _LINES):
        block = cells[start:start + _LINES]
        rows = np.empty((len(block), 4 * width // 8 + 2), np.uint64)
        rows[:, 0] = _LINE_WORDS[grid.cell_nverts[start:start + _LINES] - 3]
        # Clipped, the padding picks row 0.
        rows[:, 1:-1] = np.take(words, block - (lo - 1), axis=0,
                                mode="clip").reshape(len(rows), -1)
        rows[:, -1] = _LINE_WORDS[2]
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


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
    """Check the cell table, fill cell_nverts, centroids, areas, face_arrays
    and bbox_diagonal, and return the grid; every :class:`Grid` calls it.

    Faces are discovered in deterministic order (cells in index order, edges
    in vertex order). Raises :class:`GridFormatError` for a bad cell table
    (:func:`_cell_nverts`); else for a cell of non-positive (or NaN) area;
    else for a zero-length edge, or an edge shared by more than two cells or
    traversed twice in the same direction, reporting the first in that
    order; else for a cell whose centroid overflows, then for one whose
    centroid underflows.

    Each step's temporaries end with it, so the peak memory is what the
    grid keeps plus one step's working set.
    """
    nodes, cell_nodes = grid.nodes, grid.cell_nodes
    nverts = grid.cell_nverts = _cell_nverts(cell_nodes, len(nodes))
    area, cx, cy, underflow = _fan(nodes, cell_nodes)
    bad = np.flatnonzero(~(area > 0.0))
    if len(bad):
        j = int(bad[0])
        raise GridFormatError(
            f"cell {j} has non-positive area {float(area[j])}")
    # Overflowing or underflowing centroids are rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = np.column_stack([cx / area, cy / area])
    del cx, cy
    key, flip = _edge_keys(cell_nodes, len(nodes))
    first, second, third, face = _edge_groups(key)

    # A face's first edge gives its nodes and owner, its second edge the
    # neighbor. The second runs the other way unless the cells overlap.
    lo, hi = np.divmod(key[first], len(nodes))
    flipped = flip[first]
    na, nb = np.where(flipped, hi, lo), np.where(flipped, lo, hi)
    del lo, hi
    twice = second[flip[second] == flipped[face]]
    del flipped, flip
    x, y = nodes[:, 0], nodes[:, 1]
    dx, dy = x[nb] - x[na], y[nb] - y[na]
    length = _hypot(dx, dy)
    faults = {"zero": first[length == 0.0], "twice": twice, "thrice": third}
    faults = [(int(e.min()), kind) for kind, e in faults.items() if len(e)]
    if faults:
        # The earliest faulty edge in discovery order is reported.
        i, kind = min(faults)
        pair = tuple(divmod(int(key[i]), len(nodes)))
        cell = np.repeat(np.arange(len(nverts)), nverts)
        j = int(cell[i])
        if kind == "zero":
            raise GridFormatError(f"zero-length edge {pair} in cell {j}")
        if kind == "thrice":
            raise GridFormatError(f"edge {pair} shared by more than two cells")
        owner = int(cell[first[face[second == i]][0]])
        raise GridFormatError(
            f"edge {pair} traversed twice in the same direction "
            f"(cells {owner} and {j} overlap or are flipped)"
        )
    del key
    bad = np.flatnonzero(~np.isfinite(centroids).all(axis=1))
    if len(bad):
        raise _CellFault("has a non-finite centroid", int(bad[0]))
    bad = np.flatnonzero(underflow)
    if len(bad):
        raise _CellFault("has a centroid that underflows", int(bad[0]))

    # Edge e is cell j's where j's edges end past e.
    ends = np.cumsum(nverts)
    owner = np.searchsorted(ends, first, "right")
    neighbor = np.full(len(first), -1, dtype=np.intp)
    neighbor[face] = np.searchsorted(ends, second, "right")
    del ends, first, second, third, face, twice
    # The (m, 2) columns are written in place, with the operations of
    # (dy / length, -dx / length) and ((xa + xb) / 2, (ya + yb) / 2).
    normal = np.empty((len(na), 2))
    np.divide(dy, length, out=normal[:, 0])
    del dy
    np.divide(np.negative(dx, out=dx), length, out=normal[:, 1])
    del dx
    midpoint = np.empty((len(na), 2))
    for axis, coord in enumerate((x, y)):
        np.add(coord[na], coord[nb], out=midpoint[:, axis])
        midpoint[:, axis] /= 2.0
    grid.centroids = centroids
    grid.areas = area
    grid.face_arrays = FaceArrays(
        node_a=na, node_b=nb, owner=owner, neighbor=neighbor,
        normal=normal, length=length, midpoint=midpoint,
    )
    x0, y0, x1, y1 = grid.bbox if len(na) else (0.0,) * 4
    grid.bbox_diagonal = float(_hypot(x1 - x0, y1 - y0))
    return grid


def _edge_keys(cell_nodes, n_nodes):
    """Every cell's edges in discovery order, each as the key lo * n_nodes +
    hi of its node pair (lo <= hi) and a flag set where it runs from hi to
    lo. A cell's last edge ends at its vertex 0."""
    valid = cell_nodes >= 0
    end = np.roll(cell_nodes, -1, 1)
    np.copyto(end, cell_nodes[:, :1], where=end < 0)
    a, b = cell_nodes[valid], end[valid]
    flip = a > b
    return np.minimum(a, b) * n_nodes + np.maximum(a, b), flip


def _edge_groups(key):
    """The edges grouped by key, each group in discovery order, as edge
    numbers: the first edge of every group, which makes a face (faces are
    numbered in order of first occurrence), the second and the third edge
    of every group that has them, and the face of each second edge."""
    perm = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[perm], prepend=-1))
    count = np.diff(start, append=len(perm))
    second = perm[start[count > 1] + 1]
    third = perm[start[count > 2] + 2]
    is_first = np.zeros(len(perm), dtype=bool)
    is_first[perm[start]] = True
    face = (np.cumsum(is_first) - 1)[perm[start[count > 1]]]
    return np.flatnonzero(is_first), second, third, face


def _fan(nodes, cell_nodes):
    """Area, area-weighted centroid sums and centroid-underflow flags of the
    cells, over the triangle fan from vertex 0 as the scalar fan of
    tests/test_properties.py adds them; a quad's second triangle is (v0,
    v2, v3). The one area rule: :func:`derive_geometry` and
    :func:`_parse_lines` accept a cell only where its area is > 0, which
    also rejects the NaN of huge coordinates."""
    x, y = nodes[:, 0], nodes[:, 1]
    x0, y0 = x[cell_nodes[:, 0]], y[cell_nodes[:, 0]]
    cx = cy = area = np.zeros(len(cell_nodes))
    underflow = np.zeros(len(cell_nodes), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 2):
            x1, y1 = x[cell_nodes[:, k]], y[cell_nodes[:, k]]
            x2, y2 = x[cell_nodes[:, k + 1]], y[cell_nodes[:, k + 1]]
            a = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            fan = cell_nodes[:, k + 1] >= 0
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
    return area, cx, cy, underflow


def _cell_nverts(table, n_nodes):
    """Vertex counts of a cell table, checked by whole-table reductions; only
    when they fail is the first bad row looked for and named."""
    # Narrower integers would overflow in the face keys.
    if getattr(table, "shape", ())[1:] != (4,) or table.dtype != np.intp:
        raise GridFormatError("the cell table is not an (n, 4) array of intp")
    last = table[:, 3]
    # Every entry is -1 or a node index, and only the last slots hold -1.
    if not (table.min(initial=-1) >= -1 and table.max(initial=-1) < n_nodes
            and np.count_nonzero(table < 0) == np.count_nonzero(last < 0)):
        j = np.argmax(((table < [0, 0, 0, -1]) | (table >= n_nodes)).any(1))
        raise GridFormatError(f"cell {j} has nodes {table[j].tolist()}, not 3 "
                              f"or 4 indices in [0, {n_nodes}) then -1")
    return (last >= 0) + 3


def replace_nodes(grid, nodes):
    """New grid with the same connectivity on moved nodes."""
    return Grid(grid.name, np.array(nodes, dtype=float), grid.cell_nodes)
