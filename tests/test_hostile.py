"""A derandomized corpus of hostile grid files: small quad and
tri-irregular grids with tokens replaced by extreme values, all coordinates
scaled to extreme magnitudes, and lines duplicated, deleted or swapped.
Every file must give a documented exit code and never a traceback, a
``nan`` in the CSV row, or a VTK file that differs from the reference
writer's; and the parser must give the line parser's outcome."""

import contextlib
import io
import random

import pytest

from gridgauge import (GenSpec, GridFormatError, generate, grid_to_text,
                       load_grid, parse_grid)
from gridgauge.cli import main
from gridgauge.grid import _parse_lines
from tests.test_grid import parse_outcome
from tests.reference_vtk import write_analyze_reference

TOKENS = ("0", "-0", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf")
# Whole-grid scale factors: coordinates below the formatter's fast range
# (1e-4) and above it (1e16), and near the range the checks accept.
SCALES = (1e-5, 3e-9, 1e-150, 1e16, 7e17, 1e150, 1e160)
FILES_PER_KIND = 150


def mutate(lines, n_nodes, rnd):
    """One or two random edits of the lines of a grid file whose first line
    is its header. Half of the edits scale the grid or change one
    coordinate, which keeps more files valid."""
    lines = list(lines)
    for _ in range(rnd.randint(1, 2)):
        edit = rnd.choice(("scale", "scale", "coordinate", "coordinate",
                           "token", "duplicate", "delete", "swap"))
        i = rnd.randrange(len(lines))
        if edit == "coordinate":
            i = rnd.randint(1, n_nodes)
        if edit == "scale":
            scale = rnd.choice(SCALES)
            lines[1:n_nodes + 1] = [
                " ".join(repr(float(w) * scale) for w in line.split())
                for line in lines[1:n_nodes + 1]]
        elif edit in ("coordinate", "token"):
            words = lines[i].split()
            words[rnd.randrange(len(words))] = rnd.choice(TOKENS)
            lines[i] = " ".join(words)
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "delete":
            del lines[i]
        else:
            j = rnd.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def corpus():
    rnd = random.Random(2024)
    for kind in ("quad", "tri_irregular"):
        grid = generate(GenSpec(kind=kind, nx=5, ny=5, seed=11))
        lines = grid_to_text(grid).splitlines()
        header = [line.startswith("#") for line in lines].index(False)
        for i in range(FILES_PER_KIND):
            body = mutate(lines[header:], grid.n_nodes, rnd)
            yield f"{kind}-{i}", "\n".join(lines[:header] + body) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_hostile_corpus(tmp_path):
    codes = {}
    for name, text in corpus():
        assert parse_outcome(parse_grid, text) == parse_outcome(
            lambda t: _parse_lines(t, ""), text), name
        path, vtk = tmp_path / f"{name}.txt", tmp_path / f"{name}.vtk"
        path.write_text(text, encoding="utf-8")
        code, out = run(["analyze", str(path), "--stencil", "vertex",
                         "--vtk", str(vtk)])
        assert code in (0, 3, 4), (name, code)
        assert "nan" not in out.lower(), (name, out)
        if vtk.exists():
            want = io.StringIO()
            write_analyze_reference(want, load_grid(path), 0, "vertex")
            assert vtk.read_text(encoding="utf-8") == want.getvalue(), name
        solve_code, _ = run(["solve", str(path), "--max-iter", "5"])
        assert solve_code in (0, 3, 4), (name, solve_code)
        codes[code] = codes.get(code, 0) + 1
    # The corpus reaches the writer and the input checks alike.
    assert codes.get(0, 0) >= 30 and codes.get(3, 0) >= 100, codes


@pytest.mark.parametrize("name", ["quad-8", "quad-15", "quad-88", "quad-94",
                                  "quad-145"])
def test_centroid_overflow_has_line_number(name):
    # Scaled by 1e160: the first cell's fan area is finite, its centroid
    # sums are not.
    with pytest.raises(GridFormatError) as err:
        parse_grid(dict(corpus())[name])
    assert str(err.value) == "line 28: cell 0 has a non-finite centroid"
