"""The VTK writer's array formatters against ``%``, value by value.

``vtkio._format`` must yield exactly the ``%.17g`` text of every float64:
both sides of the fast range, every binary exponent, subnormals, signed
zeros, infinities, nan, the neighbors of powers of ten and exact ties.
``grid.cell_lines`` must yield the ``%d`` text of every cell line, at
every width of its node words.
"""

import io
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgauge import GenSpec, generate, write_vtk
from gridgauge.grid import cell_lines
from gridgauge.lsq import lsq_table
from gridgauge.vtkio import _BLOCK, _format
from tests.reference_vtk import (cell_lines as percent_cell_lines,
                                 percent_format, write_vtk_reference)

POINT_SUFFIXES = (" ", " 0\n")
SCALAR_SUFFIXES = ("\n",)


def assert_formats_like_percent(values, suffixes=SCALAR_SUFFIXES):
    values = np.asarray(values, dtype=float)
    if "".join(_format(values, suffixes)) != percent_format(values,
                                                            suffixes):
        got = "".join(_format(values, SCALAR_SUFFIXES)).split("\n")
        want = percent_format(values, SCALAR_SUFFIXES).split("\n")
        wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want)
                 if g != w]
        raise AssertionError(f"formatted unlike % (value, got, want): "
                             f"{wrong[:5]!r}")


def ties(rng, per_exponent=400):
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: halfway between two 17-digit numbers. Each is m 2^-j with m odd and
    m 5^j in [1e17, 1e18), the only form such a double can take."""
    out = []
    for j in range(2, 26):
        lo = -(-10 ** 17 // 5 ** j)
        hi = min(2 ** 53, 10 ** 18 // 5 ** j)
        m = rng.integers(lo, hi, per_exponent) | 1
        m = m[m < hi]
        out.append(m.astype(float) * 2.0 ** -j)
    return np.concatenate(out)


def powers_of_ten_neighbors():
    """The double nearest 10^k and the three doubles on either side of it,
    for k from -324 to 308."""
    out = []
    for k in range(-324, 309):
        x = float(f"1e{k}")
        for direction in (0.0, np.inf):
            y = x
            for _ in range(3):
                y = np.nextafter(y, direction)
                out.append(y)
        out.append(x)
    return np.array(out)


def seeded_values():
    """Over a million values from a fixed seed."""
    rng = np.random.default_rng(20131)
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    mantissa = rng.random(300_000) + 0.5
    scaled = mantissa * 10.0 ** rng.integers(-20, 21, mantissa.size)
    dyadic = rng.integers(1, 2 ** 20, 100_000) * 2.0 ** rng.integers(
        -40, 40, 100_000)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                         1e-4, 9.9999999999999991e-5, 1e16, 9999999999999998.0])
    near = powers_of_ten_neighbors()
    tie = ties(rng)
    values = np.concatenate([
        bits.view(np.float64), subnormal.view(np.float64),
        -subnormal[:1000].view(np.float64), rng.random(150_000),
        scaled, -scaled[:100_000], dyadic, -dyadic[:20_000],
        near, -near, tie, -tie, specials, -specials,
    ])
    return values, tie


def test_format_matches_percent_on_seeded_values():
    values, tie = seeded_values()
    assert values.size > 1_000_000
    exponents = np.unique(np.frexp(values[np.isfinite(values)])[1])
    assert exponents.min() <= -1073 and exponents.max() == 1024
    assert all(len(Decimal(x).as_tuple().digits) == 18
               for x in tie[::50].tolist())
    assert_formats_like_percent(values)
    assert_formats_like_percent(values[::10][:100_000], POINT_SUFFIXES)


def test_format_block_boundaries():
    """Sizes around the block length, each suffix pattern, and a block whose
    values all fall outside the fast range."""
    rng = np.random.default_rng(7)
    for size in (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 2):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        assert_formats_like_percent(values)
        assert_formats_like_percent(values[:size // 2 * 2], POINT_SUFFIXES)
    assert_formats_like_percent(np.zeros(_BLOCK + 3))
    assert_formats_like_percent(np.full(5, 1.96e-17))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40),
       st.booleans())
def test_format_matches_percent_on_any_floats(values, points):
    if points:
        assert_formats_like_percent(values[:len(values) // 2 * 2],
                                    POINT_SUFFIXES)
    else:
        assert_formats_like_percent(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_cell_lines_match_percent_at_digit_boundaries(k, below, data):
    """Node counts 10^k - 1 and 10^k, so that the greatest index has k or k
    - 1 digits, on either side of each node-word width. The cells use the
    last 2,000 node numbers and the last node; a stub stands for a grid of
    up to 10^8 nodes."""
    n = 10 ** k - below
    nverts = data.draw(st.lists(st.sampled_from((3, 4)), max_size=30))
    table = np.full((len(nverts), 4), -1, np.intp)
    for j, m in enumerate(nverts):
        table[j, :m] = data.draw(st.lists(
            st.integers(max(0, n - 2000), n - 1), min_size=m, max_size=m))
    if nverts:
        table[data.draw(st.integers(0, len(nverts) - 1)), 0] = n - 1
    grid = SimpleNamespace(n_nodes=n, cell_nodes=table,
                           cell_nverts=np.array(nverts, dtype=np.intp))
    assert "".join(cell_lines(grid)) == percent_cell_lines(grid)


def test_cell_lines_match_percent_on_generated_grids():
    for kind in ("quad", "quad_ar", "tri_regular", "tri_irregular"):
        grid = generate(GenSpec(kind=kind, nx=40, ny=27, seed=5))
        assert "".join(cell_lines(grid)) == percent_cell_lines(grid)


def test_write_vtk_equals_reference_writer():
    for kind, mode, p in (("quad", "vertex", 1), ("tri_irregular", "face", 0)):
        grid = generate(GenSpec(kind=kind, nx=33, ny=33, seed=3))
        table = lsq_table(grid, p, mode)
        fields = {"F_measure": table.f, "G_measure": table.g}
        got, want = io.StringIO(), io.StringIO()
        write_vtk(got, grid, fields, title="t")
        write_vtk_reference(want, grid, fields, "t")
        assert got.getvalue() == want.getvalue()


def test_write_vtk_memory(tmp_path):
    # Each block's text is written once it is made, so writing a 129^2 grid
    # with two fields peaks at one block's working set, 2.82 MiB here. Joined
    # and decoded whole, the POINTS block and each field peaked at 3.65 MiB,
    # and at 8.78 MiB on a 257^2 grid.
    grid = generate(GenSpec(kind="tri_irregular", nx=129, ny=129,
                            perturb=0.3, seed=42))
    table = lsq_table(grid, 0, "vertex")
    fields = {"F_measure": table.f, "G_measure": table.g}
    path = tmp_path / "g.vtk"
    write_vtk(path, grid, fields)
    tracemalloc.start()
    try:
        write_vtk(path, grid, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * 2**20


@pytest.mark.parametrize("title, line", [
    ("two\nlines", "two lines"),
    ("crlf\r\n and\x1cfile sep\n", "crlf  and file sep "),
    ("tab\tand\xa0nbsp", "tab\tand\xa0nbsp"),
])
def test_title_is_one_line(title, line):
    grid = generate(GenSpec(kind="tri_regular", nx=3, ny=3))
    got, want = io.StringIO(), io.StringIO()
    write_vtk(got, grid, title=title)
    write_vtk_reference(want, grid, {}, title)
    assert got.getvalue().split("\n")[1:3] == [line, "ASCII"]
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("name, size, message", [
    ("", 9, "cell field name '' is empty or holds whitespace"),
    ("my field", 9, "cell field name 'my field' is empty or holds whitespace"),
    ("tab\there", 9, r"cell field name 'tab\\there' is empty or holds "
                     "whitespace"),
    ("F", 8, "cell field 'F' has 8 values for 9 cells"),
])
def test_bad_cell_field_rejected(name, size, message):
    # A SCALARS line holds the name as one token, then one value per cell.
    grid = generate(GenSpec(kind="quad", nx=4, ny=4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_vtk(io.StringIO(), grid, {name: np.zeros(size)})
