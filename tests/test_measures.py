import io
import math

import numpy as np
import pytest

from gridgauge import (
    CSV_HEADER,
    DegenerateGridError,
    GenSpec,
    analyze,
    derive_geometry,
    generate,
    parse_grid,
    replace_nodes,
    write_vtk,
)
from gridgauge.oracle import build_stencil, build_system, f_measure, g_measure
from tests.test_lsq import make_stencil

CROSS = make_stencil([1, -1, 0, 0], [0, 0, 1, -1])
LSHAPE = make_stencil([1, 0, -1], [0, 1, 0])


def oracle_g(stencil, p):
    """Dense solve in farthest-distance-normalized offsets."""
    smax = max(stencil.d)
    a = np.column_stack([stencil.dx, stencil.dy]) / smax
    d = np.hypot(a[:, 0], a[:, 1])
    w = 1.0 / d ** p
    du = np.exp(-(a[:, 0] ** 2 + a[:, 1] ** 2)) - 1.0
    sol, *_ = np.linalg.lstsq(a * w[:, None], w * du, rcond=None)
    return float(np.hypot(sol[0], sol[1]))


def test_f_cross_stencil():
    # s = 4, ||A^T A||_F = 2*sqrt(2)
    assert f_measure(CROSS, build_system(CROSS, 0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_f_lshape_stencil():
    # s = 3, ||A^T A||_F = sqrt(5)
    assert f_measure(LSHAPE, build_system(LSHAPE, 0)) == pytest.approx(
        3.0 / math.sqrt(5.0), rel=1e-14
    )


@pytest.mark.parametrize("p", [0, 1])
def test_f_scaling_law(p):
    lam = 2.0
    scaled = make_stencil([lam, 0, -lam], [0, lam, 0])
    f1 = f_measure(LSHAPE, build_system(LSHAPE, p))
    f2 = f_measure(scaled, build_system(scaled, p))
    assert f2 == pytest.approx(f1 / lam, rel=1e-12)


def test_g_zero_on_central_symmetry():
    assert g_measure(CROSS, build_system(CROSS, 0)) <= 1e-12


def test_g_lshape_closed_form():
    # x-offsets cancel, y-component carries exp(-1) - 1 with s_max = 1
    got = g_measure(LSHAPE, build_system(LSHAPE, 0))
    assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert got == pytest.approx(oracle_g(LSHAPE, 0), rel=1e-12)


@pytest.mark.parametrize("p", [0, 1])
def test_g_scale_invariance(p):
    lam = 3.0
    scaled = make_stencil([lam, 0, -lam], [0, lam, 0])
    g1 = g_measure(LSHAPE, build_system(LSHAPE, p))
    g2 = g_measure(scaled, build_system(scaled, p))
    assert abs(g2 - g1) <= 1e-12


def test_g_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        st = make_stencil(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        try:
            system = build_system(st, 0)
        except Exception:
            continue
        g = g_measure(st, system)
        assert g >= 0.0
        assert g == pytest.approx(oracle_g(st, 0), rel=1e-9, abs=1e-12)


def test_quad16_interior_closed_form_and_boundary_oracle():
    grid = generate(GenSpec(kind="quad", nx=16, ny=16))
    report = analyze(grid, p=0, stencil_mode="face")
    h = 1.0 / 15.0
    n_interior = 0
    for j in range(grid.n_cells):
        st = build_stencil(grid, j, mode="face")
        if st.n == 4:
            n_interior += 1
            assert report.f_values[j] == pytest.approx(math.sqrt(2.0) / h, rel=1e-12)
            assert report.g_values[j] <= 1e-12
        else:
            # boundary cells against the dense-solve oracle
            assert report.g_values[j] == pytest.approx(oracle_g(st, 0), rel=1e-9)
    assert n_interior == 13 * 13
    corner_g = math.sqrt(2.0) * (1.0 - math.exp(-1.0))
    assert 0.0 < report.g_avg <= corner_g
    assert report.g_max == pytest.approx(corner_g, rel=1e-12)
    assert report.degenerate_count == 0


def test_aggregates_match_per_cell_arrays():
    grid = generate(GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.3, seed=9))
    report = analyze(grid)
    good = ~report.degenerate
    assert report.f_min == report.f_values[good].min()
    assert report.f_max == report.f_values[good].max()
    assert report.f_avg == report.f_values[good].sum() / good.sum()
    assert report.g_min == report.g_values[good].min()
    assert report.g_max == report.g_values[good].max()
    assert report.g_avg == report.g_values[good].sum() / good.sum()
    assert report.f_min <= report.f_avg <= report.f_max
    assert report.g_min <= report.g_avg <= report.g_max
    assert report.degenerate_count == int(report.degenerate.sum())
    assert np.isnan(report.f_values[~good]).all()


KINDS_17 = [
    GenSpec(kind="quad", nx=17, ny=17),
    GenSpec(kind="quad_ar", nx=17, ny=17, aspect_ratio=4.0),
    GenSpec(kind="tri_regular", nx=17, ny=17),
    GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.3, seed=42),
]


def _compare_reports(a, b, f_tol, g_tol, f_scale=1.0):
    assert np.array_equal(a.degenerate, b.degenerate)
    good = ~a.degenerate
    fa, fb = a.f_values[good], b.f_values[good]
    ga, gb = a.g_values[good], b.g_values[good]
    assert np.abs(fb - fa * f_scale).max() <= f_tol * np.abs(fa * f_scale).max()
    assert np.abs(gb - ga).max() <= g_tol * max(1.0, np.abs(ga).max())


@pytest.mark.parametrize("spec", KINDS_17, ids=lambda s: s.kind)
def test_translation_invariance(spec):
    grid = generate(spec)
    moved = replace_nodes(grid, grid.nodes + np.array([4.5, -8.25]))
    _compare_reports(analyze(grid), analyze(moved), 1e-12, 1e-12)


@pytest.mark.parametrize("spec", KINDS_17, ids=lambda s: s.kind)
def test_rotation_invariance(spec):
    grid = generate(spec)
    t = math.radians(137.0)
    rot = np.array(
        [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
    )
    _compare_reports(analyze(grid), analyze(replace_nodes(grid, grid.nodes @ rot)),
                     1e-10, 1e-10)


@pytest.mark.parametrize("spec", KINDS_17, ids=lambda s: s.kind)
@pytest.mark.parametrize("p", [0, 1])
def test_scaling_laws(spec, p):
    lam = 3.0
    grid = generate(spec)
    scaled = replace_nodes(grid, grid.nodes * lam)
    a = analyze(grid, p=p)
    b = analyze(scaled, p=p)
    # F scales as 1/lambda, G is untouched
    _compare_reports(a, b, 1e-10, 1e-12, f_scale=1.0 / lam)


def test_rederived_geometry_rescales_stencil_tolerance():
    # Analyze, move the nodes in place and derive the geometry again: the
    # stencil tolerance must follow the new nodes, as on a new grid.
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
    analyze(grid)
    fresh = analyze(replace_nodes(grid, grid.nodes * 1e-12))
    grid.nodes *= 1e-12
    rederived = analyze(derive_geometry(grid))
    assert rederived.degenerate_count == fresh.degenerate_count == 3
    assert rederived.csv_row() == fresh.csv_row()


def test_grid_ordering_quad_below_irregular():
    quad = analyze(generate(GenSpec(kind="quad", nx=17, ny=17)))
    irr = analyze(
        generate(GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.3, seed=42))
    )
    assert quad.g_avg < irr.g_avg


def test_vertex_mode_reduces_g_on_triangles():
    grid = generate(GenSpec(kind="tri_regular", nx=17, ny=17))
    face = analyze(grid, stencil_mode="face")
    vertex = analyze(grid, stencil_mode="vertex")
    assert vertex.g_avg < face.g_avg
    assert vertex.stencil_mode == "vertex"


def test_strip_grid_fully_degenerate():
    # a 1x5 strip: end cells have one neighbor, inner ones are collinear
    lines = ["12 5"]
    for y in (0.0, 1.0):
        for i in range(6):
            lines.append(f"{float(i)} {y}")
    for i in range(5):
        lines.append(f"4 {i} {i + 1} {i + 7} {i + 6}")
    grid = derive_geometry(parse_grid("\n".join(lines) + "\n"))
    with pytest.raises(DegenerateGridError):
        analyze(grid, p=0, stencil_mode="face")


def test_empty_grid_rejected():
    with pytest.raises(DegenerateGridError):
        analyze(derive_geometry(parse_grid("0 0\n")))


def test_partially_degenerate_flagged_not_fatal():
    # 2x2 block plus one pendant cell: only the pendant is degenerate
    text = """12 5
0 0
1 0
2 0
3 0
0 1
1 1
2 1
3 1
0 2
1 2
2 2
3 2
4 0 1 5 4
4 1 2 6 5
4 4 5 9 8
4 5 6 10 9
4 2 3 7 6
"""
    grid = derive_geometry(parse_grid(text))
    report = analyze(grid, p=0, stencil_mode="face")
    assert report.degenerate_count == 1
    assert bool(report.degenerate[4])
    assert math.isnan(report.f_values[4])
    assert math.isfinite(report.f_avg)


def test_csv_row_format():
    grid = generate(GenSpec(kind="quad", nx=9, ny=9))
    report = analyze(grid)
    assert CSV_HEADER.count(",") == 10
    row = report.csv_row()
    fields = row.split(",")
    assert len(fields) == 11
    assert fields[0] == "quad_9x9"
    assert fields[1] == "64"
    assert fields[2] == "0"
    assert fields[3] == "face"
    assert float(fields[4]) == report.f_min
    assert float(fields[9]) == report.g_avg
    assert fields[10] == "0"


def test_vtk_export_fields():
    grid = generate(GenSpec(kind="tri_regular", nx=3, ny=3))
    report = analyze(grid)
    buf = io.StringIO()
    write_vtk(buf, grid, {"F_measure": report.f_values, "G_measure": report.g_values})
    text = buf.getvalue()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {grid.n_nodes} double" in text
    assert f"CELL_DATA {grid.n_cells}" in text
    assert "SCALARS F_measure double 1" in text
    assert "SCALARS G_measure double 1" in text
    assert text.count("LOOKUP_TABLE default") == 2
    # all triangles
    lines = text.splitlines()
    start = lines.index(f"CELL_TYPES {grid.n_cells}")
    types = lines[start + 1:start + 1 + grid.n_cells]
    assert set(types) == {"5"}


def test_vtk_bad_field_length():
    grid = generate(GenSpec(kind="quad", nx=3, ny=3))
    with pytest.raises(ValueError):
        write_vtk(io.StringIO(), grid, {"F_measure": [1.0]})


def test_threads_env_does_not_change_results(monkeypatch):
    grid = generate(GenSpec(kind="tri_irregular", nx=21, ny=21, perturb=0.3, seed=2))
    monkeypatch.setenv("GRIDGAUGE_THREADS", "1")
    serial = analyze(grid)
    monkeypatch.setenv("GRIDGAUGE_THREADS", "3")
    threaded = analyze(grid)
    assert np.array_equal(serial.degenerate, threaded.degenerate)
    good = ~serial.degenerate
    assert np.array_equal(serial.f_values[good], threaded.f_values[good])
    assert np.array_equal(serial.g_values[good], threaded.g_values[good])
    assert serial.csv_row() == threaded.csv_row()


def test_threads_env_non_integer_ignored(monkeypatch):
    # gridgauge does not read GRIDGAUGE_THREADS, so any value is accepted.
    grid = generate(GenSpec(kind="quad", nx=3, ny=3))
    monkeypatch.delenv("GRIDGAUGE_THREADS", raising=False)
    unset = analyze(grid).csv_row()
    monkeypatch.setenv("GRIDGAUGE_THREADS", "many")
    assert analyze(grid).csv_row() == unset
