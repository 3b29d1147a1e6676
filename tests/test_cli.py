import csv
import importlib
import io
import math
from pathlib import Path
from urllib.parse import unquote

import numpy as np
import pytest

from gridgauge import (
    CSV_HEADER,
    DegenerateGridError,
    GenSpec,
    GridFormatError,
    analyze,
    generate,
    grid_to_text,
    load_grid,
    parse_grid,
)
from gridgauge.cli import main
from gridgauge.grid import cell_lines
from tests.reference_vtk import write_analyze_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_quad_count(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--kind", "quad", "--nx", "16", "--ny", "16",
                     "-o", str(path))
    assert code == 0
    grid = load_grid(path)
    assert grid.n_cells == 225


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--kind", "tri-irregular", "--nx", "33", "--ny", "33",
            "--perturb", "0.3", "--seed", "42"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_quad_ar_spacing(tmp_path, capsys):
    path = tmp_path / "ar.txt"
    code, _, _ = run(capsys, "gen", "--kind", "quad-ar", "--ar", "4",
                     "--nx", "16", "--ny", "16", "-o", str(path))
    assert code == 0
    grid = load_grid(path)
    vertices = grid.cell_nodes[0, :grid.cell_nverts[0]]
    xs = grid.nodes[vertices, 0]
    ys = grid.nodes[vertices, 1]
    assert (xs.max() - xs.min()) / (ys.max() - ys.min()) == pytest.approx(4.0)


def test_gen_bad_perturb(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "tri-irregular", "--nx", "8",
                       "--ny", "8", "--perturb", "0.7", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "perturb" in err


def test_analyze_stdout_row(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "16", "--ny", "16", "-o", str(path)])
    code, out, _ = run(capsys, "analyze", str(path), "--p", "0",
                       "--stencil", "face")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "quad_16x16"
    assert fields[1] == "225"
    g_avg = float(fields[9])
    corner = math.sqrt(2.0) * (1.0 - math.exp(-1.0))
    assert 0.0 < g_avg <= corner


def test_analyze_rejects_p2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "4", "--ny", "4", "-o", str(path)])
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--p", "2"])
    assert exc.value.code == 2


def test_analyze_vtk_export(tmp_path, capsys):
    path = tmp_path / "g.txt"
    vtk = tmp_path / "out.vtk"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(path)])
    code, _, _ = run(capsys, "analyze", str(path), "--vtk", str(vtk))
    assert code == 0
    text = vtk.read_text()
    assert "SCALARS F_measure double 1" in text
    assert "SCALARS G_measure double 1" in text


def test_analyze_output_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    out = tmp_path / "row.csv"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(path)])
    code, stdout, _ = run(capsys, "analyze", str(path), "-o", str(out))
    assert code == 0
    assert stdout == ""
    assert out.read_text().startswith(CSV_HEADER)


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/grid.txt")
    assert code == 3
    assert err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 9\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "line" in err


@pytest.mark.parametrize("text, message", [
    ("-1 0\n", "negative counts in header"),
    ("", "empty grid file"),
    ("# name: x\n\n", "empty grid file"),
], ids=["negative-counts", "empty", "comment-only"])
def test_header_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (3, "", f"gridgauge: line 1: {message}\n")


@pytest.mark.parametrize("command", ["analyze", "solve", "rank"])
def test_non_utf8_file_input_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# name: x\xff\n3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                     b"3 0 1 2\n")
    paths = [str(path)] * (2 if command == "rank" else 1)
    code, out, err = run(capsys, command, *paths)
    assert code == 3
    assert out == ""
    assert err == ("gridgauge: line 1: invalid UTF-8 byte 0xff at offset 9\n")


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_non_finite_coordinate_input_error(tmp_path, capsys, command):
    # 2x2 quads with the center node at nan
    path = tmp_path / "nan.txt"
    path.write_text(
        "9 4\n0 0\n0.5 0\n1 0\n0 0.5\nnan 0.25\n1 0.5\n0 1\n0.5 1\n1 1\n"
        "4 0 1 4 3\n4 1 2 5 4\n4 3 4 7 6\n4 4 5 8 7\n"
    )
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert "line 6" in err


def test_analyze_degenerate_grid_numerical_exit(tmp_path, capsys):
    # 1x3 strip: all stencils unusable in face mode
    path = tmp_path / "strip.txt"
    lines = ["8 3"]
    for y in (0.0, 1.0):
        for i in range(4):
            lines.append(f"{float(i)} {y}")
    for i in range(3):
        lines.append(f"4 {i} {i + 1} {i + 5} {i + 4}")
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert err


@pytest.mark.parametrize("command",
                         ["analyze", "solve", "solve --first-order"])
@pytest.mark.parametrize("text", ["0 0\n", "3 0\n0 0\n1 0\n0 1\n"],
                         ids=["no-nodes", "three-nodes"])
def test_grid_without_cells_numerical_exit(tmp_path, capsys, text, command):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out, err) == (4, "", "gridgauge: grid has no cells\n")


def scaled_text(grid, scale):
    """Grid file text of ``grid`` with every coordinate scaled."""
    return (f"{grid.n_nodes} {grid.n_cells}\n"
            + "".join(f"{x!r} {y!r}\n" for x, y in (grid.nodes * scale).tolist())
            + "".join(cell_lines(grid)))


@pytest.fixture(scope="module")
def scaled_grid_paths(tmp_path_factory):
    """tri-irregular 9x9 (seed 1) files with every coordinate scaled."""
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
    root = tmp_path_factory.mktemp("scaled")
    paths = {}
    for scale in (1e-150, 1e-80, 1.0, 1e80, 1e150):
        path = root / f"s{scale:g}.txt"
        path.write_text(scaled_text(grid, scale), encoding="utf-8")
        paths[scale] = path
    return paths


@pytest.mark.parametrize("p", ["0", "1"])
@pytest.mark.parametrize("stencil", ["face", "vertex"])
@pytest.mark.parametrize("scale", [1e-150, 1e-80, 1.0, 1e80, 1e150])
def test_analyze_extreme_scale_never_nan(scaled_grid_paths, capsys, scale,
                                         stencil, p):
    # Products of huge offsets overflow to inf and NaN: such cells must be
    # flagged degenerate or the file rejected, never averaged.
    code, out, err = run(capsys, "analyze", str(scaled_grid_paths[scale]),
                         "--stencil", stencil, "--p", p)
    assert code in (0, 3, 4)
    assert "nan" not in (out + err).lower()
    if scale == 1.0:
        assert code == 0


def test_solve_rejects_degenerate_grid_like_analyze(scaled_grid_paths,
                                                    capsys):
    # At 1e-80 every vertex stencil's normal matrix has a subnormal
    # determinant: analyze rejects the grid, and solve must not quietly
    # solve the first-order problem instead.
    path = str(scaled_grid_paths[1e-80])
    flags = ("--stencil", "vertex", "--p", "0")
    code_a, _, err_a = run(capsys, "analyze", path, *flags)
    code_s, out_s, err_s = run(capsys, "solve", path, *flags)
    assert (code_a, code_s) == (4, 4)
    assert err_a == err_s == ("gridgauge: 128 of 128 cells have degenerate "
                              "stencils (vertex mode)\n")
    assert out_s == ""
    code, out, _ = run(capsys, "solve", path, *flags, "--first-order")
    assert code == 0 and out.splitlines()[-1].startswith("converged")


def test_analyze_every_decade_matches_unit_scale():
    # F has units 1/length and G none, so F * scale and G do not depend on
    # the scale. Each decade either reproduces scale 1 or is rejected
    # (GridFormatError, exit 3; DegenerateGridError, exit 4).
    grid = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, seed=1))
    unit = {}
    accepted = set()
    for e in [0] + list(range(-160, 161)):
        scale = 10.0 ** e
        try:
            scaled = parse_grid(scaled_text(grid, scale))
        except GridFormatError:
            continue
        for mode in ("face", "vertex"):
            for p in (0, 1):
                try:
                    report = analyze(scaled, p=p, stencil_mode=mode)
                except DegenerateGridError:
                    continue
                accepted.add(e)
                got = ([report.f_min * scale, report.f_max * scale,
                        report.f_avg * scale, report.g_min, report.g_max,
                        report.g_avg], report.degenerate_count)
                want = unit.setdefault((mode, p), got)
                assert got[0] == pytest.approx(want[0], rel=1e-9, abs=0.0), e
                assert got[1] == want[1], e
    assert accepted >= set(range(-70, 71))


@pytest.mark.parametrize("x", [2e11, 3e11, 1e300])
def test_unused_node_leaves_analyze_row(tmp_path, capsys, x):
    # The stencils' too-close tolerance scales with the extent of the nodes
    # the cells use, so a far node that no cell uses changes no byte.
    grid = generate(GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.45,
                            seed=1))
    path = tmp_path / "g.txt"
    rows = []
    for nodes in (grid.nodes, np.vstack([grid.nodes, [x, 0.0]])):
        path.write_text(
            f"{len(nodes)} {grid.n_cells}\n"
            + "".join(f"{a!r} {b!r}\n" for a, b in nodes.tolist())
            + "".join(cell_lines(grid)), encoding="utf-8")
        rows.append(run(capsys, "analyze", str(path), "--stencil", "vertex",
                        "--p", "0"))
    assert rows[0][0] == 0
    assert rows[1] == rows[0]


def test_rank_orders_by_g_avg(tmp_path, capsys):
    qpath = tmp_path / "quad.txt"
    ipath = tmp_path / "irr.txt"
    main(["gen", "--kind", "quad", "--nx", "17", "--ny", "17", "-o", str(qpath)])
    main(["gen", "--kind", "tri-irregular", "--nx", "17", "--ny", "17",
          "--perturb", "0.3", "--seed", "42", "-o", str(ipath)])
    code, out, _ = run(capsys, "rank", str(qpath), str(ipath),
                       "--measure", "g", "--stat", "avg")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,grid_name,G_avg"
    assert lines[1].startswith("1,quad")
    assert lines[2].startswith("2,tri_irregular")
    assert float(lines[1].split(",")[2]) < float(lines[2].split(",")[2])


def test_rank_matches_external_sort_of_analyze_rows(tmp_path, capsys):
    paths = []
    for kind, extra in [
        ("quad", []),
        ("tri-regular", []),
        ("tri-irregular", ["--perturb", "0.3", "--seed", "42"]),
    ]:
        path = tmp_path / f"{kind}.txt"
        main(["gen", "--kind", kind, "--nx", "17", "--ny", "17",
              "-o", str(path)] + extra)
        paths.append(str(path))

    rows = []
    for path in paths:
        _, out, _ = run(capsys, "analyze", path)
        fields = out.strip().splitlines()[1].split(",")
        rows.append((float(fields[9]), fields[0]))  # (G_avg, name)
    expected = [name for _, name in sorted(rows)]

    code, out, _ = run(capsys, "rank", *paths, "--measure", "g", "--stat", "avg")
    assert code == 0
    got = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert got == expected


def test_rank_tie_broken_by_name(tmp_path, capsys):
    a = tmp_path / "bbb.txt"
    b = tmp_path / "aaa.txt"
    main(["gen", "--kind", "quad", "--nx", "9", "--ny", "9", "-o", str(a)])
    text = a.read_text().replace("# name: quad_9x9\n", "")
    a.write_text("# name: bbb\n" + text)
    b.write_text("# name: aaa\n" + text)
    code, out, _ = run(capsys, "rank", str(a), str(b))
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[1].split(",")[1] == "aaa"
    assert lines[2].split(",")[1] == "bbb"


def test_grid_name_is_one_csv_field(tmp_path, capsys):
    # The names come from "# name:" comments, and the last from the file
    # name, since a comment cannot hold a line break.
    names = ["left,right", 'say "hi"', "two\nlines"]
    text = grid_to_text(generate(GenSpec(kind="quad", nx=5, ny=5)))
    text = text.replace("# name: quad_5x5\n", "")
    paths = [tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "two\nlines.txt"]
    for name, path in zip(names, paths):
        path.write_text(text if "\n" in name else f"# name: {name}\n{text}")
    for name, path in zip(names, paths):
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert header == CSV_HEADER.split(",")
        assert row[0] == name and len(row) == len(header)
    code, out, _ = run(capsys, "rank", *map(str, paths))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert sorted(row[1] for row in rows[1:]) == sorted(names)
    assert all(len(row) == 3 for row in rows)


def test_rank_single_grid_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(path)])
    with pytest.raises(SystemExit) as exc:
        main(["rank", str(path)])
    assert exc.value.code == 2


def test_solve_converged_summary(tmp_path, capsys):
    path = tmp_path / "g.txt"
    hist = tmp_path / "hist.csv"
    main(["gen", "--kind", "quad", "--nx", "33", "--ny", "33", "-o", str(path)])
    code, out, _ = run(capsys, "solve", str(path), "--theta", "30",
                       "-o", str(hist))
    assert code == 0
    assert out.startswith("converged ")
    assert "iterations=33" in out
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "iter,residual_norm,work_units"
    assert len(lines) == 35  # initial entry + 33 outer iterations + header


def test_solve_history_to_stdout(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "9", "--ny", "9", "-o", str(path)])
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out.startswith("iter,residual_norm,work_units")
    assert "\nconverged " in out


def test_solve_iteration_cap_distinct_exit(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "tri-irregular", "--nx", "17", "--ny", "17",
          "--perturb", "0.3", "--seed", "42", "-o", str(path)])
    code, out, _ = run(capsys, "solve", str(path), "--max-iter", "1")
    assert code == 4
    assert out.splitlines()[-1].startswith(("not-converged", "diverged"))


def test_solve_first_order_fast(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "17", "--ny", "17", "-o", str(path)])
    code, out, _ = run(capsys, "solve", str(path), "--first-order")
    assert code == 0
    summary = out.strip().splitlines()[-1]
    iters = int(summary.split("iterations=")[1].split()[0])
    assert iters <= 2


def test_solve_bad_tolerance(tmp_path, capsys):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(path)])
    code, _, err = run(capsys, "solve", str(path), "--tol", "-1")
    assert code == 2
    assert "tolerance" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, name", [
    ("solve --tol nan", "tolerance"),
    ("solve --tol inf", "tolerance"),
    ("solve --theta nan", "theta"),
    ("solve --theta inf", "theta"),
    ("solve --theta -inf", "theta"),
    ("gen --kind quad-ar --ar nan", "aspect_ratio"),
    ("gen --kind quad-ar --ar inf", "aspect_ratio"),
    ("gen --kind quad-ar --ar 1e-320", "aspect_ratio"),
])
def test_non_finite_flag_usage_error(tmp_path, capsys, args, name):
    # Each value is rejected by name before any work (or NumPy warning).
    grid = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(grid)])
    written = tmp_path / "out.txt"
    command, *flags = args.split()
    rest = ([str(grid)] if command == "solve"
            else ["--nx", "5", "--ny", "5", "-o", str(written)])
    code, out, err = run(capsys, command, *rest, *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"gridgauge: {name} ")
    assert err.endswith(f"got {flags[-1]}\n")
    assert not written.exists()


def test_negative_flag_values_in_any_float_form(tmp_path, capsys):
    # argparse alone reads -1e3 or -1e-3 after a flag as an unknown option.
    grid = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(grid)])
    code, out, err = run(capsys, "solve", str(grid), "--theta", "-1e3")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("converged grid=quad_5x5 ")
    written = tmp_path / "ar.txt"
    code, out, err = run(capsys, "gen", "--kind", "quad-ar", "--nx", "5",
                         "--ny", "5", "--ar", "-1e-3", "-o", str(written))
    assert (code, out) == (2, "")
    assert err == ("gridgauge: aspect_ratio and 1/aspect_ratio must be "
                   "positive and finite, got -0.001\n")
    assert not written.exists()


@pytest.mark.parametrize("flags", [[], ["--tol", "-1"]])
def test_solve_checks_grid_before_flags(tmp_path, capsys, flags):
    # The file parses, but edge (0, 1) is shared by three cells.
    path = tmp_path / "thrice.txt"
    path.write_text("5 3\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
                    "3 0 1 2\n3 1 0 3\n3 0 1 4\n")
    code, out, err = run(capsys, "solve", str(path), *flags)
    assert code == 3
    assert out == ""
    assert "shared by more than two cells" in err


def test_threads_env_same_cli_output(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "tri-irregular", "--nx", "21", "--ny", "21",
          "--perturb", "0.3", "--seed", "5", "-o", str(path)])
    monkeypatch.setenv("GRIDGAUGE_THREADS", "1")
    _, out1, _ = run(capsys, "analyze", str(path))
    monkeypatch.setenv("GRIDGAUGE_THREADS", "4")
    _, out2, _ = run(capsys, "analyze", str(path))
    assert out1 == out2


def test_threads_env_non_integer_ignored(tmp_path, capsys, monkeypatch):
    # gridgauge does not read GRIDGAUGE_THREADS, so any value is accepted.
    path = tmp_path / "g.txt"
    main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5", "-o", str(path)])
    monkeypatch.delenv("GRIDGAUGE_THREADS", raising=False)
    unset = run(capsys, "analyze", str(path))
    monkeypatch.setenv("GRIDGAUGE_THREADS", "many")
    assert run(capsys, "analyze", str(path)) == unset
    assert unset[0] == 0


def test_vtk_title_is_one_line(tmp_path, capsys):
    # The grid takes its name, line break and all, from the file name.
    text = grid_to_text(generate(GenSpec(kind="quad", nx=5, ny=5)))
    path = tmp_path / "two\nlines.txt"
    path.write_text(text.replace("# name: quad_5x5\n", ""))
    vtk = tmp_path / "out.vtk"
    code, _, _ = run(capsys, "analyze", str(path), "--vtk", str(vtk))
    assert code == 0
    lines = vtk.read_text().split("\n")
    assert lines[1:3] == ["gridgauge measures for two lines", "ASCII"]
    want = io.StringIO()
    write_analyze_reference(want, load_grid(path), 0, "face")
    assert vtk.read_text() == want.getvalue()


@pytest.mark.parametrize("name", [
    "my grid", "100%", "tab\there", "two\nlines",
    "nbsp\xa0ideographic\u3000space", "%20 and\r\n%", "plain_name"])
def test_solve_summary_grid_field_is_one_token(tmp_path, capsys, monkeypatch,
                                               name):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    summary = importlib.import_module("gate").SUMMARY
    text = grid_to_text(generate(GenSpec(kind="quad", nx=5, ny=5)))
    path = tmp_path / "g.txt"
    if "\n" in name:
        # A comment cannot hold a line break; the file name can.
        path = tmp_path / f"{name}.txt"
        path.write_text(text.replace("# name: quad_5x5\n", ""))
    else:
        path.write_text(text.replace("quad_5x5", name))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    line = out.split("\n")[-2]
    assert summary.fullmatch(line)
    field = line.split()[1]
    assert unquote(field[len("grid="):]) == name
    if name == "plain_name":
        assert field == "grid=plain_name"
    if name == "my grid":
        assert field == "grid=my%20grid"


def test_zero_initial_residual_summary(tmp_path, capsys):
    # On [-1, 1]^2 the manufactured solution vanishes on the boundary, and
    # its source at the centroid is 0: u = 0 solves the one-cell problem.
    path = tmp_path / "g.txt"
    path.write_text("4 1\n-1 -1\n1 -1\n1 1\n-1 1\n4 0 1 2 3\n")
    hist = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "solve", str(path), "--first-order",
                       "-o", str(hist))
    assert code == 0
    assert out == ("converged grid=g iterations=0 work_units=1 "
                   "final_residual=0\n")
    assert hist.read_text() == "iter,residual_norm,work_units\n0,0,1\n"


@pytest.mark.parametrize("kind", ["quad", "quad-ar", "tri-regular",
                                  "tri-irregular"])
def test_gen_negative_seed_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "g.txt"
    code, _, err = run(capsys, "gen", "--kind", kind, "--nx", "5", "--ny",
                       "5", "--seed", "-1", "-o", str(path))
    assert code == 2
    assert err == "gridgauge: seed must be non-negative, got -1\n"
    assert not path.exists()
