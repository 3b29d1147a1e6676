"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Every test prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them live."""

import contextlib
import io
import math
import time

import numpy as np

from gridgauge import (
    GenSpec,
    ProblemSpec,
    analyze,
    defect_correction_solve,
    exact_solution,
    generate,
    grid_to_text,
    parse_grid,
    replace_nodes,
    residual_second_order,
)
from gridgauge.oracle import build_stencil, build_system, f_measure, g_measure
from tests.helpers import make_stencil
from tests.test_lsq import dense_oracle_coefficients


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def interior_g_max(grid):
    report = analyze(grid, p=0, stencil_mode="face")
    worst = 0.0
    count = 0
    for j in range(grid.n_cells):
        if build_stencil(grid, j, mode="face").n == 4:
            worst = max(worst, float(report.g_values[j]))
            count += 1
    assert count > 0
    return worst


def test_criterion_1_symmetry_zero():
    with criterion(1, "symmetry-zero on quad and quad-AR"):
        for nx in (17, 33):
            assert interior_g_max(generate(GenSpec(kind="quad", nx=nx, ny=nx))) <= 1e-12
            assert interior_g_max(
                generate(GenSpec(kind="quad_ar", nx=nx, ny=nx, aspect_ratio=4.0))
            ) <= 1e-12
        start = time.perf_counter()
        assert interior_g_max(generate(GenSpec(kind="quad", nx=81, ny=81))) <= 1e-12
        assert interior_g_max(
            generate(GenSpec(kind="quad_ar", nx=81, ny=81, aspect_ratio=4.0))
        ) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"81x81 sweep took {elapsed:.2f} s"


def test_criterion_2_closed_forms():
    with criterion(2, "closed-form F and G checks"):
        grid = generate(GenSpec(kind="quad", nx=16, ny=16))
        report = analyze(grid, p=0, stencil_mode="face")
        h = 1.0 / 15.0
        expected = math.sqrt(2.0) / h
        for j in range(grid.n_cells):
            if build_stencil(grid, j, mode="face").n == 4:
                assert abs(report.f_values[j] - expected) <= 1e-12 * expected

        lshape = make_stencil([1, 0, -1], [0, 1, 0])
        system = build_system(lshape, 0)
        f_expected = 3.0 / math.sqrt(5.0)
        g_expected = 1.0 - math.exp(-1.0)
        assert abs(f_measure(lshape, system) - f_expected) <= 1e-12 * f_expected
        assert abs(g_measure(lshape, system) - g_expected) <= 1e-12 * g_expected


def test_criterion_3_invariance_suite():
    with criterion(3, "translation/rotation/scaling invariance"):
        specs = [
            GenSpec(kind="quad", nx=17, ny=17),
            GenSpec(kind="quad_ar", nx=17, ny=17, aspect_ratio=4.0),
            GenSpec(kind="tri_regular", nx=17, ny=17),
            GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.3, seed=42),
        ]
        t = math.radians(137.0)
        rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        lam = 3.0
        start = time.perf_counter()
        for spec in specs:
            grid = generate(spec)
            base = analyze(grid)
            good = ~base.degenerate
            f0 = base.f_values[good]
            g0 = base.g_values[good]

            def check(other, f_expect, f_tol, g_tol):
                assert np.array_equal(other.degenerate, base.degenerate)
                df = np.abs(other.f_values[good] - f_expect)
                dg = np.abs(other.g_values[good] - g0)
                assert df.max() <= f_tol * np.abs(f_expect).max()
                assert dg.max() <= g_tol * max(1.0, g0.max())

            moved = analyze(replace_nodes(grid, grid.nodes + np.array([4.0, -7.5])))
            check(moved, f0, 1e-12, 1e-12)
            rotated = analyze(replace_nodes(grid, grid.nodes @ rot))
            check(rotated, f0, 1e-10, 1e-10)
            scaled = analyze(replace_nodes(grid, grid.nodes * lam))
            check(scaled, f0 / lam, 1e-10, 1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"invariance suite took {elapsed:.2f} s"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "dense weighted-LSQ oracle equivalence"):
        rng = np.random.default_rng(31415)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 10))
            dx = rng.uniform(-1.0, 1.0, n)
            dy = rng.uniform(-1.0, 1.0, n)
            if np.hypot(dx, dy).min() < 1e-3:
                continue
            st = make_stencil(dx, dy)
            try:
                system = build_system(st, 0)
            except Exception:
                continue
            checked += 1
            oracle = dense_oracle_coefficients(st, 0)
            got = np.column_stack([system.cx, system.cy])
            assert np.abs(got - oracle).max() <= 1e-9 * np.abs(oracle).max()

            smax = max(st.d)
            a = np.column_stack([st.dx, st.dy]) / smax
            du = np.exp(-(a[:, 0] ** 2 + a[:, 1] ** 2)) - 1.0
            sol, *_ = np.linalg.lstsq(a, du, rcond=None)
            g_oracle = float(np.hypot(sol[0], sol[1]))
            assert abs(g_measure(st, system) - g_oracle) <= 1e-9 * max(1.0, g_oracle)


def test_criterion_5_ordering_reproduction():
    with criterion(5, "G-measure and solver ordering at 33x33"):
        start = time.perf_counter()
        quad = generate(GenSpec(kind="quad", nx=33, ny=33))
        tri_reg = generate(GenSpec(kind="tri_regular", nx=33, ny=33))
        tri_irr = generate(
            GenSpec(kind="tri_irregular", nx=33, ny=33, perturb=0.3, seed=42)
        )
        g_quad = analyze(quad).g_avg
        g_reg = analyze(tri_reg).g_avg
        g_irr = analyze(tri_irr).g_avg
        assert g_quad < g_reg < g_irr

        spec = ProblemSpec(theta=30.0, tolerance=1e-8)
        rq = defect_correction_solve(quad, spec)
        ri = defect_correction_solve(tri_irr, spec)
        assert rq.converged
        # non-convergence counts as worse than any finite iteration count
        assert (not ri.converged) or rq.iterations_to_tol < ri.iterations_to_tol
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"ordering study took {elapsed:.2f} s"


def test_criterion_6_solver_sanity():
    with criterion(6, "first-order Newton and second-order residual"):
        quad = generate(GenSpec(kind="quad", nx=33, ny=33))
        report = defect_correction_solve(
            quad, ProblemSpec(theta=30.0, first_order=True)
        )
        assert report.converged
        assert report.iterations_to_tol <= 2

        norms = {}
        for nx in (17, 33):
            grid = generate(GenSpec(kind="quad", nx=nx, ny=nx))
            u = exact_solution(grid.centroids[:, 0], grid.centroids[:, 1])
            res = residual_second_order(grid, u, 0.0)
            norms[nx] = float(np.abs(res).sum())
        ratio = norms[17] / norms[33]
        assert 3.2 <= ratio <= 4.8, f"refinement ratio {ratio:.3f}"


def test_criterion_7_determinism_and_roundtrip():
    with criterion(7, "determinism and grid file round-trip"):
        spec = GenSpec(kind="tri_irregular", nx=33, ny=33, perturb=0.3, seed=42)
        text_a = grid_to_text(generate(spec))
        text_b = grid_to_text(generate(spec))
        assert text_a == text_b

        grid = parse_grid(text_a)
        assert grid_to_text(parse_grid(grid_to_text(grid))) == grid_to_text(grid)

        assert analyze(generate(spec)).csv_row() == analyze(generate(spec)).csv_row()

        quad = generate(GenSpec(kind="quad", nx=17, ny=17))
        bufs = []
        for _ in range(2):
            report = defect_correction_solve(quad, ProblemSpec(theta=30.0))
            buf = io.StringIO()
            report.write_history_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
