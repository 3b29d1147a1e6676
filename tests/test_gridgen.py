import numpy as np
import pytest

from gridgauge import GenSpec, generate, grid_to_text
from gridgauge.oracle import build_stencil


def test_single_quad_cell():
    grid = generate(GenSpec(kind="quad", nx=2, ny=2))
    assert grid.n_nodes == 4
    assert grid.n_cells == 1
    assert grid.areas[0] == pytest.approx(1.0, abs=1e-15)


def test_quad_counts_16():
    grid = generate(GenSpec(kind="quad", nx=16, ny=16))
    assert grid.n_nodes == 256
    assert grid.n_cells == 225


def test_tri_regular_single_split():
    grid = generate(GenSpec(kind="tri_regular", nx=2, ny=2))
    assert grid.n_cells == 2
    assert all(a == pytest.approx(0.5, abs=1e-15) for a in grid.areas)


def test_tri_regular_uniform_diagonal():
    grid = generate(GenSpec(kind="tri_regular", nx=5, ny=5))
    assert grid.n_cells == 32
    # every cell is a triangle of the same area
    areas = grid.areas
    assert np.allclose(areas, areas[0], rtol=1e-13)


def test_zero_perturbation_keeps_lattice():
    irregular = generate(GenSpec(kind="tri_irregular", nx=7, ny=7, perturb=0.0, seed=99))
    regular = generate(GenSpec(kind="quad", nx=7, ny=7))
    assert np.array_equal(irregular.nodes, regular.nodes)


def test_determinism_bit_identical():
    spec = GenSpec(kind="tri_irregular", nx=17, ny=17, perturb=0.3, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.cell_nodes, b.cell_nodes)
    assert np.array_equal(a.cell_nverts, b.cell_nverts)
    assert grid_to_text(a) == grid_to_text(b)


def test_different_seed_changes_grid():
    a = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=1))
    b = generate(GenSpec(kind="tri_irregular", nx=9, ny=9, perturb=0.3, seed=2))
    assert not np.array_equal(a.nodes, b.nodes)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_validity_at_high_perturbation(seed):
    # generate() derives geometry, which rejects non-positive areas and bad
    # face sharing, so surviving the call is most of the check
    grid = generate(GenSpec(kind="tri_irregular", nx=81, ny=81, perturb=0.45, seed=seed))
    assert grid.areas.min() > 0.0


def test_boundary_nodes_fixed():
    spec = GenSpec(kind="tri_irregular", nx=13, ny=13, perturb=0.45, seed=4)
    grid = generate(spec)
    lattice = generate(GenSpec(kind="quad", nx=13, ny=13))
    on_boundary = (
        (lattice.nodes[:, 0] == 0.0)
        | (lattice.nodes[:, 0] == 1.0)
        | (lattice.nodes[:, 1] == 0.0)
        | (lattice.nodes[:, 1] == 1.0)
    )
    assert np.array_equal(grid.nodes[on_boundary], lattice.nodes[on_boundary])
    assert grid.bbox == (0.0, 0.0, 1.0, 1.0)


def test_quad_ar_spacing():
    grid = generate(GenSpec(kind="quad_ar", nx=16, ny=16, aspect_ratio=4.0))
    x0, y0, x1, y1 = grid.bbox
    assert (x1, y1) == (1.0, 0.25)
    vertices = grid.cell_nodes[0, :grid.cell_nverts[0]]
    xs = grid.nodes[vertices, 0]
    ys = grid.nodes[vertices, 1]
    dx = xs.max() - xs.min()
    dy = ys.max() - ys.min()
    assert dx / dy == pytest.approx(4.0, rel=1e-12)


def test_quad_interior_stencil_spacing():
    grid = generate(GenSpec(kind="quad", nx=16, ny=16))
    st = build_stencil(grid, 16, mode="face")  # interior cell
    assert st.n == 4
    assert all(abs(d - 1.0 / 15.0) < 1e-14 for d in st.d)


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(kind="hex", nx=4, ny=4),
        GenSpec(kind="quad", nx=1, ny=4),
        GenSpec(kind="quad", nx=4, ny=1),
        GenSpec(kind="tri_irregular", nx=4, ny=4, perturb=0.5),
        GenSpec(kind="tri_irregular", nx=4, ny=4, perturb=-0.1),
        GenSpec(kind="quad_ar", nx=4, ny=4, aspect_ratio=0.0),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(ValueError):
        generate(spec)


@pytest.mark.parametrize("kind", ["quad", "quad_ar", "tri_regular",
                                  "tri_irregular"])
def test_negative_seed_rejected(kind):
    with pytest.raises(ValueError,
                       match="^seed must be non-negative, got -1$"):
        generate(GenSpec(kind=kind, nx=3, ny=3, seed=-1))
