"""The exp rule of G's bump: the array form lsq._exp and its scalar twin
oracle.exponential. NumPy alone: no SciPy is imported."""

import math
import warnings

import numpy as np

from gridgauge import Grid
from gridgauge import lsq
from gridgauge.lsq import LN2, _exp
from gridgauge.oracle import exponential


def exponentials(q):
    """The scalar exp rule over an array, one value at a time."""
    return np.array(list(map(exponential, q.tolist())), float)


def check_exp_rule(q):
    """_exp(q) equals the scalar rule bit for bit and is within 2 ulp of
    math.exp; no RuntimeWarning. Returns _exp(q)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _exp(q)
    assert got.dtype == np.float64
    bits = got.view(np.int64)
    assert np.array_equal(bits, exponentials(q).view(np.int64))
    want = np.array(list(map(math.exp, q.tolist())), float)
    # Positive doubles are ordered as their bits, so the bit distance counts
    # ulps.
    assert np.abs(bits - want.view(np.int64)).max(initial=0) <= 2
    return got


def test_exp_rule_on_sample():
    # 200,000 values of q in [-2, 0], where G's bump takes them, and the
    # reduction's ties q = -(m + 1/2) ln 2 with their neighbors, where
    # rint picks k.
    rng = np.random.default_rng(20261019)
    q = -2.0 * rng.random(200_000)
    ties = -(np.arange(3) + 0.5) * LN2
    ties = np.concatenate([ties, np.nextafter(ties, 0.0),
                           np.nextafter(ties, -1.0)])
    check_exp_rule(np.concatenate([q, ties]))
    for length in (0, 1):
        check_exp_rule(q[:length])


def test_exp_rule_edge_values():
    got = check_exp_rule(np.array([0.0, -0.0, -2.0, -1e-300, -5e-324]))
    assert got[0] == got[1] == exponential(0.0) == exponential(-0.0) == 1.0
    assert got[3] == got[4] == 1.0
    assert got[2] == exponential(-2.0)


def test_exp_rule_masks_non_finite_lanes():
    # Degenerate cells give NaN (and could give -inf) lanes; they are masked
    # before the int cast, which would warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _exp(np.array([np.nan, -np.inf, np.inf, -1.0]))
    assert np.isnan(got[0])
    assert got[1] == 0.0 and got[2] == np.inf
    assert got[3] == exponential(-1.0)


def test_degenerate_cells_pass_nan_lanes_without_warning(monkeypatch):
    # Two triangles around one centroid, sharing only node 0: each is the
    # other's one vertex neighbor, at distance 0, so the scaled offsets are
    # 0 / 0.
    grid = Grid(name="overlap",
                nodes=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0],
                                [2.5, 0.25], [0.5, 2.75]]),
                cell_nodes=np.array([[0, 1, 2, -1], [0, 3, 4, -1]]))
    seen = []

    def exp(q):
        seen.append(q.copy())
        return _exp(q)

    monkeypatch.setattr(lsq, "_exp", exp)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = lsq.lsq_table(grid, 0, "vertex")
    assert np.isnan(np.concatenate(seen)).all()
    assert table.degenerate.all()
    assert np.isnan(table.f).all() and np.isnan(table.g).all()
