import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from curvelayers.util import Spline, cumulative_integral


def _arc_knots(n):
    """Non-uniform knots: the arc values of sqrt(V) on bent-channel's curve, as arc_inv splines them."""
    grid = np.linspace(-0.1, 1.1, n)
    arc = cumulative_integral(lambda s: np.sqrt(1.0 + 0.3 * s * np.sin(np.pi * s)), grid)
    return arc, grid


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n", [21, 257, 4097])
def test_spline_matches_scipy_on_non_uniform_knots(n):
    arc, grid = _arc_knots(n)
    h = arc[1] - arc[0]
    # inside the knots, and a part of an interval beyond each end
    t = np.concatenate([np.linspace(arc[0], arc[-1], 1001), [arc[0] - 0.7 * h, arc[-1] + 0.5 * h]])
    ours, ref = Spline(arc, grid), CubicSpline(arc, grid)
    assert _rel(ours(t), ref(t)) <= 1e-14
    assert _rel(ours(t, 1), ref(t, 1)) <= 1e-13
    assert _rel(ours(t, 2), ref(t, 2)) <= 1e-11


def test_spline_of_a_table_along_axis_0():
    x = np.sort(np.random.default_rng(3).uniform(0.0, 3.0, 25))
    y = np.stack([10.0 * np.sin(3.0 * x), np.exp(-x), x**3 - 2.0 * x], axis=1)
    t = np.linspace(x[0] - 0.05, x[-1] + 0.05, 301)
    ours, ref = Spline(x, y), CubicSpline(x, y, axis=0)
    for order, tol in ((0, 1e-14), (1, 1e-13), (2, 1e-11)):
        got = ours(t, order)
        assert got.shape == (t.size, 3)
        assert _rel(got, ref(t, order)) <= tol, order
    # a cubic is reproduced exactly: the third column's second derivative is 6x
    assert np.max(np.abs(ours(t, 2)[:, 2] - 6.0 * t)) <= 1e-11


def test_spline_of_a_scalar_is_0d():
    arc, grid = _arc_knots(41)
    ours, ref = Spline(arc, grid), CubicSpline(arc, grid)
    for order in (0, 1, 2):
        got = ours(0.37, order)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert abs(got - ref(0.37, order)) <= 1e-12 * abs(ref(0.37, order))
    assert ours(0.37, 0).shape == ref(0.37).shape


@pytest.mark.parametrize("n", [2, 3])
def test_spline_needs_four_knots(n):
    with pytest.raises(ValueError, match="at least 4 knots"):
        Spline(np.linspace(0.0, 1.0, n), np.ones(n))


def test_spline_refuses_unordered_knots_and_orders():
    with pytest.raises(ValueError, match="increasing"):
        Spline(np.array([0.0, 0.5, 0.4, 1.0]), np.ones(4))
    with pytest.raises(ValueError, match="order"):
        Spline(np.linspace(0.0, 1.0, 5), np.ones(5))(0.5, 3)
