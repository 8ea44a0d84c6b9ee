import numpy as np
import pytest
from scipy.interpolate import BSpline, CubicSpline, make_interp_spline

from curvelayers.util import Quintic, Spline, cumulative_integral, write_table


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


def _quintic_against_scipy(x, y, rng):
    """The in-house quintic's knots, coefficients and values against SciPy's, as bytes."""
    spl = make_interp_spline(x, y, k=5)
    q = Quintic(x)
    c = q.coefficients(y)
    assert q.t.tobytes() == spl.t.tobytes()
    assert np.asarray(c, order="C").tobytes() == np.asarray(spl.c, order="C").tobytes()
    # every column at random points, at the sites, and at both ends
    xq = np.concatenate([rng.uniform(x[0], x[-1], 400), x, [x[0], x[-1]]])
    cols = rng.integers(0, y.shape[1], xq.size)
    ref = np.array([BSpline.construct_fast(spl.t, spl.c[:, j], 5)(xi) for xi, j in zip(xq, cols)])
    assert q(c, xq, cols).tobytes() == ref.tobytes()


@pytest.mark.parametrize("ncols", [1, 49])
def test_quintic_is_scipys_on_the_strip_grid(ctx3, ncols):
    rng = np.random.default_rng(ncols)
    x = ctx3.x
    y = np.exp(-np.abs(x))[:, None] * rng.uniform(0.5, 2.0, ncols) + 1e-3 * rng.standard_normal((x.size, ncols))
    _quintic_against_scipy(x, y, rng)


def test_quintic_is_scipys_on_an_uneven_grid():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.01, 1.0, 60)) - 3.0
    _quintic_against_scipy(x, rng.standard_normal((x.size, 3)), rng)


def test_quintic_refuses_too_few_or_unordered_sites():
    with pytest.raises(ValueError):
        Quintic(np.arange(5.0))
    with pytest.raises(ValueError):
        Quintic(np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0]))


@pytest.mark.parametrize("fmt", ["%.18e", "%.12e"])
@pytest.mark.parametrize("shape", [(2500, 3), (1024, 11), (7,), (0, 2)])
def test_write_table_is_savetxt(tmp_path, fmt, shape):
    data = np.random.default_rng(1).standard_normal(shape) * 10.0 ** np.arange(-4, 5)[np.arange(shape[-1]) % 9]
    data.flat[::5] = 0.0
    for header in ("", "x w", "p = 3.0\nrho1 = 2.5\nx w w_x"):
        write_table(tmp_path / "ours.txt", data, header=header, fmt=fmt)
        np.savetxt(tmp_path / "numpy.txt", data, header=header, fmt=fmt)
        assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "numpy.txt").read_bytes()
