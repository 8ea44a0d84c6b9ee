"""Shared numerical helpers: quadrature, smooth cutoffs, stencils, slope fits, splines, tables."""

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "simpson_weights",
    "smoothstep",
    "bridge_cutoff",
    "fd_derivative",
    "fd_first_axis",
    "loglog_slope",
    "cumulative_integral",
    "spline_slopes",
    "hermite",
    "Spline",
    "Quintic",
    "write_table",
]


def simpson_weights(n, h):
    """Composite-Simpson weights for n equally spaced points (n odd)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def smoothstep(s):
    """C^2 quintic ramp: 0 for s<=0, 1 for s>=1, 10s^3-15s^4+6s^5 between."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s**3 * (10.0 + s * (-15.0 + 6.0 * s))


def _smoothstep_d1(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    d = 30.0 * s**2 * (1.0 - s) ** 2
    return np.where(inside, d, 0.0)


def _smoothstep_d2(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    d = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    return np.where(inside, d, 0.0)


class bridge_cutoff:
    """Cutoff equal to 1 on [0, r0], 0 beyond r1, with a C^2 quintic bridge.

    Evaluates on |r|; deriv(r, order) returns the first (odd in r) or second
    d/dr of the cutoff.
    """

    def __init__(self, r0, r1):
        if not r1 > r0 >= 0.0:
            raise ValueError("need 0 <= r0 < r1")
        self.r0 = float(r0)
        self.r1 = float(r1)
        self._inv = 1.0 / (self.r1 - self.r0)

    def _s(self, r):
        return (np.abs(r) - self.r0) * self._inv

    def __call__(self, r):
        return 1.0 - smoothstep(self._s(r))

    def deriv(self, r, order=1):
        r = np.asarray(r, dtype=float)
        if order == 2:
            return -_smoothstep_d2(self._s(r)) * self._inv**2
        return -_smoothstep_d1(self._s(r)) * self._inv * np.sign(r)


# 6th-order central stencil for first/second/third derivatives.
_D1_W = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_W = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_D3_W = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def fd_derivative(f, x, order=1, h=1e-4):
    """High-order central finite difference of a scalar/vector callable.

    Sixth-order stencils for orders 1 and 2, fourth-order for order 3.
    """
    x = np.asarray(x, dtype=float)
    offs = np.arange(-3, 4)
    if order == 1:
        w = _D1_W / h
    elif order == 2:
        w = _D2_W / h**2
    elif order == 3:
        w = _D3_W / h**3
    else:
        raise ValueError("order must be 1, 2 or 3")
    vals = [np.asarray(f(x + k * h)) * wk for k, wk in zip(offs, w) if wk != 0.0]
    return sum(vals)


def loglog_slope(x, y, floor=0.0):
    """Least-squares slope of log(y) vs log(x) with a 1-sigma half width.

    Returns (slope, halfwidth). Values of y at or below `floor` are treated
    as exactly resolved (slope +inf) when they all are; mixed cases drop the
    floored points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > floor
    if not np.any(keep):
        return np.inf, 0.0
    if np.sum(keep) < 2:
        return np.inf, 0.0
    lx = np.log(x[keep])
    ly = np.log(y[keep])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[0]
    if len(lx) > 2 and res.size:
        var = res[0] / (len(lx) - 2)
        sx = np.sum((lx - lx.mean()) ** 2)
        half = np.sqrt(var / sx)
    else:
        half = 0.0
    return slope, half


def fd_first_axis(values, h):
    """Sixth-order first derivative along axis 0 of equally spaced samples.

    Ends fall back to second-order one-sided differences; intended for
    exponentially decaying tables where the ends are negligible.
    """
    values = np.asarray(values, dtype=float)
    d = np.zeros_like(values)
    c = _D1_W / h
    for k, ck in zip(range(-3, 4), c):
        if ck != 0.0:
            d[3:-3] += ck * values[3 + k : values.shape[0] - 3 + k]
    edge = np.gradient(values[:7], h, axis=0)
    d[:3] = edge[:3]
    edge = np.gradient(values[-7:], h, axis=0)
    d[-3:] = edge[-3:]
    return d


def cumulative_integral(f, grid):
    """Antiderivative of callable f on a grid via per-interval Simpson."""
    grid = np.asarray(grid, dtype=float)
    mid = 0.5 * (grid[:-1] + grid[1:])
    h = np.diff(grid)
    seg = (f(grid[:-1]) + 4.0 * f(mid) + f(grid[1:])) * (h / 6.0)
    out = np.empty_like(grid)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out


def spline_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y), along axis 0 of y.

    One tridiagonal solve for all trailing columns (de Boor, A Practical Guide
    to Splines, ch. IV), with the rows SciPy's not-a-knot spline uses. Needs
    at least 4 strictly increasing knots.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {n}")
    dx = np.diff(x)
    if not np.all(dx > 0.0):
        raise ValueError("knots must be strictly increasing")
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    # banded storage: row 0 the upper diagonal, row 1 the diagonal, row 2 the lower
    ab = np.empty((3, n))
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    b = np.empty_like(slope, shape=y.shape)
    b[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at the second and the last-but-one knot
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    sol = sla.solve_banded((1, 1), ab, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True, check_finite=False)
    return sol.reshape(y.shape)


def hermite(grid, y, slope, t, order=0):
    """Derivative of the given order (0-2) of the piecewise cubic with values y and slopes at the grid.

    y and slope run along axis 0; the result has shape t.shape + y.shape[1:].
    Each interval's cubic is y0 + m0 s + c2 s^2 + c3 s^3 in s = (t - knot)/h;
    points outside the grid use the end intervals.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    t = np.asarray(t, dtype=float)
    # the interval index, 0 below the second knot and the last at or above the last-but-one
    i = np.searchsorted(grid[1:-1], t, side="right")
    j = i + 1
    left = grid[i]
    shape = t.shape + (1,) * (np.ndim(y) - 1)
    h = (grid[j] - left).reshape(shape)
    s = (t - left).reshape(shape) / h
    y0, y1 = y[i], y[j]
    m0, m1 = h * slope[i], h * slope[j]
    c2 = 3.0 * (y1 - y0) - 2.0 * m0 - m1
    c3 = 2.0 * (y0 - y1) + m0 + m1
    if order == 0:
        out = y0 + s * (m0 + s * (c2 + s * c3))
    elif order == 1:
        out = (m0 + s * (2.0 * c2 + s * 3.0 * c3)) / h
    else:
        out = (2.0 * c2 + 6.0 * s * c3) / h**2
    return np.asarray(out)


class Spline:
    """Not-a-knot cubic spline through (x, y) along axis 0 of y.

    spline(t, order) evaluates orders 0-2; points outside the knots use the
    end cubics, as SciPy's cubic splines extrapolate.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.slope = spline_slopes(self.x, self.y)

    def __call__(self, t, order=0):
        return hermite(self.x, self.y, self.slope, t, order)


# points per pass of Quintic.__call__: the recurrence's work arrays (about
# 300 bytes a point) then stay in a core's L2 cache
_QUINTIC_BLOCK = 4096


class Quintic:
    """Not-a-knot quintic B-spline interpolation on the fixed sites x.

    The knots are x[0] and x[-1] six times each with x[3:-3] between (de Boor,
    A Practical Guide to Splines, ch. XIII), and the collocation matrix is
    factored once, in the band layout of LAPACK's gbsv. coefficients(y) then
    solves for every column of y, and q(c, xq, cols) reads column cols[i] of
    the coefficients c at xq[i] in [x[0], x[-1]]. Both follow the arithmetic
    of SciPy's make_interp_spline(x, y, k=5) and its BSpline, so the results
    are SciPy's bits. Needs at least 6 strictly increasing sites.
    """

    k = 5

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        n, k = x.size, self.k
        if n < k + 1:
            raise ValueError(f"a quintic needs at least {k + 1} sites, got {n}")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("sites must be strictly increasing")
        self.t = np.concatenate([np.full(k + 1, x[0]), x[3:-3], np.full(k + 1, x[-1])])
        # column l - k + 1 holds the knots t[l - k + 1 .. l + k] that interval l reads
        self._near = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(self.t, 2 * k).T)
        self._per_site = (n - 1) / (x[-1] - x[0])
        left = self._interval(x)
        ab = np.zeros((3 * k + 1, n), order="F")  # row 2k + i - j holds A[i, j]
        rows = np.arange(n)
        for a, b in enumerate(self._basis(x, left)):
            col = left - k + a
            ab[2 * k + rows - col, col] = b
        self.lu, self.piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError("the collocation matrix is singular")

    def _interval(self, xq):
        """The index l in [k, n - 1] with t[l] <= xq < t[l + 1], or l = n - 1 at x[-1].

        A guess from the mean site spacing, stepped one knot at a time until it holds.
        """
        t, lo, hi = self.t, self.k, self.t.size - self.k - 2
        # t[i + 3] is site i inside, so [x[i], x[i + 1]) is interval i + 3
        left = np.clip(((xq - t[lo]) * self._per_site).astype(np.intp) + 3, lo, hi)
        while True:
            up = (t[left + 1] <= xq) & (left < hi)
            down = (t[left] > xq) & (left > lo)
            if not (up.any() or down.any()):
                return left
            left += up
            left -= down

    def _basis(self, xq, left):
        """(k + 1, len(xq)): the B-splines B[left - k + a] at xq, by de Boor's recurrence.

        Step j turns the j values of degree j - 1 into the j + 1 of degree j:
        each B[i] splits as w = B[i] / (t[i + j] - t[i]) into w (xq - t[i]) for
        B[i] and w (t[i + j] - xq) for B[i - 1], in the order of SciPy's _deBoor_D.
        """
        k, m = self.k, xq.size
        tk = np.take(self._near, left - k + 1, axis=1)
        after, before = tk[k:] - xq, xq - tk[:k]
        h, w, d = np.empty((k + 1, m)), np.empty((k, m)), np.empty((k, m))
        h[0] = 1.0
        for j in range(1, k + 1):
            np.subtract(tk[k : k + j], tk[k - j : k], out=d[:j])
            np.divide(h[:j], d[:j], out=w[:j])
            np.multiply(w[:j], after[:j], out=h[:j])
            w[:j] *= before[k - j :]
            h[1:j] += w[: j - 1]
            h[j] = w[j - 1]
        return h

    def coefficients(self, y):
        """B-spline coefficients (n, m) of the interpolants of the columns of y (n, m)."""
        c, info = dgbtrs(self.lu, self.k, self.k, y, self.piv)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dgbtrs")
        return c

    def __call__(self, c, xq, cols):
        """Column cols[i] of the spline with coefficients c, at xq[i] (1-D arrays)."""
        k, out = self.k, np.empty(xq.size)
        flat = c.ravel(order="F")
        for s in range(0, xq.size, _QUINTIC_BLOCK):
            part = slice(s, s + _QUINTIC_BLOCK)
            left = self._interval(xq[part])
            terms = flat[left - k + cols[part] * c.shape[0] + np.arange(k + 1)[:, None]]
            terms *= self._basis(xq[part], left)
            total = out[part]
            total[:] = 0.0
            for term in terms:
                total += term
        return out


# rows per formatting pass of write_table: the pass's strings stay under 1 MiB
_TABLE_BLOCK = 1024


def write_table(path, data, header="", fmt="%.18e"):
    """Write a 1-D or 2-D table byte for byte as np.savetxt(path, data, fmt=fmt, header=header).

    Each header line gets the prefix "# "; a row is fmt once per column, joined
    by spaces. One % formats each block of up to _TABLE_BLOCK rows.
    """
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    line = " ".join([fmt] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header.replace("\n", "\n# ") + "\n")
        for s in range(0, data.shape[0], _TABLE_BLOCK):
            block = data[s : s + _TABLE_BLOCK]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
