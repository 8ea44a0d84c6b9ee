"""Shared numerical helpers: quadrature, smooth cutoffs, stencils, slope fits."""

import numpy as np

__all__ = [
    "simpson_weights",
    "smoothstep",
    "bridge_cutoff",
    "fd_derivative",
    "fd_first_axis",
    "loglog_slope",
    "cumulative_integral",
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
