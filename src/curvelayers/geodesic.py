"""Weighted length functional, stationarity and non-degeneracy of the curve.

The curve is stationary for the weighted length int V^sigma when
sigma V_t = k V on it, and non-degenerate when the Jacobi-type Robin problem
f'' + hbar1 f' + hbar2 f = 0, f'(0) + k1 f(0) = 0, f'(1) + k2 f(1) = 0
admits only the trivial solution. hbar1/hbar2 defined here are the
coefficients of the reduced location operator, and the verdict is the one
reduced.location_basis reads off that operator's Chebyshev spectrum, so the
geodesic test and the reduced solvers cannot disagree.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _FD_STEPS, ScalarFn
from .util import Spline, cumulative_integral, fd_derivative, simpson_weights

__all__ = [
    "PotentialField",
    "build_potential",
    "weighted_length",
    "stationarity_residual",
    "first_variation_ways",
    "hbar1",
    "hbar2",
    "NondegeneracyReport",
    "nondegeneracy_test",
    "StationarityError",
]


class StationarityError(RuntimeError):
    """The curve fails the stationarity relation beyond tolerance; sup is the residual."""

    def __init__(self, message, sup):
        super().__init__(message)
        self.sup = sup


def _on_curve(f):
    """f as a ScalarFn whose second derivative keeps the 1e-4 step, not _FD_STEPS[2]
    (see the FOUND on this step in CHANGES.md)."""
    return ScalarFn(f, d2=lambda th: fd_derivative(f, th, order=2, h=_FD_STEPS[1]))


def _on_curve_values(V, theta):
    theta = np.asarray(theta, dtype=float)
    return np.asarray(V(np.zeros_like(theta), theta), dtype=float)


class PotentialField:
    """Potential in chart coordinates with on-curve derived weights."""

    def __init__(self, p, V, V_t=None, V_tt=None, V_theta=None, span=(-0.1, 1.1)):
        self.p = float(p)
        self.sigma = (p + 1.0) / (p - 1.0) - 0.5
        self._V = V
        self._V_t = V_t
        self._V_tt = V_tt
        self._V_theta = V_theta
        grid = np.linspace(span[0], span[1], 4097)
        beta_vals = np.sqrt(self.V(np.zeros_like(grid), grid))
        if np.any(beta_vals <= 0) or np.any(~np.isfinite(beta_vals)):
            raise ValueError("potential must be positive on the curve span")
        arc_vals = cumulative_integral(lambda s: np.sqrt(self.V(np.zeros_like(np.asarray(s)), s)), grid)
        self._arc = Spline(grid, arc_vals)
        self._arc_inv = Spline(arc_vals, grid)
        self.ell = float(self._arc(1.0) - self._arc(0.0))
        self._arc0 = float(self._arc(0.0))

        # on-curve weights alpha = V^(1/(p-1)) and beta = V^(1/2); the closures
        # hold the raw V, not self, so a dropped field is freed at once
        power = 1.0 / (self.p - 1.0)
        self.alpha = _on_curve(lambda th: _on_curve_values(V, th) ** power)
        self.beta = _on_curve(lambda th: np.sqrt(_on_curve_values(V, th)))

    # -- raw potential -----------------------------------------------------
    def V(self, t, theta):
        return np.asarray(self._V(np.asarray(t, dtype=float), np.asarray(theta, dtype=float)), dtype=float)

    def V_t(self, t, theta):
        if self._V_t is not None:
            return np.asarray(self._V_t(t, theta), dtype=float)
        return fd_derivative(lambda s: self.V(s, theta), np.asarray(t, dtype=float), order=1, h=_FD_STEPS[1])

    def V_tt(self, t, theta):
        if self._V_tt is not None:
            return np.asarray(self._V_tt(t, theta), dtype=float)
        return fd_derivative(lambda s: self.V(s, theta), np.asarray(t, dtype=float), order=2, h=_FD_STEPS[2])

    def V_theta(self, t, theta):
        if self._V_theta is not None:
            return np.asarray(self._V_theta(t, theta), dtype=float)
        return fd_derivative(lambda s: self.V(t, s), np.asarray(theta, dtype=float), order=1, h=_FD_STEPS[1])

    def V0(self, theta):
        return _on_curve_values(self._V, theta)

    # -- arc map -------------------------------------------------------------
    def arc(self, theta):
        """a(theta) = int_0^theta beta; a(1) = ell."""
        return np.asarray(self._arc(theta), dtype=float) - self._arc0

    def arc_inv(self, a):
        return np.asarray(self._arc_inv(np.asarray(a, dtype=float) + self._arc0), dtype=float)


def build_potential(p, V, **kw):
    return PotentialField(p, V, **kw)


def weighted_length(chart, field, g, gp=None, n_quad=2001):
    """J(g): weighted length of the deformed curve staying inside the chart."""
    theta = np.linspace(0.0, 1.0, n_quad)
    if callable(g):
        gv = np.asarray(g(theta), dtype=float)
        gpv = np.asarray(gp(theta), dtype=float) if gp is not None else fd_derivative(g, theta, order=1, h=1e-5)
    else:
        gv = np.full_like(theta, float(g))
        gpv = np.zeros_like(theta)
    if np.any(np.abs(gv) > chart.delta0):
        raise ValueError("deformed curve leaves the chart")
    th, th_t, th_th, _, _ = chart.Theta_partials(gv, theta)
    k = chart.k(th)
    speed = np.sqrt((1.0 - k * gv) ** 2 * (th_t * gpv + th_th) ** 2 + gpv**2)
    weight = field.V(gv, theta) ** field.sigma
    wq = simpson_weights(n_quad, theta[1] - theta[0])
    return float(np.sum(wq * weight * speed))


def stationarity_residual(chart, field, n_theta=401):
    """Residual theta -> sigma V_t(0, theta) - k(theta) V(0, theta)."""
    theta = np.linspace(0.0, 1.0, n_theta)
    zero = np.zeros_like(theta)
    res = field.sigma * field.V_t(zero, theta) - chart.k(theta) * field.V0(theta)
    return theta, res, float(np.max(np.abs(res)))


def first_variation_ways(chart, field, h, hp=None, s=1e-4, n_quad=2001):
    """J'(0)[h] three ways: variational display, residual form, central FD."""
    theta = np.linspace(0.0, 1.0, n_quad)
    hv = np.asarray(h(theta), dtype=float)
    wq = simpson_weights(n_quad, theta[1] - theta[0])
    zero = np.zeros_like(theta)
    V0 = field.V0(theta)
    Vs = V0**field.sigma
    # Theta_ttheta(0, theta) vanishes for orthogonal graphs; keep the chart value
    _, _, _, _, th_tth0 = chart.Theta_partials(zero, theta)
    display = float(np.sum(wq * (Vs * (-chart.k(theta) + th_tth0) * hv + field.sigma * V0 ** (field.sigma - 1.0) * field.V_t(zero, theta) * hv)))
    _, res, _ = stationarity_residual(chart, field, n_theta=n_quad)
    residual_form = float(np.sum(wq * res * V0 ** (field.sigma - 1.0) * hv))
    jp = weighted_length(chart, field, lambda t: s * h(t), gp=None if hp is None else (lambda t: s * hp(t)), n_quad=n_quad)
    jm = weighted_length(chart, field, lambda t: -s * h(t), gp=None if hp is None else (lambda t: -s * hp(t)), n_quad=n_quad)
    fd = (jp - jm) / (2.0 * s)
    return display, residual_form, fd


def hbar1(field, theta):
    """sigma V^-1 V_theta on the curve."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    return field.sigma * field.V_theta(zero, theta) / field.V0(theta)


def hbar2(chart, field, theta):
    """sigma V^-1 V_theta Theta_tt - sigma V^-1 V_tt + (1 + 1/sigma) k^2."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    V0 = field.V0(theta)
    s = field.sigma
    return (
        s * field.V_theta(zero, theta) / V0 * chart.varpi(theta)
        - s * field.V_tt(zero, theta) / V0
        + (1.0 + 1.0 / s) * chart.k(theta) ** 2
    )


@dataclass
class NondegeneracyReport:
    lam_near_zero: np.ndarray
    smallest: float
    threshold: float
    nondegenerate: bool
    stationarity_sup: float


def nondegeneracy_test(chart, field, stationarity_tol=1e-8):
    """Stationarity of the curve, then the verdict of reduced.LocationBasis.

    The curve must first be stationary: unless the stationarity residual sup
    is below stationarity_tol * max(max V0, 1), StationarityError is raised
    carrying that sup (a NaN residual is refused too). ReducedProblem reads
    the same verdict, from the same reduced.location_basis.
    """
    _, _, sup = stationarity_residual(chart, field)
    scale = float(np.max(field.V0(np.linspace(0, 1, 101))))
    if not sup < stationarity_tol * max(scale, 1.0):
        raise StationarityError(f"stationarity residual sup {sup:.3e} exceeds tolerance", sup)
    from .reduced import location_basis  # reduced imports this module

    loc = location_basis(chart, field)
    return NondegeneracyReport(loc.lam_near_zero, loc.smallest, loc.threshold, loc.nondegenerate, sup)
