"""Weighted length functional, stationarity and non-degeneracy of the curve.

The curve is stationary for the weighted length int V^sigma when
sigma V_t = k V on it, and non-degenerate when the Jacobi-type Robin problem
f'' + hbar1 f' + hbar2 f = 0, f'(0) + k1 f(0) = 0, f'(1) + k2 f(1) = 0
admits only the trivial solution. hbar1/hbar2 defined here are reused
verbatim by the reduced solvers.

Non-degeneracy is judged by the smallest singular value of the tridiagonal
ghost-point discretization of that problem, computed in O(n) by block inverse
iteration on one banded LU factorization (Golub & Van Loan, Matrix
Computations): an exact zero pivot gives sigma_min = 0, and the iteration
stops on a 1e-10 relative change of the estimate or after 50 steps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .geometry import _FD_STEPS, ScalarFn
from .util import Spline, cumulative_integral, fd_derivative, simpson_weights

__all__ = [
    "PotentialField",
    "build_potential",
    "weighted_length",
    "stationarity_residual",
    "first_variation_ways",
    "second_variation_pair",
    "hbar1",
    "hbar2",
    "jacobi_matrix",
    "smallest_singular_value",
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


def second_variation_pair(chart, field, h, hp, hpp, s=1e-3, n_quad=2001):
    """(bilinear form, central second difference of J) for the direction h."""
    theta = np.linspace(0.0, 1.0, n_quad)
    hv, hpv, hppv = (np.asarray(f(theta), dtype=float) for f in (h, hp, hpp))
    wq = simpson_weights(n_quad, theta[1] - theta[0])
    V0 = field.V0(theta)
    Vs = V0**field.sigma
    q1 = hbar1(field, theta)
    q2 = hbar2(chart, field, theta)
    interior = -float(np.sum(wq * Vs * (hppv + q1 * hpv + q2 * hv) * hv))
    vp = chart.varpi(theta)
    bnd = (Vs[-1] * hv[-1] * (vp[-1] * hv[-1] + hpv[-1])) - (Vs[0] * hv[0] * (vp[0] * hv[0] + hpv[0]))
    form = bnd + interior
    j0 = weighted_length(chart, field, lambda t: 0.0 * np.asarray(t), gp=lambda t: 0.0 * np.asarray(t), n_quad=n_quad)
    jp = weighted_length(chart, field, lambda t: s * h(t), gp=lambda t: s * hp(t), n_quad=n_quad)
    jm = weighted_length(chart, field, lambda t: -s * h(t), gp=lambda t: -s * hp(t), n_quad=n_quad)
    fd = (jp - 2.0 * j0 + jm) / s**2
    return form, fd


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


def jacobi_matrix(q1, q2, k1, k2, n_theta):
    """Second-order ghost-point discretization of the Jacobi Robin problem.

    Returns the (sub, main, super) diagonals of the tridiagonal
    n_theta x n_theta matrix.
    """
    h = 1.0 / (n_theta - 1)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    lower = 1.0 / h**2 - q1[1:] / (2.0 * h)
    diag = -2.0 / h**2 + q2
    upper = 1.0 / h**2 + q1[:-1] / (2.0 * h)
    # theta = 0: ghost f_{-1} = f_1 + 2 h k1 f_0 from f'(0) + k1 f(0) = 0
    diag[0] = -2.0 / h**2 + 2.0 * k1 / h + q2[0] - q1[0] * k1
    upper[0] = 2.0 / h**2
    # theta = 1: ghost f_{N+1} = f_{N-1} - 2 h k2 f_N
    diag[-1] = -2.0 / h**2 - 2.0 * k2 / h + q2[-1] - q1[-1] * k2
    lower[-1] = 2.0 / h**2
    return lower, diag, upper


def _tridiagonal_inf_norm(lower, diag, upper):
    """Max-row-sum norm of the tridiagonal matrix with the given diagonals."""
    rows = np.abs(diag)
    rows[1:] += np.abs(lower)
    rows[:-1] += np.abs(upper)
    return float(rows.max())


_SIGMA_RTOL = 1e-10
_SIGMA_MAX_STEPS = 50


def smallest_singular_value(lower, diag, upper):
    """sigma_min of the tridiagonal matrix M with the given diagonals, in O(n).

    Block inverse iteration on (M M^T)^-1 from one LU factorization with
    partial pivoting (LAPACK dgttrf): each step solves with M, then with M^T,
    and re-orthonormalizes, so the block Q tends to the left singular
    vectors of the smallest singular values. The estimate is sigma_min of the
    n x 3 matrix M^T Q, i.e. |M^T u| for the best u in span Q; it bounds
    sigma_min from above. M^T M is never formed: that would square the
    condition number. Three columns make the rate (sigma_1 / sigma_4)^2, so a
    near-tie sigma_1 ~ sigma_2 (eigenvalues of opposite sign and similar
    size) still converges. An exact zero pivot means M is singular and gives
    sigma_min = 0. The iteration stops when the estimate changes by at most
    1e-10 relative, when it reaches the roundoff floor eps ||M||_inf (below
    which nothing is resolved and the estimate does not settle), or after 50
    steps.
    """
    factors = sla.lapack.dgttrf(lower, diag, upper)
    if factors[-1] > 0:
        return 0.0
    factors = factors[:-1]
    floor = np.finfo(float).eps * _tridiagonal_inf_norm(lower, diag, upper)
    # 1, x, x^2 on [-1, 1]: both parities, since reflection-symmetric
    # problems have kernels orthogonal to every even start vector
    x = np.linspace(-1.0, 1.0, diag.size)
    q = np.linalg.qr(np.vander(x, 3, increasing=True))[0]
    sigma = np.inf
    for _ in range(_SIGMA_MAX_STEPS):
        y = np.linalg.qr(sla.lapack.dgttrs(*factors, q, trans="N")[0])[0]
        q = np.linalg.qr(sla.lapack.dgttrs(*factors, y, trans="T")[0])[0]
        mtq = diag[:, None] * q
        mtq[:-1] += lower[:, None] * q[1:]
        mtq[1:] += upper[:, None] * q[:-1]
        previous, sigma = sigma, float(np.linalg.svd(mtq, compute_uv=False)[-1])
        if sigma <= floor or abs(sigma - previous) <= _SIGMA_RTOL * sigma:
            break
    return sigma


@dataclass
class NondegeneracyReport:
    n_theta: tuple
    smallest: tuple
    calibration: float
    threshold: float
    nondegenerate: bool
    stationarity_sup: float


def nondegeneracy_test(chart, field, stationarity_tol=1e-8):
    """Smallest singular value of the Jacobi operator and the verdict.

    The curve must first be stationary: unless the stationarity residual sup
    is below stationarity_tol * max(max V0, 1), StationarityError is raised
    carrying that sup (a NaN residual is refused too).

    sigma_min comes from smallest_singular_value on the tridiagonal
    jacobi_matrix at each size: block inverse iteration with a banded LU
    (LAPACK dgttrf), O(n) per size. An exact zero pivot gives sigma_min = 0,
    never a LinAlgError; the iteration stops on a 1e-10 relative change, at
    the roundoff floor eps ||M||_inf, or after 50 steps.

    The threshold is mesh-calibrated: ten times the smallest singular value,
    by the same routine, of the same-size discretization of the known
    degenerate configuration (constant weight, straight curve, Neumann ends),
    floored by the roundoff of finite-differenced coefficients and by the
    roundoff floor eps ||M||_inf of the finest Jacobi matrix itself.
    """
    _, res, sup = stationarity_residual(chart, field)
    scale = float(np.max(field.V0(np.linspace(0, 1, 101))))
    if not sup < stationarity_tol * max(scale, 1.0):
        raise StationarityError(f"stationarity residual sup {sup:.3e} exceeds tolerance", sup)

    sizes = (401, 801, 1601)
    smallest = []
    for n in sizes:
        theta = np.linspace(0.0, 1.0, n)
        m = jacobi_matrix(hbar1(field, theta), hbar2(chart, field, theta), chart.k1, chart.k2, n)
        smallest.append(smallest_singular_value(*m))
    # singular values below eps ||M|| of the finest matrix are roundoff even
    # when the coefficients are exact (analytic derivatives, zero fd_noise)
    roundoff = np.finfo(float).eps * _tridiagonal_inf_norm(*m)
    # calibration runs the known degenerate configuration (constant weight,
    # straight curve, Neumann ends) through the same coefficient pathway so
    # it carries the same finite-difference noise floor
    n_cal = sizes[-1]
    theta = np.linspace(0.0, 1.0, n_cal)
    cal_field = PotentialField(field.p, lambda t, th: np.ones_like(np.asarray(t) + np.asarray(th)))
    zero = np.zeros_like(theta)
    cal_q1 = hbar1(cal_field, theta)
    cal_q2 = -cal_field.sigma * cal_field.V_tt(zero, theta) / cal_field.V0(theta)
    calibration = smallest_singular_value(*jacobi_matrix(cal_q1, cal_q2, 0.0, 0.0, n_cal))
    # roundoff floor of finite-differenced coefficients (zero when the
    # potential carries analytic derivatives); a singular value below what
    # the coefficients resolve cannot support a non-degeneracy claim
    if field._V_tt is None or field._V_theta is None:
        fd_noise = 50.0 * np.finfo(float).eps * scale * field.sigma / _FD_STEPS[2] ** 2
        fd_noise /= float(np.min(field.V0(np.linspace(0, 1, 101))))
    else:
        fd_noise = 0.0
    threshold = 10.0 * max(calibration, fd_noise, roundoff, 1e-12)
    return NondegeneracyReport(
        n_theta=sizes,
        smallest=tuple(smallest),
        calibration=calibration,
        threshold=threshold,
        nondegenerate=bool(smallest[-1] >= threshold),
        stationarity_sup=sup,
    )
