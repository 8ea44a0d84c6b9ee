"""Modified Fermi coordinates around a curve meeting the boundary orthogonally.

The chart is F(t, theta) = gamma(Theta) + t n(Theta) where Theta straightens
the two boundary graphs. For this family the metric is available in closed
form (g11 = 1 + A^2 Theta_t^2, g12 = A^2 Theta_t Theta_theta,
g22 = A^2 Theta_theta^2 with A = 1 - t k(Theta)), so the Laplace-Beltrami
coefficients and the boundary normal are evaluated exactly and the quadratic
expansions can be tested against them.
"""

from dataclasses import dataclass, field

import numpy as np

from .util import fd_derivative, write_table

__all__ = [
    "ChartDomainError",
    "ScalarFn",
    "ZERO_FN",
    "CurveSpec",
    "DomainChart",
    "build_chart",
    "flat_channel_curve",
    "disk_diameter_curve",
    "bent_channel_curve",
    "generic_chart_curve",
    "export_chart_tables",
]


class ChartDomainError(ValueError):
    """Evaluation outside the chart rectangle."""


# balance roundoff (eps/h^order) against stencil truncation per order
_FD_STEPS = {1: 1e-4, 2: 2e-3, 3: 5e-3}


class ScalarFn:
    """Function of one parameter with derivatives, analytic when supplied, FD otherwise.

    The values may be scalars or points of the plane (a curve): the parameter
    is vectorized over and a curve carries its two coordinates in the last axis.
    """

    def __init__(self, f, d1=None, d2=None, d3=None):
        self.f = f
        self._d = [d1, d2, d3]

    def __call__(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def deriv(self, x, order=1):
        if not 1 <= order <= 3:
            raise ValueError("order must be 1..3")
        g = self._d[order - 1]
        if g is not None:
            return np.asarray(g(np.asarray(x, dtype=float)), dtype=float)
        return fd_derivative(self.f, x, order=order, h=_FD_STEPS[order])


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# the zero function, with its derivatives
ZERO_FN = ScalarFn(_zeros, d1=_zeros, d2=_zeros, d3=_zeros)


def _rot90(v):
    """Counterclockwise quarter turn; (gamma', n) positively oriented."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


@dataclass
class CurveSpec:
    """Arclength curve, its normal frame, and the two boundary graphs."""

    gamma: ScalarFn
    phi1: ScalarFn
    phi2: ScalarFn
    sigma0: float = 0.1
    name: str = "curve"

    def tangent(self, s):
        return self.gamma.deriv(s, 1)

    def normal(self, s):
        return _rot90(self.tangent(s))

    def curvature(self, s):
        # gamma'' = k n with the positively oriented normal
        return np.sum(self.gamma.deriv(s, 2) * self.normal(s), axis=-1)

    def curvature_slope(self, s):
        # k' = gamma''' . n + gamma'' . n', and gamma'' . n' = -k gamma'' . gamma' = 0
        return np.sum(self.gamma.deriv(s, 3) * self.normal(s), axis=-1)

    def validate(self):
        s = np.linspace(-self.sigma0 / 2, 1 + self.sigma0 / 2, 41)
        tang = self.tangent(s)
        speed_dev = np.max(np.abs(np.sum(tang**2, axis=-1) - 1.0))
        if speed_dev > 1e-8:
            raise ValueError(f"curve is not arclength parameterized (dev {speed_dev:.2e})")
        # Frenet: n' = -k gamma'
        nprime = fd_derivative(self.normal, s, order=1, h=1e-4)
        frenet_dev = np.max(np.abs(nprime + self.curvature(s)[..., None] * tang))
        if frenet_dev > 1e-6:
            raise ValueError(f"Frenet relation violated (dev {frenet_dev:.2e})")
        for name, graph, base in (("phi1", self.phi1, 0.0), ("phi2", self.phi2, 1.0)):
            if abs(float(graph(0.0)) - base) > 1e-8:
                raise ValueError(f"{name}(0) != {base}")
            d0 = float(graph.deriv(0.0, 1))
            if abs(d0) > 1e-8:
                raise ValueError(f"orthogonal intersection violated: {name}'(0) = {d0:.2e}")
        return self


@dataclass
class DomainChart:
    """Built chart: endpoint curvatures, boundary constants, exact metric."""

    curve: CurveSpec
    delta0: float
    sigma0: float
    k1: float = field(init=False)
    k2: float = field(init=False)
    b1: float = field(init=False)
    b2: float = field(init=False)
    b3: float = field(init=False)
    b4: float = field(init=False)
    k: ScalarFn = field(init=False, repr=False)
    jacobian_min: float = field(init=False, default=np.nan)

    def __post_init__(self):
        self.k = ScalarFn(self.curve.curvature, d1=self.curve.curvature_slope)
        self.k1 = float(self.curve.phi1.deriv(0.0, 2))
        self.k2 = float(self.curve.phi2.deriv(0.0, 2))
        p1_3 = float(self.curve.phi1.deriv(0.0, 3))
        p2_3 = float(self.curve.phi2.deriv(0.0, 3))
        k0 = float(self.k(0.0))
        kl = float(self.k(1.0))
        dk = self.k2 - self.k1
        self.b1 = 0.5 * p1_3 - k0 * self.k1
        self.b2 = 0.5 * dk - k0**2 - 0.5 * self.k1**2
        self.b3 = 0.5 * p2_3 - kl * self.k2
        self.b4 = 0.5 * dk - kl**2 - 0.5 * self.k2**2

    # -- curve-side quantities ------------------------------------------
    def end_constants(self):
        """(k_end, b_t, b_theta) as pairs over the end fibers 0 and 1: (k1, k2), (b1, b3), (b2, b4)."""
        return (self.k1, self.k2), (self.b1, self.b3), (self.b2, self.b4)

    def varpi(self, theta):
        """Theta_tt(0, theta) = (k2 - k1) theta + k1."""
        theta = np.asarray(theta, dtype=float)
        return (self.k2 - self.k1) * theta + self.k1

    def varpi3(self, theta):
        """Theta_ttt(0, theta) from the third graph derivatives."""
        theta = np.asarray(theta, dtype=float)
        p1 = float(self.curve.phi1.deriv(0.0, 3))
        p2 = float(self.curve.phi2.deriv(0.0, 3))
        return (p2 - p1) * theta + p1

    def q1(self, theta):
        return self.curve.tangent(theta) * np.asarray(self.varpi(theta))[..., None]

    def q2(self, theta):
        tang = self.curve.tangent(theta)
        nprime = -self.k(theta)[..., None] * tang
        return tang * np.asarray(self.varpi3(theta))[..., None] + 3.0 * nprime * np.asarray(self.varpi(theta))[..., None]

    # -- chart map -------------------------------------------------------
    def _check_domain(self, t, theta):
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        pad = 1e-3
        if np.any(np.abs(t) > self.delta0 * (1 + pad)):
            raise ChartDomainError(f"|t| beyond delta0 = {self.delta0}")
        if np.any(theta < -self.sigma0 - pad) or np.any(theta > 1 + self.sigma0 + pad):
            raise ChartDomainError("theta outside the extended span")
        return t, theta

    def Theta(self, t, theta):
        p1 = self.curve.phi1(t)
        p2 = self.curve.phi2(t)
        return (p2 - p1) * theta + p1

    def Theta_partials(self, t, theta):
        """Returns Theta, Theta_t, Theta_theta, Theta_tt, Theta_ttheta."""
        p1 = self.curve.phi1(t)
        p2 = self.curve.phi2(t)
        d1 = self.curve.phi1.deriv(t, 1)
        d2 = self.curve.phi2.deriv(t, 1)
        s1 = self.curve.phi1.deriv(t, 2)
        s2 = self.curve.phi2.deriv(t, 2)
        th = (p2 - p1) * theta + p1
        th_t = (d2 - d1) * theta + d1
        th_th = p2 - p1
        th_tt = (s2 - s1) * theta + s1
        th_ttheta = d2 - d1
        return th, th_t, th_th, th_tt, th_ttheta

    def F(self, t, theta):
        t, theta = self._check_domain(t, theta)
        th = self.Theta(t, theta)
        return self.curve.gamma(th) + np.asarray(t)[..., None] * self.curve.normal(th)

    def F_jacobian(self, t, theta):
        th, th_t, th_th, _, _ = self.Theta_partials(t, theta)
        tang = self.curve.tangent(th)
        nrm = _rot90(tang)
        a = 1.0 - np.asarray(t) * self.curve.curvature(th)
        f_t = (a * th_t)[..., None] * tang + nrm
        f_th = (a * th_th)[..., None] * tang
        return f_t, f_th

    # -- exact metric and Laplace-Beltrami coefficients -------------------
    def metric(self, t, theta):
        t, theta = self._check_domain(t, theta)
        th, th_t, th_th, _, _ = self.Theta_partials(t, theta)
        a = 1.0 - t * self.curve.curvature(th)
        g11 = 1.0 + (a * th_t) ** 2
        g12 = a**2 * th_t * th_th
        g22 = (a * th_th) ** 2
        g = g22  # det(g_ij) collapses to (A Theta_theta)^2
        return {"g11": g11, "g12": g12, "g22": g22, "g": g, "sqrtg": a * th_th}

    def laplacian_coeffs(self, t, theta):
        """Exact coefficients (c_tt, c_ttheta, c_thth, c_t, c_theta) of Delta_y."""
        t, theta = self._check_domain(t, theta)
        th, th_t, th_th, th_tt, th_tth = self.Theta_partials(t, theta)
        k = self.curve.curvature(th)
        kp = self.k.deriv(th, 1)
        a = 1.0 - t * k
        a_t = -k - t * kp * th_t
        a_th = -t * kp * th_th
        c_tt = np.ones_like(a)
        c_tth = -2.0 * th_t / th_th
        c_thth = (1.0 + (a * th_t) ** 2) / (a * th_th) ** 2
        c_t = -k / a
        # c_theta = [d_t(sqrtg g^{12}) + d_theta(sqrtg g^{22})]/sqrtg
        sg12_t = -(a_t * th_t + a * th_tt)
        num = 1.0 + (a * th_t) ** 2
        den = a * th_th
        num_th = 2.0 * a * th_t * (a_th * th_t + a * th_tth)
        den_th = a_th * th_th  # Theta is linear in theta
        sg22_th = (num_th * den - num * den_th) / den**2
        c_th = (sg12_t + sg22_th) / (a * th_th)
        return c_tt, c_tth, c_thth, c_t, c_th

    def laplacian_check(self, t, theta, u, lap_u, h=2e-4):
        """Deviation of c-coefficients applied to u o F from (Delta u) o F.

        u maps plane points to values and lap_u is its analytic Laplacian;
        the chart-side partials are taken by high-order finite differences,
        so this is an oracle independent of the closed-form metric.
        """
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)

        def comp(tt, hh):
            return u(self.curve.gamma(self.Theta(tt, hh)) + np.asarray(tt)[..., None] * self.curve.normal(self.Theta(tt, hh)))

        u_t = fd_derivative(lambda s: comp(s, theta), t, order=1, h=h)
        u_th = fd_derivative(lambda s: comp(t, s), theta, order=1, h=h)
        u_tt = fd_derivative(lambda s: comp(s, theta), t, order=2, h=h)
        u_thth = fd_derivative(lambda s: comp(t, s), theta, order=2, h=h)
        u_tth = fd_derivative(lambda s: fd_derivative(lambda r: comp(r, s), t, order=1, h=h), theta, order=1, h=h)
        c_tt, c_tth, c_thth, c_t, c_th = self.laplacian_coeffs(t, theta)
        assembled = c_tt * u_tt + c_tth * u_tth + c_thth * u_thth + c_t * u_t + c_th * u_th
        return assembled - lap_u(self.F(t, theta))

    # -- boundary normal ---------------------------------------------------
    def normal_sigma(self, t, theta):
        """Exact (sigma1, sigma2) with nu = -(sigma1 F_t + sigma2 F_theta) at (t, theta) on an end fiber."""
        th, th_t, th_th, _, _ = self.Theta_partials(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
        a = 1.0 - np.asarray(t) * self.curve.curvature(th)
        root = np.sqrt(1.0 + (a * th_t) ** 2)
        sigma1 = -a * th_t / root
        sigma2 = root / (a * th_th)
        return sigma1, sigma2

    def normal_operator_coeffs(self, end, test_field=None, ts=None):
        """Endpoint curvature and quadratic normal-expansion constants.

        Returns (k_end, (b_t, b_theta), samples) where the expansion of the
        outward-normal operator at the end fiber reads
        (k_end t + b_t t^2) d_t - (1 + k(end) t - b_theta t^2) d_theta and
        samples tabulates its deviation from the exact normal derivative of a
        test field (remainder is cubic in t).
        """
        if end not in (0, 1):
            raise ValueError("end must be 0 or 1")
        k_end, bt, bth = (pair[end] for pair in self.end_constants())
        if ts is None:
            ts = np.linspace(0.02, 0.25, 9) * self.delta0
        if test_field is None:
            def test_field(y):
                u = np.sin(y[..., 0] + 0.3) * np.cos(y[..., 1] - 0.2) + y[..., 0] ** 2 * y[..., 1]
                du1 = np.cos(y[..., 0] + 0.3) * np.cos(y[..., 1] - 0.2) + 2.0 * y[..., 0] * y[..., 1]
                du2 = -np.sin(y[..., 0] + 0.3) * np.sin(y[..., 1] - 0.2) + y[..., 0] ** 2
                return u, np.stack([du1, du2], axis=-1)

        theta = np.full_like(ts, float(end))
        y = self.F(ts, theta)
        _, grad = test_field(y)
        f_t, f_th = self.F_jacobian(ts, theta)
        u_t = np.sum(grad * f_t, axis=-1)
        u_th = np.sum(grad * f_th, axis=-1)
        k_at_end = float(self.k(float(end)))
        expansion = (k_end * ts + bt * ts**2) * u_t - (1.0 + k_at_end * ts - bth * ts**2) * u_th
        s1, s2 = self.normal_sigma(ts, theta)
        exact = -(s1 * u_t + s2 * u_th)
        samples = np.column_stack([ts, expansion - exact])
        return k_end, (bt, bth), samples


def build_chart(curve, delta0):
    """Validate the curve, scan the Jacobian on 61 x 121 points, and return the chart."""
    sigma0 = curve.sigma0
    curve.validate()
    chart = DomainChart(curve=curve, delta0=float(delta0), sigma0=float(sigma0))
    ts = np.linspace(-delta0, delta0, 61)
    ths = np.linspace(-sigma0, 1 + sigma0, 121)
    tt, hh = np.meshgrid(ts, ths, indexing="ij")
    jac = chart.metric(tt, hh)["sqrtg"]
    if not np.all(jac > 0):  # catches NaN from graphs leaving their domain
        bad = ~(jac > 0)
        i, j = np.unravel_index(np.argmax(bad), jac.shape)
        raise ChartDomainError(
            f"chart degenerates at (t, theta) = ({tt[i, j]:.4f}, {hh[i, j]:.4f}); reduce delta0"
        )
    chart.jacobian_min = float(np.min(jac))
    return chart


# -- leading-order expansion targets (used by the order tests) -------------

def metric_leading(chart, t, theta):
    k = chart.k(theta)
    vp = chart.varpi(theta)
    vp3 = chart.varpi3(theta)
    dk = chart.k2 - chart.k1
    return {
        "g11": 1.0 + t**2 * vp**2,
        "g12": vp * t + 0.5 * (vp3 - 4.0 * k * vp) * t**2,
        "g22": 1.0 - 2.0 * k * t + (dk + k**2) * t**2,
        "g": 1.0 - 2.0 * k * t + (dk + k**2) * t**2,
        "sqrtg": 1.0 - k * t + 0.5 * dk * t**2,
    }


def drift_leading(chart, t, theta):
    k = chart.k(theta)
    vp = chart.varpi(theta)
    return {"c_t": -k - k**2 * t, "c_theta": -vp + 0.0 * t, "c_ttheta": -2.0 * vp * t}


# -- curve constructors -----------------------------------------------------

def flat_channel_curve(sigma0=0.1):
    """Straight unit segment; boundary graphs are the channel walls."""
    gamma = ScalarFn(
        lambda s: np.stack([np.zeros_like(np.asarray(s, dtype=float)), np.asarray(s, dtype=float)], axis=-1),
        d1=lambda s: np.stack([np.zeros_like(np.asarray(s, dtype=float)), np.ones_like(np.asarray(s, dtype=float))], axis=-1),
        d2=lambda s: np.zeros(np.shape(np.asarray(s, dtype=float)) + (2,)),
        d3=lambda s: np.zeros(np.shape(np.asarray(s, dtype=float)) + (2,)),
    )
    phi2 = ScalarFn(lambda t: np.ones_like(np.asarray(t, dtype=float)), d1=_zeros, d2=_zeros, d3=_zeros)
    return CurveSpec(gamma=gamma, phi1=ZERO_FN, phi2=phi2, sigma0=sigma0, name="flat-channel")


def disk_diameter_curve(sigma0=0.05):
    """Vertical diameter of the unit-diameter disk centered at (0, 1/2)."""
    base = flat_channel_curve(sigma0)

    def root(t):
        return np.sqrt(0.25 - np.asarray(t, dtype=float) ** 2)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return t / root(t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return 0.25 / root(t) ** 3

    def d3(t):
        t = np.asarray(t, dtype=float)
        return 0.75 * t / root(t) ** 5

    phi1 = ScalarFn(lambda t: 0.5 - root(t), d1=d1, d2=d2, d3=d3)
    phi2 = ScalarFn(lambda t: 0.5 + root(t), d1=lambda t: -d1(t), d2=lambda t: -d2(t), d3=lambda t: -d3(t))
    return CurveSpec(gamma=base.gamma, phi1=phi1, phi2=phi2, sigma0=sigma0, name="disk-diameter")


def bent_channel_curve(kappa=0.5 * np.pi, sigma0=0.1):
    """Unit circular arc of curvature kappa; straight radial channel walls."""
    walls = flat_channel_curve(sigma0)
    r0 = 1.0 / kappa

    def gamma(s):
        s = np.asarray(s, dtype=float)
        return np.stack([r0 * np.sin(s / r0), r0 * (1.0 - np.cos(s / r0))], axis=-1)

    def dgamma(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.cos(s / r0), np.sin(s / r0)], axis=-1)

    def d2gamma(s):
        s = np.asarray(s, dtype=float)
        return np.stack([-np.sin(s / r0), np.cos(s / r0)], axis=-1) / r0

    def d3gamma(s):
        s = np.asarray(s, dtype=float)
        return np.stack([-np.cos(s / r0), -np.sin(s / r0)], axis=-1) / r0**2

    return CurveSpec(
        gamma=ScalarFn(gamma, d1=dgamma, d2=d2gamma, d3=d3gamma),
        phi1=walls.phi1,
        phi2=walls.phi2,
        sigma0=sigma0,
        name="bent-channel",
    )


def generic_chart_curve(kappa=0.8, c1=(1.0, 0.5), c2=(-0.8, 0.3), sigma0=0.1):
    """Curved axis with asymmetric cubic boundary graphs (no hidden symmetry)."""
    base = bent_channel_curve(kappa, sigma0)

    def make_graph(offset, a, b):
        return ScalarFn(
            lambda t: offset + a * np.asarray(t, dtype=float) ** 2 + b * np.asarray(t, dtype=float) ** 3,
            d1=lambda t: 2 * a * np.asarray(t, dtype=float) + 3 * b * np.asarray(t, dtype=float) ** 2,
            d2=lambda t: 2 * a + 6 * b * np.asarray(t, dtype=float),
            d3=lambda t: 6 * b * np.ones_like(np.asarray(t, dtype=float)),
        )

    return CurveSpec(
        gamma=base.gamma,
        phi1=make_graph(0.0, *c1),
        phi2=make_graph(1.0, *c2),
        sigma0=sigma0,
        name="generic-chart",
    )


def export_chart_tables(chart, path):
    """Columnar text table of the metric and the operator coefficients on 41 x 41 chart points."""
    ts = np.linspace(-chart.delta0 * 0.95, chart.delta0 * 0.95, 41)
    ths = np.linspace(0.0, 1.0, 41)
    tt, hh = np.meshgrid(ts, ths, indexing="ij")
    met = chart.metric(tt, hh)
    c = chart.laplacian_coeffs(tt, hh)
    cols = [tt.ravel(), hh.ravel(), met["g11"].ravel(), met["g12"].ravel(), met["g22"].ravel(), met["sqrtg"].ravel()]
    cols += [ci.ravel() for ci in np.broadcast_arrays(*c)]
    header = "t theta g11 g12 g22 sqrtg c_tt c_ttheta c_thetatheta c_t c_theta"
    write_table(path, np.column_stack(cols), header=header)
