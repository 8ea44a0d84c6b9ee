import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelayers import geometry as ge
from curvelayers.util import fd_derivative, loglog_slope


def slope_or_inf(ts, rem, floor):
    rem = np.abs(np.asarray(rem))
    if np.max(rem) <= floor:
        return np.inf
    return loglog_slope(ts, rem, floor=0.0)[0]


def test_flat_channel_identity(flat_chart):
    t = np.linspace(-3.5, 3.5, 9)
    th = np.linspace(-0.05, 1.05, 9)
    tt, hh = np.meshgrid(t, th, indexing="ij")
    met = flat_chart.metric(tt, hh)
    assert np.max(np.abs(met["g11"] - 1.0)) == 0.0
    assert np.max(np.abs(met["g12"])) == 0.0
    assert np.max(np.abs(met["g22"] - 1.0)) == 0.0
    coeffs = flat_chart.laplacian_coeffs(tt, hh)
    for c, v in zip(coeffs, (1.0, 0.0, 1.0, 0.0, 0.0)):
        assert np.max(np.abs(c - v)) == 0.0
    assert flat_chart.k1 == flat_chart.k2 == 0.0
    assert flat_chart.b1 == flat_chart.b2 == flat_chart.b3 == flat_chart.b4 == 0.0
    # reflection across the curve: F(t, theta) -> mirrored F(-t, theta)
    y = flat_chart.F(np.array([0.7]), np.array([0.3]))[0]
    ym = flat_chart.F(np.array([-0.7]), np.array([0.3]))[0]
    assert np.allclose([-y[0], y[1]], ym, atol=1e-15)


def test_theta_partial_invariants(disk_chart):
    th = np.linspace(0.05, 0.95, 7)
    zero = np.zeros_like(th)
    Th, Th_t, Th_th, Th_tt, Th_tth = disk_chart.Theta_partials(zero, th)
    assert np.max(np.abs(Th - th)) < 1e-14
    assert np.max(np.abs(Th_t)) < 1e-14
    assert np.max(np.abs(Th_th - 1.0)) < 1e-14
    assert np.max(np.abs(Th_tt - disk_chart.varpi(th))) < 1e-12
    # Theta_ttheta vanishes on the curve (orthogonal intersection); the
    # (k2 - k1) constant lives one t-derivative higher
    assert np.max(np.abs(Th_tth)) < 1e-14
    h = 1e-4
    _, _, _, Th_tt_p, _ = disk_chart.Theta_partials(zero + h, th)
    _, _, _, Th_tt_m, _ = disk_chart.Theta_partials(zero - h, th)
    ttt_heta = fd_derivative(lambda s: disk_chart.Theta_partials(np.full_like(s, 1e-6), s)[3], th, order=1, h=1e-4)
    assert np.max(np.abs(ttt_heta - (disk_chart.k2 - disk_chart.k1))) < 1e-6


def test_disk_endpoint_curvatures(disk_chart):
    assert abs(disk_chart.k1 - 2.0) < 1e-12
    assert abs(disk_chart.k2 + 2.0) < 1e-12
    # independent finite-difference oracle on the physical boundary graph
    def graph(t):
        return 0.5 - np.sqrt(0.25 - np.asarray(t, dtype=float) ** 2)

    k1_fd = fd_derivative(graph, np.array([0.0]), order=2, h=1e-3)[0]
    assert abs(k1_fd - disk_chart.k1) < 1e-8
    # normal-expansion constants from the third-derivative formulas
    assert abs(disk_chart.b1) < 1e-12
    assert abs(disk_chart.b2 + 4.0) < 1e-12
    assert abs(disk_chart.b4 + 4.0) < 1e-12


def test_frenet_and_chart_base(disk_chart):
    th = np.linspace(0.1, 0.9, 5)
    curve = disk_chart.curve
    # F(0, theta) = gamma(theta), dF/dt(0, theta) = n(theta)
    assert np.max(np.abs(disk_chart.F(np.zeros_like(th), th) - curve.gamma(th))) < 1e-14
    f_t, _ = disk_chart.F_jacobian(np.zeros_like(th), th)
    assert np.max(np.abs(f_t - curve.normal(th))) < 1e-14
    # q1, q2 orthogonal to the normal
    n = curve.normal(th)
    assert np.max(np.abs(np.sum(disk_chart.q1(th) * n, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(disk_chart.q2(th) * n, axis=-1))) < 1e-12


def test_q1_derivative_closed_form():
    chart = ge.build_chart(ge.generic_chart_curve(), delta0=0.3)
    curve = chart.curve
    q1p = fd_derivative(chart.q1, np.array([0.0]), order=1, h=1e-5)[0]
    expect = curve.gamma.deriv(0.0, 2) * chart.k1 + curve.tangent(0.0) * (chart.k2 - chart.k1)
    assert np.max(np.abs(q1p - expect)) < 1e-6
    q1p1 = fd_derivative(chart.q1, np.array([1.0]), order=1, h=1e-5)[0]
    expect1 = curve.gamma.deriv(1.0, 2) * chart.k2 + curve.tangent(1.0) * (chart.k2 - chart.k1)
    assert np.max(np.abs(q1p1 - expect1)) < 1e-6


@pytest.mark.parametrize("chart_name", ["disk", "generic"])
def test_metric_expansion_orders(chart_name, disk_chart):
    chart = disk_chart if chart_name == "disk" else ge.build_chart(ge.generic_chart_curve(), delta0=0.3)
    ts = np.linspace(0.02, 0.2, 8) * chart.delta0
    th = 0.37
    rows = {k: [] for k in ("g11", "g12", "g22", "g", "sqrtg")}
    scale = 1.0
    for t in ts:
        met = chart.metric(np.array([t]), np.array([th]))
        lead = ge.metric_leading(chart, np.array([t]), np.array([th]))
        for k in rows:
            rows[k].append(abs(met[k][0] - lead[k][0]))
    targets = {"g11": 3.0, "g12": 3.0, "g22": 3.0, "g": 3.0, "sqrtg": 3.0}
    for k, target in targets.items():
        s = slope_or_inf(ts, rows[k], floor=1e-13)
        assert s >= target - 0.3, (chart_name, k, s)


@pytest.mark.parametrize("chart_name", ["disk", "generic"])
def test_drift_coefficient_orders(chart_name, disk_chart):
    chart = disk_chart if chart_name == "disk" else ge.build_chart(ge.generic_chart_curve(), delta0=0.3)
    ts = np.linspace(0.02, 0.2, 8) * chart.delta0
    th = 0.41
    rem = {"c_t": [], "c_theta": [], "c_ttheta": []}
    for t in ts:
        c_tt, c_tth, c_thth, c_t, c_th = chart.laplacian_coeffs(np.array([t]), np.array([th]))
        lead = ge.drift_leading(chart, np.array([t]), np.array([th]))
        rem["c_t"].append(abs(c_t[0] - lead["c_t"][0]))
        rem["c_theta"].append(abs(c_th[0] - lead["c_theta"][0]))
        rem["c_ttheta"].append(abs(c_tth[0] - lead["c_ttheta"][0]))
    for key, target in (("c_t", 2.0), ("c_theta", 1.0), ("c_ttheta", 2.0)):
        s = slope_or_inf(ts, rem[key], floor=1e-13)
        assert s >= target - 0.3, (chart_name, key, s)


def test_laplacian_oracle(disk_chart):
    def u(y):
        return np.sin(1.3 * y[..., 0]) * np.cos(0.7 * y[..., 1]) + y[..., 0] ** 2 * y[..., 1]

    def lap(y):
        return -(1.3**2 + 0.7**2) * np.sin(1.3 * y[..., 0]) * np.cos(0.7 * y[..., 1]) + 2.0 * y[..., 1]

    tt, hh = np.meshgrid(np.linspace(-0.3, 0.3, 6), np.linspace(0.1, 0.9, 6), indexing="ij")
    dev = disk_chart.laplacian_check(tt, hh, u, lap)
    assert np.max(np.abs(dev)) < 5e-7
    # constants are annihilated
    dev0 = disk_chart.laplacian_check(tt, hh, lambda y: np.ones(y.shape[:-1]), lambda y: np.zeros(y.shape[:-1]))
    assert np.max(np.abs(dev0)) < 5e-8


@pytest.mark.parametrize("end", [0, 1])
def test_normal_expansion_remainder(end, disk_chart):
    for chart in (disk_chart, ge.build_chart(ge.generic_chart_curve(), delta0=0.3)):
        k_end, bpair, samples = chart.normal_operator_coeffs(end)
        s = slope_or_inf(samples[:, 0], samples[:, 1], floor=1e-14)
        assert s >= 2.7, (chart.curve.name, end, s)
    # constants have zero normal derivative under the expansion
    k_end, (bt, bth), _ = disk_chart.normal_operator_coeffs(0)
    ts = np.linspace(0.01, 0.2, 5)
    expansion = (k_end * ts + bt * ts**2) * 0.0 - (1.0 + 0.0 * ts - bth * ts**2) * 0.0
    assert np.max(np.abs(expansion)) == 0.0


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_jacobian_degeneracy_detection():
    with pytest.raises(ge.ChartDomainError):
        ge.build_chart(ge.disk_diameter_curve(), delta0=0.51)
    chart = ge.build_chart(ge.disk_diameter_curve(), delta0=0.35)
    assert chart.jacobian_min > 0
    with pytest.raises(ge.ChartDomainError):
        chart.F(np.array([0.5]), np.array([0.5]))


def _catenary_curve(analytic):
    """The catenary y = cosh x by arclength, gamma(s) = (asinh s, sqrt(1 + s^2)), between straight walls.

    Its curvature k = 1/(1 + s^2) is not constant, so k' = -2 s/(1 + s^2)^2
    enters the Laplace-Beltrami coefficients.
    """

    def gamma(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.arcsinh(s), np.sqrt(1.0 + s**2)], axis=-1)

    def d1(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.ones_like(s), s], axis=-1) / np.sqrt(1.0 + s**2)[..., None]

    def d2(s):
        s = np.asarray(s, dtype=float)
        return np.stack([-s, np.ones_like(s)], axis=-1) / ((1.0 + s**2) ** 1.5)[..., None]

    def d3(s):
        s = np.asarray(s, dtype=float)
        return np.stack([2.0 * s**2 - 1.0, -3.0 * s], axis=-1) / ((1.0 + s**2) ** 2.5)[..., None]

    walls = ge.flat_channel_curve()
    fn = ge.ScalarFn(gamma, d1=d1, d2=d2, d3=d3) if analytic else ge.ScalarFn(gamma)
    return ge.CurveSpec(gamma=fn, phi1=walls.phi1, phi2=walls.phi2, name="catenary")


@pytest.mark.parametrize("analytic, tol", [(True, 1e-12), (False, 1e-7)])
def test_curvature_slope_on_the_catenary(analytic, tol):
    # every builtin curve has constant curvature, so only here is k' seen;
    # without derivatives gamma''' is a fourth-order difference
    chart = ge.build_chart(_catenary_curve(analytic), delta0=0.3)
    s = np.linspace(-0.1, 1.1, 49)
    assert np.max(np.abs(chart.k(s) - 1.0 / (1.0 + s**2))) < tol
    assert np.max(np.abs(chart.k.deriv(s, 1) + 2.0 * s / (1.0 + s**2) ** 2)) < tol


def test_laplacian_oracle_on_the_catenary():
    # the oracle differences u o F twice, so it needs the analytic curve: on
    # the derivative-free one it differences the roundoff of the normal
    chart = ge.build_chart(_catenary_curve(True), delta0=0.3)

    def u(y):
        return np.sin(1.3 * y[..., 0]) * np.cos(0.7 * y[..., 1]) + y[..., 0] ** 2 * y[..., 1]

    def lap(y):
        return -(1.3**2 + 0.7**2) * np.sin(1.3 * y[..., 0]) * np.cos(0.7 * y[..., 1]) + 2.0 * y[..., 1]

    tt, hh = np.meshgrid(np.linspace(-0.25, 0.25, 6), np.linspace(0.0, 1.0, 6), indexing="ij")
    assert np.max(np.abs(chart.laplacian_check(tt, hh, u, lap))) < 5e-7


def test_curve_derivative_order_is_checked():
    gamma = ge.bent_channel_curve().gamma
    assert gamma.deriv(0.3, 3).shape == (2,)
    for order in (0, 4):
        with pytest.raises(ValueError, match="order"):
            gamma.deriv(0.3, order)


def test_curve_validation_rejects_bad_graphs():
    base = ge.flat_channel_curve()
    bad = ge.CurveSpec(
        gamma=base.gamma,
        phi1=ge.ScalarFn(lambda t: 0.3 * np.asarray(t, dtype=float)),
        phi2=base.phi2,
        sigma0=0.1,
    )
    with pytest.raises(ValueError):
        bad.validate()


_coef = st.floats(-1.0, 1.0)


@settings(max_examples=25)
@given(kappa=st.floats(0.2, 1.2), c1=st.tuples(_coef, _coef), c2=st.tuples(_coef, _coef))
def test_metric_matches_the_jacobian_of_the_chart_map(kappa, c1, c2):
    """The closed-form metric is J^T J for the finite-difference Jacobian J of F."""
    chart = ge.build_chart(ge.generic_chart_curve(kappa, c1, c2), delta0=0.2)
    tt, hh = np.meshgrid(np.linspace(-0.15, 0.15, 5), np.linspace(-0.05, 1.05, 7), indexing="ij")
    f_t = fd_derivative(lambda s: chart.F(s, hh), tt, order=1, h=1e-4)
    f_th = fd_derivative(lambda s: chart.F(tt, s), hh, order=1, h=1e-4)
    met = chart.metric(tt, hh)
    jac = {
        "g11": np.sum(f_t * f_t, axis=-1),
        "g12": np.sum(f_t * f_th, axis=-1),
        "g22": np.sum(f_th * f_th, axis=-1),
        "sqrtg": np.abs(f_t[..., 0] * f_th[..., 1] - f_t[..., 1] * f_th[..., 0]),
    }
    for key, value in jac.items():
        assert np.max(np.abs(met[key] - value)) < 1e-9, key
