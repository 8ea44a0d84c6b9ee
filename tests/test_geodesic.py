import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curvelayers import geodesic as gd
from curvelayers import scenarios


def test_weighted_length_examples(flat_chart, unit_field, flat_field):
    assert abs(gd.weighted_length(flat_chart, unit_field, 0.0) - 1.0) < 1e-12
    assert abs(gd.weighted_length(flat_chart, unit_field, 0.3) - 1.0) < 1e-12
    j = gd.weighted_length(flat_chart, flat_field, 0.1)
    assert abs(j - 1.01**flat_field.sigma) < 1e-12
    with pytest.raises(ValueError):
        gd.weighted_length(flat_chart, flat_field, 5.0)


def test_arc_map(flat_field):
    assert abs(flat_field.ell - 1.0) < 1e-12
    assert abs(flat_field.arc(0.5) - 0.5) < 1e-12
    assert abs(flat_field.arc_inv(0.25) - 0.25) < 1e-10
    assert abs(flat_field.arc(0.1 * 7.0) / 0.1 - 7.0) < 1e-10
    assert abs(flat_field.arc(0.1 * (1.0 / 0.1)) / 0.1 - flat_field.ell / 0.1) < 1e-8


def test_alpha_beta_consistency(bent_field):
    th = np.linspace(0.0, 1.0, 33)
    V0 = bent_field.V0(th)
    assert np.max(np.abs(bent_field.beta(th) ** 2 - V0)) < 1e-10
    assert np.max(np.abs(bent_field.alpha(th) ** (bent_field.p - 1.0) - V0)) < 1e-10
    assert np.all(V0 > 0)


def test_dropped_potential_is_freed_without_the_cycle_collector():
    # alpha and beta are closures; one that held the field kept every dropped
    # field (and its arc splines) alive until a full collection
    gc.disable()
    try:
        field = gd.build_potential(3.0, lambda t, th: 1.0 + 0.2 * np.asarray(th, dtype=float) + 0.0 * np.asarray(t))
        beta, ref = field.beta, weakref.ref(field)
        del field
        assert ref() is None
        assert abs(float(beta(0.5)) - np.sqrt(1.1)) < 1e-15
    finally:
        gc.enable()


def test_stationarity_examples(flat_chart, flat_field):
    _, res, sup = gd.stationarity_residual(flat_chart, flat_field)
    assert sup < 1e-12
    off = gd.build_potential(3.0, lambda t, th: 1.0 + (np.asarray(t, dtype=float) - 0.1) ** 2)
    _, res, _ = gd.stationarity_residual(flat_chart, off)
    assert np.max(np.abs(res + 0.3)) < 1e-8


def test_first_variation_three_ways(flat_chart):
    off = gd.build_potential(3.0, lambda t, th: 1.0 + (np.asarray(t, dtype=float) - 0.1) ** 2)
    h = lambda th: np.sin(np.pi * np.asarray(th, dtype=float)) + 0.3
    hp = lambda th: np.pi * np.cos(np.pi * np.asarray(th, dtype=float))
    disp, resid, fd = gd.first_variation_ways(flat_chart, off, h, hp)
    assert abs(disp - resid) < 1e-10
    assert abs(disp - fd) < 1e-6


def test_second_variation_pair(flat_chart, flat_field):
    pi = np.pi
    form, fd = gd.second_variation_pair(
        flat_chart,
        flat_field,
        lambda th: np.cos(pi * np.asarray(th, dtype=float)),
        lambda th: -pi * np.sin(pi * np.asarray(th, dtype=float)),
        lambda th: -(pi**2) * np.cos(pi * np.asarray(th, dtype=float)),
    )
    expect = 0.5 * (pi**2 + 2.0 * flat_field.sigma)
    assert abs(form - expect) < 1e-9
    assert abs(fd - form) < 1e-4 * abs(form)


def test_nondegeneracy_verdicts(flat_chart, flat_field, unit_field, disk_chart):
    rep = gd.nondegeneracy_test(flat_chart, flat_field)
    assert rep.nondegenerate
    assert rep.smallest[-1] >= 0.9 * 2.0 * flat_field.sigma
    rep0 = gd.nondegeneracy_test(flat_chart, unit_field)
    assert not rep0.nondegenerate
    assert rep0.smallest[-1] < 1e-4

    # constant rescaling preserves the verdict (coefficients are V-relative)
    v4 = gd.build_potential(3.0, lambda t, th: 4.0 * (1.0 + np.asarray(t, dtype=float) ** 2))
    rep4 = gd.nondegeneracy_test(flat_chart, v4)
    assert rep4.nondegenerate == rep.nondegenerate

    # radial weight on the disk: rotations generate an exact Jacobi kernel
    def Vdisk(t, th):
        t = np.asarray(t, dtype=float)
        Theta = disk_chart.Theta(t, np.asarray(th, dtype=float))
        return 1.0 + t**2 + (Theta - 0.5) ** 2

    repd = gd.nondegeneracy_test(disk_chart, gd.build_potential(3.0, Vdisk))
    assert not repd.nondegenerate


def test_disk_with_analytic_derivatives_is_degenerate(disk_chart):
    # the radial weight of test_nondegeneracy_verdicts with exact V_t, V_tt
    # and V_theta: there is no finite-difference noise floor, so only the
    # roundoff floor eps ||M|| of the Jacobi matrix keeps the verdict right
    def partials(t, th):
        t, th = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(th, dtype=float))
        Th, Th_t, Th_th, Th_tt, _ = disk_chart.Theta_partials(t, th)
        return t, Th - 0.5, Th_t, Th_th, Th_tt

    def V(t, th):
        t, d, _, _, _ = partials(t, th)
        return 1.0 + t**2 + d**2

    def V_t(t, th):
        t, d, d_t, _, _ = partials(t, th)
        return 2.0 * t + 2.0 * d * d_t

    def V_tt(t, th):
        _, d, d_t, _, d_tt = partials(t, th)
        return 2.0 + 2.0 * d_t**2 + 2.0 * d * d_tt

    def V_theta(t, th):
        _, d, _, d_th, _ = partials(t, th)
        return 2.0 * d * d_th

    field = gd.build_potential(3.0, V, V_t=V_t, V_tt=V_tt, V_theta=V_theta)
    rep = gd.nondegeneracy_test(disk_chart, field)
    assert not rep.nondegenerate
    assert rep.smallest[-1] < rep.threshold < 1e-7


def test_rotation_kernel_is_exact(disk_chart):
    # f = theta - 1/2 solves the Jacobi problem for any radial weight
    def Vdisk(t, th):
        t = np.asarray(t, dtype=float)
        Theta = disk_chart.Theta(t, np.asarray(th, dtype=float))
        return 1.0 + t**2 + (Theta - 0.5) ** 2

    field = gd.build_potential(3.0, Vdisk)
    th = np.linspace(0.0, 1.0, 101)
    f = th - 0.5
    res = gd.hbar1(field, th) * 1.0 + gd.hbar2(disk_chart, field, th) * f  # f'' = 0
    assert np.max(np.abs(res)) < 1e-7
    assert abs(1.0 + disk_chart.k1 * (-0.5)) < 1e-12
    assert abs(1.0 + disk_chart.k2 * 0.5) < 1e-12


def test_stationarity_precondition(flat_chart):
    off = gd.build_potential(3.0, lambda t, th: 1.0 + (np.asarray(t, dtype=float) - 0.1) ** 2)
    with pytest.raises(gd.StationarityError):
        gd.nondegeneracy_test(flat_chart, off)


def test_bent_channel_is_stationary_nondegenerate(bent_chart, bent_field):
    _, _, sup = gd.stationarity_residual(bent_chart, bent_field)
    assert sup < 1e-10
    rep = gd.nondegeneracy_test(bent_chart, bent_field)
    assert rep.nondegenerate


def test_hbar_shared_with_reduced(flat_chart, flat_field, flat_problem):
    # the reduced operator's q2 is the same Jacobi coefficient pathway
    th = np.linspace(0.0, 1.0, 11)
    q2 = flat_problem.basis.q2(flat_problem.of_theta(th))
    expect = gd.hbar2(flat_chart, flat_field, th) * flat_field.ell**2 / flat_field.beta(th) ** 2
    assert np.max(np.abs(q2 - expect)) < 1e-10


@st.composite
def jacobi_coefficients(draw):
    n = draw(st.integers(5, 200))
    q1 = draw(arrays(np.float64, n, elements=st.floats(-20.0, 20.0)))
    q2 = draw(arrays(np.float64, n, elements=st.floats(-50.0, 50.0)))
    k1, k2 = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    return q1, q2, k1, k2, n


@settings(max_examples=60)
@given(jacobi_coefficients())
# f'' + c f with Neumann ends has eigenvalues c and c - pi^2: sigma_2 / sigma_1 = 1.014
@example((np.zeros(100), np.full(100, 4.9626), 0.0, 0.0, 100))
def test_tridiagonal_sigma_min_matches_dense(coeffs):
    lower, diag, upper = gd.jacobi_matrix(*coeffs)
    # dense SVD as the oracle
    sv = sla.svdvals(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1))
    tol = max(1e-8 * sv[-1], 1e3 * np.finfo(float).eps * sv[0])
    assert abs(gd.smallest_singular_value(lower, diag, upper) - sv[-1]) <= tol


@pytest.mark.parametrize("n", [5, 401, 1601])
def test_singular_neumann_matrix_gives_zero(n):
    # constant coefficients with Neumann ends: constants are an exact kernel
    m = gd.jacobi_matrix(np.zeros(n), np.zeros(n), 0.0, 0.0, n)
    assert gd.smallest_singular_value(*m) == 0.0


@pytest.mark.parametrize(
    "name, nondegenerate, threshold",
    [
        ("flat-channel", True, 4.163336342344e-08),
        ("bent-channel", True, 4.886700511811e-08),
        ("disk-diameter", False, 5.204170427930e-08),
        ("constant-V", False, 4.163336342344e-08),
    ],
)
def test_builtin_fixture_verdicts_and_thresholds(name, nondegenerate, threshold):
    scn = scenarios.builtin_scenario(name)
    chart = scenarios.build_domain(scn)
    rep = gd.nondegeneracy_test(chart, scenarios.build_field(scn, chart))
    assert rep.nondegenerate == nondegenerate
    assert float(f"{rep.threshold:.12e}") == threshold
