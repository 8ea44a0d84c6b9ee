import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_variation_ways, second_variation_pair

from curvelayers import geodesic as gd
from curvelayers import reduced as rd
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
    disp, resid, fd = first_variation_ways(flat_chart, off, h, hp)
    assert abs(disp - resid) < 1e-10
    assert abs(disp - fd) < 1e-6


def test_second_variation_pair(flat_chart, flat_field):
    pi = np.pi
    form, fd = second_variation_pair(
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
    assert rep.smallest >= 0.9 * 2.0 * flat_field.sigma
    rep0 = gd.nondegeneracy_test(flat_chart, unit_field)
    assert not rep0.nondegenerate
    assert rep0.smallest < 1e-4

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
    # and V_theta: the rotation kernel is found without finite-difference
    # noise in the coefficients
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
    assert rep.smallest < 1e-8


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


@settings(max_examples=30)
@given(a=st.floats(-20.0, 20.0))
# the two degenerate members: translations (a = 0) and the j = 1 mode at
# a = -pi^2/(2 sigma), sigma = 3/2
@example(a=0.0)
@example(a=-(np.pi**2) / 3.0)
def test_flat_channel_verdict_follows_the_exact_spectrum(flat_chart, a):
    # V = 1 + a t^2 on the straight channel: q1 = 0, hbar2 = -2 a sigma and
    # Neumann ends, so the location eigenvalues are 2 a sigma + (j pi)^2
    field = gd.build_potential(
        3.0,
        lambda t, th: 1.0 + a * np.asarray(t, dtype=float) ** 2,
        V_t=lambda t, th: 2.0 * a * np.asarray(t, dtype=float),
        V_tt=lambda t, th: 2.0 * a + 0.0 * np.asarray(t, dtype=float),
        V_theta=lambda t, th: 0.0 * np.asarray(t, dtype=float),
    )
    rep = gd.nondegeneracy_test(flat_chart, field)
    lam = 2.0 * a * field.sigma + (np.arange(20) * np.pi) ** 2
    assert np.max(np.abs(rep.lam_near_zero - np.sort(lam[np.argsort(np.abs(lam))[:4]]))) <= 1e-10
    assert rep.nondegenerate == (np.min(np.abs(lam)) >= rep.threshold)
    if a in (0.0, -(np.pi**2) / 3.0):
        assert not rep.nondegenerate and rep.smallest <= 1e-12


@pytest.mark.parametrize(
    "name, nondegenerate, threshold",
    [
        ("flat-channel", True, 4.247841760414e-07),
        ("bent-channel", True, 3.808446656535e-07),
        ("disk-diameter", False, 3.367959345918e-07),
        ("constant-V", False, 3.947841760422e-07),
    ],
)
def test_builtin_fixture_verdicts_and_thresholds(name, nondegenerate, threshold, monkeypatch):
    scn = scenarios.builtin_scenario(name)
    chart = scenarios.build_domain(scn)
    field = scenarios.build_field(scn, chart)
    eig, solved = rd.sla.eig, []
    monkeypatch.setattr(rd.sla, "eig", lambda a, *args, **kw: solved.append(a.shape) or eig(a, *args, **kw))
    rep = gd.nondegeneracy_test(chart, field)
    assert rep.nondegenerate == nondegenerate
    assert float(f"{rep.threshold:.12e}") == threshold
    # the reduced problem reads the same verdict, off the same eigensolve
    if nondegenerate:
        assert rd.ReducedProblem(chart, field, 3.0, j_max=60).basis is rd.location_basis(chart, field)
    else:
        with pytest.raises(rd.DegenerateOperatorError):
            rd.ReducedProblem(chart, field, 3.0, j_max=60)
    assert solved == [(191, 191)]
