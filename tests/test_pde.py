import numpy as np
import pytest

from curvelayers import ansatz as az
from curvelayers import pde
from curvelayers import reduced as rd
from conftest import seed_from
from curvelayers.profiles import ground_state


def test_mesh_invariants(flat_field, bent_chart, bent_field):
    t_nodes = pde.graded_nodes(0.1, 4.0)
    mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 33), flat_field)
    ones = np.ones(mesh.vol.size)
    assert np.abs((mesh.K - mesh.K.T)).max() == 0.0
    assert np.max(np.abs(mesh.laplacian(ones))) < 1e-8
    cmesh = pde.chart_mesh(bent_chart, np.linspace(-0.45, 0.45, 41), np.linspace(0, 1, 41), bent_field)
    assert np.abs((cmesh.K - cmesh.K.T)).max() < 1e-12
    assert np.max(np.abs(cmesh.laplacian(np.ones(cmesh.vol.size)))) < 1e-8


def test_chart_mesh_manufactured_convergence(bent_chart, unit_field):
    errs = []
    for n in (60, 120):
        t_nodes = np.linspace(-0.45, 0.45, n + 1)
        th_nodes = np.linspace(0.0, 1.0, n + 1)
        mesh = pde.chart_mesh(bent_chart, t_nodes, th_nodes, unit_field)
        tt, hh = np.meshgrid(t_nodes, th_nodes, indexing="ij")
        u = (np.cos(np.pi * tt / 0.9)) ** 2 * np.cos(np.pi * hh)
        c = bent_chart.laplacian_coeffs(tt, hh)
        du_t = -2 * np.cos(np.pi * tt / 0.9) * np.sin(np.pi * tt / 0.9) * (np.pi / 0.9) * np.cos(np.pi * hh)
        du_tt = -2 * (np.pi / 0.9) ** 2 * np.cos(2 * np.pi * tt / 0.9) * np.cos(np.pi * hh)
        du_th = -((np.cos(np.pi * tt / 0.9)) ** 2) * np.pi * np.sin(np.pi * hh)
        du_thth = -((np.cos(np.pi * tt / 0.9)) ** 2) * np.pi**2 * np.cos(np.pi * hh)
        du_tth = 2 * np.cos(np.pi * tt / 0.9) * np.sin(np.pi * tt / 0.9) * (np.pi / 0.9) * np.pi * np.sin(np.pi * hh)
        lap = c[0] * du_tt + c[1] * du_tth + c[2] * du_thth + c[3] * du_t + c[4] * du_th
        num = mesh.laplacian(u.ravel()).reshape(mesh.shape)
        errs.append(np.max(np.abs(num - lap)[2:-2, 2:-2]))
    assert errs[1] < 0.3 * errs[0]  # second order


def test_flat_newton_small(ctx3, flat_chart, flat_field):
    eps = 0.1
    t_nodes = pde.graded_nodes(eps, 4.0)
    mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 33), flat_field)
    b2 = az.assemble_ansatz(2, az.zero_state(), eps, ctx3, flat_chart, flat_field)
    trace = pde.newton_solve(mesh, 3.0, eps, seed_from(b2, mesh))
    assert trace.converged and trace.iterations <= 12
    assert trace.residuals[-1] < 1e-10
    assert np.min(trace.u) > 0.0
    assert trace.linesearch_failures == 0
    # residual history strictly decreasing once steps go undamped
    undamped = [i for i, lam in enumerate(trace.damping) if lam == 1.0]
    r = trace.residuals
    for i in undamped:
        assert r[i + 1] < r[i]
    met = pde.concentration_metrics(trace, flat_field, 3.0, eps)
    assert np.max(np.abs(met.amplitude_ratio - 1.0)) < 0.05
    assert np.max(np.abs(met.max_offsets)) <= 2.0 * met.grid_dt
    assert met.decay_rate >= 0.8


def test_exact_profile_two_steps(unit_field):
    eps = 0.05
    t_nodes = pde.graded_nodes(eps, 4.0, fine_per_layer=24)
    mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 17), unit_field)
    u0 = np.outer(ground_state(3.0, t_nodes / eps)[0], np.ones(17))
    trace = pde.newton_solve(mesh, 3.0, eps, u0.ravel())
    assert trace.converged and trace.iterations <= 2


def test_newton_counts_linesearch_failures(unit_field):
    eps = 0.1
    t_nodes = pde.graded_nodes(eps, 1.0)
    mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 5), unit_field)
    bump = lambda width: np.outer(ground_state(3.0, t_nodes / (width * eps))[0], np.ones(5)).ravel()
    # a sub-threshold bump decays towards u = 0, where the scaled residual
    # grows: the full step never passes the decrease test
    trace = pde.newton_solve(mesh, 3.0, eps, 0.3 * bump(1.0), max_iter=4, min_damping=1.0)
    assert trace.damping == [0.5] * 4
    assert trace.linesearch_failures == 4
    # a too-narrow bump: only the iterations that backtracked below
    # min_damping are counted
    trace = pde.newton_solve(mesh, 3.0, eps, bump(0.2), max_iter=6)
    failed = [lam < 1.0 / 64.0 for lam in trace.damping]
    assert 0 < sum(failed) < len(failed)
    assert trace.linesearch_failures == sum(failed)


def test_eps_refinement_consistency(ctx3, flat_chart, flat_field):
    ratios = []
    for eps, fpl in ((0.1, 12), (0.05, 24)):
        t_nodes = pde.graded_nodes(eps, 4.0, fine_per_layer=fpl)
        mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 25), flat_field)
        b2 = az.assemble_ansatz(2, az.zero_state(), eps, ctx3, flat_chart, flat_field)
        trace = pde.newton_solve(mesh, 3.0, eps, seed_from(b2, mesh))
        met = pde.concentration_metrics(trace, flat_field, 3.0, eps)
        ratios.append(float(np.mean(met.amplitude_ratio)))
    assert abs(ratios[1] - ratios[0]) < 0.02 * ratios[0]


def test_resonant_probe_flagged(ctx3, flat_chart, flat_field):
    # the ledger rejects the critical value; the symmetric channel does not
    # excite the resonant mode, so the solve itself still converges
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    led = rd.gap_check(eps5, 0.025, 3.0, 1.0)
    assert not led.passes
    t_nodes = pde.graded_nodes(eps5, 4.0)
    mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 25), flat_field)
    b2 = az.assemble_ansatz(2, az.zero_state(), eps5, ctx3, flat_chart, flat_field)
    trace = pde.newton_solve(mesh, 3.0, eps5, seed_from(b2, mesh))
    assert trace.converged  # recorded behavior at the probe


def test_bent_channel_tier_ladder(ctx3, bent_chart, bent_field, bent_problem):
    # with curvature and boundary layers active the seed quality improves
    # strictly with the tier in both residual norms
    eps = 0.03
    prob = rd.ReducedProblem(bent_chart, bent_field, 3.0, j_max=max(60, int(np.ceil(4 / eps))))
    t_nodes = pde.graded_nodes(eps, bent_chart.delta0 * 0.999, fine_per_layer=10, h_max=0.02)
    th_nodes = np.linspace(0.0, 1.0, 65)
    mesh = pde.chart_mesh(bent_chart, t_nodes, th_nodes, bent_field)
    sups, rmss = {}, {}
    for tier in (1, 2, 3):
        b = az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=prob)
        sups[tier], rmss[tier] = pde.initial_residual(mesh, 3.0, eps, seed_from(b, mesh))
    assert sups[1] > sups[2] > sups[3]
    assert rmss[1] > rmss[2] > rmss[3]


def test_metrics_refuses_unconverged(flat_field):
    mesh = pde.rectangle_mesh(np.linspace(-1, 1, 21), np.linspace(0, 1, 5), flat_field)
    trace = pde.newton_solve(mesh, 3.0, 0.5, np.full(mesh.vol.size, 0.1), max_iter=0)
    with pytest.raises(RuntimeError):
        pde.concentration_metrics(trace, flat_field, 3.0, 0.5)
