import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelayers import ansatz as az
from curvelayers import geodesic, pde, scenarios
from curvelayers import reduced as rd
from curvelayers.profiles import ground_state
from oracles import scipy_seed_columns


def _tier2_seed(ctx, name, eps):
    """Mesh and tier-2 seed of a builtin scenario, built as the pde stage builds them."""
    scn = scenarios.builtin_scenario(name)
    chart = scenarios.build_domain(scn)
    field = scenarios.build_field(scn, chart)
    t_nodes = pde.graded_nodes(eps, chart.delta0)
    th_nodes = np.linspace(0.0, 1.0, 49)
    mesh = pde.chart_mesh(chart, t_nodes, th_nodes, field)
    bundle = az.assemble_ansatz(2, az.zero_state(), eps, ctx, chart, field, h_from_state=True)
    return mesh, bundle.W_on_mesh(mesh)


def _coo_stiffness(chart, t_nodes, th_nodes):
    """Reference chart stiffness: one COO entry per face flux and node pair."""
    nt, nh = t_nodes.size, th_nodes.size
    ht, hh = np.diff(t_nodes), np.diff(th_nodes)
    tf, hf = np.meshgrid(0.5 * (t_nodes[:-1] + t_nodes[1:]), th_nodes, indexing="ij")
    m = chart.metric(tf, hf)
    a_t = m["sqrtg"] * (m["g22"] / m["g"])
    tf, hf = np.meshgrid(t_nodes, 0.5 * (th_nodes[:-1] + th_nodes[1:]), indexing="ij")
    m = chart.metric(tf, hf)
    a_h = m["sqrtg"] * (m["g11"] / m["g"])
    th_cell = np.zeros(nh)
    th_cell[:-1] += hh / 2.0
    th_cell[1:] += hh / 2.0
    t_cell = np.zeros(nt)
    t_cell[:-1] += ht / 2.0
    t_cell[1:] += ht / 2.0
    rows, cols, vals = [], [], []
    coef_t = a_t * th_cell[None, :] / ht[:, None]
    for i in range(nt - 1):
        k, l = i * nh + np.arange(nh), (i + 1) * nh + np.arange(nh)
        rows.extend(np.concatenate([k, l, k, l]))
        cols.extend(np.concatenate([l, k, k, l]))
        vals.extend(np.concatenate([coef_t[i], coef_t[i], -coef_t[i], -coef_t[i]]))
    coef_h = a_h * t_cell[:, None] / hh[None, :]
    for j in range(nh - 1):
        k, l = np.arange(nt) * nh + j, np.arange(nt) * nh + j + 1
        rows.extend(np.concatenate([k, l, k, l]))
        cols.extend(np.concatenate([l, k, k, l]))
        vals.extend(np.concatenate([coef_h[:, j], coef_h[:, j], -coef_h[:, j], -coef_h[:, j]]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(nt * nh, nt * nh))


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
    trace = pde.newton_solve(mesh, 3.0, eps, b2.W_on_mesh(mesh))
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
    # grows: the full step fails the decrease test and the solve stops at the seed
    u0 = 0.3 * bump(1.0)
    trace = pde.newton_solve(mesh, 3.0, eps, u0, max_iter=4, min_damping=1.0)
    assert not trace.converged
    assert trace.linesearch_failed_at == 0 and trace.linesearch_failures == 1
    assert trace.damping == [] and trace.iterations == 0
    assert np.array_equal(trace.u, u0) and len(trace.residuals) == 1
    # a narrow, low bump: two full steps pass, the third finds no decrease down
    # to min_damping; the solve stops at the iterate that max_iter = 2 reaches
    trace = pde.newton_solve(mesh, 3.0, eps, 0.5 * bump(0.4))
    assert not trace.converged
    assert trace.linesearch_failed_at == 2 and trace.damping == [1.0, 1.0]
    two = pde.newton_solve(mesh, 3.0, eps, 0.5 * bump(0.4), max_iter=2)
    assert two.linesearch_failed_at is None and two.linesearch_failures == 0
    assert np.array_equal(trace.u, two.u) and trace.residuals == two.residuals


def test_eps_refinement_consistency(ctx3, flat_chart, flat_field):
    ratios = []
    for eps, fpl in ((0.1, 12), (0.05, 24)):
        t_nodes = pde.graded_nodes(eps, 4.0, fine_per_layer=fpl)
        mesh = pde.rectangle_mesh(t_nodes, np.linspace(0, 1, 25), flat_field)
        b2 = az.assemble_ansatz(2, az.zero_state(), eps, ctx3, flat_chart, flat_field)
        trace = pde.newton_solve(mesh, 3.0, eps, b2.W_on_mesh(mesh))
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
    trace = pde.newton_solve(mesh, 3.0, eps5, b2.W_on_mesh(mesh))
    assert trace.converged  # recorded behavior at the probe


def test_bent_channel_tier_ladder(ctx3, bent_chart, bent_field, bent_problem):
    # with curvature and boundary layers active the seed quality improves
    # strictly with the tier in both residual norms
    eps = 0.03
    prob = rd.ReducedProblem(bent_chart, bent_field, 3.0, j_max=rd.default_j_max(eps))
    t_nodes = pde.graded_nodes(eps, bent_chart.delta0 * 0.999, fine_per_layer=10, h_max=0.02)
    th_nodes = np.linspace(0.0, 1.0, 65)
    mesh = pde.chart_mesh(bent_chart, t_nodes, th_nodes, bent_field)
    sups, rmss = {}, {}
    for tier in (1, 2, 3):
        b = az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=prob)
        sups[tier], rmss[tier] = pde.initial_residual(mesh, 3.0, eps, b.W_on_mesh(mesh))
    assert sups[1] > sups[2] > sups[3]
    assert rmss[1] > rmss[2] > rmss[3]


def test_metrics_refuses_unconverged(flat_field):
    mesh = pde.rectangle_mesh(np.linspace(-1, 1, 21), np.linspace(0, 1, 5), flat_field)
    trace = pde.newton_solve(mesh, 3.0, 0.5, np.full(mesh.vol.size, 0.1), max_iter=0)
    with pytest.raises(RuntimeError):
        pde.concentration_metrics(trace, flat_field, 3.0, 0.5)


def test_graded_nodes_stay_inside_the_channel(bent_chart, bent_field):
    # 12 eps > delta0: the core is shrunk onto the channel, not rounded past it
    for eps in (0.042, 0.045, 0.05):
        t_nodes = pde.graded_nodes(eps, bent_chart.delta0)
        assert t_nodes[0] == -bent_chart.delta0 and t_nodes[-1] == bent_chart.delta0
        assert np.all(np.diff(t_nodes) > 0.0)
        assert np.max(np.diff(t_nodes)) <= (1 + 1e-12) * eps / 12
        pde.chart_mesh(bent_chart, t_nodes, np.linspace(0.0, 1.0, 9), bent_field)


@pytest.mark.parametrize(
    "eps, half_width, kw",
    [(0.04, 0.5, {}), (0.03, 0.5, {}), (0.02, 0.5, {}), (0.05, 4.0, {}), (0.1, 4.0, {}),
     (0.05, 4.0, {"fine_per_layer": 24}), (0.1, 1.0, {}), (0.03, 0.4995, {"fine_per_layer": 10, "h_max": 0.02})],
)
def test_graded_nodes_unchanged_where_they_end_at_the_edge(eps, half_width, kw):
    fpl, ratio, h_max = kw.get("fine_per_layer", 12), 1.15, kw.get("h_max", 0.1)
    h_f = eps / fpl
    n_core = int(np.ceil(min(max(12.0 * eps, 0.4), half_width) / h_f))
    right = list(np.linspace(0.0, n_core * h_f, n_core + 1))
    h = h_f
    while right[-1] < half_width:
        h = min(h * ratio, h_max)
        right.append(min(right[-1] + h, half_width))
    assert right[-1] == half_width
    reference = np.concatenate([-np.asarray(right)[::-1][:-1], right])
    assert np.array_equal(pde.graded_nodes(eps, half_width, **kw), reference)


def test_rectangle_mesh_is_the_flat_chart_mesh(flat_chart, flat_field):
    t_nodes = pde.graded_nodes(0.05, 4.0)
    th_nodes = np.linspace(0.0, 1.0, 49)
    rect = pde.rectangle_mesh(t_nodes, th_nodes, flat_field)
    flat = pde.chart_mesh(flat_chart, t_nodes, th_nodes, flat_field)
    bound = 8 * np.finfo(float).eps * abs(flat.K).max()
    assert abs(rect.K - flat.K).max() <= bound
    assert np.array_equal(rect.vol, flat.vol) and np.array_equal(rect.V, flat.V)
    # the Kronecker form of the 1D flux stiffnesses, weighted by the cell volumes
    K1, vol = [], []
    for n in (t_nodes, th_nodes):
        c = 1.0 / np.diff(n)
        K1.append(sp.diags([c, -np.convolve(c, [1.0, 1.0]), c], [-1, 0, 1]))
        vol.append(np.zeros(n.size))
        vol[-1][:-1] += np.diff(n) / 2.0
        vol[-1][1:] += np.diff(n) / 2.0
    assert abs(rect.K - (sp.kron(K1[0], sp.diags(vol[1])) + sp.kron(sp.diags(vol[0]), K1[1]))).max() <= bound


def test_seed_on_mesh_is_the_column_loop(ctx3, bent_chart, bent_field, bent_problem):
    eps = 0.04
    t_nodes = pde.graded_nodes(eps, bent_chart.delta0)
    mesh = pde.chart_mesh(bent_chart, t_nodes, np.linspace(0.0, 1.0, 17), bent_field)
    b2 = az.assemble_ansatz(2, az.zero_state(), eps, ctx3, bent_chart, bent_field, h_from_state=True)
    b3 = az.assemble_ansatz(3, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    columns = [np.column_stack([b.W_eval(mesh.t_nodes, thv) for thv in mesh.th_nodes]).ravel() for b in (b2, b3)]
    # the profile layers are formed entry by entry: bit for bit the column loop
    assert np.array_equal(b2.W_on_mesh(mesh), columns[0])
    # phi22 is synthesized at all sections in one product, not one per column
    # (BLAS picks its kernel by the width): the loop to roundoff
    assert np.max(np.abs(b3.W_on_mesh(mesh) - columns[1])) <= 1e-15 * np.max(np.abs(columns[1]))


@pytest.mark.parametrize("name, eps", [("bent-channel", 0.04), ("bent-channel", 0.03), ("bent-channel", 0.02), ("flat-channel", 0.05)])
def test_seed_is_scipys_quintic_on_the_newton_meshes(ctx3, name, eps):
    # the meshes of the benchmark's newton cases; the in-house quintic gives SciPy's bits
    scn = scenarios.builtin_scenario(name)
    assert scn.p == ctx3.p
    chart = scenarios.build_domain(scn)
    field = scenarios.build_field(scn, chart)
    t_nodes = pde.graded_nodes(eps, chart.delta0, fine_per_layer=12)
    th_nodes = np.linspace(0.0, 1.0, 49)
    if scn.domain["kind"] == "flat_channel":
        mesh = pde.rectangle_mesh(t_nodes, th_nodes, field)
    else:
        mesh = pde.chart_mesh(chart, t_nodes, th_nodes, field)
    for tier in (1, 2, 3, 5):
        b = az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, chart, field, h_from_state=True)
        assert b.W_on_mesh(mesh).tobytes() == scipy_seed_columns(b, t_nodes, th_nodes).ravel().tobytes()
        for j in range(th_nodes.size):
            want = scipy_seed_columns(b, t_nodes, th_nodes[j : j + 1])[:, 0]
            assert b.W_eval(t_nodes, th_nodes[j]).tobytes() == want.tobytes()


def test_chart_mesh_matches_coo_reference(bent_chart, bent_field):
    t_nodes = pde.graded_nodes(0.04, bent_chart.delta0)
    th_nodes = np.linspace(0.0, 1.0, 49)
    K = pde.chart_mesh(bent_chart, t_nodes, th_nodes, bent_field).K
    ref = _coo_stiffness(bent_chart, t_nodes, th_nodes)
    assert abs(K - ref).max() <= 8 * np.finfo(float).eps * abs(ref).max()


def _node_set(lo, hi):
    gaps = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12)
    return gaps.map(lambda g: lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(g)]) / np.sum(g))


@settings(max_examples=25)
@given(_node_set(-0.45, 0.45), _node_set(0.0, 1.0))
def test_chart_stiffness_symmetric_with_zero_row_sums(bent_chart, bent_field, t_nodes, th_nodes):
    K = pde.chart_mesh(bent_chart, t_nodes, th_nodes, bent_field).K
    assert abs(K - K.T).max() == 0.0
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-12 * abs(K).max()


def test_banded_step_matches_sparse_reference(ctx3):
    eps = 0.04
    mesh, u0 = _tier2_seed(ctx3, "bent-channel", eps)
    res = eps**2 * mesh.laplacian(u0) - mesh.V * u0 + u0**3
    J = (sp.diags(1.0 / mesh.vol) @ mesh.K) * eps**2 - sp.diags(mesh.V) + sp.diags(3.0 * u0**2)
    d_ref = spla.spsolve(J.tocsc(), -res)
    trace = pde.newton_solve(mesh, 3.0, eps, u0, max_iter=1)
    assert trace.damping == [1.0]
    assert np.max(np.abs((trace.u - u0) - d_ref)) <= 1e-10 * np.max(np.abs(d_ref))


@pytest.mark.parametrize("name, eps, damping", [("bent-channel", 0.03, [1.0] * 4), ("flat-channel", 0.05, [1.0] * 3)])
def test_converged_newton_damping(ctx3, monkeypatch, name, eps, damping):
    mesh, u0 = _tier2_seed(ctx3, name, eps)
    calls = []
    residual = pde._residual
    monkeypatch.setattr(pde, "_residual", lambda *args: calls.append(1) or residual(*args))
    trace = pde.newton_solve(mesh, 3.0, eps, u0)
    assert trace.converged and trace.singular_at is None
    assert trace.damping == damping
    # the seed, then one trial per step: each accepted trial is the next iterate
    assert len(calls) == 1 + len(damping)


def test_singular_jacobian_is_reported():
    # eps = 0 leaves J = diag(3 u^2 - 3), exactly singular where u = 1
    field = geodesic.build_potential(3.0, lambda t, th: 3.0 + 0.0 * np.asarray(t) * np.asarray(th))
    mesh = pde.rectangle_mesh(np.linspace(-1, 1, 21), np.linspace(0, 1, 5), field)
    u0 = np.full(mesh.vol.size, 2.0)
    u0[52] = 1.0
    trace = pde.newton_solve(mesh, 3.0, 0.0, u0)
    assert not trace.converged
    assert trace.singular_at == (0, 52)
    assert trace.iterations == 0 and np.all(np.isfinite(trace.residuals))


def test_newton_refuses_a_stiffness_wider_than_the_band(unit_field):
    mesh = pde.rectangle_mesh(np.linspace(-1, 1, 21), np.linspace(0, 1, 5), unit_field)
    n, nh = mesh.vol.size, mesh.shape[1]
    mesh.K = mesh.K + sp.eye(n, k=nh + 1)
    with pytest.raises(ValueError):
        pde.newton_solve(mesh, 3.0, 0.1, np.ones(n))
