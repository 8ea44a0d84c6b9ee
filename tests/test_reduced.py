import gc
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from curvelayers import reduced as rd
from curvelayers import scenarios
from curvelayers.util import loglog_slope
from oracles import lemma_series_sums


def test_basis_neumann_exact():
    b = rd.SpectralBasis(0.0, 0.0, 0.0, 0.0, j_max=60, n_cheb=220)
    j = np.arange(61)
    assert np.max(np.abs(b.lam - (j * np.pi) ** 2)) < 1e-7 * (1 + b.lam[-1])
    assert b.gram_deviation() < 1e-8
    assert np.isfinite(b.yprime_bound())


def test_basis_asymptotic_defect_slope():
    b = rd.SpectralBasis(0.0, 0.0, 0.0, 1.0, j_max=60, n_cheb=220)
    j = np.arange(10, 61)
    defect = np.abs(b.asymptotic_defect(j))
    slope, _ = loglog_slope(j.astype(float), defect)
    assert slope <= -2.5
    # leading correction (k2 - k1)/(j pi) dominates
    lead = 1.0 / (10 * np.pi)
    assert abs(np.sqrt(b.lam[10]) - 10 * np.pi - lead) < 0.05 * lead


def test_basis_eigenvalues_simple_increasing():
    b = rd.SpectralBasis(lambda v: 0.3 * np.sin(2 * np.pi * v), lambda v: -2.0 + 0.5 * v, 0.5, -0.7, j_max=40)
    assert np.all(np.diff(b.lam) > 0)
    assert b.gram_deviation() < 1e-8
    with pytest.raises(ValueError):
        rd.SpectralBasis(0.0, 0.0, 0.0, 0.0, j_max=60, n_cheb=100)


def test_basis_robin_roots():
    # -y'' = lam y, y'(0) = 0, y'(1) + y(1) = 0: sqrt(lam) tan(sqrt(lam)) = 1,
    # one root s_j in (j pi, j pi + pi/2) for each j
    b = rd.SpectralBasis(0.0, 0.0, 0.0, 1.0, j_max=60)
    s = np.array([brentq(lambda s: s * np.sin(s) - np.cos(s), j * np.pi + 1e-12, (j + 0.5) * np.pi) for j in range(51)])
    assert abs(b.lam[0] - 0.74017388) < 1e-8
    assert np.max(np.abs(b.lam[:51] - s**2) / s**2) < 1e-12


def test_bent_channel_basis_at_j_max_400(monkeypatch):
    # the eps-ladder output check reads the collocation nodes but not the
    # eigenpairs, so the spectrum of its eps = 0.01 rung (j_max = 400) is pinned here
    scn = scenarios.builtin_scenario("bent-channel")
    chart = scenarios.build_domain(scn)
    field = scenarios.build_field(scn, chart)

    eig, build = rd.sla.eig, rd.cheb_nodes_matrices
    built, solved = [], []

    def check_sized_eig(a, *args, **kwargs):
        solved.append(a.shape)
        return eig(a, *args, **kwargs)

    def counted_build(n):
        built.append(n)
        return build(n)

    # the problem's one basis is the 192-node grid whose eigenvalues nearest 0
    # the degeneracy check reads; the ring grid builds no matrix until a solve
    with monkeypatch.context() as m:
        m.setattr(rd.sla, "eig", check_sized_eig)
        m.setattr(rd, "cheb_nodes_matrices", counted_build)
        problem = rd.ReducedProblem(chart, field, 3.0, j_max=400)
    assert built == [192] and solved == [(191, 191)]
    b = problem.basis
    assert b.nodes.size == 193 and problem.ring.nodes.size == rd.ring_degree(400) + 1 == 291
    assert np.max(np.abs(problem.lam_near_zero - b.lam[:4]) / np.abs(b.lam[:4])) <= 1e-8
    assert b.gram_deviation() <= 1e-8
    ref = {
        0: -2.455343739362692,
        1: 8.542091198311983,
        2: 38.0844665656204,
        10: 985.6240262990365,
        100: 98694.71044958946,
        200: 394782.8425037123,
        400: 1579135.3711316604,
    }
    # a basis of 400 modes on the problem's coefficients: the 1040-node grid
    full = rd.SpectralBasis(b.q1, b.q2, b.k1, b.k2, j_max=400)
    assert full.nodes.size == 1041 and full.gram_deviation() <= 1e-8
    for j, lam in ref.items():
        assert abs(full.lam[j] - lam) <= 1e-9 * abs(lam), j
        if j <= b.j_max:
            assert abs(b.lam[j] - lam) <= 1e-9 * abs(lam), j


@pytest.mark.parametrize("n", [64, 192])
def test_nodal_solution_is_barycentric_on_its_grid(n):
    # node values come back as they are; between the nodes a degree-40
    # polynomial is reproduced to roundoff
    nodes = rd._cgl_points(n)[1]
    poly = np.polynomial.Chebyshev(np.random.default_rng(5).standard_normal(41), domain=[0.0, 1.0])
    derivs = [poly, poly.deriv(1), poly.deriv(2)]
    sol = rd.ESolution(nodes=nodes, to_grid=None, theta_nodes=nodes, values=poly(nodes), d1=derivs[1](nodes),
                       d2=derivs[2](nodes), norm_dstar=0.0)
    assert np.array_equal(sol(nodes), sol.values)
    assert np.array_equal(sol(nodes[::-1]), sol.values[::-1])
    assert all(np.array_equal(sol.deriv(nodes, k), arr) for k, arr in ((1, sol.d1), (2, sol.d2)))
    x = np.linspace(0.0, 1.0, 1001)
    x = x[~np.isin(x, nodes)]
    for k, fn in enumerate(derivs):
        got = sol(x) if k == 0 else sol.deriv(x, k)
        want = fn(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k
    # a scalar reads as a scalar
    assert np.ndim(sol(0.3)) == 0 and sol(0.3) == sol(np.array([0.3]))[0]


def test_f_solution_reads_its_nodes_in_arclength(bent_problem):
    sol = rd.solve_f_problem(bent_problem, lambda t: np.cos(np.pi * np.asarray(t, dtype=float)), 0.05)
    ring = bent_problem.ring
    assert np.array_equal(sol.nodes, ring.nodes) and np.array_equal(sol.theta_nodes, ring.theta)
    v = bent_problem.of_theta(ring.theta)
    assert np.max(np.abs(v - ring.nodes)) <= 1e-14
    assert np.max(np.abs(sol(ring.theta) - sol.values)) <= 1e-12 * np.max(np.abs(sol.values))


@pytest.fixture(scope="module")
def bent_scenario_geometry():
    scn = scenarios.builtin_scenario("bent-channel")
    chart = scenarios.build_domain(scn)
    return chart, scenarios.build_field(scn, chart)


@pytest.mark.parametrize("eps", [0.01, 0.005])
def test_ring_solve_on_its_grid_matches_the_finer_one(ctx3, bent_scenario_geometry, eps):
    # the ring grid of degree 5 j_max/8 + 40 against the earlier 2.5 j_max + 40
    from curvelayers import ansatz as az

    chart, field = bent_scenario_geometry
    j_max = rd.default_j_max(eps)
    h = {}
    for n in (rd.ring_degree(j_max), int(2.5 * j_max) + 40):
        problem = rd.ReducedProblem(chart, field, ctx3.lambda0, j_max=j_max)
        problem.ring = problem.ring_grid(n)
        h[n] = az.assemble_ansatz(3, az.zero_state(), eps, ctx3, chart, field, reduced_problem=problem).h_solution
    assert rd.ring_degree(j_max) == {0.01: 290, 0.005: 540}[eps]
    th = np.linspace(0.0, 1.0, 1001)
    got, ref = (sol(th) for sol in h.values())
    assert np.max(np.abs(got - ref)) <= 5e-8 * np.max(np.abs(ref))
    # the norm reads its sup terms off the grid, so it moves with h, not with the node count
    got, ref = (sol.norm_star for sol in h.values())
    assert abs(got - ref) <= 5e-8 * ref


def test_dropped_problem_is_freed_without_the_cycle_collector(bent_chart, bent_field):
    # a problem holds dense matrices of a few MiB each; a reference cycle kept
    # every dropped one alive until a full collection, which raised the peak
    # memory of repeated builds
    gc.disable()
    try:
        ref = weakref.ref(rd.ReducedProblem(bent_chart, bent_field, 3.0, j_max=40))
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [16, 40])
def test_second_derivative_matrix_is_exact_on_polynomials(n):
    theta, _, D2 = rd.cheb_nodes_matrices(n)
    poly = np.polynomial.Polynomial([1.0, -2.0, 3.0, 0.5, -1.0, 2.0, 0.3, -0.7, 1.1])
    want = poly.deriv(2)(theta)
    assert np.max(np.abs(D2 @ poly(theta) - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [16, 40, 1040])
def test_closed_form_second_derivative_matrix_is_the_square_of_D1(n):
    _, D1, D2 = rd.cheb_nodes_matrices(n)
    assert np.max(np.abs(D2.sum(axis=1))) <= 1e-14 * np.max(np.abs(D2))
    ref = D1 @ D1
    assert np.max(np.abs(D2 - ref)) <= 1e-10 * np.max(np.abs(ref))


def _robin_collocation_by_formula(D1, D2, c2, c1, c0, rhs, k, data):
    """Reference: the collocation system as c2 D2 + c1 D1 + diag(c0) in new arrays."""
    c2, c1, c0 = (np.broadcast_to(c, rhs.shape) for c in (c2, c1, c0))
    A = c2[:, None] * D2 + c1[:, None] * D1 + np.diag(c0)
    rhs = np.array(rhs, dtype=float)
    A[[0, -1]] = D1[[0, -1]]
    A[0, 0] += k[0]
    A[-1, -1] += k[1]
    rhs[[0, -1]] = data
    return np.linalg.solve(A, rhs)


# 192 is the amplitude grid; 540 the location grid of j_max = 200, more than
# two blocks of rows with a ragged last one
@pytest.mark.parametrize("n", [192, 540])
def test_robin_collocation_in_place_is_the_formula_bit_for_bit(n):
    th, D1, D2 = rd.cheb_nodes_matrices(n)
    coefficients = (
        (1.0, 0.3 * np.cos(3.0 * th), -2.0 + th),  # solve_f_problem: c2 = 1
        (1e-4 / (1.0 + 0.3 * th) ** 2, 0.0, 3.0),  # solve_e_problem without hbar5
        (1e-4 / (1.0 + 0.3 * th) ** 2, 5e-5 * np.sin(np.pi * th), 3.0),  # and with it
    )
    for c2, c1, c0 in coefficients:
        args = (c2, c1, c0, np.exp(th), (0.4, -0.7), (1.5, 0.25))
        want = _robin_collocation_by_formula(D1, D2, *args)
        got = rd._robin_collocation(D1, D2.copy(), *args)
        assert np.array_equal(got, want)


def test_e_grid_is_read_only():
    # _robin_collocation overwrites the D2 it is given; the cached amplitude
    # grid is passed as a copy
    for arr in rd._e_grid():
        assert not arr.flags.writeable
    th = rd._e_grid()[0]
    rd.solve_e_problem(np.exp(th), 0.1, 0.2, -0.3, 1.0, 0.5, 3.0)


def test_singular_robin_block_is_refused():
    # this k_left zeroes the determinant of the 2 x 2 Robin block exactly;
    # in floating point the block has condition number ~1e17
    n = 192
    _, D1, _ = rd.cheb_nodes_matrices(n)
    k_left = -D1[0, 0] + D1[0, n] * D1[n, 0] / D1[n, n]
    basis = rd.SpectralBasis(0.0, 0.0, k_left, 0.0, j_max=20, n_cheb=n)
    with pytest.raises(rd.DegenerateOperatorError, match=r"k_left = 24576\.33.*k_right = 0\b"):
        basis.lam


@pytest.mark.parametrize("n", [192, 1040])
def test_basis_nodes_are_the_matrices_nodes(n):
    basis = rd.SpectralBasis(0.0, 0.0, 0.0, 0.0, j_max=20, n_cheb=n)
    assert np.array_equal(basis.nodes, rd.cheb_nodes_matrices(n)[0])


def test_neumann_location_operator_eigenvalues_near_zero(flat_problem):
    # V = 1 + t^2 and sigma = 3/2 give hbar2 = -3 with q1 = 0 and Neumann
    # ends: the operator is -y'' + 3y, with eigenvalues (j pi)^2 + 3
    want = (np.arange(4) * np.pi) ** 2 + 3.0
    assert np.max(np.abs(flat_problem.lam_near_zero - want) / want) <= 1e-12


def test_translation_kernel_is_refused(flat_chart, unit_field):
    # V = 1 on the straight channel: every shift of the curve is a solution
    with pytest.raises(rd.DegenerateOperatorError, match=r"numerically zero eigenvalue: min \|lam\| = .* < threshold 3\.948e-07"):
        rd.ReducedProblem(flat_chart, unit_field, 3.0, j_max=60)


def test_gap_ledger_examples():
    led = rd.gap_check(0.1, 0.5, 3.0, 1.0)
    assert abs(led.lambda_star - 3.0 / np.pi**2) < 1e-15
    assert led.passes and abs(led.margin - abs(0.25 - 3.0 / np.pi**2)) < 1e-12
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    assert not rd.gap_check(eps5, 1e-6, 3.0, 1.0).passes
    assert np.max(np.abs(led.resonant_eps - np.sqrt(led.lambda_star) / np.arange(1, 13))) < 1e-14


def test_f_problem_analytic(flat_problem):
    th = np.linspace(0, 1, 301)
    sol = rd.solve_f_problem(flat_problem, lambda t: np.cos(np.pi * t), 0.1)
    assert np.max(np.abs(sol(th) + np.cos(np.pi * th) / (np.pi**2 + 3.0))) < 1e-8
    z = rd.solve_f_problem(flat_problem, lambda t: 0.0 * np.asarray(t), 0.1)
    assert np.max(np.abs(z(th))) == 0.0


def test_f_problem_manufactured_robin(flat_problem):
    th = np.linspace(0, 1, 301)
    fe = lambda t: np.cos(np.pi * t) + 0.3 * t**2 - 0.1
    fep = lambda t: -np.pi * np.sin(np.pi * t) + 0.6 * t
    g = lambda t: (-np.pi**2 * np.cos(np.pi * t) + 0.6) - 3.0 * fe(t)
    sol = rd.solve_f_problem(flat_problem, g, 0.1, robin=(fep(0.0), fep(1.0)))
    assert np.max(np.abs(sol(th) - fe(th))) < 1e-6


def test_f_problem_zero_alphas_are_the_default_solve(bent_problem):
    # one collocation solve: absent and zero alphas give the same bits
    g = lambda t: np.cos(np.pi * np.asarray(t, dtype=float))
    plain = rd.solve_f_problem(bent_problem, g, 0.05, robin=(0.2, -0.1))
    zeros = rd.solve_f_problem(bent_problem, g, 0.05, alpha1=0, alpha2=0, robin=(0.2, -0.1))
    for key in ("values", "d1", "d2", "norm_star"):
        assert np.array_equal(getattr(plain, key), getattr(zeros, key)), key


def test_f_problem_oscillatory_manufactured(flat_problem):
    eps = 0.05
    th = np.linspace(0, 1, 501)
    a2 = lambda t: np.sin(np.sqrt(3.0) * np.asarray(t, dtype=float) / eps)
    fe = lambda t: np.cos(np.pi * np.asarray(t, dtype=float))
    g = lambda t: -np.pi**2 * fe(t) + (-3.0 + a2(t)) * fe(t)
    sol = rd.solve_f_problem(flat_problem, g, eps, alpha2=a2)
    assert np.max(np.abs(sol(th) - fe(th))) < 1e-6


def test_fourier_envelope_bound(flat_problem):
    # coefficients of an oscillatory multiplier against the basis follow the
    # small-divisor envelope eps (eps j + 1)/|lam0 ell^2 - eps^2 lam_j|
    eps = 0.05
    basis = flat_problem.basis
    v = basis.nodes
    eta = np.cos(np.pi * v) * (1.0 - v) * v + 0.3
    osc = np.sin(np.sqrt(3.0) * v / eps) * eta
    cbar = basis.project(osc * basis.rho_half)
    j = np.arange(cbar.size)
    lam = basis.lam
    env = eps * (eps * j + 1.0) / np.abs(3.0 - eps**2 * lam)
    sel = j >= 1
    ratio = np.abs(cbar[sel]) / env[sel]
    C = np.max(ratio)
    assert np.isfinite(C)
    # j-uniform constant: the top-decile ratios stay within a modest factor
    assert C < 20.0 * max(np.median(ratio), 1e-6)


def test_lemma_series_sums_scaling():
    rows = {}
    for eps in (0.1, 0.05, 0.025):
        led = rd.gap_check(eps, 0.025, 3.0, 1.0)
        if not led.passes:
            continue
        rows[eps] = lemma_series_sums(eps, 3.0, 1.0)
    highs = [v["high_over_eps2"] for v in rows.values()]
    mids = [v["mid_over_eps"] for v in rows.values()]
    lows = [v["low_over_eps2"] for v in rows.values()]
    for vals in (highs, mids, lows):
        assert max(vals) < 50.0 * max(min(vals), 1e-12) or max(vals) < 1.0


def test_e_problem_analytic():
    th = np.linspace(0, 1, 301)
    sol = rd.solve_e_problem(lambda t: np.cos(np.pi * t), 0.1, 0.0, 0.0, 1.0, 0.0, 3.0)
    expect = np.cos(np.pi * th) / (3.0 - 0.01 * np.pi**2)
    assert np.max(np.abs(sol(th) - expect)) < 1e-8
    z = rd.solve_e_problem(lambda t: 0.0 * np.asarray(t), 0.1, 0.0, 0.0, 1.0, 0.0, 3.0)
    assert np.max(np.abs(z(th))) < 1e-14


def test_e_problem_manufactured_bent_robin(bent_chart, bent_field):
    # bent-channel coefficients and inhomogeneous Robin data at both ends
    from curvelayers.ansatz import LayerCoeffs

    co = LayerCoeffs(bent_chart, bent_field)
    beta, h5, b5t, b6t = bent_field.beta, co.hbar5, co.b5_tilde, co.b6_tilde
    ee = lambda t: np.cos(2.0 * t) + 0.3 * t**2
    eep = lambda t: -2.0 * np.sin(2.0 * t) + 0.6 * t
    eepp = lambda t: -4.0 * np.cos(2.0 * t) + 0.6
    for eps in (0.3, 0.1):
        gt = lambda t: eps**2 * (eepp(t) / beta(t) ** 2 + h5(t) * eep(t)) + 3.0 * ee(t)
        robin = (eep(0.0) + b5t * ee(0.0), eep(1.0) + b6t * ee(1.0))
        sol = rd.solve_e_problem(gt, eps, b5t, b6t, beta, h5, 3.0, robin=robin)
        th = sol.theta_nodes
        assert np.max(np.abs(sol.values - ee(th))) <= 1e-9, eps
        assert np.max(np.abs(sol.d1 - eep(th))) <= 1e-7, eps


def test_e_problem_near_resonance_scaling():
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    vals = []
    for fac in (0.97, 1.03):
        eps = eps5 * fac
        sol = rd.solve_e_problem(lambda t: np.cos(5 * np.pi * t), eps, 0.0, 0.0, 1.0, 0.0, 3.0)
        vals.append(np.max(np.abs(sol.values)) * abs(3.0 - eps**2 * 25 * np.pi**2))
    assert abs(vals[0] - vals[1]) < 0.2 * vals[0]
    assert abs(vals[0] - 1.0) < 0.2


def test_e_problem_refined_bound():
    # smooth forcing: eps^2 ||e''|| + eps ||e'|| + ||e||_inf stays O(||g||)
    for eps in (0.1, 0.06):
        led = rd.gap_check(eps, 0.01, 3.0, 1.0)
        sol = rd.solve_e_problem(lambda t: np.exp(np.asarray(t, dtype=float)), eps, 0.0, 0.0, 1.0, 0.0, 3.0, ledger=led)
        assert sol.norm_dstar < 10.0


def test_gap_refusal():
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    led = rd.gap_check(eps5, 0.5, 3.0, 1.0)
    with pytest.raises(rd.GapError):
        rd.solve_e_problem(lambda t: np.cos(np.pi * t), eps5, 0.0, 0.0, 1.0, 0.0, 3.0, ledger=led)


def test_resonance_blowup_locations_match_ledger():
    from curvelayers import harness

    rows = harness.gap_sweep(3.0, 0.09, 0.32, n=240, c=0.025)
    eps_grid = rows[:, 0]
    sup = rows[:, 2]
    spacing = abs(eps_grid[1] - eps_grid[0])
    lam_star = 3.0 / np.pi**2
    resonant = np.sqrt(lam_star) / np.arange(2, 7)
    resonant = resonant[(resonant > 0.09 + 4 * spacing) & (resonant < 0.32 - 4 * spacing)]
    # amplification localizes at the ledger's critical values: the sweep
    # value within grid resolution of each eps_j towers over the local floor
    for r in resonant:
        i = int(np.argmin(np.abs(eps_grid - r)))
        window = sup[max(0, i - 8) : i + 9]
        local = np.max(sup[max(0, i - 2) : i + 3])
        assert local >= 2.5 * np.median(window), (r, local, np.median(window))
    # and every strong local maximum sits near a ledger entry
    for i in range(1, len(sup) - 1):
        if sup[i] > sup[i - 1] and sup[i] > sup[i + 1] and sup[i] > 5.0:
            assert np.min(np.abs(resonant - eps_grid[i])) <= 2.0 * spacing


def test_coupled_block_solve(flat_problem):
    th = np.linspace(0, 1, 201)
    f1 = rd.solve_f_problem(flat_problem, lambda t: np.cos(np.pi * t), 0.1)
    f2, e2, C = rd.solve_coupled(flat_problem, lambda t: np.cos(np.pi * t), lambda t: np.cos(np.pi * t), 0.1)
    assert np.max(np.abs(f1(th) - f2(th))) == 0.0
    assert np.isfinite(C)
    z1, z2, _ = rd.solve_coupled(flat_problem, lambda t: 0.0 * np.asarray(t), lambda t: 0.0 * np.asarray(t), 0.1)
    assert np.max(np.abs(z1(th))) == 0.0
    assert np.max(np.abs(z2(th))) < 1e-14


def test_coupled_manufactured_robin(flat_problem):
    th = np.linspace(0, 1, 201)
    fe = lambda t: np.cos(np.pi * t) - 0.2 * t
    fep = lambda t: -np.pi * np.sin(np.pi * t) - 0.2
    g = lambda t: -np.pi**2 * np.cos(np.pi * t) - 3.0 * fe(t)
    eps = 0.1
    ee = lambda t: np.sin(np.pi * t) + 0.1
    eep = lambda t: np.pi * np.cos(np.pi * t)
    gt = lambda t: eps**2 * (-np.pi**2 * np.sin(np.pi * t)) + 3.0 * ee(t)
    fsol, esol, _ = rd.solve_coupled(
        flat_problem, g, gt, eps,
        gammas=(fep(0.0), fep(1.0), eep(0.0), eep(1.0)),
    )
    assert np.max(np.abs(fsol(th) - fe(th))) < 1e-6
    assert np.max(np.abs(esol(th) - ee(th))) < 1e-6


def test_fixed_point_trivial_and_linear(flat_problem):
    th = np.linspace(0, 1, 201)
    f0, e0, info = rd.reduced_fixed_point(flat_problem, 0.1)
    assert np.max(np.abs(f0(th))) == 0.0 and info["iterations"] == 1

    def m_lin(fs, es):
        return (lambda t: 0.0 * np.asarray(t)), (lambda t: 0.02 * np.cos(np.pi * np.asarray(t)))

    fl, el, _ = rd.reduced_fixed_point(flat_problem, 0.1, m_interior=m_lin, tol=1e-13)
    f2, e2, _ = rd.solve_coupled(flat_problem, lambda t: 0.0 * np.asarray(t), lambda t: 0.01 * 0.02 * np.cos(np.pi * np.asarray(t)), 0.1)
    assert np.max(np.abs(el(th) - e2(th))) < 1e-12


def test_fixed_point_contraction_rate(flat_problem):
    def run(eps):
        def m_int(fs, es):
            m1 = lambda t: np.tanh(fs(t)) + 0.5 * np.cos(es(t)) + np.sin(np.pi * np.asarray(t))
            m2 = lambda t: 0.3 * np.sin(fs(t)) + 0.2 * es(t) + 0.1
            return m1, m2

        f, e, info = rd.reduced_fixed_point(flat_problem, eps, m_interior=m_int, tol=1e-13, rho2=-1.5)
        facs = info["contraction_factors"]
        return np.median(facs[1:-1]), info

    fac1, info1 = run(0.1)
    fac2, info2 = run(0.05)
    assert 0.3 <= fac2 / fac1 <= 0.7
    assert info1["in_admissible_set"]


def test_fixed_point_noncontraction_abort(flat_problem):
    def m_big(fs, es):
        m1 = lambda t: 400.0 * np.tanh(fs(t)) + 100.0 * np.sin(np.pi * np.asarray(t))
        m2 = lambda t: 400.0 * np.tanh(es(t)) + 50.0
        return m1, m2

    with pytest.raises(RuntimeError):
        rd.reduced_fixed_point(flat_problem, 0.1, m_interior=m_big, tol=1e-13)
