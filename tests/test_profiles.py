import numpy as np
import pytest

from curvelayers import profiles as pr
from curvelayers.util import simpson_weights
from oracles import ground_state_by_shooting, load_profiles


@pytest.fixture(scope="module", params=[2.0, 3.0, 5.0])
def ps(request):
    return pr.build_profiles(request.param)


def test_ground_state_closed_form_values():
    w0 = pr.ground_state(3.0, np.array([0.0]))[0][0]
    assert abs(w0 - np.sqrt(2.0)) < 1e-14
    assert abs(pr.ground_state(2.0, np.array([0.0]))[0][0] - 1.5) < 1e-14


def test_ode_residual_pointwise(ps):
    # stored w_xx is w - w^p by construction; cross-check with differences
    d2 = np.zeros_like(ps.w)
    d2[1:-1] = (ps.w[2:] - 2 * ps.w[1:-1] + ps.w[:-2]) / ps.hx**2
    res = d2[1:-1] - ps.w[1:-1] + ps.w[1:-1] ** ps.p
    # second-order differencing: error ~ hx^2 |w''''| / 12 grows with p
    assert np.max(np.abs(res)) < 1e-3 * np.max(ps.w)


def test_decay_and_positivity(ps):
    n2 = ps.n // 2
    assert np.all(ps.w > 0)
    assert np.all(np.diff(ps.w[n2:]) < 0)
    assert ps.w[-1] < 1e-8 * ps.w[n2]
    assert np.max(np.abs(ps.w - ps.w[::-1])) < 1e-14


def test_integral_identity_triple(ps):
    a = ps.int_w2
    b = 2.0 * ps.sigma * ps.rho1
    c = -2.0 * ps.integrate(ps.x * ps.w * ps.w_x)
    assert abs(a - b) < 1e-8 * abs(a)
    assert abs(a - c) < 1e-8 * abs(a)


def test_closed_form_invariants_p3():
    ps = pr.build_profiles(3.0)
    assert abs(ps.rho1 - 4.0 / 3.0) < 1e-10
    assert abs(ps.int_w2 - 4.0) < 1e-10
    assert abs(ps.sigma - 1.5) < 1e-15
    assert abs(ps.lambda0 - 3.0) < 1e-15
    assert abs(ps.w2[ps.n // 2] + np.sqrt(2.0) / 2.0) < 1e-12


def test_eigenpair(ps):
    assert abs(ps.integrate(ps.Z**2) - 1.0) < 1e-10
    assert np.all(ps.Z > 0)
    # proportionality to w^((p+1)/2)
    ref = ps.w ** (0.5 * (ps.p + 1.0))
    core = np.abs(ps.x) < 10
    ratio = ps.Z[core] / ref[core]
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-6
    assert abs(ps.lambda0_fd - ps.lambda0) < 1e-4
    # eigenfunction equation residual through the stored identity
    res = ps.Z_xx() - (1.0 + ps.lambda0) * ps.Z + ps.p * ps.w ** (ps.p - 1.0) * ps.Z
    assert np.max(np.abs(res)) < 1e-12


def test_eigenvalue_convergence_order():
    errs = []
    ns = [1001, 2001, 4001]
    for n in ns:
        errs.append(abs(pr.principal_eigenvalue_fd(3.0, 20.0, n) - 3.0))
    hx = 40.0 / (np.asarray(ns) - 1)
    slope = np.polyfit(np.log(hx), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_correction_profiles(ps):
    # w1 odd with the translation mode projected out
    assert np.max(np.abs(ps.w1 + ps.w1[::-1])) < 1e-10 * max(np.max(np.abs(ps.w1)), 1e-300)
    assert abs(ps.integrate(ps.w1 * ps.w_x)) < 1e-10
    # w2 even, closed form against the solver
    assert np.max(np.abs(ps.w2 - ps.w2[::-1])) < 1e-12
    phi, _ = ps.solver.solve(ps.w, parity="even")
    assert np.max(np.abs(phi - ps.w2)) < 1e-4 * np.max(np.abs(ps.w2))


def test_post_identities(ps):
    id1 = 2.0 * ps.integrate(ps.w2_x * ps.w_x)
    id2 = ps.integrate(ps.w2 * ps.w) / ps.sigma
    ref1 = -(2.0 / (ps.p - 1.0) + 0.5) * ps.rho1
    ref2 = (0.5 - 2.0 / (ps.p - 1.0)) * ps.rho1
    assert abs(id1 - ref1) < 1e-6 * ps.rho1
    assert abs(id2 - ref2) < 1e-6 * ps.rho1


def test_linearized_solver_linearity_and_zero():
    ps = pr.build_profiles(3.0)
    s = pr.LinearizedSolver1D(ps.p, ps.x, ps.w, ps.w_x)
    z, _ = s.solve(np.zeros_like(ps.x))
    assert np.max(np.abs(z)) == 0.0
    r1 = np.exp(-(ps.x**2) / 4.0) * np.sin(ps.x)
    r2 = np.exp(-np.abs(ps.x)) * np.tanh(ps.x) * np.cos(ps.x)
    pa, _ = s.solve(r1, check=False)
    pb, _ = s.solve(r2, check=False)
    pc, _ = s.solve(2.0 * r1 - 0.5 * r2, check=False)
    assert np.max(np.abs(2.0 * pa - 0.5 * pb - pc)) < 1e-10 * np.max(np.abs(pc))


def test_solvability_rejection():
    ps = pr.build_profiles(3.0)
    s = pr.LinearizedSolver1D(ps.p, ps.x, ps.w, ps.w_x)
    with pytest.raises(pr.SolvabilityError) as err:
        s.solve(ps.w_x.copy())  # projection rho1 != 0
    assert abs(err.value.projection - ps.rho1) < 1e-6


def test_bordered_lu_stays_sparse(ps):
    # the arrowhead (tridiagonal plus a dense border) factors without fill;
    # an ordering that moves the border column forward fills U to O(n^2)
    lu = ps.solver._lu
    assert lu.L.nnz + lu.U.nnz <= 8 * (ps.n - 1)


def test_solve_many_matches_dense_bordered_solve():
    x = np.linspace(-20.0, 20.0, 2001)
    w, w_x, _ = pr.ground_state(3.0, x)
    s = pr.LinearizedSolver1D(3.0, x, w, w_x)
    m = x.size - 2
    h2 = s.hx**2
    dense = np.zeros((m + 1, m + 1))
    dense[:m, :m] = np.diag(2.0 / h2 + 1.0 - 3.0 * w[1:-1] ** 2) - (np.eye(m, k=1) + np.eye(m, k=-1)) / h2
    dense[:m, m] = w_x[1:-1]
    dense[m, :m] = (simpson_weights(x.size, s.hx) * w_x)[1:-1]
    rhs = np.random.default_rng(0).standard_normal((4, x.size))
    ref = np.linalg.solve(dense, np.vstack([rhs[:, 1:-1].T, np.zeros((1, 4))]))[:m].T
    got = s.solve_many(rhs)
    assert np.max(np.abs(got[:, 1:-1] - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.all(got[:, [0, -1]] == 0.0)


def test_w1_equation_example():
    # r = w_x + x w / sigma must return w1 itself
    ps = pr.build_profiles(3.0)
    r = ps.w_x + ps.x * ps.w / ps.sigma
    phi, _ = ps.solver.solve(r, parity="odd")
    assert np.max(np.abs(phi - ps.w1)) < 1e-12


def test_truncation_guard():
    with pytest.raises(pr.TruncationError):
        pr.build_profiles(2.0, x_max=15.0)
    with pytest.raises(ValueError):
        pr.build_profiles(3.0, n=2000)
    with pytest.raises(ValueError):
        pr.build_profiles(0.5)


def test_shooting_oracle():
    w0 = ground_state_by_shooting(3.0, x_max=18.0)
    assert abs(w0 - np.sqrt(2.0)) < 1e-8


def test_save_load_roundtrip(tmp_path):
    ps = pr.build_profiles(3.0)
    path = tmp_path / "profiles.txt"
    pr.save_profiles(ps, path)
    scalars, cols = load_profiles(path)
    assert abs(scalars["lambda0"] - 3.0) < 1e-14
    assert abs(scalars["rho1"] - ps.rho1) < 1e-14
    for name in ("x", "w", "w_x", "w1", "w2", "Z"):
        assert np.max(np.abs(cols[name] - getattr(ps, name))) < 1e-12
