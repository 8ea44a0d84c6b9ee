import collections
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from curvelayers import ansatz as az
from curvelayers import geodesic as gd
from curvelayers import geometry, harness, pde, strip
from curvelayers import reduced as rd
from curvelayers.strip import StripLayer, solve_strip_layer
from curvelayers.util import fd_first_axis, hermite, simpson_weights, spline_slopes
from oracles import phi4_rhs, residual_crosscheck


def test_rows_read_theta_functions(ctx3, bent_chart, bent_field, bent_problem):
    """Every theta-function the rows read answers fn(th) and fn.deriv(th, 1 | 2).

    On bent-channel, V(0, theta) = 1 + 0.3 theta sin(pi theta), so beta = V^(1/2)
    and, at p = 3, alpha = V^(1/2) too.
    """
    b4 = az.assemble_ansatz(4, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    co, st = b4.coeffs, b4.state
    th = np.linspace(0.0, 1.0, 41)
    for fn in (co.alpha, co.beta, co.k, co.a11, co.a12, co.xi, st.f, st.e, st.h):
        for values in (fn(th), fn.deriv(th, 1), fn.deriv(th, 2)):
            assert values.shape == th.shape and np.all(np.isfinite(values))
    s, c = np.sin(np.pi * th), np.cos(np.pi * th)
    v = 1.0 + 0.3 * th * s
    v1 = 0.3 * (s + np.pi * th * c)
    v2 = 0.3 * (2.0 * np.pi * c - np.pi**2 * th * s)
    root = np.sqrt(v)
    for fn in (bent_field.beta, bent_field.alpha):
        assert np.max(np.abs(fn(th) - root)) < 1e-14
        assert np.max(np.abs(fn.deriv(th, 1) - 0.5 * v1 / root)) < 1e-10
        # the second derivative keeps the 1e-4 step (FOUND in CHANGES.md: 5.9e-8 off)
        assert np.max(np.abs(fn.deriv(th, 2) - (0.5 * v2 / root - 0.25 * v1**2 / root**3))) < 1e-6
    rows = az._Rows(b4, b4.theta_grid())
    assert rows["betapp"].tobytes() == co.beta.deriv(rows.th, 2).tobytes()


def test_amplitude_closed_form_and_oracle():
    eps, ell, lam0 = 0.1, 1.0, 3.0
    amp = az.resonance_amplitude(eps, 1.0, 0.0, ell, lam0)
    # two-point data by substitution
    assert abs(eps * amp.deriv(0.0) * 1.0 - 1.0) < 1e-12 or abs(amp.deriv(0.0) * eps - 1.0) < 1e-12
    assert abs(eps * amp.deriv(ell)) < 1e-12
    # b = eps A solves the equation: second derivative identity
    a = np.linspace(0, ell, 11)
    assert np.max(np.abs(eps**2 * amp.deriv(a, 2) + lam0 * amp(a))) < 1e-10
    # independent integration oracle from the left end
    sol = solve_ivp(
        lambda s, y: [y[1], -lam0 / eps**2 * y[0]],
        (0.0, ell),
        [eps * amp(0.0), 1.0],
        rtol=1e-11,
        atol=1e-13,
        dense_output=True,
    )
    assert abs(sol.sol(ell)[1] - 0.0) < 1e-8
    probe = np.linspace(0, ell, 7)
    assert np.max(np.abs(sol.sol(probe)[0] - eps * amp(probe))) < 1e-8


def test_amplitude_trivial_and_flag():
    amp0 = az.resonance_amplitude(0.1, 0.0, 0.0, 1.0, 3.0)
    assert amp0.sup == 0.0
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    flagged = az.resonance_amplitude(eps5 * (1 + 1e-9), 1.0, 0.0, 1.0, 3.0)
    assert flagged.flagged


def test_flat_channel_trivial_layers(ctx3, flat_chart, flat_field):
    st = az.zero_state()
    b3 = az.assemble_ansatz(3, st, 0.1, ctx3, flat_chart, flat_field)
    assert b3.c0 == pytest.approx(0.0, abs=1e-9)
    assert b3.c1 == pytest.approx(0.0, abs=1e-9)
    assert b3.amplitude.sup < 1e-9
    assert b3.phi22 is None
    assert np.max(np.abs(b3.state.h(np.linspace(0, 1, 21)))) == 0.0
    # v2 = w exactly (both curvature coefficients vanish)
    f2 = az.assemble_ansatz(2, st, 0.1, ctx3, flat_chart, flat_field).strip_fields(np.array([3.0]))
    assert np.max(np.abs(f2["v"][:, 0] - ctx3.tables["w"])) == 0.0


def test_flat_tier1_residual_closed_form(ctx3, flat_chart, flat_field):
    st = az.zero_state()
    for eps in (0.2, 0.05):
        b1 = az.assemble_ansatz(1, st, eps, ctx3, flat_chart, flat_field)
        rep = az.interior_residual(b1)
        x = ctx3.x
        pred = -(eps**2) * x[:, None] ** 2 * ctx3.tables["w"][:, None] * np.ones_like(rep.z)[None, :]
        inside = np.broadcast_to(np.abs(eps * x[:, None]) < 3.0 * b1.delta * 0.99, rep.E.shape)
        assert np.max(np.abs(rep.E - pred)[inside]) < 1e-8


def test_unit_potential_residual_vanishes(ctx3, flat_chart, unit_field):
    # the profile solves the unit-weight strip problem exactly; only the
    # exponentially small window tail (|x| ~ 3 delta/eps) survives
    b1 = az.assemble_ansatz(1, az.zero_state(), 0.1, ctx3, flat_chart, unit_field)
    rep = az.interior_residual(b1)
    core = np.broadcast_to(np.abs(ctx3.x[:, None]) < 14.0, rep.E.shape)
    # floor set by roundoff of finite-differenced constant coefficients
    assert np.max(np.abs(rep.E)[core]) < 1e-9
    assert rep.sup < 1e-5
    bnd = az.boundary_residual(b1)
    sel = np.abs(ctx3.x) < 14.0
    assert np.max(np.abs(bnd.g0[sel])) < 1e-10
    assert np.max(np.abs(bnd.g1[sel])) < 1e-10


def test_leading_error_structure_on_bent(ctx3, bent_chart, bent_field, bent_problem):
    # tier-1 odd part reproduces the first-order group; even part the
    # quadratic one; their翻译-mode projection cancels by the profile identity
    eps = 0.05
    st = az.zero_state()
    b1 = az.assemble_ansatz(1, st, eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    rep = az.interior_residual(b1)
    x = ctx3.x
    j = rep.z.size // 2
    th = eps * rep.z[j]
    E_col = rep.E[:, j]
    odd = 0.5 * (E_col - E_col[::-1])
    k = float(bent_chart.k(th))
    beta = float(bent_field.beta(th))
    s1 = -(k / beta) * (ctx3.tables["w_x"] + x * ctx3.tables["w"] / ctx3.sigma)
    inside = np.abs(eps * x / beta) < 2.0 * b1.delta
    # the odd remainder beyond eps S1 is the second-order odd group
    assert np.max(np.abs(odd - eps * s1)[inside]) < 3.0 * eps * np.max(np.abs(eps * s1))
    # solvability of the first-order group: w_x projection is second order
    assert np.max(np.abs(rep.proj_wx)) < 5.0 * eps**2


def test_phi42_solvability_after_ring_solve(ctx3, bent_chart, bent_field, bent_problem):
    eps = 0.05
    b5 = az.assemble_ansatz(5, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    rhs = phi4_rhs(b5, az._Rows(b5, b5.theta_grid()), slice(None))
    # w_x is odd in x, so only the odd part of the right side projects on it;
    # the ring correction h makes that projection vanish
    wq = simpson_weights(ctx3.fine.n, ctx3.fine.hx)
    proj = (wq[:, None] * rhs * ctx3.fine_tables["w_x"][:, None]).sum(axis=0)
    scale = np.max(np.abs(0.5 * (rhs - rhs[::-1])))
    assert np.max(np.abs(proj)) < 1e-3 * scale


def _phi4_direct(bundle):
    """Reference: the phi4 tables from one full-width solve of the full right side."""
    ctx = bundle.ctx
    rhs = phi4_rhs(bundle, az._Rows(bundle, bundle.theta_grid()), slice(None))
    lin = ctx.p * np.abs(ctx.fine_tables["w"][:, None]) ** (ctx.p - 1.0)
    sol = ctx.fine.solver.solve_many(rhs.T).T
    return {"val": sol[ctx.sub], "dx": fd_first_axis(sol, ctx.fine.hx)[ctx.sub], "dxx": (sol - lin * sol - rhs)[ctx.sub]}


@pytest.mark.parametrize("case, eps", [("bent", 0.05), ("bent", 0.01), ("flat", 0.2), ("flat", 0.3)])
def test_streamed_phi4_matches_one_shot(request, ctx3, case, eps, monkeypatch):
    # n_theta = 81 ends in a one-column block, 21 in a five-column block, and
    # 15 fits in a single block; at eps 0.01 (401 sections) both strip layers
    # are identically zero in the middle blocks, which solve nothing
    chart, field, problem = (request.getfixturevalue(f"{case}_{name}") for name in ("chart", "field", "problem"))
    b5 = az.assemble_ansatz(5, az.zero_state(), eps, ctx3, chart, field, reduced_problem=problem)
    n_theta = b5.theta_grid().size
    assert n_theta % az._PHI4_BLOCK != 0
    if eps == 0.01:
        zt = az._Rows(b5, b5.theta_grid())["zt"]
        mid = slice(n_theta // 2, n_theta // 2 + az._PHI4_BLOCK)
        assert b5.phi22.is_zero(zt[mid]) and b5.phi3.is_zero(zt[mid])
    streamed = az._phi4_tables(b5)
    monkeypatch.setattr(az, "_PHI4_BLOCK", n_theta)
    one_shot = az._phi4_tables(b5)
    direct = _phi4_direct(b5)
    for key, table in one_shot.items():
        assert np.array_equal(streamed[key], table), key
        # the profile part (StripContext.phi4_response) and the strip-layer
        # part are solved apart and summed after the solve: roundoff only
        assert np.max(np.abs(table - direct[key])) <= 1e-12 * np.max(np.abs(direct[key])), key
    # the straight channel has no odd sources: there the layer is even in x
    val = one_shot["val"]
    odd = np.max(np.abs(0.5 * (val - val[::-1])))
    assert (odd > 1e-2 * np.max(np.abs(val))) if case == "bent" else (odd <= 1e-12 * np.max(np.abs(val)))


def _phi4_rhs_by_terms(bundle, src, cols):
    """Reference: the phi4 right sides written term by term, as the layer equations read."""
    ctx, eps = bundle.ctx, bundle.eps
    t = ctx.fine_tables
    x = t["x"][:, None]
    names = ("k", "varpi", "beta", "betap", "betapp", "alpha", "alphap", "alphapp", "xi", "xip", "a11", "a12")
    k, vp, beta, dbeta, d2beta, alpha, dalpha, d2alpha, xi, dxi, a11, a12 = (src[name][None, cols] for name in names)
    Vtt, f, h, hp, hpp, e, A, Ap = (src[name][None, cols] for name in ("V_tt0", "f", "h", "hp", "hpp", "e", "A", "Ap"))
    sg = ctx.sigma
    wv, wxv, wxxv, w1v, w2v, w1xv, w2xv, Zv, Zxv = (t[key][:, None] for key in ("w", "w_x", "w_xx", "w1", "w2", "w1_x", "w2_x", "Z", "Z_x"))

    s6 = (1.0 / beta**2) * (
        (-(k**2) + d2beta / beta + 2.0 * dalpha * dbeta / (alpha * beta)) * x * wxv
        + (dbeta**2 / beta**2) * x**2 * wxxv
        + beta**2 * hp**2 * wxxv
        + (d2alpha / alpha) * wv
        - Vtt / (2.0 * beta**2) * x**2 * wv
        - 0.5 * Vtt * (2.0 * f * h + h**2) * wv
    )
    s8 = -(2.0 * vp / (alpha * beta**2)) * (
        dalpha * x * wxv
        + 1.5 * alpha * dbeta / beta * x * wxv
        + alpha * dbeta / beta * x**2 * wxxv
        - alpha * beta**2 * (f * hp + h * hp) * wxxv
        + 0.5 * dalpha * wv
    )
    s7 = -(
        (k**2 / beta) * h * wxv
        + (hpp / beta) * wxv
        + (2.0 * dbeta / beta**2) * hp * wxv
        + (2.0 * dalpha / (alpha * beta)) * hp * wxv
        + (2.0 * dbeta / beta**2) * hp * x * wxxv
        + (Vtt / beta**3) * h * x * wv
    )
    s9 = -(2.0 * vp / (alpha * beta**2)) * (
        -alpha * beta * hp * x * wxxv
        + dalpha * beta * h * wxv
        + alpha * dbeta * h * wxv
        + alpha * dbeta * h * x * wxxv
        - 0.5 * alpha * beta * hp * wxv
    )

    if bundle.phi22 is not None:
        q, q_x, q_zt, q_xzt = (az._to_fine(ctx, getattr(bundle.phi22, fn)(src["zt"][cols])) for fn in ("value", "dx", "dz", "dxz"))
    else:
        q = q_x = q_zt = q_xzt = 0.0
    blockA = A * Zv + q
    blockA_x = A * Zxv + q_x
    dz_blockA = eps * Ap * beta * Zv + beta * q_zt
    dz_blockA_x = eps * Ap * beta * Zxv + beta * q_xzt
    m11 = (2.0 * eps**2 / beta**2) * dxi * dz_blockA + (eps**2 * dbeta / beta**2) * xi * (dz_blockA / beta)
    if bundle.phi3 is not None:
        m21 = eps**2 * (ctx.basis_m.shift - 1.0) * xi * az._to_fine(ctx, bundle.phi3.value(src["zt"][cols]))
    else:
        m21 = 0.0
    m51 = -(eps**2) * (k / sg) * (f + h) * e * Zv
    pp = ctx.p * (ctx.p - 1.0)
    wp2 = np.sign(wv) * np.abs(wv) ** (ctx.p - 2.0)

    rhs_even = (
        eps**2 * s6
        + eps**2 * s8
        + m11
        + m21
        + m51
        + (eps**2 * k**2 / (beta * sg)) * ((sg / beta) * w1xv + (1.0 / beta) * x * w1v + (beta / sg) * h**2 * w2v + (2.0 * beta / sg) * f * h * w2v)
        + (2.0 * eps**2 / beta**2) * xi * (dbeta / beta - vp) * x * dz_blockA_x
        - eps**2 / sg * k * (f + h) * xi * blockA
        + (eps**2 / beta**2) * xi * (2.0 * dalpha / alpha - vp) * dz_blockA
        + eps**2 * 0.5 * pp * wp2 * (
            a11**2 * w1v**2
            + a12**2 * (2.0 * f * h + h**2) * w2v**2
            + e**2 * Zv**2
            + xi**2 * blockA**2
            + 2.0 * a12 * (f + h) * w2v * xi * blockA
            + 2.0 * a12 * (f + h) * w2v * e * Zv
            + 2.0 * xi * blockA * e * Zv
        )
    )
    rhs_odd = eps**2 * (
        s7
        + s9
        + (k**2 / (beta * sg)) * (h * w2xv + h * x * w2v / sg + h * w1v)
        - (k / beta) * xi * blockA_x
        - (2.0 / beta) * hp * xi * dz_blockA_x
        - (2.0 * vp / beta) * h * xi * dz_blockA_x
        - (k / (sg * beta)) * x * xi * blockA
        + pp * wp2 * (a11 * a12 * h * w1v * w2v + a11 * w1v * xi * blockA)
    )
    return rhs_even, rhs_odd


@pytest.mark.parametrize("case, eps", [("bent", 0.05), ("flat", 0.2), ("generic", 0.05)])
def test_phi4_rhs_by_profiles_matches_the_term_by_term_formula(request, ctx3, sincos_state, case, eps):
    # bent and flat: nonzero (f, e) and the solved ring correction h. The
    # channel walls make varpi = 0 there, so "generic" (a generic chart,
    # varpi != 0, with a potential graded along the curve) takes h from the
    # state. On bent and generic the bundle also carries phi22 and phi3.
    if case == "generic":
        chart = geometry.build_chart(geometry.generic_chart_curve(), delta0=0.3)
        V = lambda t, th: (1.0 + np.asarray(t, dtype=float) ** 2) * (1.0 + 0.5 * np.asarray(th, dtype=float))
        h = geometry.ScalarFn(lambda th: 0.1 * th**2, d1=lambda th: 0.2 * th, d2=lambda th: 0.2 + 0.0 * th)
        state = az.ReducedState(f=sincos_state.f, e=sincos_state.e, h=h)
        b5 = az.assemble_ansatz(5, state, eps, ctx3, chart, gd.build_potential(3.0, V), h_from_state=True)
        assert np.all(b5.coeffs.varpi(np.array([0.0, 1.0])) != 0.0)
    else:
        chart, field, problem = (request.getfixturevalue(f"{case}_{name}") for name in ("chart", "field", "problem"))
        b5 = az.assemble_ansatz(5, sincos_state, eps, ctx3, chart, field, reduced_problem=problem)
    if case != "flat":
        assert b5.phi22 is not None and b5.phi3 is not None and np.any(b5.state.h(np.array([0.5])))
    src = az._Rows(b5, b5.theta_grid())
    rhs = phi4_rhs(b5, src, slice(None))
    refs = _phi4_rhs_by_terms(b5, src, slice(None))
    # the even and odd parts in x of the one right side against the two
    # sides of the formula, relative to each column's size
    scale = np.max(np.abs(refs[0] + refs[1]), axis=0)
    assert np.all(scale > 0.0)
    for parity, sign, ref in zip(("even", "odd"), (1.0, -1.0), refs):
        part = 0.5 * (rhs + sign * rhs[::-1])
        assert np.all(np.abs(part - ref) <= 1e-13 * scale), (parity, np.max(np.abs(part - ref) / scale))
        # the straight channel has no odd sources
        assert np.any(ref) == (case != "flat" or parity == "even"), parity
    if case == "flat":
        # there the odd coefficient rows (the last 10 profiles, the last 4
        # phi22 terms) are exact zeros
        rows, q, _ = az._phi4_coefficients(b5, src, slice(None))
        assert not np.any(rows[14:]) and not np.any(q[6:]) and np.any(rows[:14])


@pytest.fixture(scope="module")
def bent_b5_002(ctx3, bent_chart, bent_field, bent_problem):
    return az.assemble_ansatz(5, az.zero_state(), 0.02, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)


def test_phi4_solve_keeps_no_full_fine_grid_temporaries(ctx3, bent_b5_002):
    b5 = bent_b5_002
    fine_array = ctx3.fine.n * b5.theta_grid().size * 8
    strip_table = ctx3.x.size * b5.theta_grid().size * 8
    tracemalloc.start()
    try:
        layer = az._solve_phi4(b5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the strip-grid tables, the knot tables and the splines of one block of
    # rows peak at about 4 such arrays, whole-grid theta-splines at about 8,
    # and a right side formed at full width alone at about 20
    assert peak <= 5 * fine_array
    # the layer keeps 5 knot tables (val, dx, dxx, dth and dxdth); the
    # coefficients of three CubicSplines fill 12
    assert set(layer.knots) == {"val", "dx", "dxx", "dth", "dxdth"}
    assert held <= 6 * strip_table


def test_blocked_interior_residual_keeps_no_full_width_products(ctx3, bent_b5_002):
    b5 = bent_b5_002
    strip_array = ctx3.x.size * b5.z_grid.size * 8
    assert b5.z_grid.size > 2 * az._RESIDUAL_BLOCK
    tracemalloc.start()
    try:
        az.interior_residual(b5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # E, E11 and the full-width norms and projections take about 5 such
    # arrays and one block's chain rule about 2 more; the chain rule over all
    # sections at once takes about 36
    assert peak <= 10 * strip_array


def _one_pass_residual(bundle, z):
    """Reference: E from one block spanning all of z, then E11, norms and projections."""
    eps = bundle.eps
    ctx = bundle.ctx
    E = az._interior_block(bundle, az._Rows(bundle, eps * z))
    th = eps * z
    beta = bundle.coeffs.beta(th)[None, :]
    ev, evpp = bundle.state.e(th)[None, :], bundle.state.e.deriv(th, 2)[None, :]
    Z = ctx.tables["Z"][:, None]
    E11 = eps * ctx.lambda0 * ev * Z + eps**3 / beta**2 * evpp * Z
    hz = z[1] - z[0]
    wqz = simpson_weights(z.size, hz) if z.size % 2 == 1 else np.full(z.size, hz)
    if z.size % 2 == 0:
        wqz[0] = wqz[-1] = hz / 2.0
    return {
        "E": E,
        "E11": E11,
        "sup": float(np.max(np.abs(E))),
        "l2": float(np.sqrt(np.abs(np.sum(E**2 * ctx.wq[:, None] * wqz[None, :])))),
        "l2_E12": float(np.sqrt(np.abs(np.sum((E - E11) ** 2 * ctx.wq[:, None] * wqz[None, :])))),
        "proj_wx": ctx.integrate(E * ctx.tables["w_x"][:, None], axis=0),
        "proj_Z": ctx.integrate(E * ctx.tables["Z"][:, None], axis=0),
    }


def test_interior_residual_reads_each_row_once(bent_b5_002, monkeypatch):
    # one set of theta-only rows serves every block of the residual and E11
    b5 = bent_b5_002
    assert b5.z_grid.size > 2 * az._RESIDUAL_BLOCK
    counts = collections.Counter()
    missing = az._Rows.__missing__

    def counting(rows, name):
        counts[name] += 1
        return missing(rows, name)

    monkeypatch.setattr(az._Rows, "__missing__", counting)
    az.interior_residual(b5)
    monkeypatch.undo()
    assert {"xi", "zt", "fh", "alpha", "e", "epp"} <= set(counts)
    assert max(counts.values()) == 1, counts.most_common(3)


def test_strip_fields_at_one_section_are_that_column_of_the_full_width(ctx3, bent_chart, bent_field, sincos_state):
    # a tier-5 bent-channel bundle with an analytic h (the ring solution is
    # read by a matrix product, whose bits depend on the number of points);
    # at eps 0.01 both strip layers are exact zeros mid-channel, so there a
    # single section is a block of its own and the profile contraction
    # decides its bits; where the strip layers are live, a strip._Z_BLOCK
    # block of sections gets those of the full width
    h = geometry.ScalarFn(lambda th: 0.1 * th**2, d1=lambda th: 0.2 * th, d2=lambda th: 0.2 + 0.0 * th)
    state = az.ReducedState(f=sincos_state.f, e=sincos_state.e, h=h)
    b5 = az.assemble_ansatz(5, state, 0.01, ctx3, bent_chart, bent_field, h_from_state=True)
    z = b5.z_grid
    full = b5.strip_fields()
    zt = az._Rows(b5, b5.eps * z)["zt"]
    mid = [j for j in range(z.size) if b5.phi22.is_zero(zt[j : j + 1]) and b5.phi3.is_zero(zt[j : j + 1])]
    assert len(mid) > 10
    for j in mid[:: len(mid) // 4]:
        one = b5.strip_fields(z[j : j + 1])
        for key, value in full.items():
            assert np.array_equal(one[key][:, 0], value[:, j]), (j, key)
    block = slice(strip._Z_BLOCK, 2 * strip._Z_BLOCK)
    assert not b5.phi22.is_zero(zt[block])
    part = b5.strip_fields(z[block])
    for key, value in full.items():
        assert np.array_equal(part[key], value[:, block]), key


def test_tier5_bundle_and_report_are_freed_without_gc(ctx3, bent_chart, bent_field, bent_problem):
    # nothing a bundle holds refers back to it, so reference counting alone
    # frees it, its phi4 tables and its residual report
    gc.collect()
    gc.disable()
    try:
        b5 = az.assemble_ansatz(5, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
        rep = az.interior_residual(b5)
        az.boundary_residual(b5)
        refs = [weakref.ref(obj) for obj in (b5, b5.phi4, b5.phi22, rep)]
        del b5, rep
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_blocks_are_multiples_of_the_synthesis_block():
    # a block of the residual or the phi4 solve starts on a strip synthesis
    # block and spans whole ones, so its products are those of a full pass
    assert az._RESIDUAL_BLOCK % strip._Z_BLOCK == 0 and az._PHI4_BLOCK % strip._Z_BLOCK == 0


@pytest.mark.parametrize("z_count", [None, 9, 10])
def test_blocked_interior_residual_matches_one_pass(ctx3, bent_chart, bent_field, bent_problem, z_count, monkeypatch):
    # the default grid (81 sections) ends in a ragged block; 9 and 10
    # sections fit in a single block (odd and even counts)
    eps = 0.05
    st_e = az.state_from_callables(
        e=lambda th: np.cos(np.pi * np.asarray(th, dtype=float)) + 0.5,
        ep=lambda th: -np.pi * np.sin(np.pi * np.asarray(th, dtype=float)),
        epp=lambda th: -np.pi**2 * np.cos(np.pi * np.asarray(th, dtype=float)),
    )
    b5 = az.assemble_ansatz(5, st_e, eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    z = b5.z_grid if z_count is None else np.linspace(0.2 / eps, 0.8 / eps, z_count)
    if z_count is None:
        assert z.size > az._RESIDUAL_BLOCK and z.size % az._RESIDUAL_BLOCK != 0
    else:
        assert z.size < az._RESIDUAL_BLOCK
    syntheses = StripLayer._syntheses
    widths = []

    def recording(layer, zt):
        widths.append(np.atleast_1d(zt).size)
        return syntheses(layer, zt)

    monkeypatch.setattr(StripLayer, "_syntheses", recording)
    rep = az.interior_residual(b5, z=None if z_count is None else z)
    monkeypatch.undo()
    # each block reads the layers at its own sections only
    assert widths and max(widths) == min(z.size, az._RESIDUAL_BLOCK)
    ref = _one_pass_residual(b5, z)
    assert np.max(np.abs(ref["E11"])) > 0.0
    for key in ("E", "E11", "sup", "l2", "l2_E12", "proj_wx", "proj_Z"):
        assert np.array_equal(getattr(rep, key), ref[key]), key


def test_reduced_solutions_enter_the_state_as_they_are(ctx3, bent_chart, bent_field, bent_problem):
    # an FSolution/ESolution is a state function: it needs no adapter
    eps = 0.05
    f = rd.solve_f_problem(bent_problem, lambda t: 0.2 * np.cos(np.pi * np.asarray(t, dtype=float)), eps)
    e = rd.solve_e_problem(lambda t: 0.1 * np.sin(np.pi * np.asarray(t, dtype=float)), eps, 0.0, 0.0, 1.0, 0.0, 3.0)
    direct = az.ReducedState(f=f, e=e, h=az.zero_state().h)
    wrapped = az.state_from_callables(
        f=f, fp=lambda th: f.deriv(th, 1), fpp=lambda th: f.deriv(th, 2),
        e=e, ep=lambda th: e.deriv(th, 1), epp=lambda th: e.deriv(th, 2),
    )
    b_direct, b_wrapped = (
        az.assemble_ansatz(4, st, eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem) for st in (direct, wrapped)
    )
    z = np.linspace(0.2 / eps, 0.8 / eps, 9)
    fields = b_direct.strip_fields(z)
    assert np.max(np.abs(fields["v"])) > 0.0
    for key, value in b_wrapped.strip_fields(z).items():
        assert np.array_equal(fields[key], value), key
    assert np.array_equal(az.interior_residual(b_direct, z=z).E, az.interior_residual(b_wrapped, z=z).E)
    assert az.project_residual(b_direct).to_dict() == az.project_residual(b_wrapped).to_dict()


def test_phi4_knot_evaluators_match_the_spline(ctx3, bent_chart, bent_field, bent_problem):
    """The phi4 evaluators are SciPy's not-a-knot spline in theta, read from the knot tables.

    At the knots val, dx and dxx are the solved tables themselves and the
    theta derivatives agree with SciPy to roundoff; between knots every field
    is the same piecewise cubic.
    """
    b5 = az.assemble_ansatz(5, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    th = b5.theta_grid()
    mid = 0.5 * (th[1:] + th[:-1])
    layer, table = b5.phi4, az._phi4_tables(b5)
    spl = {key: CubicSpline(th, table[key], axis=1) for key in ("val", "dx", "dxx")}
    ref = {
        "val": lambda t: spl["val"](t),
        "dx": lambda t: spl["dx"](t),
        "dxx": lambda t: spl["dxx"](t),
        "dth": lambda t: spl["val"](t, 1),
        "d2th": lambda t: spl["val"](t, 2),
        "dxdth": lambda t: spl["dx"](t, 1),
    }
    assert set(layer) == set(ref)
    for key, fn in ref.items():
        at_knots = fn(th)
        scale = np.max(np.abs(at_knots))
        assert scale > 0.0, key
        if key in table:
            assert np.array_equal(layer[key](th), table[key]), key
        else:
            assert np.max(np.abs(layer[key](th) - at_knots)) <= 1e-13 * scale, key
        # between knots: the same piecewise cubic in Hermite form
        assert np.max(np.abs(layer[key](mid) - fn(mid))) <= 1e-12 * scale, key
    # knots and midpoints mixed in one call, in descending order
    knots, between = th[::4], mid[::3]
    got = layer["dth"](np.concatenate([knots, between])[::-1])
    assert np.array_equal(got[:, -knots.size :], layer["dth"](knots)[:, ::-1])
    assert np.max(np.abs(got[:, : between.size] - ref["dth"](between)[:, ::-1])) <= 1e-12 * np.max(np.abs(got))


def test_d2th_is_hermite_at_any_knots_bit_for_bit(bent_b5_002):
    # d2th has no table: it is the cubic of (val, dth) read through hermite,
    # and each knot reads only its own and its right neighbour's columns, so
    # any subset of knots reads the full grid's bits
    grid = bent_b5_002.theta_grid()
    layer = bent_b5_002.phi4
    assert "d2th" not in layer.knots
    want = hermite(grid, layer.knots["val"].T, layer.knots["dth"].T, grid, 2).T
    assert np.array_equal(layer["d2th"](grid), want)
    for cols in (slice(0, 32), slice(grid.size - 5, None), [grid.size - 1, 0, 7]):
        assert np.array_equal(layer["d2th"](grid[cols]), want[:, cols])


def test_dxx_slope_is_formed_on_the_first_read_between_knots(ctx3, bent_chart, bent_field, bent_problem):
    b5 = az.assemble_ansatz(5, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    th = b5.theta_grid()
    mid = 0.5 * (th[1:] + th[:-1])
    layer = b5.phi4
    knots = layer.knots
    for key in layer:
        layer[key](th)
    assert "dxxdth" not in knots
    layer["dx"](mid)  # a slope of its own
    assert "dxxdth" not in knots
    got = layer["dxx"](mid)
    # the table the knot set kept before, from the same values
    want = spline_slopes(th, knots["dxx"].T).T
    assert np.array_equal(knots["dxxdth"], want)
    assert np.array_equal(got, hermite(th, knots["dxx"].T, want.T, mid).T)
    kept = knots["dxxdth"]
    layer["dxx"](mid[::2])
    assert knots["dxxdth"] is kept


def test_bent_channel_run_forms_no_dxx_slope(tmp_path, monkeypatch):
    # the harness reads the phi4 layers only at the knots of the theta grid
    layers = []

    class Recorded(az._Phi4Fields):
        def __init__(self, *args):
            super().__init__(*args)
            layers.append(self)

    monkeypatch.setattr(az, "_Phi4Fields", Recorded)
    res = harness.run_scenario("bent-channel", str(tmp_path), stages=("profiles", "ansatz"))
    assert res.summary["stages"]["ansatz"]["passed"]
    assert len(layers) == 1
    assert set(layers[0].knots) == {"val", "dx", "dxx", "dth", "dxdth"}


def test_seed_value_matches_the_full_strip_fields(ctx3, bent_chart, bent_field, bent_problem):
    b5 = az.assemble_ansatz(5, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    for z in (b5.z_grid[3:4], np.array([0.37 / b5.eps])):
        value = b5.strip_fields(z, derivs=False)
        assert set(value) == {"v"}
        assert np.array_equal(value["v"], b5.strip_fields(z)["v"])


def test_parity_of_correction_layers(ctx3, bent_chart, bent_field, bent_problem):
    eps = 0.05
    b5 = az.assemble_ansatz(5, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    z = np.array([0.25 / eps])
    # phi22 and phi3 even in x; phi4 splits into even and odd solves
    if b5.phi22 is not None:
        q = b5.phi22.value(b5.field.arc(eps * z) / eps)
        assert np.max(np.abs(q - q[::-1])) < 1e-9 * max(np.max(np.abs(q)), 1e-300)
    if b5.phi3 is not None:
        m = b5.phi3.value(b5.field.arc(eps * z) / eps)
        assert np.max(np.abs(m - m[::-1])) < 1e-9 * max(np.max(np.abs(m)), 1e-300)
    # phi4 is one solve of the summed right side; the solve keeps parity, so
    # the even and odd parts in x of the layer are the solutions of those
    # of its right side, and the curved channel has both
    th = b5.theta_grid()[5:6]
    v = b5.phi4["val"](th)[:, 0]
    rhs = phi4_rhs(b5, az._Rows(b5, th), slice(None))
    for sign in (1.0, -1.0):
        part = az._phi4_solve(ctx3, 0.5 * (rhs + sign * rhs[::-1]))["val"][:, 0]
        scale = np.max(np.abs(part))
        assert scale > 1e-2 * np.max(np.abs(v))
        assert np.max(np.abs(part - sign * part[::-1])) < 1e-8 * scale
        assert np.max(np.abs(part - 0.5 * (v + sign * v[::-1]))) < 1e-10 * scale


def test_degenerate_ring_refusal(ctx3, disk_chart):
    def Vdisk(t, th):
        t = np.asarray(t, dtype=float)
        Theta = disk_chart.Theta(t, np.asarray(th, dtype=float))
        return 1.0 + t**2 + (Theta - 0.5) ** 2

    field = gd.build_potential(3.0, Vdisk, span=(-0.04, 1.04))
    with pytest.raises(rd.DegenerateOperatorError):
        az.assemble_ansatz(3, az.zero_state(), 0.05, ctx3, disk_chart, field)
    # prescribing the ring correction bypasses the solve
    bundle = az.assemble_ansatz(3, az.zero_state(), 0.05, ctx3, disk_chart, field, h_from_state=True)
    assert bundle.phi22 is not None
    with pytest.raises(ValueError):
        az.assemble_ansatz(6, az.zero_state(), 0.05, ctx3, disk_chart, field, h_from_state=True)


def test_window_support_and_smoothness(ctx3, flat_chart, flat_field):
    b2 = az.assemble_ansatz(2, az.zero_state(), 0.05, ctx3, flat_chart, flat_field)
    t = np.array([-6.0 * b2.delta - 0.01, 6.0 * b2.delta + 0.01])
    assert np.max(np.abs(b2.W_eval(t, 0.4))) == 0.0
    ts = np.linspace(2.0 * b2.delta, 6.5 * b2.delta, 400)
    vals = b2.W_eval(ts, 0.4)
    d2 = np.diff(vals, 2)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(d2)) < 1e-3  # C^2 bridge: no kinks at the seams


def test_projection_reports(ctx3, flat_chart, flat_field, sincos_state):
    eps = 0.05
    b5 = az.assemble_ansatz(5, sincos_state, eps, ctx3, flat_chart, flat_field)
    rep = az.interior_residual(b5)
    proj = az.project_residual(b5, rep)
    assert proj.rel_dev_wx <= 0.15
    assert proj.rel_dev_Z <= 0.15
    # pure-amplitude configuration: leading term eps lam0 cos(pi theta)
    st_e = az.state_from_callables(
        e=lambda th: np.cos(np.pi * np.asarray(th, dtype=float)),
        ep=lambda th: -np.pi * np.sin(np.pi * np.asarray(th, dtype=float)),
        epp=lambda th: -np.pi**2 * np.cos(np.pi * np.asarray(th, dtype=float)),
    )
    be = az.assemble_ansatz(5, st_e, eps, ctx3, flat_chart, flat_field)
    pe = az.project_residual(be)
    assert pe.rel_dev_Z <= 0.10
    ratio = np.max(np.abs(pe.measured_Z)) / (eps * ctx3.lambda0)
    assert abs(ratio - 1.0) < 0.1
    # trivial configuration: both projections collapse to higher order
    b20 = az.assemble_ansatz(2, az.zero_state(), eps, ctx3, flat_chart, flat_field)
    r20 = az.interior_residual(b20)
    assert np.max(np.abs(r20.proj_wx)) < 10.0 * eps**3
    assert np.max(np.abs(r20.proj_Z)) < 2.0 * eps**2


def test_boundary_residual_leading_terms(ctx3, flat_chart, flat_field, sincos_state):
    eps = 0.05
    b5 = az.assemble_ansatz(5, sincos_state, eps, ctx3, flat_chart, flat_field)
    bnd = az.boundary_residual(b5)
    rho1 = float(ctx3.integrate(ctx3.tables["w_x"] ** 2))
    # int g0 w_x = -eps beta(0) f'(0) rho1 + O(eps^2)
    expect0 = -eps * np.pi * rho1
    assert abs(bnd.proj_wx[0] - expect0) < 10.0 * eps**2
    expect1 = -eps * (-np.pi) * rho1
    assert abs(bnd.proj_wx[1] - expect1) < 10.0 * eps**2
    # int g0 Z = eps^2 [b5 e(0)/2 + (alpha'/alpha)(0) e(0) + e'(0)] + O(eps^3)
    assert abs(bnd.proj_Z[0] - eps**2 * 0.0) < 20.0 * eps**3


def test_boundary_z_projection_with_active_ring(ctx3, bent_chart, bent_field, bent_problem):
    eps = 0.05
    st_e = az.state_from_callables(
        e=lambda th: np.cos(np.pi * np.asarray(th, dtype=float)) + 0.5,
        ep=lambda th: -np.pi * np.sin(np.pi * np.asarray(th, dtype=float)),
        epp=lambda th: -np.pi**2 * np.cos(np.pi * np.asarray(th, dtype=float)),
    )
    b4 = az.assemble_ansatz(4, st_e, eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    bnd = az.boundary_residual(b4)
    co = b4.coeffs
    e0 = float(st_e.e(0.0))
    ep0 = float(st_e.e.deriv(0.0, 1))
    pred = eps**2 * (0.5 * co.b5 * e0 + float(co.alpha.deriv(0.0, 1) / co.alpha(0.0)) * e0 + ep0)
    assert abs(bnd.proj_Z[0] - pred) < 0.35 * max(abs(pred), eps**2)
    e1 = float(st_e.e(1.0))
    ep1 = float(st_e.e.deriv(1.0, 1))
    pred1 = eps**2 * (0.5 * co.b6 * e1 + float(co.alpha.deriv(1.0, 1) / co.alpha(1.0)) * e1 + ep1)
    assert abs(bnd.proj_Z[1] - pred1) < 0.35 * max(abs(pred1), eps**2)


def test_two_way_residual_crosscheck(ctx3, flat_chart, flat_field, sincos_state, bent_chart, bent_field, bent_problem):
    eps = 0.05
    b5 = az.assemble_ansatz(5, sincos_state, eps, ctx3, flat_chart, flat_field)
    dev_h = residual_crosscheck(b5, h=eps * 4e-3)
    dev_h2 = residual_crosscheck(b5, h=eps * 2e-3)
    # second-order stencils: deviation falls with the step (or is tiny already)
    assert dev_h2 < max(0.5 * dev_h, 2e-3)
    b3 = az.assemble_ansatz(3, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    assert residual_crosscheck(b3) < 0.02


def test_norm_definitions(sincos_state):
    st = sincos_state
    assert abs(st.norm_star() - (1.0 + np.pi + np.pi**2 / np.sqrt(2.0))) < 1e-6
    eps = 0.1
    expect = 1.0 + eps * np.pi / np.sqrt(2.0) + eps**2 * np.pi**2 / np.sqrt(2.0)
    assert abs(st.norm_dstar(eps) - expect) < 1e-6
    h0, h1 = st.robin_residuals(0.0, 0.0)
    assert h0 == 0.0 and h1 == 0.0


def _sixth_order(values, h, order):
    """Sixth-order central differences along axis 0, without the three points at each end."""
    if order == 1:
        weights = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    else:
        weights = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h**2)
    n = values.shape[0]
    return sum(wk * values[3 + k : n - 3 + k] for k, wk in zip(range(-3, 4), weights))


@pytest.fixture(scope="module")
def fields_by_tier(ctx3, bent_chart, bent_field, bent_problem, flat_chart, sincos_state):
    """strip_fields of each tier at eps 0.05, with sixth-order differences of v and v_x.

    "bent" is bent-channel. On "graded", a straight channel whose potential
    grows along the curve, beta(0) != beta(1), so the cutoff xi turns; the
    ring correction is taken from the state there. The sections sit
    mid-interval of the theta grid: near both ends, in the middle, and where
    xi turns while the far-end strip layers are still felt. The z stencils
    stay between the knots of the phi4 tables, where those are one cubic in
    theta.
    """
    eps, hz = 0.05, 0.01
    out = {}
    for case in ("bent", "graded"):
        if case == "bent":
            chart, field, kw = bent_chart, bent_field, {"reduced_problem": bent_problem}
        else:
            V = lambda t, th: (1.0 + np.asarray(t, dtype=float) ** 2) * (1.0 + 0.5 * np.asarray(th, dtype=float))
            chart, field, kw = flat_chart, gd.build_potential(3.0, V), {"h_from_state": True}
        for tier in range(1, 6):
            b = az.assemble_ansatz(tier, sincos_state, eps, ctx3, chart, field, **kw)
            dz = b.z_grid[1] - b.z_grid[0]
            z0 = b.z_grid[[2, b.z_grid.size // 2, int(0.7 * b.z_grid.size), -4]] + 0.5 * dz
            F = b.strip_fields(z0)
            stencil = b.strip_fields((z0[None, :] + hz * np.arange(-3, 4)[:, None]).ravel())
            v, vx = (stencil[key].reshape(-1, 7, z0.size).transpose(1, 0, 2) for key in ("v", "vx"))
            diffs = {
                "vx": _sixth_order(F["v"], ctx3.hx, 1),
                "vxx": _sixth_order(F["v"], ctx3.hx, 2),
                "vz": _sixth_order(v, hz, 1)[0],
                "vzz": _sixth_order(v, hz, 2)[0],
                "vxz": _sixth_order(vx, hz, 1)[0],
            }
            out[case, tier] = ({key: F[key][3:-3] if key in ("vx", "vxx") else F[key] for key in diffs}, diffs)
    return out


# relative bounds of each partial against the differences; the strip layers'
# v_xx is the three-point second difference of their x eigenbasis, which
# differs from d_xx by (hx^2 / 12) d_x^4
_PARTIAL_RTOL = {"vx": 1e-6, "vxx": 5e-3, "vz": 1e-6, "vzz": 1e-6, "vxz": 1e-6}


@pytest.mark.parametrize("case", ["bent", "graded"])
@pytest.mark.parametrize("tier", range(1, 6))
def test_strip_field_partials_match_differences_of_v(fields_by_tier, case, tier):
    # each tier is checked on what it adds to the tier below, so a layer is
    # held to its own size
    partials, diffs = fields_by_tier[case, tier]
    below = fields_by_tier.get((case, tier - 1), ({key: 0.0 for key in diffs}, {key: 0.0 for key in diffs}))
    for key, rtol in _PARTIAL_RTOL.items():
        added = partials[key] - below[0][key]
        err = np.max(np.abs(added - (diffs[key] - below[1][key])))
        assert err <= rtol * np.max(np.abs(added)) + 1e-10, (key, err, np.max(np.abs(added)))


def test_layers_are_a_prefix_by_tier(ctx3, bent_chart, bent_field, bent_problem, sincos_state):
    kinds = []
    for tier in range(1, 6):
        b = az.assemble_ansatz(tier, sincos_state, 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
        kinds.append([type(layer) for layer in b.layers])
        # below tier 4 the amplitude term is off: e is zero in every consumer
        e_zero = not np.any(b.state.e(np.linspace(0.0, 1.0, 11)))
        assert e_zero == (tier < 4)
    assert [len(k) for k in kinds] == [1, 3, 5, 7, 8]
    for lower, upper in zip(kinds, kinds[1:]):
        assert upper[: len(lower)] == lower


@pytest.mark.parametrize("case", ["bent", "graded"])
@pytest.mark.parametrize("tier", [1, 3, 5])
def test_chain_rule_at_the_end_sections_matches_differences_of_W(ctx3, bent_chart, bent_field, bent_problem, flat_chart, case, tier):
    # the boundary residual reads U_t and U_theta at theta = 0 and 1 from the
    # interior's chain rule; W_eval is the independent oracle (the stencils in
    # theta reach past the ends, where every theta-function is still defined).
    # bent-channel has beta(0) = beta(1) = 1; on "graded", a straight channel
    # whose potential grows along the curve, beta(1) = 1.5^(1/2)
    eps = 0.05
    if case == "bent":
        chart, field, kw = bent_chart, bent_field, {"reduced_problem": bent_problem}
    else:
        V = lambda t, th: (1.0 + np.asarray(t, dtype=float) ** 2) * (1.0 + 0.5 * np.asarray(th, dtype=float))
        chart, field, kw = flat_chart, gd.build_potential(3.0, V), {"h_from_state": True}
    b = az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, chart, field, **kw)
    rows = az._Rows(b, np.array([0.0, 1.0]))
    t, _, U_t, U_th, *_ = az._chain_rule(b, rows)
    sel = np.flatnonzero(np.abs(ctx3.x) <= 4.0 + 1e-9)[::10]
    assert sel.size == 17
    # scales over both ends: on bent-channel U_theta vanishes at theta = 0, where V'(0) = 0
    scale_t, scale_th = np.max(np.abs(U_t[sel])), np.max(np.abs(U_th[sel]))
    h = eps * 1e-3
    for j, th in enumerate((0.0, 1.0)):
        ts = t[sel, j]
        err_t = np.max(np.abs((b.W_eval(ts + h, th) - b.W_eval(ts - h, th)) / (2.0 * h) - U_t[sel, j]))
        err_th = np.max(np.abs((b.W_eval(ts, th + h) - b.W_eval(ts, th - h)) / (2.0 * h) - U_th[sel, j]))
        # second-order stencils: up to 7.7e-7 of the partials' scale at this
        # step, 2.1e-6 on bent-channel at twice it; U_theta is 20-10000 times
        # smaller than U_t and is also held to its own scale (up to 6.9e-5, at
        # tier 3 where the boundary layer cancels most of it)
        assert max(err_t, err_th) <= 2e-6 * max(scale_t, scale_th)
        assert err_th <= 2e-4 * scale_th


def test_context_builds_its_bases_on_first_read(bent_chart, bent_field, bent_problem, monkeypatch):
    ctx = az.build_strip_context(3.0)
    calls = []  # eigendecompositions after the profiles, which use their own
    eigh = sla.eigh_tridiagonal
    monkeypatch.setattr(sla, "eigh_tridiagonal", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    lazy = {"basis_t", "basis_m", "phi4_profiles", "ring_modes"}
    eps = 0.04
    mesh = pde.chart_mesh(bent_chart, pde.graded_nodes(eps, bent_chart.delta0), np.linspace(0.0, 1.0, 9), bent_field)
    az.assemble_ansatz(2, az.zero_state(), eps, ctx, bent_chart, bent_field, h_from_state=True).W_on_mesh(mesh)
    assert not lazy & set(vars(ctx)) and not calls
    az.assemble_ansatz(3, az.zero_state(), eps, ctx, bent_chart, bent_field, reduced_problem=bent_problem)
    assert "basis_t" in vars(ctx) and not {"basis_m", "phi4_profiles"} & set(vars(ctx))
    # one decomposition: the massive basis is the translated one shifted by 1 - k_tilde
    assert ctx.basis_m.E is ctx.basis_t.E
    assert np.array_equal(ctx.basis_m.mu, ctx.basis_t.mu - (ctx.basis_m.shift - 1.0))
    assert len(calls) == 1


def test_phi3_on_the_shared_basis_matches_a_separate_decomposition(ctx3, bent_chart, bent_field, bent_problem):
    # oracle: the massive cross-section operator decomposed on its own
    b4 = az.assemble_ansatz(4, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    bm = ctx3.basis_m
    x, hx = bm.x, bm.hx
    diag = -2.0 / hx**2 - bm.shift + bm.p * bm.w[1:-1] ** (bm.p - 1.0)
    mu, u = sla.eigh_tridiagonal(diag, np.full(x.size - 3, 1.0 / hx**2))
    E = np.zeros((x.size, mu.size))
    E[1:-1] = u / np.sqrt(hx)
    separate = dataclasses.replace(bm, mu=mu, E=E)
    alone = solve_strip_layer(separate, *az._end_columns(az._phi3_data(b4)), b4.phi3.L)
    z = np.linspace(0.0, b4.phi3.L, 13)
    for name in ("value", "dz"):
        ref = getattr(alone, name)(z)
        assert np.max(np.abs(getattr(b4.phi3, name)(z) - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_projection_deviations_at_the_zero_state(ctx3, bent_chart, bent_field, bent_problem):
    # f = e = 0 makes both predictions vanish: only the absolute deviations stay finite
    b3 = az.assemble_ansatz(3, az.zero_state(), 0.05, ctx3, bent_chart, bent_field, reduced_problem=bent_problem)
    proj = az.project_residual(b3)
    assert not np.any(proj.predicted_wx) and not np.any(proj.predicted_Z)
    assert proj.abs_dev_wx == float(np.sqrt(np.mean(proj.measured_wx**2))) > 0.0
    assert proj.abs_dev_Z == float(np.sqrt(np.mean(proj.measured_Z**2))) > 0.0
    assert proj.rel_dev_wx > 1e250
    assert set(proj.to_dict()) == {"eps", "abs_dev_wx", "abs_dev_Z", "rel_dev_wx", "rel_dev_Z", "rel_dev_Z_displayed"}


def test_one_ring_solve_per_eps_and_context(ctx3, bent_chart, bent_field, sincos_state, monkeypatch):
    calls = []
    solve = rd.solve_f_problem

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rd, "solve_f_problem", counting)
    problem = rd.ReducedProblem(bent_chart, bent_field, ctx3.lambda0, j_max=80)
    eps = 0.05
    bundles = [
        az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=problem)
        for tier in (3, 4, 5)
    ]
    assert calls == [eps]
    h = bundles[0].h_solution
    assert h is not None and all(b.h_solution is h for b in bundles)
    # the kept h is the one a fresh problem solves
    fresh = rd.ReducedProblem(bent_chart, bent_field, ctx3.lambda0, j_max=80)
    h_fresh = az.assemble_ansatz(3, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=fresh).h_solution
    assert len(calls) == 2
    for key in ("values", "d1", "d2"):
        assert np.array_equal(getattr(h, key), getattr(h_fresh, key)), key
    # the sources do not read the state: another f at the same eps reuses h
    b4 = az.assemble_ansatz(4, sincos_state, eps, ctx3, bent_chart, bent_field, reduced_problem=problem)
    assert len(calls) == 2 and b4.h_solution is h
    # h_from_state solves nothing
    az.assemble_ansatz(4, b4.state, eps, ctx3, bent_chart, bent_field, reduced_problem=problem, h_from_state=True)
    assert len(calls) == 2
    # another eps, or another strip context, solves again
    az.assemble_ansatz(3, az.zero_state(), 0.04, ctx3, bent_chart, bent_field, reduced_problem=problem)
    other = az.build_strip_context(3.0)
    az.assemble_ansatz(3, az.zero_state(), 0.04, other, bent_chart, bent_field, reduced_problem=problem)
    assert calls == [eps, eps, 0.04, 0.04]


def test_ring_sources_are_read_once_on_the_ring_grid(ctx3, bent_chart, bent_field, flat_chart, flat_field, monkeypatch):
    # the sources are evaluated once, on the ring solve's own grid, and that
    # one evaluation is both tested for zero and solved with; on the straight
    # channel it is zero and nothing is solved
    seen, solves = [], []
    sources, solve = az._h_sources, rd.solve_f_problem
    monkeypatch.setattr(az, "_h_sources", lambda bundle, rows, weights: seen.append(rows.th) or sources(bundle, rows, weights))
    monkeypatch.setattr(rd, "solve_f_problem", lambda *a, **k: solves.append(a[1]) or solve(*a, **k))
    for chart, field in ((bent_chart, bent_field), (flat_chart, flat_field)):
        problem = rd.ReducedProblem(chart, field, ctx3.lambda0, j_max=60)
        seen.clear(), solves.clear()
        az.assemble_ansatz(3, az.zero_state(), 0.05, ctx3, chart, field, reduced_problem=problem)
        assert len(seen) == 1 and seen[0] is problem.ring.theta
        assert len(solves) == (chart is bent_chart)
        assert all(g.shape == problem.ring.theta.shape for g in solves)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_straight_channel_ring_takes_the_zero_shortcut(ctx3, bent_chart, bent_field, flat_chart, flat_field, eps, monkeypatch):
    # on the straight channel k = 0, so the right side g of the ring problem
    # is an exact zero while alpha1 carries the roundoff of the resonance
    # amplitude; the zero ring correction needs no solve. The bent channel
    # (max|alpha1| 1.4-2.8) still solves.
    solves = []
    solve = rd.solve_f_problem
    monkeypatch.setattr(rd, "solve_f_problem", lambda *a, **k: solves.append(a[1]) or solve(*a, **k))
    for chart, field in ((flat_chart, flat_field), (bent_chart, bent_field)):
        problem = rd.ReducedProblem(chart, field, ctx3.lambda0, j_max=60)
        solves.clear()
        b = az.assemble_ansatz(3, az.zero_state(), eps, ctx3, chart, field, reduced_problem=problem)
        rows = az._Rows(b, problem.ring.theta)
        alpha1, _, terms = az._h_sources(b, rows, az._h_weights(ctx3, b.phi22))
        if chart is flat_chart:
            assert 0.0 < np.max(np.abs(alpha1)) < 1e-10 and not np.any(terms)
            assert solves == [] and b.h_solution is None
        else:
            assert np.max(np.abs(alpha1)) > 1.0
            assert len(solves) == 1 and b.h_solution is not None


def test_failing_ledger_is_refused_after_a_kept_ring_solve(ctx3, bent_chart, bent_field):
    problem = rd.ReducedProblem(bent_chart, bent_field, ctx3.lambda0, j_max=80)
    eps = 0.05
    failing = dataclasses.replace(rd.gap_check(eps, 0.5, ctx3.lambda0, bent_field.ell), passes=False)
    az.assemble_ansatz(3, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=problem)
    assert problem.last_ring is not None
    with pytest.raises(rd.GapError):
        az.assemble_ansatz(4, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=problem, ledger=failing)
