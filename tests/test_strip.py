import numpy as np
import pytest
from scipy.integrate import solve_bvp

from curvelayers import strip as st
from curvelayers.profiles import ground_state, lambda0_closed_form
from curvelayers.util import fd_first_axis


@pytest.fixture(scope="module")
def bases():
    x = np.linspace(-20.0, 20.0, 801)
    bt = st.build_strip_basis(3.0, x)
    return bt, bt.massive(25.0)


def test_spectrum_structure(bases):
    bt, bm = bases
    assert abs(bt.mu[bt.idx_resonant] - lambda0_closed_form(3.0)) < 5e-3
    assert bt.idx_zero.size == 1
    assert abs(bt.mu[bt.idx_zero[0]]) < 1e-2
    others = np.setdiff1d(np.arange(bt.mu.size), np.append(bt.idx_zero, bt.idx_resonant))
    assert np.max(bt.mu[others]) < -0.9
    # massive spectrum shifted down by (k_tilde - 1) from the translated one
    assert np.max(bm.mu) < -(25.0 - 1.0 - lambda0_closed_form(3.0)) + 0.01
    # modes orthonormal in the discrete L2
    sel = bt.E[:, -6:]
    gram = bt.hx * sel.T @ sel
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_zero_data(bases):
    bt, _ = bases
    lay = st.solve_strip_layer(bt, np.zeros_like(bt.x), np.zeros_like(bt.x), 10.0)
    assert np.max(np.abs(lay.value(np.linspace(0, 10, 5)))) == 0.0


def test_single_mode_analytic(bases):
    bt, _ = bases
    k = bt.idx_resonant - 3
    mu = bt.mu[k]
    lay = st.solve_strip_layer(bt, bt.E[:, k].copy(), np.zeros_like(bt.x), 8.0, drop_tol=1e-4)
    zs = np.array([0.0, 1.7, 8.0])
    nu = np.sqrt(-mu)
    c_exact = -np.cosh(nu * (8.0 - zs)) / (nu * np.sinh(nu * 8.0))
    assert np.max(np.abs(lay.value(zs) - bt.E[:, [k]] * c_exact[None, :])) < 1e-8
    assert np.max(np.abs(lay.pde_residual(np.array([0.4, 4.0])))) < 1e-10
    assert lay.boundary_mismatch(bt.E[:, k], np.zeros_like(bt.x)) < 1e-10


def test_generic_even_data_and_oracle(bases):
    bt, _ = bases
    x = bt.x
    w, w_x, _ = ground_state(3.0, x)
    raw = x * w_x
    c0 = bt.project(raw)[bt.idx_resonant]
    data0 = raw - c0 * bt.E[:, bt.idx_resonant]
    data1 = 0.6 * data0
    lay = st.solve_strip_layer(bt, data0, data1, 12.0)
    assert np.max(np.abs(lay.pde_residual(np.array([3.0, 6.0])))) < 1e-10
    assert lay.boundary_mismatch(data0, data1) < 1e-6
    # per-mode oracle: an independent two-point BVP integrator
    kk = bt.idx_resonant - 5
    muk = bt.mu[kk]
    d0k, d1k = bt.project(data0)[kk], bt.project(data1)[kk]
    sol = solve_bvp(
        lambda z, y: np.vstack([y[1], -muk * y[0]]),
        lambda ya, yb: np.array([ya[1] - d0k, yb[1] - d1k]),
        np.linspace(0, 12, 400),
        np.zeros((2, 400)),
        tol=1e-11,
    )
    zp = np.linspace(0.0, 12.0, 7)
    row = int(np.nonzero(np.where(lay.active)[0] == kk)[0][0])
    assert np.max(np.abs(lay._coefs(zp)[0][row] - sol.sol(zp)[0])) < 1e-8
    # x-decay comparable to the profile decay near the data-carrying end
    assert lay.decay_rate(z_frac=0.05, x_window=(4.0, 9.0)) > 0.7


def test_evaluators_match_a_fresh_layer(bases):
    bt, _ = bases
    x = bt.x
    w, w_x, _ = ground_state(3.0, x)
    raw = x * w_x
    data0 = raw - bt.project(raw)[bt.idx_resonant] * bt.E[:, bt.idx_resonant]
    names = ("value", "dx", "dxx", "dz", "dxz", "dzz")
    lay = st.solve_strip_layer(bt, data0, 0.6 * data0, 12.0)

    def check(z):
        got = [getattr(lay, name)(z) for name in names]
        for name, g in zip(names, got):
            fresh = st.solve_strip_layer(bt, data0, 0.6 * data0, 12.0)
            assert np.array_equal(g, getattr(fresh, name)(z)), name

    z = np.linspace(0.0, 12.0, 9)
    check(z)
    z *= 0.5  # in place: the same array object now holds other points
    check(z)
    check(np.linspace(1.0, 11.0, 9))


EVALUATORS = ("value", "dx", "dxx", "dz", "dxz", "dzz")


def _layer(basis, L=9.0):
    w_x = ground_state(3.0, basis.x)[1]
    data = basis.x * w_x
    if basis.idx_resonant is not None:
        data = data - basis.project(data)[basis.idx_resonant] * basis.E[:, basis.idx_resonant]
    return st.solve_strip_layer(basis, data, -0.4 * data, L)


@pytest.mark.parametrize("variant", [0, 1], ids=["translated", "massive"])
def test_evaluators_match_table_products(bases, variant):
    b = bases[variant]
    lay = _layer(b)
    z = np.linspace(0.0, 9.0, 7)
    act = lay.active
    c, cp = lay._coefs(z)
    # the mode tables: E, its x-slope and, column by column, its exact x-curvature
    E = b.E[:, act]
    E_x = fd_first_axis(E, b.hx)
    E_xx = (b.shift + b.mu[act])[None, :] * E - b.p * b.w[:, None] ** (b.p - 1.0) * E
    ref = {
        "value": E @ c,
        "dx": E_x @ c,
        "dxx": E_xx @ c,
        "dz": E @ cp,
        "dxz": E_x @ cp,
        "dzz": E @ (-b.mu[act][:, None] * c),
    }
    for name in EVALUATORS:
        got = getattr(lay, name)(z)
        assert np.max(np.abs(got - ref[name])) <= 1e-12 * np.max(np.abs(ref[name])), name


def test_evaluator_results_do_not_alias(bases):
    lay = _layer(bases[0])
    z = np.linspace(0.0, 9.0, 5)
    for name in EVALUATORS:
        first = getattr(lay, name)(z)
        kept = first.copy()
        first += 1.0
        assert np.array_equal(getattr(lay, name)(z), kept), name


def test_refusals(bases):
    bt, bm = bases
    x = bt.x
    w, w_x, _ = ground_state(3.0, x)
    Z_like = bt.E[:, bt.idx_resonant]
    with pytest.raises(st.StripDataError):
        st.solve_strip_layer(bt, Z_like.copy(), np.zeros_like(x), 5.0)
    with pytest.raises(st.StripDataError):
        st.solve_strip_layer(bt, w_x.copy(), np.zeros_like(x), 5.0)  # translation mode
    # massive variant takes either happily
    lay = st.solve_strip_layer(bm, x * w_x, -0.3 * x * w_x, 9.0)
    assert np.max(np.abs(lay.pde_residual(np.array([2.0, 7.0])))) < 1e-10


def test_long_strip_stability(bases):
    bt, _ = bases
    x = bt.x
    w, w_x, _ = ground_state(3.0, x)
    raw = x * w_x
    data = raw - (bt.project(raw)[bt.idx_resonant]) * bt.E[:, bt.idx_resonant]
    lay = st.solve_strip_layer(bt, data, data, 400.0)
    v = lay.value(np.array([0.0, 200.0, 400.0]))
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v[:, 1])) < 1e-10  # mid-strip decay of cosh layers
    # underflowed mode tails are exact zeros, never subnormal numbers
    z = np.linspace(0.0, 400.0, 41)
    for c in lay._coefs(z):
        c = np.abs(c)
        assert not np.any((c > 0.0) & (c < np.finfo(float).tiny))


@pytest.mark.parametrize("variant", [0, 1], ids=["translated", "massive"])
def test_mode_tables_match_the_cosh_form(bases, variant):
    b = bases[variant]
    lay = _layer(b)
    L, act = lay.L, lay.active
    nu = np.sqrt(-b.mu[act])[:, None]
    d0, d1 = lay.d0[act][:, None], lay.d1[act][:, None]
    # moderate L: nu L is at most about 360, so cosh and sinh stay finite
    z = np.linspace(0.0, L, 37)[None, :]
    c_ref = (d1 * np.cosh(nu * z) - d0 * np.cosh(nu * (L - z))) / (nu * np.sinh(nu * L))
    cp_ref = (d1 * np.sinh(nu * z) + d0 * np.sinh(nu * (L - z))) / np.sinh(nu * L)
    for order, ref in enumerate((c_ref, cp_ref)):
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(lay._coefs(z[0])[order] - ref) <= 1e-13 * scale), order
    # large L: an entry whose cosh-form size is below the smallest normal
    # number (a log-space bound of its two exponentials) is an exact zero,
    # and every other entry is normal
    L = 400.0
    far = _layer(b, L)
    z = np.linspace(0.0, L, 81)[None, :]
    with np.errstate(divide="ignore"):
        log_d0, log_d1 = np.log(np.abs(far.d0[act]))[:, None], np.log(np.abs(far.d1[act]))[:, None]
    log_size = np.logaddexp(log_d1 - nu * (L - z), log_d0 - nu * z)
    log_tiny = np.log(np.finfo(float).tiny)
    for order, log_bound in enumerate((log_size - np.log(nu), log_size)):
        c = np.abs(far._coefs(z[0])[order])
        below = log_bound < log_tiny - 1.0
        assert np.any(below) and np.all(c[below] == 0.0), order
        assert np.all((c == 0.0) | (c >= np.finfo(float).tiny)), order


@pytest.mark.parametrize("variant", [0, 1], ids=["translated", "massive"])
def test_column_reads_match_full_width(bases, variant):
    # a block of z aligned to _Z_BLOCK synthesizes by the products of a full
    # pass over z: bitwise the columns of the full result, a ragged last
    # block included
    lay = _layer(bases[variant])
    z = np.linspace(0.0, 9.0, 3 * st._Z_BLOCK + 5)
    for name in EVALUATORS:
        full = getattr(lay, name)(z)
        for width in (st._Z_BLOCK, 2 * st._Z_BLOCK):
            for start in range(0, z.size, width):
                cols = slice(start, start + width)
                block = getattr(lay, name)(z[cols])
                assert np.array_equal(block, full[:, cols]), (name, cols)
                block += 1.0
                assert np.array_equal(getattr(lay, name)(z[cols]), full[:, cols]), (name, cols)


def test_massive_basis_shares_the_translated_eigenvectors(bases):
    bt, bm = bases
    assert bm.E is bt.E
    assert np.array_equal(bm.mu, bt.mu - (25.0 - 1.0))
    assert bt.shift == 1.0 and bt.idx_resonant is not None and bt.idx_zero.size == 1
    assert bm.idx_resonant is None and bm.idx_zero.size == 0 and bm.shift == 25.0
    with pytest.raises(RuntimeError, match="not negative definite"):
        bt.massive(1.0)


@pytest.fixture(scope="module")
def bent_layers_001(ctx3, bent_chart, bent_field):
    """The phi22 (translated) and phi3 (massive) layers of a bent-channel eps 0.01
    bundle with the strip points zt of its theta grid."""
    from curvelayers import ansatz as az

    b4 = az.assemble_ansatz(4, az.zero_state(), 0.01, ctx3, bent_chart, bent_field, h_from_state=True)
    zt = az._Rows(b4, b4.theta_grid())["zt"]
    return {"phi22": b4.phi22, "phi3": b4.phi3}, zt


def _untruncated_products(lay, z):
    """Reference: every active mode's two exponentials at every z, then v = E c,
    v_z = E c' and m = E (mu c) over all active modes."""
    b, act = lay.basis, lay.active
    nu = np.sqrt(-b.mu[act])[:, None]
    d0, d1 = lay.d0[act][:, None], lay.d1[act][:, None]
    q = np.exp(-nu * lay.L)
    scale = 1.0 / (-np.expm1(-2.0 * nu * lay.L) * nu)
    with np.errstate(under="ignore"):
        far = (d1 - d0 * q) * scale * np.exp(-nu * (lay.L - z))
        near = (d1 * q - d0) * scale * np.exp(-nu * z)
    c, cp = far + near, nu * (far - near)
    E = b.E[:, act]
    return E @ c, E @ cp, E @ (b.mu[act][:, None] * c)


def _full_table_products(lay, z):
    """Reference: full-width c and c' tables over every block's live rows (zero
    elsewhere), then each block's products from column slices of them."""
    n = lay.nu.size
    nu = lay.nu[:, None]
    q = np.exp(-nu * lay.L)
    scale = 1.0 / (-np.expm1(-2.0 * nu * lay.L) * nu)
    P, Q = (lay.d1[:n, None] - lay.d0[:n, None] * q) * scale, (lay.d1[:n, None] * q - lay.d0[:n, None]) * scale
    c, cp = np.zeros((n, z.size)), np.zeros((n, z.size))
    v, vz, m = (np.zeros((lay.basis.x.size, z.size)) for _ in range(3))
    mu = lay.basis.mu[:n, None]
    for cols, first in lay.blocks(z):
        if first == n:
            continue
        rows = slice(first, n)
        arg = -nu[rows] * np.stack((lay.L - z[cols], z[cols]))[:, None, :]
        far, near = np.exp(arg, out=np.zeros_like(arg), where=arg >= -st._CUTOFF)
        far, near = P[rows] * far, Q[rows] * near
        c[rows, cols], cp[rows, cols] = far + near, nu[rows] * (far - near)
    for cols, first in lay.blocks(z):
        if first < n:
            e = lay.basis.E[:, first:n]
            v[:, cols], vz[:, cols], m[:, cols] = e @ c[first:, cols], e @ cp[first:, cols], e @ (mu[first:] * c[first:, cols])
    return (c, cp), (v, vz, m)


@pytest.mark.parametrize("name", ["phi22", "phi3"])
def test_blockwise_coefficients_are_the_full_tables_bit_for_bit(bent_layers_001, name):
    layers, zt = bent_layers_001
    lay = layers[name]
    z = zt[: 3 * st._Z_BLOCK + 5]  # every mode live in some block, a ragged last block
    for zz in (zt, z):
        (c, cp), products = _full_table_products(lay, zz)
        lay._last = None  # synthesize afresh, not from an earlier test's cache
        got_c, got_cp = lay._coefs(zz)
        assert np.array_equal(got_c, c) and np.array_equal(got_cp, cp)
        for got, want in zip(lay._syntheses(zz), products):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["phi22", "phi3"])
def test_decay_limited_layers_match_the_untruncated_synthesis(bent_layers_001, name):
    layers, zt = bent_layers_001
    lay = layers[name]
    assert lay.basis.shift == (1.0 if name == "phi22" else 25.0)
    for key, got, ref in zip(("v", "vz", "m"), lay._syntheses(zt), _untruncated_products(lay, zt)):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), key
    # columns farther than _CUTOFF / nu_min from both ends are exact zeros
    far = np.minimum(zt, lay.L - zt) > st._CUTOFF / lay.nu.min()
    assert np.any(far)
    for table in (*lay._coefs(zt), *lay._syntheses(zt)):
        assert np.all(table[:, far] == 0.0)
    # the layer still solves its PDE and meets its end data (the data's active modes)
    E = lay.basis.E[:, lay.active]
    data0, data1 = E @ lay.d0[lay.active], E @ lay.d1[lay.active]
    scale = max(np.max(np.abs(data0)), np.max(np.abs(data1)))
    assert np.max(np.abs(lay.pde_residual(zt[1:-1:7]))) < 1e-10 * scale
    assert lay.boundary_mismatch(data0, data1) < 1e-10 * scale


@pytest.mark.parametrize("name", ["phi22", "phi3"])
def test_decay_limited_layers_evaluate_few_modes(bent_layers_001, name):
    # a guard on the work: without the cutoff every (mode, z) pair is evaluated
    layers, zt = bent_layers_001
    lay = layers[name]
    n = lay.nu.size
    evaluated = sum((n - first) * len(range(*cols.indices(zt.size))) for cols, first in lay.blocks(zt))
    assert evaluated < 0.15 * n * zt.size


@pytest.mark.parametrize("name", ["phi22", "phi3"])
def test_block_reads_match_the_full_table_products_bit_for_bit(bent_layers_001, name):
    # each block of the residual's and the phi4 solve's walk over z reads
    # the layer at its own points; its fields equal the columns of the
    # full-table products, and the layer keeps the syntheses of that block
    # alone, read-only
    layers, zt = bent_layers_001
    lay = layers[name]
    _, (fv, fvz, fm) = _full_table_products(lay, zt)
    b = lay.basis
    lin = (b.shift - b.p * b.w ** (b.p - 1.0))[:, None]
    want = {
        "value": lambda c: fv[:, c],
        "dx": lambda c: fd_first_axis(fv[:, c], b.hx),
        "dxx": lambda c: lin * fv[:, c] + fm[:, c],
        "dz": lambda c: fvz[:, c],
        "dxz": lambda c: fd_first_axis(fvz[:, c], b.hx),
        "dzz": lambda c: -fm[:, c],
    }
    for width in (st._Z_BLOCK, 2 * st._Z_BLOCK):
        for start in range(0, zt.size, width):
            cols = slice(start, start + width)
            for key in EVALUATORS:
                assert np.array_equal(getattr(lay, key)(zt[cols]), want[key](cols)), (key, cols)
            kept_z, kept = lay._last
            assert np.array_equal(kept_z, zt[cols]) and not np.shares_memory(kept_z, zt)
            for arr in kept:
                assert arr.shape == (b.x.size, kept_z.size) and not arr.flags.writeable
