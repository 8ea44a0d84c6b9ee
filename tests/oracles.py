"""Test-side oracles: independent checks of the package that no run uses.

residual_crosscheck differences W itself against the chain-rule residual;
load_profiles reads back a profiles.save_profiles table; scipy_seed_columns
is the Newton seed built on SciPy's quintic spline; lemma_series_sums sizes
the spectral sums of the lemma from the eigenvalue asymptotics; phi4_rhs is
the full phi4 right side that ansatz._phi4_tables solves in parts, summed
term by term; second_variation_pair is the second variation of the weighted
length as a bilinear form and as a central second difference, and
first_variation_ways the first variation three ways; ground_state_by_shooting
finds w(0) of the ground state by shooting.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline, make_interp_spline

from curvelayers import ansatz as az
from curvelayers import profiles as pr
from curvelayers.geodesic import hbar1, hbar2, stationarity_residual, weighted_length
from curvelayers.util import simpson_weights


def residual_crosscheck(bundle, n_probe=5, h=None):
    """Independent check: central differences of W against the chain rule.

    Samples interior points with the cutoff at 1 and compares the physical
    residual computed from finite differences of W alone; returns the max
    relative deviation (bounded by the FD truncation).
    """
    eps = bundle.eps
    h = h if h is not None else eps * 2e-3
    zs = np.linspace(0.25 / eps, 0.75 / eps, n_probe)
    rep = az.interior_residual(bundle, z=zs)
    dev = 0.0
    for j, z in enumerate(zs):
        th = eps * z
        for i in (bundle.ctx.x.size // 2 + 3, bundle.ctx.x.size // 2 + 40):
            beta = float(bundle.coeffs.beta(th))
            fh = float(bundle.state.f(th) + bundle.state.h(th))
            t0 = eps * (bundle.ctx.x[i] / beta + fh)
            if abs(t0) > 2.0 * bundle.delta:
                continue
            # second-order stencils in (t, theta)
            W0 = bundle.W_eval(np.array([t0]), th)[0]
            Wt = (bundle.W_eval(np.array([t0 + h]), th)[0] - bundle.W_eval(np.array([t0 - h]), th)[0]) / (2 * h)
            Wtt = (bundle.W_eval(np.array([t0 + h]), th)[0] - 2 * W0 + bundle.W_eval(np.array([t0 - h]), th)[0]) / h**2
            Wth_ = (bundle.W_eval(np.array([t0]), th + h)[0] - bundle.W_eval(np.array([t0]), th - h)[0]) / (2 * h)
            Wthth = (bundle.W_eval(np.array([t0]), th + h)[0] - 2 * W0 + bundle.W_eval(np.array([t0]), th - h)[0]) / h**2
            Wtth = (
                bundle.W_eval(np.array([t0 + h]), th + h)[0]
                - bundle.W_eval(np.array([t0 + h]), th - h)[0]
                - bundle.W_eval(np.array([t0 - h]), th + h)[0]
                + bundle.W_eval(np.array([t0 - h]), th - h)[0]
            ) / (4 * h**2)
            c = bundle.chart.laplacian_coeffs(np.array([t0]), np.array([th]))
            V0 = float(bundle.field.V(t0, th))
            E_fd = (
                eps**2 * (c[0][0] * Wtt + c[1][0] * Wtth + c[2][0] * Wthth + c[3][0] * Wt + c[4][0] * Wth_)
                - V0 * W0
                + az._sign_power(W0, bundle.p)
            )
            E_fd /= float(bundle.coeffs.alpha(th)) * beta**2
            ref = max(np.max(np.abs(rep.E[:, j])), 1e-300)
            dev = max(dev, abs(E_fd - rep.E[i, j]) / ref)
    return dev


def load_profiles(path):
    """Read back a saved table; returns (scalars dict, columns dict)."""
    scalars = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=")
                scalars[key.strip()] = float(val)
    data = np.loadtxt(path)
    columns = {name: data[:, i] for i, name in enumerate(pr._COLUMNS)}
    return scalars, columns


def scipy_seed_columns(bundle, t_pts, th):
    """AnsatzBundle._W_columns on SciPy's quintic: W at (t_pts, th[j]) as column j.

    One make_interp_spline(k=5) in x through all the sections, then one
    BSpline per column at its points with |x| inside the strip grid.
    """
    rows = az._Rows(bundle, th)
    x = bundle.ctx.x
    spl = make_interp_spline(x, bundle.strip_fields(derivs=False, rows=rows)["v"], k=5)
    xq = rows["beta"] * (t_pts[:, None] / bundle.eps - rows["fh"])
    vals = np.zeros(xq.shape)
    for j, col in enumerate(xq.T):
        inside = np.abs(col) <= x[-1]
        vals[inside, j] = BSpline.construct_fast(spl.t, spl.c[:, j], spl.k)(col[inside])
    return bundle.window(t_pts)[0][:, None] * rows["alpha"] * vals


def lemma_series_sums(eps, lambda0, ell, k1=0.0, k2=0.0, q_mean=0.0, j_sum=None):
    """The three spectral sums split at 2 eps^2 lam_j vs {3, 1} lambda0 ell^2.

    Uses the two-term eigenvalue asymptotics lam_j ~ (j pi)^2 + 2(k2 - k1)
    + q_mean; returns the sums and their epsilon-normalized sizes.
    """
    if j_sum is None:
        j_sum = int(20.0 / eps)
    j = np.arange(1, j_sum + 1, dtype=float)
    lam = (j * np.pi) ** 2 + 2.0 * (k2 - k1) + q_mean
    den = lambda0 * ell**2 - eps**2 * lam
    terms = j**2 * eps**2 * (eps * j + 1.0) ** 2 / (lam**2 * den**2)
    hi = 2.0 * eps**2 * lam >= 3.0 * lambda0 * ell**2
    mid = (2.0 * eps**2 * lam > lambda0 * ell**2) & ~hi
    lo = 2.0 * eps**2 * lam <= lambda0 * ell**2
    s_hi, s_mid, s_lo = terms[hi].sum(), terms[mid].sum(), terms[lo].sum()
    return {
        "high": float(s_hi),
        "mid": float(s_mid),
        "low": float(s_lo),
        "high_over_eps2": float(s_hi / eps**2),
        "mid_over_eps": float(s_mid / eps),
        "low_over_eps2": float(s_lo / eps**2),
    }


def _accumulate(terms):
    """The sum of g c over the pairs (g, c) in order: g a profile (nx, 1) or a
    field (nx, ncols), c a row (ncols,) of theta coefficients. Each column is
    formed from its own entries alone."""
    (g, c), *rest = terms
    out = g * c
    tmp = np.empty_like(out)
    for g, c in rest:
        out += np.multiply(g, c, out=tmp)
    return out


def _phi4_strip_terms(bundle, src, cols, q, c3):
    """(field, row) terms of the phi22 and phi3 layers in the phi4 right side
    at theta columns cols, given their rows of ansatz._phi4_coefficients at
    those columns: the six even and four odd ones of phi22, each field
    interpolated to the fine grid on its own, then that of phi3. A layer that
    is identically zero there has none."""
    ctx, zt = bundle.ctx, src["zt"][cols]
    terms = []
    phi22, phi3 = bundle.phi22, bundle.phi3
    if phi22 is not None and not phi22.is_zero(zt):
        synth = np.stack([getattr(phi22, fn)(zt) for fn in ("value", "dx", "dz", "dxz")], axis=1)
        q_val, q_x, q_zt, q_xzt = az._to_fine(ctx, synth).transpose(1, 0, 2)
        x, w1, w2, Z = (ctx.fine_tables[key][:, None] for key in ("x", "w1", "w2", "Z"))
        wq = ctx.phi4_profiles["wp2"] * q_val
        fields = (q_zt, x * q_xzt, q_val, wq * q_val, wq * Z, wq * w2)  # even in x
        fields += (q_x, q_xzt, x * q_val, wq * w1)  # odd in x
        terms += zip(fields, q)
    if phi3 is not None and not phi3.is_zero(zt):
        terms.append((az._to_fine(ctx, phi3.value(zt)), c3))
    return terms


def phi4_rhs(bundle, src, cols):
    """The full right side of the per-section phi4 problem at theta columns
    cols of the rows src, on the fine x grid.

    The ordered sum of the profiles of StripContext.phi4_profiles times
    their theta coefficients, then of the terms that carry the phi22 and
    phi3 fields, one by one. ansatz._phi4_tables solves the profile part and
    the grouped strip part (ansatz._phi4_strip_rhs) apart; this is the
    reference for their sum.
    """
    rows, *strip = az._phi4_coefficients(bundle, src, cols)
    profiles = list(zip(bundle.ctx.phi4_profiles["rhs"], rows))
    return _accumulate(profiles + _phi4_strip_terms(bundle, src, cols, *strip))


def second_variation_pair(chart, field, h, hp, hpp, s=1e-3, n_quad=2001):
    """(bilinear form, central second difference of J) for the direction h."""
    theta = np.linspace(0.0, 1.0, n_quad)
    hv, hpv, hppv = (np.asarray(f(theta), dtype=float) for f in (h, hp, hpp))
    wq = simpson_weights(n_quad, theta[1] - theta[0])
    V0 = field.V0(theta)
    Vs = V0**field.sigma
    q1 = hbar1(field, theta)
    q2 = hbar2(chart, field, theta)
    interior = -float(np.sum(wq * Vs * (hppv + q1 * hpv + q2 * hv) * hv))
    vp = chart.varpi(theta)
    bnd = (Vs[-1] * hv[-1] * (vp[-1] * hv[-1] + hpv[-1])) - (Vs[0] * hv[0] * (vp[0] * hv[0] + hpv[0]))
    form = bnd + interior
    j0 = weighted_length(chart, field, lambda t: 0.0 * np.asarray(t), gp=lambda t: 0.0 * np.asarray(t), n_quad=n_quad)
    jp = weighted_length(chart, field, lambda t: s * h(t), gp=lambda t: s * hp(t), n_quad=n_quad)
    jm = weighted_length(chart, field, lambda t: -s * h(t), gp=lambda t: -s * hp(t), n_quad=n_quad)
    fd = (jp - 2.0 * j0 + jm) / s**2
    return form, fd


def first_variation_ways(chart, field, h, hp=None, s=1e-4, n_quad=2001):
    """J'(0)[h] three ways: variational display, residual form, central FD."""
    theta = np.linspace(0.0, 1.0, n_quad)
    hv = np.asarray(h(theta), dtype=float)
    wq = simpson_weights(n_quad, theta[1] - theta[0])
    zero = np.zeros_like(theta)
    V0 = field.V0(theta)
    Vs = V0**field.sigma
    # Theta_ttheta(0, theta) vanishes for orthogonal graphs; keep the chart value
    _, _, _, _, th_tth0 = chart.Theta_partials(zero, theta)
    display = float(np.sum(wq * (Vs * (-chart.k(theta) + th_tth0) * hv + field.sigma * V0 ** (field.sigma - 1.0) * field.V_t(zero, theta) * hv)))
    _, res, _ = stationarity_residual(chart, field, n_theta=n_quad)
    residual_form = float(np.sum(wq * res * V0 ** (field.sigma - 1.0) * hv))
    jp = weighted_length(chart, field, lambda t: s * h(t), gp=None if hp is None else (lambda t: s * hp(t)), n_quad=n_quad)
    jm = weighted_length(chart, field, lambda t: -s * h(t), gp=None if hp is None else (lambda t: -s * hp(t)), n_quad=n_quad)
    fd = (jp - jm) / (2.0 * s)
    return display, residual_form, fd


def ground_state_by_shooting(p, x_max=20.0, rtol=1e-12):
    """Independent oracle: even shooting for w(0) of w'' = w - w^p.

    Integrates from x = 0 with w'(0) = 0 and bisects the initial height so
    the solution decays instead of blowing up; returns the located w(0).
    """

    def crossed_zero(t, y):
        return y[0]

    def rebounded(t, y):
        return y[1] - 1e-12

    crossed_zero.terminal = True
    crossed_zero.direction = -1
    rebounded.terminal = True
    rebounded.direction = 1

    def classify(w0):
        """+1 when too high (crosses zero), -1 when too low (rebounds)."""
        sol = solve_ivp(
            lambda t, y: [y[1], y[0] - np.sign(y[0]) * np.abs(y[0]) ** p],
            (1e-3, x_max),
            [w0, 0.0],
            rtol=1e-11,
            atol=1e-13,
            events=(crossed_zero, rebounded),
        )
        if sol.t_events[0].size:
            return 1
        if sol.t_events[1].size:
            return -1
        return -1 if sol.y[0, -1] > 0 else 1

    lo = 1.0
    hi = 2.0 * (0.5 * (p + 1.0)) ** (1.0 / (p - 1.0))
    if classify(lo) > 0:
        raise pr.ConvergenceError("shooting bracket failed at the low end")
    while classify(hi) < 0:
        hi *= 1.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if classify(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < rtol * mid:
            break
    return 0.5 * (lo + hi)
