"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria measure terms that carry the curve curvature k, the on-curve
gradient V_t = k V / sigma or the boundary-ring sources as factors. All of
these vanish on the stationary straight channel, so those sub-criteria are
asserted on the curved channel (bent-channel), where the terms are nonzero,
and the straight channel is held to what theory predicts there:

* criterion 4's first-tier interior sup-norm order 1.0 +/- 0.15 is fitted on
  the bent channel (tier 1, eps 0.04 -> 0.005, measured 0.991). On the flat
  sweep the first-order interior groups vanish identically and the same fit
  must give order 2.0 +/- 0.15 (measured 2.000).
* criterion 8's strict tier 1->2->3 seed-residual decrease is asserted in both
  norms of pde.initial_residual on the bent channel at eps = 0.05 (sup
  0.121 > 0.119 > 0.0077, rms 8.9e-3 > 6.3e-3 > 4.3e-3). On the flat channel
  the tier 1..3 correction layers vanish, so the three seeds must agree to
  roundoff (tiers 1 and 2 bitwise, tier 3 to about 7e-14).
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from curvelayers import ansatz as az
from curvelayers import geodesic as gd
from curvelayers import geometry as ge
from curvelayers import harness, pde, profiles, reduced
from curvelayers.util import loglog_slope


def slope_or_inf(ts, rem, floor):
    rem = np.abs(np.asarray(rem))
    if np.max(rem) <= floor:
        return np.inf
    return loglog_slope(ts, rem, floor=0.0)[0]


def test_criterion_1_profile_identities():
    t0 = time.time()
    ok = True
    worst = {}
    for p in (2.0, 3.0, 5.0):
        ps = profiles.build_profiles(p)
        a = ps.int_w2
        b = 2.0 * ps.sigma * ps.rho1
        c = -2.0 * ps.integrate(ps.x * ps.w * ps.w_x)
        rel = max(abs(a - b), abs(a - c)) / abs(a)
        zdev = abs(ps.integrate(ps.Z**2) - 1.0)
        id1 = abs(2.0 * ps.integrate(ps.w2_x * ps.w_x) + (2.0 / (p - 1.0) + 0.5) * ps.rho1) / ps.rho1
        id2 = abs(ps.integrate(ps.w2 * ps.w) / ps.sigma - (0.5 - 2.0 / (p - 1.0)) * ps.rho1) / ps.rho1
        lam = abs(ps.lambda0_fd - 0.25 * (p - 1.0) * (p + 3.0))
        ok = ok and rel < 1e-6 and zdev < 1e-6 and id1 < 1e-6 and id2 < 1e-6 and lam < 1e-4
        worst[p] = (rel, zdev, id1, id2, lam)
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    record_criterion(1, ok, f"profile identities p in {{2,3,5}} ({elapsed:.1f}s); devs {worst[3.0]}")
    assert ok


def test_criterion_2_geometry_expansions(disk_chart, flat_chart):
    t0 = time.time()
    ts = np.linspace(0.02, 0.2, 8) * disk_chart.delta0
    th = 0.37
    checks = []
    met_rows = {k: [] for k in ("g", "g11", "g12", "sqrtg")}
    drift_rows = {k: [] for k in ("c_t", "c_theta", "c_ttheta")}
    for t in ts:
        met = disk_chart.metric(np.array([t]), np.array([th]))
        lead = ge.metric_leading(disk_chart, np.array([t]), np.array([th]))
        for k in met_rows:
            met_rows[k].append(abs(met[k][0] - lead[k][0]))
        c_tt, c_tth, c_thth, c_t, c_th = disk_chart.laplacian_coeffs(np.array([t]), np.array([th]))
        dlead = ge.drift_leading(disk_chart, np.array([t]), np.array([th]))
        drift_rows["c_t"].append(abs(c_t[0] - dlead["c_t"][0]))
        drift_rows["c_theta"].append(abs(c_th[0] - dlead["c_theta"][0]))
        drift_rows["c_ttheta"].append(abs(c_tth[0] - dlead["c_ttheta"][0]))
    for key, target in (("g", 3.0), ("g11", 3.0), ("g12", 3.0), ("sqrtg", 3.0)):
        checks.append(slope_or_inf(ts, met_rows[key], 1e-13) >= target - 0.3)
    for key, target in (("c_t", 2.0), ("c_theta", 1.0), ("c_ttheta", 2.0)):
        checks.append(slope_or_inf(ts, drift_rows[key], 1e-13) >= target - 0.3)
    for end in (0, 1):
        _, _, samples = disk_chart.normal_operator_coeffs(end)
        checks.append(slope_or_inf(samples[:, 0], samples[:, 1], 1e-14) >= 2.7)
    # flat channel is the identity chart to rounding
    tt, hh = np.meshgrid(np.linspace(-3.5, 3.5, 7), np.linspace(0, 1, 7), indexing="ij")
    met = flat_chart.metric(tt, hh)
    dev = max(np.max(np.abs(met["g11"] - 1)), np.max(np.abs(met["g12"])), np.max(np.abs(met["g22"] - 1)))
    checks.append(dev < 1e-12)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 30.0
    record_criterion(2, ok, f"expansion orders on the disk chart + flat identity ({elapsed:.1f}s)")
    assert ok


def test_criterion_3_geodesic_tests(flat_chart, flat_field, unit_field):
    t0 = time.time()
    _, _, sup = gd.stationarity_residual(flat_chart, flat_field)
    rep = gd.nondegeneracy_test(flat_chart, flat_field)
    rep0 = gd.nondegeneracy_test(flat_chart, unit_field)
    elapsed = time.time() - t0
    ok = (
        sup < 1e-10
        and rep.nondegenerate
        and rep.smallest >= 0.9 * (2.0 * flat_field.sigma)
        and (not rep0.nondegenerate)
        and rep0.smallest < 1e-4
        and elapsed < 10.0
    )
    record_criterion(
        3, ok,
        f"stationary sup={sup:.1e}, nondeg smallest={rep.smallest:.3f}, degenerate={rep0.smallest:.1e} ({elapsed:.1f}s)",
    )
    assert ok


@pytest.fixture(scope="module")
def flat_sweep(ctx3, flat_chart, flat_field, sincos_state):
    rows = {}
    for eps in (0.2, 0.1, 0.05, 0.025):
        out = {}
        for tier in (1, 2, 5):
            bundle = az.assemble_ansatz(tier, sincos_state, eps, ctx3, flat_chart, flat_field)
            rep = az.interior_residual(bundle)
            bnd = az.boundary_residual(bundle)
            out[tier] = (bundle, rep, bnd)
        rows[eps] = out
    return rows


def test_criterion_4_residual_orders(flat_sweep, ctx3, bent_chart, bent_field, sincos_state):
    t0 = time.time()
    # tier-1 interior sup order on the curved channel, where the first-order
    # groups (factors k and V_t) are nonzero; eps stays below 0.08 so that the
    # truncated profile tail is not cut by the window bridge at 3*delta
    eps_bent = np.array([0.04, 0.02, 0.01, 0.005])
    sup1, quad_flags = [], []
    for e in eps_bent:
        rep = az.interior_residual(az.assemble_ansatz(1, sincos_state, e, ctx3, bent_chart, bent_field))
        sup1.append(rep.sup)
        quad_flags.append(rep.quadrature_flag)
    s_sup1 = loglog_slope(eps_bent, sup1)[0]

    eps = np.array(sorted(flat_sweep, reverse=True))
    sup1_flat = [flat_sweep[e][1][1].sup for e in eps]
    e12_2 = [flat_sweep[e][2][1].l2_E12 for e in eps]
    e12_5 = [flat_sweep[e][5][1].l2_E12 for e in eps]
    bnd = [flat_sweep[e][5][2].l2_g02 + flat_sweep[e][5][2].l2_g12 for e in eps]
    s_sup1_flat = loglog_slope(eps, sup1_flat)[0]
    s_e12_2 = loglog_slope(eps, e12_2)[0]
    s_e12_5 = loglog_slope(eps, e12_5)[0]
    s_bnd = loglog_slope(eps, bnd)[0]
    elapsed = time.time() - t0
    ok_e12 = s_e12_2 >= 1.4 and s_e12_5 >= 1.4
    ok_bnd = s_bnd >= 1.4
    ok_sup1 = abs(s_sup1 - 1.0) <= 0.15 and not any(quad_flags)
    # on the straight stationary line the first-order groups vanish identically
    ok_sup1_flat = abs(s_sup1_flat - 2.0) <= 0.15
    record_criterion(
        4,
        ok_sup1 and ok_sup1_flat and ok_e12 and ok_bnd,
        f"slopes: tier1 sup bent-channel={s_sup1:.3f} (1.0 +/- 0.15), "
        f"flat={s_sup1_flat:.3f} (2.0 +/- 0.15, first-order groups vanish), "
        f"E12 tier2={s_e12_2:.3f} tier5={s_e12_5:.3f} (>=1.4), boundary={s_bnd:.3f} (>=1.4) ({elapsed:.1f}s)",
    )
    assert ok_e12, f"E12 slopes {s_e12_2:.3f}/{s_e12_5:.3f} below 1.4"
    assert ok_bnd, f"boundary slope {s_bnd:.3f} below 1.4"
    assert ok_sup1, f"bent-channel tier-1 interior sup slope {s_sup1:.4f} (quadrature flags {quad_flags})"
    assert ok_sup1_flat, f"flat-channel tier-1 interior sup slope {s_sup1_flat:.4f}, expected 2.0"


def test_criterion_5_projection_predictors(flat_sweep):
    t0 = time.time()
    bundle, rep, _ = flat_sweep[0.05][5]
    proj = az.project_residual(bundle, rep)
    elapsed = time.time() - t0
    ok = proj.rel_dev_wx <= 0.15 and proj.rel_dev_Z <= 0.15
    record_criterion(
        5, ok,
        f"projection deviations at eps=0.05: wx={proj.rel_dev_wx:.3f}, Z={proj.rel_dev_Z:.3f} "
        f"(displayed-form Z dev {proj.rel_dev_Z_displayed:.3f}) ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_6_reduced_solvers(flat_problem):
    t0 = time.time()
    th = np.linspace(0, 1, 301)
    f_sol = reduced.solve_f_problem(flat_problem, lambda t: np.cos(np.pi * t), 0.1)
    f_err = np.max(np.abs(f_sol(th) + np.cos(np.pi * th) / (np.pi**2 + 3.0)))
    e_sol = reduced.solve_e_problem(lambda t: np.cos(np.pi * t), 0.1, 0.0, 0.0, 1.0, 0.0, 3.0)
    e_err = np.max(np.abs(e_sol(th) - np.cos(np.pi * th) / (3.0 - 0.01 * np.pi**2)))

    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    vals = []
    for fac in (0.97, 1.03):
        eps = eps5 * fac
        sol = reduced.solve_e_problem(lambda t: np.cos(5 * np.pi * t), eps, 0.0, 0.0, 1.0, 0.0, 3.0)
        vals.append(np.max(np.abs(sol.values)) * abs(3.0 - eps**2 * 25 * np.pi**2))
    scaling_ok = abs(vals[0] - vals[1]) <= 0.2 * vals[0]

    basis = reduced.SpectralBasis(0.0, 0.0, 0.0, 1.0, j_max=60, n_cheb=220)
    defect = np.abs(basis.asymptotic_defect(np.arange(10, 61)))
    d_slope = loglog_slope(np.arange(10, 61).astype(float), defect)[0]

    rows = harness.gap_sweep(3.0, 0.09, 0.32, n=240, c=0.025)
    eps_grid, sup = rows[:, 0], rows[:, 2]
    spacing = abs(eps_grid[1] - eps_grid[0])
    resonant = np.sqrt(3.0 / np.pi**2) / np.arange(2, 7)
    resonant = resonant[(resonant > 0.09 + 4 * spacing) & (resonant < 0.32 - 4 * spacing)]
    blowup_ok = True
    for r in resonant:
        i = int(np.argmin(np.abs(eps_grid - r)))
        window = sup[max(0, i - 8) : i + 9]
        blowup_ok = blowup_ok and np.max(sup[max(0, i - 2) : i + 3]) >= 2.5 * np.median(window)

    elapsed = time.time() - t0
    ok = f_err < 1e-8 and e_err < 1e-8 and scaling_ok and d_slope <= -2.5 and blowup_ok and elapsed < 60.0
    record_criterion(
        6, ok,
        f"f err={f_err:.1e}, e err={e_err:.1e}, near-resonance const dev={abs(vals[0]-vals[1])/vals[0]:.2%}, "
        f"defect slope={d_slope:.2f}, blow-ups at ledger values: {blowup_ok} ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_7_gap_ledger():
    t0 = time.time()
    led = reduced.gap_check(0.1, 0.5, 3.0, 1.0)
    ok = abs(led.lambda_star - 3.0 / np.pi**2) < 1e-14 and led.passes
    eps5 = np.sqrt(3.0 / np.pi**2) / 5.0
    ok = ok and not reduced.gap_check(eps5, 0.5, 3.0, 1.0).passes
    ok = ok and not reduced.gap_check(eps5, 1e-9, 3.0, 1.0).passes

    rng = np.random.default_rng(0)
    lam_star = 3.0 / np.pi**2
    mism = 0
    for _ in range(10_000):
        eps = float(rng.uniform(0.01, 0.5))
        c = float(rng.uniform(1e-4, 1.0))
        led = reduced.gap_check(eps, c, 3.0, 1.0)
        # brute force over an exhaustive j range
        j = np.arange(1, int(10.0 / eps) + 2)
        brute = bool(np.min(np.abs(eps**2 * j**2 - lam_star)) >= c * eps)
        mism += int(brute != led.passes)
    elapsed = time.time() - t0
    ok = ok and mism == 0 and elapsed < 5.0
    record_criterion(7, ok, f"ledger vs brute force: {mism} mismatches in 10^4 draws ({elapsed:.1f}s)")
    assert ok


def test_criterion_8_pde_validation(ctx3, flat_chart, flat_field, bent_chart, bent_field):
    t0 = time.time()
    eps = 0.05
    t_nodes = pde.graded_nodes(eps, 4.0)
    th_nodes = np.linspace(0.0, 1.0, 49)
    mesh = pde.rectangle_mesh(t_nodes, th_nodes, flat_field)
    seeds = {
        tier: az.assemble_ansatz(tier, az.zero_state(), eps, ctx3, flat_chart, flat_field).W_on_mesh(mesh)
        for tier in (1, 2, 3)
    }
    # the tier 1..3 correction layers vanish on the straight channel
    seed_dev = max(np.max(np.abs(seeds[t] - seeds[1])) for t in (2, 3))
    seeds_ok = seed_dev <= 1e-10 * np.max(np.abs(seeds[1]))
    trace = pde.newton_solve(mesh, 3.0, eps, seeds[2])
    met = pde.concentration_metrics(trace, flat_field, 3.0, eps)

    # strict seed ladder on the curved channel, where the layers are active
    prob = reduced.ReducedProblem(bent_chart, bent_field, 3.0, j_max=reduced.default_j_max(eps))
    t_bent = pde.graded_nodes(eps, 0.999 * bent_chart.delta0, fine_per_layer=10, h_max=0.02)
    bent_mesh = pde.chart_mesh(bent_chart, t_bent, np.linspace(0.0, 1.0, 65), bent_field)
    ladder = {}
    for tier in (1, 2, 3):
        bundle = az.assemble_ansatz(
            tier, az.zero_state(), eps, ctx3, bent_chart, bent_field, reduced_problem=prob
        )
        ladder[tier] = pde.initial_residual(bent_mesh, 3.0, eps, bundle.W_on_mesh(bent_mesh))
    elapsed = time.time() - t0

    conv_ok = trace.converged and trace.iterations <= 12 and trace.residuals[-1] < 1e-10
    amp_ok = np.max(np.abs(met.amplitude_ratio - 1.0)) <= 0.05
    off_ok = np.max(np.abs(met.max_offsets)) <= 2.0 * met.grid_dt
    decay_ok = met.decay_rate >= 0.8
    s1, s2, s3 = (ladder[t][0] for t in (1, 2, 3))
    r1, r2, r3 = (ladder[t][1] for t in (1, 2, 3))
    ladder_ok = s1 > s2 > s3 and r1 > r2 > r3
    ok = conv_ok and amp_ok and off_ok and decay_ok and seeds_ok and ladder_ok and elapsed < 600.0
    record_criterion(
        8, ok,
        f"newton {trace.iterations} its to {trace.residuals[-1]:.1e}; amp dev "
        f"{np.max(np.abs(met.amplitude_ratio - 1.0)):.3f}; decay {met.decay_rate:.2f}; "
        f"bent-channel seed residual ladder sup=({s1:.3e}, {s2:.3e}, {s3:.3e}) "
        f"rms=({r1:.3e}, {r2:.3e}, {r3:.3e}) strict={ladder_ok}; "
        f"flat seeds tiers 1-3 agree to {seed_dev:.1e} ({elapsed:.0f}s)",
    )
    assert conv_ok and amp_ok and off_ok and decay_ok
    assert seeds_ok, f"flat-channel seeds of tiers 1-3 differ by {seed_dev:.3e}"
    assert ladder_ok, (
        f"bent-channel seed residuals across tiers 1->2->3: sup {s1:.6e}, {s2:.6e}, {s3:.6e}; "
        f"rms {r1:.6e}, {r2:.6e}, {r3:.6e}"
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    r1 = harness.run_scenario("flat-channel", str(tmp_path / "a"))
    r2 = harness.run_scenario("flat-channel", str(tmp_path / "b"))
    s1 = open(tmp_path / "a" / "flat-channel" / "summary.json", "rb").read()
    s2 = open(tmp_path / "b" / "flat-channel" / "summary.json", "rb").read()
    elapsed = time.time() - t0
    ok = s1 == s2 and r1.exit_code == 0 and r2.exit_code == 0
    record_criterion(9, ok, f"two runs byte-identical ({len(s1)} bytes, exit 0) ({elapsed:.0f}s)")
    assert ok
