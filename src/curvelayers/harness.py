"""Batch driver: stage pipeline, order studies, resonance sweeps, reports.

Each stage records its numbers and a pass flag; later independent stages
still run when one fails, except that epsilon values rejected by the gap
stage are withheld from the expensive stages. Summaries are written with
fixed precision so identical runs are byte-identical; wall times, memory and
tracebacks go to a timings.json sidecar instead.
"""

import json
import os
import resource
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import ansatz, geodesic, pde, profiles, reduced, scenarios
from .util import loglog_slope, write_table

__all__ = ["RunResult", "run_scenario", "order_study", "gap_sweep", "format_summary"]

_TARGET_SLOPES = {
    ("interior_L2", 1): None,
    ("interior_sup", 1): 1.0,
    ("interior_L2", 2): 1.4,
    ("boundary_L2", 2): 1.4,
}


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.12e}")
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {str(k): _round_tree(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_tree(v) for v in obj.tolist()]
    return obj


def format_summary(summary):
    return json.dumps(_round_tree(summary), indent=1, sort_keys=True) + "\n"


@dataclass
class RunResult:
    ok: bool
    summary: dict
    outdir: str

    @property
    def exit_code(self):
        return 0 if self.ok else 1


class _Pipeline:
    """Shared objects built lazily and reused across stages."""

    def __init__(self, scn):
        self.scn = scn
        self.chart = None
        self.field = None
        self.ctx = None
        self.problem = None
        self.state = None
        self.ledgers = None  # set by the gap stage

    def ensure_geometry(self):
        if self.chart is None:
            self.chart = scenarios.build_domain(self.scn)
            self.field = scenarios.build_field(self.scn, self.chart)
        return self.chart, self.field

    def ensure_ctx(self):
        if self.ctx is None:
            self.ctx = ansatz.build_strip_context(self.scn.p)
        return self.ctx

    def ensure_problem(self):
        if self.problem is None:
            chart, field = self.ensure_geometry()
            j_max = reduced.default_j_max(min(self.scn.epsilons))
            self.problem = reduced.ReducedProblem(chart, field, self.ensure_ctx().lambda0, j_max=j_max)
        return self.problem

    def ensure_state(self):
        if self.state is None:
            f, e = scenarios.state_exprs(self.scn)
            self.state = ansatz.state_from_callables(f=f, e=e)
        return self.state


def _stage_profiles(pipe, tables_dir):
    scn = pipe.scn
    ps = pipe.ensure_ctx().fine  # the profiles the layers are built from
    triple = (ps.int_w2, 2.0 * ps.sigma * ps.rho1, -2.0 * ps.integrate(ps.x * ps.w * ps.w_x))
    rel = max(abs(triple[0] - triple[1]), abs(triple[0] - triple[2])) / abs(triple[0])
    zdev = abs(ps.integrate(ps.Z**2) - 1.0)
    lam_dev = abs(ps.lambda0_fd - ps.lambda0)
    id1 = 2.0 * ps.integrate(ps.w2_x * ps.w_x)
    id1_ref = -(2.0 / (scn.p - 1.0) + 0.5) * ps.rho1
    id2 = ps.integrate(ps.w2 * ps.w) / ps.sigma
    id2_ref = (0.5 - 2.0 / (scn.p - 1.0)) * ps.rho1
    ok = rel < 1e-6 and zdev < 1e-6 and lam_dev < 1e-4
    ok = ok and abs(id1 - id1_ref) < 1e-6 * abs(ps.rho1) and abs(id2 - id2_ref) < 1e-6 * abs(ps.rho1)
    profiles.save_profiles(ps, os.path.join(tables_dir, "profiles.txt"))
    return ok, {
        "identity_triple": list(triple),
        "identity_rel_dev": rel,
        "z_norm_dev": zdev,
        "lambda0": ps.lambda0,
        "lambda0_fd_dev": lam_dev,
        "rho1": ps.rho1,
        "rho2": ps.rho2,
        "passed": ok,
    }


def _stage_chart(pipe, tables_dir):
    chart, _ = pipe.ensure_geometry()
    from .geometry import export_chart_tables

    export_chart_tables(chart, os.path.join(tables_dir, "chart_coeffs.txt"))
    info = {
        "k1": chart.k1,
        "k2": chart.k2,
        "b1": chart.b1,
        "b2": chart.b2,
        "b3": chart.b3,
        "b4": chart.b4,
        "jacobian_min": chart.jacobian_min,
    }
    ok = chart.jacobian_min > 0.0
    if pipe.scn.domain.get("kind") == "flat_channel":
        ts = np.linspace(-chart.delta0 * 0.9, chart.delta0 * 0.9, 9)
        hs = np.linspace(0.0, 1.0, 9)
        tt, hh = np.meshgrid(ts, hs, indexing="ij")
        met = chart.metric(tt, hh)
        dev = max(np.max(np.abs(met["g11"] - 1.0)), np.max(np.abs(met["g12"])), np.max(np.abs(met["g22"] - 1.0)))
        info["flat_metric_dev"] = float(dev)
        ok = ok and dev < 1e-12
    info["passed"] = ok
    return ok, info


def _stage_gap(pipe, tables_dir):
    scn = pipe.scn
    ctx = pipe.ensure_ctx()
    _, field = pipe.ensure_geometry()
    ledgers = {}
    ok = True
    for eps in scn.epsilons:
        led = reduced.gap_check(eps, scn.gap_constant, ctx.lambda0, field.ell)
        ledgers[eps] = led
        ok = ok and led.passes
    info = {
        "lambda_star": ledgers[scn.epsilons[0]].lambda_star,
        "entries": [
            {"eps": e, "margin": led.margin, "passes": led.passes, "argmin_j": led.argmin_j}
            for e, led in ledgers.items()
        ],
        "passed": ok,
    }
    pipe.ledgers = ledgers
    return ok, info


def _stage_geodesic(pipe, tables_dir):
    chart, field = pipe.ensure_geometry()
    info = {"weighted_length": geodesic.weighted_length(chart, field, 0.0)}
    try:
        # the test checks stationarity first, against the stage's 1e-10 bound
        rep = geodesic.nondegeneracy_test(chart, field, stationarity_tol=1e-10)
    except geodesic.StationarityError as exc:
        info.update({"stationarity_sup": exc.sup, "stationary": False, "nondegenerate": False, "passed": False})
        return False, info
    info.update(
        {
            "stationarity_sup": rep.stationarity_sup,
            "stationary": True,
            "smallest_eigenvalue": rep.smallest,
            "threshold": rep.threshold,
            "nondegenerate": rep.nondegenerate,
            "passed": rep.nondegenerate,
        }
    )
    return rep.nondegenerate, info


def _bundles(pipe):
    """(eps, bundle) at the scenario's tier for each eps the gap ledgers (if any) pass.

    The reduced operator is built on first need, from tier 3 on: tiers 1-2 read none.
    """
    scn = pipe.scn
    chart, field = pipe.ensure_geometry()
    ctx = pipe.ensure_ctx()
    state = pipe.ensure_state()
    for eps in scn.epsilons:
        if pipe.ledgers is None or pipe.ledgers[eps].passes:
            problem = pipe.ensure_problem() if scn.tier >= 3 else None
            yield eps, ansatz.assemble_ansatz(scn.tier, state, eps, ctx, chart, field, reduced_problem=problem)


def _stage_ansatz(pipe, tables_dir):
    scn = pipe.scn
    rows = []
    reports = {}
    ok = True
    for eps, bundle in _bundles(pipe):
        rep = ansatz.interior_residual(bundle)
        bnd = ansatz.boundary_residual(bundle)
        rows.append([eps, rep.sup, rep.l2, rep.l2_E12, bnd.l2_g02 + bnd.l2_g12])
        reports[eps] = (bundle, rep, bnd)
        ok = ok and not rep.quadrature_flag
    usable = list(reports)
    rows = np.asarray(rows)
    write_table(os.path.join(tables_dir, "residual_norms.txt"), rows, header="eps sup L2 L2_E12 boundary_rest", fmt="%.12e")
    info = {"rows": rows.tolist(), "tier": scn.tier}
    if usable:
        bundle, rep, _ = reports[usable[0]]
        ansatz.export_strip_table(rep, os.path.join(tables_dir, "residual_table.txt"))
        if bundle.tier >= 3:
            # the ring correction; None is the zero one (no sources to solve for)
            h_norm = 0.0 if bundle.h_solution is None else bundle.h_solution.norm_star
            info["h_norm_star"] = h_norm
            info["h_norm_over_sqrt_eps"] = h_norm / np.sqrt(usable[0])
    if rows.shape[0] >= 3:
        info["slope_E12"] = loglog_slope(rows[:, 0], rows[:, 3])[0]
        info["slope_boundary"] = loglog_slope(rows[:, 0], rows[:, 4])[0]
        ok = ok and info["slope_E12"] >= 1.4 and info["slope_boundary"] >= 1.4
    if usable and (scn.f_expr or scn.e_expr):
        eps_probe = min(usable)
        bundle, rep, _ = reports[eps_probe]
        proj = ansatz.project_residual(bundle, rep)
        info["projection"] = proj.to_dict()
        write_table(
            os.path.join(tables_dir, "projections.txt"),
            np.column_stack([proj.z, proj.measured_wx, proj.predicted_wx, proj.measured_Z, proj.predicted_Z]),
            header="z measured_wx predicted_wx measured_Z predicted_Z",
            fmt="%.12e",
        )
        ok = ok and proj.rel_dev_wx <= 0.15 and proj.rel_dev_Z <= 0.15
    info["passed"] = ok
    return ok, info


def _stage_reduced(pipe, tables_dir):
    scn = pipe.scn
    chart, field = pipe.ensure_geometry()
    ctx = pipe.ensure_ctx()
    problem = pipe.ensure_problem()
    basis = problem.basis
    info = {
        # a roundoff-level health check: 3 significant digits, so that reordered
        # floating-point work in the basis does not read as a moved result
        "gram_deviation": float(f"{basis.gram_deviation():.2e}"),
        "yprime_bound": basis.yprime_bound(),
        "lambda_min": float(np.min(np.abs(basis.lam))),
    }
    # resonance sweep for the plotting table
    co = ansatz.LayerCoeffs(chart, field)
    norms = _resonance_sweep(
        np.linspace(0.08, 0.32, 121), scn.gap_constant, ctx.lambda0, field.ell, co.b5_tilde, co.b6_tilde, field.beta, co.hbar5
    )
    write_table(os.path.join(tables_dir, "resonance_sweep.txt"), norms, header="eps margin e_sup", fmt="%.12e")
    ok = info["lambda_min"] > 1e-8
    info["passed"] = ok
    return ok, info


def _resonance_sweep(eps_values, c, lambda0, ell, b5t, b6t, beta, hbar5):
    """Rows [eps, gap margin, sup of e] of the amplitude problem forced by exp(theta).

    beta, hbar5 and the forcing are evaluated once, at the nodes of the
    amplitude solve, and every eps reads those values.
    """
    th = reduced._e_grid()[0]
    force, beta, hbar5 = (reduced._on(fn, th) for fn in (np.exp, beta, hbar5))
    rows = []
    for eps in eps_values:
        led = reduced.gap_check(eps, c, lambda0, ell)
        sol = reduced.solve_e_problem(force, eps, b5t, b6t, beta, hbar5, lambda0)
        rows.append([eps, led.margin, float(np.max(np.abs(sol.values)))])
    return np.asarray(rows)


def _stage_pde(pipe, tables_dir):
    ledgers = pipe.ledgers
    scn = pipe.scn
    chart, field = pipe.ensure_geometry()
    ctx = pipe.ensure_ctx()
    eps = scn.pde_eps
    if ledgers is not None and eps in ledgers and not ledgers[eps].passes:
        return False, {"skipped": True, "reason": "gap condition failed", "passed": False}
    grid = scn.grid.get("pde", {})
    t_nodes = pde.graded_nodes(eps, chart.delta0, fine_per_layer=grid.get("fine_per_layer", 12))
    th_nodes = np.linspace(0.0, 1.0, grid.get("n_theta", 49))
    mesh = pde.chart_mesh(chart, t_nodes, th_nodes, field)
    seeds = {
        tier: ansatz.assemble_ansatz(tier, ansatz.zero_state(), eps, ctx, chart, field, h_from_state=True).W_on_mesh(mesh)
        for tier in sorted({1, 2, 3, scn.pde_tier})
    }
    ladder = {tier: pde.initial_residual(mesh, scn.p, eps, seed) for tier, seed in seeds.items()}
    trace = pde.newton_solve(mesh, scn.p, eps, seeds[scn.pde_tier])
    info = {
        "eps": eps,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_residual": trace.residuals[-1],
        "initial_residuals": {str(t): {"sup": r[0], "rms": r[1]} for t, r in ladder.items()},
        "negative_events": trace.negative_events,
        "linesearch_failures": trace.linesearch_failures,
        "positive": bool(np.min(trace.u) > 0),
    }
    if trace.singular_at is not None:
        iteration, pivot = trace.singular_at
        info["singular_jacobian"] = {"iteration": iteration, "pivot": pivot}
    ok = trace.converged and trace.iterations <= 12
    if trace.converged:
        met = pde.concentration_metrics(trace, field, scn.p, eps)
        info["metrics"] = met.to_dict()
        v_min = float(np.min(mesh.V))
        amp_ok = np.max(np.abs(met.amplitude_ratio - 1.0)) <= 0.05
        off_ok = np.max(np.abs(met.max_offsets)) <= 2.0 * met.grid_dt
        decay_ok = met.decay_rate >= 0.8 * np.sqrt(v_min)
        info["amp_ok"] = amp_ok
        info["off_ok"] = off_ok
        info["decay_ok"] = decay_ok
        ok = ok and amp_ok and off_ok and decay_ok
        U = mesh.as_grid(trace.u)
        write_table(os.path.join(tables_dir, "pde_solution_mid.txt"),
                    np.column_stack([mesh.t_nodes, U[:, U.shape[1] // 2]]), header="t u_mid", fmt="%.12e")
    info["passed"] = ok
    return ok, info


_STAGES = {
    "profiles": _stage_profiles,
    "chart": _stage_chart,
    "gap": _stage_gap,
    "geodesic": _stage_geodesic,
    "ansatz": _stage_ansatz,
    "reduced": _stage_reduced,
    "pde": _stage_pde,
}


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scenario(scn, outdir, tier=None, stages=None):
    """Run the enabled stages; nonzero exit when any enabled check fails.

    summary.json holds the deterministic results. timings.json beside it
    holds, per stage in run order, the wall seconds, the peak resident set
    (ru_maxrss, MiB) after the stage, its rise over the stage (what the stage
    itself raised the peak by, lazily built strip bases included), and the
    traceback of a stage that raised.
    """
    scn = scenarios.resolve_scenario(scn, tier)
    enabled = tuple(stages) if stages is not None else scn.stages
    tables_dir = os.path.join(outdir, scn.name)
    os.makedirs(tables_dir, exist_ok=True)

    pipe = _Pipeline(scn)
    summary = {"scenario": scn.name, "p": scn.p, "tier": scn.tier, "stages": {}}
    timings = []
    ok_all = True
    for stage, run_stage in _STAGES.items():
        if stage not in enabled:
            continue
        start, rss_before = time.perf_counter(), _maxrss_mib()
        trace = None
        try:
            ok, info = run_stage(pipe, tables_dir)
        except Exception as exc:  # stage isolation: record, continue
            ok, info = False, {"error": f"{type(exc).__name__}: {exc}", "passed": False}
            trace = traceback.format_exc()
        entry = {"stage": stage, "wall_s": time.perf_counter() - start, "maxrss_mib": _maxrss_mib()}
        entry["maxrss_rise_mib"] = entry["maxrss_mib"] - rss_before
        if trace is not None:
            entry["traceback"] = trace
        timings.append(entry)
        summary["stages"][stage] = info
        ok_all = ok_all and ok
    summary["ok"] = ok_all
    text = format_summary(summary)
    with open(os.path.join(tables_dir, "summary.json"), "w") as fh:
        fh.write(text)
    with open(os.path.join(tables_dir, "timings.json"), "w") as fh:
        json.dump({"scenario": scn.name, "stages": timings}, fh, indent=1)
        fh.write("\n")
    return RunResult(ok=ok_all, summary=summary, outdir=tables_dir)


def order_study(scn, quantity, outdir=None, tier=None):
    """Least-squares epsilon-order of the requested residual quantity."""
    scn = scenarios.resolve_scenario(scn, tier)
    tier = scn.tier
    if len(scn.epsilons) < 3:
        raise ValueError("order study needs at least 3 epsilon values")
    pipe = _Pipeline(scn)
    _, field = pipe.ensure_geometry()
    ctx = pipe.ensure_ctx()
    pipe.ledgers = {eps: reduced.gap_check(eps, scn.gap_constant, ctx.lambda0, field.ell) for eps in scn.epsilons}
    vals = []
    for eps, bundle in _bundles(pipe):
        rep = ansatz.interior_residual(bundle)
        if quantity == "interior_sup":
            vals.append((eps, rep.sup))
        elif quantity == "interior_L2":
            vals.append((eps, rep.l2_E12))
        elif quantity == "boundary_L2":
            bnd = ansatz.boundary_residual(bundle)
            vals.append((eps, bnd.l2_g02 + bnd.l2_g12))
        elif quantity == "projection":
            vals.append((eps, ansatz.project_residual(bundle, rep).abs_dev_wx))
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
    vals = np.asarray(vals)
    if vals.shape[0] < 3:
        raise ValueError("fewer than 3 usable epsilon values after the gap check")
    slope, half = loglog_slope(vals[:, 0], vals[:, 1])
    target = _TARGET_SLOPES.get((quantity, min(tier, 2)))
    result = {
        "quantity": quantity,
        "tier": tier,
        "eps": vals[:, 0].tolist(),
        "values": vals[:, 1].tolist(),
        "slope": slope,
        "confidence_half_width": half,
        "target": target,
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, f"order_{scn.name}_{quantity}_tier{tier}.json"), "w") as fh:
            fh.write(format_summary(result))
    return result


def gap_sweep(p, eps_min, eps_max, n=200, c=0.5, outdir=None):
    """Tabulated (eps, margin, e-sup) over an epsilon range for unit weight."""
    rows = _resonance_sweep(np.linspace(eps_max, eps_min, n), c, profiles.lambda0_closed_form(p), 1.0, 0.0, 0.0, 1.0, 0.0)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_table(os.path.join(outdir, "gap_sweep.txt"), rows, header="eps margin e_sup", fmt="%.12e")
    return rows
