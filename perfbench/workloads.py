"""The three benchmark workloads: their inputs, operations and output checks.

A workload is built once per process (its set-up) and then offers one pass
as an ordered list of ``(kind, operation)`` pairs. An operation returns
nothing when its output passed every check, and raises ``OpFailed`` when
the program returned a result that fails (``incorrect=True``) or reported
that it could not produce one (``incorrect=False``, e.g. Newton did not
converge). Any other exception also fails the operation. An operation that
meets a defect known at the commit that added the benchmark raises
``KnownDefect``: it is reported, but not counted as failed.

Run ``python3 perfbench/workloads.py`` from the repository root to record
``reference.json`` (the eps-ladder residual norms) at the current commit.
"""

import json
import math
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

P = 3.0
FIXTURES = ("flat-channel", "bent-channel", "disk-diameter", "constant-V")
# stages that fail by design (degenerate geodesics); every other enabled stage passes
EXPECTED_FAILING = {"disk-diameter": ("geodesic",), "constant-V": ("geodesic",)}
LADDER = (0.04, 0.02, 0.01)
# seed 0 uses the nominal eps; other seeds pick one factor per rung (kept within
# +-2%: the rung's cost grows quickly as eps shrinks, and the seed must not
# widen the run-to-run spread)
JITTER = (1.0, 0.98, 0.99, 1.01, 1.02)
LADDER_QUANTITIES = ("sup", "l2", "l2_E12", "l2_g02", "l2_g12")
LADDER_RTOL = 1e-6
NEWTON_CASES = (("bent-channel", 0.04), ("bent-channel", 0.03), ("bent-channel", 0.02), ("flat-channel", 0.05))
# cases whose solve does not converge in newton_solve's 25 iterations at the commit
# that added the benchmark (a known defect); they still run and are reported
KNOWN_NONCONVERGING = {("bent-channel", 0.04), ("bent-channel", 0.02)}
NEWTON_TIER = 2
NEWTON_MAX_ITER = 12


class OpFailed(Exception):
    def __init__(self, message, incorrect=True):
        super().__init__(message)
        self.incorrect = incorrect


class KnownDefect(Exception):
    """The operation met a known defect of the program (see ``KNOWN_NONCONVERGING``)."""


def load_json(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def scenario(cl, name):
    """Scenario object for one of the frozen fixture definitions."""
    return cl.scenarios.Scenario(**load_json("fixtures.json")[name])


def ladder_key(nominal):
    return f"eps{nominal:g}"


def ladder_j_max(nominal):
    # fixed by the rung's nominal eps so that the seed moves the inputs, not the basis size
    return max(60, math.ceil(4.0 / nominal))


class Fixtures:
    """``harness.run_scenario`` on the four fixtures, in seeded order."""

    def __init__(self, cl, seed, tmpdir):
        self.cl = cl
        self.tmpdir = tmpdir
        self.ctx = cl.ansatz.build_strip_context(P)
        self.order = list(FIXTURES)
        if seed:
            random.Random(seed).shuffle(self.order)
        self.summaries = {}

    def ops(self):
        return [(name, lambda name=name: self.run(name)) for name in self.order]

    def run(self, name):
        scn = scenario(self.cl, name)
        res = self.cl.harness.run_scenario(scn, self.tmpdir)
        check_verdicts(name, scn.stages, res.summary, res.ok)
        with open(os.path.join(res.outdir, "summary.json")) as fh:
            text = fh.read()
        first = self.summaries.setdefault(name, text)
        if text != first:
            raise OpFailed(f"{name}: summary.json differs between repeats")


def check_verdicts(name, stages, summary, ok):
    failing = EXPECTED_FAILING.get(name, ())
    wrong = []
    for stage in stages:
        info = summary["stages"].get(stage, {})
        if "error" in info:
            wrong.append(f"{stage} raised {info['error']}")
        elif bool(info.get("passed")) != (stage not in failing):
            wrong.append(f"{stage} passed={info.get('passed')}")
    if wrong or ok != (not failing):
        raise OpFailed(f"{name}: unexpected verdicts: {', '.join(wrong) or f'ok={ok}'}")


class Ladder:
    """Bent-channel basis build, tier 1..5 assembly and tier-5 residuals per eps."""

    def __init__(self, cl, seed, tmpdir):
        self.cl = cl
        self.ctx = cl.ansatz.build_strip_context(P)
        self.scn = scenario(cl, "bent-channel")
        self.chart = cl.scenarios.build_domain(self.scn)
        self.field = cl.scenarios.build_field(self.scn, self.chart)
        self.state = cl.ansatz.state_from_callables(*cl.scenarios.state_exprs(self.scn))
        rng = random.Random(seed)
        self.factors = {}
        for nominal in LADDER:
            factor = 1.0
            if seed:
                for _ in range(100):
                    factor = rng.choice(JITTER)
                    if self.gap_passes(nominal * factor):
                        break
                else:
                    raise RuntimeError(f"no jittered eps near {nominal} passes the gap check")
            self.factors[nominal] = factor

    def gap_passes(self, eps):
        return self.cl.reduced.gap_check(eps, self.scn.gap_constant, self.ctx.lambda0, self.field.ell).passes

    def ops(self):
        return [(ladder_key(n), lambda n=n: self.run(n, self.factors[n])) for n in LADDER]

    def compute(self, nominal, factor):
        cl = self.cl
        eps = nominal * factor
        problem = cl.reduced.ReducedProblem(self.chart, self.field, self.ctx.lambda0, j_max=ladder_j_max(nominal))
        for tier in range(1, 6):
            bundle = cl.ansatz.assemble_ansatz(
                tier, self.state, eps, self.ctx, self.chart, self.field, reduced_problem=problem
            )
        rep = cl.ansatz.interior_residual(bundle)
        bnd = cl.ansatz.boundary_residual(bundle)
        values = dict(zip(LADDER_QUANTITIES, (rep.sup, rep.l2, rep.l2_E12, bnd.l2_g02, bnd.l2_g12)))
        return {k: float(v) for k, v in values.items()}, bool(rep.quadrature_flag)

    def run(self, nominal, factor):
        values, flagged = self.compute(nominal, factor)
        where = f"{ladder_key(nominal)} (x{factor})"
        if flagged:
            raise OpFailed(f"{where}: quadrature_flag set")
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            raise OpFailed(f"{where}: non-finite {bad}")
        ref = load_json("reference.json")[ladder_key(nominal)][repr(factor)]
        off = [k for k in LADDER_QUANTITIES if abs(values[k] - ref[k]) > LADDER_RTOL * abs(ref[k])]
        if off:
            raise OpFailed(f"{where}: {off} differ from reference.json by more than rtol {LADDER_RTOL:g}")


class Newton:
    """Mesh, tier-2 seed, Newton solve and concentration checks per case."""

    def __init__(self, cl, seed, tmpdir):
        self.cl = cl
        self.ctx = cl.ansatz.build_strip_context(P)
        self.domains = {}
        for name in sorted({case for case, _ in NEWTON_CASES}):
            scn = scenario(cl, name)
            chart = cl.scenarios.build_domain(scn)
            self.domains[name] = (scn, chart, cl.scenarios.build_field(scn, chart))

    def ops(self):
        return [(f"{name}.eps{eps:g}", lambda name=name, eps=eps: self.run(name, eps)) for name, eps in NEWTON_CASES]

    def run(self, name, eps):
        cl = self.cl
        scn, chart, field = self.domains[name]
        t_nodes = cl.pde.graded_nodes(eps, chart.delta0, fine_per_layer=12)
        th_nodes = np.linspace(0.0, 1.0, 49)
        if scn.domain["kind"] == "flat_channel":
            mesh = cl.pde.rectangle_mesh(t_nodes, th_nodes, field)
        else:
            mesh = cl.pde.chart_mesh(chart, t_nodes, th_nodes, field)
        bundle = cl.ansatz.assemble_ansatz(
            NEWTON_TIER, cl.ansatz.zero_state(), eps, self.ctx, chart, field, h_from_state=True
        )
        u0 = np.zeros(mesh.shape)
        for j, th in enumerate(th_nodes):
            u0[:, j] = bundle.W_eval(t_nodes, th)
        seed_sup, seed_rms = cl.pde.initial_residual(mesh, P, eps, u0.ravel())
        where = f"{name} eps={eps:g}"
        if not (math.isfinite(seed_sup) and math.isfinite(seed_rms)):
            raise OpFailed(f"{where}: non-finite seed residual")
        trace = cl.pde.newton_solve(mesh, P, eps, u0.ravel())
        if not trace.converged:
            message = (f"{where}: Newton did not converge in {trace.iterations} iterations "
                       f"(scaled residual {trace.residuals[-1]:.3e})")
            if (name, eps) not in KNOWN_NONCONVERGING:
                raise OpFailed(message, incorrect=False)
            if not all(math.isfinite(r) for r in trace.residuals):
                raise OpFailed(f"{where}: non-finite Newton residual")
            raise KnownDefect(message)
        check_concentration(where, cl.pde.concentration_metrics(trace, field, P, eps), mesh, trace)


def check_concentration(where, met, mesh, trace):
    """The amplitude, offset and decay bounds of the harness's pde stage."""
    amp = float(np.max(np.abs(met.amplitude_ratio - 1.0)))
    off = float(np.max(np.abs(met.max_offsets)))
    v_min = float(np.min(mesh.V))
    failures = []
    if trace.iterations > NEWTON_MAX_ITER:
        failures.append(f"{trace.iterations} iterations > {NEWTON_MAX_ITER}")
    if amp > 0.05:
        failures.append(f"amplitude ratio off by {amp:.3e} > 0.05")
    if off > 2.0 * met.grid_dt:
        failures.append(f"maximum offset {off:.3e} > 2 grid_dt = {2.0 * met.grid_dt:.3e}")
    if met.decay_rate < 0.8 * math.sqrt(v_min):
        failures.append(f"decay rate {met.decay_rate:.3e} < 0.8 sqrt(min V) = {0.8 * math.sqrt(v_min):.3e}")
    if failures:
        raise OpFailed(f"{where}: " + "; ".join(failures))


WORKLOADS = {"fixtures": Fixtures, "eps-ladder": Ladder, "newton": Newton}


def record_reference(cl):
    """Ladder residual norms for every rung and jitter factor that passes the gap check."""
    ladder = Ladder(cl, 0, None)
    out = {}
    for nominal in LADDER:
        out[ladder_key(nominal)] = {}
        for factor in JITTER:
            if ladder.gap_passes(nominal * factor):
                values, flagged = ladder.compute(nominal, factor)
                out[ladder_key(nominal)][repr(factor)] = values
                print(ladder_key(nominal), factor, values, "flagged" if flagged else "", flush=True)
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import curvelayers

    ref = record_reference(curvelayers)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
