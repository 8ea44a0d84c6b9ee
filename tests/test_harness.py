import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelayers import ansatz, cli, geometry, harness, profiles, reduced, scenarios
from curvelayers.util import write_table


def test_expression_parser():
    f = scenarios.parse_expression("1 + t**2 + sin(pi*theta)", ("t", "theta"))
    assert abs(f(1.0, 0.5) - 3.0) < 1e-14
    with pytest.raises(ValueError):
        scenarios.parse_expression("__import__('os')", ("t",))
    with pytest.raises(ValueError):
        scenarios.parse_expression("unknown_symbol + t", ("t",))


_NESTINGS = (
    "{}",
    "({}) + 0*t",
    "sin({})",
    "(lambda: {})()",
    "[{} for _ in (1,)][0]",
    "sum({} for _ in (1,))",
    "{{0: {} for _ in (1,)}}[0]",
    "(1 if t else {})",
)


@settings(max_examples=40)
@given(
    st.sampled_from(("t", "()", "sin", "1.0", "pi")),
    st.lists(st.sampled_from(("__class__", "__base__", "__subclasses__", "__globals__", "real", "shape")), min_size=1, max_size=3),
    st.lists(st.sampled_from(_NESTINGS), min_size=1, max_size=3),
)
def test_expression_parser_refuses_attribute_access_at_any_depth(base, attrs, nestings):
    expr = base + "".join("." + a for a in attrs)
    for wrap in nestings:
        expr = wrap.format(expr)
    with pytest.raises(ValueError):
        scenarios.parse_expression(expr, ("t", "theta"))


def test_expression_parser_refuses_nested_scopes():
    # evaluated to 707.0 when only the top-level code object was checked
    with pytest.raises(ValueError):
        scenarios.parse_expression("(lambda: ().__class__.__base__.__subclasses__().__len__())() + 0*t", ("t", "theta"))
    for expr in ("(lambda: t)()", "[t for t in (1,)][0] + t", "sum(x for x in (t,))", "(y := t) + 1"):
        with pytest.raises(ValueError):
            scenarios.parse_expression(expr, ("t",))


def test_module_entry_point():
    # the package may be importable from a source checkout only
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-m", "curvelayers", "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "run" in out.stdout and "gap-sweep" in out.stdout


_LAYER_PIPELINE = """
import sys
from curvelayers import ansatz, reduced, scenarios
scn = scenarios.builtin_scenario("bent-channel")
chart = scenarios.build_domain(scn)
field = scenarios.build_field(scn, chart)
ctx = ansatz.build_strip_context(scn.p)
problem = reduced.ReducedProblem(chart, field, ctx.lambda0, j_max=60)
bundle = ansatz.assemble_ansatz(5, ansatz.zero_state(), 0.05, ctx, chart, field, reduced_problem=problem)
ansatz.interior_residual(bundle)
ansatz.boundary_residual(bundle)
print(" ".join(sorted(sys.modules)))
"""


_FULL_RUN = """
import sys
import numpy as np
from curvelayers import ansatz, harness, scenarios
res = harness.run_scenario("flat-channel", sys.argv[1], stages=tuple(harness._STAGES))
assert res.exit_code == 0
scn = scenarios.builtin_scenario("flat-channel")
chart = scenarios.build_domain(scn)
field = scenarios.build_field(scn, chart)
bundle = ansatz.assemble_ansatz(2, ansatz.zero_state(), 0.05, ansatz.build_strip_context(scn.p), chart, field)
assert np.max(bundle.W_eval(np.linspace(-0.2, 0.2, 41), 0.5)) > 0.5
print(" ".join(sorted(sys.modules)))
"""

# scipy.interpolate alone pulls in scipy.special and scipy.optimize; only the
# shooting oracle, which no run calls, imports scipy.integrate
_HEAVY_MODULES = {"scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.special"}


def _modules_loaded_by(script, *args):
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_layer_pipeline_imports_no_interpolation_or_ode_modules():
    loaded = _modules_loaded_by(_LAYER_PIPELINE)
    assert "curvelayers.ansatz" in loaded
    assert not loaded & _HEAVY_MODULES


def test_full_run_and_seed_import_no_interpolation_or_ode_modules(tmp_path):
    # every stage, the pde stage's Newton seeds included, and one W_eval
    loaded = _modules_loaded_by(_FULL_RUN, str(tmp_path))
    assert {"curvelayers.harness", "curvelayers.pde"} <= loaded
    assert not loaded & _HEAVY_MODULES
    assert (tmp_path / "flat-channel" / "pde_solution_mid.txt").exists()


def test_every_table_file_is_savetxt_bytes(tmp_path, monkeypatch):
    # each writer's file is np.savetxt's for the same data, header and format
    calls = []

    def recording(path, data, header="", fmt="%.18e"):
        calls.append((path, np.array(data), header, fmt))
        write_table(path, data, header=header, fmt=fmt)

    for module in (harness, ansatz, geometry, profiles):
        monkeypatch.setattr(module, "write_table", recording)
    harness.run_scenario("flat-channel", str(tmp_path))
    harness.gap_sweep(3.0, 0.2, 0.3, n=11, outdir=str(tmp_path))
    names = {os.path.basename(path) for path, *_ in calls}
    assert names == {
        "profiles.txt", "chart_coeffs.txt", "residual_norms.txt", "residual_table.txt", "projections.txt",
        "resonance_sweep.txt", "pde_solution_mid.txt", "gap_sweep.txt",
    }
    for path, data, header, fmt in calls:
        np.savetxt(tmp_path / "numpy.txt", data, header=header, fmt=fmt)
        assert open(path, "rb").read() == (tmp_path / "numpy.txt").read_bytes(), path


def test_scenario_roundtrip(tmp_path):
    scn = scenarios.builtin_scenario("flat-channel")
    path = tmp_path / "scn.json"
    scenarios.save_scenario(scn, path)
    again = scenarios.load_scenario(path)
    assert again.name == scn.name
    assert again.epsilons == scn.epsilons
    with pytest.raises(ValueError):
        scenarios.Scenario(name="x", epsilons=(0.05, 0.1))  # not descending
    with pytest.raises(ValueError):
        scenarios.Scenario(name="x", stages=("nope",))


def test_constant_v_flagged_degenerate(tmp_path):
    res = harness.run_scenario("constant-V", str(tmp_path))
    assert res.exit_code != 0
    assert res.summary["stages"]["geodesic"]["nondegenerate"] is False
    # stage isolation: earlier stages unaffected
    assert res.summary["stages"]["profiles"]["passed"]


def test_resonant_epsilon_skips_pde(tmp_path):
    eps5 = float(np.sqrt(3.0 / np.pi**2) / 5.0)
    scn = scenarios.Scenario(
        name="resonant-probe",
        epsilons=(eps5,),
        gap_constant=0.5,
        stages=("profiles", "gap", "pde"),
        pde_eps=eps5,
        f_expr="",
        e_expr="",
    )
    res = harness.run_scenario(scn, str(tmp_path))
    assert res.exit_code != 0
    assert res.summary["stages"]["gap"]["passed"] is False
    assert res.summary["stages"]["pde"].get("skipped") is True


@pytest.mark.parametrize(
    "grid, key",
    [({"strip": {"stride": 4}}, "grid.strip"), ({"pde": {"n_thetas": 97}}, "grid.pde.n_thetas")],
)
def test_scenario_rejects_unknown_grid_keys(tmp_path, grid, key):
    with pytest.raises(ValueError, match=key):
        scenarios.Scenario(name="x", grid=grid)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "x", "grid": grid}))
    with pytest.raises(ValueError, match=key):
        scenarios.load_scenario(path)
    assert scenarios.Scenario(name="x", grid={"pde": {"fine_per_layer": 12, "n_theta": 97}}).grid["pde"]["n_theta"] == 97


def test_order_study_needs_three(tmp_path):
    scn = scenarios.Scenario(name="short", epsilons=(0.1, 0.05), f_expr="", e_expr="")
    with pytest.raises(ValueError):
        harness.order_study(scn, "interior_sup")
    with pytest.raises(ValueError):
        harness.order_study(scenarios.builtin_scenario("flat-channel"), "no_such_quantity")


def test_order_study_projection_quantity(tmp_path):
    res = harness.order_study(scenarios.builtin_scenario("flat-channel"), "projection", outdir=str(tmp_path), tier=5)
    # the projection defect against the reduced forms shrinks beyond eps^2
    assert res["slope"] > 2.0
    assert len(res["eps"]) == 4


def test_order_study_builds_one_reduced_problem(monkeypatch):
    # every eps shares the ring grid sized for the smallest one
    builds = []

    class Counting(reduced.ReducedProblem):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs.get("j_max"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(reduced, "ReducedProblem", Counting)
    scn = dataclasses.replace(scenarios.builtin_scenario("bent-channel"), epsilons=(0.1, 0.08, 0.06))
    res = harness.order_study(scn, "interior_sup", tier=3)
    assert len(res["eps"]) == 3
    assert builds == [reduced.default_j_max(0.06)]


def test_flat_channel_run_solves_one_eigenproblem_per_reduced_problem(tmp_path, monkeypatch):
    # the geodesic stage's verdict and the reduced stage read one basis, whose
    # 191 x 191 eigensolve is made once per run; bent-channel too
    builds, solved = [], []
    eig = reduced.sla.eig

    class Counting(reduced.ReducedProblem):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs.get("j_max"))
            super().__init__(*args, **kwargs)

    def counted_eig(a, *args, **kwargs):
        solved.append(a.shape)
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(reduced, "ReducedProblem", Counting)
    monkeypatch.setattr(reduced.sla, "eig", counted_eig)
    # the fixtures' smallest eps, 0.025 and 0.02, give j_max = 160 and 200:
    # the basis stays at 192 nodes, where sizing it by j_max gave 440 and 540
    for name, j_max in (("flat-channel", 160), ("bent-channel", 200)):
        builds.clear(), solved.clear()
        res = harness.run_scenario(name, str(tmp_path / name))
        assert "geodesic" in res.summary["stages"]
        assert all(info["passed"] for info in res.summary["stages"].values()), name
        assert builds == [j_max] and solved == [(191, 191)], name


@pytest.mark.parametrize("name", ["constant-V", "disk-diameter"])
def test_tier_2_ansatz_runs_on_a_degenerate_reduced_operator(tmp_path, name):
    # tiers 1 and 2 read no reduced operator, so its numerically zero eigenvalue
    # on these two fixtures must not stop their ansatz stage
    res = harness.run_scenario(name, str(tmp_path), tier=2, stages=("profiles", "ansatz"))
    info = res.summary["stages"]["ansatz"]
    assert "error" not in info and info["passed"] is True
    assert res.exit_code == 0


def test_gap_sweep_table(tmp_path):
    rows = harness.gap_sweep(3.0, 0.2, 0.3, n=11, outdir=str(tmp_path))
    assert rows.shape == (11, 3)
    assert os.path.exists(tmp_path / "gap_sweep.txt")


def test_resonance_sweep_reads_its_coefficients_once(flat_field):
    # the sweep evaluates its coefficients once, at the amplitude nodes, and
    # every row is what a per-eps solve with the callables gives, bit for bit
    calls = []

    def beta(th):
        calls.append("beta")
        return flat_field.beta(th)

    def hbar5(th):
        calls.append("hbar5")
        return 0.2 * np.sin(np.pi * np.asarray(th))

    eps_values = np.linspace(0.3, 0.1, 7)
    rows = harness._resonance_sweep(eps_values, 0.5, 3.0, 1.3, 0.2, -0.1, beta, hbar5)
    assert sorted(calls) == ["beta", "hbar5"]
    for eps, row in zip(eps_values, rows):
        sol = reduced.solve_e_problem(lambda th: np.exp(th), eps, 0.2, -0.1, beta, hbar5, 3.0)
        assert row[2] == np.max(np.abs(sol.values))


def test_cli_smoke(tmp_path):
    code = cli.main(["gap-sweep", "--p", "3", "--eps-min", "0.2", "--eps-max", "0.3", "--n", "5", "--out", str(tmp_path)])
    assert code == 0
    scn_path = tmp_path / "short.json"
    scenarios.save_scenario(
        scenarios.Scenario(
            name="cli-short",
            epsilons=(0.1,),
            stages=("profiles", "chart", "gap", "geodesic"),
            f_expr="",
            e_expr="",
        ),
        scn_path,
    )
    code = cli.main(["run", str(scn_path), "--out", str(tmp_path)])
    assert code == 0
    summary = json.load(open(tmp_path / "cli-short" / "summary.json"))
    assert summary["ok"] is True


def test_stage_list_override(tmp_path):
    res = harness.run_scenario("flat-channel", str(tmp_path), stages=("profiles", "chart"))
    assert res.exit_code == 0
    assert set(res.summary["stages"]) == {"profiles", "chart"}


def test_profiles_built_once_per_run(tmp_path, monkeypatch):
    build = profiles.build_profiles
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(profiles, "build_profiles", counting)
    monkeypatch.setattr(ansatz, "build_profiles", counting)
    res = harness.run_scenario("constant-V", str(tmp_path), stages=("profiles", "gap"))
    assert res.summary["stages"]["profiles"]["passed"]
    assert len(calls) == 1


def test_stationarity_residual_once_per_geodesic_stage(tmp_path, monkeypatch):
    from curvelayers import geodesic

    residual = geodesic.stationarity_residual
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return residual(*args, **kwargs)

    monkeypatch.setattr(geodesic, "stationarity_residual", counting)
    # one non-degenerate and one degenerate stationary curve
    for name in ("flat-channel", "constant-V"):
        calls.clear()
        res = harness.run_scenario(name, str(tmp_path), stages=("geodesic",))
        info = res.summary["stages"]["geodesic"]
        assert info["stationary"] is True and "smallest_eigenvalue" in info
        assert len(calls) == 1, name


def test_non_stationary_curve_keeps_its_verdict(tmp_path, monkeypatch):
    from curvelayers import geodesic

    residual = geodesic.stationarity_residual

    def shifted(chart, field, n_theta=401):
        theta, res, sup = residual(chart, field, n_theta)
        return theta, res + 2e-9, sup + 2e-9

    # above the stage's 1e-10 bound, below the test's own 1e-8 default
    monkeypatch.setattr(geodesic, "stationarity_residual", shifted)
    res = harness.run_scenario("flat-channel", str(tmp_path), stages=("geodesic",))
    info = res.summary["stages"]["geodesic"]
    assert res.exit_code != 0
    assert info["stationary"] is False and info["nondegenerate"] is False and info["passed"] is False
    assert info["stationarity_sup"] == pytest.approx(2e-9, rel=1e-6)
    assert "smallest_eigenvalue" not in info and "weighted_length" in info


def test_timings_sidecar_lists_every_enabled_stage(tmp_path, monkeypatch):
    def broken(pipe, tables_dir):
        raise RuntimeError("chart stage broken on purpose")

    monkeypatch.setitem(harness._STAGES, "chart", broken)
    enabled = ("profiles", "chart", "gap", "geodesic")
    res = harness.run_scenario("flat-channel", str(tmp_path), stages=enabled)
    timings = json.load(open(os.path.join(res.outdir, "timings.json")))
    assert [entry["stage"] for entry in timings["stages"]] == list(enabled)
    peak = 0.0
    for entry in timings["stages"]:
        assert entry["wall_s"] >= 0.0 and entry["maxrss_mib"] > 0.0
        assert ("traceback" in entry) == (entry["stage"] == "chart")
        # the rise is the stage's own share of the peak, which never falls
        assert 0.0 <= entry["maxrss_rise_mib"] <= entry["maxrss_mib"] - peak
        peak = entry["maxrss_mib"]
    assert "chart stage broken on purpose" in timings["stages"][1]["traceback"]
    assert "Traceback" in timings["stages"][1]["traceback"]
    # the summary keeps only the one-line error, no machine facts
    summary = open(os.path.join(res.outdir, "summary.json")).read()
    assert res.summary["stages"]["chart"]["error"] == "RuntimeError: chart stage broken on purpose"
    assert "wall_s" not in summary and "maxrss" not in summary and "Traceback" not in summary


@pytest.mark.parametrize("name", ["flat-channel", "bent-channel", "disk-diameter", "constant-V"])
def test_shipped_fixture_matches_the_builtin(name):
    # the builtin scenario is its shipped fixture file, loaded under its name
    path = os.path.join(os.path.dirname(scenarios.__file__), "fixtures", f"{name}.json")
    scn = scenarios.builtin_scenario(name)
    assert scn.name == name
    assert scn == scenarios.load_scenario(path)


@pytest.mark.parametrize("name", ["no-such-fixture", "../fixtures/flat-channel", "flat-channel.json", ""])
def test_unknown_builtin_name_is_refused(name):
    with pytest.raises(ValueError, match="no builtin scenario named"):
        scenarios.builtin_scenario(name)


def test_tier_override_leaves_the_callers_scenario_alone(tmp_path):
    scn = scenarios.builtin_scenario("flat-channel")
    res = harness.run_scenario(scn, str(tmp_path), tier=1, stages=("profiles",))
    assert res.summary["tier"] == 1
    assert scn.tier == 5
    assert scenarios.resolve_scenario(scn) is scn
    assert scenarios.resolve_scenario("flat-channel", tier=2) == scenarios.Scenario(name="flat-channel", tier=2)


_DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", ["04_correction_layers.py", "06_newton_validation.py"])
def test_demo_runs(tmp_path, demo):
    # run from tmp_path: the demos may write their plots to the working directory
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, os.path.join(_DEMOS, demo)], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
