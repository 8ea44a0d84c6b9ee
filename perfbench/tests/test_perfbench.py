"""Smoke tests for the benchmark itself: output format, failure counting, spans.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

import json
import os

import curvelayers
from perfbench import run, tracing, worker, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def stub_tracer(records):
    """A tracer holding, inside each operation, one span of every traced name."""
    tracer = tracing.Tracer()
    attrs = {
        "reduced.ReducedProblem": {"n_cheb": 40, "j_max": 100},
        "pde.newton_solve": {"iterations": 3, "converged": 1},
    }
    for op in range(len(records)):
        tracer.op = op
        root = tracer.begin("bench.op")
        for name in sorted(tracing.span_names()):
            tracer.end(tracer.begin(name))
            tracer.spans[-1].attrs.update(attrs.get(name, {}))
        tracer.end(root)
    return tracer


def test_printed_metrics_match_benchmark_json(monkeypatch, capsys):
    records = [{"kind": k, "status": "ok", "wall_s": 0.5} for k in ("a", "b")]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = {"records": records, "peak_rss_mb": 100.0, "facts": {}}
        if trace:
            result["layers"] = worker.layer_metrics(stub_tracer(records), records)
            assert {m["name"] for m in spec()[key]} <= set(result["layers"])
        lines = ["RESULT " + json.dumps(result) + "\n"]
        monkeypatch.setattr(run, "start_worker", lambda *_: (1.0, lines))
        assert run.main(["--workload", "newton", "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert (printed["correct"], printed["attempted"], printed["failed"]) == (True, 2, 0)
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == {m["name"]: m["unit"] for m in spec()[key]}
        assert all(isinstance(v["value"], float) and v["value"] >= 0 for v in printed["metrics"].values())


def test_injected_failures_raise_fail_ratio():
    def ok():
        pass

    def broken():
        raise ValueError("injected")

    def no_result():
        raise workloads.OpFailed("did not converge", incorrect=False)

    def known():
        raise workloads.KnownDefect("did not converge, as at this commit")

    clean = worker.run_loop([("a", ok), ("b", ok), ("d", known)], 0.0)
    assert run.outcome(clean) == (True, 3, 0)
    records = worker.run_loop([("a", ok), ("b", broken), ("c", no_result), ("d", known)], 0.0)
    assert run.outcome(records) == (False, 4, 2)
    lines = run.describe("newton", records, [], {"peak_rss_mb": 1.0, "facts": {}})
    assert "fail_ratio = 0.7500 (3 of 4 operations; 2 failed, 1 known defects)" in lines
    assert "incorrect: b: ValueError: injected" in lines
    assert "Traceback (most recent call last):" in lines
    assert "failed: c: did not converge" in lines
    assert "known-defect: d: did not converge, as at this commit" in lines


def test_known_nonconverging_cases_are_newton_cases():
    assert workloads.KNOWN_NONCONVERGING <= set(workloads.NEWTON_CASES)


def test_traced_spans_nest_and_account_for_the_operation():
    newton = workloads.Newton(curvelayers, 0, None)
    flat = [op for op in newton.ops() if op[0] == "flat-channel.eps0.05"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, curvelayers)
    try:
        records = worker.run_loop(flat, 0.0, tracer)
    finally:
        restore()
    assert not hasattr(curvelayers.pde.newton_solve, "__wrapped__")
    assert not hasattr(curvelayers.ansatz.AnsatzBundle.W_eval, "__wrapped__")
    assert [r["status"] for r in records] == ["ok"]

    spans = tracer.spans
    selfs = tracer.self_times()
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert span.op == parent.op
    assert min(selfs) >= -1e-9
    in_op = [i for i, s in enumerate(spans) if s.op == 0]
    root = spans[in_op[0]]
    assert root.name == "bench.op" and root.parent == -1
    assert abs(sum(selfs[i] for i in in_op) - (root.end - root.start)) < 1e-9

    names = {spans[i].name for i in in_op}
    assert {"pde.rectangle_mesh", "ansatz.assemble_ansatz.tier2", "ansatz.W_eval",
            "pde.initial_residual", "pde.newton_solve"} <= names

    layers = worker.layer_metrics(tracer, records)
    assert set(layers) <= tracing.metric_names()
    assert layers["ansatz.W_eval.calls"] == 49
    assert layers["pde.newton.converged_ratio"] == 1.0
    assert layers["pde.newton.iterations"] >= 1
    assert abs(sum(v for k, v in layers.items() if k.endswith(".self_s")) - layers["trace.pass_s"]) < 1e-9
