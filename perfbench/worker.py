"""One benchmark process: set up a workload, run it closed-loop, report raw records.

Started by ``run.py`` with ``OPENBLAS_NUM_THREADS`` already pinned. It prints
``READY`` once set-up is done (``run.py`` times process start to this line),
then, unless ``--setup-only``, runs passes of the workload's operations one
after another until the next operation would end past ``--seconds``, and
prints ``RESULT <json>``.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# table files of run_scenario go here; run.py removes it once its workers have ended
SCRATCH = ".perfbench-tmp"


def run_loop(ops, seconds, tracer=None):
    """Closed loop over passes of ``ops``; one record per operation.

    The first pass always runs whole. After it, an operation starts only if
    its previous duration still fits in ``seconds``.
    """
    from perfbench.workloads import KnownDefect, OpFailed

    records = []
    last = {}
    t0 = time.perf_counter()
    i = 0
    while True:
        kind, op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - t0 + last[kind] > seconds:
            break
        rec = {"kind": kind, "status": "ok"}
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("bench.op")
        start = time.perf_counter()
        try:
            op()
        except KnownDefect as exc:
            rec["status"] = "known-defect"
            rec["error"] = str(exc)
        except OpFailed as exc:
            rec["status"] = "incorrect" if exc.incorrect else "failed"
            rec["error"] = str(exc)
        except Exception as exc:  # the operation failed; record it and go on
            rec["status"] = "incorrect"
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
        rec["wall_s"] = last[kind] = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.op = -1
        records.append(rec)
        i += 1
    return records


def layer_metrics(tracer, records):
    """Per-pass self times and counts of every traced span, plus derived counts.

    Each operation kind contributes the mean over its repetitions, so a run
    that ended in the middle of a pass still reports one whole pass.
    """
    from perfbench.tracing import layer_table

    table, reps = layer_table(tracer, {i: r["kind"] for i, r in enumerate(records)})
    out = defaultdict(float)
    for kind, rows in table.items():
        for name, row in rows.items():
            for key, val in row.items():
                out[f"{name}.{key}"] += val / reps[kind]
    out.pop("bench.op.calls", None)
    out["unattributed.self_s"] = out.pop("bench.op.self_s", 0.0)
    walls = defaultdict(float)
    for span in tracer.spans:
        if span.name == "bench.op":
            walls[records[span.op]["kind"]] += span.end - span.start
    out["trace.pass_s"] = sum(w / reps[kind] for kind, w in walls.items())
    # the largest basis built in the pass, not a per-pass sum
    bases = [s.attrs for s in tracer.spans if s.op >= 0 and s.name == "reduced.ReducedProblem" and s.attrs]
    for key in ("n_cheb", "j_max"):
        out[f"reduced.ReducedProblem.{key}"] = max((a[key] for a in bases), default=0)
    out["pde.newton.iterations"] = out.pop("pde.newton_solve.iterations", 0.0)
    converged = out.pop("pde.newton_solve.converged", 0.0)
    solves = out.get("pde.newton_solve.calls", 0.0)
    out["pde.newton.converged_ratio"] = converged / solves if solves else 0.0
    return dict(out)


def machine_facts(cl):
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.dirname(cl.__file__)):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_py_lines": src_lines,
    }


def import_program():
    """Import curvelayers from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "curvelayers", "__init__.py")):
        raise SystemExit(f"perfbench: no curvelayers sources under {SRC}")
    sys.path.insert(0, SRC)
    import curvelayers

    if os.path.dirname(os.path.dirname(os.path.realpath(curvelayers.__file__))) != os.path.realpath(SRC):
        raise SystemExit(f"perfbench: curvelayers was imported from {curvelayers.__file__}, not {SRC}")
    return curvelayers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cl = import_program()
    from perfbench.workloads import WORKLOADS

    tracer = restore = None
    if args.trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        restore = install(tracer, cl)
    scratch = os.path.join(ROOT, SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = WORKLOADS[args.workload](cl, args.seed, tmpdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        records = run_loop(workload.ops(), args.seconds, tracer)
        result = {
            "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "facts": machine_facts(cl),
        }
        if tracer is not None:
            restore()
            result["layers"] = layer_metrics(tracer, records)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
