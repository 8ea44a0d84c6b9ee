"""curvelayers benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {fixtures,eps-ladder,newton} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every workload run gets fresh processes:
``--trace 0`` first starts ``SETUP_PROBES`` processes that only set up (to
time set-up several times), then one process that sets up and runs the
workload; ``--trace 1`` starts only the traced workload process. The worker
runs with one BLAS thread. Lines before the last describe the run (every
timing with its sample count, failures with tracebacks, machine facts); the
last line is the JSON result whose metrics are named in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not __package__:
    # run as a script: import the benchmark's other modules as the perfbench package
    sys.path[0] = ROOT

from perfbench.tracing import metric_names  # noqa: E402
from perfbench.worker import SCRATCH  # noqa: E402

SETUP_PROBES = 4
# workers still running this long after --seconds are killed and the run fails; it
# covers the set-up probes, a first pass longer than --seconds and one overrun
DEADLINE_MARGIN_S = 120.0
# names under which the per-operation and per-pass timings are printed
OP_PREFIX = {"fixtures": "run_s", "eps-ladder": "ladder_s", "newton": "case_s"}
PASS_NAME = {"fixtures": "fixtures_pass_s", "eps-ladder": "ladder_pass_s", "newton": "newton_pass_s"}


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(args, extra, deadline):
    """Run one worker to its end; return (set-up seconds, stdout lines after READY)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    setup_s = None
    lines = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if setup_s is None and line.strip() == "READY":
                    setup_s = time.perf_counter() - t0
                elif setup_s is not None:
                    lines.append(line)
                else:
                    sys.stderr.write(line)
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    code = proc.returncode
    if code != 0 or setup_s is None:
        raise RunError(f"worker {' '.join(extra) or 'run'} exited with code {code} before finishing")
    return setup_s, lines


def parse_result(lines):
    for line in lines:
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
        sys.stderr.write(line)
    raise RunError("worker printed no RESULT line")


def op_medians(records):
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec["wall_s"])
    return {k: (statistics.median(v), len(v)) for k, v in by_kind.items()}


def end_to_end(records, setup_samples, peak_rss_mb):
    """Gated metrics: every timing is a median over the samples of this run."""
    med = op_medians(records)
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_s": sum(m for m, _ in med.values()),
        "peak_rss_mb": peak_rss_mb,
    }


def outcome(records):
    """``correct``, ``attempted`` and ``failed``; a known defect is not a failure."""
    failed = sum(r["status"] in ("failed", "incorrect") for r in records)
    correct = all(r["status"] != "incorrect" for r in records)
    return correct, len(records), failed


def describe(workload, records, setup_samples, result):
    """Human-readable lines: per-operation timings, failures and facts."""
    out = []
    med = op_medians(records)
    n_pass = min(n for _, n in med.values())
    if setup_samples:
        out.append(f"setup_s = {statistics.median(setup_samples):.4f} s (median of {len(setup_samples)})")
    for kind, (m, n) in med.items():
        out.append(f"{OP_PREFIX[workload]}.{kind} = {m:.4f} s (median of {n})")
    out.append(f"{PASS_NAME[workload]} = {sum(m for m, _ in med.values()):.4f} s "
               f"(sum of per-operation medians; {n_pass} whole pass(es))")
    _, attempted, failed = outcome(records)
    not_ok = sum(r["status"] != "ok" for r in records)
    out.append(f"fail_ratio = {not_ok / attempted:.4f} ({not_ok} of {attempted} operations; "
               f"{failed} failed, {not_ok - failed} known defects)")
    out.append(f"peak_rss_mb = {result['peak_rss_mb']:.1f} MiB")
    layers = result.get("layers")
    if layers:
        selfs = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        out.append(f"trace: self times sum to {selfs:.4f} s of a {layers['trace.pass_s']:.4f} s traced pass "
                   f"({layers['unattributed.self_s']:.4f} s outside every layer span)")
    repeats = {}
    for rec in records:
        if rec["status"] != "ok":
            key = (rec["status"], rec["kind"], rec["error"])
            repeats.setdefault(key, [0, rec.get("traceback")])[0] += 1
    for (status, kind, error), (n, tb) in repeats.items():
        out.append(f"{status}: {kind}: {error}" + (f" (x{n})" if n > 1 else ""))
        if tb:
            out.extend(tb.rstrip().splitlines())
    out.append("facts " + json.dumps(result["facts"], sort_keys=True))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OP_PREFIX))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = sorted({m["name"] for m in spec["per_layer"]} - metric_names())
    if unknown:
        print(f"perfbench: BENCHMARK.json names per-layer metrics no span gives: {unknown}", file=sys.stderr)
        return 1
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(start_worker(args, ["--setup-only"], deadline)[0])
        setup_s, lines = start_worker(args, [], deadline)
        result = parse_result(lines)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, SCRATCH), ignore_errors=True)
    records = result["records"]
    if args.trace:
        measured = result["layers"]
    else:
        setup_samples.append(setup_s)
        measured = end_to_end(records, setup_samples, result["peak_rss_mb"])
    for line in describe(args.workload, records, setup_samples, result):
        print(line)
    if args.trace:
        for name in sorted(measured):
            print(f"layer {name} = {measured[name]:.6g}")
    correct, attempted, failed = outcome(records)
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
