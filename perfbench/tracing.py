"""Spans around the public callables of the curvelayers modules.

The wrappers are installed from outside the package: every module binding
of a wrapped function (including names imported with ``from .x import y``)
is replaced, so calls inside the package go through the span too. Spans are
kept in memory; self times are computed once the run is over.
"""

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute); the span is named "module.attribute"
FUNCTIONS = [
    ("profiles", "build_profiles"),
    ("ansatz", "build_strip_context"),
    ("scenarios", "build_domain"),
    ("scenarios", "build_field"),
    ("geodesic", "nondegeneracy_test"),
    ("geodesic", "stationarity_residual"),
    ("geodesic", "weighted_length"),
    ("reduced", "solve_e_problem"),
    ("reduced", "solve_f_problem"),
    ("reduced", "gap_check"),
    ("strip", "solve_strip_layer"),
    ("ansatz", "solve_h_bvp"),
    ("ansatz", "interior_residual"),
    ("ansatz", "boundary_residual"),
    ("ansatz", "project_residual"),
    ("pde", "chart_mesh"),
    ("pde", "rectangle_mesh"),
    ("pde", "initial_residual"),
    ("pde", "newton_solve"),
    ("harness", "run_scenario"),
]

# (module, class, method, span name); the six StripLayer evaluators share one span
METHODS = [
    ("strip", "StripLayer", m, "strip.StripLayer.eval") for m in ("value", "dx", "dxx", "dz", "dxz", "dzz")
] + [
    ("ansatz", "AnsatzBundle", "W_eval", "ansatz.W_eval"),
    ("reduced", "ReducedProblem", "__init__", "reduced.ReducedProblem"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # operation id, -1 outside operations
    attrs: dict


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, {}))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None, name_of=None):
        """Callable that records a span around ``fn``.

        ``name_of(args, kwargs)`` picks the span name per call; ``attrs(result,
        args)`` returns numbers to attach to the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs is not None:
                span.attrs.update(attrs(result, args))
            return result

        return functools.wraps(fn)(traced)

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _assemble_name(args, kwargs):
    tier = kwargs["tier"] if "tier" in kwargs else args[0]
    return f"ansatz.assemble_ansatz.tier{int(tier)}"


# numbers attached to a span, from (result, args) of the wrapped call
ATTRS = {
    "pde.newton_solve": lambda trace, args: {"iterations": trace.iterations, "converged": int(bool(trace.converged))},
    # n_cheb is the Chebyshev degree of the basis (nodes.size - 1)
    "reduced.ReducedProblem": lambda _, args: {"n_cheb": args[0].basis.nodes.size - 1, "j_max": args[0].j_max},
}


def install(tracer, package):
    """Wrap the traced callables of ``package``; returns an undo function."""
    modules = [getattr(package, m) for m in package.__all__]
    undo = []

    def rebind(orig, new):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    undo.append((mod, key, orig))

    for mod_name, attr in FUNCTIONS:
        name = f"{mod_name}.{attr}"
        orig = getattr(getattr(package, mod_name), attr)
        rebind(orig, tracer.wrap(orig, name, attrs=ATTRS.get(name)))
    orig = package.ansatz.assemble_ansatz
    rebind(orig, tracer.wrap(orig, None, name_of=_assemble_name))
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(getattr(package, mod_name), cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(orig, name, attrs=ATTRS.get(name)))
        undo.append((cls, meth, orig))

    def restore():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return restore


# per-layer metrics that are not a span's self time or call count
DERIVED = (
    "reduced.ReducedProblem.n_cheb",
    "reduced.ReducedProblem.j_max",
    "pde.newton.iterations",
    "pde.newton.converged_ratio",
    "unattributed.self_s",
    "trace.pass_s",
)


def span_names():
    names = {f"{m}.{a}" for m, a in FUNCTIONS} | {n for *_, n in METHODS}
    return names | {f"ansatz.assemble_ansatz.tier{t}" for t in range(1, 6)}


def metric_names():
    """Every per-layer metric a traced run can report."""
    return {f"{s}.{k}" for s in span_names() for k in ("self_s", "calls")} | set(DERIVED)


def layer_table(tracer, op_kind):
    """Per-layer totals for each operation kind.

    ``op_kind`` maps an operation id to its kind (a fixture name, a ladder
    rung, a Newton case). Returns ``{kind: {span name: {"self_s", "calls",
    attribute sums}}}`` summed over the repetitions of that kind, and the
    number of repetitions per kind.
    """
    selfs = tracer.self_times()
    table = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    reps = defaultdict(set)
    for span, st in zip(tracer.spans, selfs):
        if span.op < 0:
            continue
        kind = op_kind[span.op]
        reps[kind].add(span.op)
        row = table[kind][span.name]
        row["self_s"] += st
        row["calls"] += 1
        for key, val in span.attrs.items():
            row[key] += val
    return table, {k: len(v) for k, v in reps.items()}
