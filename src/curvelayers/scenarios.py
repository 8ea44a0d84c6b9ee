"""Scenario definitions: domain + potential + run parameters, JSON round-trip.

Potentials and test parameters are expression strings evaluated in a numpy
namespace; names are checked at every nesting depth and attribute access is
refused. Expressions may use t, theta (chart coordinates) or y1, y2
(physical coordinates through the chart map).
"""

import ast
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import geodesic, geometry

__all__ = ["Scenario", "load_scenario", "save_scenario", "builtin_scenario", "resolve_scenario", "parse_expression", "build_domain"]

_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "abs": np.abs,
    "pi": np.pi,
    "arctan": np.arctan,
}

_STAGES = ("profiles", "chart", "gap", "geodesic", "ansatz", "reduced", "pde")


# nodes that reach attributes or open a nested scope, where names escape a
# check of the top-level code object
_REFUSED_NODES = (ast.Attribute, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.NamedExpr)


def parse_expression(expr, names):
    """Vectorized callable of the named variables from an expression string.

    Every name, at any nesting depth, must be a namespace entry or one of
    ``names``; attribute access, lambdas, comprehensions and assignment
    expressions raise ValueError.
    """
    tree = ast.parse(expr, "<scenario>", "eval")
    for node in ast.walk(tree):
        if isinstance(node, _REFUSED_NODES):
            raise ValueError(f"{type(node).__name__} not allowed in expression {expr!r}")
        if isinstance(node, ast.Name) and node.id not in _NAMESPACE and node.id not in names:
            raise ValueError(f"unknown name {node.id!r} in expression {expr!r}")
    code = compile(tree, "<scenario>", "eval")

    def fn(*args):
        local = dict(zip(names, (np.asarray(a, dtype=float) for a in args)))
        out = eval(code, {"__builtins__": {}}, {**_NAMESPACE, **local})
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(*(np.shape(a) for a in args))).copy()

    return fn


@dataclass
class Scenario:
    name: str
    p: float = 3.0
    domain: dict = field(default_factory=lambda: {"kind": "flat_channel", "half_width": 4.0})
    potential: str = "1 + t**2"
    epsilons: tuple = (0.2, 0.1, 0.05, 0.025)
    # the default sweep brushes the j = 11 crossing at eps = 0.05 (margin
    # 1.5e-3), so the shipped constant keeps c*eps below it for every entry
    gap_constant: float = 0.025
    tier: int = 5
    f_expr: str = "sin(pi*theta)"
    e_expr: str = "cos(pi*theta)"
    stages: tuple = _STAGES
    pde_eps: float = 0.05
    pde_tier: int = 2
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if list(eps) != sorted(eps, reverse=True):
            raise ValueError("epsilon list must be sorted descending")
        self.epsilons = eps
        bad = [s for s in self.stages if s not in _STAGES]
        if bad:
            raise ValueError(f"unknown stages {bad}")
        self.stages = tuple(self.stages)
        bad = [f"grid.{k}" for k in self.grid if k != "pde"]
        bad += [f"grid.pde.{k}" for k in self.grid.get("pde", {}) if k not in ("fine_per_layer", "n_theta")]
        if bad:
            raise ValueError(f"unknown grid keys {bad}; a scenario sets only grid.pde.fine_per_layer and grid.pde.n_theta")

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def save_scenario(scn, path):
    with open(path, "w") as fh:
        fh.write(scn.to_json() + "\n")


def load_scenario(path):
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return Scenario(**raw)
    except TypeError as exc:
        raise ValueError(f"bad scenario file {path}: {exc}") from None


def resolve_scenario(scn, tier=None):
    """Scenario from a JSON path, a builtin name or a Scenario.

    A given tier replaces the scenario's in a copy; the caller's object is
    never changed.
    """
    if isinstance(scn, str):
        scn = load_scenario(scn) if os.path.exists(scn) else builtin_scenario(scn)
    return scn if tier is None else replace(scn, tier=int(tier))


def build_domain(scn):
    """Chart for the scenario's domain description."""
    dom = scn.domain
    kind = dom.get("kind")
    if kind == "flat_channel":
        curve = geometry.flat_channel_curve()
        delta0 = float(dom.get("half_width", 4.0))
    elif kind == "disk_diameter":
        curve = geometry.disk_diameter_curve()
        delta0 = float(dom.get("delta0", 0.35))
    elif kind == "bent_channel":
        curve = geometry.bent_channel_curve(kappa=float(dom.get("kappa", 0.5 * np.pi)))
        delta0 = float(dom.get("delta0", 0.5))
    elif kind == "generic_chart":
        curve = geometry.generic_chart_curve(
            kappa=float(dom.get("kappa", 0.8)),
            c1=tuple(dom.get("c1", (1.0, 0.5))),
            c2=tuple(dom.get("c2", (-0.8, 0.3))),
        )
        delta0 = float(dom.get("delta0", 0.3))
    elif kind == "custom":
        g1 = parse_expression(dom["gamma1"], ("s",))
        g2 = parse_expression(dom["gamma2"], ("s",))
        curve = geometry.CurveSpec(
            gamma=geometry.ScalarFn(lambda s: np.stack([g1(s), g2(s)], axis=-1)),
            phi1=geometry.ScalarFn(parse_expression(dom["phi1"], ("t",))),
            phi2=geometry.ScalarFn(parse_expression(dom["phi2"], ("t",))),
            sigma0=float(dom.get("sigma0", 0.1)),
            name=dom.get("name", "custom"),
        )
        delta0 = float(dom["delta0"])
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    return geometry.build_chart(curve, delta0=delta0)


def build_field(scn, chart):
    """PotentialField from the scenario's expression (t/theta or y1/y2)."""
    expr = scn.potential
    if "y1" in expr or "y2" in expr:
        base = parse_expression(expr, ("y1", "y2"))

        def V(t, th):
            y = chart.F(np.asarray(t, dtype=float), np.asarray(th, dtype=float))
            return base(y[..., 0], y[..., 1])

    else:
        V = parse_expression(expr, ("t", "theta"))
    pad = 0.9 * chart.sigma0
    return geodesic.build_potential(scn.p, V, span=(-pad, 1.0 + pad))


def state_exprs(scn):
    f = parse_expression(scn.f_expr, ("theta",)) if scn.f_expr else None
    e = parse_expression(scn.e_expr, ("theta",)) if scn.e_expr else None
    return f, e


# the builtin scenarios: one JSON file each, shipped as package data
_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def builtin_scenario(name):
    """The scenario of the shipped fixture fixtures/<name>.json."""
    if f"{name}.json" not in os.listdir(_FIXTURES):
        raise ValueError(f"no builtin scenario named {name!r}")
    return load_scenario(os.path.join(_FIXTURES, f"{name}.json"))
