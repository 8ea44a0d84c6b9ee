"""Memory guards of a tier-5 rung: what it keeps, and its traced peak."""

import tracemalloc

import numpy as np
import pytest

from curvelayers import ansatz as az
from curvelayers import reduced as rd

EPS = 0.02
J_MAX = 200  # the eps-ladder's j_max at this eps


def _rung(ctx, chart, field):
    """ReducedProblem, tiers 3-5 (one ring solve) and both residuals."""
    problem = rd.ReducedProblem(chart, field, 3.0, j_max=J_MAX)
    for tier in (3, 4, 5):
        bundle = az.assemble_ansatz(tier, az.zero_state(), EPS, ctx, chart, field, reduced_problem=problem)
    az.interior_residual(bundle)
    az.boundary_residual(bundle)
    return problem, bundle


@pytest.fixture(scope="module")
def rung(ctx3, bent_chart, bent_field):
    return _rung(ctx3, bent_chart, bent_field)


def _arrays(obj):
    """The arrays among the attributes of obj, one container level deep."""
    for value in vars(obj).values():
        items = value if isinstance(value, (tuple, list)) else value.values() if isinstance(value, dict) else (value,)
        yield from (item for item in items if isinstance(item, np.ndarray))


def test_problem_keeps_no_chebyshev_matrix(rung):
    problem, _ = rung
    n = min(problem.basis.nodes.size, problem.ring.nodes.size)
    assert problem.last_ring[1] is not None  # the ring problem was solved
    for owner in (problem, problem.basis, problem.ring):
        for arr in _arrays(owner):
            assert not (arr.ndim == 2 and min(arr.shape) >= n - 2), (type(owner).__name__, arr.shape)


def test_strip_layers_keep_only_their_syntheses(rung):
    _, bundle = rung
    for layer in (bundle.phi22, bundle.phi3):
        # the syntheses v, v_z and m of the last call, no wider than its points
        assert layer._last is not None
        kept_z, kept = layer._last
        assert kept_z.size <= az._RESIDUAL_BLOCK and len(kept) == 3
        assert all(arr.shape == (layer.basis.x.size, kept_z.size) for arr in kept)
        wide = [arr.shape for arr in _arrays(layer) if arr.ndim == 2 and arr.shape[1] > kept_z.size]
        assert not wide, wide
        # the coefficient tables are formed for the caller and not kept
        z = np.linspace(0.0, layer.L, 7)
        c, cp = layer._coefs(z)
        assert c.shape == cp.shape == (layer.nu.size, z.size)
        assert layer._last[0] is kept_z


def test_bundle_keeps_five_knot_tables(rung):
    # the interior and boundary residuals read the phi4 layer at the knots:
    # d2th is formed when read, and the slope of dxx only between knots
    _, bundle = rung
    assert set(bundle.phi4.knots) == {"val", "dth", "dx", "dxdth", "dxx"}


def test_rung_traced_peak(rung, ctx3, bent_chart, bent_field):
    # the module fixture ran the same rung, so every cache of the context and
    # the field is warm. The bound is 10% above the measured 17.1 MiB; a phi4
    # layer per x-parity, each with its own five knot tables, read 22.3 MiB,
    # seven knot tables per parity, full-width strip syntheses and the norms'
    # full-width temporaries 33.2 MiB, and a basis that keeps D1 and D2 and
    # strip layers that keep full-width c and c' tables 42.9 MiB
    tracemalloc.start()
    try:
        _rung(ctx3, bent_chart, bent_field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18.8 * 2**20
