"""Correction layers on the strip, the assembled ansatz, and its residuals.

Tiers stack the profile w, the curvature-driven 1D corrections, the
oscillatory boundary layer with its strip companion, the resonance amplitude
term, and the per-section solves that remove the even second-order interior
error. The interior/boundary residuals are evaluated by exact chain rule
through the chart (no grid differencing), so order fits stay clean down to
the smallest epsilon.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geodesic, reduced
from .geometry import ZERO_FN, ScalarFn
from .profiles import build_profiles
from .strip import build_strip_basis, solve_strip_layer
from .util import Quintic, bridge_cutoff, fd_first_axis, hermite, simpson_weights, smoothstep, spline_slopes, write_table

__all__ = [
    "ReducedState",
    "state_from_callables",
    "zero_state",
    "Amplitude",
    "resonance_amplitude",
    "StripContext",
    "build_strip_context",
    "LayerCoeffs",
    "boundary_ring_constants",
    "solve_h_bvp",
    "AnsatzBundle",
    "assemble_ansatz",
    "ResidualReport",
    "interior_residual",
    "BoundaryReport",
    "boundary_residual",
    "ProjectionReport",
    "project_residual",
    "default_z_grid",
]


# ---------------------------------------------------------------------------
# parameters (f, e, h)


def _theta_fn(f, fp=None, fpp=None):
    """f with its first two theta-derivatives, analytic where given; zero when f is None."""
    return ZERO_FN if f is None else ScalarFn(f, d1=fp, d2=fpp)


@dataclass
class ReducedState:
    """Layer-location parameter f, resonance amplitude e, ring correction h.

    Each is a function of theta with fn(th) and fn.deriv(th, order) for the
    orders 1 and 2: a geometry.ScalarFn or a reduced FSolution/ESolution.
    """

    f: object
    e: object
    h: object

    def norm_star(self):
        th = np.linspace(0.0, 1.0, 2001)
        wq = simpson_weights(th.size, th[1] - th[0])
        return float(
            np.max(np.abs(self.f(th)))
            + np.max(np.abs(self.f.deriv(th, 1)))
            + np.sqrt(np.sum(wq * self.f.deriv(th, 2) ** 2))
        )

    def norm_dstar(self, eps):
        th = np.linspace(0.0, 1.0, 2001)
        wq = simpson_weights(th.size, th[1] - th[0])
        return float(
            np.max(np.abs(self.e(th)))
            + eps * np.sqrt(np.sum(wq * self.e.deriv(th, 1) ** 2))
            + eps**2 * np.sqrt(np.sum(wq * self.e.deriv(th, 2) ** 2))
        )

    def robin_residuals(self, k1, k2):
        """Robin mismatches of h at the two ends."""
        h0 = float(self.h.deriv(0.0, 1) + k1 * self.h(0.0))
        h1 = float(self.h.deriv(1.0, 1) + k2 * self.h(1.0))
        return h0, h1


def state_from_callables(f=None, fp=None, fpp=None, e=None, ep=None, epp=None):
    """The state of f and e with their given derivatives, and h = 0."""
    return ReducedState(f=_theta_fn(f, fp, fpp), e=_theta_fn(e, ep, epp), h=ZERO_FN)


def zero_state():
    return state_from_callables()


# ---------------------------------------------------------------------------
# resonance amplitude


@dataclass
class Amplitude:
    c0: float
    c1: float
    ell: float
    lambda0: float
    eps: float
    flagged: bool

    @property
    def K(self):
        """Coefficient of cos(r a / eps), r = sqrt(lambda0), set by the end data c0, c1."""
        r = np.sqrt(self.lambda0)
        return (self.c0 * np.cos(r * self.ell / self.eps) - self.c1) / (r * np.sin(r * self.ell / self.eps))

    def __call__(self, a):
        r = np.sqrt(self.lambda0)
        a = np.asarray(a, dtype=float)
        return self.K * np.cos(r * a / self.eps) + self.c0 / r * np.sin(r * a / self.eps)

    def deriv(self, a, order=1):
        if order == 2:
            return -(self.lambda0 / self.eps**2) * self(a)
        r = np.sqrt(self.lambda0)
        a = np.asarray(a, dtype=float)
        return (-self.K * np.sin(r * a / self.eps) + self.c0 / r * np.cos(r * a / self.eps)) * (r / self.eps)

    @property
    def sup(self):
        return float(np.hypot(self.K, self.c0 / np.sqrt(self.lambda0)))


def resonance_amplitude(eps, c0, c1, ell, lambda0):
    """Amplitude A with eps*A solving the two-point resonance problem.

    Verified by substitution; flagged unreliable near resonance where
    |sin(sqrt(lambda0) ell / eps)| drops below 0.05.
    """
    margin = abs(np.sin(np.sqrt(lambda0) * ell / eps))
    return Amplitude(
        c0=float(c0),
        c1=float(c1),
        ell=float(ell),
        lambda0=float(lambda0),
        eps=float(eps),
        flagged=bool(margin < 0.05),
    )


# ---------------------------------------------------------------------------
# strip-side profile context


@dataclass
class StripContext:
    """Fine-grid profiles with a coarser strip grid and the two x-bases.

    The bases, the phi4 profiles and their responses, the ring-source mode
    vectors and the seed quintic are built on first read: the profiles stage
    and tiers 1-2 read none of them, and the Newton seeds only the quintic.
    """

    p: float
    sigma: float
    lambda0: float
    fine: object
    sub: np.ndarray
    x: np.ndarray
    hx: float
    wq: np.ndarray
    tables: dict
    fine_tables: dict

    def integrate(self, values, axis=0, out=None):
        """Quadrature of values over x along axis; out, when given, holds the weighted values."""
        shape = [1] * np.ndim(values)
        shape[axis] = self.x.size
        return np.multiply(values, self.wq.reshape(shape), out=out).sum(axis=axis)

    @cached_property
    def basis_t(self):
        return build_strip_basis(self.p, self.x)

    @cached_property
    def basis_m(self):
        """The massive basis: basis_t's eigenvectors, its eigenvalues shifted by 1 - _K_TILDE."""
        return self.basis_t.massive(_K_TILDE)

    @cached_property
    def quintic(self):
        """The Newton seed's quintic interpolation on x: its collocation matrix, factored."""
        return Quintic(self.x)

    @cached_property
    def phi4_profiles(self):
        """The x-profiles of the phi4 right sides (_phi4_profiles)."""
        return _phi4_profiles(self.fine_tables, self.p)

    @cached_property
    def phi4_response(self):
        """The phi4 solution of each profile of phi4_profiles at the strip
        points (_phi4_solve): val, dx and dxx, each (nx_strip, n_profiles).
        The phi4 problem is linear and the profiles do not depend on theta."""
        return _phi4_solve(self, self.phi4_profiles["rhs"][:, :, 0].T)

    @cached_property
    def ring_modes(self):
        """x-integrals against the ring-source weights of the basis_t modes a layer carries (see _h_weights)."""
        t, E, act = self.tables, self.basis_t.E, self.basis_t.layer_modes
        return {
            "v_x_wx": self.integrate(fd_first_axis(E, self.hx)[:, act] * t["w_x"][:, None], axis=0),
            "v_val_x": self.integrate(E[:, act] * (t["x"] * t["w_x"])[:, None], axis=0),
            "v_3": self.integrate(E[:, act] * _ring_weight3(self)[:, None], axis=0),
        }


# the strip grid: profiles on 4001 points of [-20, 20], every fifth kept for
# the layers; the massive cross-section operator has mass 25
_X_MAX, _N_FINE, _STRIDE, _K_TILDE = 20.0, 4001, 5, 25.0


def build_strip_context(p):
    ps = build_profiles(p, x_max=_X_MAX, n=_N_FINE)
    sub = np.arange(0, _N_FINE, _STRIDE)
    x = ps.x[sub]

    def pack(ps, idx):
        return {
            "w": ps.w[idx],
            "w_x": ps.w_x[idx],
            "w_xx": ps.w_xx[idx],
            "w1": ps.w1[idx],
            "w1_x": ps.w1_x[idx],
            "w1_xx": ps.w1_xx()[idx],
            "w2": ps.w2[idx],
            "w2_x": ps.w2_x[idx],
            "w2_xx": ps.w2_xx()[idx],
            "Z": ps.Z[idx],
            "Z_x": ps.Z_x[idx],
            "Z_xx": ps.Z_xx()[idx],
            "x": ps.x[idx],
        }

    return StripContext(
        p=ps.p,
        sigma=ps.sigma,
        lambda0=ps.lambda0,
        fine=ps,
        sub=sub,
        x=x,
        hx=float(x[1] - x[0]),
        wq=simpson_weights(x.size, float(x[1] - x[0])),
        tables=pack(ps, sub),
        fine_tables=pack(ps, np.arange(_N_FINE)),
    )


# ---------------------------------------------------------------------------
# theta-side coefficients

# the two end sections, theta = 0 and 1: end data are (nx, 2) arrays, one
# column per end, and an end pair of constants is a row that scales them
_ENDS = np.array([0.0, 1.0])


class LayerCoeffs:
    """Curve-side coefficients, each a function of theta, and endpoint constants."""

    def __init__(self, chart, potential):
        alpha = self.alpha = potential.alpha
        beta = self.beta = potential.beta
        k = self.k = chart.k
        self.varpi = chart.varpi
        self.hbar1 = lambda th: geodesic.hbar1(potential, th)
        self.hbar2 = lambda th: geodesic.hbar2(chart, potential, th)
        self.V_tt0 = lambda th: potential.V_tt(np.zeros_like(th), th)
        self.a11 = ScalarFn(lambda th: -k(th) / beta(th))
        self.a12 = ScalarFn(lambda th: -k(th) / potential.sigma)
        beta_rat, alpha_rat = (fn.deriv(_ENDS, 1) / fn(_ENDS) for fn in (beta, alpha))
        self.b5, self.b6 = np.array((chart.k1, chart.k2)) - beta_rat
        self.b5_tilde, self.b6_tilde = 0.5 * np.array((self.b5, self.b6)) + alpha_rat
        self.hbar5 = lambda th: 2.0 * alpha.deriv(th, 1) / (alpha(th) * beta(th) ** 2) - beta.deriv(th, 1) / beta(th) ** 3

        beta0, beta1 = beta(_ENDS)

        def xi(th):
            chi0 = 1.0 - smoothstep((np.abs(np.asarray(th, dtype=float)) - 0.5) * 4.0)
            return chi0 / beta0 + (1.0 - chi0) / beta1

        self.xi = ScalarFn(xi)


def boundary_ring_constants(bundle):
    """(c0, c1) and the raw end data (nx, 2): resonance-mode content of the two end boundary errors."""
    co, ctx, t = bundle.coeffs, bundle.ctx, bundle.ctx.tables
    rows = _Rows(bundle, _ENDS)
    raw = np.array((co.b5, co.b6)) * t["x"][:, None] * t["w_x"][:, None] - rows["alphap"] / rows["alpha"] * t["w"][:, None]
    return tuple(float(ctx.integrate(end * t["Z"])) for end in raw.T), raw


# ---------------------------------------------------------------------------
# ring (h) problem


def _ring_weight3(ctx):
    """p (p - 1) w^(p-2) w1 w_x on the strip grid: the weight of the third ring source."""
    t = ctx.tables
    return ctx.p * (ctx.p - 1.0) * t["w"] ** (ctx.p - 2.0) * t["w1"] * t["w_x"]


def _h_weights(ctx, phi22):
    """The x-integrals the ring sources read: rho1, three Z moments and, with
    phi22 (a layer on ctx.basis_t, so carrying its layer_modes), ctx.ring_modes."""
    t = ctx.tables
    weights = {
        "rho1": float(ctx.integrate(t["w_x"] ** 2)),
        "I_Zx_wx": float(ctx.integrate(t["Z_x"] * t["w_x"])),
        "I_Z_xwx": float(ctx.integrate(t["Z"] * t["x"] * t["w_x"])),
        "I_Z_3": float(ctx.integrate(t["Z"] * _ring_weight3(ctx))),
    }
    if phi22 is not None:
        weights.update(ctx.ring_modes)
    return weights


def _h_sources(bundle, rows, weights):
    """alpha1, alpha2, G1+G2+G3 at the sections of rows (all vanish with the data).

    weights are the x-integrals of _h_weights for bundle.phi22.
    """
    eps, phi22 = bundle.eps, bundle.phi22
    xi, beta, k, Aa, Apa = (rows[name] for name in ("xi", "beta", "k", "A", "Ap"))
    rho1, I_Zx_wx, I_Z_xwx, I_Z_3 = (weights[key] for key in ("rho1", "I_Zx_wx", "I_Z_xwx", "I_Z_3"))
    if phi22 is None:
        p_xz = p_x_wx = p_xwx = p_3 = np.zeros_like(rows.th)
    else:
        c, cp = phi22._coefs(rows["zt"])
        p_xz = weights["v_x_wx"] @ cp  # int phi*_{x ztilde} w_x dx
        p_x_wx = weights["v_x_wx"] @ c  # int phi*_x w_x dx
        p_xwx = weights["v_val_x"] @ c  # int phi* x w_x dx
        p_3 = weights["v_3"] @ c
    alpha1 = 2.0 / rho1 * xi * beta * (eps * Apa * I_Zx_wx + p_xz)
    alpha2 = rows["varpi"] * alpha1
    g1 = -(k / rho1) * xi * (Aa * I_Zx_wx + p_x_wx)
    g2 = -(k / (bundle.ctx.sigma * rho1)) * xi * (Aa * I_Z_xwx + p_xwx)
    g3 = rows["a11"] * beta / rho1 * xi * (Aa * I_Z_3 + p_3)
    return alpha1, alpha2, g1 + g2 + g3


def solve_h_bvp(bundle, problem, ledger=None):
    """Ring correction h from the Robin problem fed by the boundary layers.

    Refuses on a degenerate reduced operator (the ReducedProblem constructor
    raises) or a failed gap ledger; with identically vanishing sources the
    zero solution is returned directly. The sources read only eps, the
    strip context, the chart and the field (through A and phi22), not the
    state or the tier, so problem keeps its last result
    (ReducedProblem.last_ring) and returns it for the same four; a kept
    nonzero h is refused under a failing ledger as a fresh solve is.
    """
    key = (bundle.eps, bundle.ctx, bundle.chart, bundle.field)
    if problem.last_ring is not None:
        (eps, *objects), h = problem.last_ring
        if eps == key[0] and all(a is b for a, b in zip(objects, key[1:])):
            if h is not None:
                reduced.refuse_failing_ledger(ledger)
            return h
    h = _solve_h_bvp(bundle, problem, ledger)
    problem.last_ring = (key, h)
    return h


def _solve_h_bvp(bundle, problem, ledger):
    alpha1, alpha2, g = _h_sources(bundle, _Rows(bundle, problem.ring.theta), _h_weights(bundle.ctx, bundle.phi22))
    if np.max(np.abs(alpha1)) + np.max(np.abs(g)) < 1e-14:
        return None  # zero ring correction
    return reduced.solve_f_problem(problem, g, bundle.eps, alpha1=alpha1, alpha2=alpha2, ledger=ledger)


# ---------------------------------------------------------------------------
# layers

_FIELDS = ("v", "vx", "vxx", "vz", "vzz", "vxz")

# rows derived from other rows; d/dtheta of A(a(theta)) carries a' = beta
_DERIVED_ROWS = {
    "one": lambda r: np.ones_like(r.th),
    "onep": lambda r: np.zeros_like(r.th),
    "onepp": lambda r: np.zeros_like(r.th),
    "fh": lambda r: r["f"] + r["h"],
    "fhp": lambda r: r["fp"] + r["hp"],
    "fhpp": lambda r: r["fpp"] + r["hpp"],
    "c2": lambda r: r["a12"] * r["fh"],
    "c2p": lambda r: r["a12p"] * r["fh"] + r["a12"] * r["fhp"],
    "c2pp": lambda r: r["a12pp"] * r["fh"] + 2.0 * r["a12p"] * r["fhp"] + r["a12"] * r["fhpp"],
    "arc": lambda r: r.bundle.field.arc(r.th),
    "A": lambda r: r.bundle.amplitude(r["arc"]),
    "Ap": lambda r: r.bundle.amplitude.deriv(r["arc"], 1),
    "App": lambda r: r.bundle.amplitude.deriv(r["arc"], 2),
    "xiA": lambda r: r["xi"] * r["A"],
    "xiAp": lambda r: r["xip"] * r["A"] + r["xi"] * r["Ap"] * r["beta"],
    "xiApp": lambda r: r["xipp"] * r["A"]
    + 2.0 * r["xip"] * r["Ap"] * r["beta"]
    + r["xi"] * (r["App"] * r["beta"] ** 2 + r["Ap"] * r["betap"]),
    "zt": lambda r: r.bundle.field.arc(r.th) / r.bundle.eps,
}


class _Rows(dict):
    """Theta-only rows at the sections th, each evaluated once on first use.

    The one reader of theta-only quantities: one instance serves every layer
    of a strip_fields call and the chain rule of a residual. A row is a
    derived row (_DERIVED_ROWS) or the name of a theta-function followed by
    one "p" per derivative ("betapp" is beta'', "ep" is e'): f, e and h are
    read from the state, every other name from LayerCoeffs. "zt" holds the
    strip points arc(th)/eps of the sections, where the strip layers are read.
    """

    def __init__(self, bundle, th):
        super().__init__()
        self.bundle, self.th = bundle, th

    def __missing__(self, name):
        if name in _DERIVED_ROWS:
            value = _DERIVED_ROWS[name](self)
        else:
            base = name.rstrip("p")
            order = len(name) - len(base)
            fn = getattr(self.bundle.state if base in ("f", "e", "h") else self.bundle.coeffs, base)
            value = fn.deriv(self.th, order) if order else fn(self.th)
        self[name] = value
        return value


class _ProfileLayer:
    """eps^k g(x) c(theta): a profile table times a theta coefficient.

    coef names the row of c, whose theta-derivatives are the rows coef + "p"
    and coef + "pp"; a z derivative is eps times a theta derivative.
    """

    def __init__(self, tables, key, k, coef):
        self.g = [tables[key + suffix][:, None] for suffix in ("", "_x", "_xx")]
        self.k, self.coef = k, coef

    def fields(self, rows, derivs):
        g, gx, gxx = self.g
        s0, s1, s2 = (rows.bundle.eps ** (self.k + j) for j in range(3))
        c = rows[self.coef][None, :]
        v = s0 * g * c
        if not derivs:
            return (v,)
        cp, cpp = (rows[self.coef + suffix][None, :] for suffix in ("p", "pp"))
        return v, s0 * gx * c, s0 * gxx * c, s1 * g * cp, s2 * g * cpp, s1 * gx * cp


class _StripTerm:
    """eps^k xi(theta) L(x, zt) for a strip layer L read at zt = arc(theta)/eps.

    dzt/dz = beta and d2zt/dz2 = eps beta'.
    """

    def __init__(self, layer, k):
        self.layer, self.k = layer, k

    def fields(self, rows, derivs):
        L, zt, eps = self.layer, rows["zt"], rows.bundle.eps
        if L.is_zero(zt):
            return (0.0,) * (len(_FIELDS) if derivs else 1)
        s0, s1, s2 = (eps ** (self.k + j) for j in range(3))
        xi = rows["xi"][None, :]
        m = L.value(zt)
        v = s0 * xi * m
        if not derivs:
            return (v,)
        dxi, d2xi, beta, dbeta = (rows[name][None, :] for name in ("xip", "xipp", "beta", "betap"))
        m_x, m_z = L.dx(zt), L.dz(zt)
        return (
            v,
            s0 * xi * m_x,
            s0 * xi * L.dxx(zt),
            s1 * dxi * m + s0 * xi * beta * m_z,
            s2 * d2xi * m + 2.0 * s1 * dxi * beta * m_z + s0 * xi * (beta**2 * L.dzz(zt) + eps * dbeta * m_z),
            s1 * dxi * m_x + s0 * xi * beta * L.dxz(zt),
        )


class _TableLayer:
    """The phi4 layer read from its knot-table evaluators (see _Phi4Fields)."""

    def __init__(self, evaluators):
        self.ev = evaluators

    def fields(self, rows, derivs):
        ev, th, eps = self.ev, rows.th, rows.bundle.eps
        v = ev["val"](th)
        if not derivs:
            return (v,)
        return v, ev["dx"](th), ev["dxx"](th), eps * ev["dth"](th), eps**2 * ev["d2th"](th), eps * ev["dxdth"](th)


# ---------------------------------------------------------------------------
# bundle assembly


@dataclass
class AnsatzBundle:
    tier: int
    eps: float
    chart: object
    field: object
    coeffs: LayerCoeffs
    ctx: StripContext
    state: ReducedState
    delta: float
    z_grid: np.ndarray
    layers: list  # in tier order; assembly stops after its tier
    amplitude: object = None
    phi22: object = None
    phi3: object = None
    phi4: object = None  # _Phi4Fields: theta evaluators over (nx_strip, n_theta) knot tables
    c0: float = 0.0
    c1: float = 0.0
    h_solution: object = None

    @property
    def p(self):
        return self.ctx.p

    def theta_grid(self):
        return self.eps * self.z_grid

    # -- strip fields ------------------------------------------------------
    def strip_fields(self, z=None, derivs=True, rows=None):
        """Arrays (nx, nz) of v and, with derivs, v_x, v_xx, v_z, v_zz, v_xz.

        Each field is the sum over the layers, in order, of their parts, at
        the sections z (the z grid by default) or, given rows, at theirs. The
        theta-only rows are evaluated once per call, and the strip layers
        synthesize only these sections. Without derivs only v is formed, from
        the same terms in the same order.
        """
        if rows is None:
            z = self.z_grid if z is None else np.atleast_1d(np.asarray(z, dtype=float))
            rows = _Rows(self, self.eps * z)
        names = _FIELDS if derivs else _FIELDS[:1]
        out = dict.fromkeys(names, 0.0)
        for layer in self.layers:
            for name, part in zip(names, layer.fields(rows, derivs)):
                out[name] += part
        return out

    # -- physical evaluation -------------------------------------------------
    def window(self, t):
        cut = bridge_cutoff(3.0 * self.delta, 6.0 * self.delta)
        return cut(t), cut.deriv(t), cut.deriv(t, 2)

    def W_eval(self, t_pts, theta_val):
        """Global approximation at physical chart points (t_pts, theta_val)."""
        t_pts = np.asarray(t_pts, dtype=float)
        return self._W_columns(t_pts.ravel(), np.array([float(theta_val)]))[:, 0].reshape(t_pts.shape)

    def W_on_mesh(self, mesh):
        """Newton seed: W at the mesh nodes, flattened t-major."""
        return self._W_columns(mesh.t_nodes, mesh.th_nodes).ravel()

    def _W_columns(self, t_pts, th):
        """W at the points (t_pts, th[j]) as column j.

        One strip synthesis and one quintic in x through all the sections
        (the context's factored collocation); every column is then read at
        its own points in one pass.
        """
        rows = _Rows(self, th)
        quintic = self.ctx.quintic
        c = quintic.coefficients(self.strip_fields(derivs=False, rows=rows)["v"])
        xq = (rows["beta"] * (t_pts[:, None] / self.eps - rows["fh"])).ravel()
        vals = np.zeros(xq.size)
        inside = np.flatnonzero(np.abs(xq) <= self.ctx.x[-1])
        vals[inside] = quintic(c, xq[inside], inside % th.size)
        return self.window(t_pts)[0][:, None] * rows["alpha"] * vals.reshape(t_pts.size, th.size)


def export_strip_table(report, path):
    """Plot-ready columnar dump (x, z, E) of an interior residual table, every fourth x."""
    x = report.x[::4]
    z = report.z
    E = report.E[::4]
    xx, zz = np.meshgrid(x, z, indexing="ij")
    write_table(path, np.column_stack([xx.ravel(), zz.ravel(), E.ravel()]), header="x z E", fmt="%.12e")


def default_z_grid(eps):
    n = int(np.ceil(4.0 / eps))
    if n % 2 == 1:
        n += 1  # odd point count for Simpson in z
    return np.linspace(0.0, 1.0 / eps, n + 1)


# theta columns per block of the per-section solves: a fine-grid block of
# 4001 x 16 doubles is about 0.5 MiB, so no right-side temporary spans the
# whole theta grid (8 columns measured slower, 32-64 about equal)
_PHI4_BLOCK = 16


def _phi4_profiles(t, p):
    """The x-profiles (nx, 1) of the phi4 right side on the tables t: "rhs",
    the 14 even ones and then the 10 odd ones, in the order of their
    coefficient rows in _phi4_coefficients, and wp2 = sgn(w) |w|^(p-2)."""
    x, w, w_x, w_xx, w1, w2, Z, Z_x = (t[key] for key in ("x", "w", "w_x", "w_xx", "w1", "w2", "Z", "Z_x"))
    wp2 = np.sign(w) * np.abs(w) ** (p - 2.0)
    even = (x * w_x, x**2 * w_xx, w_xx, w, x**2 * w, t["w1_x"], x * w1, w2, Z, x * Z_x)
    even += (wp2 * w1**2, wp2 * w2**2, wp2 * Z**2, wp2 * w2 * Z)
    odd = (w_x, x * w_xx, x * w, t["w2_x"], x * w2, w1, Z_x, x * Z, wp2 * w1 * w2, wp2 * w1 * Z)
    return {"rhs": np.array(even + odd)[:, :, None], "wp2": wp2[:, None]}


def _accumulate(terms):
    """The sum of g c over the pairs (g, c) in order: g a profile (nx, 1) or a
    field (nx, ncols), c a row (ncols,) of theta coefficients. Each column is
    formed from its own entries alone, so a block of columns gets them bit for
    bit as the full width does (a matrix product would not: BLAS picks its
    kernel by the width)."""
    (g, c), *rest = terms
    out = g * c
    tmp = np.empty_like(out)
    for g, c in rest:
        out += np.multiply(g, c, out=tmp)
    return out


_PHI4_ROWS = "k varpi beta betap betapp alpha alphap alphapp xi xip a11 a12 V_tt0 f h hp hpp e A Ap".split()


def _phi4_coefficients(bundle, src, cols):
    """Theta-coefficient rows of the phi4 right side at theta columns cols.

    src holds the rows on the theta grid (see _phi4_tables) and cols is a
    slice of it. Returns (rows, q, c3): the rows (n_profiles, ncols) of the
    profiles of StripContext.phi4_profiles, those of the phi22 fields of
    _phi4_strip_terms, and that of phi3. Each group lists the terms even in
    x and then the odd ones; the odd ones enter the layer at one order of
    eps^2 higher, and their rows already carry that factor.
    """
    ctx, eps = bundle.ctx, bundle.eps
    sg, pp, e2 = ctx.sigma, ctx.p * (ctx.p - 1.0), eps**2
    k, vp, beta, dbeta, d2beta, alpha, dalpha, d2alpha, xi, dxi, a11, a12, Vtt, f, h, hp, hpp, e, A, Ap = (
        src[name][cols] for name in _PHI4_ROWS
    )
    ra, rb, b2, half = dalpha / alpha, dbeta / beta, e2 / beta**2, 0.5 * pp * e2
    fh, xiA, eA, drift, h2f = f + h, xi * A, e + xi * A, hp + vp * h, h * (2.0 * f + h)
    # d_z of the amplitude block A Z + phi22 is eps A' beta Z + beta phi22_zt;
    # c_dz multiplies it, and c_dzx x times d_z of its x-slope
    c_dz = b2 * (2.0 * dxi + xi * (rb + 2.0 * ra - vp))
    c_dzx = 2.0 * b2 * xi * (rb - vp)
    even = (
        b2 * (d2beta / beta - k**2 + 2.0 * ra * rb - 2.0 * vp * (ra + 1.5 * rb)),  # x w_x
        b2 * rb * (rb - 2.0 * vp),  # x^2 w_xx
        e2 * hp * (hp + 2.0 * vp * fh),  # w_xx
        b2 * (d2alpha / alpha - 0.5 * Vtt * h2f - vp * ra),  # w
        -0.5 * b2 * Vtt / beta**2,  # x^2 w
        *(b2 * k**2, b2 * k**2 / sg, e2 * k**2 * h2f / sg**2),  # w1_x, x w1, w2
        eps * Ap * beta * c_dz - e2 * k * fh * eA / sg,  # Z
        eps * Ap * beta * c_dzx,  # x Z_x
        *(half * a11**2, half * a12**2 * h2f, half * eA**2, 2.0 * half * a12 * fh * eA),  # wp2 (w1^2, w2^2, Z^2, w2 Z)
    )
    odd = e2 * np.array((
        -(k**2 * h + hpp + 2.0 * (ra + rb) * drift - vp * hp) / beta,  # w_x
        2.0 * (vp * hp - rb * drift) / beta,  # x w_xx
        -Vtt * h / beta**3,  # x w
        *(k**2 * h / (beta * sg), k**2 * h / (beta * sg**2), k**2 * h / (beta * sg)),  # w2_x, x w2, w1
        -(k / beta * xiA + 2.0 * eps * xi * Ap * drift),  # Z_x
        -k * xiA / (sg * beta),  # x Z
        *(pp * a11 * a12 * h, pp * a11 * xiA),  # wp2 (w1 w2, w1 Z)
    ))
    q_even = (beta * c_dz, beta * c_dzx, -e2 * k * fh * xi / sg, half * xi**2, 2.0 * half * xi * eA, 2.0 * half * a12 * fh * xi)
    q_odd = e2 * np.array((-k / beta * xi, -2.0 * xi * drift, -k * xi / (sg * beta), pp * a11 * xi))
    c3 = e2 * (_K_TILDE - 1.0) * xi  # _K_TILDE - 1: the mass of basis_m minus that of basis_t
    return np.array((*even, *odd)), np.array((*q_even, *q_odd)), c3


def _phi4_strip_terms(bundle, src, cols, q, c3):
    """(field, row) terms of the phi22 and phi3 layers in the phi4 right side
    at theta columns cols, given their rows of _phi4_coefficients at those
    columns: the six even and four odd ones of phi22, then that of phi3. A
    layer that is identically zero there has none."""
    ctx, zt = bundle.ctx, src["zt"][cols]
    terms = []
    phi22, phi3 = bundle.phi22, bundle.phi3
    if phi22 is not None and not phi22.is_zero(zt):
        synth = np.stack([getattr(phi22, fn)(zt) for fn in ("value", "dx", "dz", "dxz")], axis=1)
        q_val, q_x, q_zt, q_xzt = _to_fine(ctx, synth).transpose(1, 0, 2)
        x, w1, w2, Z = (ctx.fine_tables[key][:, None] for key in ("x", "w1", "w2", "Z"))
        wq = ctx.phi4_profiles["wp2"] * q_val
        fields = (q_zt, x * q_xzt, q_val, wq * q_val, wq * Z, wq * w2)  # even in x
        fields += (q_x, q_xzt, x * q_val, wq * w1)  # odd in x
        terms += zip(fields, q)
    if phi3 is not None and not phi3.is_zero(zt):
        terms.append((_to_fine(ctx, phi3.value(zt)), c3))
    return terms


# weights of y0, y1, h m0, h m1 in the cubic of a strip interval at its fine
# points s = r/_STRIDE, r = 1.._STRIDE-1 (r = 0 is the knot itself): the
# cubics of the unit data on [0, 1]
_FINE_WEIGHTS = hermite(np.array([0.0, 1.0]), np.eye(4)[:2], np.eye(4)[2:], np.arange(1, _STRIDE) / _STRIDE)


def _to_fine(ctx, arr):
    """Interpolate a strip-grid (nx_s, ...) table to the fine x grid.

    The not-a-knot cubic spline in x through the table, read at the fine
    points by their fixed Hermite weights: the strip points are every
    _STRIDE-th fine point, equally spaced by ctx.hx.
    """
    m = ctx.hx * spline_slopes(ctx.x, arr)
    out = np.empty((ctx.fine.x.size, *arr.shape[1:]))
    out[::_STRIDE] = arr
    per_interval = out[:-1].reshape(ctx.x.size - 1, _STRIDE, *arr.shape[1:])
    for r, (a0, a1, b0, b1) in enumerate(_FINE_WEIGHTS, start=1):
        per_interval[:, r] = a0 * arr[:-1] + a1 * arr[1:] + b0 * m[:-1] + b1 * m[1:]
    return out


def _solve_phi4(bundle):
    """The phi4 layer: one bordered 1D solve per theta section.

    Returns it as a _Phi4Fields: a dict of theta evaluators (val, dx, dxx,
    dth, d2th, dxdth) read from the knot tables of _phi4_knots.
    """
    th_grid = bundle.theta_grid()
    return _Phi4Fields(th_grid, _phi4_knots(th_grid, _phi4_tables(bundle)))


def _phi4_solve(ctx, rhs):
    """Strip-point val, dx and dxx of the fine-grid phi4 solutions for the
    right sides rhs (n_fine, ncols)."""
    sol = ctx.fine.solver.solve_many(rhs.T).T
    # the defining equation gives the exact second derivative:
    # sol_xx = sol - p |w|^(p-1) sol - rhs
    lin = ctx.p * np.abs(ctx.fine_tables["w"][:, None]) ** (ctx.p - 1.0)
    sub = ctx.sub
    return {"val": sol[sub], "dx": fd_first_axis(sol, ctx.fine.hx)[sub], "dxx": (sol - lin * sol - rhs)[sub]}


def _phi4_tables(bundle):
    """Strip-grid (nx_strip, n_theta) tables val, dx, dxx of the phi4 layer.

    The problem is linear. Its profile part is StripContext.phi4_response
    times the coefficient rows, one product at full theta width. The part of
    the phi22 and phi3 terms is solved in blocks of _PHI4_BLOCK theta
    columns on the fine x grid, and only the strip-grid rows are kept, so no
    fine-grid array spans the whole theta grid; a block where both layers
    are identically zero needs no solve. Every column is computed as in a
    single full-width pass, bit for bit.

    One set of theta-only rows on the theta grid serves every block. Each
    block reads the phi22 and phi3 fields at its own strip points only: a
    layer synthesizes every strip._Z_BLOCK block of points by its own
    product (StripLayer._syntheses), and _PHI4_BLOCK is a multiple of it, so
    a block gets the bits of a full-width synthesis.
    """
    ctx = bundle.ctx
    th_grid = bundle.theta_grid()
    src = _Rows(bundle, th_grid)
    rows, q, c3 = _phi4_coefficients(bundle, src, slice(None))
    table = {key: resp @ rows for key, resp in ctx.phi4_response.items()}
    for start in range(0, th_grid.size, _PHI4_BLOCK):
        cols = slice(start, start + _PHI4_BLOCK)
        terms = _phi4_strip_terms(bundle, src, cols, q[:, cols], c3[cols])
        if terms:
            for key, part in _phi4_solve(ctx, _accumulate(terms)).items():
                table[key][:, cols] += part
    return table


# each tabulated phi4 field and the table of its theta slope
_PHI4_SLOPE = {"val": "dth", "dx": "dxdth", "dxx": "dxxdth"}


def _phi4_knots(th_grid, table):
    """Strip-grid (nx_strip, n_theta) knot tables of the phi4 layer.

    The layer is the not-a-knot cubic spline in theta through each of the
    val, dx and dxx tables. The five tables kept are val, dx and dxx
    themselves and the knot slopes dth and dxdth: the slope of dxx is read
    only between knots, and d2th comes from the cubic of (val, dth) (see
    _Phi4Fields).
    """
    knots = {}
    for key in ("val", "dx"):
        values = knots[key] = table.pop(key)
        knots[_PHI4_SLOPE[key]] = spline_slopes(th_grid, values.T).T
    knots["dxx"] = table.pop("dxx")
    return knots


class _Phi4Fields(dict):
    """The phi4 fields of the layer as callables of theta over its knot tables.

    At a knot a field with a table of its own is its stored column. Between
    knots val and dth evaluate the Hermite cubic of (val, dth), dx and dxdth
    that of (dx, dxdth), and dxx that of (dxx, dxxdth): the spline's own
    piecewise cubic, to roundoff. d2th has no table and is that cubic of
    (val, dth) everywhere, knots included. The slope table dxxdth is formed
    on the first read of dxx between knots and then kept in knots.
    """

    def __init__(self, th_grid, knots):
        # the evaluators hold th_grid and knots, not self: no reference cycle
        # keeps a dropped layer's tables alive
        self.knots = knots

        def slope(key):
            name = _PHI4_SLOPE[key]
            if name not in knots:
                knots[name] = spline_slopes(th_grid, knots[key].T).T
            return knots[name]

        def field(key, cubic, order):
            def evaluate(th):
                th = np.atleast_1d(np.asarray(th, dtype=float))
                if key not in knots:
                    return hermite(th_grid, knots[cubic].T, slope(cubic).T, th, order).T
                at = np.minimum(np.searchsorted(th_grid, th), th_grid.size - 1)
                out = knots[key][:, at]
                off = np.flatnonzero(th_grid[at] != th)
                if off.size:
                    out[:, off] = hermite(th_grid, knots[cubic].T, slope(cubic).T, th[off], order).T
                return out

            return evaluate

        super().__init__(
            val=field("val", "val", 0),
            dx=field("dx", "dx", 0),
            dxx=field("dxx", "dxx", 0),
            dth=field("dth", "val", 1),
            d2th=field("d2th", "val", 2),
            dxdth=field("dxdth", "dx", 1),
        )


def assemble_ansatz(tier, state, eps, ctx, chart, potential, *, reduced_problem=None, h_from_state=False, ledger=None):
    """Build the bundle of the ansatz layers up to the given tier.

    Tier 1 is the profile w; tier 2 adds the curvature corrections w1 and w2;
    tier 3 the resonant amplitude Z xi A and the boundary layer phi22; tier 4
    the amplitude term Z e and the strip layer phi3; tier 5 the per-section
    layer phi4. This is the one place that reads the tier: below tier 4 the
    state's e is set to zero.

    state supplies (f, e) and optionally h; unless h_from_state, tier 3 and
    up solve the ring correction from its Robin problem (requiring a
    non-degenerate reduced operator when the boundary-layer sources are
    nonzero).
    """
    if not 1 <= tier <= 5:
        raise ValueError("tier must be 1..5")
    if tier < 4:
        state = ReducedState(f=state.f, e=ZERO_FN, h=state.h)
    t = ctx.tables
    coeffs = LayerCoeffs(chart, potential)
    bundle = AnsatzBundle(
        tier=tier,
        eps=float(eps),
        chart=chart,
        field=potential,
        coeffs=coeffs,
        ctx=ctx,
        state=state,
        delta=chart.delta0 / 8.0,
        z_grid=default_z_grid(eps),
        layers=[_ProfileLayer(t, "w", 0, "one")],
    )
    if tier >= 2:
        bundle.layers += [_ProfileLayer(t, "w1", 1, "a11"), _ProfileLayer(t, "w2", 1, "c2")]

    if tier >= 3:
        (c0, c1), raw = boundary_ring_constants(bundle)
        bundle.c0, bundle.c1 = c0, c1
        bundle.amplitude = resonance_amplitude(eps, c0, c1, potential.ell, ctx.lambda0)
        bundle.layers.append(_ProfileLayer(t, "Z", 1, "xiA"))
        data = raw - np.array((c0, c1)) * t["Z"][:, None]
        if np.max(np.abs(data)) > 1e-13:
            # remove the residual discrete resonant-mode content exactly, end by end
            bt = ctx.basis_t
            er = bt.E[:, bt.idx_resonant]
            data0, data1 = (end - (ctx.hx * er @ end) * er for end in _end_columns(data))
            bundle.phi22 = solve_strip_layer(bt, data0, data1, potential.ell / eps)
            bundle.layers.append(_StripTerm(bundle.phi22, 1))
        if not h_from_state:
            if reduced_problem is None:
                reduced_problem = reduced.ReducedProblem(chart, potential, ctx.lambda0, j_max=reduced.default_j_max(eps))
            h_sol = bundle.h_solution = solve_h_bvp(bundle, reduced_problem, ledger=ledger)
            if h_sol is not None:
                bundle.state = ReducedState(f=state.f, e=state.e, h=h_sol)

    if tier >= 4:
        bundle.layers.append(_ProfileLayer(t, "Z", 1, "e"))
        data = _phi3_data(bundle)
        if np.sum(np.max(np.abs(data), axis=0)) > 1e-13:
            bundle.phi3 = solve_strip_layer(ctx.basis_m, *_end_columns(data), potential.ell / eps)
            bundle.layers.append(_StripTerm(bundle.phi3, 2))

    if tier >= 5:
        bundle.phi4 = _solve_phi4(bundle)
        bundle.layers.append(_TableLayer(bundle.phi4))
    return bundle


def _end_columns(data):
    """The two columns of (nx, 2) end data, each contiguous, for the 1D products of one end."""
    return np.ascontiguousarray(data.T)


def _phi3_data(bundle):
    """Neumann data (nx, 2) of the massive strip problem, one column per end."""
    co, eps = bundle.coeffs, bundle.eps
    t = {key: value[:, None] for key, value in bundle.ctx.tables.items()}
    x = t["x"]
    rows = _Rows(bundle, _ENDS)
    names = ("beta", "betap", "alphap", "alpha", "a11", "a12", "a12p", "k", "f", "fp", "fh", "fhp", "A", "Ap")
    beta, dbeta, dalpha, alpha, a11, a12, da12, k, f0, fp0, fh, fhp, A_end, Ap_end = (rows[name] for name in names)
    k_end, b_t, _ = np.array(bundle.chart.end_constants())
    bix = np.array((co.b5, co.b6))
    alpha_rat = dalpha / alpha
    if bundle.phi22 is not None:
        zt = rows["zt"]
        q, q_x, q_z = bundle.phi22.value(zt), bundle.phi22.dx(zt), beta * bundle.phi22.dz(zt)
    else:
        q = q_x = q_z = 0.0
    return (
        2.0 * b_t * fh * x * t["w_x"]
        - k * ((dbeta / beta) * fh - fhp) * x * t["w_x"]
        + bix * x * (a12 * fh * t["w2_x"] + (A_end * t["Z_x"] + q_x) / beta)
        + (k_end * beta * f0 + beta * fp0) * a11 * t["w1_x"]
        - k * fh * alpha_rat * t["w"]
        - alpha_rat * (a12 * fh * t["w2"] + (A_end * t["Z"] + q) / beta)
        - fhp * a12 * t["w2"]
        - fh * da12 * t["w2"]
        - k / beta * fh * (eps * Ap_end * beta * t["Z"] + q_z)
    )


# ---------------------------------------------------------------------------
# residual evaluation


def _sign_power(u, p):
    return np.sign(u) * np.abs(u) ** p


@dataclass
class ResidualReport:
    eps: float
    tier: int
    x: np.ndarray
    z: np.ndarray
    E: np.ndarray
    E11: np.ndarray
    sup: float
    l2: float
    l2_E12: float
    proj_wx: np.ndarray
    proj_Z: np.ndarray
    quadrature_flag: bool


def _chart_coeff_arrays(bundle, t, th, mask):
    nx, nz = t.shape
    coeff = [np.zeros((nx, nz)) for _ in range(5)]
    if np.any(mask):
        vals = bundle.chart.laplacian_coeffs(t[mask], np.broadcast_to(th[None, :], t.shape)[mask])
        for arr, v in zip(coeff, vals):
            arr[mask] = v
    return coeff


# z columns per block of the interior residual: the chain-rule temporaries of
# a block are about 30 strip-grid arrays of this width, so none spans the
# whole z grid (16 columns measured slower, 32-128 about equal)
_RESIDUAL_BLOCK = 32


def _chain_rule(bundle, rows):
    """t and the chain-rule partials of W(t, theta) at the strip points of the sections of rows.

    Returns t, W, U_t, U_theta, U_tt, U_ttheta and U_thetatheta, each
    (nx, ncols), from the strip fields at those sections.
    """
    eps = bundle.eps
    x = bundle.ctx.x[:, None]
    F = bundle.strip_fields(rows=rows)
    names = ("beta", "betap", "betapp", "alpha", "alphap", "alphapp", "fh", "fhp", "fhpp")
    beta, dbeta, d2beta, alpha, dalpha, d2alpha, fh, fhp, fhpp = (rows[name][None, :] for name in names)

    t = eps * (x / beta + fh)
    eta, eta_p, eta_pp = bundle.window(t)
    x_th = dbeta / beta * x - beta * fhp
    x_thth = d2beta / beta * x - 2.0 * dbeta * fhp - beta * fhpp

    v, vx, vxx, vz, vzz, vxz = (F[k] for k in ("v", "vx", "vxx", "vz", "vzz", "vxz"))
    W = eta * alpha * v
    U_t = eta_p * alpha * v + eta * alpha * beta / eps * vx
    U_tt = eta_pp * alpha * v + 2.0 * eta_p * alpha * beta / eps * vx + eta * alpha * (beta / eps) ** 2 * vxx
    inner_th = dalpha * v + alpha * (vx * x_th + vz / eps)
    U_th = eta * inner_th
    U_tth = eta_p * inner_th + eta * (
        dalpha * beta / eps * vx + alpha * (dbeta / eps * vx + beta / eps * (vxx * x_th + vxz / eps))
    )
    U_thth = eta * (
        d2alpha * v
        + 2.0 * dalpha * (vx * x_th + vz / eps)
        + alpha * (vxx * x_th**2 + 2.0 * vxz * x_th / eps + vzz / eps**2 + vx * x_thth)
    )
    return t, W, U_t, U_th, U_tt, U_tth, U_thth


def _interior_block(bundle, z):
    """Interior residual E at the sections z, from the chain-rule partials of W(t, theta)."""
    eps = bundle.eps
    rows = _Rows(bundle, eps * z)
    th = rows.th
    t, W, U_t, U_th, U_tt, U_tth, U_thth = _chain_rule(bundle, rows)
    alpha, beta = rows["alpha"][None, :], rows["beta"][None, :]

    mask = np.abs(t) < min(6.0 * bundle.delta, bundle.chart.delta0 * 0.999)
    c_tt, c_tth, c_thth, c_t, c_th = _chart_coeff_arrays(bundle, t, th, mask)
    V = np.ones_like(t)
    if np.any(mask):
        V[mask] = bundle.field.V(t[mask], np.broadcast_to(th[None, :], t.shape)[mask])
    E_phys = (
        eps**2 * (c_tt * U_tt + c_tth * U_tth + c_thth * U_thth + c_t * U_t + c_th * U_th)
        - V * W
        + _sign_power(W, bundle.p)
    )
    return np.where(mask, E_phys / (alpha * beta**2), 0.0)


def interior_residual(bundle, z=None):
    """Full interior residual on the strip by exact chain rule through the chart.

    E(x, z) = [eps^2 Delta_y - V + (.)^p](W) / (alpha beta^2) evaluated with
    the closed-form metric coefficients; no grid differencing enters, so the
    epsilon-order fits are not polluted by discretization error. E is formed
    in blocks of _RESIDUAL_BLOCK sections, each reading the strip layers at
    its own sections only. The layers synthesize per strip._Z_BLOCK block
    of points, _RESIDUAL_BLOCK is a multiple of it, and every other factor is
    elementwise in z, so the blocks give E bit for bit as one pass would.
    """
    eps = bundle.eps
    z = bundle.z_grid if z is None else np.atleast_1d(np.asarray(z, dtype=float))
    E = np.empty((bundle.ctx.x.size, z.size))
    for start in range(0, z.size, _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        E[:, cols] = _interior_block(bundle, z[cols])

    rows = _Rows(bundle, eps * z)
    ev, evpp, beta = (rows[name][None, :] for name in ("e", "epp", "beta"))
    Z = bundle.ctx.tables["Z"][:, None]
    E11 = eps * bundle.ctx.lambda0 * ev * Z + eps**3 / beta**2 * evpp * Z

    wqx = bundle.ctx.wq
    hz = z[1] - z[0] if z.size > 1 else 1.0
    wqz = simpson_weights(z.size, hz) if z.size % 2 == 1 else np.full(z.size, hz)
    if z.size % 2 == 0:
        wqz[0] = wqz[-1] = hz / 2.0

    # the norms are formed in one scratch array by the operations of
    # arr**2 * wx[:, None] * wqz[None, :], the projections in it by ctx.integrate
    buf = np.empty_like(E)

    def l2(arr, wx):
        sq = np.square(arr, out=buf)
        sq *= wx[:, None]
        sq *= wqz[None, :]
        return float(np.sqrt(np.abs(sq.sum())))

    def project(profile):
        return bundle.ctx.integrate(np.multiply(E, profile[:, None], out=buf), out=buf)

    # quadrature sanity: trapezoid vs Simpson in both directions
    trap_x = np.full_like(wqx, bundle.ctx.hx)
    trap_x[0] = trap_x[-1] = bundle.ctx.hx / 2.0
    l2_trap = l2(E, trap_x)
    l2_simpson = l2(E, wqx)
    flag = bool(abs(l2_trap - l2_simpson) > 0.05 * max(l2_simpson, 1e-300))

    proj_wx = project(bundle.ctx.tables["w_x"])
    proj_Z = project(bundle.ctx.tables["Z"])
    l2_E12 = l2(np.subtract(E, E11, out=buf), wqx)
    sup = float(np.max(np.abs(E, out=buf)))
    return ResidualReport(
        eps=eps,
        tier=bundle.tier,
        x=bundle.ctx.x,
        z=z,
        E=E,
        E11=E11,
        sup=sup,
        l2=l2_simpson,
        l2_E12=l2_E12,
        proj_wx=proj_wx,
        proj_Z=proj_Z,
        quadrature_flag=flag,
    )


@dataclass
class BoundaryReport:
    eps: float
    tier: int
    x: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    l2_g02: float
    l2_g12: float
    proj_wx: tuple
    proj_Z: tuple


def boundary_residual(bundle):
    """Boundary errors g0, g1 from the quadratic normal-derivative expansion.

    Both end sections are the two columns of one chain-rule evaluation (that
    of the interior residual) at theta = 0 and 1:
    g = -(eps/alpha) [(k_end t + b_t t^2) U_t + (-1 - k t + b_theta t^2) U_theta].
    Sign convention matches the projection bookkeeping: the leading part is
    g01 = -eps [k1 beta(0) f + beta(0) f'] w_x + eps^2 e' Z at z = 0 (same
    shape with k2, beta(1) at the far end).
    """
    eps, ctx, chart = bundle.eps, bundle.ctx, bundle.chart
    rows = _Rows(bundle, _ENDS)
    t, _, U_t, U_th, *_ = _chain_rule(bundle, rows)
    k_end, b_t, b_th = np.array(chart.end_constants())
    alpha, beta, k = (rows[name] for name in ("alpha", "beta", "k"))
    g = -(eps / alpha) * ((k_end * t + b_t * t**2) * U_t + (-1.0 - k * t + b_th * t**2) * U_th)
    w_x, Z = ctx.tables["w_x"][:, None], ctx.tables["Z"][:, None]
    g_lead = -eps * (k_end * beta * rows["f"] + beta * rows["fp"]) * w_x + eps**2 * rows["ep"] * Z
    # the reductions over x are 1D products of each end's column
    g0, g1 = _end_columns(g)
    rest0, rest1 = _end_columns(g - g_lead)
    wq = ctx.wq
    return BoundaryReport(
        eps=eps,
        tier=bundle.tier,
        x=ctx.x,
        g0=g0,
        g1=g1,
        l2_g02=float(np.sqrt(np.sum(wq * rest0**2))),
        l2_g12=float(np.sqrt(np.sum(wq * rest1**2))),
        proj_wx=tuple(float(np.sum(wq * g_end * ctx.tables["w_x"])) for g_end in (g0, g1)),
        proj_Z=tuple(float(np.sum(wq * g_end * ctx.tables["Z"])) for g_end in (g0, g1)),
    )


@dataclass
class ProjectionReport:
    eps: float
    z: np.ndarray
    measured_wx: np.ndarray
    predicted_wx: np.ndarray
    measured_Z: np.ndarray
    predicted_Z: np.ndarray
    abs_dev_wx: float
    abs_dev_Z: float
    rel_dev_wx: float
    rel_dev_Z: float
    rel_dev_Z_displayed: float

    def to_dict(self):
        return {
            "eps": self.eps,
            "abs_dev_wx": self.abs_dev_wx,
            "abs_dev_Z": self.abs_dev_Z,
            "rel_dev_wx": self.rel_dev_wx,
            "rel_dev_Z": self.rel_dev_Z,
            "rel_dev_Z_displayed": self.rel_dev_Z_displayed,
        }


def project_residual(bundle, report=None):
    """Compare measured residual projections with the reduced-equation forms.

    The w_x projection is matched against the location-equation row (drift,
    Jacobi and resonance-coupling terms) and the Z projection against the
    amplitude-equation row. A deviation is the root mean square over the z
    grid of measured - predicted: absolute, and relative to the root mean
    square of the prediction (unbounded where the prediction vanishes).
    """
    if report is None:
        report = interior_residual(bundle)
    eps = bundle.eps
    ctx = bundle.ctx
    z = report.z
    rows = _Rows(bundle, eps * z)
    t = ctx.tables
    weights = _h_weights(ctx, bundle.phi22)

    rho1, I_xwxZ, I_w3 = weights["rho1"], weights["I_Z_xwx"], weights["I_Z_3"]
    rho2 = float(2.0 * ctx.integrate(t["w_xx"] * t["Z"]))
    I1 = weights["I_Zx_wx"] + weights["I_Z_xwx"] / ctx.sigma

    beta, k, vp, h1, h2, h5 = (rows[name] for name in ("beta", "k", "varpi", "hbar1", "hbar2", "hbar5"))
    h31 = -k * I1 / rho1
    h32 = rows["a11"] * beta * I_w3 / rho1  # the p(p-1) factor is inside I_w3
    h3 = h31 + h32
    h4 = 2.0 * k / beta**2 * I_xwxZ / rho1

    if bundle.amplitude is not None:
        a1v, a2v, _ = _h_sources(bundle, rows, weights)
    else:
        a1v = a2v = np.zeros_like(rows.th)

    fv, fpv, fppv, hv, hpv, ev, epv, eppv = (rows[name] for name in ("f", "fp", "fpp", "h", "hp", "e", "ep", "epp"))

    pred_wx = -(eps**2) * rho1 / beta * (fppv + (h1 + a1v) * fpv + (h2 + a2v) * fv)
    pred_wx += eps**2 * rho1 / beta * (h3 * ev + eps**2 * h4 * eppv)
    pred_Z_displayed = (
        eps**3 / beta**2 * eppv
        + eps**3 * h5 * epv
        + eps**2 * rho2 * fpv * hpv
        + eps**2 * rho2 * vp * fpv * hv
        + eps * ctx.lambda0 * ev
    )
    # the same projection integral keeps the quadratic-in-f entries of the
    # even second-order group; they are below eps^3 only under the
    # admissible-set scaling of f, not for O(1) test parameters
    IwZ = float(ctx.integrate(t["w"] * t["Z"]))
    Vtt = rows["V_tt0"]
    pred_Z = pred_Z_displayed + eps**2 * (
        0.5 * rho2 * fpv**2 + rho2 * vp * fv * fpv - 0.5 * Vtt / beta**2 * IwZ * fv**2
    )

    def rms(values):
        return float(np.sqrt(np.mean(values**2)))

    abs_w, abs_Z, abs_Z_displayed = (
        rms(report.proj_wx - pred_wx), rms(report.proj_Z - pred_Z), rms(report.proj_Z - pred_Z_displayed)
    )
    return ProjectionReport(
        eps=eps,
        z=z,
        measured_wx=report.proj_wx,
        predicted_wx=pred_wx,
        measured_Z=report.proj_Z,
        predicted_Z=pred_Z,
        abs_dev_wx=abs_w,
        abs_dev_Z=abs_Z,
        rel_dev_wx=abs_w / max(rms(pred_wx), 1e-300),
        rel_dev_Z=abs_Z / max(rms(pred_Z), 1e-300),
        rel_dev_Z_displayed=abs_Z_displayed / max(rms(pred_Z_displayed), 1e-300),
    )
