"""Damped Newton solve of the full nonlinear Neumann problem on 2D meshes.

Finite-volume discretization on tensor grids of orthogonal chart
coordinates, one assembly for every chart (a plain rectangle is the
identity chart): the stiffness form is symmetric with exact zero row sums, so constants are annihilated including at the
boundary and the no-flux condition is built in. Nodes are numbered t-major,
so the stiffness is a five-diagonal band of half-width n_theta and each
Newton step is one band LU. The solver is seeded with the layered
approximation and validates the concentration law.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv

__all__ = [
    "Mesh2D",
    "graded_nodes",
    "rectangle_mesh",
    "chart_mesh",
    "SolveTrace",
    "newton_solve",
    "concentration_metrics",
    "MetricsReport",
]


def graded_nodes(eps, half_width, fine_per_layer=12, h_max=0.1):
    """Symmetric node set, uniform on the core |t| <= max(12 eps, 0.4) and growing by 1.15 a step outside."""
    h_f = eps / fine_per_layer
    core = min(max(12.0 * eps, 0.4), half_width)
    n_core = int(np.ceil(core / h_f))
    # a core rounded up past the edge is shrunk onto [0, half_width]
    right = list(np.linspace(0.0, min(n_core * h_f, half_width), n_core + 1))
    h = h_f
    while right[-1] < half_width:
        h = min(h * 1.15, h_max)
        right.append(min(right[-1] + h, half_width))
    right = np.asarray(right)
    return np.concatenate([-right[::-1][:-1], right])


def _cell_volumes(nodes):
    """Dual-cell lengths of a 1D node set: half of each adjacent interval."""
    h = np.diff(nodes)
    vol = np.zeros(nodes.size)
    vol[:-1] += h / 2.0
    vol[1:] += h / 2.0
    return vol


@dataclass
class Mesh2D:
    """Finite-volume mesh on a tensor grid of chart coordinates (t, theta).

    Nodes are numbered t-major; K is the symmetric five-diagonal stiffness
    with zero row sums, vol the cell volumes sqrt(g) dt dtheta and V the
    potential at the nodes, all flattened t-major.
    """

    t_nodes: np.ndarray
    th_nodes: np.ndarray
    K: object  # sparse stiffness, symmetric, zero row sums
    vol: np.ndarray
    V: np.ndarray

    @property
    def shape(self):
        return (self.t_nodes.size, self.th_nodes.size)

    def laplacian(self, u):
        return (self.K @ u) / self.vol

    def as_grid(self, u):
        return np.asarray(u).reshape(self.shape)


def _finite_volume_mesh(t_nodes, th_nodes, potential, a_t, a_h, sqrtg):
    """Mesh from the face coefficients of the two flux directions and sqrt(g) at the nodes.

    a_t sits on the faces normal to t (n_t - 1, n_theta) and a_h on those
    normal to theta (n_t, n_theta - 1); a scalar stands for a constant. With
    t-major numbering t-fluxes couple nodes n_theta apart and theta-fluxes
    neighbours within one t row (none across the row ends).
    """
    nt, nh = t_nodes.size, th_nodes.size
    t_cell, th_cell = _cell_volumes(t_nodes), _cell_volumes(th_nodes)
    ct = (a_t * th_cell[None, :] / np.diff(t_nodes)[:, None]).ravel()
    ch = np.zeros((nt, nh))
    ch[:, :-1] = a_h * t_cell[:, None] / np.diff(th_nodes)[None, :]
    ch = ch.ravel()[:-1]
    main = np.zeros(nt * nh)
    main[:-nh] -= ct
    main[nh:] -= ct
    main[:-1] -= ch
    main[1:] -= ch
    K = sp.diags([ct, ch, main, ch, ct], [-nh, -1, 0, 1, nh], format="csr")
    tt, hh = np.meshgrid(t_nodes, th_nodes, indexing="ij")
    return Mesh2D(
        t_nodes=t_nodes,
        th_nodes=th_nodes,
        K=K,
        vol=(sqrtg * np.outer(t_cell, th_cell)).ravel(),
        V=potential.V(tt, hh).ravel(),
    )


def rectangle_mesh(t_nodes, th_nodes, potential):
    """Plain Euclidean rectangle with Neumann flux form (the identity chart); V from (t, theta)."""
    return _finite_volume_mesh(np.asarray(t_nodes, dtype=float), np.asarray(th_nodes, dtype=float), potential, 1.0, 1.0, 1.0)


def chart_mesh(chart, t_nodes, th_nodes, potential):
    """Laplace-Beltrami finite volumes on an orthogonal chart image.

    Valid when the chart has g12 = 0 (straight channel walls; |g12| up to
    1e-10 max g is accepted); fluxes carry sqrt(g) g^{ii} at the faces and
    the volume weight is sqrt(g).
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    th_nodes = np.asarray(th_nodes, dtype=float)
    met = chart.metric(*np.meshgrid(t_nodes, th_nodes, indexing="ij"))
    if np.max(np.abs(met["g12"])) > 1e-10 * np.max(met["g"]):
        raise ValueError("chart is not orthogonal; finite-volume form unsupported")
    t_face = 0.5 * (t_nodes[:-1] + t_nodes[1:])
    th_face = 0.5 * (th_nodes[:-1] + th_nodes[1:])
    m = chart.metric(*np.meshgrid(t_face, th_nodes, indexing="ij"))
    a_t = m["sqrtg"] * (m["g22"] / m["g"])  # g^{11} = g22/g
    m = chart.metric(*np.meshgrid(t_nodes, th_face, indexing="ij"))
    a_h = m["sqrtg"] * (m["g11"] / m["g"])  # g^{22} = g11/g
    return _finite_volume_mesh(t_nodes, th_nodes, potential, a_t, a_h, met["sqrtg"])


@dataclass
class SolveTrace:
    u: np.ndarray
    residuals: list
    damping: list
    negative_events: int
    converged: bool
    iterations: int
    mesh: Mesh2D = field(repr=False, default=None)
    singular_at: tuple = None  # (iteration, pivot index) of an exactly singular Jacobian
    linesearch_failed_at: int = None  # iteration whose line search found no decrease

    @property
    def linesearch_failures(self):
        return int(self.linesearch_failed_at is not None)


def _residual(mesh, u, p, eps):
    return eps**2 * mesh.laplacian(u) - mesh.V * u + np.sign(u) * np.abs(u) ** p


def _scaled_norm(mesh, u, r):
    scale = max(np.max(np.abs(mesh.V * u)), np.max(np.abs(u)) ** 1.0, 1e-300)
    return float(np.max(np.abs(r)) / scale)


def newton_solve(mesh, p, eps, u0, max_iter=25, min_damping=1.0 / 64.0):
    """Damped Newton iteration for eps^2 Lap u - V u + u^p = 0 with no-flux.

    The residual is scaled by the reaction size; backtracking halves the step
    while the residual norm fails to decrease. The accepted trial point
    becomes the iterate with its residual. When no step down to min_damping
    passes, the iteration stops unconverged at the last accepted iterate and
    records the iteration in linesearch_failed_at. Negative excursions are
    not constrained, only counted (they trigger damping through the
    residual).
    Each step is one LAPACK band LU with partial pivoting (dgbsv): with
    t-major nodes the Jacobian has half-bandwidth n_theta. An exactly
    singular Jacobian stops the iteration unconverged and records
    (iteration, pivot index) in singular_at.
    """
    u = np.asarray(u0, dtype=float).ravel().copy()
    res = _residual(mesh, u, p, eps)
    norms = [_scaled_norm(mesh, u, res)]
    damping = []
    neg_events = 0
    singular_at = linesearch_failed_at = None
    nb = mesh.shape[1]
    eps2_L = ((sp.diags(1.0 / mesh.vol) @ mesh.K) * eps**2).todia()
    if np.max(np.abs(eps2_L.offsets)) > nb:
        raise ValueError("stiffness is not banded within n_theta of the diagonal")
    band_rows = 2 * nb - eps2_L.offsets
    lin_diag = eps2_L.diagonal() - mesh.V
    # LAPACK band storage, Fortran order so that dgbsv factorizes in place;
    # the first nb rows take the fill of the pivoting
    ab = np.empty((3 * nb + 1, u.size), order="F")
    converged = False
    for it in range(max_iter):
        if norms[-1] < 1e-10:
            converged = True
            break
        ab[nb:] = 0.0
        ab[band_rows] = eps2_L.data
        ab[2 * nb] = lin_diag + p * np.abs(u) ** (p - 1.0)
        _, _, d, info = dgbsv(nb, nb, ab, -res, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            singular_at = (it, info - 1)
            break
        lam = 1.0
        while lam >= min_damping:
            u_try = u + lam * d
            res_try = _residual(mesh, u_try, p, eps)
            norm_try = _scaled_norm(mesh, u_try, res_try)
            if norm_try < (1.0 - 0.25 * lam) * norms[-1]:
                break
            lam *= 0.5
        else:
            linesearch_failed_at = it
            break
        u, res = u_try, res_try
        if np.min(u) < -1e-8 * max(np.max(u), 1e-300):
            neg_events += 1
        damping.append(lam)
        norms.append(norm_try)
    else:
        converged = norms[-1] < 1e-10
    return SolveTrace(
        u=u,
        residuals=norms,
        damping=damping,
        negative_events=neg_events,
        converged=converged,
        iterations=len(damping),
        mesh=mesh,
        singular_at=singular_at,
        linesearch_failed_at=linesearch_failed_at,
    )


def initial_residual(mesh, p, eps, u0):
    """Scaled residual norm of a seed (for the tier-quality comparison)."""
    u = np.asarray(u0, dtype=float).ravel()
    r = _residual(mesh, u, p, eps)
    rms = float(np.sqrt(np.sum(r**2 * mesh.vol) / np.sum(mesh.vol)))
    return _scaled_norm(mesh, u, r), rms


@dataclass
class MetricsReport:
    max_offsets: np.ndarray
    amplitude_ratio: np.ndarray
    profile_sup_err: np.ndarray
    decay_rate: float
    grid_dt: float

    def to_dict(self):
        return {
            "max_offset_sup": float(np.max(np.abs(self.max_offsets))),
            "amplitude_ratio_min": float(np.min(self.amplitude_ratio)),
            "amplitude_ratio_max": float(np.max(self.amplitude_ratio)),
            "profile_sup_err": float(np.max(self.profile_sup_err)),
            "decay_rate": self.decay_rate,
            "grid_dt": self.grid_dt,
        }


def concentration_metrics(trace, potential, p, eps):
    """Per-section maxima, amplitude ratios, profile fit, and decay rate.

    The target amplitude at section theta is V(0,theta)^(1/(p-1)) w(0) and
    the section profile is compared with the scaled ground state; the decay
    rate is fitted on log u along the normal through the mid section.
    """
    if not trace.converged:
        raise RuntimeError("metrics refused: trace did not converge")
    from .profiles import ground_state

    mesh = trace.mesh
    U = mesh.as_grid(trace.u)
    t = mesh.t_nodes
    th = mesh.th_nodes
    inside = (th >= 0.0) & (th <= 1.0)
    w0 = ground_state(p, np.array([0.0]))[0][0]

    offsets = []
    ratios = []
    fit_err = []
    for j in np.where(inside)[0]:
        col = U[:, j]
        i = int(np.argmax(col))
        if 0 < i < t.size - 1:
            y0, y1, y2 = col[i - 1], col[i], col[i + 1]
            h1 = t[i] - t[i - 1]
            h2 = t[i + 1] - t[i]
            denom = h2 * (y0 - y1) + h1 * (y2 - y1)
            t_star = t[i] + 0.5 * (h2**2 * (y0 - y1) - h1**2 * (y2 - y1)) / denom if denom != 0 else t[i]
            u_star = col[i]
        else:
            t_star, u_star = t[i], col[i]
        V0 = float(potential.V(np.array([0.0]), np.array([th[j]]))[0])
        amp = V0 ** (1.0 / (p - 1.0)) * w0
        offsets.append(t_star)
        ratios.append(u_star / amp)
        xs = np.sqrt(V0) * (t - t_star) / eps
        core = np.abs(xs) <= 8.0
        wv = ground_state(p, xs[core])[0]
        fit_err.append(np.max(np.abs(col[core] / V0 ** (1.0 / (p - 1.0)) - wv)) / w0)

    j_mid = int(np.argmin(np.abs(th - 0.5)))
    col = U[:, j_mid]
    i0 = int(np.argmax(col))
    lo = t[i0] + 4.0 * eps
    hi = t[i0] + 12.0 * eps
    sel = (t >= lo) & (t <= hi) & (col > 0)
    decay = np.nan
    if np.sum(sel) >= 4:
        slope = np.polyfit(t[sel], np.log(col[sel]), 1)[0]
        decay = float(-slope * eps)
    dt_core = float(np.min(np.diff(t)))
    return MetricsReport(
        max_offsets=np.asarray(offsets),
        amplitude_ratio=np.asarray(ratios),
        profile_sup_err=np.asarray(fit_err),
        decay_rate=decay,
        grid_dt=dt_core,
    )
