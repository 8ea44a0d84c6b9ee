"""Reduced solvers on the curve: spectral basis, resonance ledger, f/e systems.

The second-order operator eta'' + q1 eta' + q2 eta with Robin ends is brought
to Liouville normal form -u'' + Q u = lam u (u = rho^{1/2} eta,
rho = exp(int q1)) and discretized by Chebyshev collocation with the two
Robin rows eliminated; its spectrum feeds the non-degeneracy check and the
resonance ledger. The location equation is solved by collocation on the
same nodes after the arclength substitution; the near-resonant amplitude
equation is solved modally, its spectrum producing the critical epsilon
values.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from . import geodesic
from .geometry import ScalarFn
from .util import cumulative_integral

__all__ = [
    "cheb_nodes_matrices",
    "clenshaw_curtis_weights",
    "SpectralBasis",
    "build_basis",
    "ResonanceLedger",
    "gap_check",
    "ReducedProblem",
    "FSolution",
    "ESolution",
    "solve_f_problem",
    "solve_e_problem",
    "solve_coupled",
    "reduced_fixed_point",
    "GapError",
    "DegenerateOperatorError",
    "lemma_series_sums",
]


class GapError(RuntimeError):
    """epsilon fails the resonance gap condition."""


class DegenerateOperatorError(RuntimeError):
    """The reduced linear operator has an eigenvalue at numerical zero."""


def cheb_nodes_matrices(n):
    """CGL nodes on [0, 1] (ascending) with first/second derivative matrices."""
    if n < 2:
        raise ValueError("need n >= 2")
    j = np.arange(n + 1)
    y = np.cos(np.pi * j / n)  # 1 ... -1
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    Y = np.tile(y, (n + 1, 1)).T
    dY = Y - Y.T + np.eye(n + 1)
    D = np.outer(c, 1.0 / c) / dY
    D -= np.diag(D.sum(axis=1))
    theta = 0.5 * (1.0 - y)  # ascending 0 ... 1
    D1 = -2.0 * D
    return theta, D1, D1 @ D1


def clenshaw_curtis_weights(n):
    """Quadrature weights on the CGL nodes of [0, 1] (matching ordering)."""
    w = np.zeros(n + 1)
    ii = np.arange(1, n)
    th = np.pi * ii / n
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n**2 - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * th) / (4.0 * k**2 - 1.0)
        v -= np.cos(n * th) / (n**2 - 1.0)
    else:
        w[0] = w[n] = 1.0 / n**2
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * th) / (4.0 * k**2 - 1.0)
    w[ii] = 2.0 * v / n
    return 0.5 * w  # interval length 1


@dataclass
class SpectralBasis:
    """L2-orthonormal eigenbasis of the Liouville-normal-form operator."""

    q1: object
    q2: object
    k1: float
    k2: float
    j_max: int
    nodes: np.ndarray
    wq: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    lam: np.ndarray
    Y: np.ndarray  # (n+1, j_max+1) eigenfunction values on the nodes
    Yp: np.ndarray
    rho_half: np.ndarray  # sqrt(exp(int q1)) on the nodes
    q1_nodes: np.ndarray

    def gram_deviation(self):
        g = self.Y.T @ (self.wq[:, None] * self.Y)
        return float(np.max(np.abs(g - np.eye(self.lam.size))))

    def yprime_bound(self):
        j = np.maximum(np.arange(self.lam.size), 1)
        return float(np.max(np.max(np.abs(self.Yp), axis=0) / j))

    def asymptotic_defect(self, j):
        """sqrt(lam_j) - j pi - (k2 - k1)/(j pi) for the supplied indices."""
        j = np.asarray(j)
        return np.sqrt(self.lam[j]) - j * np.pi - (self.k2 - self.k1) / (j * np.pi)

    def project(self, values):
        return self.Y.T @ (self.wq * np.asarray(values, dtype=float))


def _robin_eig(op, k_left, k_right, D1, n_keep, n):
    """Eigenpairs of op on the nodes with u' + k_left u = 0 at the first node
    and u' + k_right u = 0 at the last.

    The two Robin rows give the end values as a linear map T of the interior
    values; substituting them leaves a standard (n-1) x (n-1) eigenproblem.
    Only the n_keep smallest real eigenpairs are lifted back to all nodes.
    """
    robin = np.array([[D1[0, 0] + k_left, D1[0, n]], [D1[n, 0], D1[n, n] + k_right]])
    if np.linalg.cond(robin) > 1.0 / np.finfo(float).eps:
        raise DegenerateOperatorError(
            f"Robin constants k_left = {k_left:.12g}, k_right = {k_right:.12g} make the "
            "boundary block singular; the end values are not determined"
        )
    ends = [0, n]
    T = -np.linalg.solve(robin, D1[ends, 1:n])
    vals, vecs = sla.eig(op[1:n, 1:n] + op[1:n, ends] @ T)
    finite = np.isfinite(vals.real) & (np.abs(vals.imag) <= 1e-6 * (1.0 + np.abs(vals.real)))
    keep = np.flatnonzero(finite)[np.argsort(vals[finite].real)][:n_keep]
    interior = vecs[:, keep].real
    lifted = np.empty((n + 1, keep.size))
    lifted[1:n] = interior
    lifted[ends] = T @ interior
    return vals[keep].real, lifted


def build_basis(q1, q2, k1, k2, j_max=60, n_cheb=None):
    """Eigenbasis of -(y'' + q1 y' + q2 y) = lam y with Robin ends.

    Returned eigenfunctions are those of the Liouville normal form (they
    coincide with the original ones when q1 = 0 and are orthonormal in
    L2(0,1) always); rho_half maps them back to the original problem.
    """
    if j_max < 1:
        raise ValueError("j_max must be positive")
    if n_cheb is None:
        n_cheb = max(192, int(2.5 * j_max) + 40)
    if n_cheb < 2 * j_max + 20:
        raise ValueError("collocation too coarse to resolve the requested modes")
    theta, D1, D2 = cheb_nodes_matrices(n_cheb)
    wq = clenshaw_curtis_weights(n_cheb)

    q1v = np.asarray(q1(theta), dtype=float) if callable(q1) else np.full(theta.shape, float(q1))
    q2v = np.asarray(q2(theta), dtype=float) if callable(q2) else np.full(theta.shape, float(q2))
    if callable(q1):
        # moderate spline grid: differentiating q1 on a finer one amplifies
        # the roundoff carried by finite-differenced coefficients
        grid = np.linspace(0.0, 1.0, 257)
        q1p = CubicSpline(grid, np.asarray(q1(grid), dtype=float))(theta, 1)
    else:
        q1p = np.zeros_like(theta)

    Q = 0.25 * q1v**2 + 0.5 * q1p - q2v
    # Liouville transform u = rho^{1/2} y shifts the Robin constants by -q1/2
    k1t = float(k1) - 0.5 * q1v[0]
    k2t = float(k2) - 0.5 * q1v[-1]

    op = -D2 + np.diag(Q)
    lam, vecs = _robin_eig(op, k1t, k2t, D1, j_max + 1, n_cheb)
    if np.any(np.diff(lam) <= 0):
        raise RuntimeError("eigenvalues not simple/increasing; refine the collocation")

    # L2 normalization and a sign convention
    norms = np.sqrt(np.abs(vecs.T @ (wq[:, None] * vecs)).diagonal())
    Y = vecs / norms
    anchor = Y[0] + 0.1 * Y[min(4, n_cheb)]
    Y = Y * np.where(anchor >= 0, 1.0, -1.0)
    Yp = D1 @ Y
    # Rayleigh-quotient polish: the eigenvalues of the eliminated collocation
    # matrix carry roundoff of order eps * ||D2||; the quotient error is
    # quadratic in the eigenvector error
    lam_rq = (wq[:, None] * (Yp**2 + Q[:, None] * Y**2)).sum(axis=0)
    lam_rq += k2t * Y[-1] ** 2 - k1t * Y[0] ** 2
    lam = np.where(np.abs(lam_rq - lam) < 1e-4 * (1.0 + np.abs(lam)), lam_rq, lam)

    if callable(q1):
        grid = np.linspace(0.0, 1.0, 4097)
        anti = cumulative_integral(lambda s: np.asarray(q1(s), dtype=float), grid)
        rho_half = np.exp(0.5 * CubicSpline(grid, anti)(theta))
    else:
        rho_half = np.exp(0.5 * float(q1) * theta)

    return SpectralBasis(
        q1=q1,
        q2=q2,
        k1=float(k1),
        k2=float(k2),
        j_max=j_max,
        nodes=theta,
        wq=wq,
        D1=D1,
        D2=D2,
        lam=lam,
        Y=Y,
        Yp=Yp,
        rho_half=rho_half,
        q1_nodes=q1v,
    )


@dataclass
class ResonanceLedger:
    eps: float
    c: float
    lambda_star: float
    margin: float
    argmin_j: int
    resonant_eps: np.ndarray
    passes: bool


def gap_check(eps, c, lambda0, ell, j_list=12):
    """Populate the resonance ledger for |eps^2 j^2 - lambda*| >= c eps."""
    if eps <= 0 or c <= 0:
        raise ValueError("need eps > 0 and c > 0")
    lam_star = lambda0 * ell**2 / np.pi**2
    j_top = int(np.ceil(np.sqrt(2.0 * lam_star) / eps)) + 1
    j = np.arange(1, max(j_top, 2))
    gaps = np.abs(eps**2 * j**2 - lam_star)
    i = int(np.argmin(gaps))
    resonant = np.sqrt(lam_star) / np.arange(1, j_list + 1)
    return ResonanceLedger(
        eps=float(eps),
        c=float(c),
        lambda_star=float(lam_star),
        margin=float(gaps[i]),
        argmin_j=int(j[i]),
        resonant_eps=resonant,
        passes=bool(gaps[i] >= c * eps),
    )


def lemma_series_sums(eps, lambda0, ell, k1=0.0, k2=0.0, q_mean=0.0, j_sum=None):
    """The three spectral sums split at 2 eps^2 lam_j vs {3, 1} lambda0 ell^2.

    Uses the two-term eigenvalue asymptotics lam_j ~ (j pi)^2 + 2(k2 - k1)
    + q_mean; returns the sums and their epsilon-normalized sizes.
    """
    if j_sum is None:
        j_sum = int(20.0 / eps)
    j = np.arange(1, j_sum + 1, dtype=float)
    lam = (j * np.pi) ** 2 + 2.0 * (k2 - k1) + q_mean
    den = lambda0 * ell**2 - eps**2 * lam
    terms = j**2 * eps**2 * (eps * j + 1.0) ** 2 / (lam**2 * den**2)
    hi = 2.0 * eps**2 * lam >= 3.0 * lambda0 * ell**2
    mid = (2.0 * eps**2 * lam > lambda0 * ell**2) & ~hi
    lo = 2.0 * eps**2 * lam <= lambda0 * ell**2
    s_hi, s_mid, s_lo = terms[hi].sum(), terms[mid].sum(), terms[lo].sum()
    return {
        "high": float(s_hi),
        "mid": float(s_mid),
        "low": float(s_lo),
        "high_over_eps2": float(s_hi / eps**2),
        "mid_over_eps": float(s_mid / eps),
        "low_over_eps2": float(s_lo / eps**2),
    }


# ---------------------------------------------------------------------------


class ReducedProblem:
    """Geometry/potential context shared by the f- and e-solvers."""

    def __init__(self, chart, potential, lambda0, j_max=60, n_cheb=None):
        self.chart = chart
        self.field = potential
        self.lambda0 = float(lambda0)
        self.ell = potential.ell
        self.j_max = int(j_max)

        # arclength substitution: vartheta = a(theta)/ell
        self.theta_of = lambda v: potential.arc_inv(self.ell * np.asarray(v, dtype=float))
        self.of_theta = lambda th: potential.arc(np.asarray(th, dtype=float)) / self.ell

        def q1(v):
            th = self.theta_of(v)
            beta = potential.beta(th)
            return self.ell * potential.dbeta(th) / beta**2 + self.ell * geodesic.hbar1(potential, th) / beta

        def q2(v):
            th = self.theta_of(v)
            return self.ell**2 * geodesic.hbar2(chart, potential, th) / potential.beta(th) ** 2

        self.kappa1 = chart.k1 * self.ell / potential.beta(0.0)
        self.kappa2 = chart.k2 * self.ell / potential.beta(1.0)
        self.basis = build_basis(q1, q2, self.kappa1, self.kappa2, j_max=j_max, n_cheb=n_cheb)
        self.theta_nodes = self.theta_of(self.basis.nodes)
        self.beta_nodes = potential.beta(self.theta_nodes)
        if np.min(np.abs(self.basis.lam)) < 1e-8 * max(1.0, np.max(np.abs(self.basis.lam[:3]))):
            raise DegenerateOperatorError(
                "reduced location operator has a numerically zero eigenvalue; "
                "see the non-degeneracy test"
            )


class _NodalSolution:
    """Values and first two derivatives at theta_nodes, each splined between the nodes."""

    @cached_property
    def _splines(self):
        return tuple(CubicSpline(self.theta_nodes, v) for v in (self.values, self.d1, self.d2))

    def __call__(self, theta):
        return self._splines[0](theta)

    def deriv(self, theta, order=1):
        return self._splines[order](theta)


@dataclass
class FSolution(_NodalSolution):
    theta_nodes: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    norm_star: float


def _on(fn, x):
    """Values at the points x of a callable, a constant, or an array given at x."""
    return np.asarray(fn(x), dtype=float) if callable(fn) else np.full(np.shape(x), fn, dtype=float)


def _norm_star(wq, f, fp, fpp):
    l2 = float(np.sqrt(np.sum(wq * fpp**2)))
    return float(np.max(np.abs(f)) + np.max(np.abs(fp)) + l2)


def _robin_lift(k_left, k_right, g0, g1):
    """Quadratic c0 + c1 th + c2 th^2 with Robin residuals (g0, g1)."""
    rows = np.array([
        [k_left, 1.0, 0.0],
        [k_right, 1.0 + k_right, 2.0 + k_right],
    ])
    co, *_ = np.linalg.lstsq(rows, np.array([g0, g1]), rcond=None)
    if np.max(np.abs(rows @ co - np.array([g0, g1]))) > 1e-10 * (abs(g0) + abs(g1) + 1e-300):
        raise RuntimeError("Robin lift failed; boundary constants degenerate")
    return co


def solve_f_problem(problem, g, eps, alpha1=0.0, alpha2=0.0, robin=(0.0, 0.0), ledger=None):
    """Solve f'' + (hbar1 + alpha1) f' + (hbar2 + alpha2) f = g, Robin ends.

    g, alpha1, alpha2 are callables of theta, constants or values at
    problem.theta_nodes (the alphas are typically oscillatory, built from the
    resonance amplitude and the boundary strip layer). Chebyshev collocation
    in the arclength variable: the strip layer imprints end layers of width
    eps on the coefficients, which the end-clustered nodes resolve while a
    truncated eigenfunction expansion does not. The Robin data
    (Gamma0, Gamma1), f' + k f = Gamma at the ends, replaces the first and
    last rows. Refuses when the supplied ledger fails the gap condition.
    """
    if ledger is not None and not ledger.passes:
        raise GapError(f"gap margin {ledger.margin:.3e} < c*eps = {ledger.c * ledger.eps:.3e}")
    basis = problem.basis
    th = problem.theta_nodes
    beta = problem.beta_nodes
    ell = problem.ell
    gv = _on(g, th)
    P1 = basis.q1_nodes + _on(alpha1, th) * ell / beta
    P2 = np.asarray(basis.q2(basis.nodes), dtype=float) + _on(alpha2, th) * ell**2 / beta**2
    A = basis.D2 + P1[:, None] * basis.D1 + np.diag(P2)
    rhs = ell**2 / beta**2 * gv
    A[0] = basis.D1[0]
    A[0, 0] += problem.kappa1
    rhs[0] = robin[0] * ell / beta[0]
    A[-1] = basis.D1[-1]
    A[-1, -1] += problem.kappa2
    rhs[-1] = robin[1] * ell / beta[-1]
    try:
        eta = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperatorError(str(exc)) from None
    eta_p = basis.D1 @ eta
    # second derivative through the equation (interior identity)
    eta_pp = ell**2 / beta**2 * gv - P1 * eta_p - P2 * eta
    fp = eta_p * beta / ell
    fpp = eta_pp * (beta / ell) ** 2 + eta_p * problem.field.dbeta(th) / ell
    return FSolution(theta_nodes=th, values=eta, d1=fp, d2=fpp, norm_star=_norm_star(basis.wq, eta, fp, fpp))


@dataclass
class ESolution(_NodalSolution):
    theta_nodes: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    norm_dstar: float


class EOperator:
    """Weighted eigenbasis of -[beta^-2 e'' + hbar5 e'] with Robin ends."""

    def __init__(self, beta, hbar5, b5t, b6t, n_cheb=192, n_keep=None):
        theta, D1, D2 = cheb_nodes_matrices(n_cheb)
        self.nodes = theta
        self.D1 = D1
        self.D2 = D2
        bv = _on(beta, theta)
        h5 = _on(hbar5, theta)
        op = -(np.diag(bv**-2) @ D2 + np.diag(h5) @ D1)
        n_keep = n_keep if n_keep is not None else int(0.4 * n_cheb)
        self.mu, vecs = _robin_eig(op, b5t, b6t, D1, n_keep, n_cheb)
        # self-adjoint weight rho = beta^2 exp(int beta^2 hbar5)
        grid = np.linspace(0.0, 1.0, 2049)
        if callable(beta) or callable(hbar5):
            spl_b = CubicSpline(grid, _on(beta, grid))
            spl_h = CubicSpline(grid, _on(hbar5, grid))
            anti = cumulative_integral(lambda s: spl_b(s) ** 2 * spl_h(s), grid)
            rho = bv**2 * np.exp(CubicSpline(grid, anti)(theta))
        else:
            rho = float(beta) ** 2 * np.exp(float(beta) ** 2 * float(hbar5) * theta)
        self.rho = rho
        self.wq = clenshaw_curtis_weights(n_cheb)
        norms = np.sqrt((vecs**2 * (self.wq * rho)[:, None]).sum(axis=0))
        self.Y = vecs / norms
        anchor = self.Y[0] + 0.1 * self.Y[4]
        self.Y *= np.where(anchor >= 0, 1.0, -1.0)

    def project(self, values):
        return self.Y.T @ (self.wq * self.rho * np.asarray(values, dtype=float))


def solve_e_problem(g_tilde, eps, b5t, b6t, beta, hbar5, lambda0, operator=None, ledger=None, robin=(0.0, 0.0), n_cheb=192):
    """Solve eps^2 [beta^-2 e'' + hbar5 e'] + lambda0 e = g with Robin ends.

    Modal solve in the weighted eigenbasis of the second-order part; the
    amplification 1/(lambda0 - eps^2 mu_j) exposes the resonance structure.
    """
    if ledger is not None and not ledger.passes:
        raise GapError(f"gap margin {ledger.margin:.3e} < c*eps = {ledger.c * ledger.eps:.3e}")
    op = operator if operator is not None else EOperator(beta, hbar5, b5t, b6t, n_cheb=n_cheb)
    th = op.nodes
    gv = _on(g_tilde, th)

    g0, g1 = robin
    lift = np.zeros_like(th)
    if g0 != 0.0 or g1 != 0.0:
        co = _robin_lift(b5t, b6t, g0, g1)
        lift = co[0] + co[1] * th + co[2] * th**2
        bv = _on(beta, th)
        h5 = _on(hbar5, th)
        gv = gv - (eps**2 * (bv**-2 * 2 * co[2] + h5 * (co[1] + 2 * co[2] * th)) + lambda0 * lift)

    denom = lambda0 - eps**2 * op.mu
    coef = op.project(gv) / denom
    e = op.Y @ coef + lift
    ep = op.D1 @ e
    epp = op.D2 @ e
    wq = np.gradient(th)
    norm = float(np.max(np.abs(e)) + eps * np.sqrt(np.sum(wq * ep**2)) + eps**2 * np.sqrt(np.sum(wq * epp**2)))
    return ESolution(theta_nodes=th, values=e, d1=ep, d2=epp, norm_dstar=norm)


def solve_coupled(problem, g, g_tilde, eps, gammas=(0.0, 0.0, 0.0, 0.0), e_operator=None, b5t=0.0, b6t=0.0, hbar5=None, ledger=None):
    """Block solve of the (f, e) system with inhomogeneous Robin data.

    gammas = (Gamma_f at 0, Gamma_f at 1, Gamma_e at 0, Gamma_e at 1); the
    a-priori constant ||f||_* + ||e||_** over the data sizes is reported.
    """
    f_sol = solve_f_problem(problem, g, eps, robin=(gammas[0], gammas[1]), ledger=ledger)
    h5 = hbar5 if hbar5 is not None else (lambda th: np.zeros_like(np.asarray(th, dtype=float)))
    e_sol = solve_e_problem(
        g_tilde, eps, b5t, b6t, problem.field.beta, h5, problem.lambda0,
        operator=e_operator, ledger=ledger, robin=(gammas[2], gammas[3]),
    )
    th = np.linspace(0, 1, 257)
    gsz = float(np.sqrt(np.mean(np.asarray(g(th) if callable(g) else g) ** 2)))
    gtsz = float(np.sqrt(np.mean(np.asarray(g_tilde(th) if callable(g_tilde) else g_tilde) ** 2)))
    data = gsz + gtsz / eps + sum(abs(x) for x in gammas)
    constant = (f_sol.norm_star + e_sol.norm_dstar) / max(data, 1e-300)
    return f_sol, e_sol, constant


def reduced_fixed_point(
    problem,
    eps,
    *,
    h3=None,
    h4=None,
    h6=None,
    hbar5=None,
    b5t=0.0,
    b6t=0.0,
    rho2=0.0,
    h_state=None,
    m_interior=None,
    m_boundary=None,
    ledger=None,
    tol=1e-11,
    max_iter=60,
    relax_threshold=0.9,
):
    """Picard iteration for the coupled nonlinear reduced system.

    m_interior(f_sol, e_sol) -> (M1 values on a theta grid callable, M2 ...)
    and m_boundary(f_sol, e_sol) -> 4 scalars are the caller-supplied hook
    terms (zero by default). Returns (f, e, info).
    """
    if ledger is not None and not ledger.passes:
        raise GapError("fixed point refused: gap condition fails")
    zero = lambda th: np.zeros_like(np.asarray(th, dtype=float))
    h3 = h3 or zero
    h4 = h4 or zero
    h6 = h6 or zero
    hp = h_state or (zero, zero)
    e_op = EOperator(problem.field.beta, hbar5 or zero, b5t, b6t)

    th_grid = np.linspace(0.0, 1.0, 513)
    f_sol = e_sol = ScalarFn(zero, d1=zero, d2=zero)
    f_prev = np.zeros_like(th_grid)
    e_prev = np.zeros_like(th_grid)
    diffs = []
    for it in range(max_iter):
        m1, m2 = m_interior(f_sol, e_sol) if m_interior is not None else (zero, zero)
        gams = tuple(-g for g in (m_boundary(f_sol, e_sol) if m_boundary is not None else (0.0, 0.0, 0.0, 0.0)))

        def g1(th, m1=m1, e=e_sol):
            return h3(th) * e(th) + eps**2 * h4(th) * e.deriv(th, 2) + eps * m1(th)

        def g2(th, m2=m2, f=f_sol, e=e_sol):
            hv, hpv = hp[0](th), hp[1](th)
            vp = problem.chart.varpi(th)
            return (
                eps**3 * f(th) * h6(th) * e.deriv(th, 2)
                + eps * rho2 * f.deriv(th, 1) * hpv
                + eps * rho2 * vp * f.deriv(th, 1) * hv
                + eps**2 * m2(th)
            )

        f_sol, e_sol, _ = solve_coupled(
            problem, g1, g2, eps, gammas=gams, e_operator=e_op, b5t=b5t, b6t=b6t, hbar5=hbar5, ledger=ledger
        )
        fv, ev = f_sol(th_grid), e_sol(th_grid)
        diff = float(np.max(np.abs(fv - f_prev)) + np.max(np.abs(ev - e_prev)))
        diffs.append(diff)
        f_prev, e_prev = fv, ev
        if diff < tol:
            break
        if len(diffs) >= 4 and all(diffs[-i] >= diffs[-i - 1] for i in (1, 2, 3)) and diffs[-1] > 10 * tol:
            raise RuntimeError(f"fixed point not contracting: recent diffs {diffs[-4:]}")
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    info = {
        "iterations": len(diffs),
        "final_diff": diffs[-1],
        "contraction_factors": ratios,
        "norm_star": f_sol.norm_star,
        "norm_dstar": e_sol.norm_dstar,
        "in_admissible_set": bool(f_sol.norm_star <= np.sqrt(eps) and e_sol.norm_dstar <= np.sqrt(eps)),
    }
    return f_sol, e_sol, info
