"""Reduced solvers on the curve: spectral basis, resonance ledger, f/e systems.

Both reduced equations, the location equation (f, and the ring correction
h) and the near-resonant amplitude equation (e), are second order with Robin
ends, and one Chebyshev collocation routine solves them: the first and last
rows carry the Robin conditions and their data. The location operator
eta'' + q1 eta' + q2 eta is also brought to Liouville normal form
-u'' + Q u = lam u (u = rho^{1/2} eta, rho = exp(int q1)) with the two Robin
rows eliminated. location_basis builds its basis on the 192-node grid: the
four eigenvalues nearest zero are the one non-degeneracy verdict, read by the
geodesic stage and ReducedProblem. The ring solve runs on a CGL grid sized by the number of
modes it resolves (ring_degree), and its solutions, like the amplitude
solve's, are read between the nodes by barycentric interpolation (Berrut & Trefethen 2004,
"Barycentric Lagrange interpolation", SIAM Review 46).
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import ceil

import numpy as np
import scipy.linalg as sla

from . import geodesic
from .geometry import ZERO_FN
from .util import Spline, cumulative_integral

__all__ = [
    "cheb_nodes_matrices",
    "clenshaw_curtis_weights",
    "SpectralBasis",
    "ResonanceLedger",
    "gap_check",
    "default_j_max",
    "ring_degree",
    "RingGrid",
    "LocationBasis",
    "location_basis",
    "ReducedProblem",
    "barycentric",
    "FSolution",
    "ESolution",
    "solve_f_problem",
    "solve_e_problem",
    "solve_coupled",
    "reduced_fixed_point",
    "GapError",
    "refuse_failing_ledger",
    "DegenerateOperatorError",
]


class GapError(RuntimeError):
    """epsilon fails the resonance gap condition."""


class DegenerateOperatorError(RuntimeError):
    """The reduced linear operator has an eigenvalue at numerical zero."""


def _cgl_points(n):
    """CGL points y = cos(pi j/n), 1 ... -1, and theta = (1 - y)/2, ascending 0 ... 1."""
    y = np.cos(np.pi * np.arange(n + 1) / n)
    return y, 0.5 * (1.0 - y)


def cheb_nodes_matrices(n):
    """CGL nodes on [0, 1] (ascending) with first/second derivative matrices.

    D2 has the closed-form entries 2 D_ij (D_ii - 1/(y_i - y_j)) off the
    diagonal and rows that sum to zero (Weideman & Reddy 2000, "A MATLAB
    differentiation matrix suite"): O(n^2), where D @ D is O(n^3).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    j = np.arange(n + 1)
    y, theta = _cgl_points(n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    diag = np.diag_indices(n + 1)
    # the n x n arrays are updated in place: at n = 4040 each is 125 MiB
    dY = y[:, None] - y  # y_i - y_j, with 1 on the diagonal
    dY[diag] = 1.0
    D = np.outer(c, 1.0 / c)
    D /= dY
    D[diag] -= D.sum(axis=1)
    D2 = np.reciprocal(dY, out=dY)
    np.subtract(D[diag][:, None], D2, out=D2)
    D2 *= D
    D2[diag] = 0.0
    D2[diag] = -D2.sum(axis=1)
    D2 *= 8.0  # 2 from the entries, 4 from theta = (1 - y)/2
    D *= -2.0
    return theta, D, D2


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


def _on(fn, x):
    """Values at the points x of a callable, a constant, or an array given at x."""
    return np.asarray(fn(x), dtype=float) if callable(fn) else np.full(np.shape(x), fn, dtype=float)


def _robin_collocation(D1, D2, c2, c1, c0, rhs, k, data):
    """Solve c2 u'' + c1 u' + c0 u = rhs on the nodes of D1, D2 with
    u' + k[0] u = data[0] at the first node and u' + k[1] u = data[1] at the last.

    The coefficients are constants or node values; the two Robin rows replace
    the first and last rows of the collocation system. The system
    c2 D2 + c1 D1 + diag(c0) is formed in D2, which is overwritten.
    """
    c2, c1, c0 = (np.broadcast_to(c, rhs.shape) for c in (c2, c1, c0))
    A = D2
    A *= c2[:, None]
    A += c1[:, None] * D1
    A[np.diag_indices_from(A)] += c0
    rhs = np.array(rhs, dtype=float)
    A[[0, -1]] = D1[[0, -1]]
    A[0, 0] += k[0]
    A[-1, -1] += k[1]
    rhs[[0, -1]] = data
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperatorError(str(exc)) from None


class SpectralBasis:
    """Chebyshev collocation of -(y'' + q1 y' + q2 y) = lam y with Robin ends.

    The constructor builds the grid and the coefficients on it, but no n x n
    matrix (at n = 4040 each is 125 MiB). The eigenpairs, computed when first read
    from a dense eigensolve with the two Robin rows eliminated, are those of
    the Liouville normal form (they coincide with the original ones when
    q1 = 0 and are orthonormal in L2(0,1) always); rho_half maps them back to
    the original problem. A singular Robin block raises
    DegenerateOperatorError on that read.
    """

    def __init__(self, q1, q2, k1, k2, j_max=60, n_cheb=None):
        if j_max < 1:
            raise ValueError("j_max must be positive")
        if n_cheb is None:
            n_cheb = max(192, int(2.5 * j_max) + 40)
        if n_cheb < 2 * j_max + 20:
            raise ValueError("collocation too coarse to resolve the requested modes")
        n = n_cheb
        self.q1, self.q2, self.j_max = q1, q2, j_max
        self.k1, self.k2 = float(k1), float(k2)
        self.nodes = _cgl_points(n)[1]
        self.wq = clenshaw_curtis_weights(n)
        self.q1_nodes = _on(q1, self.nodes)
        self.q2_nodes = _on(q2, self.nodes)
        if callable(q1):
            # moderate spline grid: differentiating q1 on a finer one amplifies
            # the roundoff carried by finite-differenced coefficients
            grid = np.linspace(0.0, 1.0, 257)
            q1p = Spline(grid, q1(grid))(self.nodes, 1)
        else:
            q1p = np.zeros_like(self.nodes)
        self.Q = 0.25 * self.q1_nodes**2 + 0.5 * q1p - self.q2_nodes

        # Liouville transform u = rho^{1/2} y shifts the Robin constants by -q1/2
        self.k1t = self.k1 - 0.5 * self.q1_nodes[0]
        self.k2t = self.k2 - 0.5 * self.q1_nodes[-1]

    @cached_property
    def _eigenpairs(self):
        n = self.nodes.size - 1
        _, D1, op = cheb_nodes_matrices(n)
        # u' + k1t u = 0 at the first node and u' + k2t u = 0 at the last give
        # the two end values as a linear map T of the interior values
        robin = np.array([[D1[0, 0] + self.k1t, D1[0, n]], [D1[n, 0], D1[n, n] + self.k2t]])
        if np.linalg.cond(robin) > 1.0 / np.finfo(float).eps:
            raise DegenerateOperatorError(
                f"Robin constants k_left = {self.k1t:.12g}, k_right = {self.k2t:.12g} make the "
                "boundary block singular; the end values are not determined"
            )
        T = -np.linalg.solve(robin, D1[[0, n], 1:n])
        # -D2 + diag(Q) on the interior nodes with the two Robin rows
        # substituted, formed in D2
        np.negative(op, out=op)
        op[np.diag_indices_from(op)] += self.Q
        M = op[1:n, 1:n]
        M += op[1:n, [0, n]] @ T
        vals, vecs = sla.eig(M)
        del op, M
        finite = np.isfinite(vals.real) & (np.abs(vals.imag) <= 1e-6 * (1.0 + np.abs(vals.real)))
        keep = np.flatnonzero(finite)[np.argsort(vals[finite].real)][: self.j_max + 1]
        lam = vals[keep].real
        if np.any(np.diff(lam) <= 0):
            raise RuntimeError("eigenvalues not simple/increasing; refine the collocation")
        interior = vecs[:, keep].real
        lifted = np.empty((n + 1, keep.size))
        lifted[1:n] = interior
        lifted[[0, n]] = T @ interior

        # L2 normalization and a sign convention
        wq = self.wq
        norms = np.sqrt(np.abs(lifted.T @ (wq[:, None] * lifted)).diagonal())
        Y = lifted / norms
        anchor = Y[0] + 0.1 * Y[min(4, n)]
        Y = Y * np.where(anchor >= 0, 1.0, -1.0)
        Yp = D1 @ Y
        # Rayleigh-quotient polish: the eigenvalues of the eliminated collocation
        # matrix carry roundoff of order eps * ||D2||; the quotient error is
        # quadratic in the eigenvector error
        lam_rq = (wq[:, None] * (Yp**2 + self.Q[:, None] * Y**2)).sum(axis=0)
        lam_rq += self.k2t * Y[-1] ** 2 - self.k1t * Y[0] ** 2
        lam = np.where(np.abs(lam_rq - lam) < 1e-4 * (1.0 + np.abs(lam)), lam_rq, lam)
        return lam, Y, Yp

    lam = property(lambda self: self._eigenpairs[0])
    Y = property(lambda self: self._eigenpairs[1])  # (n+1, j_max+1) values on the nodes
    Yp = property(lambda self: self._eigenpairs[2])

    @cached_property
    def rho_half(self):
        """sqrt(exp(int q1)) on the nodes."""
        if not callable(self.q1):
            return np.exp(0.5 * float(self.q1) * self.nodes)
        grid = np.linspace(0.0, 1.0, 4097)
        anti = cumulative_integral(lambda s: np.asarray(self.q1(s), dtype=float), grid)
        return np.exp(0.5 * Spline(grid, anti)(self.nodes))

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


@dataclass
class ResonanceLedger:
    eps: float
    c: float
    lambda_star: float
    margin: float
    argmin_j: int
    resonant_eps: np.ndarray
    passes: bool


def gap_check(eps, c, lambda0, ell):
    """Populate the resonance ledger for |eps^2 j^2 - lambda*| >= c eps.

    The ledger lists the resonant eps = sqrt(lambda*)/j for j = 1 .. 12.
    """
    if eps <= 0 or c <= 0:
        raise ValueError("need eps > 0 and c > 0")
    lam_star = lambda0 * ell**2 / np.pi**2
    j_top = int(np.ceil(np.sqrt(2.0 * lam_star) / eps)) + 1
    j = np.arange(1, max(j_top, 2))
    gaps = np.abs(eps**2 * j**2 - lam_star)
    i = int(np.argmin(gaps))
    resonant = np.sqrt(lam_star) / np.arange(1, 13)
    return ResonanceLedger(
        eps=float(eps),
        c=float(c),
        lambda_star=float(lam_star),
        margin=float(gaps[i]),
        argmin_j=int(j[i]),
        resonant_eps=resonant,
        passes=bool(gaps[i] >= c * eps),
    )


# ---------------------------------------------------------------------------


def default_j_max(eps):
    """Modes of the location problem resolved at this eps."""
    return max(60, int(np.ceil(4.0 / eps)))


def ring_degree(j_max):
    """Chebyshev degree of the ring solve's grid for j_max: 5 j_max/8 + 40,
    about 2.5/eps + 40 at the default j_max = 4/eps, and at least 192."""
    return max(192, ceil(5 * j_max / 8) + 40)


@dataclass(frozen=True)
class RingGrid:
    """The CGL grid of the ring solve in the arclength variable.

    nodes and wq are the nodes on [0, 1] and their quadrature weights; q1
    and q2 are the location coefficients at the nodes, theta the nodes in
    theta and beta the field's beta there.
    """

    nodes: np.ndarray
    wq: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    theta: np.ndarray
    beta: np.ndarray


class LocationBasis(SpectralBasis):
    """The location operator f'' + hbar1 f' + hbar2 f, f' + k_i f = 0 at the
    ends, in the arclength variable vartheta = a(theta)/ell, on the 192-node grid.

    theta_of and of_theta map vartheta to theta and back; the ends carry
    k_i ell / beta. lam_near_zero holds the four eigenvalues nearest 0,
    ascending, which do not depend on eps or j_max: the operator is
    nondegenerate when smallest = min |lam_near_zero| is at least
    threshold = 1e-8 max(1, max |lam_near_zero[:3]|).
    """

    def __init__(self, chart, field):
        ell = field.ell
        # the closures hold no reference to self, so a dropped basis is freed
        # at once, not at the next cyclic garbage collection
        theta_of = self.theta_of = lambda v: field.arc_inv(ell * np.asarray(v, dtype=float))
        self.of_theta = lambda th: field.arc(np.asarray(th, dtype=float)) / ell

        def q1(v):
            th = theta_of(v)
            beta = field.beta(th)
            return ell * field.beta.deriv(th, 1) / beta**2 + ell * geodesic.hbar1(field, th) / beta

        def q2(v):
            th = theta_of(v)
            return ell**2 * geodesic.hbar2(chart, field, th) / field.beta(th) ** 2

        super().__init__(q1, q2, chart.k1 * ell / field.beta(0.0), chart.k2 * ell / field.beta(1.0))
        lam = self.lam
        lam = self.lam_near_zero = np.sort(lam[np.argsort(np.abs(lam))[:4]])
        self.smallest = float(np.min(np.abs(lam)))
        self.threshold = 1e-8 * max(1.0, float(np.max(np.abs(lam[:3]))))
        self.nondegenerate = self.smallest >= self.threshold


_last_location = None  # (chart, field, LocationBasis) of the last location_basis call


def location_basis(chart, field):
    """The LocationBasis of (chart, field), the one non-degeneracy verdict.

    The last pair is kept and compared by identity, so the geodesic stage and
    the reduced problems of one run share one eigensolve; the entry holds the
    pair, so their ids cannot be reused while it is kept.
    """
    global _last_location
    if _last_location is None or _last_location[0] is not chart or _last_location[1] is not field:
        _last_location = (chart, field, LocationBasis(chart, field))
    return _last_location[2]


class ReducedProblem:
    """Geometry/potential context shared by the f- and e-solvers.

    basis is the spectral basis of the location operator on the 192-node
    grid (location_basis), and ring the grid of the ring solve
    (ring_degree(j_max)). Construction refuses a location operator that
    location_basis judges degenerate (DegenerateOperatorError).
    """

    def __init__(self, chart, potential, lambda0, j_max=60):
        self.chart = chart
        self.field = potential
        self.lambda0 = float(lambda0)
        self.ell = potential.ell
        self.j_max = int(j_max)
        basis = self.basis = location_basis(chart, potential)
        self.theta_of, self.of_theta, self.lam_near_zero = basis.theta_of, basis.of_theta, basis.lam_near_zero
        if not basis.nondegenerate:
            raise DegenerateOperatorError(
                f"reduced location operator has a numerically zero eigenvalue: min |lam| = "
                f"{basis.smallest:.3e} < threshold {basis.threshold:.3e}; see the non-degeneracy test"
            )
        self.ring = self.ring_grid(ring_degree(self.j_max))
        # (key, h) of the last ring solve, kept by ansatz.solve_h_bvp: tiers 3-5
        # of one eps solve the same problem
        self.last_ring = None

    def ring_grid(self, n):
        """The RingGrid of degree n."""
        nodes = _cgl_points(n)[1]
        theta = self.theta_of(nodes)
        return RingGrid(
            nodes=nodes,
            wq=clenshaw_curtis_weights(n),
            q1=_on(self.basis.q1, nodes),
            q2=_on(self.basis.q2, nodes),
            theta=theta,
            beta=self.field.beta(theta),
        )


def refuse_failing_ledger(ledger):
    """Raise GapError when a ledger is given and fails the gap condition."""
    if ledger is not None and not ledger.passes:
        raise GapError(f"gap margin {ledger.margin:.3e} < c*eps = {ledger.c * ledger.eps:.3e}")


# points per pass of barycentric: a pass holds one (points, nodes) array,
# 2 MiB at 1041 nodes
_BARY_BLOCK = 256


def barycentric(nodes, values, x):
    """The polynomial through values at the CGL nodes on [0, 1], read at x.

    The second (true) barycentric formula with the CGL weights (-1)^j,
    halved at the two ends (Berrut & Trefethen 2004). A point equal to a
    node returns that node's value itself.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BARY_BLOCK):
        part = slice(start, start + _BARY_BLOCK)
        c = flat[part, None] - nodes
        hit = np.nonzero(c == 0.0)
        c[hit] = 1.0
        np.divide(w, c, out=c)
        c[hit] = 0.0
        out[part] = (c @ values) / c.sum(axis=1)
        out[start + hit[0]] = values[hit[1]]
    return out.reshape(x.shape)


@dataclass
class _NodalSolution:
    """Values and first two theta-derivatives at the CGL nodes of a grid.

    nodes are the grid's nodes on [0, 1] in its own variable, to_grid maps
    theta to that variable (None: the variable is theta), and theta_nodes
    are the nodes in theta. Each of the three is read between the nodes by
    barycentric interpolation in the grid's variable.
    """

    nodes: np.ndarray
    to_grid: object
    theta_nodes: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def _at(self, values, theta):
        return barycentric(self.nodes, values, theta if self.to_grid is None else self.to_grid(theta))

    def __call__(self, theta):
        return self._at(self.values, theta)

    def deriv(self, theta, order=1):
        return self._at((self.values, self.d1, self.d2)[order], theta)


# theta points of the two sup terms of FSolution.norm_star, the points of
# ansatz.ReducedState.norm_star: the norm does not depend on the grid's size
_SUP_THETA = np.linspace(0.0, 1.0, 2001)


@dataclass
class FSolution(_NodalSolution):
    norm_star: float


def solve_f_problem(problem, g, eps, alpha1=0.0, alpha2=0.0, robin=(0.0, 0.0), ledger=None):
    """Solve f'' + (hbar1 + alpha1) f' + (hbar2 + alpha2) f = g, Robin ends.

    g, alpha1, alpha2 are callables of theta, constants or values at
    problem.ring.theta (the alphas are typically oscillatory, built from the
    resonance amplitude and the boundary strip layer). Chebyshev collocation
    in the arclength variable on problem.ring: the strip layer imprints end
    layers of width eps on the coefficients, which the end-clustered nodes
    resolve while a truncated eigenfunction expansion does not. The Robin
    data (Gamma0, Gamma1), f' + k f = Gamma at the ends, replaces the first
    and last rows. norm_star reads max|f| and max|f'| on 2001 equispaced
    theta points, not at the nodes, and the L2 norm of f'' by the grid's
    quadrature. Refuses when the supplied ledger fails the gap condition.
    """
    refuse_failing_ledger(ledger)
    ring = problem.ring
    th, beta, ell = ring.theta, ring.beta, problem.ell
    gv = _on(g, th)
    P1 = ring.q1 + _on(alpha1, th) * ell / beta
    P2 = ring.q2 + _on(alpha2, th) * ell**2 / beta**2
    _, D1, D2 = cheb_nodes_matrices(ring.nodes.size - 1)
    eta = _robin_collocation(
        D1, D2, 1.0, P1, P2, ell**2 / beta**2 * gv,
        (problem.basis.k1, problem.basis.k2), (robin[0] * ell / beta[0], robin[1] * ell / beta[-1]),
    )
    eta_p = D1 @ eta
    # second derivative through the equation (interior identity)
    eta_pp = ell**2 / beta**2 * gv - P1 * eta_p - P2 * eta
    fp = eta_p * beta / ell
    fpp = eta_pp * (beta / ell) ** 2 + eta_p * problem.field.beta.deriv(th, 1) / ell
    v = problem.of_theta(_SUP_THETA)
    sup = lambda vals: np.max(np.abs(barycentric(ring.nodes, vals, v)))
    norm = float(sup(eta) + sup(fp) + np.sqrt(np.sum(ring.wq * fpp**2)))
    return FSolution(
        nodes=ring.nodes, to_grid=problem.of_theta, theta_nodes=th, values=eta, d1=fp, d2=fpp, norm_star=norm
    )


@dataclass
class ESolution(_NodalSolution):
    norm_dstar: float


@cache
def _e_grid():
    """The one CGL grid of the amplitude solve (its coefficients are smooth in
    theta): nodes, D1, D2 and quadrature weights, read-only."""
    grid = (*cheb_nodes_matrices(192), clenshaw_curtis_weights(192))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def solve_e_problem(g_tilde, eps, b5t, b6t, beta, hbar5, lambda0, ledger=None, robin=(0.0, 0.0)):
    """Solve eps^2 [beta^-2 e'' + hbar5 e'] + lambda0 e = g with Robin ends.

    e' + b5t e = robin[0] at theta = 0 and e' + b6t e = robin[1] at 1, by
    Chebyshev collocation on the CGL grid of degree 192. Near a resonant eps
    the operator has the small divisor lambda0 - eps^2 mu_j, mu_j an
    eigenvalue of -[beta^-2 e'' + hbar5 e'], and the amplitude grows like
    its inverse.
    """
    refuse_failing_ledger(ledger)
    th, D1, D2, wq = _e_grid()
    e = _robin_collocation(
        D1, D2.copy(), eps**2 * _on(beta, th) ** -2, eps**2 * _on(hbar5, th), lambda0, _on(g_tilde, th), (b5t, b6t), robin
    )
    ep = D1 @ e
    epp = D2 @ e
    norm = float(np.max(np.abs(e)) + eps * np.sqrt(np.sum(wq * ep**2)) + eps**2 * np.sqrt(np.sum(wq * epp**2)))
    return ESolution(nodes=th, to_grid=None, theta_nodes=th, values=e, d1=ep, d2=epp, norm_dstar=norm)


def solve_coupled(problem, g, g_tilde, eps, gammas=(0.0, 0.0, 0.0, 0.0), b5t=0.0, b6t=0.0, hbar5=None, ledger=None):
    """Block solve of the (f, e) system with inhomogeneous Robin data.

    gammas = (Gamma_f at 0, Gamma_f at 1, Gamma_e at 0, Gamma_e at 1); the
    a-priori constant ||f||_* + ||e||_** over the data sizes is reported.
    """
    f_sol = solve_f_problem(problem, g, eps, robin=(gammas[0], gammas[1]), ledger=ledger)
    e_sol = solve_e_problem(
        g_tilde, eps, b5t, b6t, problem.field.beta, 0.0 if hbar5 is None else hbar5, problem.lambda0,
        ledger=ledger, robin=(gammas[2], gammas[3]),
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
):
    """Picard iteration for the coupled nonlinear reduced system.

    m_interior(f_sol, e_sol) -> (M1 values on a theta grid callable, M2 ...)
    and m_boundary(f_sol, e_sol) -> 4 scalars are the caller-supplied hook
    terms (zero by default). Returns (f, e, info).
    """
    if ledger is not None and not ledger.passes:
        raise GapError("fixed point refused: gap condition fails")
    h3 = h3 or ZERO_FN
    h4 = h4 or ZERO_FN
    h6 = h6 or ZERO_FN
    hp = h_state or (ZERO_FN, ZERO_FN)

    th_grid = np.linspace(0.0, 1.0, 513)
    f_sol = e_sol = ZERO_FN
    f_prev = np.zeros_like(th_grid)
    e_prev = np.zeros_like(th_grid)
    diffs = []
    for _ in range(max_iter):
        m1, m2 = m_interior(f_sol, e_sol) if m_interior is not None else (ZERO_FN, ZERO_FN)
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
            problem, g1, g2, eps, gammas=gams, b5t=b5t, b6t=b6t, hbar5=hbar5, ledger=ledger
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
