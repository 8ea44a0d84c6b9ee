"""One-dimensional layer profiles.

Ground state of w'' - w + w^p = 0 on the line (closed sech form), the
principal eigenpair of the linearized operator, the two correction profiles
driven by curvature/potential terms, and a bordered solver for the
linearized operator with the translation mode pinned by orthogonality.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .util import fd_first_axis, simpson_weights, write_table

__all__ = [
    "ProfileSet",
    "TruncationError",
    "SolvabilityError",
    "ConvergenceError",
    "ground_state",
    "sigma_exponent",
    "lambda0_closed_form",
    "build_profiles",
    "principal_eigenvalue_fd",
    "LinearizedSolver1D",
    "save_profiles",
]


class TruncationError(RuntimeError):
    """Domain half-width too small for the requested decay."""


class SolvabilityError(RuntimeError):
    """Right-hand side violates the orthogonality needed for solvability."""

    def __init__(self, projection, message=None):
        self.projection = projection
        super().__init__(message or f"solvability projection |<r, w_x>| = {projection:.3e}")


class ConvergenceError(RuntimeError):
    """A profile solve did not reach its residual target."""


def sigma_exponent(p):
    return (p + 1.0) / (p - 1.0) - 0.5


def lambda0_closed_form(p):
    return 0.25 * (p - 1.0) * (p + 3.0)


def ground_state(p, x):
    """Ground state w and derivatives (w, w_x, w_xx) at points x.

    w(x) = ((p+1)/2)^(1/(p-1)) sech^(2/(p-1))((p-1) x / 2); the second
    derivative is returned through the ODE, w_xx = w - w^p.
    """
    x = np.asarray(x, dtype=float)
    a = 0.5 * (p - 1.0)
    amp = (0.5 * (p + 1.0)) ** (1.0 / (p - 1.0))
    sech = 1.0 / np.cosh(a * x)
    w = amp * sech ** (2.0 / (p - 1.0))
    w_x = -w * np.tanh(a * x)  # since (2/(p-1)) * a = 1
    w_xx = w - w**p
    return w, w_x, w_xx


@dataclass(frozen=True)
class ProfileSet:
    """Tabulated 1D profiles and their scalar invariants on [-X, X].

    ``solver`` is the factorized bordered solver that produced w1; reuse it
    for further linearized solves on the same grid.
    """

    p: float
    sigma: float
    x: np.ndarray
    hx: float
    w: np.ndarray
    w_x: np.ndarray
    w_xx: np.ndarray
    w1: np.ndarray
    w1_x: np.ndarray
    w2: np.ndarray
    w2_x: np.ndarray
    Z: np.ndarray
    Z_x: np.ndarray
    lambda0: float
    lambda0_fd: float
    rho1: float
    rho2: float
    int_w2: float
    int_wp1: float
    solver: "LinearizedSolver1D" = field(repr=False, compare=False)

    @property
    def x_max(self):
        return float(self.x[-1])

    @property
    def n(self):
        return self.x.size

    @property
    def quad_weights(self):
        return simpson_weights(self.n, self.hx)

    def integrate(self, values, axis=-1):
        values = np.asarray(values)
        w = self.quad_weights
        shape = [1] * values.ndim
        shape[axis] = self.n
        return np.sum(values * w.reshape(shape), axis=axis)

    def w1_xx(self):
        # from the defining equation of w1
        rhs = self.w_x + self.x * self.w / self.sigma
        return self.w1 - self.p * self.w ** (self.p - 1.0) * self.w1 - rhs

    def w2_xx(self):
        return self.w2 - self.p * self.w ** (self.p - 1.0) * self.w2 - self.w

    def Z_xx(self):
        return (1.0 + self.lambda0) * self.Z - self.p * self.w ** (self.p - 1.0) * self.Z


def principal_eigenvalue_fd(p, x_max=20.0, n=4001):
    """Largest eigenvalue of the Dirichlet-discretized h'' - h + p w^(p-1) h."""
    x = np.linspace(-x_max, x_max, n)
    h = x[1] - x[0]
    w = ground_state(p, x[1:-1])[0]
    diag = -2.0 / h**2 - 1.0 + p * w ** (p - 1.0)
    off = np.full(n - 3, 1.0 / h**2)
    m = n - 2
    vals = sla.eigh_tridiagonal(diag, off, select="i", select_range=(m - 1, m - 1), eigvals_only=True)
    return float(vals[0])


class LinearizedSolver1D:
    """Factorized solver for -phi'' + phi - p w^(p-1) phi = r on [-X, X].

    Dirichlet conditions at the endpoints (the data decays exponentially)
    and the translation mode pinned by the constraint <phi, w_x> = 0 through
    a Lagrange-multiplier bordering of the tridiagonal system.

    The bordered matrix is an arrowhead: a tridiagonal plus one dense row
    and column. A minimum-degree ordering on A^T + A keeps the dense border
    last, so the LU has about 3n nonzeros; a column ordering such as COLAMD
    moves the border column forward and the U factor fills to O(n^2).
    """

    def __init__(self, p, x, w, w_x):
        self.p = float(p)
        self.x = np.asarray(x, dtype=float)
        self.hx = float(self.x[1] - self.x[0])
        self.w = np.asarray(w, dtype=float)
        self.w_x = np.asarray(w_x, dtype=float)
        n = self.x.size
        h2 = self.hx**2
        wq = simpson_weights(n, self.hx)
        main = 2.0 / h2 + 1.0 - self.p * self.w[1:-1] ** (self.p - 1.0)
        a = sp.diags(
            [np.full(n - 3, -1.0 / h2), main, np.full(n - 3, -1.0 / h2)],
            offsets=[-1, 0, 1],
            format="csc",
        )
        # multiplier column is w_x itself (pointwise equation stays smooth);
        # the constraint row carries the quadrature weights
        col = self.w_x[1:-1]
        row = (wq * self.w_x)[1:-1]
        top = sp.hstack([a, col.reshape(-1, 1)], format="csc")
        bottom = sp.hstack([sp.csc_matrix(row.reshape(1, -1)), sp.csc_matrix((1, 1))], format="csc")
        self._lu = spla.splu(sp.vstack([top, bottom], format="csc"), permc_spec="MMD_AT_PLUS_A")
        self._wq = wq
        self._norm_wx = np.sqrt(np.sum(wq * self.w_x**2))

    def projection(self, r):
        return float(np.sum(self._wq * np.asarray(r) * self.w_x))

    def solve(self, r, parity="none", check=True):
        """Solve for phi; returns (phi, multiplier).

        parity in {"odd", "even", "none"} declares the expected symmetry of
        the data; it is asserted on the output. Solvability <r, w_x> = 0 is
        required, to 1e-6 relative, unless the data is declared even (then it
        holds exactly).
        """
        r = np.asarray(r, dtype=float)
        proj = self.projection(r)
        scale = np.sqrt(np.sum(self._wq * r**2)) * self._norm_wx
        if check and parity != "even" and scale > 0 and abs(proj) > 1e-6 * max(scale, 1e-300):
            raise SolvabilityError(proj)
        rhs = np.concatenate([r[1:-1], [0.0]])
        sol = self._lu.solve(rhs)
        phi = np.zeros_like(r)
        phi[1:-1] = sol[:-1]
        mult = float(sol[-1])
        if check and parity in ("odd", "even"):
            sign = -1.0 if parity == "odd" else 1.0
            dev = np.max(np.abs(phi - sign * phi[::-1]))
            ref = max(np.max(np.abs(phi)), 1e-300)
            if dev > 1e-6 * ref:
                raise ConvergenceError(f"output parity deviation {dev:.3e} (expected {parity})")
        return phi, mult

    def solve_many(self, rhs_rows):
        """Solve for a stack of right-hand sides (rows); no parity checks."""
        rhs_rows = np.asarray(rhs_rows, dtype=float)
        block = np.concatenate([rhs_rows[:, 1:-1], np.zeros((rhs_rows.shape[0], 1))], axis=1)
        sol = self._lu.solve(block.T)
        out = np.zeros_like(rhs_rows)
        out[:, 1:-1] = sol[:-1].T
        return out

    def condition_estimate(self):
        """1-norm condition estimate of the bordered system (zero-mode health)."""
        n = self.x.size - 1
        op = spla.LinearOperator((n, n), matvec=self._lu.solve, rmatvec=lambda v: self._lu.solve(v, trans="T"))
        inv_norm = spla.onenormest(op)
        fwd = 4.0 / self.hx**2 + self.p * np.max(self.w ** (self.p - 1.0)) + np.max(np.abs(self.w_x))
        return float(inv_norm * fwd)

    def apply(self, phi):
        """Apply the discrete operator -D2 phi + phi - p w^(p-1) phi."""
        phi = np.asarray(phi, dtype=float)
        out = np.zeros_like(phi)
        h2 = self.hx**2
        out[1:-1] = (
            -(phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / h2
            + phi[1:-1]
            - self.p * self.w[1:-1] ** (self.p - 1.0) * phi[1:-1]
        )
        return out


def build_profiles(p, x_max=20.0, n=4001):
    """Construct the full ProfileSet on a uniform grid of n points.

    n must be odd (x = 0 on the grid; the interval count n - 1 is even for
    Simpson quadrature) and at least 2001.
    """
    if p <= 1.0:
        raise ValueError("exponent must satisfy p > 1")
    if x_max < 15.0:
        raise ValueError("half-width below 15 truncates the tails")
    if n % 2 == 0 or n < 2001:
        raise ValueError("need an odd point count n >= 2001")

    x = np.linspace(-x_max, x_max, n)
    hx = x[1] - x[0]
    w, w_x, w_xx = ground_state(p, x)
    if w[-1] > 1e-6 * w[n // 2]:
        raise TruncationError(f"w(X)/w(0) = {w[-1] / w[n // 2]:.2e} exceeds 1e-6")

    sigma = sigma_exponent(p)
    lam0 = lambda0_closed_form(p)
    wq = simpson_weights(n, hx)

    int_wp1 = float(np.sum(wq * w ** (p + 1.0)))
    z_raw = w ** (0.5 * (p + 1.0))
    Z = z_raw / np.sqrt(int_wp1)
    Z_x = 0.5 * (p + 1.0) * w ** (0.5 * (p - 1.0)) * w_x / np.sqrt(int_wp1)

    rho1 = float(np.sum(wq * w_x**2))
    int_w2 = float(np.sum(wq * w**2))
    rho2 = float(2.0 * np.sum(wq * w_xx * Z))

    solver = LinearizedSolver1D(p, x, w, w_x)
    r1 = w_x + x * w / sigma
    w1, mult1 = solver.solve(r1, parity="odd")
    res1 = np.max(np.abs(solver.apply(w1) + mult1 * w_x - r1)[1:-1])
    if res1 > 1e-8 * max(np.max(np.abs(r1)), 1e-300):
        raise ConvergenceError(
            f"w1 residual {res1:.3e}; bordered condition estimate {solver.condition_estimate():.2e}"
        )
    w1_x = fd_first_axis(w1, hx)

    w2 = -w / (p - 1.0) - 0.5 * x * w_x
    w2_x = -w_x / (p - 1.0) - 0.5 * w_x - 0.5 * x * w_xx

    # refined-grid discrete eigenvalue; meets the 1e-4 target at default sizes
    lam_fd = principal_eigenvalue_fd(p, x_max, 2 * n - 1)

    return ProfileSet(
        p=float(p),
        sigma=float(sigma),
        x=x,
        hx=float(hx),
        w=w,
        w_x=w_x,
        w_xx=w_xx,
        w1=w1,
        w1_x=w1_x,
        w2=w2,
        w2_x=w2_x,
        Z=Z,
        Z_x=Z_x,
        lambda0=float(lam0),
        lambda0_fd=float(lam_fd),
        rho1=rho1,
        rho2=rho2,
        int_w2=int_w2,
        int_wp1=int_wp1,
        solver=solver,
    )


_SCALARS = ("p", "sigma", "lambda0", "lambda0_fd", "rho1", "rho2", "int_w2", "int_wp1", "hx")
_COLUMNS = ("x", "w", "w_x", "w1", "w2", "Z")


def save_profiles(ps, path):
    """Columnar text table (x, w, w_x, w1, w2, Z) with a scalar header."""
    header_lines = [f"{name} = {getattr(ps, name):.17e}" for name in _SCALARS]
    header_lines.append(" ".join(_COLUMNS))
    data = np.column_stack([getattr(ps, name) for name in _COLUMNS])
    write_table(path, data, header="\n".join(header_lines))
