"""Linear layer problems on the strip R x (0, L) via the x-eigenbasis.

The cross-section operator is either d_xx - 1 + p w^(p-1) (the translated
basis, carrying the positive resonance mode and the translation zero mode)
or d_xx - Ktilde + p w^(p-1) (the massive basis, negative definite for large
Ktilde). The two differ by a constant, so one eigendecomposition serves
both. For Neumann data on the two ends, every mode reduces to a two-point
ODE c'' + mu c = 0 with c'(0), c'(L) prescribed, solved in closed form with
overflow-safe cosh/sinh ratios.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .profiles import ground_state
from .util import fd_first_axis

__all__ = ["StripBasis", "StripLayer", "build_strip_basis", "solve_strip_layer", "StripDataError"]


class StripDataError(RuntimeError):
    """Boundary data excites a non-decaying mode or is badly truncated."""


@dataclass
class StripBasis:
    """Discrete eigenbasis of the cross-section operator on [-X, X].

    The operator is d_xx - shift + p w^(p-1): shift 1 for the translated
    basis, the mass k_tilde for the massive one, which shares the
    eigenvectors E with every eigenvalue moved by 1 - k_tilde (see massive).
    """

    p: float
    shift: float
    x: np.ndarray
    hx: float
    w: np.ndarray
    mu: np.ndarray
    E: np.ndarray  # (nx, nmodes), discrete-L2 orthonormal, zero at the ends
    idx_resonant: int | None
    idx_zero: np.ndarray

    def project(self, data):
        return self.hx * (self.E.T @ np.asarray(data, dtype=float))

    @property
    def layer_modes(self):
        """Mask of the modes a layer carries: all but the resonant and zero modes."""
        mask = np.ones(self.mu.size, dtype=bool)
        mask[self.idx_zero] = False
        if self.idx_resonant is not None:
            mask[self.idx_resonant] = False
        return mask

    def massive(self, k_tilde):
        """The massive basis of mass k_tilde on the same eigenvectors E (not a copy)."""
        mu = self.mu - (float(k_tilde) - self.shift)
        if np.any(mu > -1e-8):
            raise RuntimeError("massive basis is not negative definite; raise k_tilde")
        return replace(self, shift=float(k_tilde), mu=mu, idx_resonant=None, idx_zero=np.array([], dtype=int))


def build_strip_basis(p, x):
    """The translated basis (shift 1); its massive shift is StripBasis.massive."""
    x = np.asarray(x, dtype=float)
    hx = x[1] - x[0]
    w = ground_state(p, x)[0]
    diag = -2.0 / hx**2 - 1.0 + p * w[1:-1] ** (p - 1.0)
    off = np.full(x.size - 3, 1.0 / hx**2)
    mu, u = sla.eigh_tridiagonal(diag, off)
    e = np.zeros((x.size, mu.size))
    e[1:-1] = u / np.sqrt(hx)

    # spectrum: single positive mode near lambda0, the translation mode at
    # zero up to O(hx^2), then a gap down to the continuum band below -1
    lam0 = 0.25 * (p - 1.0) * (p + 3.0)
    idx_res = int(np.argmax(mu))
    if abs(mu[idx_res] - lam0) > 0.05 * max(lam0, 1.0):
        raise RuntimeError(f"resonant mode eigenvalue {mu[idx_res]:.4f} far from {lam0:.4f}")
    idx_zero = np.where(np.abs(mu) <= 0.1)[0]
    others = np.setdiff1d(np.arange(mu.size), np.append(idx_zero, idx_res))
    if np.any(mu[others] > -0.5):
        raise RuntimeError("unexpected cross-section mode in the spectral gap")
    return StripBasis(p=float(p), shift=1.0, x=x, hx=float(hx), w=w, mu=mu, E=e, idx_resonant=idx_res, idx_zero=idx_zero)


# A mode's term is kept only where its exponential is at least 2^-64 (nu times
# the distance to the end carrying it at most _CUTOFF): a dropped term is below
# 2^-64 of its end amplitude, and all of them together stay under about 1e-17
# of the layer's scale.
_CUTOFF = 64.0 * np.log(2.0)
# points of z per block of the mode tables and syntheses: each block evaluates
# only the modes live in it (16 keeps the end blocks, where every mode is live,
# a small share of the grid)
_Z_BLOCK = 16


@dataclass
class StripLayer:
    """Closed-form modal solution of the strip problem with Neumann data.

    The evaluators synthesize only the points they are given, and the layer
    keeps the syntheses of its last call alone (see _syntheses).
    """

    basis: StripBasis
    L: float
    d0: np.ndarray
    d1: np.ndarray
    active: np.ndarray

    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the active modes are the first columns of E (the translated basis drops
        # its two largest eigenvalues, the massive one none), and mu ascends, so
        # nu = sqrt(-mu) descends along the table rows
        n = int(np.count_nonzero(self.active))
        if not self.active[:n].all():
            raise ValueError("the active modes must be the first columns of the basis")
        self.nu = np.sqrt(np.abs(self.basis.mu[:n]))
        # the amplitudes P, Q of each mode's two exponentials (see _block_coefs)
        nu = self.nu[:, None]
        q = np.exp(-nu * self.L)
        scale = 1.0 / (-np.expm1(-2.0 * nu * self.L) * nu)
        d0, d1 = self.d0[:n, None], self.d1[:n, None]
        self._P, self._Q = (d1 - d0 * q) * scale, (d1 * q - d0) * scale

    def _first_live(self, z):
        """Per point of z, the first table row live there: the rows from it on
        are the modes with nu min(z, L - z) <= _CUTOFF."""
        reach = np.clip(np.minimum(z, self.L - z), 0.0, None)
        with np.errstate(divide="ignore"):
            live = np.searchsorted(self.nu[::-1], _CUTOFF / reach, side="right")
        return self.nu.size - live

    def blocks(self, z):
        """(cols, first) for each block of _Z_BLOCK points of z: the table rows
        first: are the modes live somewhere in the block, the others are zero
        there (first is the number of rows in a block where none is live)."""
        first = self._first_live(z)
        return [(slice(s, s + _Z_BLOCK), int(first[s : s + _Z_BLOCK].min())) for s in range(0, z.size, _Z_BLOCK)]

    def is_zero(self, z):
        """Whether the layer is identically zero at the points z."""
        return bool(np.all(self._first_live(np.atleast_1d(np.asarray(z, dtype=float))) == self.nu.size))

    def _block_coefs(self, z, first):
        """Mode coefficients c and c' at the points z of one block over the
        live table rows first: (see blocks).

        Every active mode has mu < 0: solve_strip_layer drops or refuses the
        resonant and zero modes of the translated basis, and the massive basis
        is negative definite. With nu = sqrt(-mu) and q = exp(-nu L) each mode
        is c = [d1 cosh(nu z) - d0 cosh(nu (L - z))] / (nu sinh(nu L)), that is
        c = P exp(-nu (L - z)) + Q exp(-nu z) and c' = nu (P exp(-nu (L - z)) -
        Q exp(-nu z)) with P, Q = (d1 - d0 q, d1 q - d0) / (nu (1 - q^2)): two
        exponentials per entry, neither argument positive on [0, L]. Each is
        kept only where its argument is at least -_CUTOFF; every other entry
        is an exact zero.
        """
        nu = self.nu[first:, None]
        arg = -nu * np.stack((self.L - z, z))[:, None, :]
        far, near = np.exp(arg, out=np.zeros_like(arg), where=arg >= -_CUTOFF)
        far, near = self._P[first:] * far, self._Q[first:] * near
        return far + near, nu * (far - near)

    def _coefs(self, z):
        """Mode coefficient tables c and c' at points z, formed in one pass
        over the blocks and not kept."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        n = self.nu.size
        c, cp = np.zeros((n, z.size)), np.zeros((n, z.size))
        for cols, first in self.blocks(z):
            if first < n:
                c[first:, cols], cp[first:, cols] = self._block_coefs(z[cols], first)
        return c, cp

    def _syntheses(self, z):
        """Read-only syntheses v = E c, v_z = E c' and m = E (mu c) at the points z.

        Each block of z where a mode is live (see blocks) forms c and c' over
        its live rows, multiplies and drops them; the other columns are exact
        zeros. Only the last call is kept, keyed by a copy of its z: the
        evaluators are called in a row at the same points. The six evaluators
        follow from these three: E_x = fd_first_axis(E) and that map is linear
        along x, and E_xx = (shift + mu) E - p w^(p-1) E column by column.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self._last is None or not np.array_equal(self._last[0], z):
            n = self.nu.size
            mu = self.basis.mu[:n, None]
            v, vz, m = (np.zeros((self.basis.x.size, z.size)) for _ in range(3))
            for cols, first in self.blocks(z):
                if first < n:
                    c, cp = self._block_coefs(z[cols], first)
                    e = self.basis.E[:, first:n]
                    v[:, cols], vz[:, cols], m[:, cols] = e @ c, e @ cp, e @ (mu[first:] * c)
            for arr in (v, vz, m):
                arr.flags.writeable = False
            self._last = (z.copy(), (v, vz, m))
        return self._last[1]

    # The six evaluators return their field at points z, each point from the
    # product of its own _Z_BLOCK block: a caller that walks z in blocks
    # aligned to _Z_BLOCK gets the bits of one pass over all of z.

    def value(self, z):
        return self._syntheses(z)[0].copy()

    def dx(self, z):
        return fd_first_axis(self._syntheses(z)[0], self.basis.hx)

    def dxx(self, z):
        b = self.basis
        v, _, m = self._syntheses(z)
        return (b.shift - b.p * b.w ** (b.p - 1.0))[:, None] * v + m

    def dz(self, z):
        return self._syntheses(z)[1].copy()

    def dxz(self, z):
        return fd_first_axis(self._syntheses(z)[1], self.basis.hx)

    def dzz(self, z):
        return -self._syntheses(z)[2]

    def pde_residual(self, z):
        """Residual of the discrete-x PDE at interior points z (machine-level)."""
        v = self.value(z)
        vzz = self.dzz(z)
        hx = self.basis.hx
        lap_x = np.zeros_like(v)
        lap_x[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / hx**2
        res = lap_x + vzz - self.basis.shift * v + self.basis.p * self.basis.w[:, None] ** (self.basis.p - 1.0) * v
        return res[1:-1]

    def boundary_mismatch(self, data0, data1):
        """Sup deviation of d_z at the two ends from the given data."""
        low = np.max(np.abs(self.dz(0.0)[:, 0] - data0))
        high = np.max(np.abs(self.dz(self.L)[:, 0] - data1))
        return max(low, high)

    def decay_rate(self, z_frac=0.5, x_window=(6.0, 12.0)):
        """Fitted exponential decay rate of |v| in x at mid-strip."""
        z = z_frac * self.L
        v = np.abs(self.value(z)[:, 0])
        x = self.basis.x
        sel = (x >= x_window[0]) & (x <= x_window[1]) & (v > 1e-300)
        if np.sum(sel) < 4:
            return np.nan
        coef = np.polyfit(x[sel], np.log(v[sel]), 1)
        return float(-coef[0])


def solve_strip_layer(basis, data0, data1, L, drop_tol=1e-6):
    """Solve the strip problem for Neumann data (data0 at z=0, data1 at z=L).

    Translated basis: the resonance mode (positive eigenvalue) and the
    translation mode (zero eigenvalue) must not be excited; their data
    projections are checked against drop_tol relative to the data norm and
    the offending magnitudes are reported on refusal. The data's end values
    must be below 1e-4 of its norm.
    """
    data0 = np.asarray(data0, dtype=float)
    data1 = np.asarray(data1, dtype=float)
    d0 = basis.project(data0)
    d1 = basis.project(data1)
    scale = max(np.sqrt(basis.hx) * max(np.linalg.norm(data0), np.linalg.norm(data1)), 1e-300)

    active = basis.layer_modes
    for idx in np.flatnonzero(~active):
        proj = max(abs(d0[idx]), abs(d1[idx]))
        label = "resonant" if idx == basis.idx_resonant else "zero"
        if proj > drop_tol * scale:
            raise StripDataError(
                f"data excites the {label} cross-section mode: |projection| = {proj:.3e} "
                f"(tolerance {drop_tol * scale:.3e})"
            )
    tail = max(np.max(np.abs(data0[[0, -1]])), np.max(np.abs(data1[[0, -1]])))
    if tail > 1e-4 * scale:
        raise StripDataError(f"boundary data not decayed at |x| = {basis.x[-1]}: {tail:.3e}")
    return StripLayer(basis=basis, L=float(L), d0=d0, d1=d1, active=active)
