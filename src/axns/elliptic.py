"""Stream-function solve: -lap3(psi1) = om1, in the grid's mode basis.

Direct method: a real FFT along the periodic z direction diagonalizes the
axial differences, so mode k leaves M_k = B + mu_k I with
mu_k = (2 - 2 cos(2 pi k / nz)) / dz^2 and B = -L_r the tridiagonal of
grid.radial_bands, the coefficients modified_laplacian applies; the
centered d/dz acts on mode k as i s_k, s_k = sin(2 pi k / nz) / dz.
Every mode shares B, so one eigendecomposition per grid diagonalizes all
of them (the matrix decomposition method of Lynch, Rice and Thomas 1964).
grid.modes, a ModeBasis built on first use and freed with the grid, holds
mu_k, s_k and that eigendecomposition for every caller.  diag(w) B is
symmetric for the r^3 measure w = grid.radial_weights: -lap3 is symmetric
on rows 1.. in the measure 2 pi w dr dz, and w_0 = 0 is the algebraic form
of sub[1] = 0.  On rows 1.., D = diag(sqrt(w / w_1)) makes S = D B D^-1
symmetric, and B = V diag(lam) V^-1 with V = D^-1 Q, V^-1 = Q^T D from
S = Q lam Q^T.  w / w_1 does not change under r -> r / 2^m, so the whole
solve scales exactly with the cylinder (sqrt(w) would pick up 2^(-3m/2)).
eigh's smallest lam carry an absolute error of about eps |S|, so the build
refines every pair once in np.longdouble: one inverse-iteration sweep and
a Rayleigh quotient.  A solve is one rfft into a per-grid buffer read as
real (nr, 2 modes), x[1:] = V (G * (V^-1 x[1:])) with G = 1 / (lam_i +
mu_k), x[0] = (x[0] + sup[0] x[1]) / (mu_k - diag[0]), and one irfft into
a fresh array.  The buffer makes a solve non-reentrant per grid.  The
buffers and the result come from grid.empty, 64-byte aligned.

Results agree with a Thomas sweep to within 7.3e-14 of its max norm up to
160 rows, 1.2e-13 at 256^2 and 3.3e-13 at 512 x 16, not bit for bit; the
error grows with nr because D grows like r^(3/2).  Where np.longdouble is
float64 (Windows, macOS arm64) the refinement runs in float64, and the
worst agreement up to 160 rows rises to about 1.1e-13.

M_k has positive diagonal and nonpositive off-diagonals, and the Dirichlet
wall row makes it irreducibly diagonally dominant, so it is an M-matrix:
the solve is unconditionally well posed, and nonnegative om1 yields
nonnegative psi1.  Its block B[1:, 1:] is one too, so every lam_i + mu_k
and mu_k - diag[0] is positive; the build checks that.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    EVEN,
    Grid,
    ScalarField,
    empty,
    modified_laplacian,
    norm_l2,
)


def _refine(dia: np.ndarray, off: np.ndarray, lam: np.ndarray, q: np.ndarray):
    """Every eigenpair (lam[j], q[:, j]) of the symmetric tridiagonal with
    diagonal dia and off-diagonal off, refined at once in the bands' dtype:
    one Thomas sweep of (T - lam[j] I) y = q[:, j], then the Rayleigh
    quotient of y / |y|."""
    y, p = q.astype(dia.dtype), np.empty((dia.size, lam.size), dia.dtype)
    p[0] = dia[0] - lam
    for i in range(1, dia.size):
        w = off[i - 1] / p[i - 1]
        p[i] = dia[i] - lam - w * off[i - 1]
        y[i] -= w * y[i - 1]
    tol = np.finfo(dia.dtype).eps * np.max(np.abs(dia))
    p[np.abs(p) < tol] = tol  # lam[j] is exact to working precision
    y[-1] /= p[-1]
    for i in range(dia.size - 2, -1, -1):
        y[i] = (y[i] - off[i] * y[i + 1]) / p[i]
    y /= np.sqrt(np.sum(y * y, axis=0))
    ty = dia[:, None] * y
    ty[1:] += off[:, None] * y[:-1]
    ty[:-1] += off[:, None] * y[1:]
    return np.sum(y * ty, axis=0), y


class ModeBasis:
    """Per-grid mode basis of lap3, built through grid.modes: per rfft mode
    k the symbols mu[k] and s[k]; the eigenpairs lam (float64), v = V and
    vi = V^-1 of B[1:, 1:]; the solve's diagonal g, row-0 terms top and
    sup0, and its rfft buffer.  It keeps no reference to its grid."""

    def __init__(self, grid: Grid):
        sub, diag, sup = grid.radial_bands
        theta = 2.0 * np.pi * np.arange(grid.nz // 2 + 1) / grid.nz
        self.mu = mu = (2.0 - 2.0 * np.cos(theta)) / (grid.dz * grid.dz)
        self.s = np.sin(theta) / grid.dz
        ld, f8 = np.longdouble, np.float64
        w = grid.radial_weights.astype(ld)
        d = np.sqrt(w[1:] / w[1])  # S = D B D^-1, D = diag(d); w / w_1 is scale-free
        dia, off = -diag[1:].astype(ld), -np.sqrt(sup[1:-1].astype(ld) * sub[2:])
        s = np.diag(dia.astype(f8)) + np.diag(off.astype(f8), 1)
        lam, q = _refine(dia, off, *np.linalg.eigh(s, UPLO="U"))
        self.lam = lam.astype(f8)
        self.v, self.vi = (q / d[:, None]).astype(f8), (q.T * d).astype(f8)
        shifted, top = self.lam[:, None] + mu, mu - diag[0]
        if not (np.all(shifted > 0.0) and np.all(top > 0.0)):
            raise RuntimeError("stream solver lost positivity")
        self.g = np.repeat(1.0 / shifted, 2, axis=1)  # one value per real column
        self.top, self.sup0, self.shape = np.repeat(top, 2), sup[0], (grid.nr, grid.nz)
        self.buffer = empty((grid.nr, mu.size), np.complex128)
        self.tmp = empty((grid.nr - 1, 2 * mu.size))

    def solve(self, rhs_values: np.ndarray) -> np.ndarray:
        np.fft.rfft(rhs_values, axis=1, out=self.buffer)
        x = self.buffer.view(np.float64)  # (nr, 2 modes): Re and Im of each
        y = np.matmul(self.vi, x[1:], out=self.tmp)
        np.multiply(y, self.g, out=y)
        np.matmul(self.v, y, out=x[1:])
        np.add(x[0], np.multiply(x[1], self.sup0, out=y[0]), out=x[0])
        np.divide(x[0], self.top, out=x[0])
        return np.fft.irfft(self.buffer, n=self.shape[1], axis=1, out=empty(self.shape))


def solve_stream(omega1: ScalarField) -> ScalarField:
    """Solve -lap3(psi1) = om1 with even axis parity and psi1(R) = 0."""
    if omega1.parity != EVEN:
        raise ValueError("solve_stream expects an even-parity source")
    if not np.all(np.isfinite(omega1.values)):
        raise ValueError("solve_stream: source contains non-finite values")
    psi = omega1.grid.modes.solve(omega1.values)
    return ScalarField(omega1.grid, psi, EVEN)


def stream_residual(psi1: ScalarField, omega1: ScalarField) -> float:
    """L2 volume norm of om1 + lap3(psi1)."""
    if psi1.grid is not omega1.grid:
        raise ValueError("stream_residual: fields live on different grids")
    res = omega1.values + modified_laplacian(psi1).values
    return norm_l2(ScalarField(psi1.grid, res, EVEN))
