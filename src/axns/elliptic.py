"""Stream-function solve: -lap3(psi1) = om1.

Direct method: a real FFT along the periodic z direction diagonalizes the
axial second difference (eigenvalue -(2 - 2 cos(2 pi k / nz)) / dz^2), and
each mode leaves a real tridiagonal system in r built from the same
grid.radial_bands coefficients that modified_laplacian applies.  The
factorizations depend only on the grid, so they are computed once per grid
and reused; each solve is then one rfft, a forward/backward substitution
down the rows of its C-contiguous (nr, modes) output, read in place as real
(nr, 2 modes), and one irfft.  Pivots are stored as reciprocals: numpy's
complex-by-real division (a + ib) / d also multiplies by 1/d, bit for bit.

The per-mode matrix  M_k = -(radial part) + mu_k I  has positive diagonal
and nonpositive off-diagonals, and the Dirichlet wall row makes it
irreducibly diagonally dominant, so it is an M-matrix: the solve is
unconditionally well posed, all pivots are positive, and nonnegative om1
yields nonnegative psi1.
"""

from __future__ import annotations

import weakref

import numpy as np

from .grid import (
    EVEN,
    Grid,
    ScalarField,
    modified_laplacian,
    norm_l2,
)


class _StreamFactor:
    """Per-grid factorization of the mode-wise tridiagonal systems."""

    def __init__(self, grid: Grid):
        nr, nz = grid.nr, grid.nz
        sub, diag, sup = grid.radial_bands
        k = np.arange(nz // 2 + 1)
        mu = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / nz)) / (grid.dz * grid.dz)
        # M_k = -(L_r) + mu_k I
        a = -sub
        c = -sup
        b = -diag[None, :] + mu[:, None]
        nm = mu.size
        d = np.empty((nm, nr))
        w = np.zeros((nm, nr))
        d[:, 0] = b[:, 0]
        for i in range(1, nr):
            w[:, i] = a[i] / d[:, i - 1]
            d[:, i] = b[:, i] - w[:, i] * c[i - 1]
        if not np.all(d > 0.0):
            raise RuntimeError("stream solver factorization lost positivity")
        # per row of the real (nr, 2 modes) view: each coefficient twice, for
        # Re and Im, kept as row views because the sweep walks row by row
        self.nz = nz
        self.c = [float(v) for v in c]
        self.w = list(np.repeat(w.T, 2, axis=1))
        self.inv_d = list(np.repeat((1.0 / d).T, 2, axis=1))

    def solve(self, rhs_values: np.ndarray) -> np.ndarray:
        g = np.fft.rfft(rhs_values, axis=1)  # (nr, modes), C-contiguous
        x = list(g.view(np.float64))
        w, c, inv_d = self.w, self.c, self.inv_d
        tmp = np.empty_like(x[0])
        for i in range(1, len(x)):
            np.subtract(x[i], np.multiply(w[i], x[i - 1], out=tmp), out=x[i])
        np.multiply(x[-1], inv_d[-1], out=x[-1])
        for i in range(len(x) - 2, -1, -1):
            np.subtract(x[i], np.multiply(x[i + 1], c[i], out=tmp), out=x[i])
            np.multiply(x[i], inv_d[i], out=x[i])
        return np.fft.irfft(g, n=self.nz, axis=1)


_factors: "weakref.WeakKeyDictionary[Grid, _StreamFactor]" = weakref.WeakKeyDictionary()


def _factor_for(grid: Grid) -> _StreamFactor:
    fac = _factors.get(grid)
    if fac is None:
        fac = _StreamFactor(grid)
        _factors[grid] = fac
    return fac


def solve_stream(omega1: ScalarField) -> ScalarField:
    """Solve -lap3(psi1) = om1 with even axis parity and psi1(R) = 0."""
    if omega1.parity != EVEN:
        raise ValueError("solve_stream expects an even-parity source")
    if not np.all(np.isfinite(omega1.values)):
        raise ValueError("solve_stream: source contains non-finite values")
    psi = _factor_for(omega1.grid).solve(omega1.values)
    return ScalarField(omega1.grid, psi, EVEN)


def stream_residual(psi1: ScalarField, omega1: ScalarField) -> float:
    """L2 volume norm of om1 + lap3(psi1)."""
    if psi1.grid is not omega1.grid:
        raise ValueError("stream_residual: fields live on different grids")
    res = omega1.values + modified_laplacian(psi1).values
    return norm_l2(ScalarField(psi1.grid, res, EVEN))
