"""Stream-function solve: -lap3(psi1) = om1.

Direct method: a real FFT along the periodic z direction diagonalizes the
axial second difference (eigenvalue -(2 - 2 cos(2 pi k / nz)) / dz^2), and
each mode leaves a real tridiagonal system in r built from the same
grid.radial_bands coefficients that modified_laplacian applies.  All modes
are solved together by cyclic reduction (Hockney 1965; Buzbee, Golub and
Nielson 1970): ceil(log2 nr) levels, each eliminating every other active
row into its neighbours, then the same levels in reverse for the back
substitution.  Each level is nine numpy calls on strided row views of one
per-grid rfft buffer, read in place as real (nr, 2 modes).  The buffer, the
views and every level's coefficients (the reciprocal reduced pivots and
the neighbour multipliers) depend only on the grid, so they are built once
per grid; a solve is one rfft into the buffer, the two passes, and one
irfft that returns a fresh array.  The buffer makes a solve non-reentrant
per grid.  Results agree with a Thomas sweep to roundoff (about 1e-15
relative), not bit for bit.

The per-mode matrix  M_k = -(radial part) + mu_k I  has positive diagonal
and nonpositive off-diagonals, and the Dirichlet wall row makes it
irreducibly diagonally dominant, so it is an M-matrix: the solve is
unconditionally well posed, and nonnegative om1 yields nonnegative psi1.
Each reduction level is a Schur complement, which keeps the M-matrix
property, so every reduced pivot is positive; the build checks that.
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


def mode_rows(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] of M_k = -(L_r) + mu_k I:
    fresh (nr, nz // 2 + 1) arrays, one column per rfft mode k."""
    sub, diag, sup = grid.radial_bands
    k = np.arange(grid.nz // 2 + 1)
    mu = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / grid.nz)) / (grid.dz * grid.dz)
    b = -diag[:, None] + mu[None, :]
    a = np.broadcast_to(-sub[:, None], b.shape).copy()
    c = np.broadcast_to(-sup[:, None], b.shape).copy()
    return a, b, c


class _StreamFactor:
    """Per-grid cyclic-reduction coefficients, row views and rfft buffer."""

    def __init__(self, grid: Grid):
        a, b, c = mode_rows(grid)
        self.nz = grid.nz
        self.buffer = np.empty(b.shape, dtype=np.complex128)
        x = self.buffer.view(np.float64)  # (nr, 2 modes): Re and Im of each
        tmp = np.empty(((grid.nr + 1) // 2, x.shape[1]))

        def twice(v: np.ndarray) -> np.ndarray:
            return np.repeat(v, 2, axis=1)  # one value per real column

        # At stride s the active rows are the multiples of s; those at odd
        # multiples (e) are eliminated into their even-multiple neighbours
        # (kept), which then form the system at stride 2s.  An eliminated row's
        # coefficients are never touched again, so b ends up holding every
        # reduced pivot and the back pass reads each row at its own level.
        self.forward, self.back = [], []
        s, m = 1, grid.nr
        while m > 1:
            ne, nk = m // 2, (m + 1) // 2
            e, kept = slice(s, None, 2 * s), slice(0, None, 2 * s)
            ae, be, ce = a[e], b[e], c[e]
            ak, bk, ck = a[kept], b[kept], c[kept]
            xe, xk = x[e], x[kept]
            # kept row t has right neighbour e[t] (t < ne) and left e[t-1]
            right, left, has_right = slice(0, ne), slice(1, nk), slice(0, nk - 1)
            alpha, beta = ae / be, ce / be
            self.forward.append((
                xe, twice(1.0 / be),
                xk[right], twice(ck[right]), tmp[right],
                xk[left], twice(ak[left]), xe[has_right], tmp[has_right],
            ))
            self.back.append((
                xe, twice(alpha), xk[right], tmp[right],
                xe[has_right], twice(beta[has_right]), xk[left], tmp[has_right],
            ))
            bk[right] -= ck[right] * alpha
            bk[left] -= ak[left] * beta[has_right]
            ck[right] *= -beta
            ak[left] *= -alpha[has_right]
            s, m = 2 * s, nk
        self.back.reverse()
        # Schur complements of an M-matrix are M-matrices
        if not np.all(b > 0.0):
            raise RuntimeError("stream solver reduction lost positivity")
        self.top = (x[0], twice(1.0 / b[:1])[0])

    def solve(self, rhs_values: np.ndarray) -> np.ndarray:
        np.fft.rfft(rhs_values, axis=1, out=self.buffer)
        mul, sub = np.multiply, np.subtract
        for xe, inv_b, xk_r, ck, t_r, xk_l, ak, xe_l, t_l in self.forward:
            mul(xe, inv_b, out=xe)
            sub(xk_r, mul(ck, xe, out=t_r), out=xk_r)
            sub(xk_l, mul(ak, xe_l, out=t_l), out=xk_l)
        x0, inv_b0 = self.top
        mul(x0, inv_b0, out=x0)
        for xe, alpha, xk_r, t_r, xe_l, beta, xk_l, t_l in self.back:
            sub(xe, mul(alpha, xk_r, out=t_r), out=xe)
            sub(xe_l, mul(beta, xk_l, out=t_l), out=xe_l)
        return np.fft.irfft(self.buffer, n=self.nz, axis=1)


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
