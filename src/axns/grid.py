"""Truncated cylindrical mesh, volume quadrature and difference stencils.

The mesh covers the cylinder r in (0, R], z in [0, Lz) with cell-centered
radial nodes

    r_i = (i + 1/2) dr,   i = 0 .. nr-1,   dr = R / nr,

so the axis r = 0 carries no node, and equispaced axial nodes z_j = j dz,
dz = Lz / nz, treated as periodic.  The volume weight of node (i, j) is
2 pi r_i dr dz; the weights sum to pi R^2 Lz exactly.

Every sampled field declares a parity ("even" or "odd") describing its
reflection through the axis.  Radial stencils use the parity to supply the
ghost value at r = -dr/2:

    even:  f(-dr/2) = +f(dr/2)        odd:  f(-dr/2) = -f(dr/2)

At the outer wall r = R all differentiated fields are taken to vanish; the
ghost at R + dr/2 is the linear extrapolation through zero at the wall,
f(R + dr/2) = -f(R - dr/2).  Fields that do not really vanish at the wall
therefore pick up an O(1) stencil error in the last ring only; everything
evolved by the solver is wall-Dirichlet so this never matters in practice.

The scalar operator used throughout,

    lap3(f) = f_rr + (3/r) f_r + f_zz,

is the five-dimensional Laplacian acting on r-weighted axisymmetric
quantities; it is what appears in the diffusion of all three reduced
fields and in the stream-function equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EVEN = "even"
ODD = "odd"

_PARITIES = (EVEN, ODD)


@dataclass(frozen=True)
class GridSpec:
    """Mesh parameters: outer radius, axial period, radial and axial counts."""

    R: float
    Lz: float
    nr: int
    nz: int


@dataclass(eq=False)
class Grid:
    """Realized mesh. Compare by identity; built via make_grid."""

    spec: GridSpec
    r: np.ndarray
    z: np.ndarray
    dr: float
    dz: float
    quad_w: np.ndarray  # per-node volume weight 2 pi r_i dr dz, shape (nr,)

    @property
    def nr(self) -> int:
        return self.spec.nr

    @property
    def nz(self) -> int:
        return self.spec.nz


def make_grid(spec: GridSpec) -> Grid:
    """Validate a GridSpec and build the mesh."""
    if not (np.isfinite(spec.R) and spec.R > 0):
        raise ValueError(f"R must be a positive finite number, got {spec.R}")
    if not (np.isfinite(spec.Lz) and spec.Lz > 0):
        raise ValueError(f"Lz must be a positive finite number, got {spec.Lz}")
    if spec.nr < 4:
        raise ValueError(f"nr must be at least 4, got {spec.nr}")
    if spec.nz < 4 or spec.nz % 2 != 0:
        raise ValueError(f"nz must be even and at least 4, got {spec.nz}")
    dr = spec.R / spec.nr
    dz = spec.Lz / spec.nz
    r = (np.arange(spec.nr) + 0.5) * dr
    z = np.arange(spec.nz) * dz
    quad_w = 2.0 * np.pi * r * dr * dz
    return Grid(spec=spec, r=r, z=z, dr=dr, dz=dz, quad_w=quad_w)


@dataclass(eq=False)
class ScalarField:
    """Node values of one axisymmetric scalar with its declared parity."""

    grid: Grid
    values: np.ndarray
    parity: str

    def __post_init__(self) -> None:
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        # uniform layout so reductions sum in the same order on every path
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        expect = (self.grid.nr, self.grid.nz)
        if self.values.shape != expect:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expect}"
            )


def zeros_field(grid: Grid, parity: str = EVEN) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nr, grid.nz)), parity)


def field_from_function(grid: Grid, fn, parity: str) -> ScalarField:
    """Sample fn(r, z) on the mesh; fn must broadcast over (nr, 1) x (1, nz)."""
    vals = np.broadcast_to(
        fn(grid.r[:, None], grid.z[None, :]), (grid.nr, grid.nz)
    ).astype(np.float64)
    return ScalarField(grid, vals.copy(), parity)


def integrate_volume(f: ScalarField) -> float:
    """Quadrature of f over the cylinder: sum of values times 2 pi r dr dz."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("integrate_volume: field contains non-finite values")
    return float(np.sum(f.values * f.grid.quad_w[:, None]))


def norm_l2(f: ScalarField) -> float:
    """Volume L2 norm sqrt(int f^2 dx)."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("norm_l2: field contains non-finite values")
    return float(np.sqrt(np.sum(f.values * f.values * f.grid.quad_w[:, None])))


def _ghosted_r(values: np.ndarray, parity: str) -> tuple[np.ndarray, np.ndarray]:
    # axis ghost from parity, wall ghost from Dirichlet extrapolation
    lo = values[0] if parity == EVEN else -values[0]
    hi = -values[-1]
    return lo, hi


def d_dr(f: ScalarField) -> ScalarField:
    """Centered radial derivative. Flips parity (even <-> odd)."""
    v = f.values
    lo, hi = _ghosted_r(v, f.parity)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * f.grid.dr)
    out[0] = (v[1] - lo) / (2.0 * f.grid.dr)
    out[-1] = (hi - v[-2]) / (2.0 * f.grid.dr)
    return ScalarField(f.grid, out, ODD if f.parity == EVEN else EVEN)


def d_dz(f: ScalarField) -> ScalarField:
    """Centered axial derivative with periodic wraparound. Parity preserved."""
    v = f.values
    out = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * f.grid.dz)
    return ScalarField(f.grid, out, f.parity)


def d2_dz2_values(values: np.ndarray, dz: float) -> np.ndarray:
    return (
        np.roll(values, -1, axis=1) - 2.0 * values + np.roll(values, 1, axis=1)
    ) / (dz * dz)


def radial_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal coefficients (sub, diag, sup) of d^2/dr^2 + (3/r) d/dr on
    even-parity fields, with the axis ghost folded into diag[0] and the
    Dirichlet wall ghost folded into diag[-1].  Shared by the operator
    application and by the stream-function solver so that the two agree to
    the last bit.
    """
    inv2 = 1.0 / (grid.dr * grid.dr)
    s = 3.0 / (2.0 * grid.r * grid.dr)
    sub = inv2 - s
    sup = inv2 + s
    diag = np.full(grid.nr, -2.0 * inv2)
    diag[0] += sub[0]  # even ghost: f(-1) = f(0)
    diag[-1] -= sup[-1]  # wall ghost: f(nr) = -f(nr-1)
    sub = sub.copy()
    sup = sup.copy()
    sub[0] = 0.0
    sup[-1] = 0.0
    return sub, diag, sup


def apply_radial_bands(
    values: np.ndarray, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray
) -> np.ndarray:
    out = diag[:, None] * values
    out[1:] += sub[1:, None] * values[:-1]
    out[:-1] += sup[:-1, None] * values[1:]
    return out


def modified_laplacian(f: ScalarField) -> ScalarField:
    """lap3(f) = f_rr + (3/r) f_r + f_zz for even-parity fields."""
    if f.parity != EVEN:
        raise ValueError("modified_laplacian is defined for even-parity fields only")
    sub, diag, sup = radial_bands(f.grid)
    out = apply_radial_bands(f.values, sub, diag, sup)
    out += d2_dz2_values(f.values, f.grid.dz)
    return ScalarField(f.grid, out, EVEN)
