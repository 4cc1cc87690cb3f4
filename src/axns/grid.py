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

The array stencils (d_dr_values, d_dz_values, d2_dz2_values, lap3_values)
take raw node values and write into an optional C-contiguous (nr, nz)
out= array; the ScalarField wrappers (d_dr, d_dz, modified_laplacian)
always return fresh arrays.  Every full-size array the hot paths stream,
fresh or reused, comes from empty(), whose data starts on a 64-byte
boundary, and so does every initial state (field_from_function and
zeros_field).  numpy's own buffers are only 16-byte aligned, at 0, 16, 32
or 48 mod 64 as the heap lays them out, and a misaligned 128^2 multiply
ran 1.8-2.2x slower than an aligned one, so a kernel's speed followed the
process's heap layout.  Results do not depend on the offset, only speed.
Each Grid carries one Workspace (grid.work): scratch (nr, nz) arrays and
read-only full-size copies of the per-grid constants the array kernels
multiply by, built on first use and freed with the grid.  The workspace is
non-reentrant per grid, and no value lives in it across calls: whatever a
kernel leaves there is overwritten by the next kernel call on that grid.
Volume integrals sum along z first (ring_sums), then weight each ring in r.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EVEN = "even"
ODD = "odd"

_PARITIES = (EVEN, ODD)

ALIGN = 64  # bytes: one cache line, and the widest SIMD load


def empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized C-contiguous array whose data starts on an ALIGN-byte
    boundary: over-allocate by ALIGN bytes and slice.  The address comes
    from ctypes.addressof, which costs a third of raw.ctypes.data; the hot
    paths call this several times per step and per snapshot."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + ALIGN, np.uint8)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % ALIGN
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def check_count(name: str, value, least: int) -> None:
    # numpy integers are Integral; so is bool, which no count accepts
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Mesh parameters: outer radius, axial period, radial and axial counts.
    Checked when built, so every GridSpec names a valid cylinder."""

    R: float
    Lz: float
    nr: int
    nz: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError(f"R must be a positive finite number, got {self.R}")
        if not (np.isfinite(self.Lz) and self.Lz > 0):
            raise ValueError(f"Lz must be a positive finite number, got {self.Lz}")
        check_count("nr", self.nr, 4)
        check_count("nz", self.nz, 4)
        if self.nz % 2 != 0:
            raise ValueError(f"nz must be even, got {self.nz}")


@dataclass(eq=False)
class Grid:
    """Realized mesh. Compare by identity; built via make_grid.  Its three
    per-grid caches, built on first use and freed with the grid, are
    radial_bands, work (a Workspace) and modes (an elliptic.ModeBasis)."""

    spec: GridSpec
    r: np.ndarray
    z: np.ndarray
    dr: float
    dz: float
    quad_w: np.ndarray  # per-node volume weight 2 pi r_i dr dz, shape (nr,)

    @cached_property
    def radial_bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tridiagonal coefficients (sub, diag, sup) of d^2/dr^2 + (3/r) d/dr
        on even-parity fields, with the axis ghost folded into diag[0] and
        the Dirichlet wall ghost folded into diag[-1].  sub[1] = 1/dr^2 -
        3/(2 r_1 dr) with r_1 = 1.5 dr is exactly 0 (rounding can leave one
        ulp), so it is written as 0 and row 1 does not see row 0 (w_0 = 0 of
        radial_weights is its algebraic form).  Built on first use, shared
        read-only by lap3 and the stream solver so the two agree to the bit.
        """
        inv2 = 1.0 / (self.dr * self.dr)
        s = 3.0 / (2.0 * self.r * self.dr)
        sub = inv2 - s
        sup = inv2 + s
        diag = np.full(self.nr, -2.0 * inv2)
        diag[0] += sub[0]  # even ghost: f(-1) = f(0)
        diag[-1] -= sup[-1]  # wall ghost: f(nr) = -f(nr-1)
        sub[:2] = 0.0
        sup[-1] = 0.0
        for band in (sub, diag, sup):
            band.flags.writeable = False
        return sub, diag, sup

    @property
    def radial_weights(self) -> np.ndarray:
        """w_i = r_{i-1/2} r_i r_{i+1/2}, the r^3 measure: diag(w) (-L_r) is symmetric."""
        return self.r * (self.r * self.r - 0.25 * self.dr * self.dr)

    @cached_property
    def work(self) -> "Workspace":
        """Scratch arrays and constants of the array kernels; see Workspace."""
        return Workspace(self)

    @cached_property
    def modes(self) -> "ModeBasis":
        """Axial symbols and radial eigenbasis of lap3; see elliptic.ModeBasis."""
        from .elliptic import ModeBasis  # elliptic imports this module
        return ModeBasis(self)

    @property
    def nr(self) -> int:
        return self.spec.nr

    @property
    def nz(self) -> int:
        return self.spec.nz


class Workspace:
    """Per-grid scratch (nr, nz) float64 arrays and the constants the array
    kernels would otherwise rebuild on every call.

    The buffers are grouped by the code that writes them, so that a caller
    never hands a helper a buffer the helper overwrites:

        leaf    two temporaries of the leaf kernels (lap3_values and the
                diagnostics integrands); a leaf kernel calls no other
                kernel that uses the workspace
        kernel  intermediates and results of dynamics.rhs, of
                dynamics.stable_dt or of diagnostics.instantaneous
                (no two of them nest)
        stage   the stage arrays of dynamics.step, which calls rhs

    Non-reentrant: a kernel may overwrite any buffer of its group, and no
    value lives here across calls.

    Every buffer and constant comes from empty(), so its data starts on a
    64-byte boundary.  The stage pair stays here rather than being
    allocated per step.  A 128^2 float64 array is exactly glibc's 128 KiB
    mmap threshold, so whether a fresh one is mapped and faulted in anew
    depends on the allocator's history.  Allocated per step, the pair
    measured +5 to +12% mms_forced_128 solve_s and up to 11,741 against
    1,244 minor faults per call; a warm in-process loop of the same run saw
    about 900 per call either way.

    The constants are read-only full-size copies of per-row columns: r,
    neg_r (-r), r2 (r^2) and the three lap3 bands sub, diag and sup.  A
    full x full multiply into out= runs about 1.5x faster than one that
    broadcasts an (nr, 1) column, and it needs no numpy iterator buffer,
    so the kernels allocate nothing for it.  They cost 6 arrays per grid:
    768 KiB at 128^2, 3 MiB at 256^2.  The quadrature weights need no
    copy: an integral sums its integrand along z first (ring_sums), then
    weights the nr sums.
    """

    def __init__(self, grid: Grid):
        shape = (grid.nr, grid.nz)

        def full(col: np.ndarray) -> np.ndarray:
            a = empty(shape)
            a[...] = col[:, None]
            a.flags.writeable = False
            return a

        self.r = full(grid.r)
        self.neg_r = full(-grid.r)
        self.r2 = full(grid.r**2)
        self.sub, self.diag, self.sup = map(full, grid.radial_bands)
        self.leaf = tuple(empty(shape) for _ in range(2))
        self.kernel = tuple(empty(shape) for _ in range(9))
        self.stage = tuple(empty(shape) for _ in range(2))


def make_grid(spec: GridSpec) -> Grid:
    """Build the mesh of a GridSpec, which checked itself when built."""
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
    return field_from_function(grid, lambda r, z: 0.0, parity)


def field_from_function(grid: Grid, fn, parity: str) -> ScalarField:
    """Sample fn(r, z) into an empty() array; fn must broadcast over (nr, 1) x (1, nz)."""
    vals = empty((grid.nr, grid.nz))
    vals[...] = fn(grid.r[:, None], grid.z[None, :])
    return ScalarField(grid, vals, parity)


def ring_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum along z of each ring of a, or of a * b: nr values.  The volume
    quadrature of an integrand is the dot product of its ring sums with an
    r-only weight vector, quad_w for int f dx; integrands that differ by a
    power of r share their sums and differ only in the weight."""
    return np.einsum("ij->i", a) if b is None else np.vecdot(a, b)


def integrate_volume(f: ScalarField) -> float:
    """Quadrature of f over the cylinder: sum of values times 2 pi r dr dz."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("integrate_volume: field contains non-finite values")
    return float(f.grid.quad_w @ ring_sums(f.values))


def norm_l2(f: ScalarField) -> float:
    """Volume L2 norm sqrt(int f^2 dx)."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("norm_l2: field contains non-finite values")
    return math.sqrt(f.grid.quad_w @ ring_sums(f.values, f.values))


def d_dr_values(values: np.ndarray, dr: float, parity: str, out=None) -> np.ndarray:
    """Centered radial difference of raw node values; the axis ghost comes
    from the parity, the wall ghost from the Dirichlet extrapolation."""
    axis = values[0] if parity == EVEN else -values[0]
    if out is None:
        out = empty(values.shape)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    np.subtract(values[1], axis, out=out[0])
    np.subtract(-values[-1], values[-2], out=out[-1])
    out /= 2.0 * dr
    return out


def d_dz_values(values: np.ndarray, dz: float, out=None) -> np.ndarray:
    """Centered periodic axial difference of raw node values.

    Like d2_dz2_values, it runs along the flattened C-ordered array, which
    is right for every column but the two wrap columns, then redoes those.
    """
    v = np.ascontiguousarray(values)
    if out is None:
        out = empty(v.shape)
    flat, o = v.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=o[1:-1])
    np.subtract(v[:, 1], v[:, -1], out=out[:, 0])
    np.subtract(v[:, 0], v[:, -2], out=out[:, -1])
    out /= 2.0 * dz
    return out


def d2_dz2_values(values: np.ndarray, dz: float, out=None) -> np.ndarray:
    """Periodic axial second difference of raw node values."""
    v = np.ascontiguousarray(values)
    out = np.multiply(v, -2.0, out=out)
    flat, o = v.reshape(-1), out.reshape(-1)
    o[1:-1] += flat[2:]
    o[1:-1] += flat[:-2]
    out[:, 0] = v[:, 1] - 2.0 * v[:, 0] + v[:, -1]
    out[:, -1] = v[:, 0] - 2.0 * v[:, -1] + v[:, -2]
    out /= dz * dz
    return out


def d_dr(f: ScalarField) -> ScalarField:
    """Centered radial derivative. Flips parity (even <-> odd)."""
    out = d_dr_values(f.values, f.grid.dr, f.parity)
    return ScalarField(f.grid, out, ODD if f.parity == EVEN else EVEN)


def d_dz(f: ScalarField) -> ScalarField:
    """Centered axial derivative with periodic wraparound. Parity preserved."""
    return ScalarField(f.grid, d_dz_values(f.values, f.grid.dz), f.parity)


def lap3_values(values: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """lap3 of the raw node values of an even-parity field; its one
    temporary is the grid's first leaf buffer."""
    ws = grid.work
    tmp = ws.leaf[0]
    out = np.multiply(ws.diag, values, out=out)
    out[1:] += np.multiply(ws.sub[1:], values[:-1], out=tmp[1:])
    out[:-1] += np.multiply(ws.sup[:-1], values[1:], out=tmp[:-1])
    out += d2_dz2_values(values, grid.dz, out=tmp)
    return out


def modified_laplacian(f: ScalarField) -> ScalarField:
    """lap3(f) = f_rr + (3/r) f_r + f_zz for even-parity fields."""
    if f.parity != EVEN:
        raise ValueError("modified_laplacian is defined for even-parity fields only")
    return ScalarField(f.grid, lap3_values(f.values, f.grid), EVEN)
