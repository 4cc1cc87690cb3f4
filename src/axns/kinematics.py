"""Solver state and velocity reconstruction.

The state carries three even-parity scalars on one grid:

    u1    = v_phi / r      reduced swirl
    om1   = om_phi / r     reduced azimuthal vorticity
    psi1  = psi / r        reduced stream function

with psi1 slaved to om1 through the stream solve.  The physical fields are
recovered as

    v_r   = -r d_dz(psi1)            (odd)
    v_phi =  r u1                    (odd)
    v_z   =  2 psi1 + r d_dr(psi1)   (even)

and the vorticity as om_phi = r om1.  velocity_values is the one place
that forms v_r and v_z, for the stepper and reconstruct_velocity alike.
Quantities that carry a 1/r weight are always formed from the reduced
variables (v_r / r = -d_dz(psi1), v_phi / r = u1, ...), so nothing divides
by r except divergence_residual, whose v_r carries an exact factor r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import EVEN, ODD, Grid, ScalarField, d_dr, d_dr_values, d_dz, d_dz_values, norm_l2


@dataclass(eq=False)
class State:
    """One time slice of the evolved fields."""

    u1: ScalarField
    omega1: ScalarField
    psi1: ScalarField
    t: float

    def __post_init__(self) -> None:
        g = self.u1.grid
        if self.omega1.grid is not g or self.psi1.grid is not g:
            raise ValueError("state fields must share one grid object")
        for name, f in (("u1", self.u1), ("omega1", self.omega1), ("psi1", self.psi1)):
            if f.parity != EVEN:
                raise ValueError(f"state field {name} must have even parity")
            if not np.all(np.isfinite(f.values)):
                raise ValueError(f"state field {name} contains non-finite values")

    @property
    def grid(self) -> Grid:
        return self.u1.grid


@dataclass(eq=False)
class VelocityFields:
    """Reconstructed velocity components."""

    v_r: ScalarField
    v_phi: ScalarField
    v_z: ScalarField


def velocity_values(grid: Grid, psi1, dpsi_dz, v_r, v_z) -> None:
    """d_dz(psi1), v_r and v_z of raw psi1 node values, written into the
    caller's arrays; dpsi_dz may be v_r, none may be psi1.  v_r holds
    r d_dr(psi1) until v_z is formed, so nothing else is allocated."""
    r = grid.work.r
    np.multiply(r, d_dr_values(psi1, grid.dr, EVEN, out=v_r), out=v_r)
    np.multiply(2.0, psi1, out=v_z)
    v_z += v_r
    d_dz_values(psi1, grid.dz, out=dpsi_dz)
    np.multiply(-r, dpsi_dz, out=v_r)


def reconstruct_velocity(state: State) -> VelocityFields:
    """The velocity components over fresh arrays; d_dz(psi1) is formed in
    v_r's array, so only v_phi = r u1 is allocated besides."""
    g = state.grid
    v_r = np.empty((g.nr, g.nz))
    v_z = np.empty((g.nr, g.nz))
    velocity_values(g, state.psi1.values, v_r, v_r, v_z)
    return VelocityFields(
        v_r=ScalarField(g, v_r, ODD),
        v_phi=ScalarField(g, g.work.r * state.u1.values, ODD),
        v_z=ScalarField(g, v_z, EVEN),
    )


def divergence_residual(vel: VelocityFields) -> float:
    """L2 volume norm of d_dr(v_r) + v_r/r + d_dz(v_z).

    v_r carries an exact factor r by construction, so the division recovers
    -d_dz(psi1) to roundoff and stays bounded at the first ring.
    """
    g = vel.v_r.grid
    res = (
        d_dr(vel.v_r).values
        + vel.v_r.values / g.r[:, None]
        + d_dz(vel.v_z).values
    )
    return norm_l2(ScalarField(g, res, EVEN))

