"""Axisymmetric incompressible flow in reduced swirl variables.

The package evolves (u1, om1, psi1) = (v_phi/r, om_phi/r, psi/r) on a
cell-centered cylinder grid, with a spectral-in-z stream solve, SSP-RK3
time stepping, and a monitor series of weighted regularity functionals.

Fields cross the API as ScalarField and State, except in the tendency kernel
rhs(grid, u1, om1, psi1, nu, t, forcing=None) -> (du1, dom1) on raw arrays,
which live in the grid's workspace and are valid until the next rhs call.
The monitor kernel instantaneous(state, s) forms every column of one sample
at once; sample(state, series) appends it as a MonitorRow.  run holds
one state at a time; lpq_norm(samples, q) integrates (t, ualpha_norm) pairs.
"""

from .config import ConfigError, parse_config
from .diagnostics import (
    COLUMNS,
    CriteriaSeries,
    MonitorRow,
    instantaneous,
    lpq_norm,
    omega1_budget,
    quartic_check,
    sample,
    ualpha_norm,
)
from .dynamics import BlowUpError, SolverConfig, rhs, run, stable_dt, step
from .elliptic import solve_stream, stream_residual
from .grid import (
    EVEN,
    ODD,
    Grid,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    integrate_volume,
    make_grid,
    modified_laplacian,
    norm_l2,
    zeros_field,
)
from .kinematics import State, divergence_residual, reconstruct_velocity
from .scenarios import SCENARIO_NAMES, Scenario, init_scenario, manufactured_solution
from .storage import read_series, read_snapshot, write_series, write_snapshot

__version__ = "0.1.0"
