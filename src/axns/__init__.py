"""Axisymmetric incompressible flow in reduced swirl variables.

The package evolves (u1, om1, psi1) = (v_phi/r, om_phi/r, psi/r) on a
cell-centered cylinder grid, with a spectral-in-z stream solve, SSP-RK3
time stepping, and a monitor series of weighted regularity functionals.
This namespace re-exports nothing: import each name from its module, such
as dynamics (run, step), storage (snapshots, series CSV) or verify (CHECKS).

Fields cross the API as ScalarField and State, except in the tendency kernel
dynamics.rhs(grid, u1, om1, psi1, nu, t, forcing=None) -> (du1, dom1) on raw
arrays, which live in the grid's workspace and are valid until the next rhs
call.  The monitor kernel diagnostics.instantaneous(state, s) forms every
column of one sample at once; diagnostics.sample(state, series) appends it as
a MonitorRow.  run holds one state at a time; diagnostics.lpq_norm(samples, q)
integrates (t, ualpha_norm) pairs.
"""

__version__ = "0.1.0"
