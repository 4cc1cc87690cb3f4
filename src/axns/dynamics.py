"""Time integration of the reduced axisymmetric system.

Evolution equations, with v_r = -r d_dz(psi1), v_z = 2 psi1 + r d_dr(psi1):

    d_t u1  + v.grad(u1)  = nu lap3(u1)  + 2 u1 d_dz(psi1)
    d_t om1 + v.grad(om1) = nu lap3(om1) + 2 u1 d_dz(u1)
    -lap3(psi1) = om1     (re-solved after every stage)

Advection is centered, diffusion uses the shared lap3 stencil, and time
stepping is the three-stage strong-stability-preserving Runge-Kutta scheme
with stage times (t, t + dt, t + dt/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, storage
from .elliptic import solve_stream
from .grid import EVEN, Grid, GridSpec, ScalarField, d_dr, d_dz, make_grid
from .grid import d_dr_values, d_dz_values, lap3_values
from .kinematics import State
from .scenarios import Scenario, init_scenario, manufactured_solution


class BlowUpError(RuntimeError):
    """Raised when an update produces non-finite fields."""


@dataclass
class SolverConfig:
    nu: float
    cfl: float
    t_end: float
    grid: GridSpec
    scenario: Scenario = field(default_factory=lambda: Scenario(name="zero"))
    output_every: int = 10
    s: int = 4
    forcing_enabled: bool = False

    def validate(self) -> None:
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.output_every < 1:
            raise ValueError(f"output_every must be at least 1, got {self.output_every}")
        if self.s < 3:
            raise ValueError(f"s must be an integer >= 3, got {self.s}")
        make_grid(self.grid)  # reuse grid validation
        self.scenario.validate(self.grid)
        if self.forcing_enabled and self.scenario.name != "manufactured":
            raise ValueError(f"forcing = on needs scenario manufactured, not {self.scenario.name}")


def _transport(grid: Grid, f, df_dz, vr, vz, nu: float):
    """-(v.grad f) + nu lap3(f) on raw arrays, f even."""
    adv = vr * d_dr_values(f, grid.dr, EVEN)
    adv += vz * df_dz
    out = lap3_values(f, grid)
    out *= nu
    out -= adv
    return out


def rhs(grid: Grid, u1, om1, psi1, nu: float, t: float, forcing=None):
    """Spatial tendency (du1, dom1) of the raw (nr, nz) node values of the
    even-parity fields (u1, om1, psi1) at stage time t."""
    r = grid.r[:, None]
    dpsi_dz = d_dz_values(psi1, grid.dz)
    vr = -r * dpsi_dz
    vz = 2.0 * psi1 + r * d_dr_values(psi1, grid.dr, EVEN)
    du1_dz = d_dz_values(u1, grid.dz)
    two_u1 = 2.0 * u1

    du1 = _transport(grid, u1, du1_dz, vr, vz, nu)
    du1 += two_u1 * dpsi_dz
    dom1 = _transport(grid, om1, d_dz_values(om1, grid.dz), vr, vz, nu)
    dom1 += two_u1 * du1_dz
    if forcing is not None:
        du1 += forcing.f_u(grid, t)
        dom1 += forcing.f_om(grid, t)
    return du1, dom1


def stable_dt(state: State, cfg: SolverConfig) -> float:
    """Explicit step bound: cfl times the tightest of the diffusion limit
    and the two advective limits, clamped to the remaining time.  Guards
    with zero denominators are skipped."""
    g = state.grid
    guards = []
    if cfg.nu > 0:
        guards.append(
            (g.dr * g.dr * g.dz * g.dz)
            / (2.0 * cfg.nu * (g.dr * g.dr + g.dz * g.dz))
        )
    # |v_r| and |v_z| as reconstruct_velocity forms them
    r = g.r[:, None]
    psi1 = state.psi1
    vr_max = float(np.max(np.abs(r * d_dz(psi1).values)))
    vz_max = float(np.max(np.abs(2.0 * psi1.values + r * d_dr(psi1).values)))
    if vr_max > 0:
        guards.append(g.dr / vr_max)
    if vz_max > 0:
        guards.append(g.dz / vz_max)
    dt = cfg.cfl * min(guards) if guards else math.inf
    return min(dt, cfg.t_end - state.t)


def _vorticity(grid: Grid, u1: np.ndarray, om1: np.ndarray, stage: str) -> ScalarField:
    """A stage's om1 as the stream solve's source, once (u1, om1) are finite."""
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(om1))):
        raise BlowUpError(f"non-finite fields after {stage}")
    return ScalarField(grid, om1, EVEN)


def step(state: State, dt: float, cfg: SolverConfig, forcing=None) -> State:
    """One SSP-RK3 step of size dt; dt must respect stable_dt.  The stages
    work on raw arrays; only the returned State wraps them."""
    g = state.grid
    t = state.t
    nu = cfg.nu
    u0, w0 = state.u1.values, state.omega1.values

    du, dw = rhs(g, u0, w0, state.psi1.values, nu, t, forcing)
    u_a = u0 + dt * du
    w_a = w0 + dt * dw
    p_a = solve_stream(_vorticity(g, u_a, w_a, "stage 1")).values

    du, dw = rhs(g, u_a, w_a, p_a, nu, t + dt, forcing)
    u_b = 0.75 * u0 + 0.25 * (u_a + dt * du)
    w_b = 0.75 * w0 + 0.25 * (w_a + dt * dw)
    p_b = solve_stream(_vorticity(g, u_b, w_b, "stage 2")).values

    du, dw = rhs(g, u_b, w_b, p_b, nu, t + 0.5 * dt, forcing)
    u_n = u0 / 3.0 + (2.0 / 3.0) * (u_b + dt * du)
    w_n = w0 / 3.0 + (2.0 / 3.0) * (w_b + dt * dw)
    om_n = _vorticity(g, u_n, w_n, "stage 3")
    return State(
        u1=ScalarField(g, u_n, EVEN), omega1=om_n, psi1=solve_stream(om_n), t=t + dt
    )


def run(cfg: SolverConfig, out_dir: str | None = None):
    """Integrate from the scenario's initial state to t_end.

    Samples the monitor series every output_every steps and at the final
    time.  When out_dir is given, each sampled state is also written as a
    snapshot and the series as series.csv; on blow-up the partial outputs
    are flushed before the error propagates.  Only the current state is
    held, so memory does not grow with the number of samples; read the
    sampled states back from the snapshots.

    Returns (final_state, series).
    """
    cfg.validate()
    grid = make_grid(cfg.grid)
    forcing = None
    if cfg.forcing_enabled:
        forcing = manufactured_solution(cfg.grid, cfg.nu, cfg.scenario)
    state = init_scenario(cfg.scenario, grid)
    series = diagnostics.CriteriaSeries(nu=cfg.nu, s=cfg.s)

    out = None
    if out_dir is not None:
        out = storage.RunWriter(out_dir, cfg)

    def emit(st: State) -> None:
        diagnostics.sample(st, series)
        if out is not None:
            out.snapshot(st)

    emit(state)
    t_stop = cfg.t_end * (1.0 - 1e-12)
    n_steps = 0
    try:
        while state.t < t_stop:
            dt = stable_dt(state, cfg)
            state = step(state, dt, cfg, forcing)
            n_steps += 1
            if n_steps % cfg.output_every == 0 or state.t >= t_stop:
                emit(state)
    finally:
        if out is not None:
            out.series(series)
    return state, series
