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
from .grid import EVEN, Grid, GridSpec, ScalarField, d_dr, d_dz, make_grid, modified_laplacian
from .kinematics import State, reconstruct_velocity
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


@dataclass(eq=False)
class Tendency:
    du1: ScalarField
    domega1: ScalarField


def rhs(state: State, cfg: SolverConfig, t: float, forcing=None) -> Tendency:
    """Spatial tendency of (u1, om1) at stage time t."""
    g = state.grid
    r = g.r[:, None]
    u1 = state.u1
    om1 = state.omega1
    dpsi_dz = d_dz(state.psi1).values
    vr = -r * dpsi_dz
    vz = 2.0 * state.psi1.values + r * d_dr(state.psi1).values

    du1 = (
        -(vr * d_dr(u1).values + vz * d_dz(u1).values)
        + cfg.nu * modified_laplacian(u1).values
        + 2.0 * u1.values * dpsi_dz
    )
    dom1 = (
        -(vr * d_dr(om1).values + vz * d_dz(om1).values)
        + cfg.nu * modified_laplacian(om1).values
        + 2.0 * u1.values * d_dz(u1).values
    )
    if forcing is not None:
        du1 += forcing.f_u(g, t)
        dom1 += forcing.f_om(g, t)
    return Tendency(ScalarField(g, du1, EVEN), ScalarField(g, dom1, EVEN))


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
    vel = reconstruct_velocity(state)
    vr_max = float(np.max(np.abs(vel.v_r.values)))
    vz_max = float(np.max(np.abs(vel.v_z.values)))
    if vr_max > 0:
        guards.append(g.dr / vr_max)
    if vz_max > 0:
        guards.append(g.dz / vz_max)
    dt = cfg.cfl * min(guards) if guards else math.inf
    return min(dt, cfg.t_end - state.t)


def _advance(grid: Grid, u_vals: np.ndarray, om_vals: np.ndarray, t: float, stage: str) -> State:
    if not (np.all(np.isfinite(u_vals)) and np.all(np.isfinite(om_vals))):
        raise BlowUpError(f"non-finite fields after {stage}")
    om1 = ScalarField(grid, om_vals, EVEN)
    psi1 = solve_stream(om1)
    return State(u1=ScalarField(grid, u_vals, EVEN), omega1=om1, psi1=psi1, t=t)


def step(state: State, dt: float, cfg: SolverConfig, forcing=None) -> State:
    """One SSP-RK3 step of size dt; dt must respect stable_dt."""
    g = state.grid
    t = state.t
    u0, w0 = state.u1.values, state.omega1.values

    k1 = rhs(state, cfg, t, forcing)
    u_a = u0 + dt * k1.du1.values
    w_a = w0 + dt * k1.domega1.values
    s1 = _advance(g, u_a, w_a, t + dt, "stage 1")

    k2 = rhs(s1, cfg, t + dt, forcing)
    u_b = 0.75 * u0 + 0.25 * (u_a + dt * k2.du1.values)
    w_b = 0.75 * w0 + 0.25 * (w_a + dt * k2.domega1.values)
    s2 = _advance(g, u_b, w_b, t + 0.5 * dt, "stage 2")

    k3 = rhs(s2, cfg, t + 0.5 * dt, forcing)
    u_n = u0 / 3.0 + (2.0 / 3.0) * (u_b + dt * k3.du1.values)
    w_n = w0 / 3.0 + (2.0 / 3.0) * (w_b + dt * k3.domega1.values)
    return _advance(g, u_n, w_n, t + dt, "stage 3")


def run(cfg: SolverConfig, out_dir: str | None = None):
    """Integrate from the scenario's initial state to t_end.

    Samples the monitor series every output_every steps and at the final
    time.  When out_dir is given, each sampled state is also written as a
    snapshot and the series as series.csv; on blow-up the partial outputs
    are flushed before the error propagates.

    Returns (final_state, series, sampled_states).
    """
    cfg.validate()
    grid = make_grid(cfg.grid)
    forcing = None
    if cfg.forcing_enabled:
        forcing = manufactured_solution(cfg.grid, cfg.nu, cfg.scenario)
    state = init_scenario(cfg.scenario, grid)
    series = diagnostics.CriteriaSeries.for_run(cfg)
    snapshots: list[State] = []

    out = None
    if out_dir is not None:
        out = storage.RunWriter(out_dir, cfg)

    def emit(st: State) -> None:
        diagnostics.sample(st, series, cfg.nu)
        snapshots.append(st)
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
    return state, series, snapshots
