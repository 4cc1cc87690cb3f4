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
from .grid import EVEN, Grid, GridSpec, ScalarField, make_grid
# d_dz is not called here: perfbench's self-test looks the name up in this module
from .grid import d_dr_values, d_dz, d_dz_values, lap3_values  # noqa: F401
from .kinematics import State, velocity_values
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


def _transport(grid: Grid, f, df_dz, vr, vz, nu: float, out, adv, tmp):
    """-(v.grad f) + nu lap3(f) on raw arrays, f even, written into out;
    adv and tmp are scratch."""
    np.multiply(vr, d_dr_values(f, grid.dr, EVEN, out=adv), out=adv)
    adv += np.multiply(vz, df_dz, out=tmp)
    lap3_values(f, grid, out=out)
    out *= nu
    out -= adv
    return out


def rhs(grid: Grid, u1, om1, psi1, nu: float, t: float, forcing=None):
    """Spatial tendency (du1, dom1) of the raw (nr, nz) node values of the
    even-parity fields (u1, om1, psi1) at stage time t.

    Every intermediate and both tendencies live in the grid's workspace
    kernel buffers, so the returned arrays are valid until the next rhs
    call on that grid (or the next kernel that uses those buffers).
    """
    dpsi_dz, vr, vz, du1_dz, two_u1, adv, tmp, du1, dom1 = grid.work.kernel
    velocity_values(grid, psi1, dpsi_dz, vr, vz)
    d_dz_values(u1, grid.dz, out=du1_dz)
    np.multiply(2.0, u1, out=two_u1)

    _transport(grid, u1, du1_dz, vr, vz, nu, du1, adv, tmp)
    du1 += np.multiply(two_u1, dpsi_dz, out=tmp)
    om1_dz = d_dz_values(om1, grid.dz, out=dpsi_dz)  # dpsi_dz is spent
    _transport(grid, om1, om1_dz, vr, vz, nu, dom1, adv, tmp)
    dom1 += np.multiply(two_u1, du1_dz, out=tmp)
    if forcing is not None:
        du1 += forcing.f_u(grid, t)
        dom1 += forcing.f_om(grid, t)
    return du1, dom1


def diffusive_dt(g: Grid, nu: float) -> float:
    """The explicit diffusion limit dr^2 dz^2 / (2 nu (dr^2 + dz^2))."""
    return (g.dr * g.dr * g.dz * g.dz) / (2.0 * nu * (g.dr * g.dr + g.dz * g.dz))


def stable_dt(state: State, cfg: SolverConfig) -> float:
    """Explicit step bound: cfl times the tightest of the diffusion limit
    and the two advective limits, clamped to the remaining time.  Guards
    with zero denominators are skipped.  v_r and v_z are formed in the
    grid's workspace kernel buffers."""
    g = state.grid
    guards = []
    if cfg.nu > 0:
        guards.append(diffusive_dt(g, cfg.nu))
    dpsi_dz, v_r, v_z = g.work.kernel[:3]
    velocity_values(g, state.psi1.values, dpsi_dz, v_r, v_z)
    for h, v in ((g.dr, v_r), (g.dz, v_z)):
        v_max = float(np.max(np.abs(v, out=v)))
        if v_max > 0:
            guards.append(h / v_max)
    dt = cfg.cfl * min(guards) if guards else math.inf
    return min(dt, cfg.t_end - state.t)


def _vorticity(grid: Grid, u1: np.ndarray, om1: np.ndarray, stage: str) -> ScalarField:
    """A stage's om1 as the stream solve's source, once (u1, om1) are finite."""
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(om1))):
        raise BlowUpError(f"non-finite fields after {stage}")
    return ScalarField(grid, om1, EVEN)


def step(state: State, dt: float, cfg: SolverConfig, forcing=None) -> State:
    """One SSP-RK3 step of size dt; dt must respect stable_dt.  The stages
    work on raw arrays in the grid's workspace (rhs's tendencies are scaled
    in place); only the returned State owns fresh arrays."""
    g = state.grid
    t = state.t
    nu = cfg.nu
    u0, w0 = state.u1.values, state.omega1.values
    u_s, w_s = g.work.stage  # stage 1, then stage 2 over it

    du, dw = rhs(g, u0, w0, state.psi1.values, nu, t, forcing)
    du *= dt
    dw *= dt
    np.add(u0, du, out=u_s)
    np.add(w0, dw, out=w_s)
    psi = solve_stream(_vorticity(g, u_s, w_s, "stage 1")).values

    du, dw = rhs(g, u_s, w_s, psi, nu, t + dt, forcing)
    for x0, xs, dx in ((u0, u_s, du), (w0, w_s, dw)):
        # x_b = 0.75 x0 + 0.25 (x_a + dt dx), written over x_a
        dx *= dt
        dx += xs
        dx *= 0.25
        np.multiply(0.75, x0, out=xs)
        xs += dx
    psi = solve_stream(_vorticity(g, u_s, w_s, "stage 2")).values

    du, dw = rhs(g, u_s, w_s, psi, nu, t + 0.5 * dt, forcing)
    del psi  # freed before the last stream solve allocates
    for xs, dx in ((u_s, du), (w_s, dw)):
        dx *= dt
        dx += xs
        dx *= 2.0 / 3.0
    u_n = u0 / 3.0
    u_n += du
    w_n = w0 / 3.0
    w_n += dw
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
