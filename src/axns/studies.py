"""Refinement studies and the sharp constant of the criteria inequality.

The refinement probes are continuum fields sampled per grid, so every
level discretizes the same problem.  Radial profiles are symmetrized
Gaussian bumps, exp(-((r-rho)/w)^2) + exp(-((r+rho)/w)^2): exactly even
in r (smooth across the axis) and, for the bump parameters used here,
with wall tails far below the discretization error, so neither boundary
ring contaminates the observed interior order.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import SolverConfig, diffusive_dt, run, stable_dt, step
from .elliptic import mode_rows, solve_stream, stream_residual
from .grid import (
    EVEN,
    Grid,
    GridSpec,
    ScalarField,
    field_from_function,
    make_grid,
    norm_l2,
    zeros_field,
)
from .kinematics import State, divergence_residual, reconstruct_velocity
from .scenarios import Scenario, init_scenario, manufactured_solution


def observed_order(errors, refine: float = 2.0) -> list[float]:
    """Convergence orders log(e_k / e_{k+1}) / log(refine)."""
    errs = list(errors)
    if len(errs) < 2:
        raise ValueError("observed_order: need at least 2 error values")
    if any(not (e > 0) for e in errs):
        raise ValueError("observed_order: errors must be positive")
    return [math.log(a / b) / math.log(refine) for a, b in zip(errs, errs[1:])]


def elliptic_study(levels=(32, 64, 128), R: float = 1.0, Lz: float = 1.0):
    """Stream-solve recovery of the closed-form pair

        psi* = (R^2 - r^2)^2 cos(2 pi z / Lz)
        om*  = (16 R^2 - 24 r^2 + kap^2 (R^2 - r^2)^2) cos(kap z)

    (om* is -lap3(psi*) by hand).  Returns (rel_errors, rel_residuals),
    one entry per level.
    """
    kap = 2.0 * np.pi / Lz
    errors, residuals = [], []
    for n in levels:
        grid = make_grid(GridSpec(R=R, Lz=Lz, nr=n, nz=n))
        om = field_from_function(
            grid,
            lambda r, z: (16.0 * R * R - 24.0 * r * r + kap * kap * (R * R - r * r) ** 2)
            * np.cos(kap * z),
            EVEN,
        )
        psi = solve_stream(om)
        exact = field_from_function(
            grid, lambda r, z: (R * R - r * r) ** 2 * np.cos(kap * z), EVEN
        )
        diff = ScalarField(grid, psi.values - exact.values, EVEN)
        errors.append(norm_l2(diff) / norm_l2(exact))
        residuals.append(stream_residual(psi, om) / norm_l2(om))
    return errors, residuals


def _sum_bumps(terms, grid: Grid) -> np.ndarray:
    r = grid.r[:, None]
    z = grid.z[None, :]
    Lz = grid.spec.Lz
    out = np.zeros((grid.nr, grid.nz))
    for amp, rho, w, k, phase in terms:
        radial = np.exp(-(((r - rho) / w) ** 2)) + np.exp(-(((r + rho) / w) ** 2))
        out += amp * radial * np.cos(2.0 * np.pi * k * z / Lz + phase)
    return out


def random_bump_terms(
    rng: np.random.Generator,
    R: float,
    n_terms: int = 2,
    rho_range=(0.2, 0.6),
    w_range=(0.12, 0.25),
    k_range=(0, 3),
):
    """Draw grid-independent parameters for a sum of bump-mode terms."""
    terms = []
    for _ in range(n_terms):
        amp = float(rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)))
        rho = float(rng.uniform(*rho_range) * R)
        w = float(rng.uniform(*w_range) * R)
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        terms.append((amp, rho, w, k, phase))
    return tuple(terms)


def bump_field(terms, grid: Grid, parity: str = EVEN) -> ScalarField:
    return ScalarField(grid, _sum_bumps(terms, grid), parity)


def divergence_study(levels=(64, 128, 256), seed: int = 7, n_fields: int = 4):
    """Divergence residual of velocities reconstructed from random smooth
    stream functions, per level.  The bumps sit well away from the wall
    (rho <= 0.3 R, w <= 0.15 R) so the Dirichlet ring sees only their
    exponentially small tails.  Returns root-mean-square residuals.
    """
    rng = np.random.default_rng(seed)
    R, Lz = 1.0, 1.0
    ensembles = [
        random_bump_terms(
            rng, R, n_terms=2, rho_range=(0.15, 0.3), w_range=(0.1, 0.15), k_range=(3, 4)
        )
        for _ in range(n_fields)
    ]
    out = []
    for n in levels:
        grid = make_grid(GridSpec(R=R, Lz=Lz, nr=n, nz=n))
        total = 0.0
        for terms in ensembles:
            psi1 = bump_field(terms, grid)
            state = State(
                u1=zeros_field(grid),
                omega1=zeros_field(grid),
                psi1=psi1,
                t=0.0,
            )
            total += divergence_residual(reconstruct_velocity(state)) ** 2
        out.append(math.sqrt(total / n_fields))
    return out


def criteria_constant(grid: Grid) -> tuple[float, int, np.ndarray]:
    """Sharp constant C = sup critA / critB over all om1 on the grid, with the
    maximizing axial mode k and radial profile f: f(r) cos(2 pi k z / Lz)
    attains C.  Solve and d_dz (symbol i s_k, s_k = sin(2 pi k / nz) / dz)
    act per mode, and on mode k the sup of s_k^2 |M_k^-1 f|^2 / |r f|^2 is
    s_k^2 / sigma_min(diag(r) M_k)^2, attained where r f is the left
    singular vector of sigma_min."""
    a, b, c = mode_rows(grid)
    rm = np.array([  # diag(r) M_k, one dense matrix per mode
        grid.r[:, None] * (np.diag(b[:, k]) + np.diag(a[1:, k], -1) + np.diag(c[:-1, k], 1))
        for k in range(b.shape[1])
    ])
    s = np.sin(2.0 * np.pi * np.arange(b.shape[1]) / grid.nz) / grid.dz
    ratios = s**2 / np.linalg.svd(rm, compute_uv=False)[:, -1] ** 2
    k = int(np.argmax(ratios))
    return float(ratios[k]), k, np.linalg.svd(rm[k])[0][:, -1] / grid.r


def _field_error(state: State, u1: np.ndarray, om1: np.ndarray) -> float:
    """sqrt(||state.u1 - u1||^2 + ||state.omega1 - om1||^2), L2 volume norms."""
    du = ScalarField(state.grid, state.u1.values - u1, EVEN)
    dom = ScalarField(state.grid, state.omega1.values - om1, EVEN)
    return math.sqrt(norm_l2(du) ** 2 + norm_l2(dom) ** 2)


def _mms_config(n: int, nu: float, t_end: float, cfl: float) -> SolverConfig:
    return SolverConfig(
        nu=nu,
        cfl=cfl,
        t_end=t_end,
        grid=GridSpec(R=1.0, Lz=1.0, nr=n, nz=n),
        scenario=Scenario(name="manufactured", amplitude=1.0, mode_k=1),
        output_every=10_000_000,
        forcing_enabled=True,
    )


def dynamics_spatial_study(
    levels=(32, 64, 128), nu: float = 0.1, t_end: float = 0.25, cfl: float = 0.4
):
    """Forced-run recovery of the manufactured fields at t_end, one error
    per level.  The adaptive step is diffusion-limited (dt ~ h^2), so the
    temporal error rides far below the spatial one."""
    errors = []
    for n in levels:
        cfg = _mms_config(n, nu, t_end, cfl)
        final, _ = run(cfg)
        grid = final.grid
        man = manufactured_solution(cfg.grid, nu, cfg.scenario)
        errors.append(_field_error(final, man.u1(grid, final.t), man.om1(grid, final.t)))
    return errors


def dynamics_temporal_study(
    n: int = 32, nu: float = 0.05, t_end: float = 0.1, n_refine: int = 3
):
    """Errors of fixed-step integration at dt, dt/2, ... against a dt/16
    reference on the same grid, so the common spatial error cancels and
    the step-size order stands alone.  The base step sits at 0.8 of the
    diffusive limit: large enough that even the dt/4 error is far above
    the roundoff floor, small enough for a stable three-stage step."""
    cfg = _mms_config(n, nu, t_end, cfl=0.8)
    cfg.validate()
    grid = make_grid(cfg.grid)
    forcing = manufactured_solution(cfg.grid, nu, cfg.scenario)
    n0 = max(4, math.ceil(t_end / (0.8 * diffusive_dt(grid, nu))))

    def integrate(nsteps: int) -> State:
        state = init_scenario(cfg.scenario, grid)
        dt = t_end / nsteps
        for _ in range(nsteps):
            state = step(state, dt, cfg, forcing)
        return state

    ref = integrate(n0 * 16)
    errors = []
    for j in range(n_refine):
        final = integrate(n0 * 2**j)
        errors.append(_field_error(final, ref.u1.values, ref.omega1.values))
    return errors


def _restrict(fine: np.ndarray) -> np.ndarray:
    # cell-centered halving in r: coarse node = mean of its two children;
    # node-coincident halving in z: keep even columns
    return 0.5 * (fine[0::2, ::2] + fine[1::2, ::2])


def self_convergence_study(cfg: SolverConfig, n_levels: int = 3) -> list[float]:
    """Differences between successive refinements of one configured
    problem, measured on the coarser grid of each pair.  Works for any
    scenario since no exact solution is needed."""
    if n_levels < 2:
        raise ValueError("self_convergence_study: need at least 2 levels")
    finals = []
    for lev in range(n_levels):
        spec = replace(cfg.grid, nr=cfg.grid.nr * 2**lev, nz=cfg.grid.nz * 2**lev)
        final, _ = run(replace(cfg, grid=spec, output_every=10_000_000))
        finals.append(final)
    return [
        _field_error(coarse, _restrict(fine.u1.values), _restrict(fine.omega1.values))
        for coarse, fine in zip(finals, finals[1:])
    ]


def swirl_decay_error(
    nu: float = 0.1,
    t_end: float = 0.5,
    eps: float = 1e-6,
    nr: int = 64,
    nz: int = 128,
    R: float = 2.0,
    Lz: float = 1.0,
) -> float:
    """Relative error of the slowest swirl mode against exp(-nu kap^2 t).

    Initial data u1 = eps cos(kap z), uniform in r: at this amplitude the
    quadratic couplings are O(eps^2) and the mode decays diffusively.
    The decay factor is measured by projecting onto cos(kap z) over the
    core r <= R/4, far from the wall ring.
    """
    cfg = SolverConfig(
        nu=nu,
        cfl=0.5,
        t_end=t_end,
        grid=GridSpec(R=R, Lz=Lz, nr=nr, nz=nz),
        scenario=Scenario(name="zero"),
        output_every=10_000_000,
    )
    cfg.validate()
    grid = make_grid(cfg.grid)
    kap = 2.0 * np.pi / Lz
    u1 = field_from_function(grid, lambda r, z: eps * np.cos(kap * z) + 0.0 * r, EVEN)
    state = State(u1=u1, omega1=zeros_field(grid), psi1=zeros_field(grid), t=0.0)

    while state.t < t_end * (1.0 - 1e-12):
        state = step(state, stable_dt(state, cfg), cfg)

    core = grid.r <= R / 4.0
    coeff = 2.0 * np.mean(state.u1.values[core] * np.cos(kap * grid.z)[None, :], axis=1)
    measured = float(np.mean(coeff))
    expect = eps * math.exp(-nu * kap * kap * t_end)
    return abs(measured - expect) / expect
