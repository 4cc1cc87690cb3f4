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

from .dynamics import SolverConfig, diffusive_dt, run
from .elliptic import solve_stream, stream_residual
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
from .scenarios import Scenario, manufactured_solution


def observed_order(errors) -> list[float]:
    """Convergence orders log2(e_k / e_{k+1}) of successive halvings."""
    errs = list(errors)
    if len(errs) < 2:
        raise ValueError("observed_order: need at least 2 error values")
    if any(not (e > 0) for e in errs):
        raise ValueError("observed_order: errors must be positive")
    return [math.log(a / b) / math.log(2.0) for a, b in zip(errs, errs[1:])]


def elliptic_study():
    """Stream-solve recovery of the closed-form pair on R = Lz = 1

        psi* = (R^2 - r^2)^2 cos(2 pi z / Lz)
        om*  = (16 R^2 - 24 r^2 + kap^2 (R^2 - r^2)^2) cos(kap z)

    (om* is -lap3(psi*) by hand).  Returns (rel_errors, rel_residuals),
    one entry per level of 32^2, 64^2 and 128^2.
    """
    R, Lz = 1.0, 1.0
    kap = 2.0 * np.pi / Lz
    errors, residuals = [], []
    for n in (32, 64, 128):
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


def random_bump_terms(
    rng: np.random.Generator,
    R: float,
    rho_range=(0.2, 0.6),
    w_range=(0.12, 0.25),
    k_range=(0, 3),
):
    """Draw grid-independent parameters for a sum of two bump-mode terms."""
    terms = []
    for _ in range(2):
        amp = float(rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)))
        rho = float(rng.uniform(*rho_range) * R)
        w = float(rng.uniform(*w_range) * R)
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        terms.append((amp, rho, w, k, phase))
    return tuple(terms)


def bump_field(terms, grid: Grid) -> ScalarField:
    r, z = grid.r[:, None], grid.z[None, :]
    out = np.zeros((grid.nr, grid.nz))
    for amp, rho, w, k, phase in terms:
        radial = np.exp(-(((r - rho) / w) ** 2)) + np.exp(-(((r + rho) / w) ** 2))
        out += amp * radial * np.cos(2.0 * np.pi * k * z / grid.spec.Lz + phase)
    return ScalarField(grid, out, EVEN)


def divergence_study():
    """Divergence residual of velocities reconstructed from four random
    smooth stream functions, at 64^2, 128^2 and 256^2.  The bumps sit well
    away from the wall (rho <= 0.3 R, w <= 0.15 R) so the Dirichlet ring
    sees only their exponentially small tails.  Returns root-mean-square
    residuals.
    """
    rng = np.random.default_rng(7)
    R, Lz, n_fields = 1.0, 1.0, 4
    ensembles = [
        random_bump_terms(rng, R, rho_range=(0.15, 0.3), w_range=(0.1, 0.15), k_range=(3, 4))
        for _ in range(n_fields)
    ]
    out = []
    for n in (64, 128, 256):
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
    attains C.  Solve and d_dz act per mode (M_k = -L_r + mu_k I and i s_k,
    mu and s from grid.modes), and on mode k the sup of s_k^2 |M_k^-1 f|^2
    / |r f|^2 is s_k^2 / sigma_min(diag(r) M_k)^2, attained where r f is
    the left singular vector of sigma_min."""
    sub, diag, sup = grid.radial_bands
    mu, s = grid.modes.mu, grid.modes.s
    m = -(np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1))  # -L_r
    rm = grid.r[:, None] * (m + mu[:, None, None] * np.eye(grid.nr))  # diag(r) M_k per mode
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
        scenario=Scenario(name="manufactured"),
        output_every=10_000_000,
        forcing_enabled=True,
    )


def dynamics_spatial_study():
    """Forced-run recovery of the manufactured fields at t_end = 0.25,
    nu = 0.1, one error per level at 32^2, 64^2 and 128^2.  The adaptive
    step is diffusion-limited (dt ~ h^2), so the temporal error rides far
    below the spatial one."""
    nu = 0.1
    errors = []
    for n in (32, 64, 128):
        cfg = _mms_config(n, nu, t_end=0.25, cfl=0.4)
        final, _ = run(cfg)
        man = manufactured_solution(final.grid, nu=None, scenario=cfg.scenario)
        errors.append(_field_error(final, man.u1(final.t), man.om1(final.t)))
    return errors


def dynamics_temporal_study():
    """Errors of run at n0, 2 n0 and 4 n0 steps against a 16 n0 step
    reference on one 32^2 grid (nu = 0.05, t_end = 0.1), so the common
    spatial error cancels and the step-size order stands alone.  The base
    step sits at 0.8 of the diffusive limit ddt: large enough that even the
    n0/4 error is far above the roundoff floor, small enough for a stable
    three-stage step.  Each level runs at cfl = t_end / (n ddt): the
    diffusive guard binds every step of this forced flow and cfl * ddt
    rounds to t_end / n, so run takes exactly n steps of t_end / n, which
    tests/test_studies.py::test_temporal_study_steps_at_fixed_dt pins."""
    nu, t_end = 0.05, 0.1
    cfg = _mms_config(32, nu, t_end, cfl=0.8)
    ddt = diffusive_dt(make_grid(cfg.grid), nu)
    n0 = max(4, math.ceil(t_end / (0.8 * ddt)))

    def final(n: int) -> State:
        return run(replace(cfg, cfl=t_end / (n * ddt)))[0]

    ref = final(n0 * 16)
    return [_field_error(final(n0 * 2**j), ref.u1.values, ref.omega1.values) for j in range(3)]


def _restrict(fine: np.ndarray) -> np.ndarray:
    # cell-centered halving in r: coarse node = mean of its two children;
    # node-coincident halving in z: keep even columns
    return 0.5 * (fine[0::2, ::2] + fine[1::2, ::2])


def self_convergence_study(cfg: SolverConfig, n_levels: int) -> list[float]:
    """Differences between successive refinements of one configured
    problem, measured on the coarser grid of each pair.  Works for any
    scenario since no exact solution is needed."""
    finals = []
    for lev in range(n_levels):
        spec = replace(cfg.grid, nr=cfg.grid.nr * 2**lev, nz=cfg.grid.nz * 2**lev)
        final, _ = run(replace(cfg, grid=spec, output_every=10_000_000))
        finals.append(final)
    return [
        _field_error(coarse, _restrict(fine.u1.values), _restrict(fine.omega1.values))
        for coarse, fine in zip(finals, finals[1:])
    ]


def swirl_decay_error() -> float:
    """Relative error of the slowest swirl mode against exp(-nu kap^2 t) at
    t = 0.5, nu = 0.1, on a 64 x 128 grid over R = 2, Lz = 1, stepped by run.

    Initial data u1 = eps cos(kap z), eps = 1e-6, uniform in r: pure_swirl
    at width 1e200, where ((r - r_c) / w)^2 underflows to 0 and the radial
    factor is exactly 1.  At this amplitude the quadratic couplings are
    O(eps^2) and the mode decays diffusively.  The decay factor is measured
    by projecting onto cos(kap z) over the core r <= R/4, far from the wall.
    """
    nu, t_end, eps = 0.1, 0.5, 1e-6
    cfg = SolverConfig(
        nu=nu,
        cfl=0.5,
        t_end=t_end,
        grid=GridSpec(R=2.0, Lz=1.0, nr=64, nz=128),
        scenario=Scenario(name="pure_swirl", amplitude=eps, width=1e200),
        output_every=10_000_000,
    )
    state, _ = run(cfg)
    grid = state.grid
    kap = 2.0 * np.pi / grid.spec.Lz
    core = grid.r <= grid.spec.R / 4.0
    coeff = 2.0 * np.mean(state.u1.values[core] * np.cos(kap * grid.z)[None, :], axis=1)
    measured = float(np.mean(coeff))
    expect = eps * math.exp(-nu * kap * kap * t_end)
    return abs(measured - expect) / expect
