"""Acceptance checks: one table behind ``axns verify`` and the pytest gate.

``CHECKS`` holds every check as (suite, name, fn); ``fn()`` returns
``(ok, detail)`` and is the one place its bound is written.  ``axns
verify`` prints one ``[pass]``/``[FAIL]`` line per check of the chosen
suites, and ``tests/test_acceptance.py`` runs each entry as one test.
Inputs read by several checks, or twice in one test process, are cached
per process: the monitor rows of the four reference runs of
ACCEPTANCE_CASES, the elliptic study, the sharp constants and the
offline-consistency run.  The refinement studies of the order checks and
of ``axns convergence`` live here too; each level of a study samples the
same continuum fields, so every level discretizes the same problem.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics
from .diagnostics import COLUMNS, CriteriaSeries, instantaneous, lpq_norm, omega1_budget
from .dynamics import SolverConfig, diffusive_dt, run
from .elliptic import solve_stream, stream_residual
from .grid import (
    EVEN,
    Grid,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    integrate_volume,
    make_grid,
    norm_l2,
    zeros_field,
)
from .kinematics import State, divergence_residual
from .scenarios import Scenario, manufactured_solution
from .storage import read_series, read_snapshot_dir

ACCEPTANCE_CASES = tuple(
    (name, nu) for name in ("gaussian_ring", "pure_swirl") for nu in (0.05, 0.2)
)


class Check(NamedTuple):
    suite: str
    name: str
    fn: Callable[[], tuple[bool, str]]


def _grid(nr: int, nz: int):
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=nr, nz=nz))


def _unit_config(name: str, n: int, nu: float, t_end: float, cfl: float, output_every=10_000_000):
    """Scenario name on the n x n grid of R = Lz = 1, forced if manufactured."""
    return SolverConfig(
        nu=nu,
        cfl=cfl,
        t_end=t_end,
        grid=GridSpec(R=1.0, Lz=1.0, nr=n, nz=n),
        scenario=Scenario(name=name),
        output_every=output_every,
        forcing_enabled=name == "manufactured",
    )


def observed_order(errors) -> list[float]:
    """Convergence orders log2(e_k / e_{k+1}) of successive halvings."""
    errs = list(errors)
    if len(errs) < 2:
        raise ValueError("observed_order: need at least 2 error values")
    if any(not (e > 0) for e in errs):
        raise ValueError("observed_order: errors must be positive")
    return [math.log(a / b) / math.log(2.0) for a, b in zip(errs, errs[1:])]


def _orders(errors, bound: float) -> tuple[bool, str]:
    orders = observed_order(errors)
    return min(orders) >= bound, "orders " + ", ".join(f"{o:.3f}" for o in orders)


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
    """The bump-mode terms sampled on grid.  Each radial profile is a
    symmetrized Gaussian, exp(-((r-rho)/w)^2) + exp(-((r+rho)/w)^2): exactly
    even in r (smooth across the axis) and, for the parameters drawn here,
    with wall tails far below the discretization error, so neither boundary
    ring contaminates an observed interior order."""
    r, z = grid.r[:, None], grid.z[None, :]
    out = np.zeros((grid.nr, grid.nz))
    for amp, rho, w, k, phase in terms:
        radial = np.exp(-(((r - rho) / w) ** 2)) + np.exp(-(((r + rho) / w) ** 2))
        out += amp * radial * np.cos(2.0 * np.pi * k * z / grid.spec.Lz + phase)
    return ScalarField(grid, out, EVEN)


# ---- ops: quadrature, stencils, reconstruction, monitors, storage ----


def _total_volume():
    g = _grid(48, 32)
    vol = integrate_volume(ScalarField(g, np.ones((g.nr, g.nz)), EVEN))
    exact = np.pi * g.spec.R**2 * g.spec.Lz
    rel = abs(vol - exact) / exact
    return rel <= 1e-12, f"rel err {rel:.2e}"


def _midpoint_r():
    # midpoint sum of r^2 has the closed form R^3/3 - R dr^2/12 per unit length
    g = _grid(48, 32)
    got = integrate_volume(field_from_function(g, lambda r, z: r + 0.0 * z, EVEN))
    closed = 2.0 * np.pi * g.spec.Lz * (g.spec.R**3 / 3.0 - g.spec.R * g.dr**2 / 12.0)
    rel = abs(got - closed) / abs(closed)
    return rel <= 1e-13, f"rel err {rel:.2e}"


def _ring_probe(r, z):
    """(f, df/dr, df/dz) for an even Gaussian ring pair times cos(6 pi z)."""
    rho, w, kap = 0.3, 0.15, 6.0 * np.pi
    a = np.exp(-(((r - rho) / w) ** 2))
    b = np.exp(-(((r + rho) / w) ** 2))
    f = (a + b) * np.cos(kap * z)
    fr = (-2.0 * (r - rho) / w**2 * a - 2.0 * (r + rho) / w**2 * b) * np.cos(kap * z)
    fz = (a + b) * (-kap * np.sin(kap * z))
    return f, fr, fz


def _stencil_order(deriv, k: int):
    """Observed order of deriv against component k of the ring probe."""
    errs = []
    for n in (32, 64, 128):
        g = _grid(n, n)
        probe = _ring_probe(g.r[:, None], g.z[None, :])
        got = deriv(ScalarField(g, probe[0], EVEN)).values
        errs.append(norm_l2(ScalarField(g, got - probe[k], EVEN)))
    return _orders(errs, 1.9)


def _axial_skew():
    g = _grid(48, 32)
    rng = np.random.default_rng(3)
    a = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    b = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    lhs = integrate_volume(ScalarField(g, d_dz(a).values * b.values, EVEN))
    rhs = -integrate_volume(ScalarField(g, a.values * d_dz(b).values, EVEN))
    return abs(lhs - rhs) <= 1e-12 * norm_l2(a) * norm_l2(b), f"defect {abs(lhs - rhs):.2e}"


def divergence_study():
    """Divergence residual of velocities reconstructed from four random
    smooth stream functions, at 64^2, 128^2 and 256^2.  The bumps sit well
    away from the wall (rho <= 0.3 R, w <= 0.15 R) so the Dirichlet ring
    sees only their exponentially small tails.  The root-mean-square
    residual must converge at order 1.9 or better.
    """
    rng = np.random.default_rng(7)
    bumps = dict(rho_range=(0.15, 0.3), w_range=(0.1, 0.15), k_range=(3, 4))
    ensembles = [random_bump_terms(rng, 1.0, **bumps) for _ in range(4)]
    out = []
    for n in (64, 128, 256):
        grid = _grid(n, n)
        zero = zeros_field(grid)
        states = [State(zero, zero, bump_field(terms, grid), t=0.0) for terms in ensembles]
        squares = [divergence_residual(st) ** 2 for st in states]
        out.append(math.sqrt(sum(squares) / len(squares)))
    return _orders(out, 1.9)


def _quartic():
    """Two families of swirl fields: bump sums (seed 17) and white noise
    scaled by 10^U(-3, 3) (seed 20240817)."""
    g = _grid(24, 24)
    zero = zeros_field(g)
    bumps = np.random.default_rng(17)
    noise = np.random.default_rng(20240817)
    fields = [bump_field(random_bump_terms(bumps, g.spec.R), g) for _ in range(1000)]
    fields += [
        ScalarField(g, 10.0 ** noise.uniform(-3, 3) * noise.standard_normal((g.nr, g.nz)), EVEN)
        for _ in range(1000)
    ]
    bad = 0
    for u1 in fields:
        inst = instantaneous(State(u1=u1, omega1=zero, psi1=zero, t=0.0), 4)
        bad += not inst["quartic_lhs"] <= inst["quartic_rhs"]
    return bad == 0, f"{bad} violations in 1000 bump and 1000 noise states"


def _swirl_state(g, c: float, s: int) -> State:
    """A state whose weighted swirl r^(2 - 3/s) u1 is the constant c."""
    u1 = np.repeat(c * g.r[:, None] ** (3.0 / s - 2.0), g.nz, axis=1)
    return State(u1=ScalarField(g, u1, EVEN), omega1=zeros_field(g), psi1=zeros_field(g), t=0.0)


def _lpq_constant():
    """Every (p, q) pair on constant ualpha_norm series at s = 3, 4, 7: on a
    48x32 and a 32x32 grid, each with its own value, times and horizon T."""
    inf = math.inf
    pairs = (
        (2.0, 2.0),
        (4.0, 3.0),
        (4.0, 2.0),
        (3.0, 7.0),
        (3.0, 5.0),
        (inf, 2.0),
        (2.0, inf),
        (inf, 3.0),
        (inf, inf),
    )
    errs = []
    for nr, nz, c, times in ((48, 32, 1.375, (0.0, 0.44, 1.1)), (32, 32, 0.75, (0.0, 0.8, 2.0))):
        g = _grid(nr, nz)
        vol = np.pi * g.spec.R**2 * g.spec.Lz
        for s in (3, 4, 7):
            st = _swirl_state(g, c, s)
            for p, q in pairs:
                vp = 1.0 if math.isinf(p) else vol ** (1.0 / p)
                tq = 1.0 if math.isinf(q) else times[-1] ** (1.0 / q)
                got = lpq_norm([(t, diagnostics.ualpha_norm(st, s, p)) for t in times], q)
                errs.append(abs(got - c * vp * tq) / (c * vp * tq))
    return all(e <= 1e-12 for e in errs), f"worst rel err {max(errs):.2e}"


def _lpq_step():
    # two-level step in time: symmetric sampling makes the trapezoid exact
    g = _grid(48, 32)
    c1, c2, delta, T = 0.75, 1.5, 1e-3, 1.1
    p, q, s = 2.0, 3.0, 4
    vol = np.pi * g.spec.R**2 * g.spec.Lz
    times = ((0.0, c1), (T / 2 - delta, c1), (T / 2 + delta, c2), (T, c2))
    samples = [(t, diagnostics.ualpha_norm(_swirl_state(g, c, s), s, p)) for t, c in times]
    got = lpq_norm(samples, q)
    expect = ((c1**q + c2**q) * vol ** (q / p) * T / 2.0) ** (1.0 / q)
    return abs(got - expect) <= 1e-12 * expect, f"rel err {abs(got - expect) / expect:.2e}"


@cache
def _offline_run():
    """Rows of a short live run, of the same series recomputed from its
    snapshots, and of its series.csv read back."""
    cfg = _unit_config("gaussian_ring", 32, nu=0.1, t_end=0.05, cfl=0.5, output_every=3)
    with tempfile.TemporaryDirectory() as tmp:
        _, live = run(cfg, out_dir=tmp)
        offline = CriteriaSeries()
        for st in read_snapshot_dir(Path(tmp) / "snapshots"):
            diagnostics.sample(st, offline)
        stored = read_series(Path(tmp) / "series.csv")
    return live.rows, offline.rows, stored


def _table(rows) -> np.ndarray:
    return np.array([[getattr(row, col) for col in COLUMNS] for row in rows])


def _offline_matches_live():
    live, offline, _ = _offline_run()
    if not len(offline) == len(live) >= 3:
        return False, f"{len(live)} live rows, {len(offline)} offline rows"
    a, b = _table(live), _table(offline)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    worst = float(np.max(np.abs(a - b) / scale))
    return np.array_equal(a, b), f"{len(live)} rows, worst rel diff {worst:.2e}"


def _csv_round_trip():
    live, offline, stored = _offline_run()
    ok = len(stored) == len(live) == len(offline) >= 3
    return ok and np.array_equal(_table(live), _table(stored)), f"{len(stored)} rows stored"


def _integrals_nondecreasing():
    live, _, _ = _offline_run()
    cols = [k for k, col in enumerate(COLUMNS) if col.endswith("_int")]
    ints = _table(live)[:, cols]
    return bool(np.all(ints[:-1] <= ints[1:])), ""


# ---- elliptic: the stream solve ----


@cache
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
        grid = _grid(n, n)
        om = field_from_function(
            grid,
            lambda r, z: (16.0 * R * R - 24.0 * r * r + kap * kap * (R * R - r * r) ** 2)
            * np.cos(kap * z),
            EVEN,
        )
        psi = solve_stream(om)
        exact = field_from_function(grid, lambda r, z: (R * R - r * r) ** 2 * np.cos(kap * z), EVEN)
        diff = ScalarField(grid, psi.values - exact.values, EVEN)
        errors.append(norm_l2(diff) / norm_l2(exact))
        residuals.append(stream_residual(psi, om) / norm_l2(om))
    return errors, residuals


def _elliptic_residual():
    residuals = elliptic_study()[1]
    return all(r <= 1e-10 for r in residuals), f"worst {max(residuals):.2e}"


def _random_sources():
    g = _grid(48, 32)
    rng = np.random.default_rng(23)
    return [bump_field(random_bump_terms(rng, g.spec.R), g) for _ in range(6)]


def _random_source_residual():
    res = [stream_residual(solve_stream(om), om) / norm_l2(om) for om in _random_sources()]
    return all(r <= 1e-10 for r in res), f"worst {max(res):.2e}"


def _nonnegative_psi():
    floors = []
    for om in _random_sources():
        psi = solve_stream(ScalarField(om.grid, np.abs(om.values), EVEN)).values
        floors.append(float(np.min(psi)) / float(np.max(np.abs(psi))))
    return all(f >= -1e-13 for f in floors), f"min psi / max |psi| {min(floors):.2e}"


# ---- energy, maxprinciple, lemma33: along the four reference runs ----


@cache
def _rows(name: str, nu: float):
    return run(_unit_config(name, 64, nu, t_end=1.0, cfl=0.5, output_every=5))[1].rows


def _energy_monotone(name, nu):
    rows = _rows(name, nu)
    return all(b.E <= a.E * (1.0 + 1e-9) for a, b in zip(rows, rows[1:])), ""


def _energy_balance(name, nu):
    rows = _rows(name, nu)
    E0 = rows[0].E
    diss = float(np.trapezoid([r.D for r in rows], [r.t for r in rows]))
    defect = abs(rows[-1].E - E0 + nu * diss)
    return defect <= 1e-3 * E0, f"defect {defect / E0:.2e} of E(0)"


def _energy_drop(name, nu):
    rows = _rows(name, nu)
    E0 = rows[0].E
    ok = all(
        b.E - a.E <= -0.5 * nu * min(a.D, b.D) * (b.t - a.t) + 1e-6 * E0
        for a, b in zip(rows, rows[1:])
    )
    return ok, ""


def _vorticity_budget(name, nu):
    lhs, rhs = omega1_budget(_rows(name, nu), nu)
    excess = float(np.max(lhs - 1.01 * rhs))
    return bool(np.all(lhs <= 1.01 * rhs)), f"max excess {excess:.2e}"


def _swirl_maximum(name, nu):
    rows = _rows(name, nu)
    sup0 = rows[0].swirl_sup
    ok = all(r.swirl_sup <= (1.0 + 1e-10) * sup0 for r in rows)
    worst = max(r.swirl_sup for r in rows)
    return ok, f"max/initial - 1 = {worst / sup0 - 1.0:.2e}"


def _run_ratio(name, nu):
    ok, worst = True, 0.0
    for row in _rows(name, nu):
        if row.critB > 0.0:
            worst = max(worst, row.critA / row.critB)
            ok = ok and row.critA <= 2.0 * row.critB
        else:
            ok = ok and row.critA == 0.0
    return ok, f"max ratio {worst:.3f}"


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


@cache
def _sharp(n: int) -> tuple[float, int, float]:
    """(C_n, k, rel): criteria_constant on the n x n grid, and the relative
    distance from C_n of critA / critB of its maximizer via instantaneous."""
    g = _grid(n, n)
    C, k, profile = criteria_constant(g)
    om1 = ScalarField(g, np.outer(profile, np.cos(2.0 * np.pi * k * g.z / g.spec.Lz)), EVEN)
    st = State(u1=zeros_field(g), omega1=om1, psi1=solve_stream(om1), t=0.0)
    inst = instantaneous(st, 4)
    return C, k, abs(inst["critA"] / inst["critB"] - C) / C


def _sharp_detail() -> str:
    return ", ".join("C_%d %.5f (k=%d)" % (n, *_sharp(n)[:2]) for n in (64, 128))


def _sharp_bounded():
    worst = max(_sharp(n)[2] for n in (64, 128))
    ok = _sharp(64)[0] <= 2.0 and _sharp(128)[0] <= 2.0 and worst <= 1e-10
    return ok, f"{_sharp_detail()}, maximizer rel err {worst:.1e}"


def _sharp_drift():
    drift = abs(_sharp(128)[0] - _sharp(64)[0]) / _sharp(64)[0]
    return drift < 0.05, f"drift {drift:.2%}, {_sharp_detail()}"


# ---- mms: forced manufactured runs and the swirl decay ----


def _field_error(state: State, u1: np.ndarray, om1: np.ndarray) -> float:
    """sqrt(||state.u1 - u1||^2 + ||state.omega1 - om1||^2), L2 volume norms."""
    du = ScalarField(state.grid, state.u1.values - u1, EVEN)
    dom = ScalarField(state.grid, state.omega1.values - om1, EVEN)
    return math.sqrt(norm_l2(du) ** 2 + norm_l2(dom) ** 2)


def dynamics_spatial_study():
    """Forced-run recovery of the manufactured fields at t_end = 0.25,
    nu = 0.1, one error per level at 32^2, 64^2 and 128^2.  The adaptive
    step is diffusion-limited (dt ~ h^2), so the temporal error rides far
    below the spatial one, and the errors must converge at order 1.9."""
    errors = []
    for n in (32, 64, 128):
        cfg = _unit_config("manufactured", n, nu=0.1, t_end=0.25, cfl=0.4)
        final, _ = run(cfg)
        man = manufactured_solution(final.grid, nu=None, scenario=cfg.scenario)
        errors.append(_field_error(final, man.u1(final.t), man.om1(final.t)))
    return _orders(errors, 1.9)


def _criteria_closed_forms():
    """critA(T), critB(T), critA_int and critB_int of the forced manufactured
    run (T = 0.25, nu = 0.1, cfl 0.4, output_every 5) against their closed
    forms at 16^2, 32^2 and 64^2, exact on manufactured_solution's Psi and Om
    (psi1* = a Psi cos(kappa z), om1* = a Om cos(kappa z), a = exp(-t)):
    critA = a^2 pi kappa^2 Lz int_0^R Psi^2 dr, critB = a^2 pi Lz int_0^R
    r^2 Om^2 dr and critX_int(T) = critX(0) (1 - exp(-2 T)) / 2."""
    errors = []
    for n in (16, 32, 64):
        cfg = _unit_config("manufactured", n, nu=0.1, t_end=0.25, cfl=0.4, output_every=5)
        final, series = run(cfg)
        man = manufactured_solution(final.grid, nu=None, scenario=cfg.scenario)
        R, Lz = cfg.grid.R, cfg.grid.Lz
        kappa_psi, r_om = 2.0 * np.pi * cfg.scenario.mode_k / Lz * man.Psi, man.Om * [0.0, 1.0]
        crit0 = np.array([np.pi * Lz * (p * p).integ()(R) for p in (kappa_psi, r_om)])  # t = 0
        a2, last = math.exp(-2.0 * final.t), series.rows[-1]
        exact = np.concatenate([a2 * crit0, 0.5 * (1.0 - a2) * crit0])
        got = np.array([last.critA, last.critB, last.critA_int, last.critB_int])
        errors.append(np.abs(got - exact) / exact)
    checks = [_orders(col, 1.9) for col in np.array(errors).T]
    names = ("critA", "critB", "critA_int", "critB_int")
    return all(ok for ok, _ in checks), "; ".join(f"{k} {d}" for k, (_, d) in zip(names, checks))


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
    cfg = _unit_config("manufactured", 32, nu, t_end, cfl=0.8)
    ddt = diffusive_dt(make_grid(cfg.grid), nu)
    n0 = max(4, math.ceil(t_end / (0.8 * ddt)))

    def final(n: int) -> State:
        return run(replace(cfg, cfl=t_end / (n * ddt)))[0]

    ref = final(n0 * 16)
    return [_field_error(final(n0 * 2**j), ref.u1.values, ref.omega1.values) for j in range(3)]


def swirl_decay_error():
    """Relative error of the slowest swirl mode against exp(-nu kap^2 t) at
    t = 0.5, nu = 0.1, on a 64 x 128 grid over R = 2, Lz = 1, stepped by
    run; it passes at 1e-3.

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
    decay = abs(measured - expect) / expect
    return decay <= 1e-3, f"rel err {decay:.2e}"


# ---- axns convergence: self-refinement of any configured problem ----


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
        finals.append(run(replace(cfg, grid=spec, output_every=10_000_000))[0])
    return [
        _field_error(coarse, _restrict(fine.u1.values), _restrict(fine.omega1.values))
        for coarse, fine in zip(finals, finals[1:])
    ]


def _per_run(suite: str, checks) -> list[Check]:
    return [
        Check(suite, f"{name} nu={nu}: {label}", partial(fn, name, nu))
        for name, nu in ACCEPTANCE_CASES
        for label, fn in checks
    ]


CHECKS: tuple[Check, ...] = (
    Check("ops", "quadrature: total volume = pi R^2 Lz", _total_volume),
    Check("ops", "quadrature: int r dx matches midpoint closed form", _midpoint_r),
    Check("ops", "stencils: radial derivative order >= 1.9", partial(_stencil_order, d_dr, 1)),
    Check("ops", "stencils: axial derivative order >= 1.9", partial(_stencil_order, d_dz, 2)),
    Check("ops", "axial derivative is skew-adjoint under the quadrature", _axial_skew),
    Check("ops", "divergence residual of reconstructed velocity: order >= 1.9", divergence_study),
    Check("ops", "quartic bound lhs <= rhs on 2000 random states, no tolerance", _quartic),
    Check("ops", "space-time norm of constant field = c V^(1/p) T^(1/q)", _lpq_constant),
    Check("ops", "space-time norm of a two-level step matches the closed form", _lpq_step),
    Check(
        "ops",
        "offline recomputation from snapshots matches the live series",
        _offline_matches_live,
    ),
    Check("ops", "series CSV round trip is value-exact", _csv_round_trip),
    Check("ops", "running integrals are nondecreasing", _integrals_nondecreasing),
    Check(
        "elliptic",
        "stream solve recovers the closed-form solution at order >= 1.9",
        lambda: _orders(elliptic_study()[0], 1.9),
    ),
    Check("elliptic", "stream solve residual <= 1e-10 of the source norm", _elliptic_residual),
    Check("elliptic", "stream solve residual on random sources <= 1e-10", _random_source_residual),
    Check(
        "elliptic", "nonnegative vorticity gives nonnegative stream function", _nonnegative_psi
    ),
    *_per_run(
        "energy",
        (
            ("energy non-increasing row to row", _energy_monotone),
            ("|E(T) - E(0) + nu int D| <= 1e-3 E(0)", _energy_balance),
            ("per-row drop covers half the predicted dissipation", _energy_drop),
            ("vorticity budget lhs <= 1.01 rhs at every row", _vorticity_budget),
        ),
    ),
    *_per_run(
        "maxprinciple",
        (("swirl maximum never exceeds its initial value", _swirl_maximum),),
    ),
    Check("lemma33", "sharp criteria constant C_n <= 2.0 at n = 64, 128", _sharp_bounded),
    Check("lemma33", "sharp criteria constant moves < 5% under refinement", _sharp_drift),
    *_per_run("lemma33", (("criteria ratio <= 2.0 along the run", _run_ratio),)),
    Check("mms", "forced-run recovery: spatial order >= 1.9", dynamics_spatial_study),
    Check(
        "mms",
        "forced-run critA, critB and their integrals match closed forms: order >= 1.9",
        _criteria_closed_forms,
    ),
    Check(
        "mms",
        "forced-run recovery: temporal order >= 2.9",
        lambda: _orders(dynamics_temporal_study(), 2.9),
    ),
    Check(
        "mms",
        "small-amplitude swirl decays at exp(-nu (2 pi / Lz)^2 t) to 1e-3",
        swirl_decay_error,
    ),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def run_suites(names) -> bool:
    """Run and print every check of the named suites; True if all pass."""
    results = []
    for suite in names:
        print(f"== suite {suite} ==")
        for check in CHECKS:
            if check.suite != suite:
                continue
            ok, detail = check.fn()
            results.append(bool(ok))
            line = f"[{'pass' if ok else 'FAIL'}] {check.name}"
            print(line + (f"  ({detail})" if detail else ""))
    print(f"{sum(results)}/{len(results)} checks passed")
    return all(results)
