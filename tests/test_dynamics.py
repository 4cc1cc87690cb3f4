"""Tendency assembly, step-size control, and the time loop."""

import dataclasses
import math

import numpy as np
import pytest

from axns.diagnostics import COLUMNS
from axns.dynamics import (
    BlowUpError,
    SolverConfig,
    diffusive_dt,
    rhs,
    run,
    stable_dt,
    step,
)
from axns.elliptic import solve_stream
from axns.grid import (
    EVEN,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    make_grid,
    modified_laplacian,
)
from axns.kinematics import State
from axns.scenarios import Scenario, init_scenario, manufactured_solution
from axns.storage import read_snapshot
from conftest import make_state, velocity


def swirl_cfg(grid_spec, nu=1.0, cfl=0.5, t_end=1.0):
    return SolverConfig(
        nu=nu, cfl=cfl, t_end=t_end, grid=grid_spec, scenario=Scenario(name="zero")
    )


def tendency(state, cfg, t, forcing=None):
    """rhs on the arrays of a State."""
    fields = (state.u1.values, state.omega1.values, state.psi1.values)
    return rhs(state.grid, *fields, cfg.nu, t, forcing)


def reference_rhs(state, nu, t, forcing=None):
    """The tendency composed from the public ScalarField operators, in the
    same arithmetic order as the array kernel."""
    g = state.grid
    r = g.r[:, None]
    u1 = state.u1
    om1 = state.omega1
    dpsi_dz = d_dz(state.psi1).values
    vr = -r * dpsi_dz
    vz = 2.0 * state.psi1.values + r * d_dr(state.psi1).values
    du1 = (
        -(vr * d_dr(u1).values + vz * d_dz(u1).values)
        + nu * modified_laplacian(u1).values
        + 2.0 * u1.values * dpsi_dz
    )
    dom1 = (
        -(vr * d_dr(om1).values + vz * d_dz(om1).values)
        + nu * modified_laplacian(om1).values
        + 2.0 * u1.values * d_dz(u1).values
    )
    if forcing is not None:
        du1 += forcing.f_u(t)
        dom1 += forcing.f_om(t)
    return du1, dom1


def reference_step(state, dt, nu, forcing=None):
    """SSP-RK3 built from reference_rhs, with a State after every stage."""
    g = state.grid
    t = state.t

    def advance(u, w, t_stage):
        om = ScalarField(g, w, EVEN)
        return State(ScalarField(g, u, EVEN), om, solve_stream(om), t_stage)

    u0, w0 = state.u1.values, state.omega1.values
    du, dw = reference_rhs(state, nu, t, forcing)
    u_a, w_a = u0 + dt * du, w0 + dt * dw
    s1 = advance(u_a, w_a, t + dt)
    du, dw = reference_rhs(s1, nu, t + dt, forcing)
    u_b = 0.75 * u0 + 0.25 * (u_a + dt * du)
    w_b = 0.75 * w0 + 0.25 * (w_a + dt * dw)
    s2 = advance(u_b, w_b, t + 0.5 * dt)
    du, dw = reference_rhs(s2, nu, t + 0.5 * dt, forcing)
    u_n = u0 / 3.0 + (2.0 / 3.0) * (u_b + dt * du)
    w_n = w0 / 3.0 + (2.0 / 3.0) * (w_b + dt * dw)
    return advance(u_n, w_n, t + dt)


def random_state(grid, seed, t=0.0):
    rng = np.random.default_rng(seed)
    shape = (grid.nr, grid.nz)
    om = ScalarField(grid, rng.standard_normal(shape), EVEN)
    return State(
        u1=ScalarField(grid, rng.standard_normal(shape), EVEN),
        omega1=om,
        psi1=solve_stream(om),
        t=t,
    )


@pytest.fixture(scope="module")
def grid16x12():
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=16, nz=12))


@pytest.fixture(scope="module", params=["unforced", "forced"])
def forcing(request, grid16x12):
    if request.param == "unforced":
        return None
    sc = Scenario(name="manufactured", amplitude=0.7, mode_k=1)
    return manufactured_solution(grid16x12, nu=0.1, scenario=sc)


def test_rhs_matches_reference_bitwise(grid16x12, forcing):
    state = random_state(grid16x12, seed=41, t=0.3)
    cfg = swirl_cfg(grid16x12.spec, nu=0.1)
    got = tendency(state, cfg, state.t, forcing)
    want = reference_rhs(state, 0.1, state.t, forcing)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_step_matches_reference_bitwise(grid16x12, forcing):
    state = random_state(grid16x12, seed=42, t=0.3)
    cfg = swirl_cfg(grid16x12.spec, nu=0.1, t_end=1.0)
    dt = 1e-3
    got = step(state, dt, cfg, forcing)
    want = reference_step(state, dt, 0.1, forcing)
    assert got.t == want.t
    for name in ("u1", "omega1", "psi1"):
        assert np.array_equal(getattr(got, name).values, getattr(want, name).values)


def test_step_result_does_not_alias_the_workspace(grid16, grid16x12):
    # every step on one grid shares that grid's workspace; the State a step
    # returns must own its arrays
    starts = {g: random_state(g, seed=43) for g in (grid16, grid16x12)}
    cfg = {g: swirl_cfg(g.spec, nu=0.1) for g in starts}

    def fields(st):
        return b"".join(getattr(st, f).values.tobytes() for f in ("u1", "omega1", "psi1"))

    alone = {}
    for g, st in starts.items():
        alone[g] = []
        for _ in range(3):
            st = step(st, 1e-3, cfg[g])
            alone[g].append(fields(st))
    first = step(starts[grid16], 1e-3, cfg[grid16])
    kept = fields(first)
    step(first, 1e-3, cfg[grid16])
    assert fields(first) == kept
    current = dict(starts)
    for i in range(3):
        for g in starts:
            current[g] = step(current[g], 1e-3, cfg[g])
            assert fields(current[g]) == alone[g][i]


def test_step_allocates_few_full_size_arrays(grid64, traced_peak):
    # warmed up: the workspace and the stream factor exist; what is left is
    # the returned State and the stream solves
    sc = Scenario(name="gaussian_ring", amplitude=1.0)
    state = init_scenario(sc, grid64)
    cfg = swirl_cfg(grid64.spec, nu=0.05)
    state = step(state, 1e-4, cfg)
    full = grid64.nr * grid64.nz * 8
    assert traced_peak(lambda: step(state, 1e-4, cfg)) <= 8 * full


def test_stable_dt_allocates_no_full_size_temporaries(grid64, traced_peak):
    # warmed up: v_r and v_z live in the workspace and r is a full-size
    # workspace constant, so no iterator buffer either (about 0.04 arrays)
    state = init_scenario(Scenario(name="gaussian_ring", amplitude=1.0), grid64)
    cfg = swirl_cfg(grid64.spec, nu=0.05)
    dt = stable_dt(state, cfg)
    full = grid64.nr * grid64.nz * 8
    assert traced_peak(lambda: stable_dt(state, cfg)) <= 0.25 * full
    assert stable_dt(state, cfg) == dt


@pytest.mark.parametrize(
    "kw",
    [
        dict(nu=0.0),
        dict(nu=-0.1),
        dict(cfl=0.0),
        dict(cfl=1.5),
        dict(t_end=-1.0),
        dict(output_every=0),
    ],
)
def test_config_validation(kw):
    base = dict(
        nu=0.1, cfl=0.5, t_end=1.0, grid=GridSpec(R=1.0, Lz=1.0, nr=8, nz=8)
    )
    base.update(kw)
    with pytest.raises(ValueError):
        SolverConfig(**base)


def test_rhs_pure_swirl_diffusion(grid64):
    # u1 = cos(k z), om1 = psi1 = 0: no advection, no stretching source for
    # u1, so du1 is the discrete diffusion -mu cos(k z) with the exact
    # second-difference symbol mu = (2 - 2 cos(k dz))/dz^2; r-independence
    # kills the radial part on every ring but the wall.
    g = grid64
    k = 2 * np.pi
    u1 = field_from_function(g, lambda r, z: np.cos(k * z) + 0 * r, EVEN)
    cfg = swirl_cfg(GridSpec(R=1.0, Lz=1.0, nr=g.nr, nz=g.nz), nu=1.0)
    du1, _ = tendency(make_state(g, u1=u1), cfg, 0.0)
    mu = (2.0 - 2.0 * math.cos(k * g.dz)) / g.dz**2
    want = -mu * np.cos(k * g.z)[None, :]
    got = du1[:-1]
    assert np.allclose(got, np.broadcast_to(want, got.shape), atol=1e-11)
    assert math.isclose(mu, k**2, rel_tol=(k * g.dz) ** 2)


def test_rhs_vortex_stretching_source(grid64):
    # same state: dom1 = 2 u1 d_dz(u1) = -(sin(k dz)/dz) sin(2 k z) at every
    # node, no radial stencil involved
    g = grid64
    k = 2 * np.pi
    u1 = field_from_function(g, lambda r, z: np.cos(k * z) + 0 * r, EVEN)
    cfg = swirl_cfg(GridSpec(R=1.0, Lz=1.0, nr=g.nr, nz=g.nz), nu=1.0)
    _, dom1 = tendency(make_state(g, u1=u1), cfg, 0.0)
    ktil = math.sin(k * g.dz) / g.dz
    want = -ktil * np.sin(2 * k * g.z)[None, :] * np.ones((g.nr, 1))
    assert np.allclose(dom1, want, atol=1e-12)


def test_rhs_swirl_stretching_term(grid32):
    # u1 constant in z, psi1 single z mode: advection vanishes for u1 only
    # through v.grad u1 = vr d_dr(u1); pick u1 r-independent so the whole
    # tendency reduces to nu lap(u1) + 2 u1 psi1_z
    g = grid32
    k = 2 * np.pi
    u1 = field_from_function(g, lambda r, z: 1.0 + 0 * r, EVEN)
    psi = field_from_function(g, lambda r, z: np.sin(k * z) + 0 * r, EVEN)
    cfg = swirl_cfg(GridSpec(R=1.0, Lz=1.0, nr=g.nr, nz=g.nz), nu=1.0)
    du1, _ = tendency(make_state(g, u1=u1, psi1=psi), cfg, 0.0)
    ktil = math.sin(k * g.dz) / g.dz
    want = 2.0 * ktil * np.cos(k * g.z)[None, :] * np.ones((g.nr, 1))
    assert np.allclose(du1[:-1], want[:-1], atol=1e-11)


def test_stable_dt_diffusive_limit():
    spec = GridSpec(R=1.0, Lz=1.0, nr=16, nz=16)
    g = make_grid(spec)
    cfg = swirl_cfg(spec, nu=1.0, cfl=0.5)
    dt = stable_dt(make_state(g), cfg)
    # dr = dz = h: h^2 h^2 / (2 nu (h^2 + h^2)) = h^2 / (4 nu)
    assert math.isclose(dt, 0.5 * g.dr**2 / 4.0, rel_tol=1e-12)


def test_stable_dt_advective_limit():
    spec = GridSpec(R=1.0, Lz=1.0, nr=16, nz=10)
    g = make_grid(spec)
    # psi1 = c gives v_z = 2c away from the wall; pick c so advection binds
    psi = field_from_function(g, lambda r, z: 5.0 + 0 * r, EVEN)
    state = make_state(g, psi1=psi)
    cfg = SolverConfig(nu=1e-6, cfl=0.5, t_end=100.0, grid=spec)
    vz_max = float(np.max(np.abs(velocity(state)[1])))
    dt = stable_dt(state, cfg)
    assert math.isclose(dt, 0.5 * g.dz / vz_max, rel_tol=1e-12)


@pytest.mark.parametrize("nu", [1e-6, 0.1, 10.0])
def test_stable_dt_matches_reconstructed_velocity_guard(grid16x12, nu):
    # the guard as written on the six reconstructed components; nu = 1e-6
    # is bound by advection, nu = 10 by diffusion
    state = random_state(grid16x12, seed=43, t=0.2)
    cfg = SolverConfig(nu=nu, cfl=0.5, t_end=1.0, grid=grid16x12.spec)
    g = grid16x12
    v_r, v_z = velocity(state)
    guards = [
        (g.dr * g.dr * g.dz * g.dz) / (2.0 * nu * (g.dr * g.dr + g.dz * g.dz)),
        g.dr / float(np.max(np.abs(v_r))),
        g.dz / float(np.max(np.abs(v_z))),
    ]
    want = min(0.5 * min(guards), cfg.t_end - state.t)
    assert stable_dt(state, cfg) == want


def test_stable_dt_clamps_to_remaining_time():
    # at rest only the diffusion limit, cfl h^2 / (4 nu) = 2^-9 here, is a
    # guard; 2^-20 of time left binds exactly
    spec = GridSpec(R=1.0, Lz=1.0, nr=8, nz=8)
    g = make_grid(spec)
    cfg = SolverConfig(nu=1.0, cfl=0.5, t_end=1.0 + 2.0**-20, grid=spec)
    assert 0.5 * diffusive_dt(g, 1.0) == 2.0**-9
    assert stable_dt(make_state(g, t=1.0), cfg) == 2.0**-20


@pytest.mark.parametrize(
    "key,value", [("nu", 0.0), ("cfl", 2.0)], ids=["nu0", "cfl2"]
)
def test_config_rejected_at_construction(key, value):
    # a SolverConfig that exists is valid: the checks run when it is built,
    # again under dataclasses.replace, and its fields cannot be reassigned
    spec = GridSpec(R=1.0, Lz=1.0, nr=8, nz=8)
    cfg = SolverConfig(nu=0.1, cfl=0.5, t_end=1.0, grid=spec)
    with pytest.raises(ValueError, match=key):
        SolverConfig(**{**vars(cfg), key: value})
    with pytest.raises(ValueError, match=key):
        dataclasses.replace(cfg, **{key: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, key, value)
    with pytest.raises(ValueError, match="nr must be at least 4"):
        GridSpec(R=1.0, Lz=1.0, nr=3, nz=8)


@pytest.mark.parametrize(
    "field,value",
    [
        ("nr", 8.0),
        ("nz", np.float64(8)),
        ("output_every", 2.5),
        ("mode_k", 1.5),
        ("output_every", True),
        ("mode_k", True),
        ("nr", True),
    ],
)
def test_counts_must_be_integers(field, value):
    # the parser's int() never lets these through; construction and
    # dataclasses.replace must not either, while numpy integers still pass
    spec = GridSpec(R=1.0, Lz=1.0, nr=np.int64(8), nz=np.int64(8))
    sc = Scenario("pure_swirl", mode_k=np.int64(2))
    cfg = SolverConfig(
        nu=0.1, cfl=0.5, t_end=1.0, grid=spec, scenario=sc, output_every=np.int64(3)
    )
    init_scenario(sc, make_grid(spec))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        if field in ("nr", "nz"):
            dataclasses.replace(spec, **{field: value})
        elif field == "mode_k":
            dataclasses.replace(cfg, scenario=dataclasses.replace(sc, mode_k=value))
        else:
            dataclasses.replace(cfg, **{field: value})


def test_step_fixed_point(grid16):
    spec = GridSpec(R=1.0, Lz=1.0, nr=grid16.nr, nz=grid16.nz)
    cfg = swirl_cfg(spec, nu=0.3)
    out = step(make_state(grid16), 0.01, cfg)
    assert out.t == 0.01
    for f in (out.u1, out.omega1, out.psi1):
        assert np.max(np.abs(f.values)) == 0.0


def test_step_blowup_detection(grid16):
    spec = GridSpec(R=1.0, Lz=1.0, nr=grid16.nr, nz=grid16.nz)
    cfg = swirl_cfg(spec, nu=0.3)
    # z-dependent swirl so the quadratic stretching source overflows
    huge = field_from_function(
        grid16, lambda r, z: 1e200 * np.cos(2 * np.pi * z) + 0 * r, EVEN
    )
    with np.errstate(over="ignore"), pytest.raises(BlowUpError):
        step(make_state(grid16, u1=huge, om1=huge), 1.0, cfg)


# the step scans only om1 at each stage: a u1 that overflows at stage 1
# (A = 1e307) must reach om1 through 2 u1 d_dz(u1) at stage 2, and one that
# overflows only at stage 3 (A = 1e305) is caught by the returned State
@pytest.mark.parametrize("amplitude", [1e307, 1e305])
def test_step_blowup_detection_u1_only(grid16, amplitude):
    cfg = swirl_cfg(grid16.spec, nu=0.3)
    u1 = field_from_function(grid16, lambda r, z: amplitude * (1.0 - r * r) + 0 * z, EVEN)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
        step(make_state(grid16, u1=u1), 1.0, cfg)


def test_step_rejects_forcing_of_another_grid(grid16x12):
    sc = Scenario(name="manufactured", amplitude=0.7, mode_k=1)
    other = manufactured_solution(make_grid(grid16x12.spec), nu=0.1, scenario=sc)
    cfg = swirl_cfg(grid16x12.spec, nu=0.1)
    with pytest.raises(ValueError, match="another grid"):  # not a BlowUpError
        step(random_state(grid16x12, seed=43), 1e-3, cfg, other)


def test_run_zero_scenario_stays_zero(tmp_path):
    spec = GridSpec(R=1.0, Lz=1.0, nr=16, nz=16)
    cfg = SolverConfig(nu=0.5, cfl=0.5, t_end=0.05, grid=spec)
    final, series = run(cfg, out_dir=tmp_path)
    assert math.isclose(final.t, 0.05, rel_tol=1e-12)
    assert np.max(np.abs(final.u1.values)) == 0.0
    assert series.rows[-1].E == 0.0
    snaps = sorted((tmp_path / "snapshots").glob("*.axns"))
    assert len(snaps) == len(series.rows)
    last, _ = read_snapshot(snaps[-1])
    assert last.t == final.t
    assert np.array_equal(last.u1.values, final.u1.values)


def test_run_zero_t_end_single_row(tmp_path):
    spec = GridSpec(R=1.0, Lz=1.0, nr=16, nz=16)
    cfg = SolverConfig(
        nu=0.1,
        cfl=0.5,
        t_end=0.0,
        grid=spec,
        scenario=Scenario(name="gaussian_ring", amplitude=1.0),
    )
    final, series = run(cfg, out_dir=tmp_path)
    assert final.t == 0.0
    assert len(series.rows) == 1
    assert len(list((tmp_path / "snapshots").glob("*.axns"))) == 1
    assert series.rows[0].E > 0.0


def test_run_decays_gaussian_ring():
    spec = GridSpec(R=1.0, Lz=1.0, nr=32, nz=32)
    cfg = SolverConfig(
        nu=0.2,
        cfl=0.5,
        t_end=0.1,
        grid=spec,
        scenario=Scenario(name="gaussian_ring", amplitude=1.0),
        output_every=5,
    )
    final, series = run(cfg)
    E = [row.E for row in series.rows]
    assert len(E) >= 3
    assert E[-1] < E[0]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(E, E[1:]))
    t = [row.t for row in series.rows]
    assert all(b > a for a, b in zip(t, t[1:]))
    assert math.isclose(t[-1], 0.1, rel_tol=1e-9)


def test_run_memory_does_not_grow_with_rows(traced_peak):
    # every step sampled (dt = 6.1e-4): about 5 rows against about 41
    def run_to(t_end):
        cfg = SolverConfig(
            nu=0.2,
            cfl=0.5,
            t_end=t_end,
            grid=GridSpec(R=1.0, Lz=1.0, nr=32, nz=32),
            scenario=Scenario(name="gaussian_ring", amplitude=1.0),
            output_every=1,
        )
        return lambda: run(cfg)

    run_to(0.0025)()  # warm-up
    short = traced_peak(run_to(0.0025))
    long = traced_peak(run_to(0.025))
    assert long <= 1.5 * short, (short, long)


# power m of lambda that each monitor column picks up under the scaling map
SCALING_POWERS = {
    "t": -2, "E": -1, "D": 1, "critA": 2, "critB": 2, "critA_int": 0, "critB_int": 0,
    "swirl_sup": 0, "om1_l2": 1.5, "om1_grad_int": 3, "u1_l4_int": 3, "ualpha_s": 0,
    "quartic_lhs": 1, "quartic_rhs": 1,
}


def test_run_is_exactly_covariant_under_navier_stokes_scaling():
    # v -> lam v(lam x, lam^2 t) at fixed nu maps (u1, om1, psi1) to
    # (lam^2 u1, lam^3 om1, lam psi1) on the cylinder shrunk by lam, up to
    # t_end / lam^2.  For lam a power of 2 every grid constant, stencil
    # coefficient and step size scales by a power of 2, so every operation
    # scales exactly; om1_l2's lam^1.5 is inexact at lam = 2
    def pure_swirl(lam):
        cfg = SolverConfig(
            nu=0.02,
            cfl=0.5,
            t_end=0.3 / lam**2,
            grid=GridSpec(R=1.0 / lam, Lz=1.0 / lam, nr=32, nz=32),
            scenario=Scenario(name="pure_swirl", amplitude=3.0 * lam**2),
            output_every=5,
        )
        return run(cfg)

    final, series = pure_swirl(1)
    assert set(SCALING_POWERS) == set(COLUMNS)
    for lam in (2, 4):
        got, got_series = pure_swirl(lam)
        assert np.array_equal(got.u1.values, lam**2 * final.u1.values)
        assert np.array_equal(got.omega1.values, lam**3 * final.omega1.values)
        assert np.array_equal(got.psi1.values, lam * final.psi1.values)
        assert len(got_series.rows) == len(series.rows)
        for row, want_row in zip(got_series.rows, series.rows):
            for col, m in SCALING_POWERS.items():
                value, want = getattr(row, col), lam**m * getattr(want_row, col)
                if col == "om1_l2" and lam == 2:
                    assert abs(value - want) <= np.spacing(want), (lam, col, row.t)
                else:
                    assert value == want, (lam, col, row.t)
