"""Every streamed array starts on a 64-byte boundary, and no result depends
on where an input array starts."""

import numpy as np
import pytest

from axns.diagnostics import instantaneous
from axns.dynamics import SolverConfig, rhs, stable_dt, step
from axns.grid import (
    ALIGN,
    EVEN,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    empty,
    field_from_function,
    make_grid,
    zeros_field,
)
from axns.kinematics import State, reconstruct_velocity
from axns.scenarios import SCENARIO_NAMES, Scenario, init_scenario, manufactured_solution
from axns.storage import read_snapshot, write_snapshot

# a row of 20 float64 is 160 bytes, so successive rows start 32 bytes apart mod 64
SPEC = GridSpec(R=1.0, Lz=1.0, nr=24, nz=20)


def aligned(a: np.ndarray) -> bool:
    return a.ctypes.data % ALIGN == 0


def at_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of a whose data starts offset bytes past a 64-byte boundary."""
    raw = empty((a.nbytes + ALIGN,), np.uint8)
    out = raw[offset : offset + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def ring_state(grid) -> State:
    return init_scenario(Scenario(name="gaussian_ring", amplitude=1.3), grid)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.uint8])
def test_empty_is_aligned_and_contiguous(dtype):
    for shape in [(1,), (3, 5), (24, 20), (7, 11)]:
        a = empty(shape, dtype)
        assert a.shape == shape and a.dtype == dtype
        assert aligned(a) and a.flags.c_contiguous and a.flags.writeable


def test_streamed_arrays_are_aligned(tmp_path):
    grid = make_grid(SPEC)
    state = ring_state(grid)
    ws, modes = grid.work, grid.modes
    constants = [ws.r, ws.neg_r, ws.r2, ws.sub, ws.diag, ws.sup]
    buffers = [*ws.leaf, *ws.kernel, *ws.stage, modes.buffer, modes.tmp]
    assert all(map(aligned, constants + buffers))

    cfg = SolverConfig(nu=0.05, cfl=0.5, t_end=1.0, grid=SPEC)
    new = step(state, stable_dt(state, cfg), cfg)
    assert all(aligned(f.values) for f in (new.u1, new.omega1, new.psi1))
    assert aligned(modes.solve(state.omega1.values))
    vel = reconstruct_velocity(state)
    assert all(aligned(f.values) for f in (vel.v_r, vel.v_phi, vel.v_z))
    assert aligned(d_dr(state.u1).values) and aligned(d_dz(state.u1).values)

    # the manufactured forcing: its sampled factors, the axpy scratch and
    # every evaluation
    man = manufactured_solution(grid, 0.05, Scenario(name="manufactured", mode_k=2))
    factors = [f for sampled in man._sampled.values() for f in sampled]
    assert len(factors) == 6 and all(map(aligned, factors + [man._tmp]))
    for t in (0.0, 0.013, 0.5):
        assert all(aligned(f(t)) for f in (man.u1, man.om1, man.f_u, man.f_om))

    write_snapshot(state, tmp_path / "s.axns", 0.05)
    back, _ = read_snapshot(tmp_path / "s.axns")
    assert all(aligned(f.values) for f in (back.u1, back.omega1, back.psi1))


def test_initial_fields_are_aligned():
    # the first step and the t = 0 sample of every run read these
    grid = make_grid(SPEC)
    fields = [zeros_field(grid), field_from_function(grid, lambda r, z: r * z, EVEN)]
    for name in SCENARIO_NAMES:
        state = init_scenario(Scenario(name=name), grid)
        fields += [state.u1, state.omega1, state.psi1]
    assert all(aligned(f.values) for f in fields)


def test_results_do_not_depend_on_input_alignment():
    grid = make_grid(SPEC)
    state = ring_state(grid)
    # the ring sets u1 = om1; a swirl unlike om1 exercises every term of rhs
    u = state.u1.values * np.cos(2.0 * np.pi * grid.z)[None, :]
    om, psi = state.omega1.values, state.psi1.values

    def outputs(u, om, psi):
        du, dom = rhs(grid, u, om, psi, 0.05, 0.0)
        tendencies = du.tobytes() + dom.tobytes()
        fields = (ScalarField(grid, x, EVEN) for x in (u, om, psi))
        row = instantaneous(State(*fields, t=0.0), 4)
        monitor = {key: value.hex() for key, value in row.items()}
        return tendencies, monitor, grid.modes.solve(om).tobytes()

    expect = outputs(u, om, psi)
    for offset in range(0, ALIGN, 8):
        moved = [at_offset(x, offset) for x in (u, om, psi)]
        assert moved[0].ctypes.data % ALIGN == offset
        assert outputs(*moved) == expect, offset
