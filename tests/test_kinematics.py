"""Velocity reconstruction, incompressibility, and curl consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axns.elliptic import solve_stream
from axns.grid import (
    EVEN,
    ODD,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    make_grid,
    norm_l2,
    zeros_field,
)
from axns.kinematics import (
    State,
    divergence_residual,
    reconstruct_velocity,
    velocity_values,
)
from axns.verify import bump_field, random_bump_terms
from conftest import make_state


def test_state_validation(grid16, grid32):
    with pytest.raises(ValueError):
        State(
            u1=zeros_field(grid16),
            omega1=zeros_field(grid32),
            psi1=zeros_field(grid16),
            t=0.0,
        )
    with pytest.raises(ValueError):
        make_state(grid16, u1=zeros_field(grid16, ODD))
    bad = np.zeros((grid16.nr, grid16.nz))
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        make_state(grid16, u1=ScalarField(grid16, bad, EVEN))


def test_zero_state_reconstructs_to_zero(grid16):
    vel = reconstruct_velocity(make_state(grid16))
    for f in (vel.v_r, vel.v_phi, vel.v_z):
        assert np.max(np.abs(f.values)) == 0.0


def test_reconstruct_parities(grid16):
    vel = reconstruct_velocity(make_state(grid16))
    assert vel.v_r.parity == ODD and vel.v_phi.parity == ODD
    assert vel.v_z.parity == EVEN


def test_constant_stream_function(grid32):
    # psi1 = c: v_r = 0, v_z = (1/r)(r^2 c)_{,r} = 2c.  The probe does not
    # vanish at the wall, so the Dirichlet ghost garbles only ring nr-1.
    c = 0.7
    psi = field_from_function(grid32, lambda r, z: c + 0 * r, EVEN)
    vel = reconstruct_velocity(make_state(grid32, psi1=psi))
    assert np.max(np.abs(vel.v_r.values)) == 0.0
    assert np.allclose(vel.v_z.values[:-1], 2 * c, rtol=1e-13)
    assert divergence_residual(vel) < 1e-10


def test_swirl_scaling(grid32):
    u = field_from_function(grid32, lambda r, z: 1.5 + 0 * r, EVEN)
    vel = reconstruct_velocity(make_state(grid32, u1=u))
    want = 1.5 * grid32.r[:, None] * np.ones((1, grid32.nz))
    assert np.allclose(vel.v_phi.values, want, rtol=1e-14)


def test_single_mode_stream(grid64):
    # psi1 = sin(2 pi z) a(r) -> v_r = -r (sin(k dz)/dz) cos(2 pi z) a(r)
    # exactly for the centered stencil; second order against the continuum.
    k = 2 * np.pi
    a = lambda r: np.exp(-((r / 0.4) ** 2))
    psi = field_from_function(grid64, lambda r, z: np.sin(k * z) * a(r), EVEN)
    vel = reconstruct_velocity(make_state(grid64, psi1=psi))
    ktil = math.sin(k * grid64.dz) / grid64.dz
    rr = grid64.r[:, None]
    zz = grid64.z[None, :]
    want = -rr * ktil * np.cos(k * zz) * a(rr)
    assert np.allclose(vel.v_r.values, want, atol=1e-13)
    cont = -rr * k * np.cos(k * zz) * a(rr)
    assert np.max(np.abs(vel.v_r.values - cont)) < 0.7 * (k * grid64.dz) ** 2


def test_velocity_values_aliased_output_is_byte_equal(rng):
    # dpsi_dz aliased to v_r (as reconstruct_velocity passes it) changes no
    # bit of v_r or v_z, and both match the formulas written out by hand
    g = make_grid(GridSpec(R=1.0, Lz=1.3, nr=16, nz=12))
    psi = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    state = make_state(g, psi1=psi)
    dpz, v_r, v_z, a_r, a_z = (np.empty((g.nr, g.nz)) for _ in range(5))
    velocity_values(g, psi.values, dpz, v_r, v_z)
    velocity_values(g, psi.values, a_r, a_r, a_z)
    vel = reconstruct_velocity(state)
    # the caller's buffer receives d_dz(psi1) and changes no velocity bit
    buf = np.empty((g.nr, g.nz))
    shared = reconstruct_velocity(state, buf)
    r = g.r[:, None]
    assert dpz.tobytes() == d_dz(psi).values.tobytes() == buf.tobytes()
    for got in (a_r, vel.v_r.values, shared.v_r.values, -r * d_dz(psi).values):
        assert got.tobytes() == v_r.tobytes()
    for got in (a_z, vel.v_z.values, shared.v_z.values, 2.0 * psi.values + r * d_dr(psi).values):
        assert got.tobytes() == v_z.tobytes()
    assert shared.v_phi.values.tobytes() == vel.v_phi.values.tobytes()


def test_divergence_zero_cases(grid16):
    assert divergence_residual(reconstruct_velocity(make_state(grid16))) == 0.0


def test_divergence_second_order(rng):
    terms = random_bump_terms(rng, R=1.0)
    errs = []
    for n in (48, 96):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=n))
        psi = bump_field(terms, g)
        errs.append(divergence_residual(reconstruct_velocity(make_state(g, psi1=psi))))
    assert math.log2(errs[0] / errs[1]) > 1.8


def curl_consistency_residual(state):
    """L2 volume norm of r om1 - (d_dz(v_r) - d_dr(v_z)), wall ring excluded.

    v_z has a nonzero trace at r = R (the wall is stress free, not no slip),
    so the mirrored wall ghost of d_dr does not apply to it; keeping the
    outermost ring would bury the O(h^2) interior residual under an O(1/h)
    ring artifact.
    """
    g = state.grid
    vel = reconstruct_velocity(state)
    res = g.r[:, None] * state.omega1.values - (
        d_dz(vel.v_r).values - d_dr(vel.v_z).values
    )
    res[-1, :] = 0.0
    return norm_l2(ScalarField(g, res, ODD))


def test_curl_consistency_zero(grid16):
    assert curl_consistency_residual(make_state(grid16)) == 0.0


def test_curl_consistency_operator_chain(grid32, rng):
    # define omega1 by the same discrete curl that the residual applies;
    # the identity then holds to rounding
    terms = random_bump_terms(rng, R=1.0)
    psi = bump_field(terms, grid32)
    vel = reconstruct_velocity(make_state(grid32, psi1=psi))
    curl = d_dz(vel.v_r).values - d_dr(vel.v_z).values
    om = ScalarField(grid32, curl / grid32.r[:, None], EVEN)
    res = curl_consistency_residual(make_state(grid32, om1=om, psi1=psi))
    assert res <= 1e-8 * max(norm_l2(om), 1e-30)


def test_curl_consistency_second_order(rng):
    terms = random_bump_terms(rng, R=1.0)
    errs = []
    for n in (48, 96):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=n))
        om = bump_field(terms, g)
        psi = solve_stream(om)
        errs.append(curl_consistency_residual(make_state(g, om1=om, psi1=psi)))
    assert math.log2(errs[0] / errs[1]) > 1.8


@given(seed=st.integers(0, 2**32 - 1))
def test_weighted_quantities_finite_at_axis(grid16, seed):
    rng = np.random.default_rng(seed)
    psi = ScalarField(grid16, rng.standard_normal((grid16.nr, grid16.nz)), EVEN)
    u1 = ScalarField(grid16, rng.standard_normal((grid16.nr, grid16.nz)), EVEN)
    vel = reconstruct_velocity(make_state(grid16, u1=u1, psi1=psi))
    vr_over_r = -d_dz(psi).values
    assert np.all(np.isfinite(vr_over_r))
    # v_r = r * (v_r / r) holds ring by ring, axis ring included
    assert np.allclose(vel.v_r.values, grid16.r[:, None] * vr_over_r, rtol=1e-13)
