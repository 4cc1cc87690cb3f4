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
from axns.kinematics import State, divergence_residual, reconstruct_velocity
from axns.verify import bump_field, random_bump_terms
from conftest import make_state, velocity


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
    for v in velocity(make_state(grid16)):
        assert np.max(np.abs(v)) == 0.0


def test_constant_stream_function(grid32):
    # psi1 = c: v_r = 0, v_z = (1/r)(r^2 c)_{,r} = 2c.  The probe does not
    # vanish at the wall, so the Dirichlet ghost garbles only ring nr-1.
    c = 0.7
    psi = field_from_function(grid32, lambda r, z: c + 0 * r, EVEN)
    state = make_state(grid32, psi1=psi)
    v_r, v_z = velocity(state)
    assert np.max(np.abs(v_r)) == 0.0
    assert np.allclose(v_z[:-1], 2 * c, rtol=1e-13)
    assert divergence_residual(state) < 1e-10


def test_single_mode_stream(grid64):
    # psi1 = sin(2 pi z) a(r) -> v_r = -r (sin(k dz)/dz) cos(2 pi z) a(r)
    # exactly for the centered stencil; second order against the continuum.
    k = 2 * np.pi
    a = lambda r: np.exp(-((r / 0.4) ** 2))
    psi = field_from_function(grid64, lambda r, z: np.sin(k * z) * a(r), EVEN)
    v_r, _ = velocity(make_state(grid64, psi1=psi))
    ktil = math.sin(k * grid64.dz) / grid64.dz
    rr = grid64.r[:, None]
    zz = grid64.z[None, :]
    want = -rr * ktil * np.cos(k * zz) * a(rr)
    assert np.allclose(v_r, want, atol=1e-13)
    cont = -rr * k * np.cos(k * zz) * a(rr)
    assert np.max(np.abs(v_r - cont)) < 0.7 * (k * grid64.dz) ** 2


def test_velocity_values_aliased_output_is_byte_equal(rng):
    # dpsi_dz aliased to v_r changes no bit of v_r or v_z, the caller's
    # dpsi_dz receives d_dz(psi1), and both components match the formulas
    # written out by hand, at numpy's alignment and at grid.empty's
    g = make_grid(GridSpec(R=1.0, Lz=1.3, nr=16, nz=12))
    psi = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    state = make_state(g, psi1=psi)
    dpz, v_r, v_z, a_r, a_z = (np.empty((g.nr, g.nz)) for _ in range(5))
    reconstruct_velocity(g, psi.values, dpz, v_r, v_z)
    reconstruct_velocity(g, psi.values, a_r, a_r, a_z)
    buf = np.empty((g.nr, g.nz))
    shared, aliased = velocity(state, buf), velocity(state)
    r = g.r[:, None]
    assert dpz.tobytes() == d_dz(psi).values.tobytes() == buf.tobytes()
    for got in (a_r, shared[0], aliased[0], -r * d_dz(psi).values):
        assert got.tobytes() == v_r.tobytes()
    for got in (a_z, shared[1], aliased[1], 2.0 * psi.values + r * d_dr(psi).values):
        assert got.tobytes() == v_z.tobytes()


def test_divergence_zero_cases(grid16):
    assert divergence_residual(make_state(grid16)) == 0.0


def test_divergence_second_order(rng):
    terms = random_bump_terms(rng, R=1.0)
    errs = []
    for n in (48, 96):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=n))
        psi = bump_field(terms, g)
        errs.append(divergence_residual(make_state(g, psi1=psi)))
    assert math.log2(errs[0] / errs[1]) > 1.8


def curl_consistency_residual(state):
    """L2 volume norm of r om1 - (d_dz(v_r) - d_dr(v_z)), wall ring excluded.

    v_z has a nonzero trace at r = R (the wall is stress free, not no slip),
    so the mirrored wall ghost of d_dr does not apply to it; keeping the
    outermost ring would bury the O(h^2) interior residual under an O(1/h)
    ring artifact.
    """
    g = state.grid
    v_r, v_z = velocity(state)
    res = g.r[:, None] * state.omega1.values - (
        d_dz(ScalarField(g, v_r, ODD)).values - d_dr(ScalarField(g, v_z, EVEN)).values
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
    v_r, v_z = velocity(make_state(grid32, psi1=psi))
    curl = (
        d_dz(ScalarField(grid32, v_r, ODD)).values - d_dr(ScalarField(grid32, v_z, EVEN)).values
    )
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
    v_r, _ = velocity(make_state(grid16, psi1=psi))
    vr_over_r = -d_dz(psi).values
    assert np.all(np.isfinite(vr_over_r))
    # v_r = r * (v_r / r) holds ring by ring, axis ring included
    assert np.allclose(v_r, grid16.r[:, None] * vr_over_r, rtol=1e-13)
