"""Initial-condition library checks."""

import numpy as np
import pytest

from axns.diagnostics import swirl_sup
from axns.elliptic import stream_residual
from axns.grid import GridSpec, make_grid, norm_l2
from axns.scenarios import Scenario, init_scenario, manufactured_solution


def test_zero_scenario(grid16):
    state = init_scenario(Scenario(name="zero"), grid16)
    for f in (state.u1, state.omega1, state.psi1):
        assert np.max(np.abs(f.values)) == 0.0
    assert state.t == 0.0


def test_zero_amplitude_ring(grid16):
    state = init_scenario(Scenario(name="gaussian_ring", amplitude=0.0), grid16)
    for f in (state.u1, state.omega1, state.psi1):
        assert np.max(np.abs(f.values)) == 0.0


def test_pure_swirl_finite_sup(grid32):
    state = init_scenario(Scenario(name="pure_swirl", amplitude=1.0), grid32)
    sup = swirl_sup(state)
    assert np.isfinite(sup) and sup > 0.0
    assert np.max(np.abs(state.omega1.values)) == 0.0
    assert np.max(np.abs(state.psi1.values)) == 0.0


def test_gaussian_ring_stream_solved(grid32):
    state = init_scenario(Scenario(name="gaussian_ring", amplitude=1.0), grid32)
    assert norm_l2(state.omega1) > 0.0
    assert stream_residual(state.psi1, state.omega1) <= 1e-10 * norm_l2(state.omega1)


def test_unknown_scenario_rejected(grid16):
    with pytest.raises(ValueError):
        init_scenario(Scenario(name="tornado"), grid16)


def test_scenario_bounds_validation():
    spec = GridSpec(R=1.0, Lz=1.0, nr=16, nz=16)
    with pytest.raises(ValueError):
        Scenario(name="gaussian_ring", width=-0.1).validate(spec)
    with pytest.raises(ValueError):
        Scenario(name="gaussian_ring", r_center=2.0).validate(spec)


def _unseparated_reference(R, Lz, A, k, nu):
    """Reference for the time-mode split: the closed forms and forcing
    residuals lambdified in (r, z, t), with exp(-t) inside every term."""
    import sympy as sp

    r, z, t = sp.symbols("r z t", positive=True)
    kz = 2 * sp.pi * k * z / Lz
    decay = sp.exp(-t)
    psi = sp.Rational(2, 5) * A * (1 - (r / R) ** 2) ** 4 * sp.cos(kz) * decay
    u1 = A * (1 - (r / R) ** 2) ** 2 * sp.cos(kz + sp.Rational(7, 10)) * decay

    def lap3(f):
        return sp.diff(f, r, 2) + 3 / r * sp.diff(f, r) + sp.diff(f, z, 2)

    om1 = sp.expand(-lap3(psi))
    vr = -r * sp.diff(psi, z)
    vz = 2 * psi + r * sp.diff(psi, r)

    def advect(f):
        return vr * sp.diff(f, r) + vz * sp.diff(f, z)

    f_u = sp.diff(u1, t) + advect(u1) - nu * lap3(u1) - 2 * u1 * sp.diff(psi, z)
    f_om = sp.diff(om1, t) + advect(om1) - nu * lap3(om1) - 2 * u1 * sp.diff(u1, z)
    exprs = {"psi1": psi, "u1": u1, "om1": om1, "f_u": sp.expand(f_u), "f_om": sp.expand(f_om)}
    return {key: sp.lambdify((r, z, t), e, modules="numpy") for key, e in exprs.items()}


def test_manufactured_matches_symbolic(grid32):
    spec = GridSpec(R=1.0, Lz=1.0, nr=grid32.nr, nz=grid32.nz)
    sc = Scenario(name="manufactured", amplitude=1.0)
    ms = manufactured_solution(spec, nu=0.1, scenario=sc)
    state = init_scenario(sc, grid32)
    assert np.allclose(state.u1.values, ms.u1(grid32, 0.0), atol=1e-12)
    assert np.allclose(state.omega1.values, ms.om1(grid32, 0.0), atol=1e-12)

    ref = _unseparated_reference(1.0, 1.0, 1.0, 1, 0.1)
    r, z = grid32.r[:, None], grid32.z[None, :]
    for t in (0.0, 0.37, 1.9):
        for key, fn in ref.items():
            want = np.broadcast_to(fn(r, z, t), (grid32.nr, grid32.nz))
            got = getattr(ms, key)(grid32, t)
            # the floor covers points where an expanded sum cancels to
            # near zero and its roundoff, relative to the terms, dominates
            scale = np.max(np.abs(want))
            assert scale > 0.0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=key)


def test_manufactured_rejects_other_cylinder(grid32):
    ms = manufactured_solution(GridSpec(R=1.0, Lz=2.0, nr=32, nz=32), nu=0.1)
    for key in ("u1", "om1", "psi1", "f_u", "f_om"):
        with pytest.raises(ValueError, match="Lz"):
            getattr(ms, key)(grid32, 0.0)
    wide = make_grid(GridSpec(R=2.0, Lz=2.0, nr=32, nz=32))
    with pytest.raises(ValueError, match="R"):
        ms.f_u(wide, 0.5)
    assert ms.f_u(make_grid(GridSpec(R=1.0, Lz=2.0, nr=8, nz=16)), 0.5).shape == (8, 16)
