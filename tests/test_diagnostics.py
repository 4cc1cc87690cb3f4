"""Monitor quantities: frozen closed forms, the monitor kernel against a
reference assembled from the public stencils, and running-integral behavior.

Midpoint-rule identities reused from test_grid plus
    sum (i+1/2)^4 Dr^5 = R^5/5 - R^3 Dr^2/6 + 7 R Dr^4/240.
Probes that do not vanish at r = R excite the mirrored wall ghost; where
that happens the expected value below is the hand-derived discrete form,
wall ring included, rather than the continuum limit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axns import diagnostics as dg
from axns.grid import (
    EVEN,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    integrate_volume,
    make_grid,
    norm_l2,
    ring_sums,
)
from axns.kinematics import State
from axns.scenarios import Scenario, init_scenario
from conftest import make_state


def const_u1_state(grid, c):
    return make_state(
        grid, u1=field_from_function(grid, lambda r, z: c + 0 * r, EVEN)
    )


def test_column_order_frozen():
    assert dg.COLUMNS == (
        "t",
        "E",
        "D",
        "critA",
        "critB",
        "critA_int",
        "critB_int",
        "swirl_sup",
        "om1_l2",
        "om1_grad_int",
        "u1_l4_int",
        "ualpha_s",
        "quartic_lhs",
        "quartic_rhs",
    )


def test_energy_constant_swirl(grid64):
    # v_phi = c r: E = (c^2/2) int r^2 dx = pi c^2 Lz (R^4/4 - R^2 Dr^2/8)
    c = 1.3
    E = dg.instantaneous(const_u1_state(grid64, c), 4)["E"]
    want = math.pi * c * c * (0.25 - grid64.dr**2 / 8.0)
    assert math.isclose(E, want, rel_tol=1e-12)
    assert math.isclose(E, math.pi * c * c / 4.0, rel_tol=3e-4)


def test_dissipation_constant_swirl(grid32):
    # v_phi = c r exercises every branch of the face assembly at once:
    # interior r faces see the exact slope c, the wall half face sees
    # c r_{nr-1} / (Dr/2), and the weighted swirl term integrates c^2.
    c = 0.8
    g = grid32
    D = dg.instantaneous(const_u1_state(g, c), 4)["D"]
    R = 1.0
    faces = math.pi * R * (R - g.dr)
    wall = math.pi * R * (2 * R - g.dr) ** 2 / g.dr
    weighted = math.pi * R * R
    assert math.isclose(D, c * c * (faces + wall + weighted), rel_tol=1e-12)


def test_dissipation_constant_stream(grid32):
    # psi1 = c: v_z = 2c on every ring but the last, so the only face term
    # is the single r face next to the garbled wall ring; no wall half face
    # is added for v_z (its wall trace is not constrained to zero).
    c = 0.6
    g = grid32
    psi = field_from_function(g, lambda r, z: c + 0 * r, EVEN)
    D = dg.instantaneous(make_state(g, psi1=psi), 4)["D"]
    R = 1.0
    r_last = g.r[-1]
    vz_wall = 2 * c - c * r_last / g.dr
    df = (vz_wall - 2 * c) / g.dr
    want = 2 * math.pi * (R - g.dr) * g.dr * df * df
    assert math.isclose(D, want, rel_tol=1e-12)


def test_criterion_a_single_mode():
    # psi1 = sin(2 pi z)(1 - r^2)^2 on R = Lz = 1:
    # A -> 2 pi (2 pi)^2 (1/2) int_0^1 (1-r^2)^4 dr = (2 pi)^3 (64/315)
    want = (2 * math.pi) ** 3 * 64.0 / 315.0
    for n, tol in ((64, 1e-2), (192, 1.3e-3)):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=n))
        psi = field_from_function(
            g, lambda r, z: np.sin(2 * np.pi * z) * (1 - r * r) ** 2, EVEN
        )
        got = dg.instantaneous(make_state(g, psi1=psi), 4)["critA"]
        assert math.isclose(got, want, rel_tol=tol)


def test_criterion_b_constant(grid64):
    om = field_from_function(grid64, lambda r, z: 1.0 + 0 * r, EVEN)
    got = dg.instantaneous(make_state(grid64, om1=om), 4)["critB"]
    want = 2 * math.pi * (1.0 / 3.0 - grid64.dr**2 / 12.0)
    assert math.isclose(got, want, rel_tol=1e-13)
    assert math.isclose(got, 2 * math.pi / 3, rel_tol=1e-3)


def test_swirl_sup_values(grid32):
    def swirl_sup(state):
        return dg.instantaneous(state, 4)["swirl_sup"]

    assert swirl_sup(const_u1_state(grid32, 1.0)) == pytest.approx(
        (1.0 - grid32.dr / 2) ** 2, rel=1e-14
    )
    inv = field_from_function(grid32, lambda r, z: 1.0 / (r * r) + 0 * z, EVEN)
    assert swirl_sup(make_state(grid32, u1=inv)) == pytest.approx(1.0, rel=1e-14)
    assert swirl_sup(make_state(grid32)) == 0.0


@given(seed=st.integers(0, 2**32 - 1), amp=st.floats(1e-6, 1e3))
def test_quartic_bound_holds_exactly(grid16, seed, amp):
    rng = np.random.default_rng(seed)
    u1 = ScalarField(
        grid16, amp * rng.standard_normal((grid16.nr, grid16.nz)), EVEN
    )
    inst = dg.instantaneous(make_state(grid16, u1=u1), 4)
    assert inst["quartic_lhs"] <= inst["quartic_rhs"]


def test_quartic_zero(grid16):
    inst = dg.instantaneous(make_state(grid16), 4)
    assert (inst["quartic_lhs"], inst["quartic_rhs"]) == (0.0, 0.0)


def test_om1_l2_constant_vorticity(grid64):
    # om1 = 1: ||om1||_L2^2 = int dx = pi R^2 Lz exactly
    om = field_from_function(grid64, lambda r, z: 1.0 + 0 * r, EVEN)
    got = dg.instantaneous(make_state(grid64, om1=om), 4)["om1_l2"]
    assert math.isclose(got, math.sqrt(math.pi), rel_tol=1e-13)


def test_cfz_constant_swirl(grid32):
    # u1 = 1, the swirl whose centrifugal probe r u1^2 is r:
    # int u1^4 dx = pi R^2 Lz exactly
    l4 = dg.instantaneous(const_u1_state(grid32, 1.0), 4)["u1_l4"]
    assert math.isclose(l4, math.pi, rel_tol=1e-13)


def test_cfz_conforming_bump():
    # u1 = (1 - r^2)^2 vanishes at the wall: int u1^4 dx -> pi/9
    errs = []
    for n in (48, 96):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=8))
        u1 = field_from_function(g, lambda r, z: (1 - r * r) ** 2 + 0 * z, EVEN)
        errs.append(abs(dg.instantaneous(make_state(g, u1=u1), 4)["u1_l4"] - math.pi / 9))
    assert errs[1] < errs[0] and errs[1] < 1e-4


def test_weighted_swirl_closed_forms(grid64):
    g = grid64
    st3 = const_u1_state(g, 1.0)
    # s = 3: int r^3 dx = 2 pi (R^5/5 - R^3 Dr^2/6 + 7 R Dr^4/240) exactly
    ua3 = dg.instantaneous(st3, s=3)["ualpha_s"]
    want3 = 2 * math.pi * (0.2 - g.dr**2 / 6.0 + 7.0 * g.dr**4 / 240.0)
    assert math.isclose(ua3, want3, rel_tol=1e-13)
    assert math.isclose(ua3, 2 * math.pi / 5, rel_tol=1e-3)
    # s = 4: int r^5 dx -> 2 pi/7 at second order
    ua4 = dg.instantaneous(st3, s=4)["ualpha_s"]
    assert math.isclose(ua4, 2 * math.pi / 7, rel_tol=2e-3)
    # ualpha_norm shares the integral; p = inf is max |r^(2 - 3/s) u1|
    assert dg.ualpha_norm(st3, 3, 3) == ua3 ** (1.0 / 3.0)
    assert dg.ualpha_norm(st3, 4, math.inf) == g.r[-1] ** 1.25


def test_weighted_swirl_rejects_small_s(grid16):
    with pytest.raises(ValueError):
        dg.instantaneous(make_state(grid16), s=2)


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("s", [0, 2])
def test_ualpha_norm_rejects_small_s(s, p):
    # the rule instantaneous keeps, on every path of ualpha_norm; s = 0
    # must not reach 3 / s
    grid = make_grid(GridSpec(R=1.0, Lz=1.0, nr=8, nz=8))
    state = init_scenario(Scenario(name="gaussian_ring"), grid)
    with pytest.raises(ValueError, match=f"s must be an integer >= 3, got {s}$"):
        dg.ualpha_norm(state, s, p)


def reference_instantaneous(state, s):
    """The monitor entries composed as the kernel composes them, from the
    public operators: each integrand summed along z by ring_sums, the
    sums weighted in r."""
    g = state.grid
    r = g.r[:, None]
    w, r2 = g.quad_w, g.r**2
    u, om = state.u1.values, state.omega1.values

    def sq(x):
        return ring_sums(x, x)

    dpz = d_dz(state.psi1).values
    vr = -r * dpz
    vphi = r * u
    vz = 2.0 * state.psi1.values + r * d_dr(state.psi1).values
    slow = sq(dpz) + ring_sums(u * u)
    E = 0.5 * (w @ sq(vz) + (w * r2) @ slow)
    D = (
        dg._face_grad_sq(vr, g, wall_zero=True)
        + dg._face_grad_sq(vphi, g, wall_zero=True)
        + dg._face_grad_sq(vz, g, wall_zero=False)
        + w @ slow
    )
    critA = 2.0 * np.pi * g.dr * g.dz * np.sum(sq(dpz))
    critB = 2.0 * np.pi * g.dr * g.dz * (r2 @ sq(om))
    a = (r**2) * u
    m = float(np.max(np.abs(a)))
    quartic_lhs = integrate_volume(ScalarField(g, (a * a) * (u * u), EVEN))
    quartic_rhs = integrate_volume(ScalarField(g, (m * m) * (u * u), EVEN))
    u1_l4 = w @ sq(u * u)
    om1_l2 = norm_l2(state.omega1)
    om1_grad = w @ sq(d_dr(state.omega1).values) + w @ sq(d_dz(state.omega1).values)
    # |u1|^s = x^2 with x = |u1|^(s / 2)
    x = np.power(np.abs(u), s / 2.0)
    ualpha_s = (w * g.r ** ((2.0 * s - 3.0) * s / s)) @ ring_sums(x, x)
    return dict(
        E=E, D=D, critA=critA, critB=critB, swirl_sup=m,
        u1_l4=u1_l4, om1_l2=om1_l2, om1_grad=om1_grad, ualpha_s=ualpha_s,
        quartic_lhs=quartic_lhs, quartic_rhs=quartic_rhs,
    )


def elementwise_instantaneous(state, s):
    """The monitor entries as pointwise integrands, each multiplied by the
    full-size volume weight and summed over the whole grid."""
    g = state.grid
    r = g.r[:, None]
    w = g.quad_w[:, None]

    def total(f):
        return float(np.sum(f * w))

    def face_grad_sq(vals, wall_zero):
        d_z = (np.roll(vals, -1, axis=1) - vals) / g.dz  # wraps at the last column
        d_r = (vals[1:] - vals[:-1]) / g.dr
        r_face = r[:-1] + 0.5 * g.dr
        out = total(d_z * d_z) + float(np.sum(2.0 * np.pi * r_face * g.dr * g.dz * d_r * d_r))
        if wall_zero:
            half = 0.5 * g.dr
            out += 2.0 * np.pi * g.spec.R * half * g.dz * float(np.sum((vals[-1] / half) ** 2))
        return out

    u, om = state.u1.values, state.omega1.values
    dpz = d_dz(state.psi1).values
    vr = -r * dpz
    vphi = r * u
    vz = 2.0 * state.psi1.values + r * d_dr(state.psi1).values
    E = 0.5 * total(vr * vr + vphi * vphi + vz * vz)
    D = (
        face_grad_sq(vr, True) + face_grad_sq(vphi, True) + face_grad_sq(vz, False)
        + total(dpz * dpz + u * u)
    )
    a = (r**2) * u
    m = float(np.max(np.abs(a)))
    go_r, go_z = d_dr(state.omega1).values, d_dz(state.omega1).values
    return dict(
        E=E, D=D,
        critA=float(2.0 * np.pi * g.dr * g.dz * np.sum(dpz * dpz)),
        critB=float(2.0 * np.pi * g.dr * g.dz * np.sum((r**2) * om * om)),
        swirl_sup=m,
        u1_l4=total((u * u) ** 2),
        om1_l2=math.sqrt(total(om * om)),
        om1_grad=total(go_r * go_r + go_z * go_z),
        ualpha_s=total(r ** (2.0 * s - 3.0) * np.abs(u) ** s),
        quartic_lhs=total((a * a) * (u * u)),
        quartic_rhs=total((m * m) * (u * u)),
    )


def random_state(seed):
    g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=16, nz=12))
    rng = np.random.default_rng(seed)
    fields = [
        ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN) for _ in range(3)
    ]
    return State(u1=fields[0], omega1=fields[1], psi1=fields[2], t=0.0)


@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_instantaneous_matches_reference_bitwise(s, seed):
    state = random_state(seed)
    got = dg.instantaneous(state, s)
    want = reference_instantaneous(state, s)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == value, key


@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2, None])
def test_instantaneous_agrees_with_elementwise_sums(s, seed):
    # summing along z first reorders the sums: only roundoff may differ
    if seed is None:
        grid = make_grid(GridSpec(R=1.0, Lz=1.0, nr=64, nz=64))
        state = init_scenario(Scenario(name="gaussian_ring"), grid)
    else:
        state = random_state(seed)
    got = dg.instantaneous(state, s)
    want = elementwise_instantaneous(state, s)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=1e-14), key


@pytest.mark.parametrize("seed", [0, 1])
def test_instantaneous_norms_are_norm_l2(seed):
    # one volume quadrature: the norm column is norm_l2 to the bit
    state = random_state(seed)
    assert dg.instantaneous(state, 4)["om1_l2"] == norm_l2(state.omega1)


def test_instantaneous_allocates_few_full_size_arrays(grid64, traced_peak):
    # the integrands live in the grid's workspace; what is left is the
    # velocity and one radial derivative (about 3.1 full-size arrays
    # measured at 64^2, against 15.1 when every operation allocated)
    rng = np.random.default_rng(7)
    fields = [ScalarField(grid64, rng.standard_normal((64, 64)), EVEN) for _ in range(3)]
    state = State(u1=fields[0], omega1=fields[1], psi1=fields[2], t=0.0)
    dg.instantaneous(state, 4)
    full = grid64.nr * grid64.nz * 8
    assert traced_peak(lambda: dg.instantaneous(state, 4)) <= 3.5 * full


def test_instantaneous_rejects_overflow(grid16):
    # |u1|^4 overflows to inf; the finished row is checked once
    u1 = field_from_function(grid16, lambda r, z: 1e100 + 0 * r, EVEN)
    with pytest.raises(ValueError, match="u1_l4"):
        dg.instantaneous(make_state(grid16, u1=u1), 4)


def test_lpq_input_validation(grid16):
    with pytest.raises(ValueError):
        dg.lpq_norm([], 2.0)
    with pytest.raises(ValueError):
        dg.lpq_norm([(0.0, 1.0), (0.0, 1.0)], 2.0)
    with pytest.raises(ValueError):
        dg.lpq_norm([(0.0, 1.0)], 2.0)
    with pytest.raises(ValueError):
        dg.lpq_norm([(0.0, 1.0), (1.0, 1.0)], 0.5)
    with pytest.raises(ValueError):
        dg.lpq_norm([(0.0, 1.0), (1.0, math.nan)], 2.0)
    with pytest.raises(ValueError):
        dg.ualpha_norm(make_state(grid16), 4, 0.5)
    # a single sample is fine for the sup norm
    assert dg.lpq_norm([(0.0, 0.0)], math.inf) == 0.0


def test_sample_running_integrals(grid32):
    # two samples of the same nonzero state: every running integral is the
    # instantaneous value times the gap
    om = field_from_function(
        grid32, lambda r, z: np.exp(-(((r - 0.4) / 0.2) ** 2)) + 0 * z, EVEN
    )
    from axns.elliptic import solve_stream

    series = dg.CriteriaSeries(s=4)
    psi = solve_stream(om)
    s0 = make_state(grid32, om1=om, psi1=psi, t=0.0)
    s1 = make_state(grid32, om1=om, psi1=psi, t=0.25)
    r0 = dg.sample(s0, series)
    r1 = dg.sample(s1, series)
    assert r0.critA_int == 0.0
    assert math.isclose(r1.critA_int, 0.25 * r1.critA, rel_tol=1e-14)
    assert math.isclose(r1.critB_int, 0.25 * r1.critB, rel_tol=1e-14)
    om1_grad = dg.instantaneous(s1, 4)["om1_grad"]
    assert math.isclose(r1.om1_grad_int, 0.25 * om1_grad, rel_tol=1e-14)
    assert len(series.rows) == 2


def test_sample_rejects_time_reversal(grid16):
    series = dg.CriteriaSeries(s=4)
    dg.sample(make_state(grid16, t=1.0), series)
    with pytest.raises(ValueError):
        dg.sample(make_state(grid16, t=0.5), series)
    with pytest.raises(ValueError):
        dg.sample(make_state(grid16, t=math.nan), series)


def test_omega1_budget_shapes_and_zero(grid16):
    series = dg.CriteriaSeries(s=4)
    dg.sample(make_state(grid16, t=0.0), series)
    dg.sample(make_state(grid16, t=1.0), series)
    lhs, rhs = dg.omega1_budget(series.rows, 0.1)
    assert lhs.shape == rhs.shape == (2,)
    assert np.all(lhs == 0.0) and np.all(rhs == 0.0)
