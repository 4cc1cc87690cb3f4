"""Stream-function solver: residuals, round trips, positivity, ratio checks."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axns.diagnostics import instantaneous
from axns.elliptic import solve_stream, stream_residual
from axns.grid import (
    EVEN,
    Grid,
    GridSpec,
    ScalarField,
    d_dz_values,
    field_from_function,
    lap3_values,
    make_grid,
    modified_laplacian,
    norm_l2,
    zeros_field,
)
from axns.kinematics import State
from axns.studies import (
    bump_field,
    criteria_constant,
    random_bump_terms,
)


def criteria_pair(om):
    """(A, B) of the state whose stream function solves for om."""
    state = State(u1=zeros_field(om.grid), omega1=om, psi1=solve_stream(om), t=0.0)
    inst = instantaneous(state, 4)
    return inst["critA"], inst["critB"]


def test_zero_source(grid32):
    psi = solve_stream(zeros_field(grid32))
    assert np.max(np.abs(psi.values)) == 0.0
    assert psi.parity == EVEN


def test_residual_postcondition(grid64, rng):
    for _ in range(5):
        om = ScalarField(grid64, rng.standard_normal((grid64.nr, grid64.nz)), EVEN)
        psi = solve_stream(om)
        assert stream_residual(psi, om) <= 1e-10 * norm_l2(om)


def test_discrete_round_trip(grid64, rng):
    # omega built by the discrete operator itself is recovered exactly
    psi_star = ScalarField(
        grid64, rng.standard_normal((grid64.nr, grid64.nz)), EVEN
    )
    om = ScalarField(grid64, -modified_laplacian(psi_star).values, EVEN)
    psi = solve_stream(om)
    err = norm_l2(ScalarField(grid64, psi.values - psi_star.values, EVEN))
    assert err <= 1e-10 * norm_l2(psi_star)


def test_wrong_source_positive_residual(grid32):
    om = field_from_function(grid32, lambda r, z: np.cos(2 * np.pi * z) + 0 * r, EVEN)
    psi = solve_stream(om)
    wrong = ScalarField(grid32, 2.0 * om.values + 1.0, EVEN)
    assert stream_residual(psi, wrong) > 1e-3


def test_grid_mismatch_rejected(grid16, grid32):
    with pytest.raises(ValueError):
        stream_residual(zeros_field(grid16), zeros_field(grid32))


@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_linearity(grid32, seed, a, b):
    rng = np.random.default_rng(seed)
    shape = (grid32.nr, grid32.nz)
    om1 = ScalarField(grid32, rng.standard_normal(shape), EVEN)
    om2 = ScalarField(grid32, rng.standard_normal(shape), EVEN)
    comb = ScalarField(grid32, a * om1.values + b * om2.values, EVEN)
    got = solve_stream(comb).values
    want = a * solve_stream(om1).values + b * solve_stream(om2).values
    scale = max(float(np.max(np.abs(want))), 1e-30)
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_maximum_principle(grid32, rng):
    # nonnegative vorticity must produce a nonnegative stream function
    for _ in range(5):
        om = ScalarField(
            grid32, rng.random((grid32.nr, grid32.nz)), EVEN
        )
        psi = solve_stream(om)
        assert float(np.min(psi.values)) >= -1e-13 * float(np.max(psi.values))


def test_coercive_pairing_positive(grid32, rng):
    from axns.grid import integrate_volume

    om = bump_field(random_bump_terms(rng, R=1.0), grid32)
    psi = solve_stream(om)
    pair = integrate_volume(
        ScalarField(
            grid32, om.values * psi.values * grid32.r[:, None] ** 2, EVEN
        )
    )
    assert pair > 0.0


def test_criteria_ratio_zero(grid16):
    assert criteria_pair(zeros_field(grid16)) == (0.0, 0.0)


def test_criteria_ratio_single_mode(grid64):
    om = field_from_function(
        grid64,
        lambda r, z: np.exp(-(((r - 0.4) / 0.18) ** 2)) * np.cos(2 * np.pi * z),
        EVEN,
    )
    A, B = criteria_pair(om)
    assert A > 0 and B > 0
    assert A / B <= 2.0


def test_criterion_b_closed_form():
    # B(om1=1) = 2 pi int r^2 dr dz = 2 pi Lz (R^3/3 - R Dr^2/12) exactly
    g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=40, nz=8))
    one = field_from_function(g, lambda r, z: 1.0 + 0 * r, EVEN)
    _, B = criteria_pair(one)
    want = 2 * math.pi * (1.0 / 3.0 - g.dr**2 / 12.0)
    assert math.isclose(B, want, rel_tol=1e-13)


def test_mode_basis_is_built_once_per_grid(grid32):
    assert grid32.modes is grid32.modes


def column_thomas_solve(grid, rhs_values):
    """Thomas factorization and sweep over all modes at once, in the
    transposed (modes, nr) complex layout with complex division by the
    pivots: the reference the eigenbasis solve must reproduce to roundoff."""
    nr, nz = grid.nr, grid.nz
    sub, diag, sup = grid.radial_bands
    k = np.arange(nz // 2 + 1)
    mu = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / nz)) / (grid.dz * grid.dz)
    a, c = -sub, -sup
    b = -diag[None, :] + mu[:, None]
    d = np.empty((mu.size, nr))
    w = np.zeros((mu.size, nr))
    d[:, 0] = b[:, 0]
    for i in range(1, nr):
        w[:, i] = a[i] / d[:, i - 1]
        d[:, i] = b[:, i] - w[:, i] * c[i - 1]
    g = np.fft.rfft(rhs_values, axis=1).T.copy()
    for i in range(1, nr):
        g[:, i] -= w[:, i] * g[:, i - 1]
    g[:, -1] /= d[:, -1]
    for i in range(nr - 2, -1, -1):
        g[:, i] = (g[:, i] - c[i] * g[:, i + 1]) / d[:, i]
    return np.fft.irfft(g.T, n=nz, axis=1)


@pytest.mark.parametrize(
    "nr, nz",
    [(16, 8), (17, 12), (64, 64), (4, 4), (5, 8), (7, 12), (33, 64), (100, 12)],
)
def test_mode_basis_solve_matches_thomas_reference(nr, nz):
    g = make_grid(GridSpec(R=1.0, Lz=1.3, nr=nr, nz=nz))
    source = np.random.default_rng(nr * 1000 + nz).standard_normal((nr, nz))
    want = column_thomas_solve(g, source)
    got = g.modes.solve(source)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    om = ScalarField(g, source, EVEN)
    psi = solve_stream(om)
    assert np.array_equal(psi.values, got)
    assert stream_residual(psi, om) <= 1e-12 * norm_l2(om)
    # bytes, so that a signed zero would show
    zero = np.zeros((nr, nz))
    assert g.modes.solve(zero).tobytes() == zero.tobytes()


@pytest.mark.parametrize(
    "R, Lz, nz",
    [(1.0, 1.3, 8), (1.0, 1.3, 12), (1.0, 0.2, 8), (1.0, 0.2, 12),
     (0.7, 1.3, 8), (1.3, 1.3, 12), (2.0, 1.3, 8)],
)
def test_eigenbasis_matches_thomas_reference_for_every_nr(R, Lz, nz):
    # the symmetrizer grows like r^(3/2), so the error grows with nr
    for nr in range(4, 161):
        g = make_grid(GridSpec(R=R, Lz=Lz, nr=nr, nz=nz))
        source = np.random.default_rng(nr * 1000 + nz).standard_normal((nr, nz))
        want = column_thomas_solve(g, source)
        got = g.modes.solve(source)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), nr


def test_mode_basis_pairs_are_eigenmodes_of_lap3():
    # the top pair of B[1:, 1:] has lam = -diag[0] exactly, where the row-0
    # entry sup[0] x_1 / (-diag[0] - lam) divides by zero, so it is skipped
    for nr in range(4, 161):
        g = make_grid(GridSpec(R=0.7, Lz=1.3, nr=nr, nz=8))
        m = g.modes
        _, diag, sup = g.radial_bands
        for k in (1, 2):
            cos = np.cos(2 * np.pi * k * g.z / 1.3)
            sin = np.sin(2 * np.pi * k * g.z / 1.3)
            ddz = d_dz_values(np.outer(np.ones(nr), cos), g.dz)
            assert np.max(np.abs(ddz + m.s[k] * sin)) <= 1e-13 * m.s[k], (nr, k)
            for i in sorted({0, 1, (nr - 1) // 2, nr - 3}):
                vec = np.concatenate(
                    ([sup[0] * m.v[0, i] / (-diag[0] - m.lam[i])], m.v[:, i])
                )
                f, ev = np.outer(vec, cos), m.lam[i] + m.mu[k]
                scale = np.max(np.abs(f))
                err = np.max(np.abs(-lap3_values(f, g) - ev * f))
                assert err <= 1e-11 * ev * scale, (nr, k, i)
                psi = solve_stream(ScalarField(g, f, EVEN)).values
                assert np.max(np.abs(psi - f / ev)) <= 1e-13 * scale / ev, (nr, k, i)
            e0, ev = np.outer(np.eye(nr)[0], cos), -diag[0] + m.mu[k]
            assert np.max(np.abs(-lap3_values(e0, g) - ev * e0)) <= 1e-13 * ev, (nr, k)


def test_grid_dies_on_del_after_solve_and_criteria_constant():
    # grid.modes must not hold its grid: that cycle would keep each
    # eigenbasis of an every-nr sweep alive until a gc pass.  With gc off,
    # __del__ runs exactly when the last reference goes.
    finalized = []

    class Watched(Grid):
        def __del__(self):
            finalized.append(self.nr)

    gc.disable()
    try:
        g = Watched(**vars(make_grid(GridSpec(R=1.0, Lz=1.3, nr=17, nz=12))))
        solve_stream(ScalarField(g, np.ones((g.nr, g.nz)), EVEN))
        criteria_constant(g)
        del g
        assert finalized == [17]
    finally:
        gc.enable()


def test_solve_result_does_not_alias_the_grid_buffer(grid16, grid32, rng):
    # all solves on one grid share that grid's rfft buffer; what a solve
    # returns must be the caller's own array
    sources = {
        g: [ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN) for _ in range(2)]
        for g in (grid16, grid32)
    }
    alone = {g: [solve_stream(om).values.copy() for om in oms] for g, oms in sources.items()}
    first = solve_stream(sources[grid32][0]).values
    kept = first.tobytes()
    solve_stream(sources[grid32][1])
    assert first.tobytes() == kept
    interleaved = {grid16: [], grid32: []}
    for i in range(2):
        for g in (grid16, grid32):
            interleaved[g].append(solve_stream(sources[g][i]).values)
    for g in (grid16, grid32):
        for got, want in zip(interleaved[g], alone[g]):
            assert got.tobytes() == want.tobytes()


def test_bands_and_mu_are_the_modes_of_minus_lap3():
    g = make_grid(GridSpec(R=1.0, Lz=1.3, nr=17, nz=12))
    psi = np.random.default_rng(5).standard_normal((g.nr, g.nz))
    sub, diag, sup = g.radial_bands
    b = -diag[:, None] + g.modes.mu[None, :]  # M_k = -L_r + mu_k I
    a, c = -sub[:, None], -sup[:, None]
    assert b.shape == (g.nr, g.nz // 2 + 1)
    assert a[0] == 0.0 and a[1] == 0.0 and c[-1] == 0.0
    x = np.fft.rfft(psi, axis=1)
    mx = b * x
    mx[1:] += a[1:] * x[:-1]
    mx[:-1] += c[:-1] * x[1:]
    want = np.fft.rfft(-lap3_values(psi, g), axis=1)
    assert np.max(np.abs(mx - want)) <= 1e-12 * np.max(np.abs(want))


def test_sharp_constant_bounds_the_bump_ensemble(grid64):
    # the seed-11 ensemble of 100 two-term bump fields at 64^2
    C, _, _ = criteria_constant(grid64)
    rng = np.random.default_rng(11)
    for _ in range(100):
        A, B = criteria_pair(bump_field(random_bump_terms(rng, R=1.0), grid64))
        assert A <= C * (1.0 + 1e-12) * B


@pytest.mark.parametrize("nr, nz", [(48, 32), (17, 12)])
def test_sharp_constant_attained_by_its_maximizer(nr, nz):
    g = make_grid(GridSpec(R=1.0, Lz=1.3, nr=nr, nz=nz))
    C, k, profile = criteria_constant(g)
    assert 0.0 < C <= 2.0 and 0 < k < nz // 2
    om = ScalarField(g, np.outer(profile, np.cos(2 * np.pi * k * g.z / 1.3)), EVEN)
    A, B = criteria_pair(om)
    assert abs(A / B - C) <= 1e-10 * C
