"""Grid construction, quadrature, and stencil checks.

Closed-form quadrature identities used below (midpoint sums in r):
    sum (i+1/2)   Dr over i<n = R^2/2 / Dr            (exact telescoping)
    sum (i+1/2)^2 Dr^3        = R^3/3 - R Dr^2/12
    sum (i+1/2)^3 Dr^4        = R^4/4 - R^2 Dr^2/8
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axns.grid import (
    EVEN,
    ODD,
    GridSpec,
    ScalarField,
    d_dr,
    d_dr_values,
    d2_dz2_values,
    d_dz,
    d_dz_values,
    field_from_function,
    integrate_volume,
    lap3_values,
    make_grid,
    modified_laplacian,
    norm_l2,
    zeros_field,
)


def test_node_layout_small():
    g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=4, nz=4))
    assert np.allclose(g.r, [0.125, 0.375, 0.625, 0.875], atol=0, rtol=1e-15)
    assert np.allclose(g.z, [0.0, 0.25, 0.5, 0.75], atol=1e-15)
    assert g.dr == 0.25 and g.dz == 0.25


def test_quadrature_telescopes_to_volume():
    g = make_grid(GridSpec(R=2.0, Lz=1.0, nr=8, nz=8))
    total = g.nz * np.sum(g.quad_w)
    assert math.isclose(total, 4.0 * math.pi, rel_tol=1e-12)


@given(
    nr=st.integers(4, 80),
    nz=st.sampled_from([4, 6, 10, 32, 64]),
    R=st.floats(0.1, 10.0),
    Lz=st.floats(0.1, 10.0),
)
def test_quadrature_exact_every_grid(nr, nz, R, Lz):
    g = make_grid(GridSpec(R=R, Lz=Lz, nr=nr, nz=nz))
    vol = integrate_volume(field_from_function(g, lambda r, z: np.ones_like(r + z), EVEN))
    assert math.isclose(vol, math.pi * R * R * Lz, rel_tol=1e-12)


@pytest.mark.parametrize(
    "kw",
    [
        dict(R=1.0, Lz=1.0, nr=3, nz=4),
        dict(R=1.0, Lz=1.0, nr=4, nz=3),
        dict(R=1.0, Lz=1.0, nr=4, nz=5),
        dict(R=0.0, Lz=1.0, nr=4, nz=4),
        dict(R=1.0, Lz=-1.0, nr=4, nz=4),
        dict(R=math.nan, Lz=1.0, nr=4, nz=4),
    ],
)
def test_bad_spec_rejected(kw):
    with pytest.raises(ValueError):
        make_grid(GridSpec(**kw))


def test_integrate_constant_and_zero(grid32):
    one = field_from_function(grid32, lambda r, z: np.ones_like(r), EVEN)
    assert math.isclose(integrate_volume(one), math.pi, rel_tol=1e-12)
    assert integrate_volume(zeros_field(grid32)) == 0.0


def test_integrate_r_midpoint_closed_form():
    # int r dx = 2 pi Lz (R^3/3 - R Dr^2/12) exactly for the midpoint rule
    for nr in (16, 64):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=nr, nz=8))
        got = integrate_volume(field_from_function(g, lambda r, z: r + 0 * z, ODD))
        want = 2 * math.pi * (1.0 / 3.0 - g.dr**2 / 12.0)
        assert math.isclose(got, want, rel_tol=1e-13)
        assert abs(got - 2 * math.pi / 3) < 0.6 * g.dr**2


def test_integrate_rejects_nonfinite(grid16):
    vals = np.zeros((grid16.nr, grid16.nz))
    vals[3, 3] = math.inf
    with pytest.raises(ValueError):
        integrate_volume(ScalarField(grid16, vals, EVEN))


def test_field_shape_and_parity_validation(grid16):
    with pytest.raises(ValueError):
        ScalarField(grid16, np.zeros((3, 3)), EVEN)
    with pytest.raises(ValueError):
        ScalarField(grid16, np.zeros((grid16.nr, grid16.nz)), "sideways")


def test_d_dr_constant_is_zero_away_from_wall(grid32):
    # a constant does not satisfy the Dirichlet wall condition, so the
    # mirrored ghost bends the outermost ring; every other ring is exact
    c = field_from_function(grid32, lambda r, z: 2.5 + 0 * r, EVEN)
    vals = d_dr(c).values
    assert np.max(np.abs(vals[:-1])) == 0.0
    assert math.isclose(vals[-1, 0], -2.5 / grid32.dr, rel_tol=1e-13)


def test_d_dr_quadratic_exact_away_from_wall(grid32):
    # centered differences are exact on r^2; the even axis ghost keeps the
    # first ring exact too.  The wall ring uses the Dirichlet ghost and is
    # excluded (r^2 does not vanish at r=R).
    f = field_from_function(grid32, lambda r, z: r * r + 0 * z, EVEN)
    got = d_dr(f).values[:-1]
    want = 2.0 * grid32.r[:-1, None]
    assert np.allclose(got, np.broadcast_to(want, got.shape), rtol=1e-13, atol=1e-13)


def test_d_dr_odd_ghost_on_linear_field(grid32):
    f = field_from_function(grid32, lambda r, z: r + 0 * z, ODD)
    # ghost f(-1) = -f(0): (f(1) + f(0)) / (2 Dr) = 1 exactly on ring 0
    assert np.allclose(d_dr(f).values[0], 1.0, rtol=1e-13)


def test_d_dr_parity_flip(grid16):
    assert d_dr(zeros_field(grid16, EVEN)).parity == ODD
    assert d_dr(zeros_field(grid16, ODD)).parity == EVEN
    assert d_dz(zeros_field(grid16, ODD)).parity == ODD


def test_d_dz_constant_and_symmetry(grid32):
    c = field_from_function(grid32, lambda r, z: -1.25 + 0 * z, EVEN)
    assert np.max(np.abs(d_dz(c).values)) == 0.0
    f = field_from_function(grid32, lambda r, z: np.cos(2 * np.pi * z) + 0 * r, EVEN)
    # centered stencil of an even function vanishes at its symmetry point
    assert abs(d_dz(f).values[0, 0]) < 1e-14


def test_d_dz_discrete_fourier_symbol(grid64):
    # d_dz cos(k z) = -(sin(k dz)/dz) sin(k z) exactly for the centered stencil
    k = 2 * np.pi
    f = field_from_function(grid64, lambda r, z: np.cos(k * z) + 0 * r, EVEN)
    got = d_dz(f).values
    ktil = math.sin(k * grid64.dz) / grid64.dz
    want = -ktil * np.sin(k * grid64.z)[None, :] * np.ones((grid64.nr, 1))
    assert np.allclose(got, want, atol=1e-12)
    assert math.isclose(ktil, k, rel_tol=(k * grid64.dz) ** 2)


def test_d_dz_order_two():
    errs = []
    for n in (16, 32, 64):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=4, nz=n))
        f = field_from_function(g, lambda r, z: np.sin(2 * np.pi * z) + 0 * r, EVEN)
        want = 2 * np.pi * np.cos(2 * np.pi * g.z)[None, :]
        errs.append(np.max(np.abs(d_dz(f).values - want)))
    assert math.log2(errs[0] / errs[1]) > 1.9
    assert math.log2(errs[1] / errs[2]) > 1.9


def test_d_dr_order_two_on_bump():
    # symmetrized gaussian ring: smooth and even across the axis
    rho, w = 0.35, 0.16

    def bump(r, z):
        return np.exp(-(((r - rho) / w) ** 2)) + np.exp(-(((r + rho) / w) ** 2)) + 0 * z

    def dbump(r):
        return -2 * (r - rho) / w**2 * np.exp(-(((r - rho) / w) ** 2)) - 2 * (
            r + rho
        ) / w**2 * np.exp(-(((r + rho) / w) ** 2))

    errs = []
    for n in (32, 64, 128):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=n, nz=4))
        f = field_from_function(g, bump, EVEN)
        want = dbump(g.r)[:, None]
        errs.append(np.max(np.abs(d_dr(f).values - want)))
    assert math.log2(errs[0] / errs[1]) > 1.9
    assert math.log2(errs[1] / errs[2]) > 1.9


def test_modified_laplacian_constant_zero_away_from_wall(grid16):
    c = field_from_function(grid16, lambda r, z: 3.0 + 0 * r, EVEN)
    got = np.max(np.abs(modified_laplacian(c).values[:-1]))
    # band coefficients cancel only to rounding, so allow ulps of c/Dr^2
    assert got <= 1e-12 * 3.0 / grid16.dr**2


def test_modified_laplacian_quadratic():
    # (d_rr + (3/r) d_r)(r^2) = 2 + 6 = 8; the tridiagonal rows reproduce it
    # exactly on every ring but the wall (axis row included: the folded
    # (-4, 4)/Dr^2 coefficients give 4 (r_1^2 - r_0^2)/Dr^2 = 8).
    g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=48, nz=4))
    f = field_from_function(g, lambda r, z: r * r + 0 * z, EVEN)
    got = modified_laplacian(f).values[:-1]
    assert np.allclose(got, 8.0, rtol=1e-11, atol=1e-11)


def test_modified_laplacian_z_eigenfunction():
    errs = []
    k = 2 * np.pi
    for n in (16, 32, 64):
        g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=8, nz=n))
        f = field_from_function(g, lambda r, z: np.cos(k * z) + 0 * r, EVEN)
        got = modified_laplacian(f).values[:-1]
        want = -(k**2) * np.cos(k * g.z)[None, :]
        errs.append(np.max(np.abs(got - np.broadcast_to(want, got.shape))))
    assert math.log2(errs[0] / errs[1]) > 1.9
    assert math.log2(errs[1] / errs[2]) > 1.9


def test_radial_band_sub1_is_exactly_zero():
    # 1/dr^2 - 3/(2 r_1 dr) with r_1 = 1.5 dr is 0, but the float
    # subtraction leaves one ulp on 267 of these 628 grids
    for R in (0.7, 1.0, 1.3, 2.0):
        for nr in range(4, 161):
            sub = make_grid(GridSpec(R=R, Lz=1.0, nr=nr, nz=4)).radial_bands[0]
            assert sub[1] == 0.0, (R, nr)


def test_radial_weights_symmetrize_the_bands():
    # diag(w) B is symmetric for B = -L_r: w_i sup[i] = w_{i+1} sub[i+1],
    # and w_0 = 0 matches the exact zero of sub[1]
    for R in (0.7, 1.0, 2.0):
        for nr in range(4, 161):
            g = make_grid(GridSpec(R=R, Lz=1.0, nr=nr, nz=4))
            sub, _, sup = g.radial_bands
            w = g.radial_weights
            assert w[0] == 0.0, (R, nr)
            upper, lower = w[:-1] * sup[:-1], w[1:] * sub[1:]
            assert np.all(np.abs(upper - lower) <= 1e-14 * np.abs(upper)), (R, nr)


def test_modified_laplacian_rejects_odd(grid16):
    with pytest.raises(ValueError):
        modified_laplacian(zeros_field(grid16, ODD))


@given(seed=st.integers(0, 2**32 - 1))
def test_z_integration_by_parts(grid32, seed):
    # periodic z makes sum f d_dz(g) + sum g d_dz(f) vanish to roundoff
    rng = np.random.default_rng(seed)
    shape = (grid32.nr, grid32.nz)
    f = ScalarField(grid32, rng.standard_normal(shape), EVEN)
    g = ScalarField(grid32, rng.standard_normal(shape), EVEN)
    lhs = integrate_volume(
        ScalarField(grid32, f.values * d_dz(g).values, EVEN)
    ) + integrate_volume(ScalarField(grid32, g.values * d_dz(f).values, EVEN))
    assert abs(lhs) <= 1e-10 * max(norm_l2(f) * norm_l2(g), 1e-30)


@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
)
def test_stencils_linear(grid16, seed, a, b):
    rng = np.random.default_rng(seed)
    shape = (grid16.nr, grid16.nz)
    f = ScalarField(grid16, rng.standard_normal(shape), EVEN)
    g = ScalarField(grid16, rng.standard_normal(shape), EVEN)
    comb = ScalarField(grid16, a * f.values + b * g.values, EVEN)
    for op in (d_dr, d_dz, modified_laplacian):
        got = op(comb).values
        want = a * op(f).values + b * op(g).values
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_norm_l2_matches_quadrature(grid16, rng):
    f = ScalarField(grid16, rng.standard_normal((grid16.nr, grid16.nz)), EVEN)
    direct = math.sqrt(float(np.sum(grid16.quad_w[:, None] * f.values**2)))
    assert math.isclose(norm_l2(f), direct, rel_tol=1e-12)


@pytest.mark.parametrize("nr, nz", [(4, 4), (9, 6), (16, 12)])
def test_z_stencils_match_rolled_form_bitwise(nr, nz):
    # the wrap-column stencils do the arithmetic of the np.roll formulas
    g = make_grid(GridSpec(R=1.0, Lz=0.7, nr=nr, nz=nz))
    v = np.random.default_rng(nr + nz).standard_normal((nr, nz))
    up, down = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
    assert np.array_equal(d_dz(ScalarField(g, v, EVEN)).values, (up - down) / (2.0 * g.dz))
    want = (up - 2.0 * v + down) / (g.dz * g.dz)
    assert np.array_equal(d2_dz2_values(v, g.dz), want)
    assert np.array_equal(d2_dz2_values(np.asfortranarray(v), g.dz), want)
    # each array stencil's out= form writes the bytes of its allocating form
    stencils = (
        lambda x, out=None: d_dr_values(x, g.dr, EVEN, out=out),
        lambda x, out=None: d_dr_values(x, g.dr, ODD, out=out),
        lambda x, out=None: d_dz_values(x, g.dz, out=out),
        lambda x, out=None: d2_dz2_values(x, g.dz, out=out),
        lambda x, out=None: lap3_values(x, g, out=out),
    )
    for stencil in stencils:
        for x in (v, np.asfortranarray(v)):
            out = np.full((nr, nz), np.nan)
            assert stencil(x, out=out) is out
            assert out.tobytes() == stencil(x).tobytes()


def test_workspace_constants_are_read_only_full_size_columns():
    # nr != nz, so a transposed constant cannot pass
    g = make_grid(GridSpec(R=1.3, Lz=0.7, nr=12, nz=8))
    sub, diag, sup = g.radial_bands
    r_face = g.r[:-1] + 0.5 * g.dr
    columns = {
        "r": g.r[:, None],
        "neg_r": -g.r[:, None],
        "r2": g.r[:, None] ** 2,
        "quad_w": g.quad_w[:, None],
        "face_w": (2.0 * np.pi * r_face * g.dr * g.dz)[:, None],
        "sub": sub[:, None],
        "diag": diag[:, None],
        "sup": sup[:, None],
    }
    for name, col in columns.items():
        const = getattr(g.work, name)
        want = np.broadcast_to(col, (col.shape[0], g.nz))
        assert not const.flags.writeable, name
        assert const.shape == want.shape, name
        assert const.tobytes() == want.tobytes(), name
    # lap3 does the arithmetic of the column-broadcast form
    v = np.random.default_rng(8).standard_normal((g.nr, g.nz))
    want = diag[:, None] * v
    want[1:] += sub[1:, None] * v[:-1]
    want[:-1] += sup[:-1, None] * v[1:]
    want += d2_dz2_values(v, g.dz)
    assert lap3_values(v, g).tobytes() == want.tobytes()


def test_lap3_out_allocates_no_full_size_temporaries(grid64, traced_peak):
    # warmed up: the bands are full-size workspace constants, so numpy
    # needs no iterator buffer (about 0.05 arrays measured at 64^2)
    v = np.random.default_rng(3).standard_normal((grid64.nr, grid64.nz))
    out = np.empty_like(v)
    lap3_values(v, grid64, out=out)
    full = grid64.nr * grid64.nz * 8
    assert traced_peak(lambda: lap3_values(v, grid64, out=out)) <= 0.25 * full
