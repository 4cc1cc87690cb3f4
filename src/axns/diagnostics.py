"""Monitor functionals and the per-run criteria series.

One MonitorRow per sampled time, columns in this fixed order:

    t            sample time
    E            kinetic energy (1/2) int |v|^2 dx
    D            dissipation integral int |grad v|^2 + (v_r/r)^2 + (v_phi/r)^2 dx
    critA        int v_r^2 / r^3 dx  = 2 pi int (d_dz psi1)^2 dr dz
    critB        int om_phi^2 / r dx = 2 pi int r^2 om1^2 dr dz
    critA_int    trapezoid of critA over the rows so far
    critB_int    trapezoid of critB over the rows so far
    swirl_sup    max |r^2 u1|
    cfz_l2       int w^2 dx with w = v_phi^2 / r = r u1^2  (squared L2 norm)
    cfz_grad_int trapezoid of int |grad w|^2 dx
    phi_l2       || -d_dz(u1) ||_L2
    om1_l2       || om1 ||_L2 volume norm ( = ||Gamma||_L2 )
    om1_grad_int trapezoid of int |grad om1|^2 dx
    u1_l4_int    trapezoid of int u1^4 dx ( = ||v_phi/r||_L4^4 )
    ualpha_s     int |u_alpha|^s dx with u_alpha = r^(2 - alpha) u1, alpha = 3/s
    quartic_lhs  int v_phi^4 dx
    quartic_rhs  swirl_sup^2 int u1^2 dx

instantaneous(state, s) is the one place these formulas are written.  It
takes each stencil once (the velocity from reconstruct_velocity, then
d_dz of psi1 and u1, and d_dr/d_dz of w and om1), forms r^2 u1 and its
maximum once for swirl_sup and quartic_rhs, and sums raw node values
against grid.quad_w.  Each integrand is formed in a buffer of the grid's
workspace (grid.work) and summed there, so a sample allocates only the
velocity and one radial derivative.  One finiteness check on the
finished entries replaces a check per integrand.  criterion_A,
criterion_B and quartic_check evaluate single columns for callers outside
the series.

No functional divides by r pointwise: the 1/r weights are absorbed into
the reduced variables (v_r/r = -d_dz(psi1), v_phi/r = u1, om_phi/r = om1)
or into explicit powers of r with nonnegative exponent.

The dissipation D is assembled from face-centered first differences (the
discrete Dirichlet form of the gradient integrals): axial faces pair
exactly with the periodic second difference the stepper applies, radial
faces live at r_{i+1/2} with weight 2 pi r_{i+1/2} dr dz, and the wall
face contributes the half-cell one-sided difference for the components
that vanish there (v_r, v_phi) and nothing for v_z, whose wall condition
is the stress-free om_phi(R) = 0.  This keeps the cumulative balance
E(T) - E(0) + nu int D dt closed to the discretization error of the
scheme itself rather than to a wall artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Sequence

import math

import numpy as np

from .grid import ODD, Grid, d_dr, d_dr_values, d_dz, d_dz_values
from .kinematics import State, reconstruct_velocity


@dataclass
class MonitorRow:
    t: float
    E: float
    D: float
    critA: float
    critB: float
    critA_int: float
    critB_int: float
    swirl_sup: float
    cfz_l2: float
    cfz_grad_int: float
    phi_l2: float
    om1_l2: float
    om1_grad_int: float
    u1_l4_int: float
    ualpha_s: float
    quartic_lhs: float
    quartic_rhs: float


COLUMNS = tuple(f.name for f in dc_fields(MonitorRow))


@dataclass
class CriteriaSeries:
    """Monitor rows of one run, sampled at viscosity nu with swirl exponent s."""

    nu: float
    s: int
    rows: list[MonitorRow] = field(default_factory=list)
    _prev: dict | None = field(default=None, repr=False)


def _face_grad_sq(vals: np.ndarray, grid: Grid, wall_zero: bool) -> float:
    """int |grad f|^2 dx from face differences; see the module docstring."""
    ws = grid.work
    d, sq = ws.leaf[1], ws.leaf[2]
    # axial faces along the flattened C-ordered array (as d_dz_values
    # does), then the last column again, across the periodic wrap
    vals = np.ascontiguousarray(vals)
    np.subtract(vals.reshape(-1)[1:], vals.reshape(-1)[:-1], out=d.reshape(-1)[:-1])
    np.subtract(vals[:, 0], vals[:, -1], out=d[:, -1])
    d /= grid.dz
    np.multiply(ws.quad_w, d, out=sq)
    total = np.sum(np.multiply(sq, d, out=sq))
    dr, sqr = d[:-1], sq[:-1]  # the nr - 1 interior radial faces
    np.subtract(vals[1:], vals[:-1], out=dr)
    dr /= grid.dr
    np.multiply(ws.face_w, dr, out=sqr)
    total += np.sum(np.multiply(sqr, dr, out=sqr))
    if wall_zero:
        half = 0.5 * grid.dr
        w_wall = 2.0 * np.pi * grid.spec.R * half * grid.dz
        dwall = vals[-1] / half
        total += w_wall * np.sum(dwall * dwall)
    return float(total)


def _criterion_a(g: Grid, dpz: np.ndarray) -> float:
    """critA from the node values dpz of d_dz(psi1)."""
    sq = np.multiply(dpz, dpz, out=g.work.leaf[0])
    return float(2.0 * np.pi * g.dr * g.dz * np.sum(sq))


def criterion_A(state: State) -> float:
    """int v_r^2 / r^3 dx via the reduced form 2 pi int (d_dz psi1)^2 dr dz."""
    return _criterion_a(state.grid, d_dz(state.psi1).values)


def criterion_B(state: State) -> float:
    """int om_phi^2 / r dx via 2 pi int r^2 om1^2 dr dz."""
    g = state.grid
    om = state.omega1.values
    sq = np.multiply(g.work.r2, om, out=g.work.leaf[0])
    sq *= om
    return float(2.0 * np.pi * g.dr * g.dz * np.sum(sq))


def _swirl_quartic(g: Grid, u: np.ndarray) -> tuple[float, float, float]:
    """(max |r^2 u1|, int v_phi^4 dx, (max |r^2 u1|)^2 int u1^2 dx).

    Both integrals are assembled elementwise with the same weights and
    summed by the same reduction, so lhs <= rhs survives rounding exactly.
    """
    ws = g.work
    a, usq, t = ws.leaf
    np.multiply(ws.r2, u, out=a)
    np.multiply(u, u, out=usq)
    m = float(np.max(np.abs(a, out=t)))
    np.multiply(a, a, out=t)
    t *= usq
    lhs = float(np.sum(np.multiply(ws.quad_w, t, out=t)))
    np.multiply(m * m, usq, out=t)
    return m, lhs, float(np.sum(np.multiply(ws.quad_w, t, out=t)))


def quartic_check(state: State) -> tuple[float, float]:
    """Pointwise bound int v_phi^4 dx <= (max |r^2 u1|)^2 int u1^2 dx,
    returned as (lhs, rhs)."""
    return _swirl_quartic(state.grid, state.u1.values)[1:]


def _ualpha_integral(g: Grid, u: np.ndarray, s: int, p: float) -> float:
    """int |u_alpha|^p dx with u_alpha = r^(2 - 3/s) u1, summed as
    r^((2s - 3) p / s) |u1|^p; the exponent is exactly 2s - 3 when p = s."""
    ws = g.work
    t = np.power(np.abs(u, out=ws.leaf[0]), p, out=ws.leaf[0])
    np.multiply(ws.r ** ((2.0 * s - 3.0) * p / s), t, out=t)
    return float(np.sum(np.multiply(t, ws.quad_w, out=t)))


def ualpha_norm(state: State, s: int, p: float) -> float:
    """||u_alpha||_{L_p} of the weighted swirl u_alpha = r^(2 - 3/s) u1;
    p = math.inf gives max |u_alpha|."""
    if not p >= 1.0:
        raise ValueError(f"ualpha_norm: exponent p must be >= 1, got {p}")
    g, u = state.grid, state.u1.values
    if math.isinf(p):
        return float(np.max(np.abs(g.r[:, None] ** (2.0 - 3.0 / s) * u)))
    return _ualpha_integral(g, u, s, p) ** (1.0 / p)


def lpq_norm(samples: Sequence[tuple[float, float]], q: float) -> float:
    """(int_0^T ||u(t)||_{L_p}^q dt)^(1/q) from (t, ||u(t)||_{L_p}) pairs,
    such as ualpha_norm values: the trapezoid rule over strictly increasing
    times, at least 2 of them, or the max over the samples for q = math.inf.
    """
    if len(samples) == 0:
        raise ValueError("lpq_norm: empty sample series")
    if not q >= 1.0:
        raise ValueError(f"lpq_norm: exponent q must be >= 1, got {q}")
    times, space = np.array(samples, dtype=np.float64).T
    if np.any(np.diff(times) <= 0):
        raise ValueError("lpq_norm: sample times must be strictly increasing")
    if not np.all(np.isfinite(space)):
        raise ValueError("lpq_norm: non-finite spatial norms")
    if not math.isinf(q) and len(samples) < 2:
        raise ValueError("lpq_norm: need at least 2 time samples for finite q")
    if math.isinf(q):
        return float(np.max(space))
    vals = space**q
    integral = float(np.sum(0.5 * np.diff(times) * (vals[1:] + vals[:-1])))
    return integral ** (1.0 / q)


def omega1_budget(series: CriteriaSeries) -> tuple[np.ndarray, np.ndarray]:
    """Vorticity energy budget along the rows:

    lhs(t) = (1/2)||om1(t)||^2 + (nu/2) int_0^t ||grad om1||^2
    rhs(t) = (2/nu) int_0^t ||u1||_L4^4 + (1/2)||om1(0)||^2

    with nu = series.nu.  The inequality lhs <= rhs holds for the continuum
    system with slack; callers check it row by row with a small tolerance.
    """
    if not series.rows:
        raise ValueError("omega1_budget: empty series")
    nu = series.nu
    om0 = series.rows[0].om1_l2
    lhs = np.array(
        [0.5 * row.om1_l2**2 + 0.5 * nu * row.om1_grad_int for row in series.rows]
    )
    rhs = np.array(
        [2.0 / nu * row.u1_l4_int + 0.5 * om0**2 for row in series.rows]
    )
    return lhs, rhs


def instantaneous(state: State, s: int) -> dict:
    """Instantaneous functionals of one state, keyed by column name or, for
    a running integral <key>_int, by <key>; see the module docstring.  A
    non-finite entry (an overflow) raises ValueError.
    """
    if s < 3:
        raise ValueError(f"s must be an integer >= 3, got {s}")
    g = state.grid
    ws = g.work
    w = ws.quad_w
    u = state.u1.values
    om = state.omega1.values
    t1, t2, dpz, cfz = ws.kernel[:4]

    def total(x):  # int x dx, with the integrand x * w formed over x
        return float(np.sum(np.multiply(x, w, out=x)))

    def grad_sq(d_r, d_z):  # int d_r^2 + d_z^2 dx, formed over d_r and d_z
        np.multiply(d_r, d_r, out=d_r)
        d_r += np.multiply(d_z, d_z, out=d_z)
        return total(d_r)

    vel = reconstruct_velocity(state)
    vr, vphi, vz = vel.v_r.values, vel.v_phi.values, vel.v_z.values
    np.multiply(vr, vr, out=t1)
    t1 += np.multiply(vphi, vphi, out=t2)
    t1 += np.multiply(vz, vz, out=t2)
    energy = 0.5 * total(t1)
    dissipation = (
        _face_grad_sq(vr, g, wall_zero=True)
        + _face_grad_sq(vphi, g, wall_zero=True)
        + _face_grad_sq(vz, g, wall_zero=False)
    )
    del vel, vr, vphi, vz  # freed before d_dr(omega1) below allocates
    d_dz_values(state.psi1.values, g.dz, out=dpz)  # -v_r / r
    np.multiply(dpz, dpz, out=t1)
    t1 += np.multiply(u, u, out=t2)
    dissipation += total(t1)
    # v_phi^2 / r = r u1^2 (w in the column table) vanishes at the axis: odd
    np.multiply(ws.r, u, out=cfz)
    cfz *= u
    sup, q_lhs, q_rhs = _swirl_quartic(g, u)
    inst = {
        "E": energy,
        "D": dissipation,
        "critA": _criterion_a(g, dpz),
        "critB": criterion_B(state),
        "swirl_sup": sup,
        "cfz_l2": total(np.square(cfz, out=t1)),
        "cfz_grad": grad_sq(
            d_dr_values(cfz, g.dr, ODD, out=t1), d_dz_values(cfz, g.dz, out=t2)
        ),
        "u1_l4": total(np.power(u, 4, out=t1)),
        # -d_dz(u1) = om_r / r
        "phi_l2": math.sqrt(total(np.square(d_dz_values(u, g.dz, out=t1), out=t1))),
        "om1_l2": math.sqrt(total(np.multiply(om, om, out=t1))),
        # the ScalarField wrapper keeps d_dr a name looked up here, where
        # perfbench's tracer wraps it; its fresh array is the integrand buffer
        "om1_grad": grad_sq(d_dr(state.omega1).values, d_dz_values(om, g.dz, out=t2)),
        "ualpha_s": _ualpha_integral(g, u, s, s),
        "quartic_lhs": q_lhs,
        "quartic_rhs": q_rhs,
    }
    bad = [k for k, v in inst.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"instantaneous: non-finite monitor values {bad}")
    return inst


def sample(state: State, series: CriteriaSeries) -> MonitorRow:
    """Append one monitor row; running integrals advance by the trapezoid
    rule against the previous row's instantaneous values."""
    inst = instantaneous(state, series.s)
    t = state.t
    last = series.rows[-1] if series.rows else None
    if last is not None and not t > last.t:
        raise ValueError(f"sample: time {t} not after previous row {last.t}")
    # a column <key>_int is the running trapezoid of the instantaneous <key>
    values = {"t": t}
    for col in COLUMNS[1:]:
        key = col.removesuffix("_int")
        if key == col:
            values[col] = inst[col]
        elif last is None:
            values[col] = 0.0
        else:
            half = 0.5 * (t - last.t)
            values[col] = getattr(last, col) + half * (series._prev[key] + inst[key])
    row = MonitorRow(**values)
    series.rows.append(row)
    series._prev = inst
    return row
