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

instantaneous(state, s) is the one place these formulas are written and
the only evaluator of a column; the acceptance checks read it too.  It
takes each stencil once (the velocity from reconstruct_velocity, which
leaves d_dz(psi1) in a workspace buffer, then d_dz of u1, and d_dr/d_dz
of w and om1), and forms r^2 u1 and its maximum once for swirl_sup and
quartic_rhs.  Every weight is a function of r alone, so every integral
is one quadrature: the integrand is summed along z into one value per
ring (grid.ring_sums, which squares in the same pass), and the nr sums
are dotted with an r-only weight such as quad_w, quad_w r^2 or
quad_w r^(2s - 3); face differences are scaled by 1/h^2 once, on the
sums.  Integrands that differ by a power of r share their sums:
sum (d_dz psi1)^2 serves critA, D and v_r^2 in E; sum u1^2 serves D and
v_phi^2 in E; sum u1^4 serves u1_l4 and cfz_l2; sum om1^2 serves om1_l2
and critB.  The quartic pair is formed elementwise and reduced by one
path.  The integrands live in buffers of the grid's workspace
(grid.work), so a sample allocates only the velocity and one radial
derivative.  One finiteness check on the finished entries replaces a
check per integrand.

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

from .grid import ODD, Grid, d_dr, d_dr_values, d_dz_values, ring_sums
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
    """Monitor rows of one run, sampled with swirl exponent s."""

    s: int = 4
    rows: list[MonitorRow] = field(default_factory=list)
    _prev: dict | None = field(default=None, repr=False)


def _face_grad_sq(vals: np.ndarray, grid: Grid, wall_zero: bool) -> float:
    """int |grad f|^2 dx from face differences; see the module docstring."""
    d = grid.work.leaf[1]
    # axial faces along the flattened C-ordered array (as d_dz_values
    # does), then the last column again, across the periodic wrap
    vals = np.ascontiguousarray(vals)
    np.subtract(vals.reshape(-1)[1:], vals.reshape(-1)[:-1], out=d.reshape(-1)[:-1])
    np.subtract(vals[:, 0], vals[:, -1], out=d[:, -1])
    total = grid.quad_w @ ring_sums(d, d) / grid.dz**2
    # the nr - 1 interior radial faces r_{i+1/2}, weight 2 pi r dr dz, and
    # for wall_zero the half-cell difference vals[-1] / (dr / 2) at the
    # wall, weight 2 pi R (dr / 2) dz: 2 R on the scale of the faces' r
    np.subtract(vals[1:], vals[:-1], out=d[:-1])
    d[-1] = vals[-1]
    n = grid.nr if wall_zero else grid.nr - 1
    r_face = grid.r + 0.5 * grid.dr
    r_face[-1] = 2.0 * grid.spec.R
    total += 2.0 * np.pi * grid.dz / grid.dr * (r_face[:n] @ ring_sums(d[:n], d[:n]))
    return float(total)


def _swirl_quartic(g: Grid, u: np.ndarray, usq: np.ndarray) -> tuple[float, float, float]:
    """(max |r^2 u1|, int v_phi^4 dx, (max |r^2 u1|)^2 int u1^2 dx), with
    usq = u1^2.  Both integrands are formed elementwise and reduced by the
    same path, so lhs <= rhs survives rounding exactly."""
    ws = g.work
    a, t = ws.leaf[0], ws.leaf[2]
    np.multiply(ws.r2, u, out=a)
    m = float(np.max(np.abs(a, out=t)))
    np.multiply(a, a, out=t)
    t *= usq
    lhs = float(g.quad_w @ ring_sums(t))
    np.multiply(m * m, usq, out=t)
    return m, lhs, float(g.quad_w @ ring_sums(t))


def _ualpha_integral(g: Grid, u: np.ndarray, s: int, p: float) -> float:
    """int |u_alpha|^p dx with u_alpha = r^(2 - 3/s) u1, summed as
    r^((2s - 3) p / s) |u1|^p (the exponent is exactly 2s - 3 when p = s),
    or max |u_alpha| for p = math.inf.  The criteria need s >= 3."""
    if s < 3:
        raise ValueError(f"s must be an integer >= 3, got {s}")
    if math.isinf(p):
        return float(np.max(np.abs(g.r[:, None] ** (2.0 - 3.0 / s) * u)))
    ws = g.work
    a = np.abs(u, out=ws.leaf[0])
    # for small integer p a few multiplications cost less than np.power:
    # |u1|^p = x y with x = |u1|^(p // 2) and y = x or x |u1|
    if p in range(2, 9):
        x = ws.leaf[1]
        x[...] = a
        for _ in range(int(p) // 2 - 1):
            x *= a
        sums = ring_sums(x, x if p % 2 == 0 else np.multiply(x, a, out=ws.leaf[2]))
    else:
        sums = ring_sums(np.power(a, p, out=a))
    return float((g.quad_w * g.r ** ((2.0 * s - 3.0) * p / s)) @ sums)


def ualpha_norm(state: State, s: int, p: float) -> float:
    """||u_alpha||_{L_p} of the weighted swirl u_alpha = r^(2 - 3/s) u1;
    p = math.inf gives max |u_alpha|."""
    if not p >= 1.0:
        raise ValueError(f"ualpha_norm: exponent p must be >= 1, got {p}")
    norm = _ualpha_integral(state.grid, state.u1.values, s, p)
    return norm if math.isinf(p) else norm ** (1.0 / p)


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
    return float(np.trapezoid(space**q, times)) ** (1.0 / q)


def omega1_budget(rows: Sequence[MonitorRow], nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Vorticity energy budget along the rows of a run at viscosity nu:

    lhs(t) = (1/2)||om1(t)||^2 + (nu/2) int_0^t ||grad om1||^2
    rhs(t) = (2/nu) int_0^t ||u1||_L4^4 + (1/2)||om1(0)||^2

    The inequality lhs <= rhs holds for the continuum system with slack;
    callers check it row by row with a small tolerance.
    """
    if not rows:
        raise ValueError("omega1_budget: empty series")
    om0 = rows[0].om1_l2
    lhs = np.array([0.5 * row.om1_l2**2 + 0.5 * nu * row.om1_grad_int for row in rows])
    rhs = np.array([2.0 / nu * row.u1_l4_int + 0.5 * om0**2 for row in rows])
    return lhs, rhs


def instantaneous(state: State, s: int) -> dict:
    """Instantaneous functionals of one state, keyed by column name or, for
    a running integral <key>_int, by <key>; see the module docstring.  A
    non-finite entry (an overflow) raises ValueError.
    """
    g = state.grid
    ws = g.work
    w, r2 = g.quad_w, g.r**2
    w_r2 = w * r2
    u = state.u1.values
    om = state.omega1.values
    t1, t2, dpz, usq = ws.kernel[:4]

    def sq_sum(x):  # int x^2 dx
        return w @ ring_sums(x, x)

    vel = reconstruct_velocity(state, dpz)  # dpz = d_dz(psi1) = -v_r / r
    vr, vphi, vz = vel.v_r.values, vel.v_phi.values, vel.v_z.values
    dissipation = (
        _face_grad_sq(vr, g, wall_zero=True)
        + _face_grad_sq(vphi, g, wall_zero=True)
        + _face_grad_sq(vz, g, wall_zero=False)
    )
    vz_sums = ring_sums(vz, vz)
    del vel, vr, vphi, vz  # freed before d_dr(omega1) below allocates
    np.multiply(u, u, out=usq)
    dpz_sums = ring_sums(dpz, dpz)  # (v_r / r)^2, also critA's
    # (v_r / r)^2 + (v_phi / r)^2, and times r^2 the rest of |v|^2
    slow = dpz_sums + ring_sums(usq)
    energy = 0.5 * (w @ vz_sums + w_r2 @ slow)
    dissipation += w @ slow
    u4_sums = ring_sums(usq, usq)
    om_sums = ring_sums(om, om)
    # v_phi^2 / r = r u1^2 (w in the column table) vanishes at the axis: odd
    cfz = np.multiply(ws.r, usq, out=t1)
    cfz_grad = sq_sum(d_dr_values(cfz, g.dr, ODD, out=t2)) + sq_sum(
        d_dz_values(cfz, g.dz, out=dpz)
    )
    sup, q_lhs, q_rhs = _swirl_quartic(g, u, usq)
    # the ScalarField wrapper keeps d_dr a name looked up here, where
    # perfbench's tracer wraps it
    om1_grad = sq_sum(d_dr(state.omega1).values) + sq_sum(d_dz_values(om, g.dz, out=t2))
    inst = {
        "E": float(energy),
        "D": float(dissipation),
        "critA": float(2.0 * np.pi * g.dr * g.dz * np.sum(dpz_sums)),
        "critB": float(2.0 * np.pi * g.dr * g.dz * (r2 @ om_sums)),
        "swirl_sup": sup,
        "cfz_l2": float(w_r2 @ u4_sums),
        "cfz_grad": float(cfz_grad),
        "u1_l4": float(w @ u4_sums),
        # -d_dz(u1) = om_r / r
        "phi_l2": math.sqrt(sq_sum(d_dz_values(u, g.dz, out=t1))),
        "om1_l2": math.sqrt(w @ om_sums),
        "om1_grad": float(om1_grad),
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
