"""Monitor functionals and the per-run criteria series.

One MonitorRow per sampled time, columns in this fixed order, each with
the check, plot or command that reads it (the ops suite's offline and
CSV round-trip checks also read every column):

    t            sample time                         all of the below
    E            kinetic energy (1/2) int |v|^2 dx   energy suite, energy.svg
    D            dissipation integral, see below     energy suite, dissipation.svg
    critA        int v_r^2 / r^3 dx                  lemma33 ratio, criteria.svg
    critB        int om_phi^2 / r dx                 lemma33 ratio, criteria.svg
    critA_int    trapezoid of critA over the rows    criteria_int.svg
    critB_int    trapezoid of critB over the rows    criteria_int.svg
    swirl_sup    max |r^2 u1|                        maxprinciple, swirl.svg
    om1_l2       || om1 ||_L2 volume norm            omega1_budget
    om1_grad_int trapezoid of int |grad om1|^2 dx    omega1_budget
    u1_l4_int    trapezoid of int u1^4 dx            omega1_budget
    ualpha_s     int |r^(2 - 3/s) u1|^s dx           axns criteria's lpq_norm
    quartic_lhs  int v_phi^4 dx                      quartic bound check
    quartic_rhs  swirl_sup^2 int u1^2 dx             quartic bound check

instantaneous(state, s) is the one place these formulas are written and
the only evaluator of a column; the acceptance checks read it too.  It
takes each stencil once (v_r, v_z and d_dz(psi1) from
kinematics.reconstruct_velocity, then d_dr and d_dz of om1), and
forms r^2 u1 and its maximum once for swirl_sup and quartic_rhs.  Every
weight is a function of r alone, so every integral is one quadrature:
the integrand is summed along z into one value per ring (grid.ring_sums,
which squares in the same pass), and the nr sums are dotted with an
r-only weight such as quad_w, quad_w r^2 or quad_w r^(2s - 3); face
differences are scaled by 1/h^2 once, on the sums.  Integrands that
differ by a power of r share their sums: sum (d_dz psi1)^2 serves critA,
D and v_r^2 in E; sum u1^2 serves D and v_phi^2 in E; sum om1^2 serves
om1_l2 and critB.  The quartic pair is formed elementwise and reduced by
one path.  The velocity (v_r, v_z and v_phi = r u1) and the integrands
live in buffers of the grid's workspace (grid.work), so a sample
allocates one full-size array, the radial derivative of om1.  One
finiteness check on the finished entries replaces a check per integrand.

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

from .grid import Grid, d_dr, d_dz_values, ring_sums
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
    d = grid.work.leaf[0]
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
    a, t = g.work.leaf
    np.multiply(g.work.r2, u, out=a)
    m = float(np.max(np.abs(a, out=t)))
    np.multiply(a, a, out=t)
    t *= usq
    lhs = float(g.quad_w @ ring_sums(t))
    np.multiply(m * m, usq, out=t)
    return m, lhs, float(g.quad_w @ ring_sums(t))


def _ualpha_integral(g: Grid, u: np.ndarray, s: int, p: float) -> float:
    """int |u_alpha|^p dx with u_alpha = r^(2 - 3/s) u1, summed as
    r^((2s - 3) p / s) |u1|^p (the exponent is exactly 2s - 3 when p = s),
    or max |u_alpha| for p = math.inf.  The criteria need s >= 3.  |u1|^p
    is x^2 with x = |u1|^(p / 2): at the runs' p = 4, np.power squares."""
    if s < 3:
        raise ValueError(f"s must be an integer >= 3, got {s}")
    if math.isinf(p):
        return float(np.max(np.abs(g.r[:, None] ** (2.0 - 3.0 / s) * u)))
    x = g.work.leaf[0]
    np.power(np.abs(u, out=x), p / 2.0, out=x)
    return float((g.quad_w * g.r ** ((2.0 * s - 3.0) * p / s)) @ ring_sums(x, x))


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
    w, r2 = g.quad_w, g.r**2
    u = state.u1.values
    om = state.omega1.values
    tmp, dpz, usq, vr, vz, vphi = g.work.kernel[:6]

    def sq_sum(x):  # int x^2 dx
        return w @ ring_sums(x, x)

    reconstruct_velocity(g, state.psi1.values, dpz, vr, vz)  # dpz = d_dz(psi1) = -v_r / r
    np.multiply(g.work.r, u, out=vphi)
    dissipation = (
        _face_grad_sq(vr, g, wall_zero=True)
        + _face_grad_sq(vphi, g, wall_zero=True)
        + _face_grad_sq(vz, g, wall_zero=False)
    )
    vz_sums = ring_sums(vz, vz)
    np.multiply(u, u, out=usq)
    dpz_sums = ring_sums(dpz, dpz)  # (v_r / r)^2, also critA's
    # (v_r / r)^2 + (v_phi / r)^2, and times r^2 the rest of |v|^2
    slow = dpz_sums + ring_sums(usq)
    energy = 0.5 * (w @ vz_sums + (w * r2) @ slow)
    dissipation += w @ slow
    om_sums = ring_sums(om, om)
    sup, q_lhs, q_rhs = _swirl_quartic(g, u, usq)
    # the ScalarField wrapper keeps d_dr a name looked up here, where
    # perfbench's tracer wraps it
    om1_grad = sq_sum(d_dr(state.omega1).values) + sq_sum(d_dz_values(om, g.dz, out=tmp))
    inst = {
        "E": float(energy),
        "D": float(dissipation),
        "critA": float(2.0 * np.pi * g.dr * g.dz * np.sum(dpz_sums)),
        "critB": float(2.0 * np.pi * g.dr * g.dz * (r2 @ om_sums)),
        "swirl_sup": sup,
        "u1_l4": float(w @ ring_sums(usq, usq)),
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
