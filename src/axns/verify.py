"""Acceptance checks: one table behind ``axns verify`` and the pytest gate.

``CHECKS`` holds every check as (suite, name, fn); ``fn()`` returns
``(ok, detail)`` and is the one place its bound is written.  ``axns
verify`` prints one ``[pass]``/``[FAIL]`` line per check of the chosen
suites, and ``tests/test_acceptance.py`` runs each entry as one test.
Inputs read by several checks, or twice in one test process, are cached
per process: the four reference runs of ACCEPTANCE_CASES, the elliptic and
divergence studies, the sharp constants and the offline-consistency run.
"""

from __future__ import annotations

import math
import tempfile
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics
from .diagnostics import COLUMNS, CriteriaSeries, instantaneous, lpq_norm, omega1_budget
from .dynamics import SolverConfig, run
from .elliptic import solve_stream, stream_residual
from .grid import (
    EVEN,
    GridSpec,
    ScalarField,
    d_dr,
    d_dz,
    field_from_function,
    integrate_volume,
    make_grid,
    norm_l2,
    zeros_field,
)
from .kinematics import State
from .scenarios import Scenario
from .storage import read_series, read_snapshot_dir
from .studies import (
    bump_field,
    criteria_constant,
    divergence_study,
    dynamics_spatial_study,
    dynamics_temporal_study,
    elliptic_study,
    observed_order,
    random_bump_terms,
    swirl_decay_error,
)

SUITES = ("ops", "elliptic", "energy", "maxprinciple", "lemma33", "mms")

ACCEPTANCE_CASES = tuple(
    (name, nu) for name in ("gaussian_ring", "pure_swirl") for nu in (0.05, 0.2)
)


class Check(NamedTuple):
    suite: str
    name: str
    fn: Callable[[], tuple[bool, str]]


@cache
def acceptance_run(name: str, nu: float):
    cfg = SolverConfig(
        nu=nu,
        cfl=0.5,
        t_end=1.0,
        grid=GridSpec(R=1.0, Lz=1.0, nr=64, nz=64),
        scenario=Scenario(name=name),
        output_every=5,
    )
    final, series = run(cfg)
    return cfg, final, series


_elliptic = cache(elliptic_study)
_divergence = cache(divergence_study)


def _grid(nr: int, nz: int):
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=nr, nz=nz))


def _orders(errors, bound: float) -> tuple[bool, str]:
    orders = observed_order(errors)
    return min(orders) >= bound, "orders " + ", ".join(f"{o:.3f}" for o in orders)


# ---- ops: quadrature, stencils, reconstruction, monitors, storage ----


def _total_volume():
    g = _grid(48, 32)
    vol = integrate_volume(ScalarField(g, np.ones((g.nr, g.nz)), EVEN))
    exact = np.pi * g.spec.R**2 * g.spec.Lz
    rel = abs(vol - exact) / exact
    return rel <= 1e-12, f"rel err {rel:.2e}"


def _midpoint_r():
    # midpoint sum of r^2 has the closed form R^3/3 - R dr^2/12 per unit length
    g = _grid(48, 32)
    got = integrate_volume(field_from_function(g, lambda r, z: r + 0.0 * z, EVEN))
    closed = 2.0 * np.pi * g.spec.Lz * (g.spec.R**3 / 3.0 - g.spec.R * g.dr**2 / 12.0)
    rel = abs(got - closed) / abs(closed)
    return rel <= 1e-13, f"rel err {rel:.2e}"


def _ring_probe(r, z):
    """(f, df/dr, df/dz) for an even Gaussian ring pair times cos(6 pi z)."""
    rho, w, kap = 0.3, 0.15, 6.0 * np.pi
    a = np.exp(-(((r - rho) / w) ** 2))
    b = np.exp(-(((r + rho) / w) ** 2))
    f = (a + b) * np.cos(kap * z)
    fr = (-2.0 * (r - rho) / w**2 * a - 2.0 * (r + rho) / w**2 * b) * np.cos(kap * z)
    fz = (a + b) * (-kap * np.sin(kap * z))
    return f, fr, fz


def _stencil_order(deriv, k: int):
    """Observed order of deriv against component k of the ring probe."""
    errs = []
    for n in (32, 64, 128):
        g = _grid(n, n)
        probe = _ring_probe(g.r[:, None], g.z[None, :])
        got = deriv(ScalarField(g, probe[0], EVEN)).values
        errs.append(norm_l2(ScalarField(g, got - probe[k], EVEN)))
    return _orders(errs, 1.9)


def _axial_skew():
    g = _grid(48, 32)
    rng = np.random.default_rng(3)
    a = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    b = ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN)
    lhs = integrate_volume(ScalarField(g, d_dz(a).values * b.values, EVEN))
    rhs = -integrate_volume(ScalarField(g, a.values * d_dz(b).values, EVEN))
    return abs(lhs - rhs) <= 1e-12 * norm_l2(a) * norm_l2(b), f"defect {abs(lhs - rhs):.2e}"


def _quartic():
    """Two families of swirl fields: bump sums (seed 17) and white noise
    scaled by 10^U(-3, 3) (seed 20240817)."""
    g = _grid(24, 24)
    zero = zeros_field(g)
    bumps = np.random.default_rng(17)
    noise = np.random.default_rng(20240817)
    fields = [bump_field(random_bump_terms(bumps, g.spec.R), g) for _ in range(1000)]
    fields += [
        ScalarField(g, 10.0 ** noise.uniform(-3, 3) * noise.standard_normal((g.nr, g.nz)), EVEN)
        for _ in range(1000)
    ]
    bad = 0
    for u1 in fields:
        inst = instantaneous(State(u1=u1, omega1=zero, psi1=zero, t=0.0), 4)
        bad += not inst["quartic_lhs"] <= inst["quartic_rhs"]
    return bad == 0, f"{bad} violations in 1000 bump and 1000 noise states"


def _swirl_state(g, c: float, s: int) -> State:
    """A state whose weighted swirl r^(2 - 3/s) u1 is the constant c."""
    u1 = np.repeat(c * g.r[:, None] ** (3.0 / s - 2.0), g.nz, axis=1)
    return State(u1=ScalarField(g, u1, EVEN), omega1=zeros_field(g), psi1=zeros_field(g), t=0.0)


def _lpq_constant():
    """Every (p, q) pair on constant ualpha_norm series at s = 3, 4, 7: on a
    48x32 and a 32x32 grid, each with its own value, times and horizon T."""
    inf = math.inf
    pairs = (
        (2.0, 2.0),
        (4.0, 3.0),
        (4.0, 2.0),
        (3.0, 7.0),
        (3.0, 5.0),
        (inf, 2.0),
        (2.0, inf),
        (inf, 3.0),
        (inf, inf),
    )
    errs = []
    for nr, nz, c, times in ((48, 32, 1.375, (0.0, 0.44, 1.1)), (32, 32, 0.75, (0.0, 0.8, 2.0))):
        g = _grid(nr, nz)
        vol = np.pi * g.spec.R**2 * g.spec.Lz
        for s in (3, 4, 7):
            st = _swirl_state(g, c, s)
            for p, q in pairs:
                vp = 1.0 if math.isinf(p) else vol ** (1.0 / p)
                tq = 1.0 if math.isinf(q) else times[-1] ** (1.0 / q)
                got = lpq_norm([(t, diagnostics.ualpha_norm(st, s, p)) for t in times], q)
                errs.append(abs(got - c * vp * tq) / (c * vp * tq))
    return all(e <= 1e-12 for e in errs), f"worst rel err {max(errs):.2e}"


def _lpq_step():
    # two-level step in time: symmetric sampling makes the trapezoid exact
    g = _grid(48, 32)
    c1, c2, delta, T = 0.75, 1.5, 1e-3, 1.1
    p, q, s = 2.0, 3.0, 4
    vol = np.pi * g.spec.R**2 * g.spec.Lz
    times = ((0.0, c1), (T / 2 - delta, c1), (T / 2 + delta, c2), (T, c2))
    samples = [(t, diagnostics.ualpha_norm(_swirl_state(g, c, s), s, p)) for t, c in times]
    got = lpq_norm(samples, q)
    expect = ((c1**q + c2**q) * vol ** (q / p) * T / 2.0) ** (1.0 / q)
    return abs(got - expect) <= 1e-12 * expect, f"rel err {abs(got - expect) / expect:.2e}"


@cache
def _offline_run():
    """Rows of a short live run, of the same series recomputed from its
    snapshots, and of its series.csv read back."""
    cfg = SolverConfig(
        nu=0.1,
        cfl=0.5,
        t_end=0.05,
        grid=GridSpec(R=1.0, Lz=1.0, nr=32, nz=32),
        scenario=Scenario(name="gaussian_ring"),
        output_every=3,
    )
    with tempfile.TemporaryDirectory() as tmp:
        _, live = run(cfg, out_dir=tmp)
        offline = CriteriaSeries()
        for st in read_snapshot_dir(Path(tmp) / "snapshots"):
            diagnostics.sample(st, offline)
        stored = read_series(Path(tmp) / "series.csv")
    return live.rows, offline.rows, stored


def _table(rows) -> np.ndarray:
    return np.array([[getattr(row, col) for col in COLUMNS] for row in rows])


def _offline_matches_live():
    live, offline, _ = _offline_run()
    if not len(offline) == len(live) >= 3:
        return False, f"{len(live)} live rows, {len(offline)} offline rows"
    a, b = _table(live), _table(offline)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    worst = float(np.max(np.abs(a - b) / scale))
    return np.array_equal(a, b), f"{len(live)} rows, worst rel diff {worst:.2e}"


def _csv_round_trip():
    live, offline, stored = _offline_run()
    ok = len(stored) == len(live) == len(offline) >= 3
    return ok and np.array_equal(_table(live), _table(stored)), f"{len(stored)} rows stored"


def _integrals_nondecreasing():
    live, _, _ = _offline_run()
    cols = [k for k, col in enumerate(COLUMNS) if col.endswith("_int")]
    ints = _table(live)[:, cols]
    return bool(np.all(ints[:-1] <= ints[1:])), ""


# ---- elliptic: the stream solve ----


def _elliptic_residual():
    residuals = _elliptic()[1]
    return all(r <= 1e-10 for r in residuals), f"worst {max(residuals):.2e}"


def _random_sources():
    g = _grid(48, 32)
    rng = np.random.default_rng(23)
    return [bump_field(random_bump_terms(rng, g.spec.R), g) for _ in range(6)]


def _random_source_residual():
    res = [stream_residual(solve_stream(om), om) / norm_l2(om) for om in _random_sources()]
    return all(r <= 1e-10 for r in res), f"worst {max(res):.2e}"


def _nonnegative_psi():
    floors = []
    for om in _random_sources():
        psi = solve_stream(ScalarField(om.grid, np.abs(om.values), EVEN)).values
        floors.append(float(np.min(psi)) / float(np.max(np.abs(psi))))
    return all(f >= -1e-13 for f in floors), f"min psi / max |psi| {min(floors):.2e}"


# ---- energy, maxprinciple, lemma33: along the four reference runs ----


def _rows(name: str, nu: float):
    return acceptance_run(name, nu)[2].rows


def _energy_monotone(name, nu):
    rows = _rows(name, nu)
    return all(b.E <= a.E * (1.0 + 1e-9) for a, b in zip(rows, rows[1:])), ""


def _energy_balance(name, nu):
    rows = _rows(name, nu)
    E0 = rows[0].E
    diss = float(np.trapezoid([r.D for r in rows], [r.t for r in rows]))
    defect = abs(rows[-1].E - E0 + nu * diss)
    return defect <= 1e-3 * E0, f"defect {defect / E0:.2e} of E(0)"


def _energy_drop(name, nu):
    rows = _rows(name, nu)
    E0 = rows[0].E
    ok = all(
        b.E - a.E <= -0.5 * nu * min(a.D, b.D) * (b.t - a.t) + 1e-6 * E0
        for a, b in zip(rows, rows[1:])
    )
    return ok, ""


def _vorticity_budget(name, nu):
    lhs, rhs = omega1_budget(_rows(name, nu), nu)
    excess = float(np.max(lhs - 1.01 * rhs))
    return bool(np.all(lhs <= 1.01 * rhs)), f"max excess {excess:.2e}"


def _swirl_maximum(name, nu):
    rows = _rows(name, nu)
    sup0 = rows[0].swirl_sup
    ok = all(r.swirl_sup <= (1.0 + 1e-10) * sup0 for r in rows)
    worst = max(r.swirl_sup for r in rows)
    return ok, f"max/initial - 1 = {worst / sup0 - 1.0:.2e}"


def _run_ratio(name, nu):
    ok, worst = True, 0.0
    for row in _rows(name, nu):
        if row.critB > 0.0:
            worst = max(worst, row.critA / row.critB)
            ok = ok and row.critA <= 2.0 * row.critB
        else:
            ok = ok and row.critA == 0.0
    return ok, f"max ratio {worst:.3f}"


@cache
def _sharp(n: int) -> tuple[float, int, float]:
    """(C_n, k, rel): criteria_constant on the n x n grid, and the relative
    distance from C_n of critA / critB of its maximizer via instantaneous."""
    g = _grid(n, n)
    C, k, profile = criteria_constant(g)
    om1 = ScalarField(g, np.outer(profile, np.cos(2.0 * np.pi * k * g.z / g.spec.Lz)), EVEN)
    st = State(u1=zeros_field(g), omega1=om1, psi1=solve_stream(om1), t=0.0)
    inst = instantaneous(st, 4)
    return C, k, abs(inst["critA"] / inst["critB"] - C) / C


def _sharp_detail() -> str:
    return ", ".join("C_%d %.5f (k=%d)" % (n, *_sharp(n)[:2]) for n in (64, 128))


def _sharp_bounded():
    worst = max(_sharp(n)[2] for n in (64, 128))
    ok = _sharp(64)[0] <= 2.0 and _sharp(128)[0] <= 2.0 and worst <= 1e-10
    return ok, f"{_sharp_detail()}, maximizer rel err {worst:.1e}"


def _sharp_drift():
    drift = abs(_sharp(128)[0] - _sharp(64)[0]) / _sharp(64)[0]
    return drift < 0.05, f"drift {drift:.2%}, {_sharp_detail()}"


def _swirl_decay():
    decay = swirl_decay_error()
    return decay <= 1e-3, f"rel err {decay:.2e}"


def _per_run(suite: str, checks) -> list[Check]:
    return [
        Check(suite, f"{name} nu={nu}: {label}", partial(fn, name, nu))
        for name, nu in ACCEPTANCE_CASES
        for label, fn in checks
    ]


CHECKS: tuple[Check, ...] = (
    Check("ops", "quadrature: total volume = pi R^2 Lz", _total_volume),
    Check("ops", "quadrature: int r dx matches midpoint closed form", _midpoint_r),
    Check("ops", "stencils: radial derivative order >= 1.9", partial(_stencil_order, d_dr, 1)),
    Check("ops", "stencils: axial derivative order >= 1.9", partial(_stencil_order, d_dz, 2)),
    Check("ops", "axial derivative is skew-adjoint under the quadrature", _axial_skew),
    Check(
        "ops",
        "divergence residual of reconstructed velocity: order >= 1.9",
        lambda: _orders(_divergence(), 1.9),
    ),
    Check("ops", "quartic bound lhs <= rhs on 2000 random states, no tolerance", _quartic),
    Check("ops", "space-time norm of constant field = c V^(1/p) T^(1/q)", _lpq_constant),
    Check("ops", "space-time norm of a two-level step matches the closed form", _lpq_step),
    Check(
        "ops",
        "offline recomputation from snapshots matches the live series",
        _offline_matches_live,
    ),
    Check("ops", "series CSV round trip is value-exact", _csv_round_trip),
    Check("ops", "running integrals are nondecreasing", _integrals_nondecreasing),
    Check(
        "elliptic",
        "stream solve recovers the closed-form solution at order >= 1.9",
        lambda: _orders(_elliptic()[0], 1.9),
    ),
    Check("elliptic", "stream solve residual <= 1e-10 of the source norm", _elliptic_residual),
    Check("elliptic", "stream solve residual on random sources <= 1e-10", _random_source_residual),
    Check(
        "elliptic", "nonnegative vorticity gives nonnegative stream function", _nonnegative_psi
    ),
    *_per_run(
        "energy",
        (
            ("energy non-increasing row to row", _energy_monotone),
            ("|E(T) - E(0) + nu int D| <= 1e-3 E(0)", _energy_balance),
            ("per-row drop covers half the predicted dissipation", _energy_drop),
            ("vorticity budget lhs <= 1.01 rhs at every row", _vorticity_budget),
        ),
    ),
    *_per_run(
        "maxprinciple",
        (("swirl maximum never exceeds its initial value", _swirl_maximum),),
    ),
    Check("lemma33", "sharp criteria constant C_n <= 2.0 at n = 64, 128", _sharp_bounded),
    Check("lemma33", "sharp criteria constant moves < 5% under refinement", _sharp_drift),
    *_per_run("lemma33", (("criteria ratio <= 2.0 along the run", _run_ratio),)),
    Check(
        "mms",
        "forced-run recovery: spatial order >= 1.9",
        lambda: _orders(dynamics_spatial_study(), 1.9),
    ),
    Check(
        "mms",
        "forced-run recovery: temporal order >= 2.9",
        lambda: _orders(dynamics_temporal_study(), 2.9),
    ),
    Check(
        "mms",
        "small-amplitude swirl decays at exp(-nu (2 pi / Lz)^2 t) to 1e-3",
        _swirl_decay,
    ),
)


def run_suites(names) -> bool:
    """Run and print every check of the named suites; True if all pass."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}")
    results = []
    for suite in names:
        print(f"== suite {suite} ==")
        for check in CHECKS:
            if check.suite != suite:
                continue
            ok, detail = check.fn()
            results.append(bool(ok))
            line = f"[{'pass' if ok else 'FAIL'}] {check.name}"
            print(line + (f"  ({detail})" if detail else ""))
    print(f"{sum(results)}/{len(results)} checks passed")
    return all(results)
