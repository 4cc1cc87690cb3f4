"""Initial states and the manufactured solution used for order checks.

Scenarios:

    zero          all fields zero
    pure_swirl    u1 = A cos(2 pi k z / Lz) exp(-((r - r_c)/w)^2), om1 = 0
    gaussian_ring om1 = u1 = A exp(-((r - r_c)^2 + (z - z_c)^2)/w^2)
    manufactured  closed-form (u1*, om1*, psi1*) below, plus the forcing
                  that makes them an exact solution

Every scenario finishes by slaving psi1 to om1 through the stream solve,
so initial states satisfy the same discrete constraint the stepper
maintains.

The manufactured fields are even polynomials in r times one Fourier mode
in z with an exponential decay in time:

    psi1* = 0.4 A (1 - (r/R)^2)^4 cos(2 pi k z / Lz) exp(-t)
    u1*   =     A (1 - (r/R)^2)^2 cos(2 pi k z / Lz + 0.7) exp(-t)
    om1*  = -lap3(psi1*)

Both evolved fields vanish quadratically at the wall, matching the
Dirichlet treatment there, and the even powers of r make the axis ghost
exact.  om1* is derived symbolically so the elliptic constraint holds in
closed form, and the two forcing terms are the symbolic residuals of the
evolution equations.

Every field and forcing term is time-separable, sum_m exp(-m t) F_m(r, z)
with m in {1, 2}: the fields decay like exp(-t), and advection and
stretching are quadratic in them.  The forcing is expanded symbolically
once per run, on first use, and each spatial factor F_m is sampled once
per grid, so evaluating the forcing at a stage time costs two scalar
exponentials and two array updates.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .elliptic import solve_stream
from .grid import EVEN, Grid, GridSpec, ScalarField, zeros_field
from .kinematics import State

SCENARIO_NAMES = ("zero", "pure_swirl", "gaussian_ring", "manufactured")


@dataclass(frozen=True)
class Scenario:
    """Initial-condition family and its shape parameters."""

    name: str
    amplitude: float = 1.0
    width: float = 0.25
    r_center: float = 0.5
    z_center: float = 0.5
    mode_k: int = 1

    def validate(self, spec: GridSpec) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if not (np.isfinite(self.amplitude)):
            raise ValueError("scenario amplitude must be finite")
        if not (self.width > 0 and np.isfinite(self.width)):
            raise ValueError("scenario width must be positive")
        if not (0.0 <= self.r_center <= spec.R):
            raise ValueError(f"r_center {self.r_center} outside [0, R]")
        if not (0.0 <= self.z_center <= spec.Lz):
            raise ValueError(f"z_center {self.z_center} outside [0, Lz]")
        if self.mode_k < 1:
            raise ValueError(f"mode_k must be at least 1, got {self.mode_k}")


def init_scenario(scenario: Scenario, grid: Grid) -> State:
    scenario.validate(grid.spec)
    name = scenario.name
    A = scenario.amplitude
    w = scenario.width
    rc, zc, k = scenario.r_center, scenario.z_center, scenario.mode_k
    Lz = grid.spec.Lz
    r = grid.r[:, None]
    z = grid.z[None, :]
    if name == "zero":
        u1 = zeros_field(grid, EVEN)
        om1 = zeros_field(grid, EVEN)
    elif name == "pure_swirl":
        vals = A * np.cos(2.0 * np.pi * k * z / Lz) * np.exp(-(((r - rc) / w) ** 2))
        u1 = ScalarField(grid, np.broadcast_to(vals, (grid.nr, grid.nz)).copy(), EVEN)
        om1 = zeros_field(grid, EVEN)
    elif name == "gaussian_ring":
        vals = A * np.exp(-(((r - rc) ** 2) + ((z - zc) ** 2)) / (w * w))
        u1 = ScalarField(grid, vals.copy(), EVEN)
        om1 = ScalarField(grid, vals.copy(), EVEN)
    elif name == "manufactured":
        # nu enters only the forcing, which is never built here
        man = manufactured_solution(grid.spec, nu=1.0, scenario=scenario)
        u1 = ScalarField(grid, man.u1(grid, 0.0), EVEN)
        om1 = ScalarField(grid, man.om1(grid, 0.0), EVEN)
    else:  # pragma: no cover - validate() already rejected
        raise ValueError(f"unknown scenario {name!r}")
    psi1 = solve_stream(om1)
    return State(u1=u1, omega1=om1, psi1=psi1, t=0.0)


class ManufacturedSolution:
    """Closed-form fields and forcing on one cylinder (R, Lz).

    Every key has the form sum_m exp(-m t) F_m(r, z).  The factors of a key
    are lambdified on its first use and sampled once per grid, so an
    evaluation costs one scalar exp and one axpy per mode.
    """

    def __init__(self, R: float, Lz: float, modes):
        self.R, self.Lz = R, Lz
        self._modes = modes  # key -> [(m, F_m(r, z))], lambdified on first call
        self._sampled: "weakref.WeakKeyDictionary[Grid, dict]" = weakref.WeakKeyDictionary()

    def _factors(self, key: str, grid: Grid) -> list:
        if (grid.spec.R, grid.spec.Lz) != (self.R, self.Lz):
            raise ValueError(
                f"manufactured solution was built for R = {self.R}, Lz = {self.Lz}; "
                f"grid has R = {grid.spec.R}, Lz = {grid.spec.Lz}"
            )
        sampled = self._sampled.setdefault(grid, {})
        if key not in sampled:
            r, z = grid.r[:, None], grid.z[None, :]
            shape = (grid.nr, grid.nz)
            sampled[key] = [
                (m, np.broadcast_to(fn(r, z), shape).astype(np.float64))
                for m, fn in self._modes(key)
            ]
        return sampled[key]

    def _eval(self, key: str, grid: Grid, t: float) -> np.ndarray:
        out = np.zeros((grid.nr, grid.nz))
        for m, factor in self._factors(key, grid):
            out += math.exp(-m * t) * factor
        return out

    def u1(self, grid: Grid, t: float) -> np.ndarray:
        return self._eval("u1", grid, t)

    def om1(self, grid: Grid, t: float) -> np.ndarray:
        return self._eval("om1", grid, t)

    def psi1(self, grid: Grid, t: float) -> np.ndarray:
        return self._eval("psi1", grid, t)

    def f_u(self, grid: Grid, t: float) -> np.ndarray:
        return self._eval("f_u", grid, t)

    def f_om(self, grid: Grid, t: float) -> np.ndarray:
        return self._eval("f_om", grid, t)


def manufactured_solution(
    spec: GridSpec, nu: float, scenario: Scenario | None = None
) -> ManufacturedSolution:
    """Build the closed forms symbolically; lambdify each on first use.

    The forcing terms are the residuals of the two evolution equations on
    the prescribed fields, with velocities reconstructed from psi1*, so a
    run forced this way has (u1*, om1*) as exact solution.  Time enters
    only through the decay a = exp(-t): the fields are linear in a, d/dt is
    -a d/da, and advection and stretching are quadratic, so each
    expression splits into its coefficients of a and a^2.  The forcing is
    derived and expanded only when first evaluated.
    """
    import sympy as sp

    if scenario is None:
        scenario = Scenario(name="manufactured")
    A = float(scenario.amplitude)
    k = int(scenario.mode_k)
    R, Lz = float(spec.R), float(spec.Lz)

    r, z, a = sp.symbols("r z a", positive=True)
    kz = 2 * sp.pi * k * z / Lz
    psi = sp.Rational(2, 5) * A * (1 - (r / R) ** 2) ** 4 * sp.cos(kz) * a
    u1 = A * (1 - (r / R) ** 2) ** 2 * sp.cos(kz + sp.Rational(7, 10)) * a

    def lap3(f):
        return sp.diff(f, r, 2) + 3 / r * sp.diff(f, r) + sp.diff(f, z, 2)

    exprs = {"psi1": psi, "u1": u1, "om1": sp.expand(-lap3(psi))}

    def forcing() -> dict:
        om1 = exprs["om1"]
        vr = -r * sp.diff(psi, z)
        vz = 2 * psi + r * sp.diff(psi, r)

        def advect(f):
            return vr * sp.diff(f, r) + vz * sp.diff(f, z)

        def d_dt(f):
            return -a * sp.diff(f, a)

        f_u = d_dt(u1) + advect(u1) - nu * lap3(u1) - 2 * u1 * sp.diff(psi, z)
        f_om = d_dt(om1) + advect(om1) - nu * lap3(om1) - 2 * u1 * sp.diff(u1, z)
        return {"f_u": sp.expand(f_u), "f_om": sp.expand(f_om)}

    @functools.cache
    def modes(key: str) -> list:
        if key not in exprs:
            exprs.update(forcing())
        # collect keeps each coefficient term for term as in the expression
        by_power = sp.collect(exprs[key], a, evaluate=False)
        return [
            (int(sp.degree(power, a)), sp.lambdify((r, z), coeff, modules="numpy"))
            for power, coeff in by_power.items()
        ]

    return ManufacturedSolution(R, Lz, modes)
