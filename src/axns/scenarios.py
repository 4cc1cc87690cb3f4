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
exact.  om1* and the two forcing terms, the residuals of the evolution
equations, are written in closed form: each radial part is a numpy
Polynomial, differentiated exactly, times sines and cosines of the one
axial mode (see manufactured_solution).

Every field and forcing term is time-separable, sum_m exp(-m t) F_m(r, z)
with m in {1, 2}: the fields decay like exp(-t), and advection and
stretching are quadratic in them.  All factors F_m are sampled once, on
the grid the solution is built for, so evaluating the forcing at a stage
time costs two scalar exponentials and two array updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import solve_stream
from .grid import EVEN, Grid, GridSpec, ScalarField, check_count, empty
from .grid import field_from_function, zeros_field
from .kinematics import State

SCENARIO_NAMES = ("zero", "pure_swirl", "gaussian_ring", "manufactured")


@dataclass(frozen=True)
class Scenario:
    """Initial-condition family and its shape parameters; see geometry."""

    name: str
    amplitude: float = 1.0
    width: float | None = None
    r_center: float | None = None
    z_center: float | None = None
    mode_k: int = 1

    def geometry(self, spec: GridSpec) -> tuple[float, float, float]:
        """(width, r_center, z_center); a None is R/4, R/2 or Lz/2 of spec."""
        given = (self.width, self.r_center, self.z_center)
        default = (spec.R / 4.0, spec.R / 2.0, spec.Lz / 2.0)
        return tuple(d if g is None else g for g, d in zip(given, default))

    def validate(self, spec: GridSpec) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if not (np.isfinite(self.amplitude)):
            raise ValueError("scenario amplitude must be finite")
        width, r_center, z_center = self.geometry(spec)
        if not (width > 0 and np.isfinite(width)):
            raise ValueError("scenario width must be positive")
        if not (0.0 <= r_center <= spec.R):
            raise ValueError(f"r_center {r_center} outside [0, R]")
        if not (0.0 <= z_center <= spec.Lz):
            raise ValueError(f"z_center {z_center} outside [0, Lz]")
        check_count("mode_k", self.mode_k, 1)


def init_scenario(scenario: Scenario, grid: Grid) -> State:
    scenario.validate(grid.spec)
    name, A, k, Lz = scenario.name, scenario.amplitude, scenario.mode_k, grid.spec.Lz
    w, rc, zc = scenario.geometry(grid.spec)

    def swirl(r, z):
        return A * np.cos(2.0 * np.pi * k * z / Lz) * np.exp(-(((r - rc) / w) ** 2))

    def ring(r, z):
        return A * np.exp(-(((r - rc) ** 2) + ((z - zc) ** 2)) / (w * w))

    if name == "zero":
        u1 = zeros_field(grid)
        om1 = zeros_field(grid)
    elif name == "pure_swirl":
        u1 = field_from_function(grid, swirl, EVEN)
        om1 = zeros_field(grid)
    elif name == "gaussian_ring":
        u1 = field_from_function(grid, ring, EVEN)
        om1 = field_from_function(grid, ring, EVEN)
    else:  # "manufactured"
        man = manufactured_solution(grid, nu=None, scenario=scenario)
        u1 = ScalarField(grid, man.u1(0.0), EVEN)
        om1 = ScalarField(grid, man.om1(0.0), EVEN)
    psi1 = solve_stream(om1)
    return State(u1=u1, omega1=om1, psi1=psi1, t=0.0)


class ManufacturedSolution:
    """Closed-form fields and forcing, sampled on one grid.

    Every key has the form sum_m exp(-m t) F_m(r, z), m = 1, 2.  All
    factors of all keys are sampled on .grid, into empty() arrays, when the
    solution is built, so an evaluation costs one scalar exp and one
    aligned axpy per mode.  A solution built with nu = None has the
    fields but no forcing keys.
    """

    def __init__(self, grid: Grid, factors: dict):
        self.grid = grid

        def aligned(f: np.ndarray) -> np.ndarray:
            a = empty(f.shape)
            a[...] = f
            return a

        self._sampled = {key: [aligned(f) for f in fs] for key, fs in factors.items()}
        self._tmp = empty((grid.nr, grid.nz))

    def _eval(self, key: str, t: float) -> np.ndarray:
        first, *rest = self._sampled[key]
        out = np.multiply(first, math.exp(-t), out=empty(first.shape))
        for m, factor in enumerate(rest, start=2):
            out += np.multiply(factor, math.exp(-m * t), out=self._tmp)
        return out

    def u1(self, t: float) -> np.ndarray:
        return self._eval("u1", t)

    def om1(self, t: float) -> np.ndarray:
        return self._eval("om1", t)

    def f_u(self, t: float) -> np.ndarray:
        return self._eval("f_u", t)

    def f_om(self, t: float) -> np.ndarray:
        return self._eval("f_om", t)


def manufactured_solution(
    grid: Grid, nu: float | None, scenario: Scenario
) -> ManufacturedSolution:
    """Closed forms of the fields and of the forcing, as polynomials in r
    times sines and cosines of kz = 2 pi k z / Lz, sampled on grid.
    nu = None samples the fields u1 and om1 only, without the forcing.

    With a = exp(-t) and s = 1 - (r/R)^2 the fields are

        psi1* = a Psi(r) cos(kz),         Psi = 0.4 A s^4
        u1*   = a U(r)   cos(kz + 0.7),   U   = A s^2
        om1*  = a Om(r)  cos(kz),         Om  = kappa^2 Psi - L_r Psi

    with kappa = 2 pi k / Lz and L_r p = p'' + 3 p'/r; p'/r is a polynomial
    because every radial part is even.  The velocities are
    v_r = a kappa r Psi sin(kz) and v_z = a (2 Psi + r Psi') cos(kz).

    Each forcing term is the residual of its evolution equation on these
    fields, so a run forced this way has (u1*, om1*) as exact solution.
    d/dt and diffusion are linear in a: a field a f gives the mode
    F_1 = -f - nu lap3(f).  Advection and stretching are quadratic: the mode
    F_2 = v_r d_r f + v_z d_z f - stretching, per a^2, written term by term.
    """
    from numpy.polynomial import Polynomial  # only manufactured runs load it

    A = float(scenario.amplitude)
    R, Lz = float(grid.spec.R), float(grid.spec.Lz)
    kappa = 2.0 * np.pi * int(scenario.mode_k) / Lz

    x = Polynomial([0.0, 1.0])
    s = 1.0 - (x / R) ** 2
    Psi = 0.4 * A * s**4
    U = A * s**2

    def lap_r(p: Polynomial) -> Polynomial:
        # p' of an even p has no constant term, so p'/r drops one power
        return p.deriv(2) + 3.0 * Polynomial(p.deriv().coef[1:])

    Om = kappa**2 * Psi - lap_r(Psi)
    r, z = grid.r[:, None], grid.z[None, :]
    c, c7 = np.cos(kappa * z), np.cos(kappa * z + 0.7)
    factors = {"u1": [U(r) * c7], "om1": [Om(r) * c]}
    if nu is None:
        return ManufacturedSolution(grid, factors)

    Vr = kappa * x * Psi  # v_r = a Vr sin(kz)
    Vz = 2.0 * Psi + x * Psi.deriv()  # v_z = a Vz cos(kz)

    def decay(p: Polynomial) -> Polynomial:
        # radial part of -f - nu lap3(f) for f = p(r) times one z mode
        return -p - nu * (lap_r(p) - kappa**2 * p)

    sn, s7 = np.sin(kappa * z), np.sin(kappa * z + 0.7)
    f_u2 = (
        (Vr * U.deriv())(r) * (sn * c7)
        - kappa * (Vz * U)(r) * (c * s7)
        + 2.0 * kappa * (U * Psi)(r) * (c7 * sn)  # -2 u1 d_z psi1
    )
    f_om2 = (
        (Vr * Om.deriv())(r) * (sn * c)
        - kappa * (Vz * Om)(r) * (c * sn)
        + 2.0 * kappa * (U * U)(r) * (c7 * s7)  # -2 u1 d_z u1
    )
    factors["f_u"] = [decay(U)(r) * c7, f_u2]
    factors["f_om"] = [decay(Om)(r) * c, f_om2]
    return ManufacturedSolution(grid, factors)
