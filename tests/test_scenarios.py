"""Initial-condition library checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from axns.diagnostics import instantaneous
from axns.dynamics import SolverConfig
from axns.elliptic import stream_residual
from axns.grid import GridSpec, make_grid, norm_l2
from axns import scenarios
from axns.scenarios import Scenario, init_scenario, manufactured_solution

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    sup = instantaneous(state, 4)["swirl_sup"]
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


@pytest.mark.parametrize("R, Lz", [(0.4, 1.0), (1.0, 0.4)])
def test_default_config_builds_on_small_cylinders(R, Lz):
    # the geometry defaults scale with the cylinder, so they always fit it
    cfg = SolverConfig(nu=0.1, cfl=0.5, t_end=0.1, grid=GridSpec(R=R, Lz=Lz, nr=8, nz=8))
    assert cfg.scenario.geometry(cfg.grid) == (R / 4.0, R / 2.0, Lz / 2.0)


def test_geometry_defaults_are_relative_to_the_cylinder():
    grid = make_grid(GridSpec(R=2.0, Lz=3.0, nr=16, nz=16))
    implicit = init_scenario(Scenario(name="gaussian_ring"), grid)
    explicit = init_scenario(
        Scenario(name="gaussian_ring", width=0.5, r_center=1.0, z_center=1.5), grid
    )
    for a, b in ((implicit.u1, explicit.u1), (implicit.omega1, explicit.omega1),
                 (implicit.psi1, explicit.psi1)):
        assert a.values.tobytes() == b.values.tobytes()


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
    exprs = {"u1": u1, "om1": om1, "f_u": sp.expand(f_u), "f_om": sp.expand(f_om)}
    return {key: sp.lambdify((r, z, t), e, modules="numpy") for key, e in exprs.items()}


@pytest.mark.parametrize(
    "R,Lz,A,k,nu,nr,nz",
    [(1.0, 1.0, 1.0, 1, 0.1, 32, 32), (1.3, 2.0, 0.7, 2, 0.05, 24, 40)],
    ids=["unit", "R1.3-Lz2-k2"],
)
def test_manufactured_matches_symbolic(R, Lz, A, k, nu, nr, nz):
    grid = make_grid(GridSpec(R=R, Lz=Lz, nr=nr, nz=nz))
    sc = Scenario(name="manufactured", amplitude=A, mode_k=k)
    ms = manufactured_solution(grid, nu=nu, scenario=sc)
    state = init_scenario(sc, grid)
    assert np.allclose(state.u1.values, ms.u1(0.0), atol=1e-12)
    assert np.allclose(state.omega1.values, ms.om1(0.0), atol=1e-12)

    ref = _unseparated_reference(R, Lz, A, k, nu)
    r, z = grid.r[:, None], grid.z[None, :]
    for t in (0.0, 0.37, 1.9):
        for key, fn in ref.items():
            want = np.broadcast_to(fn(r, z, t), (nr, nz))
            got = getattr(ms, key)(t)
            # the floor covers points where an expanded sum cancels to
            # near zero and its roundoff, relative to the terms, dominates
            scale = np.max(np.abs(want))
            assert scale > 0.0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=key)


FORCED_CONFIG = """
nu = 0.1
R = 1.0
Lz = 1.0
nr = 16
nz = 16
cfl = 0.5
t_end = 0.01
scenario = manufactured
forcing = on
"""


def test_forced_run_needs_no_sympy(tmp_path):
    # the closed forms are plain numpy: a forced run works with sympy absent
    cfg = tmp_path / "forced.cfg"
    cfg.write_text(FORCED_CONFIG)
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from axns.cli import main\n"
        f"sys.exit(main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "series.csv").exists()


def test_manufactured_start_samples_no_forcing(grid16, monkeypatch):
    built = []

    class Recording(scenarios.ManufacturedSolution):
        def __init__(self, grid, factors):
            built.append(sorted(factors))
            super().__init__(grid, factors)

    monkeypatch.setattr(scenarios, "ManufacturedSolution", Recording)
    sc = Scenario(name="manufactured", amplitude=1.3, mode_k=2)
    state = init_scenario(sc, grid16)
    assert built == [["om1", "u1"]]
    # the same bytes as the t = 0 fields of a forced solution
    man = manufactured_solution(grid16, 0.05, sc)
    assert state.u1.values.tobytes() == man.u1(0.0).tobytes()
    assert state.omega1.values.tobytes() == man.om1(0.0).tobytes()


def test_pure_swirl_wide_width_is_uniform_in_r():
    # the swirl-decay check starts from this state: at width 1e200 the
    # radial factor exp(-((r - r_c) / w)^2) is exactly 1
    grid = make_grid(GridSpec(R=2.0, Lz=1.0, nr=64, nz=128))
    state = init_scenario(Scenario("pure_swirl", amplitude=1e-6, width=1e200), grid)
    want = np.broadcast_to(1e-6 * np.cos(2.0 * np.pi * grid.z), (grid.nr, grid.nz))
    assert state.u1.values.tobytes() == np.ascontiguousarray(want).tobytes()
    assert state.psi1.values.tobytes() == np.zeros((grid.nr, grid.nz)).tobytes()
