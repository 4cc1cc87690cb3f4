"""Refinement studies: the temporal-order study steps through run, and the
helpers of axns convergence."""

import math
from collections import Counter

import numpy as np
import pytest

import axns.dynamics
import axns.verify
from axns.dynamics import step
from axns.grid import GridSpec, make_grid
from axns.scenarios import init_scenario, manufactured_solution
from axns.verify import (
    _field_error,
    _restrict,
    _unit_config,
    dynamics_temporal_study,
    observed_order,
)


def test_temporal_study_steps_at_fixed_dt(monkeypatch):
    # run takes exactly n steps of t_end / n at each level, the last clamped
    # one included, and ends bit for bit where a fixed-step loop ends
    dts, finals = [], []

    def recording_step(state, dt, cfg, forcing=None):
        dts.append(dt)
        return step(state, dt, cfg, forcing)

    def recording_run(cfg, out_dir=None):
        final, series = axns.dynamics.run(cfg, out_dir)
        finals.append(final)
        return final, series

    monkeypatch.setattr(axns.dynamics, "step", recording_step)
    monkeypatch.setattr(axns.verify, "run", recording_run)
    errors = dynamics_temporal_study()

    t_end = 0.1
    levels = (416, 26, 52, 104)  # the reference first, as the study runs them
    assert Counter(dts) == {t_end / n: n for n in levels}

    cfg = _unit_config("manufactured", 32, 0.05, t_end, cfl=0.8)
    grid = make_grid(cfg.grid)
    forcing = manufactured_solution(grid, cfg.nu, cfg.scenario)
    loops = []
    for n in levels:
        state = init_scenario(cfg.scenario, grid)
        for _ in range(n):
            state = step(state, t_end / n, cfg, forcing)
        loops.append(state)
    for got, want in zip(finals, loops, strict=True):
        assert np.array_equal(got.u1.values, want.u1.values)
        assert np.array_equal(got.omega1.values, want.omega1.values)
    ref = loops[0]
    assert errors == [_field_error(s, ref.u1.values, ref.omega1.values) for s in loops[1:]]


def test_observed_order_of_quartered_errors_is_two():
    assert observed_order([4.0**-k for k in range(1, 6)]) == [2.0] * 4


@pytest.mark.parametrize("errors", [[], [0.1], [0.1, 0.0], [0.1, math.nan], [math.nan, 0.1]])
def test_observed_order_rejects_short_or_nonpositive_errors(errors):
    with pytest.raises(ValueError):
        observed_order(errors)


def test_restrict_maps_fine_samples_to_coarse_ones():
    spec = GridSpec(R=1.3, Lz=0.7, nr=12, nz=10)
    coarse = make_grid(spec)
    fine = make_grid(GridSpec(R=1.3, Lz=0.7, nr=24, nz=20))

    def sample(g, f):
        return f(g.r[:, None], g.z[None, :]) + np.zeros((g.nr, g.nz))

    # linear in r and any function of z: the child mean is the coarse sample
    def affine(r, z):
        return 0.4 - 1.7 * r + 2.3 * np.cos(2.0 * np.pi * z / spec.Lz)

    got, want = _restrict(sample(fine, affine)), sample(coarse, affine)
    assert got.shape == want.shape == (spec.nr, spec.nz)
    assert np.max(np.abs(got - want)) <= 1e-14
    # r^2: the mean of (r_c -+ dr_c / 4)^2 is r_c^2 + dr_c^2 / 16
    got = _restrict(sample(fine, lambda r, z: r * r))
    want = sample(coarse, lambda r, z: r * r + coarse.dr**2 / 16.0)
    assert np.max(np.abs(got - want)) <= 1e-14
