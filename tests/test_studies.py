"""Refinement studies: the temporal-order study steps through run."""

from collections import Counter

import numpy as np

import axns.dynamics
import axns.studies
from axns.dynamics import step
from axns.grid import make_grid
from axns.scenarios import init_scenario, manufactured_solution
from axns.studies import _field_error, _mms_config, dynamics_temporal_study


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
    monkeypatch.setattr(axns.studies, "run", recording_run)
    errors = dynamics_temporal_study()

    t_end = 0.1
    levels = (416, 26, 52, 104)  # the reference first, as the study runs them
    assert Counter(dts) == {t_end / n: n for n in levels}

    cfg = _mms_config(32, 0.05, t_end, cfl=0.8)
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
