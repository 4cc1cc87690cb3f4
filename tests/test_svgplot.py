"""SVG emission: well-formedness and parse-back of rendered polylines."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from axns import diagnostics as dg
from axns.grid import zeros_field
from axns.kinematics import State
from axns.svgplot import emit_plots, render_line_plot


def zero_state(grid, t):
    z = zeros_field(grid)
    return State(u1=z, omega1=z, psi1=z, t=t)


def series_of(grid, times, state_fn):
    series = dg.CriteriaSeries(s=4)
    for t in times:
        dg.sample(state_fn(grid, t), series)
    return series


def polyline_points(svg_text):
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    out = []
    for node in root.iter():
        if node.tag.endswith("polyline"):
            pts = [
                tuple(float(v) for v in pair.split(","))
                for pair in node.attrib["points"].split()
            ]
            out.append(pts)
    return out


def test_render_parses_as_xml():
    text = render_line_plot(
        "demo", "t", [("a", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])]
    )
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert len(polyline_points(text)) >= 1


def test_render_monotone_series_renders_monotone():
    # SVG pixel y grows downward, so a nondecreasing series must map to
    # nonincreasing pixel y along the data polyline
    ys = [0.0, 0.5, 0.7, 1.9, 1.9, 2.4]
    text = render_line_plot("mono", "t", [("f", list(range(6)), ys)])
    data_lines = [p for p in polyline_points(text) if len(p) == 6]
    assert len(data_lines) == 1
    py = [pt[1] for pt in data_lines[0]]
    assert all(b <= a + 1e-9 for a, b in zip(py, py[1:]))


def test_render_flat_zero_series():
    text = render_line_plot("flat", "t", [("f", [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])])
    data_lines = [p for p in polyline_points(text) if len(p) == 3]
    py = {pt[1] for pt in data_lines[0]}
    assert len(py) == 1


def test_emit_plots_layout(grid16):
    series = series_of(grid16, (0.0, 0.5, 1.0), zero_state)
    plots = emit_plots(series)
    assert sorted(plots) == [
        "criteria.svg",
        "criteria_int.svg",
        "dissipation.svg",
        "energy.svg",
        "swirl.svg",
    ]
    for text in plots.values():
        ET.fromstring(text)


def test_emit_plots_zero_series_flat(grid16):
    series = series_of(grid16, (0.0, 1.0), zero_state)
    energy = emit_plots(series)["energy.svg"]
    data_lines = [p for p in polyline_points(energy) if len(p) == 2]
    assert data_lines
    for line in data_lines:
        assert len({pt[1] for pt in line}) == 1


def test_emit_plots_needs_two_rows(grid16):
    series = series_of(grid16, (0.0,), zero_state)
    with pytest.raises(ValueError):
        emit_plots(series)
