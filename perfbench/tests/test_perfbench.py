"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

The workload tests start the benchmark itself with --seconds 1 (one or two
calls per workload), so the whole file takes one to two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly(results):
    first = results[("demo_spin_down", 1)]["metrics"]
    again = bench("demo_spin_down", 1)["metrics"]
    assert first["dynamics.steps"]["value"] == 1639
    # dt is 2.5 dr^2 = 6.1035e-4 but the last step is clamped to t_end = 1,
    # so the mean is 1/1639 = 6.1013e-4
    assert first["dynamics.dt_mean"]["value"] == pytest.approx(1.0 / 1639, rel=1e-12)
    for name, m in first.items():
        if m["unit"] in ("count", "B"):
            assert again[name]["value"] == m["value"], name


def test_self_time_of_a_synthetic_tree():
    # root 0-100 with children a 10-30 (grandchild g 12-20), b 40-70 and
    # c 60-80, which overlaps b, so root's covered time is 20 + 40
    tree = [
        (0, None, "x", "root", 0, 100),
        (1, 0, "x", "a", 10, 30),
        (2, 1, "x", "g", 12, 20),
        (3, 0, "x", "b", 40, 70),
        (4, 0, "x", "c", 60, 80),
    ]
    assert spans.self_times(tree) == {0: 40, 1: 12, 2: 8, 3: 30, 4: 20}


def test_byte_check_catches_one_perturbed_digit(tmp_path):
    text = "t,E\n0,0.12345678901234567\n0.5,0.11111111111111112\n"
    live, same, off = tmp_path / "live.csv", tmp_path / "same.csv", tmp_path / "off.csv"
    live.write_text(text)
    same.write_text(text)
    off.write_text(text.replace("0.11111111111111112", "0.11111111111111113"))
    assert wl.same_bytes(live, same)
    assert not wl.same_bytes(live, off)


def test_seed_zero_is_the_reference_input():
    from axns.config import parse_config
    from axns.dynamics import SolverConfig
    from axns.grid import GridSpec
    from axns.scenarios import Scenario

    demo = (ROOT / "scripts" / "demo.cfg").read_text(encoding="utf-8")
    assert parse_config(wl.demo_config(0)) == parse_config(demo)
    assert parse_config(wl.mms_config(0)) == SolverConfig(
        nu=0.1, cfl=0.4, t_end=wl.MMS_T_END, grid=GridSpec(1.0, 1.0, 128, 128),
        scenario=Scenario(name="manufactured", amplitude=1.0, mode_k=1),
        output_every=10_000_000, forcing_enabled=True,
    )
    ring = parse_config(wl.archive_config(0)).scenario
    assert ring == parse_config(demo).scenario
    for seed in (1, 2, 3):
        params = wl.ring_params(seed)
        assert params != wl.ring_params(0)
        for key, ref in wl.ring_params(0).items():
            assert abs(params[key] / ref - 1.0) <= 0.005


def test_manufactured_closed_form_matches_the_package(tmp_path):
    from axns.grid import GridSpec, make_grid
    from axns.scenarios import Scenario, init_scenario
    from axns.storage import write_snapshot

    state = init_scenario(
        Scenario(name="manufactured", amplitude=1.01), make_grid(GridSpec(1.0, 1.0, 32, 32))
    )
    write_snapshot(state, tmp_path / "s.axns", 0.1)
    assert wl.mms_error_l2(tmp_path / "s.axns", 1.01) < 1e-12
    assert wl.mms_error_l2(tmp_path / "s.axns", 1.0) > 1e-3


def test_wrappers_sit_where_names_are_looked_up():
    import axns.cli
    import axns.diagnostics
    import axns.dynamics
    import axns.scenarios

    sites = [
        (axns.dynamics, "solve_stream"), (axns.scenarios, "solve_stream"),
        (axns.dynamics, "d_dz"), (axns.diagnostics, "d_dr"), (axns.cli, "run"),
        (axns.scenarios.ManufacturedSolution, "f_u"),
    ]
    before = [getattr(owner, name) for owner, name in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, name in sites:
            assert getattr(getattr(owner, name), "__wrapped_by_tracer__", False), name
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in sites] == before


def test_layer_map_covers_every_layer_metric():
    assert set(LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for moves in LAYER_MAP.values():
        assert set(moves) <= set(WORKLOADS)
        assert all(set(metrics) <= e2e for metrics in moves.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
