"""End-to-end command-line checks: exit codes, outputs, cross-path agreement."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import axns
from axns import dynamics, storage, verify
from axns.cli import main
from axns.diagnostics import ualpha_norm
from axns.grid import EVEN, GridSpec, ScalarField, make_grid
from axns.kinematics import State
from axns.verify import CHECKS, SUITES

SRC = str(Path(__file__).resolve().parents[1] / "src")

CONFIG = """
nu = 0.2
R = 1.0
Lz = 1.0
nr = 24
nz = 24
cfl = 0.5
t_end = 0.05
scenario = gaussian_ring
amplitude = 1.0
output_every = 2
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "run.cfg"
    cfg.write_text(CONFIG)
    out = base / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_verify_ops_exits_zero(capsys):
    assert main(["verify", "--suite", "ops"]) == 0
    text = capsys.readouterr().out
    n_ops = sum(1 for c in CHECKS if c.suite == "ops")
    assert "[FAIL]" not in text
    assert sum(line.startswith("[pass] ") for line in text.splitlines()) == n_ops


def test_check_table_names_unique_and_suites_covered():
    assert len({c.name for c in CHECKS}) == len(CHECKS)
    assert {c.suite for c in CHECKS} == set(SUITES)


def test_csv_round_trip_check_rejects_truncated_series(monkeypatch):
    live, offline, stored = verify._offline_run()
    monkeypatch.setattr(verify, "_offline_run", lambda: (live, offline, stored[:-1]))
    check = next(c for c in CHECKS if c.name == "series CSV round trip is value-exact")
    assert check.fn()[0] is False


def test_volume_check_rejects_a_broken_quadrature(monkeypatch):
    # the check integrates through ring_sums, so doubled sums must fail it
    ring_sums = axns.grid.ring_sums
    monkeypatch.setattr(axns.grid, "ring_sums", lambda *a: 2.0 * ring_sums(*a))
    check = next(c for c in CHECKS if c.name == "quadrature: total volume = pi R^2 Lz")
    assert check.fn()[0] is False


def test_offline_check_rejects_a_one_ulp_difference(monkeypatch):
    # offline and live rows come from the same bits, so they must be equal
    live, offline, stored = verify._offline_run()
    nudged = dataclasses.replace(offline[-1], E=np.nextafter(offline[-1].E, np.inf))
    monkeypatch.setattr(verify, "_offline_run", lambda: (live, offline[:-1] + [nudged], stored))
    name = "offline recomputation from snapshots matches the live series"
    check = next(c for c in CHECKS if c.name == name)
    assert check.fn()[0] is False


def test_run_produces_outputs(run_dir):
    assert (run_dir / "series.csv").exists()
    assert sorted((run_dir / "snapshots").glob("*.axns"))
    assert sorted((run_dir / "plots").glob("*.svg"))


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace("nu = 0.2", "nu = -1"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "nu" in capsys.readouterr().err


def test_run_forcing_on_without_manufactured_exit_2(tmp_path, capsys):
    cfg = tmp_path / "forced.cfg"
    cfg.write_text(CONFIG + "forcing = on\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "manufactured" in capsys.readouterr().err
    assert not out.exists()


def test_run_blow_up_exits_1_and_keeps_outputs(tmp_path, capsys, monkeypatch):
    real_step = dynamics.step
    taken = []

    def step_then_blow_up(state, dt, cfg, forcing=None):
        if len(taken) == 5:
            raise dynamics.BlowUpError("non-finite fields after stage 1")
        taken.append(dt)
        return real_step(state, dt, cfg, forcing)

    monkeypatch.setattr(dynamics, "step", step_then_blow_up)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "aborted: non-finite fields after stage 1" in capsys.readouterr().err
    # output_every = 2: the initial state and steps 2 and 4 were sampled
    rows = storage.read_series(out / "series.csv")
    snaps = sorted((out / "snapshots").glob("*.axns"))
    assert len(rows) == len(snaps) == 3
    assert [row.t for row in rows] == [0.0, taken[0] + taken[1], sum(taken[:4])]
    assert [storage.read_snapshot(p)[0].t for p in snaps] == [row.t for row in rows]


STALL_CONFIG = """
nu = 0.001
R = 1.0
Lz = 1.0
nr = 32
nz = 32
cfl = 0.5
t_end = 1.0
scenario = gaussian_ring
amplitude = 20.0
output_every = 5
"""


def test_run_that_stops_advancing_exits_1_and_keeps_outputs(tmp_path, capsys):
    """At 32^2 this strong ring blows up with finite fields: the advective
    guard shrinks dt until t + dt == t near t = 0.476.  If the scheme ever
    stops this blow-up (an exact discrete energy identity would), this
    test needs another trigger."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(STALL_CONFIG)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aborted: the step from t = ") and "does not advance t" in err
    rows = storage.read_series(out / "series.csv")
    snaps = sorted((out / "snapshots").glob("*.axns"))
    assert len(rows) == len(snaps) > 1
    assert [storage.read_snapshot(p)[0].t for p in snaps] == [row.t for row in rows]
    assert rows[-1].t < 1.0


def test_run_missing_config_exit_2(tmp_path, capsys):
    # a config that does not exist, and an --out that is a file, not a directory
    cfg, out = tmp_path / "run.cfg", tmp_path / "o"
    cfg.write_text(CONFIG)
    out.write_text("a file")
    ghost = tmp_path / "ghost.cfg"
    for cfg_path, out_path, named in ((ghost, tmp_path / "o2", ghost), (cfg, out, out)):
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err


def test_criteria_out_is_a_directory_exit_2(run_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not list(tmp_path.glob("*.tmp")) and not list(out.iterdir())


def test_run_refuses_a_used_directory(tmp_path, capsys):
    # a shorter rerun would leave the first run's later snapshots behind,
    # and axns criteria would read both runs as one
    out = tmp_path / "o"
    for name, t_end in (("long.cfg", "0.02"), ("short.cfg", "0.01")):
        (tmp_path / name).write_text(CONFIG.replace("t_end = 0.05", f"t_end = {t_end}"))
    assert main(["run", "--config", str(tmp_path / "long.cfg"), "--out", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(["run", "--config", str(tmp_path / "short.cfg"), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def assert_same_outputs(a: Path, b: Path):
    # every output file: series.csv, the snapshots and the plots
    trees = [
        {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (a, b)
    ]
    assert Path("series.csv") in trees[0]
    assert any(p.parts[0] == "snapshots" for p in trees[0])
    assert any(p.parts[0] == "plots" for p in trees[0])
    assert trees[0] == trees[1]


def test_run_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    for d in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
    assert_same_outputs(tmp_path / "a", tmp_path / "b")


def test_run_deterministic_on_two_blas_threads(tmp_path):
    # the stream solve's two matrix products go through BLAS; at 128^2 they
    # are large enough for OpenBLAS to split them over its threads
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG.replace("nr = 24", "nr = 128").replace("nz = 24", "nz = 128")
        .replace("t_end = 0.05", "t_end = 0.0002")
    )
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=str(Path(axns.__file__).parents[1]),
    )
    code = "import sys; from axns.cli import main; sys.exit(main(sys.argv[1:]))"
    for d in ("a", "b"):
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / d)]
        subprocess.run([sys.executable, "-c", code, *args], env=env, check=True)
    assert_same_outputs(tmp_path / "a", tmp_path / "b")


def test_criteria_recomputation_matches_run(run_dir, tmp_path):
    out_csv = tmp_path / "offline.csv"
    code = main(
        ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    )
    assert code == 0
    assert out_csv.read_bytes() == (run_dir / "series.csv").read_bytes()


def test_criteria_lpq_matches_trapezoid_of_series(run_dir, tmp_path, capsys):
    # p = q = s: the space-time norm is (int ualpha_s dt)^(1/s)
    out_csv = tmp_path / "offline.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + ["--s", "5"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("lpq_norm of weighted swirl (p=5, q=5, s=5): ")
    table = np.genfromtxt(out_csv, delimiter=",", names=True)
    want = np.trapezoid(table["ualpha_s"], table["t"]) ** (1.0 / 5.0)
    assert math.isclose(float(line.rsplit(" ", 1)[1]), want, rel_tol=1e-11)

    one = tmp_path / "one"
    one.mkdir()
    first = sorted((run_dir / "snapshots").glob("*.axns"))[0]
    (one / first.name).write_bytes(first.read_bytes())
    assert main(["criteria", "--snapshots", str(one), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "single snapshot: finite-q space-time norm undefined, skipped" in out
    assert len(storage.read_series(out_csv)) == 1


def test_criteria_lpq_with_p_other_than_s(run_dir, tmp_path, capsys):
    # p != s: the spatial norm is ualpha_norm's own integral, not the row's
    out_csv = tmp_path / "offline.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + ["--p", "3", "--s", "4"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("lpq_norm of weighted swirl (p=3, q=4, s=4): ")
    states = list(storage.read_snapshot_dir(run_dir / "snapshots"))
    norms = [ualpha_norm(st, 4, 3.0) for st in states]
    want = np.trapezoid(np.power(norms, 4.0), [st.t for st in states]) ** 0.25
    assert len(states) >= 3
    assert math.isclose(float(line.rsplit(" ", 1)[1]), want, rel_tol=1e-11)


def test_criteria_inf_exponents_take_max_over_snapshots(run_dir, tmp_path, capsys):
    out_csv = tmp_path / "offline.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + ["--p", "inf", "--q", "Infinity"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    states = list(storage.read_snapshot_dir(run_dir / "snapshots"))
    want = max(ualpha_norm(st, 4, math.inf) for st in states)
    assert len(states) >= 3 and want > 0.0
    assert line == f"lpq_norm of weighted swirl (p=inf, q=inf, s=4): {want:.12g}"


@pytest.mark.parametrize("flag,value", [("--p", "0.5"), ("--q", "nan"), ("--p", "-inf")])
def test_criteria_rejects_bad_exponent(run_dir, tmp_path, capsys, flag, value):
    out_csv = tmp_path / "x.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + [f"{flag}={value}"]) == 2
    assert f"key {flag[2:]}: must be at least 1" in capsys.readouterr().err
    assert not out_csv.exists()


def test_criteria_memory_does_not_grow_with_snapshots(tmp_path, traced_peak):
    g = make_grid(GridSpec(R=1.0, Lz=1.0, nr=64, nz=64))
    rng = np.random.default_rng(5)
    fields = [ScalarField(g, rng.standard_normal((g.nr, g.nz)), EVEN) for _ in range(3)]

    def criteria_over(n):
        d = tmp_path / f"snaps{n}"
        d.mkdir()
        for k in range(n):
            state = State(u1=fields[0], omega1=fields[1], psi1=fields[2], t=0.01 * k)
            storage.write_snapshot(state, d / f"snap_{k:06d}.axns", nu=0.1)
        argv = ["criteria", "--snapshots", str(d), "--out", str(tmp_path / f"{n}.csv")]
        return lambda: main(argv)

    few, many = criteria_over(4), criteria_over(40)
    few()  # warm-up
    short, long = traced_peak(few), traced_peak(many)
    assert long <= 1.5 * short, (short, long)


def test_criteria_rejects_small_s(run_dir, tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + ["--s", "2"]) == 2
    assert "s must be an integer >= 3, got 2" in capsys.readouterr().err
    assert not out_csv.exists()


def test_criteria_blames_s_for_the_exponents_it_defaults(run_dir, tmp_path, capsys):
    # p and q default to s, so --s 0 is an error in s, not in --p or --q
    out_csv = tmp_path / "x.csv"
    argv = ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    assert main(argv + ["--s", "0"]) == 2
    err = capsys.readouterr().err
    assert "s must be an integer >= 3, got 0" in err
    assert "key p" not in err and "key q" not in err
    assert not out_csv.exists()


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "'nonsense'" in stderr
    assert all(repr(name) in stderr for name in SUITES + ("all",))


def test_run_and_criteria_load_no_check_layer(tmp_path):
    # axns run and axns criteria import neither the check layer, which holds
    # the refinement studies, nor the polynomials only manufactured runs use
    cfg = tmp_path / "ring.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from axns.cli import main\n"
        f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
        f"argv = ['criteria', '--snapshots', {str(out / 'snapshots')!r}]\n"
        f"assert main(argv + ['--out', {str(tmp_path / 'offline.csv')!r}]) == 0\n"
        "names = ('axns.verify', 'numpy.polynomial')\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_each_module_imports_alone():
    # the package namespace re-exports nothing: importing one module loads
    # only what it imports, and a module imported first shows any cycle
    modules = ("grid", "kinematics", "elliptic", "diagnostics", "storage", "scenarios")
    modules += ("dynamics", "config", "svgplot", "cli", "verify")
    code = (
        "import importlib, sys\n"
        "def fresh(name):\n"
        "    ours = [key for key in sys.modules if key.split('.')[0] == 'axns']\n"
        "    for key in ours:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
        "    return sorted(key for key in sys.modules if key.split('.')[0] == 'axns')\n"
        f"for module in {modules!r}:\n"
        "    fresh('axns.' + module)\n"
        "print(fresh('axns'), fresh('axns.grid'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['axns'] ['axns', 'axns.grid']"


def test_convergence_command(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        CONFIG.replace("nr = 24", "nr = 16").replace("nz = 24", "nz = 16").replace(
            "t_end = 0.05", "t_end = 0.02"
        )
    )
    assert main(["convergence", "--config", str(cfg), "--levels", "3"]) == 0
    text = capsys.readouterr().out
    assert "order" in text.lower()


def test_convergence_on_zero_fields_has_no_orders(tmp_path, capsys):
    # every refinement difference is exactly 0, so no order is formed
    cfg = tmp_path / "z.cfg"
    cfg.write_text(CONFIG.replace("gaussian_ring", "zero"))
    assert main(["convergence", "--config", str(cfg), "--levels", "2"]) == 0
    text = capsys.readouterr().out
    assert "difference 0.000000e+00" in text
    assert "orders undefined" in text and "observed orders" not in text


def test_convergence_needs_two_levels(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(["convergence", "--config", str(cfg), "--levels", "1"]) == 2
    assert capsys.readouterr().err
