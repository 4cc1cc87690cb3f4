"""End-to-end command-line checks: exit codes, outputs, cross-path agreement."""

import math

import pytest

from axns import storage, verify
from axns.cli import main
from axns.verify import CHECKS, SUITES

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


def test_run_produces_outputs(run_dir):
    assert (run_dir / "series.csv").exists()
    assert sorted((run_dir / "snapshots").glob("*.axns"))
    assert sorted((run_dir / "plots").glob("*.svg"))


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace("nu = 0.2", "nu = -1"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "nu" in capsys.readouterr().err


def test_run_missing_config_exit_2(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "ghost.cfg"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert capsys.readouterr().err


def test_run_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    for d in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
    a = (tmp_path / "a" / "series.csv").read_bytes()
    b = (tmp_path / "b" / "series.csv").read_bytes()
    assert a == b


def test_criteria_recomputation_matches_run(run_dir, tmp_path):
    out_csv = tmp_path / "offline.csv"
    code = main(
        ["criteria", "--snapshots", str(run_dir / "snapshots"), "--out", str(out_csv)]
    )
    assert code == 0
    live = storage.read_series(run_dir / "series.csv")
    offline = storage.read_series(out_csv)
    assert len(live) == len(offline)
    for a, b in zip(live, offline):
        assert a.t == b.t
        for name in ("critA", "critB", "critA_int", "E", "D", "swirl_sup"):
            va, vb = getattr(a, name), getattr(b, name)
            assert math.isclose(va, vb, rel_tol=1e-6, abs_tol=1e-300)


def test_criteria_rejects_small_s(run_dir, tmp_path, capsys):
    code = main(
        [
            "criteria",
            "--snapshots",
            str(run_dir / "snapshots"),
            "--out",
            str(tmp_path / "x.csv"),
            "--s",
            "2",
        ]
    )
    assert code == 2
    assert "s" in capsys.readouterr().err


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


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


def test_convergence_needs_two_levels(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(["convergence", "--config", str(cfg), "--levels", "1"]) == 2
    assert capsys.readouterr().err
