"""Snapshot and series round trips, corruption handling, run output layout."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axns import diagnostics as dg
from axns import storage
from axns.cli import main
from axns.dynamics import SolverConfig, run
from axns.grid import EVEN, GridSpec, ScalarField, make_grid, zeros_field
from axns.kinematics import State
from axns.scenarios import Scenario


def make_state(grid, rng=None, t=0.0):
    if rng is None:
        fields = [zeros_field(grid) for _ in range(3)]
    else:
        fields = [
            ScalarField(grid, rng.standard_normal((grid.nr, grid.nz)), EVEN)
            for _ in range(3)
        ]
    return State(u1=fields[0], omega1=fields[1], psi1=fields[2], t=t)


def test_snapshot_round_trip_zero(grid16, tmp_path):
    path = tmp_path / "snap.axns"
    storage.write_snapshot(make_state(grid16, t=0.5), path, nu=0.1)
    state, nu = storage.read_snapshot(path)
    assert nu == 0.1 and state.t == 0.5
    assert state.grid.nr == 16 and state.grid.nz == 16
    for f in (state.u1, state.omega1, state.psi1):
        assert np.max(np.abs(f.values)) == 0.0


@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_round_trip_bit_exact(grid32, tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("snap") / "s.axns"
    orig = make_state(grid32, rng, t=float(rng.random()))
    storage.write_snapshot(orig, path, nu=0.25)
    state, nu = storage.read_snapshot(path)
    assert state.t == orig.t and nu == 0.25
    assert np.array_equal(state.u1.values, orig.u1.values)
    assert np.array_equal(state.omega1.values, orig.omega1.values)
    assert np.array_equal(state.psi1.values, orig.psi1.values)
    assert state.grid.spec == grid32.spec


def test_snapshot_layout_is_pinned(tmp_path):
    # expected bytes built by hand, not by the package's reader: a
    # non-square grid and distinct fields catch a C-order body or swapped
    # fields
    grid = make_grid(GridSpec(R=1.5, Lz=2.0, nr=16, nz=12))
    state = make_state(grid, np.random.default_rng(4), t=0.375)
    path = tmp_path / "snap.axns"
    storage.write_snapshot(state, path, nu=0.05)
    want = struct.pack("<4sBii4d", b"AXNS", 1, 16, 12, 1.5, 2.0, 0.375, 0.05) + b"".join(
        f.values.tobytes(order="F") for f in (state.u1, state.omega1, state.psi1)
    )
    assert path.read_bytes() == want


def test_snapshot_corrupt_magic(grid16, tmp_path):
    path = tmp_path / "snap.axns"
    storage.write_snapshot(make_state(grid16), path, nu=0.1)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"WAT?"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        storage.read_snapshot(path)


def test_snapshot_bad_version(grid16, tmp_path):
    path = tmp_path / "snap.axns"
    storage.write_snapshot(make_state(grid16), path, nu=0.1)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        storage.read_snapshot(path)


def test_snapshot_truncated(grid16, tmp_path):
    path = tmp_path / "snap.axns"
    storage.write_snapshot(make_state(grid16), path, nu=0.1)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError):
        storage.read_snapshot(path)
    path.write_bytes(raw[:10])
    with pytest.raises(ValueError):
        storage.read_snapshot(path)


def test_snapshot_dir_ordering_and_checks(grid16, tmp_path, rng):
    for n, t in enumerate((0.0, 0.1, 0.2)):
        storage.write_snapshot(
            make_state(grid16, rng, t=t), tmp_path / f"snap_{n:06d}.axns", nu=0.1
        )
    out = list(storage.read_snapshot_dir(tmp_path))
    assert [s.t for s in out] == [0.0, 0.1, 0.2]
    # one Grid per directory, so its caches are built once
    assert all(s.grid is out[0].grid for s in out)
    assert storage.read_snapshot(tmp_path / "snap_000001.axns", grid16)[0].grid is grid16
    other = make_grid(GridSpec(R=1.0, Lz=2.0, nr=16, nz=16))
    assert storage.read_snapshot(tmp_path / "snap_000001.axns", other)[0].grid.spec == grid16.spec
    # a stray later file with earlier time breaks monotonicity
    storage.write_snapshot(
        make_state(grid16, rng, t=0.05), tmp_path / "snap_000009.axns", nu=0.1
    )
    with pytest.raises(ValueError):
        list(storage.read_snapshot_dir(tmp_path))


def test_snapshot_dir_orders_by_number(grid16, tmp_path):
    # RunWriter's six-digit names grow a seventh digit after snapshot 999999
    storage.write_snapshot(make_state(grid16, t=0.5), tmp_path / "snap_1000000.axns", nu=0.1)
    storage.write_snapshot(make_state(grid16, t=0.0), tmp_path / "snap_999999.axns", nu=0.1)
    assert [s.t for s in storage.read_snapshot_dir(tmp_path)] == [0.0, 0.5]


def test_snapshot_dir_mixed_nu(grid16, grid32, tmp_path):
    # a second nu, then a second grid; `axns criteria` refuses both
    cases = ((grid16, 0.2, "0.1 and 0.2"), (grid32, 0.1, f"{grid16.spec} and {grid32.spec}"))
    for case, (grid, nu, names_both) in enumerate(cases):
        d = tmp_path / str(case)
        d.mkdir()
        storage.write_snapshot(make_state(grid16, t=0.0), d / "a.axns", nu=0.1)
        storage.write_snapshot(make_state(grid, t=0.1), d / "b.axns", nu=nu)
        with pytest.raises(ValueError, match=re.escape(names_both)):
            list(storage.read_snapshot_dir(d))
        assert main(["criteria", "--snapshots", str(d), "--out", str(d / "x.csv")]) == 2


@pytest.mark.parametrize("field,offset", [("t", 29), ("nu", 37)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_snapshot_rejects_non_finite_header(grid16, tmp_path, field, offset, bad):
    for n in range(3):
        storage.write_snapshot(
            make_state(grid16, t=0.1 * n), tmp_path / f"snap_{n:06d}.axns", nu=0.1
        )
    path = tmp_path / "snap_000001.axns"
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 8] = struct.pack("<d", bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{field}="):
        storage.read_snapshot(path)
    code = main(["criteria", "--snapshots", str(tmp_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("k,name", [(0, "u1"), (1, "omega1"), (2, "psi1")])
def test_snapshot_rejects_non_finite_field(grid16, tmp_path, capsys, k, name):
    for n in range(3):
        storage.write_snapshot(
            make_state(grid16, t=0.1 * n), tmp_path / f"snap_{n:06d}.axns", nu=0.1
        )
    path = tmp_path / "snap_000002.axns"
    raw = bytearray(path.read_bytes())
    offset = 45 + 8 * (k * grid16.nr * grid16.nz + 5)
    raw[offset : offset + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{name} contains non-finite"):
        storage.read_snapshot(path)
    code = main(["criteria", "--snapshots", str(tmp_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "nr,nz,R",
    [(-1, -1, 1.0), (16, 16, 0.0), (16, 16, math.nan), (16, 5, 1.0)],
    ids=["nr-1", "R0", "Rnan", "nz5"],
)
def test_snapshot_rejects_invalid_header_grid(tmp_path, capsys, nr, nz, R):
    # the body has the size the header implies, so only GridSpec objects
    path = tmp_path / "snap_000000.axns"
    header = struct.pack("<4sBii4d", b"AXNS", 1, nr, nz, R, 1.0, 0.0, 0.1)
    path.write_bytes(header + bytes(3 * nr * nz * 8))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        storage.read_snapshot(path)
    code = main(["criteria", "--snapshots", str(tmp_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_snapshot_dir_empty(tmp_path):
    with pytest.raises(ValueError):
        list(storage.read_snapshot_dir(tmp_path))


def test_series_round_trip_value_exact(grid32, tmp_path, rng):
    series = dg.CriteriaSeries(s=4)
    for t in (0.0, 0.5, 1.25):
        dg.sample(make_state(grid32, rng, t=t), series)
    path = tmp_path / "series.csv"
    storage.write_series(series, path)
    rows = storage.read_series(path)
    assert len(rows) == 3
    for orig, back in zip(series.rows, rows):
        for name in dg.COLUMNS:
            # %.17g preserves every double exactly
            assert getattr(orig, name) == getattr(back, name)


def test_series_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        storage.write_series(dg.CriteriaSeries(s=4), tmp_path / "s.csv")


def test_series_rejects_foreign_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        storage.read_series(path)


def test_series_rejects_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(",".join(dg.COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(ValueError):
        storage.read_series(path)


def test_run_writer_layout(tmp_path):
    spec = GridSpec(R=1.0, Lz=1.0, nr=24, nz=24)
    cfg = SolverConfig(
        nu=0.2,
        cfl=0.5,
        t_end=0.04,
        grid=spec,
        scenario=Scenario(name="gaussian_ring", amplitude=1.0),
        output_every=2,
    )
    out = tmp_path / "run"
    final, series = run(cfg, out_dir=out)
    snap_files = sorted((out / "snapshots").glob("*.axns"))
    assert len(snap_files) == len(series.rows)
    assert (out / "series.csv").exists()
    back = storage.read_series(out / "series.csv")
    assert [r.t for r in back] == [r.t for r in series.rows]
    disk = list(storage.read_snapshot_dir(out / "snapshots"))
    assert math.isclose(disk[-1].t, final.t, rel_tol=1e-12)
    assert np.array_equal(disk[-1].u1.values, final.u1.values)
    svgs = sorted((out / "plots").glob("*.svg"))
    assert len(svgs) >= 5


def test_run_ignores_foreign_plot_temp_dir(tmp_path):
    # a crashed run's "plots/energy.svg.tmp" directory must not stop a run
    cfg = SolverConfig(
        nu=0.2,
        cfl=0.5,
        t_end=0.01,
        grid=GridSpec(R=1.0, Lz=1.0, nr=16, nz=16),
        scenario=Scenario(name="gaussian_ring", amplitude=1.0),
        output_every=1,
    )
    out = tmp_path / "run"
    (out / "plots" / "energy.svg.tmp").mkdir(parents=True)
    run(cfg, out_dir=out)
    names = sorted(p.name for p in (out / "plots").iterdir())
    assert names == [
        "criteria.svg",
        "criteria_int.svg",
        "dissipation.svg",
        "energy.svg",
        "energy.svg.tmp",
        "swirl.svg",
    ]
    assert (out / "plots" / "energy.svg").read_text().startswith("<svg")


def test_write_ignores_foreign_temp_file(grid16, tmp_path):
    # another writer's (or a crashed run's) "<name>.tmp" must not be reused
    path = tmp_path / "snap_000000.axns"
    (tmp_path / "snap_000000.axns.tmp").mkdir()
    state = make_state(grid16, np.random.default_rng(7))
    storage.write_snapshot(state, path, 0.1)
    back, _ = storage.read_snapshot(path)
    assert np.array_equal(back.omega1.values, state.omega1.values)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "snap_000000.axns",
        "snap_000000.axns.tmp",
    ]


def test_failed_write_removes_temp_file(tmp_path):
    target = tmp_path / "series.csv"
    target.mkdir()  # renaming a file onto a directory fails
    with pytest.raises(OSError):
        storage._atomic_write(target, b"t\n")
    assert list(tmp_path.iterdir()) == [target]
