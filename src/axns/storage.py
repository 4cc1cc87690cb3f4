"""Snapshot and series persistence.

Snapshot files are little-endian binary with a fixed 45-byte header

    offset  size  field
    0       4     magic  b"AXNS"
    4       1     version, currently 1
    5       4     nr  (int32)
    9       4     nz  (int32)
    13      8     R   (float64)
    21      8     Lz  (float64)
    29      8     t   (float64)
    37      8     nu  (float64)

followed by the u1, om1, psi1 arrays, each nr*nz float64 values with the
radial index varying fastest.  Round trips are bit-exact.

The series CSV has one header line (the MonitorRow column names) and one
%.17g-formatted line per row, so parsing it back reproduces every float
exactly; reading refuses, naming the file and the row, a row that is
short, unparsable or holds a non-finite value.

All writes, plots included, land in a uniquely named temporary file next
to the target and are renamed into place, so a crash never leaves a
partial file under the final name and two writers to one path never share
a temporary file.  Snapshots with a non-finite t, nu or field value, or
with a header grid that GridSpec rejects, are refused with an error that
names the file.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .diagnostics import COLUMNS, CriteriaSeries, MonitorRow
from .grid import EVEN, Grid, GridSpec, ScalarField, empty, make_grid
from .kinematics import State
from .svgplot import emit_plots

MAGIC = b"AXNS"
VERSION = 1
_HEADER = struct.Struct("<4sBii4d")


def _atomic_write(path, data: bytes | bytearray) -> None:
    path = Path(path)
    # a name no other writer picks; "x" refuses to open an existing file
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(state: State, path, nu: float) -> None:
    g = state.grid
    buf = bytearray(_HEADER.size + 3 * g.nr * g.nz * 8)
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, g.nr, g.nz, g.spec.R, g.spec.Lz, state.t, nu)
    # u1, om1, psi1 in turn, each with the radial index varying fastest
    body = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).reshape(3, g.nz, g.nr)
    for k, f in enumerate((state.u1, state.omega1, state.psi1)):
        body[k] = f.values.T
    _atomic_write(path, buf)


def read_snapshot(path, grid: Grid | None = None) -> tuple[State, float]:
    """Read one snapshot; returns (state, nu).  The state lives on grid
    when the header's GridSpec equals grid.spec, else on a new grid."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise ValueError(f"truncated snapshot {path}: {len(buf)} bytes")
    magic, version, nr, nz, R, Lz, t, nu = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r} in {path}")
    if version != VERSION:
        raise ValueError(f"unsupported snapshot version {version} in {path}")
    if not (math.isfinite(t) and math.isfinite(nu)):
        raise ValueError(f"non-finite header value in {path}: t={t}, nu={nu}")
    expect = _HEADER.size + 3 * nr * nz * 8
    if len(buf) != expect:
        raise ValueError(
            f"snapshot {path} has {len(buf)} bytes, header implies {expect}"
        )
    try:
        spec = GridSpec(R=R, Lz=Lz, nr=nr, nz=nz)
        if grid is None or grid.spec != spec:
            grid = make_grid(spec)
        # u1, om1, psi1 in turn, each with the radial index varying fastest
        arrays = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).reshape(3, nz, nr)
        fields = []
        for a in arrays:
            values = empty((nr, nz))  # 64-byte aligned, like every hot array
            values[...] = a.T
            fields.append(ScalarField(grid, values, EVEN))
        state = State(*fields, t=t)
    except ValueError as err:
        raise ValueError(f"snapshot {path}: {err}") from None
    return state, nu


def _name_order(path: Path) -> list:
    parts = re.split(r"(\d+)", path.name)
    return [int(part) if k % 2 else part for k, part in enumerate(parts)]


def read_snapshot_dir(dirpath) -> Iterator[State]:
    """Yield the state of every *.axns file under dirpath, sorted by name
    with digit runs compared as numbers (snap_1000000 after snap_999999),
    reading one file at a time.  Each file is checked as it is read:
    the sample times must increase and the grid and nu must be uniform.
    The states of one directory share one Grid, and with it the grid's
    stream factor and workspace."""
    paths = sorted(Path(dirpath).glob("*.axns"), key=_name_order)
    if not paths:
        raise ValueError(f"no snapshot files in {dirpath}")
    state, nu0 = read_snapshot(paths[0])
    spec0 = state.grid.spec
    yield state
    for path in paths[1:]:
        t_prev = state.t
        state, nu = read_snapshot(path, state.grid)
        if not state.t > t_prev:
            raise ValueError(
                f"snapshot times not increasing in {dirpath}: {t_prev} then {state.t}"
            )
        if state.grid.spec != spec0:
            raise ValueError(f"mixed grids in {dirpath}: {spec0} and {state.grid.spec}")
        if nu != nu0:
            raise ValueError(f"mixed nu values in {dirpath}: {nu0} and {nu}")
        yield state


def write_series(series: CriteriaSeries, path) -> None:
    if not series.rows:
        raise ValueError("write_series: empty series")
    lines = [",".join(COLUMNS)]
    for row in series.rows:
        lines.append(",".join("%.17g" % getattr(row, c) for c in COLUMNS))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_series(path) -> list[MonitorRow]:
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError(f"series file {path} has an unexpected header")
    rows = []
    for ln in lines[1:]:
        try:
            values = [float(p) for p in ln.split(",")]
        except ValueError:
            values = []
        # the writer emits only finite values, so a nan or inf is corruption
        if len(values) != len(COLUMNS) or not all(map(math.isfinite, values)):
            raise ValueError(f"series file {path}: bad row {ln!r}")
        rows.append(MonitorRow(*values))
    return rows


class RunWriter:
    """Per-run output layout: snapshots/snap_NNNNNN.axns, series.csv,
    plots/*.svg (plots only once the series has at least two rows).  A
    directory holds one run: one with snapshots is refused, not overwritten."""

    def __init__(self, out_dir, cfg):
        self.root = Path(out_dir)
        self.snap_dir = self.root / "snapshots"
        if any(self.snap_dir.glob("*.axns")):
            raise ValueError(f"{self.root} already holds a run's snapshots; use a new directory")
        self.snap_dir.mkdir(parents=True, exist_ok=True)
        self.nu = cfg.nu
        self._count = 0

    def snapshot(self, state: State) -> None:
        path = self.snap_dir / f"snap_{self._count:06d}.axns"
        write_snapshot(state, path, self.nu)
        self._count += 1

    def series(self, series: CriteriaSeries) -> None:
        if not series.rows:
            return
        write_series(series, self.root / "series.csv")
        if len(series.rows) >= 2:
            plot_dir = self.root / "plots"
            plot_dir.mkdir(parents=True, exist_ok=True)
            for name, text in emit_plots(series).items():
                _atomic_write(plot_dir / name, text.encode("utf-8"))
