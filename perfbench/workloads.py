"""Workload inputs made from a seed, and the checks on their outputs.

Seed 0 gives the reference parameters: ``scripts/demo.cfg``, the
criterion-7 manufactured settings, and the demo ring for the offline
archive.  Any other seed moves amplitude, ring centre and width by at most
0.5%, which keeps every run diffusion-limited (same step count) while the
inputs differ.  The package only ever sees the config files written here.

This module reads outputs with numpy and the csv module alone, so the
checks do not trust the package's own readers.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

# criterion-7 forced run, t_end cut so that one call takes a few seconds
MMS_T_END = 0.01
# 128^2 ring at nu 0.05: 197 steps, 198 snapshots
ARCHIVE_T_END = 0.03
# the manufactured run on the grid of a workload that has no closed form
PROBE_T_END = 0.002


def ring_params(seed: int) -> dict:
    """Gaussian-ring shape; seed 0 is the demo's."""
    params = {"amplitude": 1.0, "width": 0.25, "r_center": 0.5, "z_center": 0.5}
    if seed:
        rng = random.Random(seed)
        for key in params:
            params[key] *= 1.0 + 0.005 * rng.uniform(-1.0, 1.0)
    return params


def config_text(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def demo_config(seed: int) -> str:
    return config_text(
        nu=0.05, R=1.0, Lz=1.0, nr=64, nz=64, cfl=0.5, t_end=1.0,
        scenario="gaussian_ring", output_every=5, **ring_params(seed),
    )


def archive_config(seed: int) -> str:
    return config_text(
        nu=0.05, R=1.0, Lz=1.0, nr=128, nz=128, cfl=0.5, t_end=ARCHIVE_T_END,
        scenario="gaussian_ring", output_every=1, **ring_params(seed),
    )


def mms_config(seed: int, n: int = 128, t_end: float = MMS_T_END) -> str:
    return config_text(
        nu=0.1, R=1.0, Lz=1.0, nr=n, nz=n, cfl=0.4, t_end=t_end,
        scenario="manufactured", amplitude=ring_params(seed)["amplitude"],
        mode_k=1, forcing="on", output_every=10_000_000,
    )


# -- outputs ---------------------------------------------------------------


def read_series(path) -> dict:
    """Columns of a series CSV as float arrays."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=np.float64).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def energy_defect_rel(series: dict, nu: float) -> float:
    """|E(T) - E(0) + nu int D dt| / E(0), trapezoid over the rows."""
    t, E, D = series["t"], series["E"], series["D"]
    dissipated = float(np.sum(0.5 * np.diff(t) * (D[1:] + D[:-1])))
    return float(abs(E[-1] - E[0] + nu * dissipated) / E[0])


def spin_down_failures(series: dict, nu: float) -> list[str]:
    """Acceptance criteria 2 and 3 on one unforced run."""
    E, sup = series["E"], series["swirl_sup"]
    bad = []
    if not np.all(E[1:] <= E[:-1] * (1.0 + 1e-9)):
        bad.append("energy increased")
    if not energy_defect_rel(series, nu) <= 1e-3:
        bad.append("energy balance defect above 1e-3 E0")
    if not np.all(sup <= (1.0 + 1e-10) * sup[0]):
        bad.append("swirl sup above its initial value")
    return bad


def read_snapshot(path) -> tuple[float, np.ndarray, np.ndarray]:
    """(t, u1, om1) from an .axns file: 45-byte header, then Fortran-order
    float64 arrays u1, om1, psi1."""
    buf = Path(path).read_bytes()
    head = np.frombuffer(buf, dtype="<i4", count=2, offset=5)
    nr, nz = int(head[0]), int(head[1])
    t = float(np.frombuffer(buf, dtype="<f8", count=1, offset=29)[0])
    n = nr * nz
    if len(buf) != 45 + 3 * n * 8:
        raise ValueError(f"snapshot {path} has {len(buf)} bytes")
    arrays = np.frombuffer(buf, dtype="<f8", count=3 * n, offset=45)
    u1 = arrays[:n].reshape((nr, nz), order="F")
    om1 = arrays[n : 2 * n].reshape((nr, nz), order="F")
    return t, u1, om1


def mms_error_l2(snapshot, amplitude: float) -> float:
    """Volume L2 error of (u1, om1) against the manufactured closed form
    on R = Lz = 1, mode 1 (see axns.scenarios):

        u1*  = A s^2 cos(2 pi z + 0.7) e^-t,             s = 1 - r^2
        om1* = 0.4 A (32 s^3 - 48 r^2 s^2 + k^2 s^4) cos(k z) e^-t,  k = 2 pi
    """
    t, u1, om1 = read_snapshot(snapshot)
    nr, nz = u1.shape
    dr, dz = 1.0 / nr, 1.0 / nz
    r = ((np.arange(nr) + 0.5) * dr)[:, None]
    z = (np.arange(nz) * dz)[None, :]
    k = 2.0 * np.pi
    s = 1.0 - r * r
    decay = amplitude * math.exp(-t)
    u_exact = s**2 * np.cos(k * z + 0.7) * decay
    om_exact = 0.4 * (32 * s**3 - 48 * r * r * s**2 + k * k * s**4) * np.cos(k * z) * decay
    weight = 2.0 * np.pi * r * dr * dz
    err2 = np.sum(weight * ((u1 - u_exact) ** 2 + (om1 - om_exact) ** 2))
    return float(np.sqrt(err2))


def mms_failures(snapshot, amplitude: float) -> list[str]:
    _, u1, om1 = read_snapshot(snapshot)
    bad = []
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(om1))):
        bad.append("non-finite fields in the final snapshot")
    if not math.isfinite(mms_error_l2(snapshot, amplitude)):
        bad.append("manufactured-solution error is not finite")
    return bad


def same_bytes(a, b) -> bool:
    return Path(a).read_bytes() == Path(b).read_bytes()
