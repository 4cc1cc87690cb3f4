#!/usr/bin/env python3
"""Benchmark of the axns command line, one workload per process.

    python3 perfbench/run.py --workload demo_spin_down --seed 0 --seconds 32 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up (the imports, timed in fresh interpreters; config files;
for ``offline_criteria`` the snapshot archive) is repeated and timed; then the workload's CLI call is
repeated through ``axns.cli.main`` in this process for ``--seconds``, a
closed loop with one client.  Every call's outputs are checked; a call that
fails or exits nonzero makes the run report no metrics.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics: untraced and traced calls alternate, spans are taken
around the package's layer functions (see spans.py), and set-up is traced
too.  The last line of standard output is the JSON result.
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class Run:
    """One benchmark process: its work directory, operation counts and
    the failures seen."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    def cli(self, argv, what: str) -> float:
        """One axns CLI call; returns its wall time.  A nonzero exit or an
        exception is a failed operation."""
        from axns import cli

        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception:  # any crash of the program is a failed operation
            rc = "exception"
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{what}: exit {rc}: {sink.getvalue().strip()[-500:]}")
        return elapsed

    def check(self, what: str, problems) -> None:
        """Record one failed operation when a check finds problems."""
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def mms_probe(self, n: int) -> float:
        """Manufactured-solution error of a short forced run on an n^2 grid."""
        cfg = self.work / "probe.cfg"
        text = workloads.mms_config(self.seed, n=n, t_end=workloads.PROBE_T_END)
        cfg.write_text(text, encoding="utf-8")
        out = self.work / "probe"
        self.cli(["run", "--config", str(cfg), "--out", str(out)], "mms probe")
        if self.failures:
            return math.nan
        final = sorted((out / "snapshots").glob("*.axns"))[-1]
        amplitude = workloads.ring_params(self.seed)["amplitude"]
        self.check("mms probe", workloads.mms_failures(final, amplitude))
        return workloads.mms_error_l2(final, amplitude)


class DemoSpinDown:
    name = "demo_spin_down"
    imports = ("numpy", "axns.cli")
    nu = 0.05
    probe_n = 64

    def prepare(self, run: Run):
        cfg = run.work / "demo.cfg"
        cfg.write_text(workloads.demo_config(run.seed), encoding="utf-8")
        return cfg

    def argv(self, cfg, out: Path):
        return ["run", "--config", str(cfg), "--out", str(out)]

    def check(self, run: Run, cfg, out: Path) -> None:
        series = workloads.read_series(out / "series.csv")
        run.check("spin-down", workloads.spin_down_failures(series, self.nu))

    def accuracy(self, run: Run, cfg, out: Path) -> dict:
        series = workloads.read_series(out / "series.csv")
        return {"energy_defect_rel": workloads.energy_defect_rel(series, self.nu)}


class MmsForced128(DemoSpinDown):
    name = "mms_forced_128"
    # sympy is imported by the forcing; importing it in set-up makes every call do the same work
    imports = ("numpy", "axns.cli", "sympy")
    nu = 0.1
    probe_n = None

    def prepare(self, run: Run):
        cfg = run.work / "mms.cfg"
        cfg.write_text(workloads.mms_config(run.seed), encoding="utf-8")
        return cfg

    def _final(self, out: Path) -> Path:
        return sorted((out / "snapshots").glob("*.axns"))[-1]

    def check(self, run: Run, cfg, out: Path) -> None:
        amplitude = workloads.ring_params(run.seed)["amplitude"]
        run.check("manufactured", workloads.mms_failures(self._final(out), amplitude))

    def accuracy(self, run: Run, cfg, out: Path) -> dict:
        series = workloads.read_series(out / "series.csv")
        amplitude = workloads.ring_params(run.seed)["amplitude"]
        return {
            # forced run: the balance also carries the forcing's work
            "energy_defect_rel": workloads.energy_defect_rel(series, self.nu),
            "mms_err_l2": workloads.mms_error_l2(self._final(out), amplitude),
        }


class OfflineCriteria(DemoSpinDown):
    name = "offline_criteria"
    probe_n = 128

    def prepare(self, run: Run):
        cfg = run.work / "archive.cfg"
        cfg.write_text(workloads.archive_config(run.seed), encoding="utf-8")
        archive = run.work / "archive"
        shutil.rmtree(archive, ignore_errors=True)
        run.cli(["run", "--config", str(cfg), "--out", str(archive)], "archive run")
        return archive

    def argv(self, archive, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        return [
            "criteria", "--snapshots", str(archive / "snapshots"),
            "--out", str(out / "offline.csv"), "--p", "4", "--q", "4", "--s", "4",
        ]

    def check(self, run: Run, archive, out: Path) -> None:
        if not workloads.same_bytes(out / "offline.csv", archive / "series.csv"):
            run.check("offline", ["offline CSV differs from the live series.csv"])

    def accuracy(self, run: Run, archive, out: Path) -> dict:
        series = workloads.read_series(out / "offline.csv")
        return {"energy_defect_rel": workloads.energy_defect_rel(series, self.nu)}


CLASSES = {c.name: c for c in (DemoSpinDown, MmsForced128, OfflineCriteria)}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": metadata.version("sympy"),
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_loop(run: Run, wl, ctx, seconds: float, trace: bool, tracer):
    """Repeat the workload call within `seconds` (at least one call, and with
    trace at least one traced call).  With trace, calls alternate untraced /
    traced.  Returns (untraced times, traced times, traced run
    ids, accuracy of the first call)."""
    plain, traced, traced_runs = [], [], []
    accuracy = None
    start = time.perf_counter()
    k = 0
    while True:
        out = run.work / f"call-{k}"
        argv = wl.argv(ctx, out)
        with_trace = trace and k % 2 == 1
        if with_trace:
            tracer.run = f"call-{k}"
            tracer.install()
            try:
                elapsed = tracer.span("cli." + argv[0], run.cli, argv, wl.name)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            traced_runs.append(tracer.run)
        else:
            elapsed = run.cli(argv, wl.name)
            plain.append(elapsed)
        if run.failures:
            break
        wl.check(run, ctx, out)
        if accuracy is None and not trace and not run.failures:
            accuracy = wl.accuracy(run, ctx, out)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if run.failures:
            break
        # stop before a call that would end past the window
        if time.perf_counter() - start + elapsed > seconds and (not trace or traced):
            break
    return plain, traced, traced_runs, accuracy


def import_seconds(modules) -> float:
    """Median over five fresh interpreters of the time to import `modules`."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {', '.join(modules)}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def end_to_end(run: Run, wl, seconds: float) -> dict:
    import_s = import_seconds(wl.imports)
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        ctx = wl.prepare(run)
        setups.append(time.perf_counter() - t0)
    if run.failures:
        return {}
    plain, _, _, accuracy = timed_loop(run, wl, ctx, seconds, False, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.failures:
        return {}
    if wl.probe_n:
        accuracy["mms_err_l2"] = run.mms_probe(wl.probe_n)
    print(json.dumps({"solve_s_samples": plain, "setup_s_samples": setups, "import_s": import_s}))
    return {
        "solve_s": statistics.median(plain),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        **accuracy,
    }


def per_layer(run: Run, wl, seconds: float) -> dict:
    from axns.elliptic import stream_residual

    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = wl.prepare(run)
    finally:
        tracer.uninstall()
    if run.failures:
        return {}
    plain, traced, call_runs, _ = timed_loop(run, wl, ctx, seconds, True, tracer)
    if run.failures:
        return {}

    per_run = spans.run_metrics(tracer)
    out = {}
    for key, setup_value in per_run["setup"].items():
        values = [per_run[r][key] for r in call_runs]
        if key.endswith("_s"):
            out[key] = setup_value + statistics.median(values)
        else:
            if len(set(values)) != 1:
                run.check("trace", [f"count {key} differs between calls: {values}"])
            out[key] = setup_value + values[0]

    # a layer the workload should exercise must have been called
    for group in spans.GROUPS:
        expected = any(
            name.startswith(group + ".") and wl.name in moves
            for name, moves in layer_map.items()
        )
        if expected and out[group + ".calls"] == 0:
            run.check("trace", [f"no calls to {group} on {wl.name}"])
    for _mod, _cls, name in spans.COUNTED_INITS:
        if wl.name in layer_map[name] and out[name] == 0:
            run.check("trace", [f"no {name} on {wl.name}"])

    runs = ["setup", *call_runs]
    dts = [dt for r in runs for dt in tracer.values.get((r, "dt"), ())]
    out["dynamics.steps"] = out["dynamics.step.calls"]
    out["dynamics.dt_mean"] = float(np.mean(dts)) if dts else 0.0
    for group, q in (
        ("dynamics.step", 50), ("dynamics.step", 99),
        ("elliptic.solve_stream", 50), ("diagnostics.sample", 50),
    ):
        ms = spans.durations_ms(tracer, group, runs)
        out[f"{group}.ms_p{q}"] = float(np.percentile(ms, q)) if ms.size else 0.0
    out["elliptic.stream_residual_max"] = max(
        stream_residual(st.psi1, st.omega1) for st in tracer.last_sampled.values()
    )
    out["trace.overhead_rel"] = statistics.median(traced) / statistics.median(plain) - 1.0

    spans_dir = ROOT / ".perfbench"
    tracer.write_csv(spans_dir / f"spans_{wl.name}.csv")
    print(json.dumps({"solve_s_samples": plain, "traced_solve_s_samples": traced}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "axns" / "cli.py").is_file():
        print(f"no axns sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import axns.cli

    if Path(axns.cli.__file__).resolve().parent != SRC / "axns":
        print(f"axns imported from {axns.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = CLASSES[args.workload]()
    for module in wl.imports:
        __import__(module)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir()
    run = Run(work, args.seed)
    try:
        if args.trace:
            values = per_layer(run, wl, args.seconds)
        else:
            values = end_to_end(run, wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    print(json.dumps(record))
    metrics = {}
    if not run.failures:
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
