#!/usr/bin/env python3
"""Paired benchmark of two source checkouts with perfbench/run.py.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload offline_criteria --pairs 10 --seed 201 --seconds 32 \\
        --out BENCH_N.json

Each pair runs every workload once from each checkout, one process at a
time, with seed --seed + pair.  The side that runs first alternates from
pair to pair (the parent first in even pairs), because the second of two
back-to-back processes can run slower whichever tree it is; workloads are
interleaved pair by pair.  The output file is rewritten after every run,
so an interrupted session keeps the runs it finished.  It holds:

    what, command, machine   what was compared, how, and on what
    src_sha256               per side, sha256 over the sorted src/**/*.py
                             paths and their bytes: equal on an A/A run
    src_lines                per side, the newline count of the same files
                             (what wc -l reports)
    summary                  per workload and metric of the --trace 0 runs:
                             the quartiles of each side, the pairs (runs of
                             one seed) the change was lower in, the median
                             relative change and the parent's IQR, and for
                             each end-to-end metric of BENCHMARK.json its
                             bound, no_regression verdict (see verdict) and
                             gain verdict (see gain)
    trace_summary            the same for --trace 1 runs, if any
    runs                     every process: side, seed, pair, position,
                             exit code, its result line and sample line

Each checkout must be a source tree with perfbench/run.py and src/; run
each from a fresh copy, since a run writes under its .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _src_files(root: Path) -> list[Path]:
    return sorted((root / "src").rglob("*.py"))


def src_hash(root: Path) -> str:
    """sha256 of the tree's src/**/*.py: each relative path, its size and
    its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in _src_files(root):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def src_lines(root: Path) -> int:
    """Newline count of the tree's src/**/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in _src_files(root))


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench process; its last JSON line is the result and the line
    with solve_s_samples holds the per-call samples."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    results = [x for x in lines if "correct" in x]
    samples = [x for x in lines if "solve_s_samples" in x]
    return {
        "exit": proc.returncode,
        "output": results[-1] if results else None,
        "samples": samples[-1] if samples else None,
        "stderr_tail": proc.stderr[-2000:] if proc.returncode else "",
        "wall_s": wall,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def metric_value(run: dict, name: str):
    out = run.get("output") or {}
    return out.get("metrics", {}).get(name, {}).get("value")


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """unresolved if the parent's IQR is wider than bound times its median,
    unless every change run is better than every parent run; else ok if
    the change's median is worse than the parent's by at most bound
    (relative); else regressed."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: larger is worse
    pq, cq = quartiles(parent), quartiles(change)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if pq[2] - pq[0] > bound * abs(pq[1]) and not all_better:
        return "unresolved"
    return "ok" if sign * (cq[1] - pq[1]) <= bound * abs(pq[1]) else "regressed"


def gain(parent: list[float], change: list[float], better: str) -> str:
    """met if the change is better in at least nine tenths of the pairs
    (ties count for neither side) and its median is better than the
    parent's by more than the parent's IQR; else not_met."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    if 10 * wins >= 9 * len(parent) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]:
        return "met"
    return "not_met"


def summarize(runs: list[dict], workload: str, trace: int, end_to_end: list[dict]) -> dict:
    """Per-metric statistics of one workload's runs at one --trace value;
    end_to_end is BENCHMARK.json's list of {name, better, bound} entries."""
    mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
    failed = {
        side: sum(1 for r in mine if r["side"] == side and not (r["output"] or {}).get("correct"))
        for side in SIDES
    }
    summary: dict = {"failed_runs": failed}
    names = []
    for r in mine:
        for name in (r["output"] or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    for name in names:
        pairs = []
        for seed in sorted({r["seed"] for r in mine}):
            got = {r["side"]: metric_value(r, name) for r in mine if r["seed"] == seed}
            if all(isinstance(got.get(side), (int, float)) for side in SIDES):
                pairs.append((got["parent"], got["change"]))
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        summary[name] = {
            "pairs": len(pairs),
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_lower_in_pairs": sum(c < p for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "median_change_rel": cq[1] / pq[1] - 1.0 if pq[1] else None,
            "max_abs_rel_diff_in_pairs": max(
                (abs(c / p - 1.0) for p, c in pairs if p), default=None
            ),
            "parent_iqr": pq[2] - pq[0],
        }
        for e2e in end_to_end:
            if e2e["name"] == name:
                summary[name]["bound"] = e2e["bound"]
                summary[name]["no_regression"] = verdict(
                    parent, change, e2e["bound"], e2e["better"]
                )
                summary[name]["gain"] = gain(parent, change, e2e["better"])
    return summary


def describe(runs: list[dict]) -> str:
    """The what line: the pairs run, per --trace value, and their seeds."""
    parts = []
    for trace in sorted({r["trace"] for r in runs}):
        seeds = sorted({r["seed"] for r in runs if r["trace"] == trace})
        parts.append(f"{len(seeds)} --trace {trace} pairs, seeds {seeds[0]}-{seeds[-1]}")
    return (
        "perfbench/run.py, parent vs change, pairs per workload that alternate "
        "which side runs first (the parent first in even pairs; workloads "
        "interleaved pair by pair): " + "; ".join(parts)
    )


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "wall clock of the benchmark's own processes, run one at a time",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument(
        "--append", action="store_true",
        help="add the runs to an existing --out file (say, --trace 1 runs) of the same trees",
    )
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"{side}: no perfbench/run.py under {root}", file=sys.stderr)
            return 2

    benchmark = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "what": "",
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
        f"--seconds {args.seconds:g} --trace <t>, from a fresh copy of each checkout",
        "machine": machine(),
        "src_sha256": {side: src_hash(root) for side, root in roots.items()},
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "summary": {},
        "runs": [],
    }
    if args.append:
        old = json.loads(args.out.read_text(encoding="utf-8"))
        for side in SIDES:
            if old["src_sha256"][side] != record["src_sha256"][side]:
                print(f"{side}: src/ differs from the tree the runs in {args.out} "
                      "came from; write a new --out file", file=sys.stderr)
                return 2
        record = old
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for position, side in enumerate(order):
                run = {
                    "side": side, "workload": workload, "seed": seed,
                    "trace": args.trace, "pair": pair, "position_in_pair": position,
                }
                run.update(run_once(roots[side], workload, seed, args.seconds, args.trace))
                record["runs"].append(run)
                record["what"] = describe(record["runs"])
                runs = record["runs"]
                for trace, key in ((0, "summary"), (1, "trace_summary")):
                    workloads = sorted({r["workload"] for r in runs if r["trace"] == trace})
                    if workloads:
                        record[key] = {
                            w: summarize(runs, w, trace, benchmark["end_to_end"])
                            for w in workloads
                        }
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                solve = metric_value(run, "solve_s")
                print(f"pair {pair} {workload} {side}: exit {run['exit']}, solve_s {solve}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
