"""Command-line front end.

Subcommands: run (integrate a configured problem and write outputs),
criteria (recompute diagnostics offline from stored snapshots), verify
(invariant suites), convergence (refinement study on a config).

Exit codes: 0 success, 1 failed verification or a run aborted by
BlowUpError (non-finite fields, or a step that no longer advances t), 2
usage errors (bad arguments, configs or snapshots, and file-system errors).

The check layer (verify, with the refinement studies) is imported only by
the commands that run it, so run and criteria never load it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import diagnostics
from .config import ConfigError, parse_config
from .diagnostics import CriteriaSeries, lpq_norm, ualpha_norm
from .dynamics import BlowUpError, run
from .storage import read_snapshot_dir, write_series


def _suite(name: str) -> str:
    """--suite's type: a name in verify.SUITES, or all."""
    from .verify import SUITES

    names = SUITES + ("all",)
    if name not in names:
        choices = ", ".join(map(repr, names))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axns",
        description="axisymmetric swirl flow solver and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a configured problem, write outputs")
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("criteria", help="recompute diagnostics from snapshots")
    p.add_argument("--snapshots", required=True, help="directory of .axns files")
    p.add_argument("--out", required=True, help="path of the series CSV to write")
    p.add_argument("--p", type=float, default=None, help="spatial exponent (or inf)")
    p.add_argument("--q", type=float, default=None, help="temporal exponent (or inf)")
    s_help = "weighted swirl exponent, >= 3 (a run samples at %(default)s)"
    p.add_argument("--s", type=int, default=CriteriaSeries.s, help=s_help)
    p.set_defaults(fn=_cmd_criteria)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", required=True, type=_suite, help="suite name, or all")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("convergence", help="self-refinement study of a config")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=3, help="number of grids, >= 2")
    p.set_defaults(fn=_cmd_convergence)
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    final, series = run(cfg, out_dir=args.out)
    print(f"integrated to t = {final.t:.6g}, {len(series.rows)} monitor rows")
    print(f"outputs under {args.out}")
    return 0


def _cmd_criteria(args) -> int:
    for name, value in (("p", args.p), ("q", args.q)):
        if value is not None and not value >= 1.0:
            raise ConfigError(f"key {name}: must be at least 1, got {value}")
    # a default taken from s falls under the s >= 3 rule of both paths below
    p = args.p if args.p is not None else float(args.s)
    q = args.q if args.q is not None else float(args.s)
    # one snapshot in memory at a time; nothing is written until all are read
    series = CriteriaSeries(s=args.s)
    norms = []
    for state in read_snapshot_dir(args.snapshots):
        row = diagnostics.sample(state, series)
        # with p = s the row's ualpha_s column is the integral ualpha_norm forms
        norm = row.ualpha_s ** (1.0 / p) if p == args.s else ualpha_norm(state, args.s, p)
        norms.append((state.t, norm))
    write_series(series, args.out)
    print(f"wrote {len(series.rows)} rows to {args.out}")

    if len(norms) >= 2 or math.isinf(q):
        value = lpq_norm(norms, q)
        print(f"lpq_norm of weighted swirl (p={p:g}, q={q:g}, s={args.s}): {value:.12g}")
    else:
        print("single snapshot: finite-q space-time norm undefined, skipped")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    names = SUITES if args.suite == "all" else (args.suite,)
    return 0 if run_suites(names) else 1


def _cmd_convergence(args) -> int:
    from .verify import observed_order, self_convergence_study

    if args.levels < 2:
        raise ConfigError(f"key levels: must be at least 2, got {args.levels}")
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    errors = self_convergence_study(cfg, n_levels=args.levels)
    for lev, err in enumerate(errors):
        n_c = cfg.grid.nr * 2**lev
        n_f = n_c * 2
        print(f"levels {n_c:4d} -> {n_f:4d}: difference {err:.6e}")
    if any(e == 0.0 for e in errors):
        print("differences vanish on this config; orders undefined")
    elif len(errors) >= 2:
        orders = observed_order(errors)
        print("observed orders: " + ", ".join(f"{o:.3f}" for o in orders))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BlowUpError as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
