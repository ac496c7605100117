"""Command-line front end.

Exit codes: 0 success, 1 solver error (including a run stopped by a
non-finite value), 2 usage error, 3 monitor violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .adaptive import RHO_NAMES, rho_total
from .core import UsageError
from .harness import (
    PROBLEM_KEYS,
    SOLVER_KEYS,
    build_problem,
    load_config,
    make_rho,
    problem_params,
    read_trace,
    run_experiment,
    solver_config,
    summary_table,
    write_libsvm,
    write_summary,
    write_trace,
)
from .monitor import monitor_check
from .problems import logistic_synthetic
from .solver import ENGINES, run

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2
EXIT_MONITOR = 3


#: solve's problem flags besides --problem, each a PROBLEM_KEYS key.
PROBLEM_FLAGS = ("data", "m", "n", "p", "q", "r", "dim", "nobs", "gamma")


def _given(args, keys) -> dict:
    """The flags among ``keys`` that were given, as {key: value}."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a prefix such as "--pro" is an error, never "--problem"
    ap = argparse.ArgumentParser(prog="adaprox", allow_abbrev=False,
                                 description="Adaptive proximal-gradient toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one solver on one problem",
                        allow_abbrev=False)
    # each problem and solver flag holds the string a config file holds, None
    # when not given, read by problem_params and solver_config alike
    ps.add_argument("--problem", default="quadratic", choices=PROBLEM_KEYS)
    for key in PROBLEM_FLAGS:
        ps.add_argument(f"--{key}",
                        help="LIBSVM file for the logistic problem" if key == "data" else None)
    for key in SOLVER_KEYS:
        ps.add_argument("--solver" if key == "engine" else "--" + key.replace("_", "-"),
                        dest=key, choices={"engine": ENGINES, "rho": RHO_NAMES}.get(key))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--monitor", action="store_true")
    ps.add_argument("--out", help="trace output path")

    pb = sub.add_parser("bench", help="run an experiment grid from a config file",
                        allow_abbrev=False)
    pb.add_argument("--config", required=True)

    pc = sub.add_parser("check", help="replay a trace through the theory monitor",
                        allow_abbrev=False)
    pc.add_argument("trace", help="JSON trace file")
    pc.add_argument("--known-L", type=float, default=None)
    pc.add_argument("--fstar", type=float, default=None)
    pc.add_argument("--rho", default=None, choices=RHO_NAMES)

    pg = sub.add_parser("gen", help="write a synthetic logistic dataset as LIBSVM text",
                        allow_abbrev=False)
    # only the logistic kind reads a data file (solve --data), so gen writes no other
    pg.add_argument("--problem", default="logistic", choices=("logistic",))
    for key in ("m", "n"):
        pg.add_argument(f"--{key}")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)
    return ap


def _cmd_solve(args) -> int:
    config = solver_config("solve", _given(args, SOLVER_KEYS), monitor=args.monitor)
    problem, x0 = build_problem({"kind": args.problem, **_given(args, PROBLEM_FLAGS)},
                                args.seed)
    result = run(problem, x0, config, seed=args.seed)
    trace = result.trace
    print(f"{problem.name}: {config.engine} terminated by {trace.termination} "
          f"after {trace.iterations} iterations; "
          f"best F = {result.best_F:.10e}, min ||G|| = {trace.min_gradmap():.3e}")
    if result.report is not None:
        for line in result.report.summary_lines():
            print("  monitor", line)
    if args.out:
        write_trace(trace, "json", args.out)
        print(f"trace written to {args.out}")
    if trace.termination == "non_finite":
        return EXIT_SOLVER
    if result.report is not None and not result.report.passed:
        return EXIT_MONITOR
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    rows, fhat = run_experiment(config)
    print(summary_table(rows))
    print(f"F*_hat = {fhat:.10e}")
    summary_path = f"{config.out_dir}/summary.json"
    write_summary(rows, fhat, summary_path)
    print(f"summary written to {summary_path}")
    if any(r.error or r.termination == "non_finite" for r in rows):
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_check(args) -> int:
    trace = read_trace(args.trace)
    total = rho_total(make_rho(args.rho)) if args.rho else None
    report = monitor_check(trace, None, total, fstar=args.fstar,
                           known_L=args.known_L)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_MONITOR


def _cmd_gen(args) -> int:
    _, p = problem_params({"kind": "logistic", **_given(args, ("m", "n"))})
    design = logistic_synthetic(p["m"], p["n"], args.seed)
    with open(args.out, "w") as fh:
        write_libsvm(design, fh)
    print(f"dataset written to {args.out}")
    return EXIT_OK


def cli_main(argv: Optional[list] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_gen(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(cli_main())
