"""Interleaved base/change pairs of the benchmark, summarised per metric.

    python scripts/bench.py --base DIR --workload W [--workload W ...] \
        --pairs N --seconds S --seed0 N --out BENCH_<n>.json

DIR is a checkout of the base commit, for example one unpacked by
``git archive <rev> | tar -x -C DIR``; this script runs no git. Pair i runs
``perfbench/run.py --workload W --seed <seed0 + i> --seconds S --trace 0``
in DIR and in this checkout, one run at a time: the base first in even pairs,
the change first in odd ones. Giving this checkout as DIR measures the noise
(an A/A run).

The output holds each side's ``src_lines`` (the ``wc -l src/adaprox/*.py``
total), every run (its metrics, ``correct``, ``attempted``, ``failed`` and the
input-0 trace hash it prints) and, per workload and end-to-end metric, each
side's values, median and quartiles, the wins of each side and the verdict
``claim``: the change is better in at least 9 of 10 pairs and its median is
better than the base's by more than the base's interquartile range. The
verdict is reported, not enforced.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_LINE = re.compile(r"^trace sha256 of input 0 .*: ([0-9a-f]{64}), (\d+) iterations$",
                       re.MULTILINE)


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the base commit")
    ap.add_argument("--workload", required=True, action="append",
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed0", required=True, type=int, help="the seed of pair 0")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not (args.base / "perfbench" / "run.py").is_file():
        ap.error(f"--base {args.base} has no perfbench/run.py")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its last-line JSON, the
    metric values only, and the input-0 trace hash and iteration count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    found = HASH_LINE.search(proc.stdout)
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "trace_sha256": found and found.group(1),
            "iterations": found and int(found.group(2)),
            "metrics": {k: m["value"] for k, m in out["metrics"].items()}}


def src_lines(checkout: Path) -> int:
    """The line count of ``checkout``'s library, as the total of
    ``wc -l src/adaprox/*.py``: the newlines of each file."""
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "adaprox").glob("*.py"))


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list, change: list, better: str) -> dict:
    """Each side's summary, the wins per side (ties count for neither) and
    the verdict on a claimed gain."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]
    b, c = summary(base), summary(change)
    wins = sum(g > 0 for g in gains)
    return {"better": better, "base": b, "change": c, "change_wins": wins,
            "base_wins": sum(g < 0 for g in gains),
            "claim": 10 * wins >= 9 * len(gains)
            and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"]}


def main(argv=None) -> int:
    args = _args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": args.base.resolve(), "change": ROOT}
    report = {"base": str(sides["base"]), "change": str(ROOT), "pairs": args.pairs,
              "seconds": args.seconds, "seed0": args.seed0,
              "host": {"cpus": os.cpu_count(), "loadavg_at_start": os.getloadavg()},
              "src_lines": {side: src_lines(path) for side, path in sides.items()},
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"pair": i, "seed": args.seed0 + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, args.seed0 + i, args.seconds)
                print(f"{workload} pair {i} {side}: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in pair[side]["metrics"].items()),
                      flush=True)
            runs.append(pair)
        metrics = {name: compare([r["base"]["metrics"][name] for r in runs],
                                 [r["change"]["metrics"][name] for r in runs], direction)
                   for name, direction in better.items()}
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            print(f"{workload} {name}: base median {m['base']['median']:.6g}, change median "
                  f"{m['change']['median']:.6g}, change better in {m['change_wins']} of "
                  f"{args.pairs}, claim {m['claim']}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
