"""Benchmark of adaprox: four seeded workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; adaprox is imported from its ``src/``.
The run generates its inputs from --seed, solves every input once per round
until --seconds have passed, checks every output, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With --trace 0 the metrics are the end-to-end means over the run's jobs (of
each job's median pass), with --trace 1 the per-layer means of a separate
traced run.
"""

from __future__ import annotations

import os

# One BLAS thread: the load comes from this single process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("logistic-dense", "logistic-sparse", "nmf-monitored", "quad-monitored")
END_TO_END = {"setup_s": "s", "solve_s": "s", "check_s": "s", "job_s": "s", "peak_mem_mb": "MB"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _import_program():
    """Import adaprox from this checkout's src/, never from elsewhere."""
    if not (SRC / "adaprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no adaprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adaprox

    if not Path(adaprox.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: adaprox imported from {adaprox.__file__}, not {SRC}")


def trace_hash(trace) -> str:
    """SHA-256 over every persisted trace column except elapsed_s."""
    h = hashlib.sha256()
    for r in trace.all_records():
        h.update(" ".join(v.hex() if isinstance(v, float) else str(v) for v in
                          (r.k, r.f_value, r.F_value, r.gradmap_norm, r.lam, r.L_k,
                           r.l_k, r.rho_used, r.n_gradient, r.n_prox)).encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    import numpy as np

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(wl.instances)
    insts = [wl.generate(s, OUT / f"{wl.name}-{i}") for i, s in enumerate(seeds)]
    fixed = wl.fixed_instance(OUT)
    paths = [OUT / f"{wl.name}-{i}.trace.json" for i in range(len(insts))]
    faults = []

    reps = (1, 1, 1) if args.trace else wl.reps
    iters = [0] * len(insts)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    attempted = failed = rounds = 0
    times = []
    t_start = time.perf_counter()
    while True:
        for i, (inst, path) in enumerate(zip(insts, paths)):
            gc.collect()
            attempted += 1
            if tracer:
                tracer.begin_job()
            try:
                out = wl.run_job(inst, path, reps)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed += 1
                print(f"job failed: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer:
                    tracer.end_job()
            times.append({k: getattr(out, k) for k in ("setup_s", "solve_s", "check_s", "job_s")})
            faults += wl.verify(inst, out)
            if rounds == 0:
                iters[i] = len(out.result.trace.records)
                if i == 0:
                    print(f"trace sha256 of input 0 (all columns but elapsed_s): "
                          f"{trace_hash(out.result.trace)}, {iters[0]} iterations")
        if fixed is not None:
            attempted += 1
            try:
                msgs = wl.certify(fixed)
            except Exception as exc:  # noqa: BLE001
                msgs = [f"{type(exc).__name__}: {exc}"]
            if msgs:
                failed += 1
                if rounds == 0:
                    print(f"certify-L failed: {msgs[0]}")
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
        tracer.write_spans(OUT / f"{wl.name}.spans.jsonl")
    # Untraced, the input with the median iteration count gets its own
    # tracemalloc pass: the peak over set-up, solve and check.
    peak = 0
    if not args.trace:
        mid = sorted(range(len(insts)), key=iters.__getitem__)[len(insts) // 2]
        gc.collect()
        tracemalloc.start()
        wl.run_job(insts[mid], paths[mid])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    for msg in faults[:10]:
        print(f"check failed: {msg}")
    if tracer:
        metrics = tracer.metrics()
    else:
        # The mean over jobs, not their median: the shared host runs this
        # process in a usual and a much faster state for seconds at a time,
        # and a median jumps between the two when a run spends about half
        # its jobs in each; the mean moves in proportion to that share.
        mean = {k: statistics.fmean(t[k] for t in times)
                for k in ("setup_s", "solve_s", "check_s", "job_s")}
        mean["peak_mem_mb"] = peak / 1e6
        metrics = {k: {"value": mean[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"{wl.name}: {rounds} rounds of {len(insts)} inputs, {len(times)} jobs timed "
          f"in {elapsed:.1f} s")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
