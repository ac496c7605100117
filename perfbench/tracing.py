"""Spans around adaprox's public functions, installed from outside ``src/``.

A span records its name, start, end and parent. Self time is a span's
duration minus the time its child spans cover, so the self times of all
layers plus the job's own self time add up to the traced job time. Spans
are kept in memory for the first traced job and written out at the end;
for every job, self times and counts are summed per layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from adaprox import harness, monitor, problems, solver

#: Per-layer metrics and their units.
LAYER_METRICS = {
    "harness.parse_libsvm_s": "s",
    "harness.libsvm_bytes": "bytes",
    "problems.matrix_s": "s",
    "problems.matrix_calls": "count",
    "problems.lambda_max_ata_s": "s",
    "problems.lambda_max_ata_calls": "count",
    "problems.build_s": "s",
    "core.oracle_s": "s",
    "core.oracle_calls": "count",
    "core.value_calls": "count",
    "core.prox_s": "s",
    "core.prox_calls": "count",
    "adaptive.curvature_s": "s",
    "adaptive.step_rule_s": "s",
    "adaptive.rho_s": "s",
    "solver.iters": "count",
    "solver.loop_s": "s",
    "solver.loop_us_per_iter": "us",
    "solver.retained_mb": "MB",
    "monitor.live_s": "s",
    "monitor.replay_s": "s",
    "monitor.checks_run": "count",
    "monitor.observations": "count",
    "harness.write_trace_s": "s",
    "harness.read_trace_s": "s",
    "harness.trace_bytes": "bytes",
    "bench.job_s": "s",
    "bench.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.active = False
        self._stack = []          # [name, start, child_time, span_index]
        self._job = None          # per-job sums: name -> value
        self.jobs = []
        self.spans = []           # (name, start, end, parent) of the first job
        self._patched = []

    # -- spans ------------------------------------------------------------

    def begin_job(self) -> None:
        self._job = defaultdict(float)
        self.active = True
        self._enter("job")

    def end_job(self) -> None:
        self._exit()
        self.active = False
        self.jobs.append(self._job)

    def _enter(self, name: str) -> None:
        idx = -1
        if len(self.jobs) == 0:
            idx = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        job = self._job
        job[name + ".self"] += dur - child
        job[name + ".calls"] += 1
        if name == "job":
            job["job.total"] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans[idx] = (name, start, end, parent)

    def count(self, key: str, value: float) -> None:
        self._job[key] += value

    def in_span(self, name: str) -> bool:
        return any(s[0] == name for s in self._stack)

    def wrap(self, name, fn, after=None):
        """``fn`` under a span; ``name`` may be a function of the tracer.
        ``after(result, args)`` records counts once ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name(tracer) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))

    def install(self) -> None:
        """Wrap each layer's public functions where their callers look them up."""
        p = self._patch
        p(harness, "parse_libsvm", "harness.parse_libsvm", self._after_parse)
        p(harness, "write_trace", "harness.write_trace",
          lambda out, args: self.count("harness.trace_bytes", os.path.getsize(args[2])))
        p(harness, "read_trace", "harness.read_trace")
        p(problems.SparseDesign, "matrix", "problems.matrix")
        p(problems, "lambda_max_ata", "problems.lambda_max_ata")
        p(problems, "logistic_gamma", "problems.build")
        for builder in ("logistic_problem", "nmf_problem", "quadratic_problem"):
            p(problems, builder, "problems.build", self._after_build)
        # the solver looks these up in its own module namespace
        p(solver, "run", "solver.run", self._after_run)
        p(solver, "estimate_curvature", "adaptive.curvature")
        p(solver, "adapgnc_step", "adaptive.step_rule")
        p(solver, "rho_value", "adaptive.rho")
        p(monitor, "monitor_check",
          lambda t: "monitor.live" if t.in_span("solver.run") else "monitor.replay",
          self._after_monitor)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _after_parse(self, design, args) -> None:
        src = args[0]
        size = os.fstat(src.fileno()).st_size if hasattr(src, "fileno") else len(src)
        self.count("harness.libsvm_bytes", size)

    def _after_build(self, problem, args) -> None:
        smooth, h = problem.smooth, problem.nonsmooth
        smooth.value = self.wrap("core.value", smooth.value)
        smooth.gradient = self.wrap("core.oracle", smooth.gradient)
        if smooth.value_and_gradient is not None:
            smooth.value_and_gradient = self.wrap("core.oracle", smooth.value_and_gradient)
        h.prox = self.wrap("core.prox", h.prox)

    def _after_run(self, result, args) -> None:
        recs = result.trace.all_records()
        self.count("solver.iters", len(recs) - 1)
        kept = sum(r.x.nbytes + r.grad.nbytes for r in recs if r.x is not None)
        self.count("solver.retained_bytes", kept)

    def _after_monitor(self, report, args) -> None:
        self.count("monitor.checks_run", len(report.checks))
        self.count("monitor.observations", sum(c.n_checked for c in report.checks))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Each per-layer metric as its mean over the traced jobs."""
        tot = defaultdict(float)
        for job in self.jobs:
            for k, v in job.items():
                tot[k] += v
        # summing first keeps the mean of integer counts exact for any job count
        tot = defaultdict(float, {k: v / len(self.jobs) for k, v in tot.items()})

        def s(name):
            return tot[name + ".self"]

        def c(name):
            return tot[name + ".calls"]

        iters = tot["solver.iters"]
        vals = {
            "harness.parse_libsvm_s": s("harness.parse_libsvm"),
            "harness.libsvm_bytes": tot["harness.libsvm_bytes"],
            "problems.matrix_s": s("problems.matrix"),
            "problems.matrix_calls": c("problems.matrix"),
            "problems.lambda_max_ata_s": s("problems.lambda_max_ata"),
            "problems.lambda_max_ata_calls": c("problems.lambda_max_ata"),
            "problems.build_s": s("problems.build"),
            "core.oracle_s": s("core.oracle") + s("core.value"),
            "core.oracle_calls": c("core.oracle"),
            "core.value_calls": c("core.value"),
            "core.prox_s": s("core.prox"),
            "core.prox_calls": c("core.prox"),
            "adaptive.curvature_s": s("adaptive.curvature"),
            "adaptive.step_rule_s": s("adaptive.step_rule"),
            "adaptive.rho_s": s("adaptive.rho"),
            "solver.iters": iters,
            "solver.loop_s": s("solver.run"),
            "solver.loop_us_per_iter": 1e6 * s("solver.run") / iters if iters else 0.0,
            "solver.retained_mb": tot["solver.retained_bytes"] / 1e6,
            "monitor.live_s": s("monitor.live"),
            "monitor.replay_s": s("monitor.replay"),
            "monitor.checks_run": tot["monitor.checks_run"],
            "monitor.observations": tot["monitor.observations"],
            "harness.write_trace_s": s("harness.write_trace"),
            "harness.read_trace_s": s("harness.read_trace"),
            "harness.trace_bytes": tot["harness.trace_bytes"],
            "bench.job_s": tot["job.total"],
            "bench.self_s": s("job"),
        }
        return {k: {"value": vals[k], "unit": LAYER_METRICS[k]} for k in LAYER_METRICS}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
