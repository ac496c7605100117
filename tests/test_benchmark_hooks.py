"""The benchmark's tracer (``perfbench/tracing.py``) wraps adaprox's public
functions by name. Renaming one of them must fail here, in the unit tests,
and not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np

from adaprox import harness, monitor, problems, solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    owners = (harness, monitor, problems, problems.SparseDesign, solver)

    def changed(before):
        return {name for o, b in zip(owners, before) for name, v in vars(o).items()
                if b.get(name) is not v}

    before = [dict(vars(o)) for o in owners]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert {"matrix", "parse_libsvm", "logistic_problem", "run",
                "monitor_check"} <= changed(before)
    finally:
        tracer.uninstall()
    assert changed(before) == set()


def test_traced_solve_counts_every_step_rule_call():
    """The tracer wraps the step rules in the solver's namespace; a solver
    that bound them at import would run them unseen and count zero calls."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_job()
        problem = problems.quadratic_problem([0.5, 1.0, 2.0], seed=1)
        result = solver.run(problem, np.ones(3), solver.SolverConfig(max_iters=20))
        tracer.end_job()
    finally:
        tracer.uninstall()
    job = tracer.jobs[0]
    iters = len(result.trace.records)
    assert iters >= 5 and job["solver.iters"] == iters
    for name in ("adaptive.curvature", "adaptive.step_rule", "adaptive.rho"):
        assert job[name + ".calls"] == iters, name
