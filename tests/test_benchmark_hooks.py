"""The benchmark's tracer (``perfbench/tracing.py``) wraps adaprox's public
functions by name, and its checks (``perfbench/checks.py``) read what a run
returns. Renaming one of those functions, or dropping what a check reads,
must fail here, in the unit tests, and not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from adaprox import harness, monitor, problems, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


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
    that bound them at import would run them unseen and count zero calls.
    It also replaces ``prox`` on each built problem's h (a ``Zero`` and a
    ``NonnegIndicator`` here), which must count every prox step."""
    shape = problems.FactorShape(p=4, q=3, r=2)
    builds = [
        (lambda: problems.quadratic_problem([0.5, 1.0, 2.0], seed=1), np.ones(3)),
        (lambda: problems.nmf_problem(np.ones((4, 3)), shape), np.full(shape.dim, 0.5)),
    ]
    for build, x0 in builds:
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            tracer.begin_job()
            problem = build()
            result = solver.run(problem, x0, solver.SolverConfig(max_iters=20))
            tracer.end_job()
        finally:
            tracer.uninstall()
        job = tracer.jobs[0]
        iters = len(result.trace.records)
        assert iters >= 5 and job["solver.iters"] == iters, problem.name
        for name in ("adaptive.curvature", "adaptive.step_rule", "adaptive.rho"):
            assert job[name + ".calls"] == iters, (problem.name, name)
        assert job["core.prox.calls"] == result.trace.records[-1].n_prox, problem.name


def test_logistic_build_makes_two_matrix_and_two_power_iteration_calls():
    """perfbench reads 2 ``matrix`` and 2 ``lambda_max_ata`` calls per
    logistic build (``logistic_gamma`` and ``logistic_problem``), whichever
    form the design is held in; a cache that skips one of them fails here."""
    g = np.random.default_rng(3)
    A_sparse = np.where(g.random((30, 8)) < 0.2, g.standard_normal((30, 8)), 0.0)
    designs = [(np.ndarray, problems.logistic_synthetic(30, 8, seed=1)),
               (sp.csr_matrix, problems.SparseDesign.from_dense(
                   A_sparse, (g.random(30) < 0.5).astype(np.float64)))]
    for kind, design in designs:
        assert isinstance(problems.logistic_operator(design), kind)
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            tracer.begin_job()
            problems.logistic_problem(design, problems.logistic_gamma(design))
            tracer.end_job()
        finally:
            tracer.uninstall()
        job = tracer.jobs[0]
        assert job["problems.matrix.calls"] == 2, kind
        assert job["problems.lambda_max_ata.calls"] == 2, kind


def test_monitored_nmf_run_passes_benchmark_check():
    """``checks.nmf_output`` recomputes the gradient mapping from the last
    record's iterate, which a monitored run must keep."""
    checks = load_perfbench("checks")
    g = np.random.default_rng(7)
    shape = problems.FactorShape(p=12, q=10, r=2)
    A = np.abs(g.standard_normal((12, 3))) @ np.abs(g.standard_normal((10, 3))).T / 3
    x0 = 0.5 * np.abs(g.standard_normal(shape.dim))
    tol = 1e-6
    result = solver.run(problems.nmf_problem(A, shape), x0,
                        solver.SolverConfig(lambda0=1e-2, max_iters=10_000,
                                            gradmap_tol=tol, monitor=True))
    assert result.termination == "tol"
    assert all(r.x is None for r in result.trace.all_records()[:-1])
    assert checks.nmf_output(A, shape.r, x0, tol, result) == []
