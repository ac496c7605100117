"""Single-loop prox-gradient driver with pluggable step engines."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .adaptive import (
    CurvaturePair,
    RhoSequence,
    StepState,
    adapgnc_step,
    adgd_step,
    armijo_search,
    bb_step,
    displacement,
    estimate_curvature,
    relaxed_step,
    rho_value,
)
from .core import (
    CompositeProblem,
    DegenerateStep,
    NumericalDomainError,
    UsageError,
    Vector,
    as_point,
)

ENGINES = ("adapgnc", "adapgnc-relaxed", "adapgnc-bb", "adgd", "fixed", "gd-ls")

#: Engines whose traces the theory monitor covers.
MONITORED_ENGINES = ("adapgnc", "adapgnc-relaxed")

_CURVATURE_ENGINES = ("adapgnc", "adapgnc-relaxed", "adapgnc-bb", "adgd")
_RHO_ENGINES = ("adapgnc", "adapgnc-relaxed", "adapgnc-bb")

TERMINATIONS = ("tol", "max_iters", "max_seconds", "stagnation", "non_finite")


@dataclass
class SolverConfig:
    engine: str = "adapgnc"
    rho: RhoSequence = field(default_factory=RhoSequence.rho2)
    lambda0: float = 1.0
    max_iters: int = 1000
    max_seconds: float = math.inf
    gradmap_tol: float = 0.0
    monitor: bool = False
    keep_iterates: bool = False

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise UsageError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if not 0.0 < self.lambda0 < math.inf:
            raise UsageError("lambda0 must be positive and finite")
        if self.max_iters < 0:
            raise UsageError("max_iters must be nonnegative")
        if not self.max_seconds > 0.0:
            raise UsageError("max_seconds must be positive")
        if self.gradmap_tol < 0.0:
            raise UsageError("gradmap_tol must be nonnegative")


@dataclass
class IterationRecord:
    k: int
    f_value: float
    F_value: float
    gradmap_norm: float
    lam: float
    L_k: float
    l_k: float
    rho_used: float
    elapsed_seconds: float
    n_value: int
    n_gradient: int
    n_prox: int
    x: Optional[Vector] = None
    grad: Optional[Vector] = None


@dataclass
class Trace:
    """Initialization record (k=0) plus one record per loop iteration."""

    problem_name: str
    engine: Optional[str]  # None for a trace read back from CSV, which names none
    lambda0: float
    init: IterationRecord
    records: List[IterationRecord] = field(default_factory=list)
    termination: str = ""
    seed: Optional[int] = None

    def all_records(self) -> List[IterationRecord]:
        return [self.init] + list(self.records)

    def min_gradmap(self) -> float:
        return min(r.gradmap_norm for r in self.all_records())


@dataclass
class RunResult:
    trace: Trace
    best: Vector
    best_F: float
    x_final: Vector
    report: Optional["MonitorReport"] = None  # noqa: F821 - set when monitor on

    @property
    def termination(self) -> str:
        return self.trace.termination


_NO_CURVATURE = CurvaturePair(math.nan, math.nan)


def _prox_step_record(problem: CompositeProblem, k: int, x: Vector, f: float,
                      grad: Vector, lam: float, curv: CurvaturePair,
                      rho_used: float, elapsed: float, keep: bool):
    """x_next = prox_{lam h}(x - lam grad) and the record of iterate k, with
    G_k = (x - x_next)/lam. Returns (x_next, record)."""
    x_next = problem.prox_step(x - lam * grad, lam)
    c = problem.counters
    rec = IterationRecord(
        k=k, f_value=f, F_value=f + problem.h_value(x),
        gradmap_norm=float(np.linalg.norm(x_next - x)) / lam, lam=lam,
        L_k=curv.L_k, l_k=curv.l_k, rho_used=rho_used, elapsed_seconds=elapsed,
        n_value=c.n_value, n_gradient=c.n_gradient, n_prox=c.n_prox,
        x=x.copy() if keep else None, grad=grad.copy() if keep else None,
    )
    return x_next, rec


def init_first_step(problem: CompositeProblem, x0: Vector, lambda0: float,
                    keep: bool = False):
    """x1 = prox_{lambda0 h}(x0 - lambda0 grad f(x0)); records G_0 = (x0 - x1)/lambda0."""
    if not 0.0 < lambda0 < math.inf:
        raise UsageError("lambda0 must be positive and finite")
    x0 = as_point(x0)
    problem.check_point(x0)
    f0, g0 = problem.f_value_gradient(x0)
    if not (np.isfinite(f0) and np.all(np.isfinite(g0))):
        raise NumericalDomainError("non-finite f or grad f at x0")
    x1, rec = _prox_step_record(problem, 0, x0, f0, g0, lambda0, _NO_CURVATURE,
                                math.nan, 0.0, keep)
    return x1, (f0, g0), rec


def iterate(problem: CompositeProblem, state: StepState, config: SolverConfig,
            elapsed: float, keep: bool = False):
    """One engine step from the current window: curvature estimate, step-size
    rule, prox-gradient update. Returns (x_next, lambda_k, record)."""
    x_cur, grad_cur, f_cur = state.x_cur, state.grad_cur, state.f_cur
    k = state.k

    curv = _NO_CURVATURE
    if config.engine in _CURVATURE_ENGINES:
        curv = estimate_curvature(state)

    rho_used = math.nan
    if config.engine in _RHO_ENGINES:
        rho_used = rho_value(
            config.rho, k - 1,
            lambda_ratio=state.lambda_prev / state.lambda_prevprev,
        )

    if config.engine == "adapgnc":
        lam = adapgnc_step(state.lambda_prev, rho_used, curv)
    elif config.engine == "adapgnc-relaxed":
        lam = relaxed_step(state.lambda_prev, rho_used, curv)
    elif config.engine == "adapgnc-bb":
        lam = bb_step(state.lambda_prev, rho_used, state.dx, grad_cur - state.grad_prev)
    elif config.engine == "adgd":
        lam = adgd_step(state.lambda_prev, state.lambda_prevprev, curv)
    elif config.engine == "fixed":
        lam = config.lambda0
    else:  # gd-ls
        if float(np.dot(grad_cur, grad_cur)) == 0.0:
            lam = state.lambda_prev  # stationary for smooth f; loop stops on tol
        else:
            lam, _ = armijo_search(problem.f_value, x_cur, grad_cur, f_x=f_cur)

    x_next, rec = _prox_step_record(problem, k, x_cur, f_cur, grad_cur, lam, curv,
                                    rho_used, elapsed, keep)
    return x_next, lam, rec


def run(problem: CompositeProblem, x0: Vector, config: SolverConfig,
        seed: Optional[int] = None) -> RunResult:
    """Drive the loop to the first of: gradient-mapping tolerance, iteration
    cap, wall-clock budget, stagnation (a fixed point, reported as success),
    or a non-finite f_k or ||G_k|| (a failure; that record is not kept)."""
    config.validate()
    keep = config.keep_iterates or config.monitor
    problem.counters.reset()
    t0 = time.perf_counter()

    x1, (f0, g0), rec0 = init_first_step(problem, x0, config.lambda0, keep=keep)
    trace = Trace(problem_name=problem.name, engine=config.engine,
                  lambda0=config.lambda0, init=rec0, seed=seed)

    best_F, best_x = rec0.F_value, as_point(x0).copy()
    termination = "max_iters"

    x_prev = as_point(x0)
    x_cur = x1
    f_prev, grad_prev = f0, g0
    lambda_prev = config.lambda0
    lambda_prevprev = config.lambda0  # lambda_{-1} = lambda_0 convention

    if rec0.gradmap_norm <= config.gradmap_tol:
        termination = "tol"
    else:
        for k in range(1, config.max_iters + 1):
            elapsed = time.perf_counter() - t0
            if elapsed >= config.max_seconds:
                termination = "max_seconds"
                break
            dx = nd = None
            if config.engine in _CURVATURE_ENGINES:
                # the one stagnation test: it runs before the gradient
                # evaluation, keeping n_gradient = iterations + 1 exact
                try:
                    dx, nd = displacement(x_prev, x_cur)
                except DegenerateStep:
                    termination = "stagnation"
                    break
            f_cur, grad_cur = problem.f_value_gradient(x_cur)
            state = StepState(k=k, x_cur=x_cur, dx=dx, nd=nd,
                              grad_prev=grad_prev, grad_cur=grad_cur,
                              f_prev=f_prev, f_cur=f_cur,
                              lambda_prev=lambda_prev,
                              lambda_prevprev=lambda_prevprev)
            x_next, lam, rec = iterate(problem, state, config, elapsed, keep=keep)
            if not (math.isfinite(rec.f_value) and math.isfinite(rec.gradmap_norm)):
                termination = "non_finite"
                break
            trace.records.append(rec)
            if rec.F_value < best_F:
                best_F, best_x = rec.F_value, x_cur.copy()
            if rec.gradmap_norm <= config.gradmap_tol:
                termination = "tol"
                x_cur = x_next
                break
            x_prev, x_cur = x_cur, x_next
            f_prev, grad_prev = f_cur, grad_cur
            lambda_prevprev, lambda_prev = lambda_prev, lam

    trace.termination = termination
    result = RunResult(trace=trace, best=best_x, best_F=best_F, x_final=x_cur)
    if config.monitor:
        from .adaptive import rho_total
        from .monitor import monitor_check

        result.report = monitor_check(trace, problem, rho_total(config.rho))
    return result


def ergodic_average(trace: Trace) -> Vector:
    """Step-size weighted mean of the retained iterates x_1..x_k."""
    recs = [r for r in trace.records if r.x is not None]
    if not recs:
        raise UsageError("ergodic_average needs a nonempty trace with retained iterates")
    acc = np.zeros_like(recs[0].x)
    wsum = 0.0
    for r in recs:
        acc += r.lam * r.x
        wsum += r.lam
    return acc / wsum
