"""Single-loop prox-gradient driver with pluggable step engines."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .adaptive import (
    CurvaturePair,
    RhoSequence,
    adapgnc_step,
    adgd_step,
    armijo_search,
    bb_step,
    degenerate,
    estimate_curvature,
    relaxed_step,
    rho_value,
)
from .core import (
    CompositeProblem,
    NumericalDomainError,
    UsageError,
    Vector,
    as_point,
)
from .prox import Zero

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

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise UsageError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.monitor and self.engine not in MONITORED_ENGINES:
            raise UsageError(
                f"monitor covers engines {MONITORED_ENGINES}, got {self.engine!r}")
        if not 0.0 < self.lambda0 < math.inf:
            raise UsageError("lambda0 must be positive and finite")
        if self.max_iters < 0:
            raise UsageError("max_iters must be nonnegative")
        if not self.max_seconds > 0.0:
            raise UsageError("max_seconds must be positive")
        if not self.gradmap_tol >= 0.0:
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
    # set on the last kept record only; kept because the benchmark's checks read them
    x: Optional[Vector] = None
    grad: Optional[Vector] = None


@dataclass
class Trace:
    """Initialization record (k=0) plus one record per loop iteration.

    ``residual_sq[k-1]`` is sum_bound's squared residual at record k, streamed
    by ``run`` when the monitor checks sum_bound; it is not persisted."""

    problem_name: str
    engine: str
    lambda0: float
    init: IterationRecord
    records: List[IterationRecord] = field(default_factory=list)
    termination: str = ""
    seed: Optional[int] = None
    residual_sq: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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
                      rho_used: float, elapsed: float):
    """x_next = prox_{lam h}(x - lam grad) and the record of iterate k, with
    G_k = (x - x_next)/lam. Returns (x_next, dx, ||dx||, record) where
    dx = x_next - x."""
    x_next = problem.prox_step(x - lam * grad, lam)
    dx = x_next - x
    nd = math.sqrt(dx.dot(dx))  # np.linalg.norm's own formula, without its overhead
    c = problem.counters
    rec = IterationRecord(
        k=k, f_value=f, F_value=f + problem.h_value(x),
        gradmap_norm=nd / lam, lam=lam,
        L_k=curv.L_k, l_k=curv.l_k, rho_used=rho_used, elapsed_seconds=elapsed,
        n_value=c.n_value, n_gradient=c.n_gradient, n_prox=c.n_prox,
    )
    return x_next, dx, nd, rec


def run(problem: CompositeProblem, x0: Vector, config: SolverConfig,
        seed: Optional[int] = None) -> RunResult:
    """Take the lambda0 prox step from x0 (record k = 0), then one engine step
    per iteration until the first of: gradient-mapping tolerance, iteration
    cap, wall-clock budget, stagnation (a fixed point, reported as success),
    or a non-finite f_k or ||G_k|| (a failure; that record is not kept, and
    x_final is its iterate).

    Only the last kept record carries its x and grad. With the monitor on and
    the problem's known_L and known_fstar both set, sum_bound's residuals are
    streamed into the trace. With the monitor on, a known_L or known_fstar
    that the monitor refuses is a UsageError before any oracle call, and so is
    gd-ls with an h that is not Zero: its Armijo test on f alone says nothing
    of F = f + h."""
    config.validate()
    engine = config.engine
    if engine == "gd-ls" and not isinstance(problem.nonsmooth, Zero):
        raise UsageError("gd-ls backtracks on f alone and needs h = 0, "
                         f"got {type(problem.nonsmooth).__name__}")
    residuals = None
    if config.monitor:
        from .monitor import monitor_constants, squared_residual

        # refuse a bad known_L or known_fstar before any oracle call
        known_L, fstar = monitor_constants(problem)
        if known_L is not None and fstar is not None:
            residuals = []
    problem.counters.reset()
    t0 = time.perf_counter()

    x = as_point(x0)
    problem.check_point(x)
    f, grad = problem.f_value_gradient(x)
    if not (np.isfinite(f) and np.all(np.isfinite(grad))):
        raise NumericalDomainError("non-finite f or grad f at x0")
    # lam, lam_prev: lambda_{k-1}, lambda_{k-2}; lambda_{-1} = lambda_0 convention
    lam = lam_prev = config.lambda0
    x_next, dx, nd, rec = _prox_step_record(problem, 0, x, f, grad, lam, _NO_CURVATURE,
                                            math.nan, 0.0)
    trace = Trace(problem_name=problem.name, engine=engine, lambda0=lam, init=rec,
                  seed=seed)
    best_F, best_x = rec.F_value, x  # no iterate is changed in place; copied once below
    x_rec, grad_rec = x, grad  # the x and grad of the last kept record
    termination = "max_iters"

    for k in itertools.count(1):
        x_prev, x = x, x_next  # x_k, the prox step of the kept record k - 1
        if rec.gradmap_norm <= config.gradmap_tol:
            termination = "tol"
            break
        if k > config.max_iters:
            break
        elapsed = time.perf_counter() - t0
        if elapsed >= config.max_seconds:
            termination = "max_seconds"
            break
        # the one stagnation test: it runs before the gradient evaluation,
        # keeping n_gradient = iterations + 1 exact
        if engine in _CURVATURE_ENGINES and degenerate(nd, x):
            termination = "stagnation"
            break
        f_prev, grad_prev = f, grad
        f, grad = problem.f_value_gradient(x)

        curv, rho_used = _NO_CURVATURE, math.nan
        if engine in _CURVATURE_ENGINES:
            dg = grad - grad_prev
            curv = estimate_curvature(dx, nd, dg, grad, f_prev, f, lam)
        if engine in _RHO_ENGINES:
            rho_used = rho_value(config.rho, k - 1, lambda_ratio=lam / lam_prev)

        if engine == "adapgnc":
            step = adapgnc_step(lam, rho_used, curv)
        elif engine == "adapgnc-relaxed":
            step = relaxed_step(lam, rho_used, curv)
        elif engine == "adapgnc-bb":
            step = bb_step(lam, rho_used, dx, dg)
        elif engine == "adgd":
            step = adgd_step(lam, lam_prev, curv)
        elif engine == "fixed":
            step = config.lambda0
        elif float(np.dot(grad, grad)) == 0.0:
            step = lam  # gd-ls, stationary for smooth f; the loop stops on tol
        else:
            step, _ = armijo_search(problem.f_value, x, grad, f_x=f)
        lam_prev, lam = lam, step

        x_next, dx, nd, rec = _prox_step_record(problem, k, x, f, grad, lam, curv,
                                                rho_used, elapsed)
        if not (math.isfinite(rec.f_value) and math.isfinite(rec.gradmap_norm)):
            termination = "non_finite"
            break
        trace.records.append(rec)
        x_rec, grad_rec = x, grad
        if residuals is not None:
            residuals.append(squared_residual(x_prev, x, lam_prev, grad_prev, grad))
        if rec.F_value < best_F:
            best_F, best_x = rec.F_value, x

    last = trace.records[-1] if trace.records else trace.init
    last.x, last.grad = x_rec.copy(), grad_rec.copy()
    if residuals is not None:
        trace.residual_sq = np.array(residuals)
    trace.termination = termination
    result = RunResult(trace=trace, best=best_x.copy(), best_F=best_F, x_final=x)
    if config.monitor:
        from .adaptive import rho_total
        from .monitor import monitor_check

        result.report = monitor_check(trace, problem, rho_total(config.rho))
    return result

