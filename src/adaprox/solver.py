"""Single-loop prox-gradient driver with pluggable step engines."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, List, Optional

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


@dataclass(frozen=True, slots=True)
class Engine:
    """One row of ENGINES: ``step(lam, lam_prev, rho_used, curv, dx, dg, problem,
    x, f, grad)`` gives lambda_k (dg is None without ``curvature``). The flags
    say whether ``run`` estimates the curvature pair (and tests stagnation) and
    rho, whether the monitor covers the engine and whether it needs h = 0."""

    step: Callable[..., float]
    curvature: bool = False
    rho: bool = False
    monitored: bool = False
    smooth_only: bool = False


def _gd_ls_step(lam, lam_prev, rho_used, curv, dx, dg, problem, x, f, grad):
    if float(np.dot(grad, grad)) == 0.0:
        return lam  # stationary for smooth f; the loop stops on tol
    return armijo_search(problem.f_value, x, grad, f_x=f)[0]


#: name -> row. Each rule is called through this module's namespace, so a
#: wrapper set on, say, ``solver.adapgnc_step`` sees every call.
ENGINES = {
    "adapgnc": Engine(lambda lam, lam_prev, rho, curv, *_: adapgnc_step(lam, rho, curv),
                      curvature=True, rho=True, monitored=True),
    "adapgnc-relaxed": Engine(lambda lam, lam_prev, rho, curv, *_: relaxed_step(lam, rho, curv),
                              curvature=True, rho=True, monitored=True),
    "adapgnc-bb": Engine(lambda lam, lam_prev, rho, curv, dx, dg, *_: bb_step(lam, rho, dx, dg),
                         curvature=True, rho=True),
    "adgd": Engine(lambda lam, lam_prev, rho, curv, *_: adgd_step(lam, lam_prev, curv),
                   curvature=True),
    "fixed": Engine(lambda lam, *_: lam),  # lam stays lambda0
    "gd-ls": Engine(_gd_ls_step, smooth_only=True),
}

MONITORED_ENGINES = tuple(name for name, engine in ENGINES.items() if engine.monitored)

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
            raise UsageError(f"unknown engine {self.engine!r}; choose from {tuple(ENGINES)}")
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


@dataclass(slots=True)
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

    def column(self, field: str, dtype=float) -> np.ndarray:
        """The IterationRecord field ``field`` over k = 0..K as an array of
        ``dtype``, read from init and records without copying the list."""
        get = attrgetter(field)
        return np.fromiter(itertools.chain((get(self.init),), map(get, self.records)),
                           dtype, len(self.records) + 1)

    def min_gradmap(self) -> float:
        return float(self.column("gradmap_norm").min())


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
    or a non-finite f_k or ||G_k|| (a failure; that record is not kept, but
    for k = 0, and x_final is its iterate).

    Only the last kept record carries its x and grad. With the monitor on and
    the problem's known_L and known_fstar both set, sum_bound's residuals are
    streamed into the trace. With the monitor on, a known_L or known_fstar
    that the monitor refuses is a UsageError before any oracle call, and so is
    a ``smooth_only`` engine with an h that is not Zero: gd-ls's Armijo test
    on f alone says nothing of F = f + h."""
    config.validate()
    engine = ENGINES[config.engine]
    if engine.smooth_only and not isinstance(problem.nonsmooth, Zero):
        raise UsageError(f"{config.engine} steps on f alone and needs h = 0, "
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
    trace = Trace(problem_name=problem.name, engine=config.engine, lambda0=lam, init=rec,
                  seed=seed)
    best_F, best_x = rec.F_value, x  # no iterate is changed in place; copied once below
    x_rec, grad_rec = x, grad  # the x and grad of the last kept record
    termination = "max_iters"
    # the loop's test of every later record; a non-finite k = 0 step keeps its
    # record, which a trace needs, and ends the run on x_final = x0
    finite = math.isfinite(rec.f_value) and math.isfinite(rec.gradmap_norm)
    if not finite:
        termination, x = "non_finite", x.copy()

    for k in (itertools.count(1) if finite else ()):
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
        if engine.curvature and degenerate(nd, x):
            termination = "stagnation"
            break
        f_prev, grad_prev = f, grad
        f, grad = problem.f_value_gradient(x)

        curv, rho_used, dg = _NO_CURVATURE, math.nan, None
        if engine.curvature:
            dg = grad - grad_prev
            curv = estimate_curvature(dx, nd, dg, grad, f_prev, f, lam)
        if engine.rho:
            rho_used = rho_value(config.rho, k - 1, lambda_ratio=lam / lam_prev)
        lam_prev, lam = lam, engine.step(lam, lam_prev, rho_used, curv, dx, dg,
                                         problem, x, f, grad)

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

