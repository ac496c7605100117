"""Single-loop prox-gradient driver with pluggable step engines."""

from __future__ import annotations

import itertools
import math
import struct
import time
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
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
from .problems import check_seed
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


@dataclass(frozen=True, slots=True, eq=False)
class IterationRecord:
    """One row of a trace as an object, built from the row on access; k is
    the row's position.

    Two records are equal when their k, their scalar fields bit for bit
    (their packed rows: a NaN equals itself, -0.0 is not 0.0) and their x
    and grad, as arrays, are; the hash is that of k and the packed row."""

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
    residual_sq: float = math.nan
    # set on the last kept record only; kept because the benchmark's checks read them
    x: Optional[Vector] = None
    grad: Optional[Vector] = None

    def _bits(self) -> tuple:
        """k and the packed row: the scalar fields bit for bit."""
        return self.k, _ROW.pack(*_ROW_FIELDS(self))

    def __eq__(self, other):
        if type(other) is not IterationRecord:
            return NotImplemented
        return (self._bits() == other._bits() and _same_array(self.x, other.x)
                and _same_array(self.grad, other.grad))

    def __hash__(self):
        return hash(self._bits())


def _same_array(a: Optional[Vector], b: Optional[Vector]) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


#: The trace columns: one 96-byte row per record, a field per IterationRecord
#: field but k (the row's position), x and grad, in the record's order. Each
#: field's name is also its column's key in a trace file.
TRACE_DTYPE = np.dtype([
    ("f_value", "<f8"), ("F_value", "<f8"), ("gradmap_norm", "<f8"), ("lam", "<f8"),
    ("L_k", "<f8"), ("l_k", "<f8"), ("rho_used", "<f8"), ("elapsed_seconds", "<f8"),
    ("n_value", "<i8"), ("n_gradient", "<i8"), ("n_prox", "<i8"), ("residual_sq", "<f8"),
])

#: The packer of one row, in TRACE_DTYPE's layout.
_ROW = struct.Struct("<" + "".join("q" if TRACE_DTYPE[f].kind == "i" else "d"
                                   for f in TRACE_DTYPE.names))

_ROW_FIELDS = attrgetter(*TRACE_DTYPE.names)


def _row_of(k: int, rec: IterationRecord) -> tuple:
    """The row of ``rec`` at position k; a record whose k is not k is a UsageError."""
    if rec.k != k:
        raise UsageError(f"record k={rec.k} cannot be the trace's record {k}")
    return _ROW_FIELDS(rec)


class TraceRecords(Sequence):
    """A trace's records k = 1..K, each built from its row on access.
    Assigning a record writes its scalar fields into that row; a record
    whose k is not its position is a UsageError."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.iterations

    def __getitem__(self, i):
        k = range(1, len(self._trace.rows))[i]  # an IndexError past either end
        return list(map(self._trace._record, k)) if isinstance(i, slice) else self._trace._record(k)

    def __setitem__(self, i: int, rec: IterationRecord) -> None:
        k = range(1, len(self._trace.rows))[i]
        self._trace.rows[k] = _row_of(k, rec)


@dataclass(eq=False)
class Trace:
    """One run's trace: ``rows``, a structured array of TRACE_DTYPE with one
    96-byte row per record, k = 0 (the lambda0 prox step from x0) to K.
    The solver, the monitor and trace files all read it, a column at a time.

    ``init``, ``records`` and ``all_records()`` are views built on access:
    IterationRecords made from the rows, the last one carrying ``last_x``
    and ``last_grad``, the iterate and gradient of the last kept record. A
    list of records given as ``records``, the kth of them record k, replaces
    rows 1..K in a copy of ``rows``; so ``dataclasses.replace`` gives a
    trace with rows of its own.

    The ``residual_sq`` column holds sum_bound's squared residual at each
    record k >= 1. Its row 0 says whether ``run`` computed the residuals:
    0.0, the empty sum, if it did and NaN if not, in which case the other
    rows are NaN too."""

    problem_name: str
    engine: str
    lambda0: float
    rows: np.ndarray = field(repr=False)
    termination: str = ""
    seed: Optional[int] = None
    last_x: Optional[Vector] = field(default=None, repr=False)
    last_grad: Optional[Vector] = field(default=None, repr=False)
    records: InitVar[Optional[Sequence[IterationRecord]]] = None

    def __post_init__(self, records):
        if records is not None:
            given = np.array(list(map(_row_of, itertools.count(1), records)), TRACE_DTYPE)
            self.rows = np.concatenate((self.rows[:1], given))

    @property
    def iterations(self) -> int:
        """K, the number of records after k = 0."""
        return len(self.rows) - 1

    def _record(self, k: int) -> IterationRecord:
        """Record k, built from its row; the last also carries x and grad."""
        if k == self.iterations:
            return IterationRecord(k, *self.rows[k].item(), self.last_x, self.last_grad)
        return IterationRecord(k, *self.rows[k].item())

    @property
    def init(self) -> IterationRecord:
        return self._record(0)

    def all_records(self) -> List[IterationRecord]:
        return list(map(self._record, range(len(self.rows))))

    def column(self, field: str) -> np.ndarray:
        """The IterationRecord field ``field`` over k = 0..K: a view of the
        rows, in the field's dtype."""
        return self.rows[field]

    def min_gradmap(self) -> float:
        return float(self.column("gradmap_norm").min())


# after the class body, so that the dataclass takes None as the InitVar's default
Trace.records = property(TraceRecords, doc="The records k = 1..K, a view of the rows.")


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


def _prox_step_row(problem: CompositeProblem, x: Vector, f: float, grad: Vector,
                   lam: float, curv: CurvaturePair, rho_used: float, elapsed: float,
                   residual_sq: float):
    """x_next = prox_{lam h}(x - lam grad) and the row of iterate x, with
    G = (x - x_next)/lam. Returns (x_next, dx, ||dx||, F, G, row) where
    dx = x_next - x and row is the packed TRACE_DTYPE row."""
    x_next = problem.prox_step(x - lam * grad, lam)
    dx = x_next - x
    nd = math.sqrt(dx.dot(dx))  # np.linalg.norm's own formula, without its overhead
    F, G = f + problem.h_value(x), nd / lam
    c = problem.counters
    row = _ROW.pack(f, F, G, lam, curv.L_k, curv.l_k, rho_used, elapsed,
                    c.n_value, c.n_gradient, c.n_prox, residual_sq)
    return x_next, dx, nd, F, G, row


def run(problem: CompositeProblem, x0: Vector, config: SolverConfig,
        seed: Optional[int] = None) -> RunResult:
    """Take the lambda0 prox step from x0 (record k = 0), then one engine step
    per iteration until the first of: gradient-mapping tolerance, iteration
    cap, wall-clock budget, stagnation (a fixed point, reported as success),
    or a non-finite f_k or ||G_k|| (a failure; that record is not kept, but
    for k = 0, and x_final is its iterate).

    Each kept record is packed into one TRACE_DTYPE row as it is made; only
    the last kept record's x and grad are kept. With the monitor on and
    the problem's known_L and known_fstar both set, each kept step also gives
    sum_bound's squared residual ||grad f(x_k) + h'_k||^2 = ||dg - dx/lam_{k-1}||^2
    in expanded form: ||dg||^2 = (L_k ||dx||)^2 from the curvature pair and one
    dot <dg, dx>, so no vector is held for the monitor. It goes in the row's
    residual_sq, whose row 0 is then 0.0 (NaN in every row otherwise).
    A negative or non-integer seed is a UsageError before any oracle call,
    and the trace holds it as a Python int. With the monitor on, a known_L
    or known_fstar that the monitor refuses is a UsageError before any oracle
    call, and so is a ``smooth_only`` engine with an h that is not Zero:
    gd-ls's Armijo test on f alone says nothing of F = f + h."""
    config.validate()
    engine = ENGINES[config.engine]
    if engine.smooth_only and not isinstance(problem.nonsmooth, Zero):
        raise UsageError(f"{config.engine} steps on f alone and needs h = 0, "
                         f"got {type(problem.nonsmooth).__name__}")
    seed = None if seed is None else check_seed(seed)
    residuals = False  # whether the monitor checks sum_bound
    if config.monitor:
        from .monitor import monitor_constants

        # refuse a bad known_L or known_fstar before any oracle call
        known_L, fstar = monitor_constants(problem)
        residuals = known_L is not None and fstar is not None
    problem.counters.reset()
    t0 = time.perf_counter()

    x = as_point(x0)
    problem.check_point(x)
    f, grad = problem.f_value_gradient(x)
    if not (np.isfinite(f) and np.all(np.isfinite(grad))):
        raise NumericalDomainError("non-finite f or grad f at x0")
    # lam, lam_prev: lambda_{k-1}, lambda_{k-2}; lambda_{-1} = lambda_0 convention
    lam = lam_prev = config.lambda0
    x_next, dx_next, nd, F, G, row = _prox_step_row(
        problem, x, f, grad, lam, _NO_CURVATURE, math.nan, 0.0,
        0.0 if residuals else math.nan)  # row 0: the empty sum, or NaN
    r_sq = math.nan  # every later row's residual_sq when none is computed
    rows = bytearray(row)  # the kept records' rows, packed end to end
    best_F, best_x = F, x  # no iterate is changed in place; copied once below
    x_rec, grad_rec = x, grad  # the x and grad of the last kept record
    termination = "max_iters"
    # the loop's test of every later record; a non-finite k = 0 step keeps its
    # record, which a trace needs, and ends the run on x_final = x0
    finite = math.isfinite(f) and math.isfinite(G)
    if not finite:
        termination, x = "non_finite", x.copy()

    for k in (itertools.count(1) if finite else ()):
        # x_k and x_k - x_{k-1}, the prox step of the kept record k - 1
        x, dx = x_next, dx_next
        if G <= config.gradmap_tol:
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
        if residuals:  # every monitored engine estimates curvature
            t = nd / lam_prev
            r_sq = (curv.L_k * nd) ** 2 - 2.0 * float(dg.dot(dx)) / lam_prev + t * t
            r_sq = max(r_sq, 0.0)  # a rounded-below-0 square is 0

        x_next, dx_next, nd, F, G, row = _prox_step_row(problem, x, f, grad, lam, curv,
                                                        rho_used, elapsed, r_sq)
        if not (math.isfinite(f) and math.isfinite(G)):
            termination = "non_finite"
            break
        rows += row
        x_rec, grad_rec = x, grad
        if F < best_F:
            best_F, best_x = F, x

    # an exact-size copy: the buffer's growth slack would stay with the trace
    trace = Trace(problem_name=problem.name, engine=config.engine, lambda0=config.lambda0,
                  rows=np.frombuffer(rows, TRACE_DTYPE).copy(), termination=termination,
                  seed=seed, last_x=x_rec.copy(), last_grad=grad_rec.copy())
    del rows  # not held through the monitor's replay
    result = RunResult(trace=trace, best=best_x.copy(), best_F=best_F, x_final=x)
    if config.monitor:
        from .adaptive import rho_total
        from .monitor import monitor_check

        result.report = monitor_check(trace, problem, rho_total(config.rho))
    return result

