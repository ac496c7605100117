"""Adaptive proximal-gradient toolkit: curvature-driven step engines, baseline
solvers, built-in composite test problems, and a runtime monitor for the
descent inequalities the engines are proven to maintain."""

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
    rho_total,
    rho_value,
)
from .core import (
    CompositeProblem,
    EvalCounters,
    LineSearchFailed,
    NonconvexDetected,
    NumericalDomainError,
    ProxKind,
    SmoothOracle,
    UsageError,
    composite_value,
    finite_difference_gradient,
)
from .monitor import MonitorReport, monitor_check
from .prox import (
    L1,
    BoxIndicator,
    L2Squared,
    NonnegIndicator,
    Zero,
    gradient_mapping,
)
from .solver import (
    IterationRecord,
    RunResult,
    SolverConfig,
    Trace,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
