"""Test-side helpers: the composite value F = f + h at a point, the
central-difference gradient the oracle tests check gradients against, and a
trace built from hand-written records. The solver reaches none of them; it
evaluates F through its own counted oracle calls."""

import numpy as np

from adaprox.core import (
    CompositeProblem,
    NumericalDomainError,
    SmoothOracle,
    UsageError,
    Vector,
    as_point,
    check_finite,
)
from adaprox.solver import TRACE_DTYPE, IterationRecord, Trace


def composite_value(problem: CompositeProblem, x: Vector) -> float:
    """F(x) = f(x) + h(x), possibly +inf outside dom h. Increments n_value."""
    x = as_point(x)
    problem.check_point(x)
    fx = problem.f_value(x)
    if not np.isfinite(fx):
        raise NumericalDomainError(f"smooth value non-finite at x (problem {problem.name!r})")
    return fx + problem.h_value(x)


def finite_difference_gradient(oracle: SmoothOracle, x: Vector, h: float) -> Vector:
    """Central-difference gradient, the independent check oracle for gradients.

    Coordinate i gets (f(x + h e_i) - f(x - h e_i)) / (2h).
    """
    if not 1e-9 <= h <= 1e-3:
        raise UsageError(f"finite-difference width must lie in [1e-9, 1e-3], got {h}")
    x = as_point(x)
    check_finite(x)
    g = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        xi = x[i]
        probe[i] = xi + h
        fp = oracle.value(probe)
        probe[i] = xi - h
        fm = oracle.value(probe)
        probe[i] = xi
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalDomainError(f"non-finite probe value at coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def trace_of(records: list[IterationRecord], **fields) -> Trace:
    """A Trace whose rows hold ``records``, k = 0 first; problem "t", engine
    adapgnc and lambda0 record 0's lam, unless ``fields`` give them."""
    fields = {"problem_name": "t", "engine": "adapgnc", "lambda0": records[0].lam, **fields}
    rows = np.array([tuple(getattr(r, f) for f in TRACE_DTYPE.names) for r in records],
                    TRACE_DTYPE)
    return Trace(rows=rows, **fields)
