"""Core problem types: smooth/prox oracles, composite objectives, eval counters.

A point is a plain 1-D ``numpy.float64`` array. All arithmetic is double
precision; extended-real values use IEEE ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class UsageError(ValueError):
    """Caller violated an operation's contract (bad shape, bad argument)."""


class NumericalDomainError(ArithmeticError):
    """A numeric oracle produced or received a non-finite value."""


class NonconvexDetected(RuntimeError):
    """A convex-only step engine observed nonconvex secant data."""


class LineSearchFailed(RuntimeError):
    """Backtracking exhausted its halving budget without sufficient decrease."""


def as_point(x) -> Vector:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise UsageError(f"point must be a 1-D vector with n >= 1, got shape {arr.shape}")
    return arr


def check_finite(x: Vector, what: str = "point") -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalDomainError(f"non-finite values in {what}")


@dataclass
class EvalCounters:
    """Oracle-call tallies for one solver run."""

    n_value: int = 0
    n_gradient: int = 0
    n_prox: int = 0

    def reset(self) -> None:
        self.n_value = 0
        self.n_gradient = 0
        self.n_prox = 0


@dataclass
class SmoothOracle:
    """Value/gradient access to the smooth term f.

    ``value_and_gradient`` fuses both evaluations (the solver needs both at
    every iterate; fusing halves oracle work). Give it or ``gradient``: the
    other is derived from the callable given, not looked up on ``self``.
    ``known_L`` is an optional certified Lipschitz constant of the gradient.
    """

    value: Callable[[Vector], float]
    gradient: Optional[Callable[[Vector], Vector]] = None
    value_and_gradient: Optional[Callable[[Vector], tuple]] = None
    known_L: Optional[float] = None

    def __post_init__(self):
        value, gradient, fused = self.value, self.gradient, self.value_and_gradient
        if fused is None:
            if gradient is None:
                raise UsageError("SmoothOracle needs gradient or value_and_gradient")
            self.value_and_gradient = lambda x: (value(x), gradient(x))
        elif gradient is None:
            self.gradient = lambda x: fused(x)[1]


class ProxKind:
    """The convex term h: its value and exact prox map, each in closed form
    (``_value`` and ``_prox``) in a subclass.

    The kinds are not frozen: a profiler may replace ``prox`` on an instance
    with a timed wrapper, as the benchmark's tracer does.
    """

    def prox(self, x: Vector, t: float) -> Vector:
        """Exact minimizer of h(y) + ||y - x||^2 / (2t)."""
        if not t > 0.0:
            raise UsageError(f"prox step length must be positive, got {t}")
        return self._prox(as_point(x), t)

    def value(self, x: Vector) -> float:
        """h(x); +inf outside an indicator's domain."""
        return self._value(as_point(x))


@dataclass
class CompositeProblem:
    """F = f + h with optional known optimum, plus per-run oracle counters."""

    smooth: SmoothOracle
    nonsmooth: ProxKind
    known_fstar: Optional[float] = None
    name: str = ""
    dim: Optional[int] = None
    counters: EvalCounters = field(default_factory=EvalCounters)

    def check_point(self, x: Vector) -> None:
        if self.dim is not None and x.shape != (self.dim,):
            raise UsageError(
                f"dimension mismatch: problem {self.name!r} expects n={self.dim}, got shape {x.shape}"
            )
        check_finite(x)

    # Counted oracle calls. These are the only entry points solvers use, so
    # the counters audit exactly against issued oracle work.

    def f_value(self, x: Vector) -> float:
        self.counters.n_value += 1
        return float(self.smooth.value(x))

    def f_value_gradient(self, x: Vector) -> tuple:
        self.counters.n_value += 1
        self.counters.n_gradient += 1
        v, g = self.smooth.value_and_gradient(x)
        return float(v), g

    def h_value(self, x: Vector) -> float:
        return float(self.nonsmooth.value(x))

    def prox_step(self, x: Vector, t: float) -> Vector:
        if t <= 0.0:
            raise UsageError(f"prox step length must be positive, got {t}")
        self.counters.n_prox += 1
        return self.nonsmooth.prox(x, t)


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
