"""The closed-form kinds of h and the gradient-mapping residual."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, ProxKind, UsageError, Vector, as_point


@dataclass
class Zero(ProxKind):
    """h == 0."""

    def _prox(self, x, t):
        return x.copy()

    def _value(self, x):
        return 0.0


@dataclass
class L1(ProxKind):
    """h(x) = weight * ||x||_1. Soft-threshold ties (|x_i| equal to the
    threshold) output 0; the closed form is continuous there."""

    weight: float

    def __post_init__(self):
        if not 0.0 < self.weight < math.inf:
            raise UsageError(f"L1 weight must be positive and finite, got {self.weight}")

    def _prox(self, x, t):
        return np.sign(x) * np.maximum(np.abs(x) - t * self.weight, 0.0)

    def _value(self, x):
        return self.weight * float(np.sum(np.abs(x)))


@dataclass
class NonnegIndicator(ProxKind):
    """Indicator of the nonnegative orthant."""

    def _prox(self, x, t):
        return np.maximum(x, 0.0)

    def _value(self, x):
        return 0.0 if x.min() >= 0.0 else np.inf  # a NaN minimum is not >= 0


@dataclass(eq=False)
class BoxIndicator(ProxKind):
    """Indicator of the box [lo, hi]; a coordinate with lo_i == hi_i is pinned."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        self.lo = as_point(self.lo)
        self.hi = as_point(self.hi)
        if self.lo.shape != self.hi.shape:
            raise UsageError("box bounds must share a shape")
        if np.any(self.lo > self.hi):
            raise UsageError("box requires lo <= hi componentwise")

    def _prox(self, x, t):
        if x.shape != self.lo.shape:
            raise UsageError("box dimension mismatch")
        return np.clip(x, self.lo, self.hi)

    def _value(self, x):
        ok = np.all(x >= self.lo) and np.all(x <= self.hi)
        return 0.0 if ok else np.inf


@dataclass
class L2Squared(ProxKind):
    """h(x) = (weight / 2) * ||x||^2."""

    weight: float

    def __post_init__(self):
        if not self.weight > 0.0:
            raise UsageError(f"L2Squared weight must be positive, got {self.weight}")

    def _prox(self, x, t):
        return x / (1.0 + t * self.weight)

    def _value(self, x):
        return 0.5 * self.weight * float(np.dot(x, x))


def gradient_mapping(problem: CompositeProblem, x: Vector, eta: float) -> Vector:
    """G_eta(x) = (x - prox_{eta h}(x - eta grad f(x))) / eta.

    Equals grad f(x) when h == 0. Uses raw oracles: a diagnostic evaluation,
    not part of a solver run's counted work.
    """
    if not eta > 0.0:
        raise UsageError(f"eta must be positive, got {eta}")
    x = as_point(x)
    problem.check_point(x)
    g = problem.smooth.gradient(x)
    y = problem.nonsmooth.prox(x - eta * g, eta)
    return (x - y) / eta
