"""Test-side helpers: the composite value F = f + h at a point, the
central-difference gradient the oracle tests check gradients against, a
trace built from hand-written records, a reader and writer of a trace
file's lines as one JSON payload, and the h = (weight/2)||x||^2 kind of h.
The solver reaches none of them; it evaluates F through its own counted
oracle calls."""

import json
from dataclasses import dataclass

import numpy as np

from adaprox.core import (
    CompositeProblem,
    NumericalDomainError,
    ProxKind,
    SmoothOracle,
    UsageError,
    Vector,
    as_point,
    check_finite,
)
from adaprox.harness import _reject_constant
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


def read_payload(path) -> dict:
    """A trace file's lines, each parsed as strict JSON, as one payload:
    {"metadata": {...}, "columns": {field: base64 string, ...}}, the columns
    in the file's order."""
    with open(path) as fh:
        meta, *columns = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    return {"metadata": meta["metadata"],
            "columns": {c: text for line in columns for c, text in line.items()}}


def write_payload(path, payload: dict) -> None:
    """Write a payload in a trace file's line layout: a line {key: value}
    for each key of the payload in its order, but for "columns", whose
    entries each get a line {field: value}. json.dumps writes NaN and the
    infinities as the bare tokens strict JSON lacks."""
    with open(path, "w") as fh:
        for key, value in payload.items():
            lines = value.items() if key == "columns" else [(key, value)]
            for k, v in lines:
                fh.write(json.dumps({k: v}) + "\n")


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
