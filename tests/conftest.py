import math

import numpy as np
import pytest

from adaprox.problems import quadratic_problem


def nan_from_call(which: str, first_bad_call: int = 5):
    """A convex quadratic whose fused oracle returns a NaN f (``which="f"``)
    or a NaN gradient (``which="grad"``) from call ``first_bad_call`` on."""
    problem = quadratic_problem([0.5, 1.0, 2.0], seed=1)
    inner = problem.smooth.value_and_gradient
    calls = [0]

    def value_and_gradient(x):
        calls[0] += 1
        f, g = inner(x)
        if calls[0] >= first_bad_call:
            if which == "f":
                f = math.nan
            else:
                g = np.full_like(g, math.nan)
        return f, g

    problem.smooth.value_and_gradient = value_and_gradient
    return problem


@pytest.fixture
def nan_problem():
    return nan_from_call


def replay_iterates(problem, x0, result):
    """The iterates x_0..x_K of a run and their gradients, rebuilt from the
    recorded steps as x_{k+1} = prox_{lam_k h}(x_k - lam_k grad f(x_k)) through
    the problem's own oracle and prox. Asserts, bit for bit, that x_K and its
    gradient are the last record's and that the step from x_K is x_final."""
    recs = result.trace.all_records()
    x = np.asarray(x0, dtype=float)
    xs, gs = [], []
    for r in recs:
        _, g = problem.f_value_gradient(x)
        xs.append(x)
        gs.append(g)
        x = problem.prox_step(x - r.lam * g, r.lam)
    assert xs[-1].tobytes() == recs[-1].x.tobytes()
    assert gs[-1].tobytes() == recs[-1].grad.tobytes()
    assert x.tobytes() == result.x_final.tobytes()
    return xs, gs
