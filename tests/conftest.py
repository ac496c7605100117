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
