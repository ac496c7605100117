import numpy as np
import pytest

from helpers import composite_value, finite_difference_gradient

from adaprox import (
    CompositeProblem,
    NumericalDomainError,
    SmoothOracle,
    UsageError,
)
from adaprox.prox import L1, NonnegIndicator, Zero
from adaprox.problems import logistic_problem, logistic_synthetic


def half_sq_problem():
    smooth = SmoothOracle(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x)
    return CompositeProblem(smooth=smooth, nonsmooth=Zero())


def test_composite_value_quadratic():
    p = half_sq_problem()
    assert composite_value(p, np.array([3.0, 4.0])) == 12.5


def test_composite_value_l1():
    smooth = SmoothOracle(value=lambda x: 0.0, gradient=lambda x: np.zeros_like(x))
    p = CompositeProblem(smooth=smooth, nonsmooth=L1(1.0))
    assert composite_value(p, np.array([-1.0, 2.0])) == 3.0


def test_composite_value_infeasible_indicator():
    smooth = SmoothOracle(value=lambda x: 0.0, gradient=lambda x: np.zeros_like(x))
    p = CompositeProblem(smooth=smooth, nonsmooth=NonnegIndicator())
    assert composite_value(p, np.array([-1.0, 0.0])) == np.inf


def test_composite_value_dimension_mismatch():
    p = half_sq_problem()
    p.dim = 3
    with pytest.raises(UsageError):
        composite_value(p, np.array([1.0, 2.0]))


def test_composite_value_nonfinite_rejected():
    smooth = SmoothOracle(value=lambda x: float("nan"), gradient=lambda x: x)
    p = CompositeProblem(smooth=smooth, nonsmooth=Zero())
    with pytest.raises(NumericalDomainError):
        composite_value(p, np.array([1.0]))


def test_composite_value_counts_and_determinism():
    p = half_sq_problem()
    x = np.array([1.0, -2.0, 0.5])
    v1 = composite_value(p, x)
    v2 = composite_value(p, x)
    assert v1 == v2  # bit-identical on repeat
    assert p.counters.n_value == 2


def test_fd_gradient_linear_case():
    oracle = SmoothOracle(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x)
    g = finite_difference_gradient(oracle, np.array([2.0]), 1e-6)
    assert abs(g[0] - 2.0) <= 1e-9


def test_fd_gradient_constant():
    oracle = SmoothOracle(value=lambda x: 7.0, gradient=lambda x: np.zeros_like(x))
    g = finite_difference_gradient(oracle, np.array([1.0, -3.0]), 1e-5)
    assert np.all(g == 0.0)


def test_fd_gradient_width_bounds():
    oracle = SmoothOracle(value=lambda x: 0.0, gradient=lambda x: x)
    with pytest.raises(UsageError):
        finite_difference_gradient(oracle, np.array([1.0]), 1e-2)
    with pytest.raises(UsageError):
        finite_difference_gradient(oracle, np.array([1.0]), 1e-10)


def test_fd_gradient_matches_logistic_analytic():
    design = logistic_synthetic(5, 3, seed=7)
    p = logistic_problem(design, gamma=0.1)
    gen = np.random.Generator(np.random.Philox(11))
    x = gen.standard_normal(3)
    analytic = p.smooth.gradient(x)
    fd = finite_difference_gradient(p.smooth, x, 1e-6)
    assert np.linalg.norm(analytic - fd) / (1 + np.linalg.norm(analytic)) <= 1e-5


def test_counters_audit_against_wrapper():
    calls = {"v": 0, "g": 0, "p": 0}

    def value(x):
        calls["v"] += 1
        return 0.5 * float(x @ x)

    def gradient(x):
        calls["g"] += 1
        return x

    class CountingZero(Zero):
        def _prox(self, x, t):
            calls["p"] += 1
            return super()._prox(x, t)

    problem = CompositeProblem(
        smooth=SmoothOracle(value=value, gradient=gradient), nonsmooth=CountingZero())
    x = np.ones(4)
    problem.f_value(x)
    problem.f_value_gradient(x)
    problem.prox_step(x, 0.5)
    c = problem.counters
    assert (c.n_value, c.n_gradient, c.n_prox) == (2, 1, 1)
    assert (calls["v"], calls["g"], calls["p"]) == (2, 1, 1)


def test_smooth_oracle_derives_gradient_from_fused():
    with pytest.raises(UsageError):
        SmoothOracle(value=lambda x: 0.0)

    def fused(x):
        return 0.5 * float(x @ x), 2.0 * x

    oracle = SmoothOracle(value=lambda x: 0.5 * float(x @ x), value_and_gradient=fused)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(oracle.gradient(x), oracle.value_and_gradient(x)[1])
    # the derived gradient binds the callable given, not the attribute, so a
    # wrapper installed on one attribute never counts calls made through the other
    calls = []
    oracle.value_and_gradient = lambda x, inner=fused: calls.append(1) or inner(x)
    oracle.gradient(x)
    assert calls == []
