import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaprox import (
    CompositeProblem,
    SmoothOracle,
    UsageError,
    gradient_mapping,
)
from adaprox.prox import L1, BoxIndicator, L2Squared, NonnegIndicator, Zero
from adaprox.problems import lasso_problem, lasso_synthetic, rng

finite_vec = arrays(np.float64, st.integers(1, 6),
                    elements=st.floats(-50, 50, allow_nan=False))


def all_kinds(dim):
    lo = -np.ones(dim)
    hi = np.ones(dim)
    return [Zero(), L1(0.7), NonnegIndicator(), BoxIndicator(lo, hi), L2Squared(2.0)]


def test_prox_soft_threshold():
    assert L1(1.0).prox(np.array([3.0]), 1.0)[0] == 2.0
    # tie: |x| exactly at the threshold goes to zero
    assert L1(1.0).prox(np.array([1.0, -1.0]), 1.0).tolist() == [0.0, 0.0]


def test_prox_nonneg_projection():
    out = NonnegIndicator().prox(np.array([-1.0, 2.0]), 3.0)
    assert out.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("x, expected", [
    ([1.0, -0.0], 0.0),
    ([0.0, np.nan], np.inf),
    ([2.0, -1e-300], np.inf),
], ids=["minus-zero", "nan", "negative"])
def test_nonneg_value_closed_form(x, expected):
    """-0.0 lies in the orthant; a NaN or negative entry does not."""
    assert NonnegIndicator().value(np.array(x)) == expected


def test_prox_l2squared():
    assert L2Squared(2.0).prox(np.array([3.0]), 0.5)[0] == 1.5


def test_prox_zero_identity():
    x = np.array([1.0, -2.0])
    assert np.array_equal(Zero().prox(x, 0.1), x)


def test_prox_box_degenerate_coordinate():
    box = BoxIndicator(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
    out = box.prox(np.array([5.0, -7.0]), 1.0)
    assert out.tolist() == [1.0, 2.0]


def test_prox_rejects_nonpositive_t():
    with pytest.raises(UsageError):
        L1(1.0).prox(np.array([1.0]), 0.0)


def test_box_requires_ordered_bounds():
    with pytest.raises(UsageError):
        BoxIndicator(np.array([1.0]), np.array([0.0]))


@settings(max_examples=200, deadline=None)
@given(x=finite_vec, shift=st.floats(-10, 10, allow_nan=False),
       t=st.floats(1e-3, 10.0))
def test_prox_nonexpansive(x, shift, t):
    y = x + shift * np.linspace(0.3, 1.0, x.size)
    for kind in all_kinds(x.size):
        px, py = kind.prox(x, t), kind.prox(y, t)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_prox_optimality_fuzz():
    gen = rng(3)
    for kind in all_kinds(4):
        for _ in range(5):
            x = 3.0 * gen.standard_normal(4)
            t = float(gen.uniform(0.05, 5.0))
            y = kind.prox(x, t)
            obj_y = kind.value(y) + np.dot(y - x, y - x) / (2 * t)
            for _ in range(200):
                z = 3.0 * gen.standard_normal(4)
                obj_z = kind.value(z) + np.dot(z - x, z - x) / (2 * t)
                assert obj_z >= obj_y - 1e-10


def quadratic_problem_h(kind):
    smooth = SmoothOracle(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x)
    return CompositeProblem(smooth=smooth, nonsmooth=kind)


def test_gradient_mapping_smooth_case_equals_gradient():
    p = quadratic_problem_h(Zero())
    g = gradient_mapping(p, np.array([3.0]), 7.0)
    assert g[0] == pytest.approx(3.0, abs=1e-15)


def test_gradient_mapping_projection_case():
    smooth = SmoothOracle(value=lambda x: 2.0 * x[0], gradient=lambda x: np.full_like(x, 2.0))
    p = CompositeProblem(smooth=smooth, nonsmooth=NonnegIndicator())
    g = gradient_mapping(p, np.array([0.5]), 1.0)
    assert g[0] == 0.5  # prox(0.5 - 2) = 0


def test_gradient_mapping_monotone_in_eta_lasso():
    A, b, w = lasso_synthetic(8, 5, seed=2)
    p = lasso_problem(A, b, w)
    gen = rng(5)
    for _ in range(20):
        x = gen.standard_normal(5)
        e1, e2 = sorted(gen.uniform(0.01, 5.0, size=2))
        g_big = gradient_mapping(p, x, e2)   # eta1 >= eta2
        g_small = gradient_mapping(p, x, e1)
        assert np.linalg.norm(g_big) <= np.linalg.norm(g_small) + 1e-12


@pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
def test_l1_weight_must_be_positive_and_finite(weight):
    with pytest.raises(UsageError, match="L1 weight must be positive and finite"):
        L1(weight)


def test_gradient_mapping_rejects_bad_eta():
    p = quadratic_problem_h(Zero())
    with pytest.raises(UsageError):
        gradient_mapping(p, np.array([1.0]), -1.0)


def test_implied_subgradient_zero_h():
    x_k = np.array([2.0, -1.0])
    grad = np.array([0.5, 0.25])
    lam = 0.8
    x_next = x_k - lam * grad  # prox of Zero is identity
    h = (x_k - x_next) / lam - grad
    assert np.allclose(h, 0.0, atol=1e-15)


def test_implied_subgradient_soft_threshold():
    x_k = np.array([3.0])
    lam = 1.0
    grad = np.array([0.0])
    x_next = L1(1.0).prox(x_k, lam)
    h = (x_k - x_next) / lam - grad
    assert h[0] == pytest.approx(1.0)


def test_implied_subgradient_inequality_lasso():
    A, b, w = lasso_synthetic(10, 4, seed=4)
    p = lasso_problem(A, b, w)
    gen = rng(9)
    x_k = gen.standard_normal(4)
    lam = 0.3
    g = p.smooth.gradient(x_k)
    x_next = p.nonsmooth.prox(x_k - lam * g, lam)
    hp = (x_k - x_next) / lam - g
    h_next = p.h_value(x_next)
    for _ in range(100):
        y = 5.0 * gen.standard_normal(4)
        assert p.h_value(y) >= h_next + float(np.dot(hp, y - x_next)) - 1e-10
