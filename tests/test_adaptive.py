import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaprox import (
    CurvaturePair,
    LineSearchFailed,
    NonconvexDetected,
    RhoSequence,
    SmoothOracle,
    UsageError,
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


def quadratic_state(a, x_prev, x_cur, lambda_prev=1.0):
    """estimate_curvature's keyword arguments for f = a/2 x^2 in 1-D, grad = a x."""
    xp, xc = np.array([x_prev]), np.array([x_cur])
    dx = xc - xp
    return dict(dx=dx, nd=float(np.linalg.norm(dx)), dg=a * xc - a * xp,
                grad_cur=a * xc, f_prev=0.5 * a * x_prev**2,
                f_cur=0.5 * a * x_cur**2, lambda_prev=lambda_prev)


class TestCurvature:
    def test_convex_quadratic(self):
        curv = estimate_curvature(**quadratic_state(1.0, 2.0, 1.0))
        assert curv.L_k == pytest.approx(1.0)
        assert curv.l_k == pytest.approx(-1.0)

    def test_concave_quadratic(self):
        curv = estimate_curvature(**quadratic_state(-1.0, 2.0, 1.0))
        assert curv.L_k == pytest.approx(1.0)
        assert curv.l_k == pytest.approx(1.0)

    def test_degenerate(self):
        assert degenerate(0.0, np.array([2.0]))
        # the threshold is relative: 1e-15 (1 + ||x_cur||)
        assert not degenerate(2e-15, np.array([2e-15]))
        assert degenerate(1e-13, np.array([1e3 + 1e-13]))

    def test_cancellation_snaps_to_convex_branch(self):
        s = quadratic_state(1.0, 2.0, 1.0)
        s["f_cur"] = s["f_prev"] - float(np.dot(s["grad_cur"], -s["dx"])) + 1e-16
        curv = estimate_curvature(**s)
        assert curv.l_k == 0.0


class TestBranchRule:
    def test_convex_branch(self):
        assert adapgnc_step(1.0, 0.0, CurvaturePair(1.0, -1.0)) == 1.0

    def test_nonconvex_branch(self):
        lam = adapgnc_step(1.0, 0.0, CurvaturePair(1.0, 0.5))
        assert lam == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-16)

    def test_growth_cap_binds(self):
        assert adapgnc_step(0.1, 3.0, CurvaturePair(2.0, 1.0)) == pytest.approx(0.2)

    def test_zero_curvature_gives_cap(self):
        assert adapgnc_step(0.5, 3.0, CurvaturePair(0.0, -1.0)) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            adapgnc_step(-1.0, 0.0, CurvaturePair(1.0, 0.0))
        with pytest.raises(UsageError):
            adapgnc_step(1.0, math.inf, CurvaturePair(1.0, 0.0))


class TestRelaxedRule:
    def test_positive_part_vanishes(self):
        assert relaxed_step(1.0, 0.0, CurvaturePair(1.0, -1.0)) == 1.0

    def test_nonconvex(self):
        assert relaxed_step(1.0, 0.0, CurvaturePair(1.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2.0))

    def test_partial_cancellation(self):
        assert relaxed_step(1.0, 0.0, CurvaturePair(2.0, -3.0)) == 1.0


class TestBBRule:
    def test_quadratic_bb_term(self):
        dx = np.array([0.3, -0.4])
        dg = 2.0 * dx  # f = ||x||^2
        assert bb_step(1.0, 0.0, dx, dg) == pytest.approx(0.5)

    def test_cap_binds(self):
        dx = np.array([1.0])
        dg = 2.0 * dx
        assert bb_step(0.1, 0.0, dx, dg) == pytest.approx(0.1)

    def test_nonconvex_detected(self):
        dx = np.array([1.0])
        dg = np.array([-1.0])
        with pytest.raises(NonconvexDetected):
            bb_step(1.0, 0.0, dx, dg)

    def test_zero_dg_gives_cap(self):
        assert bb_step(1.0, 3.0, np.array([1.0]), np.array([0.0])) == 2.0


class TestAdGD:
    def test_inverse_curvature_binds(self):
        assert adgd_step(1.0, 1.0, CurvaturePair(1.0, 0.0)) == 0.5

    def test_growth_term_binds(self):
        assert adgd_step(1.0, 1.0, CurvaturePair(0.1, 0.0)) == pytest.approx(math.sqrt(2.0))

    def test_mixed(self):
        assert adgd_step(0.5, 1.0, CurvaturePair(1.0, 0.0)) == 0.5


class TestArmijo:
    def test_well_scaled_accepts_first_trial(self):
        oracle = SmoothOracle(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x)
        step, m = armijo_search(oracle.value, np.array([1.0]), np.array([1.0]))
        assert (step, m) == (1e-3, 0)

    def test_stiff_needs_backtracking(self):
        a = 1e7
        oracle = SmoothOracle(value=lambda x: 0.5 * a * float(x @ x),
                              gradient=lambda x: a * x)
        x = np.array([1.0])
        step, m = armijo_search(oracle.value, x, a * x)
        assert m >= 1
        # independent brute check of the accepted and rejected trials
        g_sq = float(a * a)
        for mm in range(m):
            s = 1e-3 * 2.0**-mm
            assert oracle.value(x - s * a * x) > oracle.value(x) - 0.5 * s * g_sq
        s = 1e-3 * 2.0**-m
        assert oracle.value(x - s * a * x) <= oracle.value(x) - 0.5 * s * g_sq

    def test_zero_gradient_rejected(self):
        oracle = SmoothOracle(value=lambda x: 0.0, gradient=lambda x: x)
        with pytest.raises(UsageError):
            armijo_search(oracle.value, np.array([1.0]), np.array([0.0]))

    def test_halving_cap(self):
        # value oracle that never shows sufficient decrease
        oracle = SmoothOracle(value=lambda x: 0.0, gradient=lambda x: x)
        with pytest.raises(LineSearchFailed):
            armijo_search(oracle.value, np.array([1.0]), np.array([1.0]), f_x=-1.0)


class TestRhoSequences:
    def test_rho0_default(self):
        assert rho_value(RhoSequence.rho2(), 0) == 1e10
        assert rho_value(RhoSequence.rho1(), 0) == 1e10

    def test_rho2_k1(self):
        expect = 100.0 * math.log(2.0) ** 4 / 2.0**1.1  # recomputed directly
        assert rho_value(RhoSequence.rho2(), 1) == pytest.approx(expect, rel=1e-15)
        assert expect == pytest.approx(10.769, abs=1e-3)

    def test_rho1_ratio_capped(self):
        got = rho_value(RhoSequence.rho1(), 1, lambda_ratio=0.5)
        assert got == 0.5

    def test_rho1_needs_ratio(self):
        with pytest.raises(UsageError):
            rho_value(RhoSequence.rho1(), 1)

    def test_rho1_below_rho2_pointwise(self):
        r1, r2 = RhoSequence.rho1(), RhoSequence.rho2()
        for k in range(1, 200):
            assert rho_value(r1, k, lambda_ratio=3.0) <= rho_value(r2, k)

    def test_rho_total_zero_and_custom(self):
        assert rho_total(RhoSequence.zero(rho0=0.0)) == 0.0
        assert rho_total(RhoSequence.custom([2.0, 3.0])) == 5.0

    def test_rho_total_rho2_upper_bound(self):
        total = rho_total(RhoSequence.rho2())
        assert total > 1e10
        series = total - 1e10
        # independent coarse series oracle: partial sums grow toward the
        # reported value but never exceed it (it is an upper bound)
        partial = sum(100.0 * math.log(k + 1) ** 4 / (k + 1) ** 1.1
                      for k in range(1, 50_000))
        assert partial < series
        # and the bound is not absurdly loose: close to the scale of the
        # full integral 100 * 1e5 * Gamma(5) = 2.4e8
        assert series < 1.05 * 100.0 * 1e5 * 24.0

    def test_rho2_series_constant_recomputed(self):
        # the committed constant is the partial sum over k <= 1e5 (small
        # terms first) plus the integral tail 1e7 * Gamma(5, 0.1 ln(1e5 + 1))
        from scipy.special import gammaincc

        from adaprox.adaptive import RHO2_SERIES_UPPER

        K = 100_000
        partial = 0.0
        for k in range(K, 0, -1):
            partial += 100.0 * math.log(k + 1) ** 4 / (k + 1) ** 1.1
        tail = 100.0 * 1e5 * math.gamma(5) * float(gammaincc(5, 0.1 * math.log(K + 1)))
        assert partial + tail == RHO2_SERIES_UPPER
        assert rho_total(RhoSequence.rho2(rho0=0.0)) == RHO2_SERIES_UPPER

    def test_rho_total_rho1_uses_rho2_bound(self):
        assert rho_total(RhoSequence.rho1()) == rho_total(RhoSequence.rho2())

    @pytest.mark.parametrize("make", [
        lambda: RhoSequence.rho2(rho0=math.nan),
        lambda: RhoSequence.rho1(rho0=math.inf),
        lambda: RhoSequence.zero(rho0=math.nan),
        lambda: RhoSequence.custom([math.nan, 1.0]),
        lambda: RhoSequence.custom([1.0, math.inf]),
    ], ids=["rho2-nan", "rho1-inf", "zero-nan", "custom-nan-first", "custom-inf-later"])
    def test_non_finite_values_rejected_at_build(self, make):
        with pytest.raises(UsageError, match="finite"):
            make()

    def test_custom_values_verbatim(self):
        seq = RhoSequence.custom([5.0, 1.0])
        assert rho_value(seq, 0) == 5.0
        assert rho_value(seq, 1) == 1.0
        assert rho_value(seq, 2) == 0.0


lam_prev_s = st.floats(1e-6, 1e3)
L_s = st.floats(0.0, 1e3)
l_s = st.floats(-1e3, 1e3)
rho_s = st.floats(0.0, 1e6)


@settings(max_examples=500, deadline=None)
@given(lam_prev=lam_prev_s, rho=rho_s, L=L_s, l=l_s)
def test_step_condition_fuzz(lam_prev, rho, L, l):
    curv = CurvaturePair(L, l)
    for rule in (adapgnc_step, relaxed_step):
        lam = rule(lam_prev, rho, curv)
        assert math.isfinite(lam) and lam > 0.0
        assert lam**2 * L**2 + (lam**2 / lam_prev) * l <= 1.0 + 1e-12
        # growth cap is exact, never exceeded
        assert lam <= math.sqrt(1.0 + rho) * lam_prev


@settings(max_examples=300, deadline=None)
@given(lam_prev=lam_prev_s, rho=rho_s, L=st.floats(1e-6, 1e3), l=st.floats(1e-9, 1e3))
def test_relaxed_at_least_branch_rule(lam_prev, rho, L, l):
    curv = CurvaturePair(L, l)
    assert relaxed_step(lam_prev, rho, curv) >= adapgnc_step(lam_prev, rho, curv) * (1 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bb_term_below_inverse_L_k(data):
    dim = data.draw(st.integers(1, 5))
    dx = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim)))
    dg = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim)))
    if np.linalg.norm(dx) == 0.0 or np.linalg.norm(dg) == 0.0:
        return
    if float(np.dot(dg, dx)) <= 0.0:
        return
    lam = bb_step(1e12, 0.0, dx, dg)  # huge cap exposes the BB term
    L_k = np.linalg.norm(dg) / np.linalg.norm(dx)
    assert lam <= 1.0 / L_k + 1e-12 * (1.0 + 1.0 / L_k)
