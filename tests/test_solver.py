import contextlib
import dataclasses
import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import replay_iterates
from helpers import trace_of

from adaprox import (
    CompositeProblem,
    NonconvexDetected,
    RhoSequence,
    SmoothOracle,
    SolverConfig,
    UsageError,
    monitor_check,
    run,
)
from adaprox import monitor
from adaprox.adaptive import rho_total
from adaprox.monitor import _check, lyapunov_weights
from adaprox.prox import Zero
from adaprox.problems import (
    FactorShape,
    lasso_problem,
    lasso_synthetic,
    nmf_problem,
    nmf_synthetic,
    quadratic_problem,
    rng,
)
from adaprox.harness import read_trace, write_trace
from adaprox.solver import _ROW, ENGINES, MONITORED_ENGINES, TRACE_DTYPE, IterationRecord


def half_sq():
    smooth = SmoothOracle(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x,
                          known_L=1.0)
    return CompositeProblem(smooth=smooth, nonsmooth=Zero(),
                            known_fstar=0.0, name="half_sq")


def test_adgd_first_steps_in_closed_form():
    """adgd on f(x) = 3x²/2 from x0 = 1 with lambda0 = 0.1. The secant is 3
    on every step. The lambda_{-1} = lambda_0 convention gives theta_0 = 1, so
    lambda_1 = min(sqrt(2) 0.1, 1/6) is the growth cap, where Malitsky and
    Mishchenko's theta_0 = +inf would give 1/(2 L_1) = 1/6. Then
    lambda_2 = min(sqrt(1 + sqrt(2)) lambda_1, 1/6) is the curvature term."""
    smooth = SmoothOracle(value=lambda x: 1.5 * float(x @ x), gradient=lambda x: 3.0 * x)
    problem = CompositeProblem(smooth=smooth, nonsmooth=Zero(), name="quad3")
    res = run(problem, np.array([1.0]), SolverConfig(engine="adgd", lambda0=0.1, max_iters=2))
    lams = [r.lam for r in res.trace.all_records()]
    assert [r.L_k for r in res.trace.records] == pytest.approx([3.0, 3.0], rel=1e-14)
    assert lams == pytest.approx([0.1, math.sqrt(2.0) * 0.1, 1.0 / 6.0], rel=1e-14)
    assert math.sqrt(1.0 + math.sqrt(2.0)) * lams[1] > 1.0 / 6.0


class TestFixedStep:
    def test_geometric_decay(self):
        p = half_sq()
        cfg = SolverConfig(engine="fixed", lambda0=0.5, max_iters=3)
        res = run(p, np.array([1.0]), cfg)
        # x_{k+1} = x_k - 0.5 x_k, so x_k = 2^-k
        assert res.x_final[0] == 2.0**-4
        assert [r.lam for r in res.trace.records] == [0.5, 0.5, 0.5]
        assert [r.F_value for r in res.trace.records] == [0.5 * 4.0**-k for k in (1, 2, 3)]
        assert res.trace.termination == "max_iters"
        assert res.best_F == 0.5 * 4.0**-3

    def test_unknown_engine_rejected(self):
        with pytest.raises(UsageError):
            run(half_sq(), np.array([1.0]), SolverConfig(engine="newton"))

    @pytest.mark.parametrize("lam0", [0.0, -1.0, math.inf, math.nan])
    def test_lambda0_must_be_positive_and_finite(self, lam0):
        with pytest.raises(UsageError):
            SolverConfig(lambda0=lam0).validate()
        with pytest.raises(UsageError):
            run(half_sq(), np.array([1.0]), SolverConfig(lambda0=lam0))

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_gradmap_tol_must_be_nonnegative(self, tol):
        # with a NaN tolerance the tol stop could never fire
        with pytest.raises(UsageError):
            SolverConfig(gradmap_tol=tol).validate()
        with pytest.raises(UsageError):
            run(half_sq(), np.array([1.0]), SolverConfig(gradmap_tol=tol))


def branch_rule(L, l, lam_prev, lam_prevprev, rho_used, dx, dg):
    cap = math.sqrt(1.0 + rho_used) * lam_prev
    if l <= 0.0:
        return min(cap, math.inf if L == 0.0 else 1.0 / L)
    return min(cap, math.inf if L == 0.0 else 1.0 / (math.sqrt(2.0) * L),
               math.sqrt(lam_prev / (2.0 * l)))


def relaxed_rule(L, l, lam_prev, lam_prevprev, rho_used, dx, dg):
    u = max(L**2 + l / lam_prev, 0.0)
    return min(math.sqrt(1.0 + rho_used) * lam_prev,
               math.inf if u == 0.0 else 1.0 / math.sqrt(u))


def bb_rule(L, l, lam_prev, lam_prevprev, rho_used, dx, dg):
    cap = math.sqrt(1.0 + rho_used) * lam_prev
    dg_sq = float(np.dot(dg, dg))
    if dg_sq == 0.0:
        return cap
    num = float(np.dot(dg, dx))
    if num <= 0.0:
        raise NonconvexDetected(num)
    return min(cap, num / dg_sq)


def adgd_rule(L, l, lam_prev, lam_prevprev, rho_used, dx, dg):
    return min(math.sqrt(1.0 + lam_prev / lam_prevprev) * lam_prev,
               math.inf if L == 0.0 else 1.0 / (2.0 * L))


def fixed_rule(L, l, lam_prev, lam_prevprev, rho_used, dx, dg):
    return lam_prev


#: engine -> its step rule as a function of the secant estimates, the two
#: previous steps, the growth term, dx = x_k - x_{k-1} and dg = grad_k - grad_{k-1}
REFERENCE_RULES = {
    "adapgnc": branch_rule,
    "adapgnc-relaxed": relaxed_rule,
    "adapgnc-bb": bb_rule,
    "adgd": adgd_rule,
    "fixed": fixed_rule,
}


def test_every_monitored_engine_estimates_curvature():
    """run forms sum_bound's residual from the step's dg and L_k, which only
    an engine with ``curvature`` computes."""
    assert MONITORED_ENGINES and all(ENGINES[e].curvature for e in MONITORED_ENGINES)


def test_reference_rules_cover_every_engine_but_gd_ls():
    """A new row of ENGINES needs its own transcription here; gd-ls's Armijo
    search is tested on its own."""
    assert set(REFERENCE_RULES) == set(ENGINES) - {"gd-ls"}


def reference_steps(problem, x0, lam0, K, rule=branch_rule):
    """Independent transcription of up to K iterations of ``rule`` with the
    rho2 growth terms, mirroring the production operation order so agreement
    must be bit-exact. Like the solver it stops early when G_k = 0, before a
    record with a non-finite f_k or ||G_k||, and, for a rule that reads the
    secant (all but ``fixed``), when ||x_k - x_{k-1}|| is degenerate. Returns
    the iterates x_0..x_final and, for each record k, the lists of lambda_k,
    f_k, F_k and ||G_k||."""
    prox, h = problem.nonsmooth.prox, problem.nonsmooth.value
    secant = rule is not fixed_rule
    xs, lams, fs, Fs, Gs = [x0], [], [], [], []

    def record(x, f, g, lam):
        x_next = prox(x - lam * g, lam)
        G = float(np.linalg.norm(x_next - x)) / lam
        if not (math.isfinite(f) and math.isfinite(G)):
            return False
        xs.append(x_next)
        lams.append(lam)
        fs.append(f)
        Fs.append(f + float(h(x)))
        Gs.append(G)
        return True

    f_prev, g_prev = problem.smooth.value_and_gradient(x0)
    record(x0, f_prev, g_prev, lam0)
    lam_prevprev = lam0
    for k in range(1, K + 1):
        x_prev, x_cur = xs[-2], xs[-1]
        dx = x_cur - x_prev
        nd = float(np.linalg.norm(dx))
        if Gs[-1] == 0.0 or secant and nd <= 1e-15 * (1.0 + float(np.linalg.norm(x_cur))):
            break
        f_cur, g_cur = problem.smooth.value_and_gradient(x_cur)
        L = l = math.nan
        if secant:
            L = float(np.linalg.norm(g_cur - g_prev)) / nd
            inner = float(np.dot(g_cur, -dx))
            num = f_cur - f_prev + inner
            if abs(num) < 1e-13 * (abs(f_cur) + abs(f_prev) + abs(inner)):
                num = 0.0
            l = 2.0 * num / nd**2
            if abs(l) < 1e-12 * max(1.0, L**2 * lams[-1]):
                l = 0.0
        rho_used = 1e10 if k == 1 else 100.0 * math.log(k) ** 4 / k**1.1
        lam = rule(L, l, lams[-1], lam_prevprev, rho_used, dx, g_cur - g_prev)
        lam_prevprev = lams[-1]
        if not record(x_cur, f_cur, g_cur, lam):
            break
        f_prev, g_prev = f_cur, g_cur
    return xs, lams, fs, Fs, Gs


def test_two_iterations_match_reference_bitwise():
    A, b, w = lasso_synthetic(12, 5, seed=21)
    problem = lasso_problem(A, b, w)
    x0 = np.zeros(5)
    # lam0 = 0.01 lets the growth caps bind, 0.1 the curvature terms
    for engine, lam0 in itertools.product(REFERENCE_RULES, (0.01, 0.1)):
        xs, lams, fs, _, _ = reference_steps(problem, x0.copy(), lam0, 2,
                                             REFERENCE_RULES[engine])

        res = run(problem, x0, SolverConfig(engine=engine, lambda0=lam0, max_iters=2))
        recs = res.trace.records
        case = (engine, lam0)
        assert len(recs) == 2, case
        assert np.array_equal(res.x_final, xs[-1]), case
        assert [recs[0].lam, recs[1].lam] == lams[1:], case
        assert [res.trace.init.f_value, recs[0].f_value, recs[1].f_value] == fs, case


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_k_iterations_match_reference_bitwise(data):
    engine = data.draw(st.sampled_from(sorted(REFERENCE_RULES)))
    seed = data.draw(st.integers(0, 2**16))
    K = data.draw(st.integers(1, 30))
    lam0 = data.draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0, 10.0]))
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 6))
        eigs = data.draw(st.lists(st.floats(-1.0, 10.0), min_size=dim, max_size=dim))
        problem = quadratic_problem(eigs, seed=seed)
        x0 = rng(seed + 1).standard_normal(dim)
    else:
        n = data.draw(st.integers(1, 6))
        A, b, w = lasso_synthetic(data.draw(st.integers(2, 12)), n, seed)
        problem = lasso_problem(A, b, w)
        x0 = rng(seed + 1).standard_normal(n)
    config = SolverConfig(engine=engine, lambda0=lam0, max_iters=K)
    try:
        xs, lams, _, Fs, Gs = reference_steps(problem, x0.copy(), lam0, K,
                                              REFERENCE_RULES[engine])
    except NonconvexDetected:
        with pytest.raises(NonconvexDetected):
            run(problem, x0, config)
        return

    res = run(problem, x0, config)
    recs = res.trace.all_records()
    assert [r.lam for r in recs] == lams
    assert [r.F_value for r in recs] == Fs
    assert [r.gradmap_norm for r in recs] == Gs
    assert np.array_equal(res.x_final, xs[-1])


#: every engine but gd-ls, whose Armijo search makes extra value calls, so the
#: NaN of nan_problem lands on a different call
NAN_ENGINES = tuple(e for e in ENGINES if e != "gd-ls")


@pytest.mark.parametrize("which", ["f", "grad"])
@pytest.mark.parametrize("engine", NAN_ENGINES)
def test_non_finite_oracle_ends_run(nan_problem, engine, which):
    p = nan_problem(which)
    cfg = SolverConfig(engine=engine, lambda0=0.1, max_iters=50)
    res = run(p, np.ones(3), cfg)
    assert res.termination == "non_finite"
    # calls 1-4 evaluate x_0..x_3; the NaN at x_4 is not recorded
    assert [r.k for r in res.trace.all_records()] == [0, 1, 2, 3]
    for r in res.trace.all_records():
        assert math.isfinite(r.f_value) and math.isfinite(r.gradmap_norm)
    assert math.isfinite(res.best_F)
    # x_final is x_4, the iterate whose value was not finite: the iterate a
    # run stopped by max_iters after the same three steps ends on
    ref = run(nan_problem(which), np.ones(3), replace(cfg, max_iters=3))
    assert ref.termination == "max_iters"
    assert np.array_equal(res.x_final, ref.x_final)


def test_non_finite_first_step_ends_run():
    """A lambda0 prox step whose ||G_0|| overflows ends the run as non_finite,
    keeping the k = 0 record, with x_final = x0."""
    x0 = np.ones(5)
    with np.errstate(over="ignore"):
        res = run(quadratic_problem(np.linspace(0.1, 1, 5)), x0,
                  SolverConfig(lambda0=1e155, max_iters=50))
    assert res.termination == "non_finite"
    assert len(res.trace.records) == 0 and res.trace.init.gradmap_norm == math.inf
    assert np.array_equal(res.x_final, x0) and res.x_final is not x0


def test_determinism_bit_identical_traces():
    A, b, w = lasso_synthetic(10, 4, seed=3)
    args = dict(engine="adapgnc", lambda0=0.01, max_iters=30)
    r1 = run(lasso_problem(A, b, w), np.zeros(4), SolverConfig(**args), seed=0)
    r2 = run(lasso_problem(A, b, w), np.zeros(4), SolverConfig(**args), seed=0)
    for a, c in zip(r1.trace.all_records(), r2.trace.all_records()):
        assert (a.f_value, a.F_value, a.lam, a.gradmap_norm) == \
            (c.f_value, c.F_value, c.lam, c.gradmap_norm)
    assert np.array_equal(r1.x_final, r2.x_final)


class TestTermination:
    def test_tol_at_init(self):
        res = run(half_sq(), np.array([0.0]), SolverConfig(max_iters=50))
        assert res.trace.termination == "tol"
        assert len(res.trace.records) == 0
        assert res.trace.min_gradmap() == 0.0

    def test_tol_mid_run(self):
        res = run(half_sq(), np.array([4.0]),
                  SolverConfig(max_iters=500, gradmap_tol=1e-6))
        assert res.trace.termination == "tol"
        assert res.trace.records[-1].gradmap_norm <= 1e-6

    def test_stagnation_near_fixed_point(self):
        a = 1e-20
        smooth = SmoothOracle(value=lambda x: 0.5 * float((x - a) @ (x - a)),
                              gradient=lambda x: x - a)
        p = CompositeProblem(smooth=smooth, nonsmooth=Zero())
        res = run(p, np.array([0.0]), SolverConfig(max_iters=10))
        assert res.trace.termination == "stagnation"
        assert len(res.trace.records) == 0  # stalled before the first full step
        # x_final is the lambda0 = 1 prox step x_1 = x_0 - (x_0 - a)
        assert res.x_final[0] == a

    def test_max_seconds(self):
        import time

        def slow_value(x):
            time.sleep(0.005)
            return 0.5 * float(x @ x)

        p = CompositeProblem(
            smooth=SmoothOracle(value=slow_value, gradient=lambda x: x),
            nonsmooth=Zero())
        cfg = SolverConfig(engine="fixed", lambda0=1e-6, max_iters=10**8,
                           max_seconds=0.05)
        res = run(p, np.array([1.0]), cfg)
        assert res.trace.termination == "max_seconds"
        # x_final is the prox step taken from the last record
        last = res.trace.all_records()[-1]
        assert np.array_equal(res.x_final,
                              p.nonsmooth.prox(last.x - last.lam * last.grad, last.lam))

    def test_max_iters_zero_boundary(self):
        p = half_sq()
        res = run(p, np.array([3.0]), SolverConfig(max_iters=0))
        assert res.trace.termination == "max_iters"
        assert len(res.trace.records) == 0
        assert res.best_F == res.trace.init.F_value == 4.5
        assert p.counters.n_gradient == 1


def test_oracle_economy_one_gradient_per_iteration():
    p = quadratic_problem([0.5, 1.0, 2.0], seed=1)
    res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=25))
    iters = len(res.trace.records)
    assert p.counters.n_gradient == iters + 1
    assert p.counters.n_value == iters + 1
    assert p.counters.n_prox == iters + 1
    last = res.trace.records[-1]
    assert (last.n_value, last.n_gradient, last.n_prox) == \
        (iters + 1, iters + 1, iters + 1)


def test_min_gradmap_matches_independent_scan():
    p = quadratic_problem([0.3, 1.0, 2.5], seed=5)
    res = run(p, np.ones(3), SolverConfig(max_iters=40))
    scan = min(r.gradmap_norm for r in res.trace.all_records())
    assert res.trace.min_gradmap() == scan
    for r in res.trace.all_records():
        assert res.trace.min_gradmap() <= r.gradmap_norm


lam_s = (st.floats(-3.0, 3.0) | st.floats(-170.0, 170.0)).map(lambda e: 10.0**e)
rho_s = st.sampled_from([0.0, 1e10]) | st.floats(0.0, 1e3)


class TestMonitorIntegration:
    def test_clean_run_passes_all_checks(self):
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        cfg = SolverConfig(engine="adapgnc", max_iters=60, monitor=True)
        res = run(p, np.ones(3), cfg)
        assert res.report is not None and res.report.passed
        assert res.report.skipped == []
        for c in res.report.checks:
            assert c.n_checked >= 1

    def test_small_rho_makes_bounds_nonvacuous(self):
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        rho = RhoSequence.custom([1.0, 0.5, 0.25])
        cfg = SolverConfig(engine="adapgnc", rho=rho, max_iters=50, monitor=True)
        res = run(p, np.ones(3), cfg)
        rep = res.report
        assert rep.passed
        assert math.isfinite(rep.lam_upper) and rep.lam_upper == 1.0 * math.exp(1.75 / 2)
        assert rep.omega_lower > 0.0
        assert math.isfinite(rep.S)

    def test_zero_rho_never_grows_lambda_and_bounds_the_sum(self):
        """Under the zero sequence the growth cap is sqrt(1) lambda_{k-1}, so
        lambda_k <= lambda_{k-1} at every k; all nine checks run and pass, and
        S is finite, so sum_bound checks a real bound."""
        p = quadratic_problem(np.geomspace(1e-2, 1.0, 10), seed=5)
        cfg = SolverConfig(engine="adapgnc", rho=RhoSequence.zero(), max_iters=200,
                           monitor=True)
        res = run(p, rng(6).standard_normal(10), cfg)
        lam = res.trace.column("lam")
        assert len(lam) == 201 and np.all(lam[1:] <= lam[:-1])
        rep = res.report
        assert rep.skipped == [] and len(rep.checks) == 9 and rep.passed
        assert math.isfinite(rep.S) and rep.check("sum_bound").n_checked == 200

    def test_fstar_alone_skips_the_checks_that_need_L_and_P(self):
        """With fstar set but no known_L and no rho total, the checks that need
        either are skipped, by name and in report order."""
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=10))
        rep = monitor_check(res.trace, None, None, fstar=0.0)
        assert rep.skipped == ["step_bounds", "omega_lower", "complexity_bound", "sum_bound"]
        assert [c.name for c in rep.checks] == [
            "fstar_free_descent", "step_condition", "growth_cap", "lyapunov_descent",
            "complexity_bound_realized"]

    def test_unmonitored_engine_rejected(self):
        p = half_sq()
        res = run(p, np.array([1.0]),
                  SolverConfig(engine="fixed", lambda0=0.5, max_iters=3))
        with pytest.raises(UsageError):
            monitor_check(res.trace, p, 0.0)

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e not in MONITORED_ENGINES])
    def test_uncovered_engine_refused_before_any_oracle_call(self, engine):
        p = quadratic_problem([0.5, 1.0, 2.0], seed=0)
        cfg = SolverConfig(engine=engine, max_iters=500, monitor=True)
        with pytest.raises(UsageError, match=engine):
            cfg.validate()
        with pytest.raises(UsageError, match=engine):
            run(p, np.ones(3), cfg)
        c = p.counters
        assert (c.n_value, c.n_gradient, c.n_prox) == (0, 0, 0)

    @pytest.mark.parametrize("attr, value", [
        ("known_L", 0.0), ("known_L", -1.0), ("known_L", math.nan), ("known_L", math.inf),
        ("known_fstar", math.nan), ("known_fstar", math.inf),
    ])
    def test_bad_constant_refused_before_any_oracle_call(self, attr, value):
        p = quadratic_problem(np.linspace(0.01, 1.0, 20))
        setattr(p.smooth if attr == "known_L" else p, attr, value)
        with pytest.raises(UsageError, match="must be"):
            run(p, np.ones(20), SolverConfig(max_iters=50, monitor=True))
        c = p.counters
        assert (c.n_value, c.n_gradient, c.n_prox) == (0, 0, 0)

    def test_corrupted_trace_flagged(self):
        # rewrite one recorded curvature estimate so the step it certified
        # no longer satisfies the step condition
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        cfg = SolverConfig(engine="adapgnc", max_iters=30)
        res = run(p, np.ones(3), cfg)
        res.trace.rows["l_k"][3] = 2.0  # record k = 3
        rep = monitor_check(res.trace, p, rho_total(RhoSequence.rho2()))
        assert not rep.check("step_condition").passed
        assert rep.check("step_condition").first_failure[0] == 3
        assert not rep.passed

    def test_step_condition_tolerance_ignores_F(self):
        """The step condition's right-hand side is 1, so its slack must not
        grow with F. An x0 outside dom h makes F_0 = inf; a k=1 record whose
        L_k is 100 times too large must still fail."""
        shape = FactorShape(p=6, q=5, r=2)
        p = nmf_problem(nmf_synthetic(6, 2, 5, 0), shape)
        x0 = np.abs(rng(1).standard_normal(shape.dim))
        x0[0] = -0.5
        cfg = SolverConfig(engine="adapgnc", max_iters=50, monitor=True)
        res = run(p, x0, cfg)
        assert res.trace.init.F_value == math.inf
        assert res.report.check("step_condition").passed
        res.trace.rows["L_k"][1] *= 100.0
        rep = monitor_check(res.trace, p, rho_total(cfg.rho))
        assert not rep.check("step_condition").passed
        assert rep.check("step_condition").first_failure[0] == 1

    def test_omega_recursion_agrees_with_product_form(self):
        p = quadratic_problem([0.5, 2.0], seed=9)
        rho = RhoSequence.custom([0.5] + [0.01] * 99)
        cfg = SolverConfig(engine="adapgnc", rho=rho, max_iters=100, monitor=True)
        res = run(p, np.ones(2), cfg)
        recs = res.trace.records
        lam = [1.0] + [r.lam for r in recs]
        rhos = [r.rho_used for r in recs]
        # direct product form, numerically fine for these small rho values
        omega = 1.0
        for k in range(1, len(lam)):
            r_km2 = rhos[k - 2] if k >= 2 else 0.0
            omega *= lam[k] ** 2 / (lam[k - 1] ** 2 * (1.0 + rhos[k - 1])
                                    * math.sqrt(1.0 + r_km2))
            assert omega >= res.report.omega_lower * (1 - 1e-12)
        assert res.report.passed

    @settings(max_examples=400, deadline=None)
    @given(lam0=lam_s, steps=st.lists(st.tuples(lam_s, rho_s), max_size=40))
    @example(lam0=1.0, steps=[(1.0, 1e10)] * 30)               # underflow to 0
    @example(lam0=1e-150, steps=[(1e150, 0.0)] * 3)            # overflow to inf
    @example(lam0=1.0, steps=[(1e160, 0.0), (1.0, 0.0)])       # lam^2 overflows
    @example(lam0=1e-170, steps=[(1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])  # 0 denominator
    def test_lyapunov_weights_match_numpy_scalar_loop(self, lam0, steps):
        """The Python-float recursion equals, bit for bit, the NumPy-scalar
        loop it replaced (kept here as the reference), through overflow to
        inf, underflow to 0 and division by zero."""
        recs = [IterationRecord(k, 0.0, 0.0, 0.0, lam, 0.0, 0.0, rho, 0.0, 0, 0, 0)
                for k, (lam, rho) in enumerate(steps, 1)]
        init = IterationRecord(0, 0.0, 0.0, 0.0, lam0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        trace = trace_of([init] + recs)
        lam = np.array([lam0] + [s[0] for s in steps])
        rho = np.array([0.0] + [s[1] for s in steps])
        with np.errstate(all="ignore"):
            ref = np.ones(len(steps) + 1)
            for k in range(1, len(steps) + 1):
                ref[k] = ref[k - 1] * lam[k] ** 2 / (
                    lam[k - 1] ** 2 * (1.0 + rho[k]) * math.sqrt(1.0 + rho[k - 1]))
            omega = lyapunov_weights(trace.column("lam"), trace.column("rho_used"))
        assert omega.tobytes() == ref.tobytes()

    @given(st.lists(st.tuples(st.floats(-2.0, 2.0) | st.just(math.nan),
                              st.floats(-2.0, 2.0) | st.just(math.inf)),
                    max_size=8),
           st.floats(-2.0, 2.0) | st.just(math.nan))
    def test_check_matches_scalar_loop(self, pairs, s):
        """_check against a written-out loop, for the shapes the monitor passes:
        arrays throughout, a scalar lhs (omega_lower), a scalar rhs and tol
        (step_condition) and a scalar rhs with an array tol (sum_bound)."""
        n = len(pairs)
        a, b, tols = [p[0] for p in pairs], [p[1] for p in pairs], np.full(n, 0.1)
        ks = np.arange(3, 3 + n)
        for lhs, rhs, tol, lhs_at, rhs_at in [
                (np.array(a), np.array(b), tols, a, b),
                (s, np.array(b), 0.1, [s] * n, b),
                (np.array(a), s, 0.1, a, [s] * n),
                (np.array(a), s, tols, a, [s] * n)]:
            margins = [x - (y + 0.1) for x, y in zip(lhs_at, rhs_at)]
            worst = (math.nan if any(map(math.isnan, margins))
                     else max(margins, default=-math.inf))
            first = next(((int(k), x, y) for k, x, y, m in zip(ks, lhs_at, rhs_at, margins)
                          if not m <= 0.0), None)
            c = _check("c", ks, lhs, rhs, tol)
            assert c.n_checked == len(ks) and c.passed == (first is None)
            np.testing.assert_equal(c.worst_slack, worst)
            np.testing.assert_equal(c.first_failure, first)

    @staticmethod
    def scalar_step_bounds(lam, lo, hi, lam0):
        """step_bounds written out: per k the lower bound lo <= lam_k, then the
        upper bound lam_k <= hi; the worst slack is NaN once any margin is."""
        n, worst, first = 0, -math.inf, None
        for k, lam_k in enumerate(lam):
            for lhs, rhs, tol in ((lo, lam_k, 1e-12 * max(1.0, lo)),
                                  (lam_k, hi, 1e-12 * max(1.0, lam0))):
                margin = lhs - (rhs + tol)
                n += 1
                worst = margin if math.isnan(margin) or margin > worst else worst
                if first is None and not margin <= 0.0:
                    first = (k, lhs, rhs)
        return n, worst, first

    # lam0 = 1 and known_L = 1, so lo = 0.5; P = 0.2 gives hi = exp(0.1) ~ 1.105
    # and P = 1e10 gives hi = inf
    @pytest.mark.parametrize("P, lams, first, nan_worst", [
        (0.2, [1.0, 0.9, 0.8], None, False),
        (0.2, [1.0, 2.0, 0.1], (1, 2.0, math.exp(0.1)), False),
        (0.2, [1.0, 0.9, math.nan, 2.0], (2, 0.5, math.nan), True),
        (1e10, [1.0, 0.9, math.inf], (2, math.inf, math.inf), True),
    ], ids=["pass", "upper-before-lower", "nan-lam-both-fail", "inf-lam-inf-hi"])
    def test_step_bounds_matches_scalar_loop(self, P, lams, first, nan_worst):
        """step_bounds' two merged passes against the interleaved scalar loop:
        the earliest k fails first, the lower bound where both fail at one k
        (a NaN lam), the worst slack propagates NaN, also when only the upper
        margin is NaN (inf - inf), and each k counts two observations."""
        init = IterationRecord(0, 0.0, 0.0, 0.0, lams[0], 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        recs = [IterationRecord(k, 0.0, 0.0, 0.0, lam, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
                for k, lam in enumerate(lams[1:], 1)]
        rep = monitor_check(trace_of([init] + recs), None, P, known_L=1.0)
        c = rep.check("step_bounds")
        n, worst, ref_first = self.scalar_step_bounds(lams, rep.lam_lower, rep.lam_upper, 1.0)
        assert c.n_checked == n == 2 * len(lams)
        assert c.passed == (first is None) and math.isnan(c.worst_slack) == nan_worst
        np.testing.assert_equal(c.worst_slack, worst)
        np.testing.assert_equal(c.first_failure, ref_first)
        np.testing.assert_equal(c.first_failure, first)

    def test_replay_without_constants_computes_no_omega(self, monkeypatch):
        """With no known_L and no fstar, as on NMF, no check reads the Lyapunov
        weights, so neither the live monitor nor a replay computes them; the
        three checks that run equal those of a replay with constants."""
        shape = FactorShape(p=6, q=5, r=2)
        p = nmf_problem(nmf_synthetic(6, 2, 5, 0), shape)
        assert p.smooth.known_L is None and p.known_fstar is None
        cfg = SolverConfig(engine="adapgnc", max_iters=60, monitor=True)
        x0 = np.abs(rng(1).standard_normal(shape.dim))
        res = run(p, x0, cfg)
        P = rho_total(cfg.rho)
        with_consts = monitor_check(res.trace, p, P, known_L=100.0, fstar=0.0)

        def no_omega(*args):
            raise AssertionError("lyapunov_weights called")

        monkeypatch.setattr("adaprox.monitor.lyapunov_weights", no_omega)
        for rep in (run(p, x0, cfg).report, monitor_check(res.trace, p, P)):
            assert [c.name for c in rep.checks] == [
                "fstar_free_descent", "step_condition", "growth_cap"]
            assert rep.checks == with_consts.checks[:3]

    @pytest.mark.parametrize("field", ["F_value", "gradmap_norm", "lam", "L_k",
                                       "l_k", "rho_used"])
    def test_nan_observation_fails(self, field):
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=30))
        assert monitor_check(res.trace, p, rho_total(RhoSequence.rho2())).passed
        res.trace.rows[field][5] = math.nan
        rep = monitor_check(res.trace, p, rho_total(RhoSequence.rho2()))
        assert not rep.passed

    @pytest.mark.parametrize("field, change, failures", [
        ("F_value", lambda v: v + 1.0, {"fstar_free_descent": 5, "lyapunov_descent": 5}),
        ("lam", lambda v: 1e-9, {"step_bounds": 5, "omega_lower": 5, "sum_bound": 6}),
        ("lam", lambda v: 1e3, {"complexity_bound_realized": 5, "growth_cap": 5}),
    ], ids=["F+1", "lam=1e-9", "lam=1e3"])
    def test_each_check_has_a_failure_path(self, field, change, failures):
        # corrupt the record for k=5 of a run whose bounds are not vacuous
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        rho = RhoSequence.custom([1.0, 0.5, 0.25])
        cfg = SolverConfig(engine="adapgnc", rho=rho, max_iters=30, monitor=True)
        res = run(p, np.ones(3), cfg)
        assert res.report.passed
        xs, gs = replay_iterates(p, np.ones(3), res)
        col = res.trace.rows[field]
        col[5] = change(col[5])
        # the streamed residuals depend on lam_{k-1}: recompute them for the
        # corrupted trace, so a bad lam_5 reaches sum_bound at k=6
        lams = [r.lam for r in res.trace.all_records()]
        res.trace.rows["residual_sq"][1:] = written_out_residuals(xs, gs, lams)
        rep = monitor_check(res.trace, p, rho_total(rho))
        assert rep.skipped == []
        for name, k in failures.items():
            assert rep.check(name).first_failure[0] == k, name

    @pytest.mark.parametrize("lam0", [1e155, 1e300, 1e-170])
    def test_extreme_lambda0_gives_a_report(self, lam0):
        """A square of lam0 that overflows (1e155, 1e300) or underflows to 0
        (1e-170) still gives the monitor's report, not an ArithmeticError.
        The k = 0 step of a huge lam0 overflows ||dx||^2, which NumPy warns of."""
        p = quadratic_problem(np.linspace(0.1, 1, 5))
        for rho in (RhoSequence.rho2(), RhoSequence.custom([0.1, 0.1])):
            with (pytest.warns(RuntimeWarning, match="overflow") if lam0 > 1.0
                  else contextlib.nullcontext()):
                res = run(p, np.ones(5), SolverConfig(lambda0=lam0, rho=rho, max_iters=50,
                                                      monitor=True))
            assert res.report is not None and res.report.passed
            lo = min(lam0, 0.5)
            assert res.report.omega_lower == (lo / lam0) ** 2 * math.exp(-1.5 * rho_total(rho))

    def test_sum_bound_past_float64_is_inf(self):
        """hi = lam0 exp(P/2) whose square overflows, with omega_lower > 0: S
        is inf, which the running sum meets."""
        init = IterationRecord(0, 1.0, 1.0, 1.0, 1e155, math.nan, math.nan, math.nan, 0.0,
                               1, 1, 1, 0.0)
        rec = IterationRecord(1, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 0.1, 0.0, 2, 2, 2, 1.0)
        trace = trace_of([init, rec])
        rep = monitor_check(trace, None, 0.2, fstar=0.0, known_L=1e-160)
        assert rep.omega_lower == math.exp(-0.3) and rep.S == math.inf
        assert rep.check("sum_bound").passed

    @pytest.mark.parametrize("lam0", [0.0, -1.0, math.nan, math.inf, 2.0])
    def test_bad_trace_lambda0_refused(self, lam0):
        """A lambda0 that is not positive and finite, or not the k=0 record's
        lambda (1.0 here), is a UsageError, with or without constants."""
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=10))
        res.trace.lambda0 = lam0
        for args in ((), (p, rho_total(RhoSequence.rho2()))):
            with pytest.raises(UsageError, match="lambda0"):
                monitor_check(res.trace, *args)

    def test_nan_residual_fails_sum_bound(self):
        """Row 0 of residual_sq marks the residuals as computed, so a NaN
        residual at k >= 1, or at every k >= 1, fails sum_bound at its first k."""
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(max_iters=10, monitor=True))
        assert res.report.check("sum_bound").passed
        P = rho_total(RhoSequence.rho2())
        for first, cells in ((5, slice(5, 6)), (1, slice(1, None))):
            trace = replace(res.trace, rows=res.trace.rows.copy())
            trace.rows["residual_sq"][cells] = math.nan
            rep = monitor_check(trace, p, P)
            assert rep.skipped == [] and rep.check("sum_bound").first_failure[0] == first

    def test_residuals_not_computed_skip_sum_bound(self):
        """A NaN row 0 says the residuals were not computed: sum_bound is
        skipped, given every constant, for an unmonitored run (NaN in every
        row) and for a monitored one whose row 0 is set to NaN."""
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        P = rho_total(RhoSequence.rho2())
        plain = run(p, np.ones(3), SolverConfig(max_iters=10)).trace
        assert np.isnan(plain.column("residual_sq")).all()
        marked = run(p, np.ones(3), SolverConfig(max_iters=10, monitor=True)).trace
        assert marked.column("residual_sq")[0] == 0.0
        marked.rows["residual_sq"][0] = math.nan
        for trace in (plain, marked):
            assert monitor_check(trace, p, P).skipped == ["sum_bound"]

    def test_record_not_at_its_position_refused(self):
        """A record is assigned only at its own k, through ``records[i] = ...``
        or ``Trace(records=...)``: the monitor numbers observations by row."""
        trace = run(quadratic_problem([0.5, 1.0, 2.0], seed=7), np.ones(3),
                    SolverConfig(max_iters=10)).trace
        rec = trace.records[3]
        with pytest.raises(UsageError, match="record k=4 cannot be the trace's record 3"):
            trace.records[2] = rec
        with pytest.raises(UsageError, match="record k=2 cannot be the trace's record 1"):
            replace(trace, records=trace.records[1:])
        trace.records[3] = replace(rec, lam=0.5)
        assert trace.column("lam")[4] == 0.5

    @pytest.mark.parametrize("P", [-10.0, math.nan, -math.inf])
    def test_bad_rho_total_refused(self, P):
        """A NaN or negative rho total is a UsageError naming it, not a
        step_bounds failure at k = 0 against an inverted bound."""
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=10))
        with pytest.raises(UsageError, match=f"rho_total_value .* got {P}$"):
            monitor_check(res.trace, p, P)

    def test_infinite_rho_total_gives_vacuous_bounds(self):
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", max_iters=10))
        rep = monitor_check(res.trace, p, math.inf)
        assert rep.passed and rep.lam_upper == math.inf and rep.omega_lower == 0.0

    def test_rho_below_minus_one_gives_negative_then_nan_weights(self):
        """1 + rho_1 = -4 makes omega_1 negative; sqrt(1 + rho_1) has no real
        root, so omega_2 and the weights after it are NaN."""
        recs = [IterationRecord(k, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, rho, 0.0, 0, 0, 0)
                for k, rho in [(1, -5.0), (2, 0.0), (3, 0.0)]]
        init = IterationRecord(0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        with np.errstate(invalid="ignore"):
            trace = trace_of([init] + recs)
            omega = lyapunov_weights(trace.column("lam"), trace.column("rho_used"))
        assert omega[:2].tolist() == [1.0, -0.25]
        assert np.isnan(omega[2:]).all()

    def test_complexity_bound_failure_path(self):
        # a reference optimum above F(x_0) makes V_0 negative
        p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
        rho = RhoSequence.custom([1.0, 0.5, 0.25])
        res = run(p, np.ones(3), SolverConfig(engine="adapgnc", rho=rho, max_iters=30))
        fstar = res.trace.init.F_value + 0.5 * res.trace.init.gradmap_norm ** 2 + 1.0
        rep = monitor_check(res.trace, p, rho_total(rho), fstar=fstar)
        assert rep.check("complexity_bound").first_failure[0] == 1


def test_loop_calls_no_linalg_norm_and_copies_best(monkeypatch):
    """Monitored runs finish with np.linalg.norm unavailable: the loop takes
    its norms as math.sqrt(v.dot(v)). The best iterate is kept by reference
    in the loop and copied once at the end, so it shares no memory with x0
    or x_final."""
    def no_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    quad = quadratic_problem(np.geomspace(1e-2, 1.0, 10), seed=5)
    shape = FactorShape(p=6, q=5, r=2)
    nmf = nmf_problem(nmf_synthetic(6, 2, 5, 0), shape)
    # the last case starts at the minimizer, so best stays x_0
    cases = [(quad, np.ones(10), 60), (nmf, np.abs(rng(1).standard_normal(shape.dim)), 60),
             (quad, np.zeros(10), 0)]
    monkeypatch.setattr(np.linalg, "norm", no_norm)
    for problem, x0, n_records in cases:
        res = run(problem, x0, SolverConfig(engine="adapgnc", max_iters=60, monitor=True))
        assert len(res.trace.records) == n_records and res.report is not None
        assert not np.shares_memory(res.best, x0)
        assert not np.shares_memory(res.best, res.x_final)


def test_bb_engine_runs_on_convex_quadratic():
    p = quadratic_problem([0.5, 1.0, 3.0], seed=4)
    res = run(p, np.ones(3), SolverConfig(engine="adapgnc-bb", lambda0=0.1,
                                          max_iters=80, gradmap_tol=1e-10))
    assert res.trace.termination in ("tol", "stagnation")
    assert res.best_F <= 1e-12


def test_gd_ls_engine_descends():
    p = quadratic_problem([1.0, 5.0], seed=6)
    res = run(p, np.ones(2), SolverConfig(engine="gd-ls", lambda0=1e-3, max_iters=50))
    Fs = [r.F_value for r in res.trace.all_records()]
    assert all(b <= a + 1e-15 for a, b in zip(Fs, Fs[1:]))


def test_gd_ls_refuses_nonzero_h_before_any_oracle_call():
    """gd-ls backtracks on f alone, which is no sufficient-decrease test on
    F = f + h once h is not zero, so a lasso problem is refused."""
    A, b, w = lasso_synthetic(20, 8, seed=2)
    p = lasso_problem(A, b, w)
    with pytest.raises(UsageError, match="gd-ls"):
        run(p, np.ones(8), SolverConfig(engine="gd-ls", max_iters=50))
    c = p.counters
    assert (c.n_value, c.n_gradient, c.n_prox) == (0, 0, 0)


def test_adgd_engine_converges():
    p = quadratic_problem([0.5, 1.0, 2.0], seed=8)
    res = run(p, np.ones(3), SolverConfig(engine="adgd", lambda0=0.1,
                                          max_iters=200, gradmap_tol=1e-9))
    assert res.trace.termination in ("tol", "stagnation")


def test_only_last_record_carries_vectors():
    for monitor in (False, True):
        res = run(half_sq(), np.array([1.0]), SolverConfig(lambda0=0.5, max_iters=2,
                                                           monitor=monitor))
        *rest, last = res.trace.all_records()
        assert all(r.x is None and r.grad is None for r in rest)
        assert last.x is not None and last.grad is not None


def test_records_are_a_view_of_the_rows():
    """Records are frozen and built from the rows on access. Assigning one
    writes its row, which the monitor reads; a replaced trace has rows of its
    own, so the original is unchanged."""
    p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
    trace = run(p, np.ones(3), SolverConfig(max_iters=10)).trace
    P = rho_total(RhoSequence.rho2())
    rec = trace.records[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.l_k = 2.0
    assert list(trace.records) == trace.all_records()[1:]
    assert trace.records[-1].x is not None
    altered = replace(trace, records=list(trace.records))
    altered.records[2] = replace(rec, l_k=2.0)
    assert altered.column("l_k")[3] == altered.all_records()[3].l_k == 2.0
    assert trace.records[2] == rec and monitor_check(trace, p, P).passed
    assert monitor_check(altered, p, P).check("step_condition").first_failure[0] == 3


def test_record_equality_is_bitwise():
    """A record equals itself, NaN fields included, as does the last record,
    which carries x and grad; a 1-ulp change of lam, or -0.0 for 0.0, makes
    records unequal. Equal records hash alike."""
    trace = run(quadratic_problem([0.5, 1.0, 2.0], seed=1), np.ones(3),
                SolverConfig(max_iters=10)).trace
    rec = trace.records[2]
    assert math.isnan(rec.residual_sq) and math.isnan(trace.init.L_k)
    assert rec == trace.records[2] and trace.init == trace.init
    assert hash(rec) == hash(trace.records[2])
    assert replace(rec, lam=np.nextafter(rec.lam, math.inf)) != rec
    assert replace(rec, l_k=-0.0) != replace(rec, l_k=0.0)
    last = trace.records[-1]
    assert last.x is not None and last == trace.records[-1]
    assert last != replace(last, x=last.x + 1.0) and last != replace(last, grad=None)


def test_row_packer_has_the_dtype_layout():
    """A row packed by the loop reads back through TRACE_DTYPE field for field;
    the fields are IterationRecord's but k, x and grad, in its order."""
    values = (-1.5, 2.5, 0.25, 1e-300, math.inf, -0.0, 1e10, 0.125, 7, -2**63, 2**63 - 1, 0.5)
    assert _ROW.size == TRACE_DTYPE.itemsize == 96
    assert np.frombuffer(_ROW.pack(*values), TRACE_DTYPE)[0].item() == values
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    assert list(TRACE_DTYPE.names) == names[1:-2] and "k" not in TRACE_DTYPE.names


def test_trace_keeps_at_most_128_bytes_per_record(tmp_path):
    """A monitored run keeps at most 128 B per record in its trace, and a
    write, read and replay of that trace peaks at 176 B per record at most:
    the reader holds a line at a time and the replay a block at a time."""
    n, K = 100, 4000
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, n), seed=3)
    path = str(tmp_path / "t.json")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = run(problem, np.ones(n), SolverConfig(max_iters=K, monitor=True)).trace
        kept = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_trace(trace, "json", path)
        report = monitor_check(read_trace(path), problem, rho_total(RhoSequence.rho2()))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert trace.iterations == K and report.passed
    assert kept <= 128 * K, kept / K
    assert peak <= 176 * K, peak / K


def test_read_trace_holds_little_beside_its_rows(tmp_path):
    """read_trace's peak above the rows it returns is at most 64 B per record
    at K = 4000: one line's text, its string and its bytes, not the file."""
    n, K = 100, 4000
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, n), seed=3)
    path = str(tmp_path / "t.json")
    write_trace(run(problem, np.ones(n), SolverConfig(max_iters=K)).trace, "json", path)
    tracemalloc.start()
    try:
        back = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.iterations == K
    assert peak - back.rows.nbytes <= 64 * K, (peak - back.rows.nbytes) / K


def test_replay_memory_does_not_grow_with_the_trace():
    """monitor_check's peak above its input at K = 16,000 is within 10 % of
    its peak at K = 4000, all nine checks running: it replays a block of
    records at a time."""
    n = 100
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, n), seed=3)
    P = rho_total(RhoSequence.rho2())
    peaks = {}
    for K in (4000, 16000):
        trace = run(problem, np.ones(n), SolverConfig(max_iters=K, monitor=True)).trace
        assert trace.iterations == K
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = monitor_check(trace, problem, P)
            peaks[K] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.passed and report.skipped == []
    assert peaks[16000] <= 1.1 * peaks[4000], peaks


@functools.lru_cache(maxsize=None)
def block_trace(K: int):
    """The quad-monitored workload's problem and a monitored run of K
    iterations on it, so that all nine checks run."""
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, 100), seed=1)
    trace = run(problem, np.ones(100), SolverConfig(max_iters=K, monitor=True)).trace
    assert trace.iterations == K
    return problem, trace


def report_bits(report) -> tuple:
    """Every CheckResult's repr, the skipped checks and the report's floats."""
    return ([repr(c) for c in report.checks], report.skipped,
            [repr(getattr(report, f)) for f in ("P", "lam_lower", "lam_upper",
                                                "omega_lower", "S")])


@pytest.mark.parametrize("K, edit", [
    (2100, None),
    (2100, ("l_k", 2060, 50.0)),
    (2100, ("F_value", 1024, math.nan)),
    (2100, ("rho_used", 1025, math.nan)),
    (0, None), (1, None), (1024, None), (1025, None),
], ids=["clean", "edited_third_block", "nan_F_at_boundary", "nan_rho_at_boundary",
        "K0", "K1", "K_block", "K_block_plus_1"])
def test_replay_is_the_same_at_every_block_size(monkeypatch, K, edit):
    """The report, every float of it, is the same replayed in blocks of 1, 7
    and 1024 records as in one block: on clean traces, on one whose row
    2060 (in the third block of 1024) fails the step condition, on NaNs at
    either side of the first 1024-block boundary, and at K = 0, 1, the block
    size and one past it."""
    problem, trace = block_trace(K)
    if edit is not None:
        field, k, value = edit
        trace = replace(trace, records=list(trace.records))
        trace.rows[field][k] = value
    P = rho_total(RhoSequence.rho2())
    bits = {}
    for size in (1, 7, 1024, 10**6):
        monkeypatch.setattr(monitor, "_BLOCK_ROWS", size)
        report = monitor_check(trace, problem, P)
        bits[size] = report_bits(report)
    assert bits[1] == bits[7] == bits[1024] == bits[10**6]
    assert len(report.checks) == (9 if K else 5)
    assert report.passed == (edit is None)
    if edit is not None and edit[0] == "l_k":
        assert report.check("step_condition").first_failure[0] == 2060


@pytest.mark.parametrize("termination, max_iters, tol, nan", [
    ("max_iters", 5, 0.0, None),
    ("max_iters", 0, 0.0, None),
    ("tol", 10**4, 1e-8, None),
    ("stagnation", 10**4, 0.0, None),
    ("non_finite", 50, 0.0, "f"),
    ("non_finite", 50, 0.0, "grad"),
])
def test_unkept_last_record_steps_to_x_final(termination, max_iters, tol, nan,
                                             nan_problem):
    """The last kept record carries its x and grad, and x_final is the prox
    step from them (also when the next iterate's value or gradient was not
    finite)."""
    exact = quadratic_problem([0.5, 1.0, 2.0], seed=1)
    for monitor in (False, True):
        p = nan_problem(nan) if nan else exact
        res = run(p, np.ones(3), SolverConfig(max_iters=max_iters, gradmap_tol=tol,
                                              monitor=monitor))
        assert res.termination == termination
        last = res.trace.all_records()[-1]
        assert np.array_equal(last.grad, exact.smooth.gradient(last.x))
        assert np.array_equal(res.x_final,
                              p.prox_step(last.x - last.lam * last.grad, last.lam))


def written_out_residuals(xs, gs, lams):
    """sum_bound's squared residual ||grad f(x_k) + h'_k||^2 for k = 1..K, with
    h'_k = (x_{k-1} - x_k)/lam_{k-1} - grad f(x_{k-1}), summed coordinate by
    coordinate in Python floats."""
    out = []
    for k in range(1, len(xs)):
        acc = 0.0
        for xp, x, gp, g in zip(xs[k - 1], xs[k], gs[k - 1], gs[k]):
            r = g + ((xp - x) / lams[k - 1] - gp)
            acc += r * r
        out.append(acc)
    return np.array(out)


def residual_band(xs, gs, lams):
    """The rounding band within which run's expanded-form residual
    ||dg||^2 - 2<dg, dx>/lam + ||dx||^2/lam^2 (dg = g_k - g_{k-1}, dx = x_k -
    x_{k-1}, lam = lam_{k-1}) and written_out_residuals agree at each k:
    2(n + 8) eps M^2 with M = ||g_k|| + ||g_{k-1}|| + ||dx||/lam.

    Both forms evaluate ||r||^2, r = g_k - g_{k-1} - dx/lam, from the same
    stored vectors, so the band is the sum of their two errors against the
    exact value; to first order in the unit roundoff u = eps/2 each is at most
    2(n + 8) u M^2 = (n + 8) eps M^2. Written out: each entry r_i takes three
    roundings, so |dr_i| <= 3u m_i with m_i = |g_k,i| + |g_{k-1},i| + |dx_i|/lam,
    and ||m|| <= M; the squares add 2 ||r|| ||dr|| <= 6u M^2 and their sum of
    n terms at most n u sum r_i^2 <= n u M^2. Expanded: dg = fl(g_k - g_{k-1})
    moves ||r||^2 by at most 2u ||dg|| (||dg|| + ||dx||/lam) <= 2u M^2; each of
    the dots dg.dg, dg.dx and dx.dx is within n u of the sum of its terms'
    magnitudes, which are at most ||dg||^2, 2||dg|| ||dx||/lam and
    (||dx||/lam)^2 and so add to at most M^2 (||dg|| <= ||g_k|| + ||g_{k-1}||);
    the roots, quotients and products that pass ||dg|| through L_k = ||dg||/nd
    and back, the squares and the last two sums take at most 12 more roundings
    of terms of at most M^2. Both totals are below (2n + 16) u M^2."""
    eps, n = np.finfo(np.float64).eps, xs[0].size
    return np.array([2.0 * (n + 8) * eps * (np.linalg.norm(gs[k]) + np.linalg.norm(gs[k - 1])
                                            + np.linalg.norm(xs[k] - xs[k - 1]) / lams[k - 1]) ** 2
                     for k in range(1, len(xs))])


def assert_residuals_within_band(problem, x0, res, written=None):
    """The trace's residual_sq column holds 0.0 at k = 0 and, at each kept
    record k >= 1, a float64 that agrees with ``written`` (by default
    written_out_residuals of the iterates replayed from the run) within
    residual_band."""
    xs, gs = replay_iterates(problem, x0, res)
    lams = [r.lam for r in res.trace.all_records()]
    if written is None:
        written = written_out_residuals(xs, gs, lams)
    sq = res.trace.column("residual_sq")
    assert sq.dtype == np.float64 and sq[0] == 0.0
    assert sq[1:].shape == (len(res.trace.records),) == written.shape
    assert np.all(np.abs(sq[1:] - written) <= residual_band(xs, gs, lams))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_live_sum_bound_equals_replay_over_kept_iterates(data):
    """The residuals a monitored run computes for sum_bound agree, within
    residual_band, with a written-out recomputation from the iterates replayed
    from its recorded steps."""
    dim = data.draw(st.integers(1, 5))
    eigs = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=dim, max_size=dim))
    seed = data.draw(st.integers(0, 2**16))
    rho = data.draw(st.sampled_from([
        RhoSequence.rho1(), RhoSequence.rho2(), RhoSequence.custom([1.0, 0.5, 0.25])]))
    config = SolverConfig(engine=data.draw(st.sampled_from(MONITORED_ENGINES)), rho=rho,
                          lambda0=data.draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0])),
                          max_iters=data.draw(st.integers(0, 60)), monitor=True)
    problem = quadratic_problem(eigs, seed=seed)
    x0 = rng(seed + 1).standard_normal(dim)
    res = run(problem, x0, config)
    assert_residuals_within_band(problem, x0, res)
    if res.trace.records:
        assert res.report.skipped == []
        assert res.report.check("sum_bound").n_checked == len(res.trace.records)


def monitored_quadratic_run(n, max_iters):
    """A monitored adapgnc run on an ill-conditioned n-dimensional quadratic
    whose steps neither stagnate nor meet the tolerance within max_iters."""
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, n), seed=3)
    x0 = rng(4).standard_normal(n)
    res = run(problem, x0, SolverConfig(max_iters=max_iters, monitor=True))
    assert len(res.trace.records) == max_iters and res.report.skipped == []
    return problem, x0, res


def test_residuals_across_block_boundaries():
    """Over 2 * 64 + 17 steps at n = 5 every residual agrees with the
    written-out recomputation within residual_band."""
    problem, x0, res = monitored_quadratic_run(5, 2 * 64 + 17)
    assert_residuals_within_band(problem, x0, res)


def test_residuals_in_blocks_equal_per_step_sums():
    """At n = 100, over 2 * 64 + 17 steps, the residuals agree within
    residual_band with a per-step NumPy (r * r).sum() of
    g_k + ((x_{k-1} - x_k)/lam_{k-1} - g_{k-1})."""
    problem, x0, res = monitored_quadratic_run(100, 2 * 64 + 17)
    xs, gs = replay_iterates(problem, x0, res)
    lams = [r.lam for r in res.trace.all_records()]
    per_step = []
    for k in range(1, len(xs)):
        r = gs[k] + ((xs[k - 1] - xs[k]) / lams[k - 1] - gs[k - 1])
        per_step.append((r * r).sum())
    assert_residuals_within_band(problem, x0, res, np.array(per_step))


def test_residuals_of_kept_records_only(nan_problem):
    """A run that ends non_finite keeps no residual for the step it drops:
    the values stay one per kept record, each within residual_band."""
    exact, x0 = quadratic_problem([0.5, 1.0, 2.0], seed=1), np.ones(3)
    for which in ("f", "grad"):
        res = run(nan_problem(which), x0, SolverConfig(max_iters=50, monitor=True))
        assert res.termination == "non_finite" and len(res.trace.records) >= 1
        # the iterates through the oracle before its NaNs
        assert_residuals_within_band(exact, x0, res)


def test_no_iterations_keep_empty_float64_residuals():
    res = run(quadratic_problem([0.5, 1.0, 2.0], seed=1), np.ones(3),
              SolverConfig(max_iters=0, monitor=True))
    sq = res.trace.column("residual_sq")
    assert sq.dtype == np.float64 and sq.tolist() == [0.0]


def test_residual_block_memory_is_bounded_at_large_n():
    """At n = 2**15 a monitored run holds no vector for the monitor: it adds
    to the unmonitored peak less than one n-vector."""
    n, K = 2**15, 40
    d = np.geomspace(1e-4, 1.0, n)  # f = 0.5 sum d_i x_i^2, a diagonal quadratic

    def value_and_gradient(x):
        g = d * x
        return 0.5 * float(x.dot(g)), g

    big = CompositeProblem(SmoothOracle(value=lambda x: 0.5 * float(x.dot(d * x)),
                                        value_and_gradient=value_and_gradient, known_L=1.0),
                           Zero(), known_fstar=0.0)
    x0 = np.ones(n)

    def peak(monitor):
        tracemalloc.start()
        try:
            res = run(big, x0, SolverConfig(max_iters=K, monitor=monitor))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace.records) == K
        assert not monitor or res.report.skipped == []
        return peak

    assert peak(True) - peak(False) < 8 * n


def test_monitored_memory_is_flat_in_iterations():
    """Between 200 and 2000 iterations the monitor adds far less to the peak
    than the n * 16 bytes per iteration that kept iterates and gradients
    would take."""
    n = 100
    problem = quadratic_problem(np.geomspace(1e-4, 1.0, n), seed=3)

    def peak(K, monitor):
        tracemalloc.start()
        try:
            res = run(problem, np.ones(n), SolverConfig(max_iters=K, monitor=monitor))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace.records) == K
        assert not monitor or res.report.skipped == []
        return peak

    growth = {m: peak(2000, m) - peak(200, m) for m in (False, True)}
    assert growth[True] - growth[False] < 0.25 * 1800 * n * 16
