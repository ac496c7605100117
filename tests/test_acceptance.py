"""End-to-end acceptance suite.

Eight criteria, each printed as a single pass/fail line. Statistical criteria
use fixed seed sets; theorem-backed criteria use the 1e-9 relative slack the
monitor applies everywhere. Runs that converge to machine precision stop by
stagnation before the iteration budget; every per-iteration assertion then
covers the realized range, and the two-horizon ergodic comparison uses the
final horizon and its half. Criteria that need iterates rebuild them from the
recorded steps with ``replay_iterates``.
"""

import math
import time

import numpy as np

from conftest import replay_iterates
from helpers import L2Squared

from adaprox import (
    RhoSequence,
    SolverConfig,
    run,
)
from adaprox.problems import (
    FactorShape,
    lasso_problem,
    lasso_synthetic,
    logistic_gamma,
    logistic_problem,
    logistic_synthetic,
    nmf_problem,
    nmf_synthetic,
    quadratic_problem,
    rng,
)
from adaprox.prox import gradient_mapping
from adaprox.prox import L1, BoxIndicator, NonnegIndicator, Zero

SEEDS = range(5)
SLACK = 1e-9


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# Shared logistic runs (criteria 1-3, computed once)

_LOGISTIC_CACHE = {}


def logistic_runs(seed: int):
    """Reference optimum plus monitored 2000-iteration runs for one seed, each
    checked live against that optimum."""
    if seed in _LOGISTIC_CACHE:
        return _LOGISTIC_CACHE[seed]
    design = logistic_synthetic(200, 20, seed)
    gamma = logistic_gamma(design)

    ref_problem = logistic_problem(design, gamma)
    ref = run(ref_problem, np.zeros(20),
              SolverConfig(engine="adapgnc", max_iters=20000), seed=seed)
    fhat = ref.best_F - 1e-12  # reference optimum with a safety margin

    traces = {}
    for rho_kind, rho in (("rho1", RhoSequence.rho1()), ("rho2", RhoSequence.rho2())):
        problem = logistic_problem(design, gamma)
        problem.known_fstar = fhat
        cfg = SolverConfig(engine="adapgnc", rho=rho, lambda0=1.0,
                           max_iters=2000, monitor=True)
        res = run(problem, np.zeros(20), cfg, seed=seed)
        traces[rho_kind] = (problem, res, rho)
    out = (fhat, ref.x_final, traces)
    _LOGISTIC_CACHE[seed] = out
    return out


def test_criterion_1_theory_monitor_suite():
    t0 = time.perf_counter()
    failures = []
    for seed in SEEDS:
        _, _, traces = logistic_runs(seed)
        for rho_kind, (_, res, _) in traces.items():
            rep = res.report
            if not rep.passed or rep.skipped:
                failures.append((seed, rho_kind, rep.summary_lines()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(1, "theory monitor on regularized logistic, 5 seeds x 2 rho",
           ok, f"{elapsed:.1f}s")
    for f in failures:
        print("  ", f)
    assert not failures
    assert elapsed < 30.0


def _realized_omegas(trace):
    recs = trace.records
    lam = [trace.lambda0] + [r.lam for r in recs]
    omega = [1.0]
    for k in range(1, len(recs) + 1):
        r1 = recs[k - 1].rho_used
        r2 = recs[k - 2].rho_used if k >= 2 else 0.0
        omega.append(omega[-1] * lam[k] ** 2
                     / (lam[k - 1] ** 2 * (1.0 + r1) * math.sqrt(1.0 + r2)))
    return lam, omega


def test_criterion_2_rate_shape_dominance():
    worst_slope = -math.inf
    violations = 0
    for seed in SEEDS:
        fhat, _, traces = logistic_runs(seed)
        problem, res, rho = traces["rho2"]
        trace = res.trace
        recs = trace.records
        K = len(recs)
        lam, omega = _realized_omegas(trace)
        G = [trace.init.gradmap_norm] + [r.gradmap_norm for r in recs]
        F0 = trace.init.F_value
        V0 = F0 - fhat + 0.5 * trace.lambda0 * G[0] ** 2
        tol = SLACK * (1.0 + abs(F0))
        lam_lower = min(trace.lambda0, 1.0 / (2.0 * problem.smooth.known_L))
        omega_lower = (lam_lower ** 2 / trace.lambda0 ** 2) * 0.0  # exp(-3P/2) underflows
        min_gsq = math.inf
        wsum = 0.0
        ks, ys = [], []
        for k in range(1, K + 1):
            min_gsq = min(min_gsq, G[k - 1] ** 2)
            wsum += omega[k] * lam[k - 1]
            # the stated constant-form bound (infinite when omega underflows)
            denom = omega_lower * lam_lower * k
            stated = math.inf if denom == 0.0 else 2.0 * V0 / denom
            if min_gsq > stated + tol:
                violations += 1
            # realized-weight form of the same telescoped sum, never vacuous
            if min_gsq > 2.0 * V0 / wsum + tol:
                violations += 1
            if k >= max(10, K // 10) and min_gsq > 0.0:
                ks.append(math.log(k))
                ys.append(math.log(min_gsq))
        slope = float(np.polyfit(ks, ys, 1)[0])
        worst_slope = max(worst_slope, slope)
    # the bound decays like 1/k; the measured curve must decay at least as fast
    ok = violations == 0 and worst_slope <= -1.0
    report(2, "complexity bound dominates min ||G||^2 pointwise", ok,
           f"worst log-log slope {worst_slope:.2f}")
    assert violations == 0
    assert worst_slope <= -1.0


def test_criterion_3_convex_ergodic_rate():
    violations = 0
    worst_ratio = 0.0
    for seed in SEEDS:
        fhat, xstar, traces = logistic_runs(seed)
        problem, res, rho = traces["rho2"]
        trace = res.trace
        recs = trace.records
        K = len(recs)
        lam = [trace.lambda0] + [r.lam for r in recs]
        F0 = trace.init.F_value
        tol = SLACK * (1.0 + abs(F0))
        lam_lower = min(trace.lambda0, 1.0 / (2.0 * problem.smooth.known_L))
        xs, gs = replay_iterates(problem, np.zeros(20), res)
        x1 = xs[1] if K >= 1 else None
        dist_sq = float(np.dot(x1 - xstar, x1 - xstar))
        acc = np.zeros_like(xs[0])
        wsum = 0.0
        running_S = 0.0
        gaps = {}
        for k in range(1, K + 1):
            hp = (xs[k - 1] - xs[k]) / lam[k - 1] - gs[k - 1]
            running_S += lam[k] ** 2 * float(np.sum((gs[k] + hp) ** 2))
            acc += lam[k] * xs[k]
            wsum += lam[k]
            gap = problem.smooth.value(acc / wsum) - fhat  # h == 0 here
            if gap > (dist_sq + running_S) / (2.0 * lam_lower * k) + tol:
                violations += 1
            if k in (K // 2, K):
                gaps[k] = gap
        worst_ratio = max(worst_ratio, gaps[K] / gaps[K // 2])
    ok = violations == 0 and worst_ratio <= 0.6
    report(3, "ergodic O(1/k) rate and two-horizon gap ratio <= 0.6", ok,
           f"worst ratio {worst_ratio:.3f}")
    assert violations == 0
    assert worst_ratio <= 0.6


def test_criterion_4_nmf_rho_ordering():
    t0 = time.perf_counter()
    iters = {"rho1": [], "rho2": []}
    reached = True
    for seed in range(10):
        A = nmf_synthetic(200, 5, 300, seed)
        shape = FactorShape(p=200, q=300, r=5)
        x0 = np.abs(rng(seed + 1).standard_normal(shape.dim))
        for kind, rho in (("rho1", RhoSequence.rho1()), ("rho2", RhoSequence.rho2())):
            problem = nmf_problem(A, shape)
            cfg = SolverConfig(engine="adapgnc", rho=rho, lambda0=0.001,
                               max_iters=20000, gradmap_tol=1e-6)
            res = run(problem, x0.copy(), cfg, seed=seed)
            reached &= res.trace.termination == "tol"
            iters[kind].append(len(res.trace.records))
    elapsed = time.perf_counter() - t0
    mean1 = float(np.mean(iters["rho1"]))
    mean2 = float(np.mean(iters["rho2"]))
    seed_wins = sum(b <= a for a, b in zip(iters["rho1"], iters["rho2"]))
    ok = reached and mean2 <= mean1 and seed_wins >= 7 and elapsed < 120.0
    report(4, "NMF iteration ordering, ratio-capped vs summable rho", ok,
           f"means {mean2:.1f} <= {mean1:.1f}, {seed_wins}/10 seeds, {elapsed:.1f}s")
    assert reached
    assert mean2 <= mean1
    assert seed_wins >= 7
    assert elapsed < 120.0


def test_criterion_5_baseline_dominance():
    # lasso: branch rule vs the ratio-capped baseline and fixed 1/L
    A, b, w = lasso_synthetic(100, 50, seed=0)
    L = lasso_problem(A, b, w).smooth.known_L

    def lasso_iters(engine, **kw):
        problem = lasso_problem(A, b, w)
        cfg = SolverConfig(engine=engine, max_iters=50000, gradmap_tol=1e-10, **kw)
        res = run(problem, np.zeros(50), cfg, seed=0)
        assert res.trace.termination == "tol"
        return len(res.trace.records)

    n_ada = lasso_iters("adapgnc", lambda0=1e-3)
    n_adgd = lasso_iters("adgd", lambda0=1e-3)
    n_fixed = lasso_iters("fixed", lambda0=1.0 / L)
    lasso_ok = n_ada <= 1.5 * n_adgd and n_ada <= n_fixed

    # logistic: short-BB variant vs the ratio-capped baseline, majority of seeds
    wins = 0
    for seed in SEEDS:
        design = logistic_synthetic(200, 20, seed)
        gamma = logistic_gamma(design)

        def logi_iters(engine):
            problem = logistic_problem(design, gamma)
            cfg = SolverConfig(engine=engine, lambda0=1.0, max_iters=50000,
                               gradmap_tol=1e-8)
            res = run(problem, np.zeros(20), cfg, seed=seed)
            assert res.trace.termination == "tol"
            return len(res.trace.records)

        wins += logi_iters("adapgnc-bb") <= logi_iters("adgd")
    logistic_ok = wins >= 3
    ok = lasso_ok and logistic_ok
    report(5, "baseline dominance on lasso and logistic", ok,
           f"lasso {n_ada} vs adgd {n_adgd} vs fixed {n_fixed}; bb wins {wins}/5")
    assert lasso_ok
    assert logistic_ok


def test_criterion_6_bb_variant_properties():
    bad_term = bad_lam = checked = 0
    for seed in SEEDS:
        design = logistic_synthetic(200, 20, seed)
        problem = logistic_problem(design, logistic_gamma(design))
        cfg = SolverConfig(engine="adapgnc-bb", lambda0=1.0, max_iters=1000)
        res = run(problem, np.zeros(20), cfg, seed=seed)
        recs = res.trace.records
        xs, gs = replay_iterates(problem, np.zeros(20), res)
        for k in range(1, len(recs) + 1):
            dx = xs[k] - xs[k - 1]
            dg = gs[k] - gs[k - 1]
            term = float(np.dot(dg, dx)) / float(np.dot(dg, dg))
            checked += 1
            if term < 1.0 / problem.smooth.known_L - 1e-12:
                bad_term += 1
            if recs[k - 1].lam > 1.0 / recs[k - 1].L_k + 1e-12:
                bad_lam += 1
    ok = bad_term == 0 and bad_lam == 0
    report(6, "BB term within [1/L, 1/L_k] on convex smooth runs", ok,
           f"{checked} steps checked")
    assert bad_term == 0
    assert bad_lam == 0


def test_criterion_7_oracle_suites():
    from helpers import finite_difference_gradient
    from adaprox.problems import mc_problem, mc_synthetic

    t0 = time.perf_counter()

    # finite-difference gradient agreement, 100 points per problem
    fd_bad = 0
    problems = []
    d = logistic_synthetic(20, 6, seed=1)
    problems.append(logistic_problem(d, gamma=0.1))
    A, b, w = lasso_synthetic(12, 6, seed=2)
    problems.append(lasso_problem(A, b, w))
    problems.append(quadratic_problem([0.5, 1.0, 2.0, 3.0, 4.0, 5.0], seed=3))
    problems.append(nmf_problem(nmf_synthetic(3, 2, 3, seed=4), FactorShape(3, 3, 1)))
    obs = mc_synthetic(3, 2, 1, 5, noise=0.1, seed=5)
    problems.append(mc_problem(obs, FactorShape(3, 2, 1)))
    gen = rng(100)
    for problem in problems:
        dim = problem.dim
        for _ in range(100):
            x = gen.standard_normal(dim)
            fd = finite_difference_gradient(problem.smooth, x, 1e-6)
            g = problem.smooth.gradient(x)
            if np.linalg.norm(g - fd) > 1e-5 * (1.0 + np.linalg.norm(g)):
                fd_bad += 1

    # prox nonexpansiveness and optimality, 1000 cases each
    prox_bad = 0
    kinds = [Zero(), L1(0.7), NonnegIndicator(),
             BoxIndicator(-np.ones(4), np.ones(4)), L2Squared(2.0)]
    for i in range(1000):
        kind = kinds[i % len(kinds)]
        x = 3.0 * gen.standard_normal(4)
        y = 3.0 * gen.standard_normal(4)
        t = float(gen.uniform(0.05, 5.0))
        px, py = kind.prox(x, t), kind.prox(y, t)
        if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-12:
            prox_bad += 1
        obj_p = kind.value(px) + float(np.dot(px - x, px - x)) / (2 * t)
        z = px + 0.5 * gen.standard_normal(4)
        obj_z = kind.value(z) + float(np.dot(z - x, z - x)) / (2 * t)
        if obj_z < obj_p - 1e-10:
            prox_bad += 1

    # gradient-mapping norm monotone in the step length
    mono_bad = 0
    problem = lasso_problem(A, b, w)
    for _ in range(100):
        x = gen.standard_normal(6)
        e1, e2 = sorted(gen.uniform(0.01, 5.0, size=2))
        if np.linalg.norm(gradient_mapping(problem, x, e2)) > \
                np.linalg.norm(gradient_mapping(problem, x, e1)) + 1e-12:
            mono_bad += 1

    # bit-exact two-iteration replay (mirrors the production op order)
    from test_solver import reference_steps

    A2, b2, w2 = lasso_synthetic(12, 5, seed=21)
    problem2 = lasso_problem(A2, b2, w2)
    xs, lams, _, _, _ = reference_steps(problem2, np.zeros(5), 0.01, 2)
    res = run(lasso_problem(A2, b2, w2), np.zeros(5),
              SolverConfig(engine="adapgnc", lambda0=0.01, max_iters=2), seed=0)
    bit_exact = (np.array_equal(res.x_final, xs[-1])
                 and [res.trace.records[0].lam, res.trace.records[1].lam] == lams[1:])

    elapsed = time.perf_counter() - t0
    ok = fd_bad == 0 and prox_bad == 0 and mono_bad == 0 and bit_exact \
        and elapsed < 60.0
    report(7, "oracle suites: fd gradients, prox fuzz, replay", ok,
           f"{elapsed:.1f}s")
    assert fd_bad == 0
    assert prox_bad == 0
    assert mono_bad == 0
    assert bit_exact
    assert elapsed < 60.0


def test_criterion_8_curvature_detection_sanity():
    convex = quadratic_problem(np.linspace(1.0, 2.0, 10), seed=0)
    res_c = run(convex, rng(1).standard_normal(10),
                SolverConfig(engine="adapgnc", max_iters=200), seed=0)
    convex_ok = all(r.l_k <= 0.0 for r in res_c.trace.records)

    indef = quadratic_problem(np.linspace(-1.0, 2.0, 10), seed=0)
    res_i = run(indef, rng(1).standard_normal(10),
                SolverConfig(engine="adapgnc", max_iters=100), seed=0)
    recs = res_i.trace.records
    saw_positive = any(r.l_k > 0.0 for r in recs)
    cond_ok = True
    lam_prev = res_i.trace.lambda0
    for r in recs:
        lhs = r.lam ** 2 * r.L_k ** 2 + (r.lam ** 2 / lam_prev) * r.l_k
        cond_ok &= lhs <= 1.0 + SLACK
        lam_prev = r.lam
    ok = convex_ok and saw_positive and cond_ok
    report(8, "curvature branch detection on definite/indefinite quadratics", ok,
           f"{sum(r.l_k > 0 for r in recs)}/{len(recs)} nonconvex steps seen")
    assert convex_ok
    assert saw_positive
    assert cond_ok
