"""Correctness checks on the outputs of a benchmark job.

Every reference value here is computed from the generated arrays with NumPy
and SciPy, apart from adaprox's own oracles. Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

TRACE_FIELDS = ("k", "elapsed_seconds", "f_value", "F_value", "gradmap_norm",
                "lam", "L_k", "l_k", "rho_used", "n_gradient", "n_prox")
TRACE_META = ("problem_name", "engine", "lambda0", "termination", "seed")


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def trace_roundtrip(live, back) -> list:
    """The trace read back equals the live trace, record for record, in every
    persisted field (``n_value`` is not persisted)."""
    fails = [f"metadata {name}: {getattr(live, name)!r} != {getattr(back, name)!r}"
             for name in TRACE_META if not _same(getattr(live, name), getattr(back, name))]
    a, b = live.all_records(), back.all_records()
    if len(a) != len(b):
        return fails + [f"record count {len(a)} != {len(b)}"]
    for ra, rb in zip(a, b):
        for name in TRACE_FIELDS:
            if not _same(getattr(ra, name), getattr(rb, name)):
                fails.append(f"record k={ra.k} field {name}: "
                             f"{getattr(ra, name)!r} != {getattr(rb, name)!r}")
                return fails
    return fails


def monitor_agreement(live, replay) -> list:
    """Every check run by both the live monitor and the replay passes. With no
    live report, every check of the replay passes."""
    if live is None:
        return [f"replay check {c.name} failed at {c.first_failure}"
                for c in replay.checks if not c.passed]
    live_names = {c.name for c in live.checks}
    fails = []
    for c in replay.checks:
        if c.name in live_names and not (c.passed and live.check(c.name).passed):
            fails.append(f"monitor check {c.name}: live passed={live.check(c.name).passed}, "
                         f"replay passed={c.passed}")
    return fails


def terminated_on_tol(result) -> list:
    t = result.trace.termination
    return [] if t == "tol" else [f"solve terminated by {t!r}, expected 'tol'"]


# ---------------------------------------------------------------------------
# Logistic regression


def logistic_value_grad(A, y, gamma: float, x):
    """F and grad f of the mean cross-entropy plus (gamma/2)||x||^2."""
    z = A @ x
    F = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * gamma * float(x @ x)
    r = expit(z) - y
    return F, A.T @ r / A.shape[0] + gamma * x, r


def logistic_output(A, y, gamma: float, L_true: float, fstar_ref: float,
                    tol: float, problem, result) -> list:
    """Reference F and grad f agree with the program's to rounding; the final
    gradient obeys the one-step bound from the last recorded gradient mapping;
    the strong-convexity bound F(x) - F* <= ||grad f(x)||^2 / (2 gamma) holds
    at x_final against the SciPy reference F*."""
    fails = []
    x = result.x_final
    F_b, g_b, r = logistic_value_grad(A, y, gamma, x)
    F_p, g_p = problem.smooth.value_and_gradient(x)
    if abs(F_b - F_p) > 1e-11 * (1.0 + abs(F_b)):
        fails.append(f"F(x_final): reference {F_b!r} != program {F_p!r}")
    scale = abs(A).T @ np.abs(r) / A.shape[0] + gamma * np.abs(x)
    if np.any(np.abs(g_b - g_p) > 1e-9 * scale + 1e-300):
        fails.append("grad f(x_final): reference and program disagree beyond rounding")
    F_best = logistic_value_grad(A, y, gamma, result.best)[0]
    if abs(F_best - result.best_F) > 1e-11 * (1.0 + abs(F_best)):
        fails.append(f"F(best): reference {F_best!r} != reported {result.best_F!r}")
    # x_final = x_K - lam_K grad f(x_K) and gamma I <= Hessian <= L I, so
    # ||grad f(x_final)|| <= max(1, lam_K L - 1) ||grad f(x_K)|| <= max(1, lam_K L - 1) tol.
    lam_K = result.trace.records[-1].lam if result.trace.records else result.trace.lambda0
    g_norm = float(np.linalg.norm(g_b))
    g_bound = max(1.0, lam_K * L_true - 1.0) * tol * (1.0 + 1e-6)
    if g_norm > g_bound:
        fails.append(f"||grad f(x_final)|| = {g_norm:.3e} exceeds {g_bound:.3e}")
    gap_bound = g_norm ** 2 / (2.0 * gamma) + 1e-13 * (1.0 + abs(F_b))
    if F_b - fstar_ref > gap_bound:
        fails.append(f"F(x_final) - F* = {F_b - fstar_ref:.3e} exceeds "
                     f"||grad f||^2/(2 gamma) = {gap_bound:.3e}")
    return fails


def certified_L(known_L: float, lam_max: float, m: int, gamma: float) -> list:
    """The certified constant is an upper bound: known_L >= lam_max(A^T A)/(4m) + gamma."""
    L_true = lam_max / (4.0 * m) + gamma
    if known_L >= L_true:
        return []
    return [f"known_L = {known_L!r} is below lambda_max/(4m) + gamma = {L_true!r} "
            f"(relative shortfall {(L_true - known_L) / L_true:.2e})"]


# ---------------------------------------------------------------------------
# Nonnegative matrix factorization


def nmf_value_grad(A, r: int, z):
    p, q = A.shape
    U, V = z[:p * r].reshape(p, r), z[p * r:].reshape(q, r)
    R = U @ V.T - A
    return 0.5 * float(np.sum(R * R)), np.concatenate([(R @ V).ravel(), (R.T @ U).ravel()])


def nmf_output(A, r: int, x0, tol: float, result) -> list:
    """x_final >= 0; F(best) < F(x0); the gradient mapping recomputed at the
    last recorded iterate with the recorded step lies within the tolerance,
    and x_final is that prox-gradient step."""
    fails = []
    if np.any(result.x_final < 0.0):
        fails.append("x_final has negative entries")
    F_best = nmf_value_grad(A, r, result.best)[0]
    F_0 = nmf_value_grad(A, r, x0)[0]
    if not F_best < F_0:
        fails.append(f"F(best) = {F_best!r} is not below F(x0) = {F_0!r}")
    if abs(F_best - result.best_F) > 1e-10 * (1.0 + abs(F_best)):
        fails.append(f"F(best): reference {F_best!r} != reported {result.best_F!r}")
    last = result.trace.records[-1] if result.trace.records else result.trace.init
    if last.x is None:
        return fails + ["last record carries no iterate; monitored runs keep them"]
    step = np.maximum(last.x - last.lam * nmf_value_grad(A, r, last.x)[1], 0.0)
    G = float(np.linalg.norm(last.x - step)) / last.lam
    if G > tol * (1.0 + 1e-6):
        fails.append(f"recomputed gradient mapping {G:.6e} exceeds tol {tol:.1e}")
    if abs(G - last.gradmap_norm) > 1e-6 * tol:
        fails.append(f"recomputed gradient mapping {G!r} != recorded {last.gradmap_norm!r}")
    if np.any(np.abs(result.x_final - step) > 1e-9 * (1.0 + np.abs(step))):
        fails.append("x_final is not the prox-gradient step from the last record")
    return fails


# ---------------------------------------------------------------------------
# Convex quadratic


def rotated_quadratic(eigenvalues, rotation):
    Q = rotation @ np.diag(eigenvalues) @ rotation.T
    return 0.5 * (Q + Q.T)


def quadratic_output(Q, eigenvalues, tol: float, problem, result) -> list:
    """With x* = 0 and x_final = (I - lam_K Q) x_K, ||Q x_final|| <=
    max_i |1 - lam_K e_i| ||Q x_K|| <= max_i |1 - lam_K e_i| tol."""
    fails = []
    x = result.x_final
    g_b = Q @ x
    g_p = problem.smooth.gradient(x)
    if np.any(np.abs(g_b - g_p) > 1e-12 * (np.abs(Q) @ np.abs(x)) + 1e-300):
        fails.append("grad f(x_final): reference and program disagree beyond rounding")
    lam_K = result.trace.records[-1].lam if result.trace.records else result.trace.lambda0
    bound = float(np.max(np.abs(1.0 - lam_K * np.asarray(eigenvalues)))) * tol
    g_norm = float(np.linalg.norm(g_b))
    if g_norm > bound * (1.0 + 1e-9) + 1e-15:
        fails.append(f"||Q x_final|| = {g_norm:.6e} exceeds the closed-form bound {bound:.6e}")
    Qb = Q @ result.best
    F_best = 0.5 * float(result.best @ Qb)
    if abs(F_best - result.best_F) > 1e-12 * float(np.abs(result.best) @ np.abs(Qb)) + 1e-300:
        fails.append(f"F(best): reference {F_best!r} != reported {result.best_F!r}")
    return fails


def all_checks_ran(report) -> list:
    return [] if not report.skipped else [f"monitor skipped {report.skipped}"]
