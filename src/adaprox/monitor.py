"""Runtime verification of the descent and step-size inequalities that back
the adaptive engines, replayed over an immutable solver trace.

Checks are reported under these names, in this order:

  fstar_free_descent         weighted objective + displacement decrease
  step_condition             lam^2 L^2 + (lam^2/lam_prev) l <= 1
  growth_cap                 lam_k <= sqrt(1 + rho_{k-1}) lam_{k-1}
  step_bounds                min(lam0, 1/(2L)) <= lam_k <= lam0 exp(P/2)
  omega_lower                recursion weights stay above their proven floor
  lyapunov_descent           V_k descent
  complexity_bound           min ||G||^2 <= 2 V_0/(omega lam k)
  complexity_bound_realized  the same bound with the realized weights
  sum_bound                  running sum lam_i^2 ||grad f + h'||^2 <= S

Checks whose inputs are unavailable (no certified L, no reference optimum,
no residuals streamed by a monitored run) are reported as skipped, never
silently passed, and an observation whose margin is NaN fails its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple

import numpy as np

from .core import CompositeProblem, UsageError
from .solver import MONITORED_ENGINES, Trace


@dataclass
class CheckResult:
    name: str
    passed: bool
    n_checked: int
    worst_slack: float  # max over k of lhs - rhs_with_tolerance; <= 0 passes, NaN fails
    first_failure: Optional[Tuple[int, float, float]] = None  # (k, lhs, rhs)


def _check(name: str, k, lhs, rhs, tol) -> CheckResult:
    """The inequality lhs <= rhs + tol at every observation, in array order.
    A margin that is not <= 0, NaN included, is a failure."""
    k, lhs, rhs, tol = np.broadcast_arrays(k, lhs, rhs, tol)
    margin = lhs - (rhs + tol)
    bad = np.flatnonzero(~(margin <= 0.0))
    first = None
    if bad.size:
        i = bad[0]
        first = (int(k[i]), float(lhs[i]), float(rhs[i]))
    worst = float(margin.max()) if margin.size else -math.inf
    return CheckResult(name=name, passed=first is None, n_checked=margin.size,
                       worst_slack=worst, first_failure=first)


@dataclass
class MonitorReport:
    checks: List[CheckResult] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    P: float = math.nan
    lam_lower: float = math.nan
    lam_upper: float = math.nan
    omega_lower: float = math.nan
    S: float = math.nan

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary_lines(self) -> List[str]:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = ""
            if c.first_failure is not None:
                k, lhs, rhs = c.first_failure
                extra = f" (k={k}: lhs={lhs:.6e} > rhs={rhs:.6e})"
            lines.append(f"{c.name}: {status} [{c.n_checked} checks, "
                         f"worst slack {c.worst_slack:.3e}]{extra}")
        for name in self.skipped:
            lines.append(f"{name}: skipped (inputs unavailable)")
        return lines


def squared_residual(x_prev, x, lam_prev: float, g_prev, g) -> float:
    """sum_bound's term ||grad f(x_k) + h'_k||^2 at step k, with h'_k =
    (x_{k-1} - x_k)/lam_{k-1} - grad f(x_{k-1}) implied by the prox step.
    The method sum skips np.sum's wrapper; it rounds the same."""
    r = g + ((x_prev - x) / lam_prev - g_prev)
    return (r * r).sum()


def _safe_exp(z: float) -> float:
    return math.inf if z > 700.0 else math.exp(z)


def monitor_constants(problem: Optional[CompositeProblem] = None, *,
                      fstar: Optional[float] = None,
                      known_L: Optional[float] = None) -> Tuple[Optional[float], Optional[float]]:
    """(known_L, fstar) for the checks: each as given, else the problem's.
    A known_L that is not positive and finite, or an fstar that is not
    finite, is a UsageError."""
    if known_L is None and problem is not None:
        known_L = problem.smooth.known_L
    if fstar is None and problem is not None:
        fstar = problem.known_fstar
    if known_L is not None and not 0.0 < known_L < math.inf:
        raise UsageError(f"known_L must be positive and finite, got {known_L}")
    if fstar is not None and not math.isfinite(fstar):
        raise UsageError(f"fstar must be finite, got {fstar}")
    return known_L, fstar


def lyapunov_weights(trace: Trace) -> np.ndarray:
    """omega_0 = 1 and omega_k = omega_{k-1} lam_k^2 / (lam_{k-1}^2 (1 + rho_{k-1})
    sqrt(1 + rho_{k-2})), with lam_0 = trace.lambda0, rho_{k-1} the rho_used
    of record k and rho_{-1} = 0. By the recursion: the product form
    over/underflows, and a cumprod rounds differently.

    The recursion runs on the records' Python floats. Where IEEE arithmetic
    overflows or divides by zero, or a rho below -1 has no square root, Python
    floats raise instead; that step is then taken in NumPy scalars, which give
    the IEEE inf or NaN (with NumPy's warning, outside monitor_check)."""
    omega = np.empty(len(trace.records) + 1)
    om = omega[0] = 1.0
    lam_p, rho_p = float(trace.lambda0), 0.0
    for k, r in enumerate(trace.records, 1):
        lam_k, rho_k = r.lam, r.rho_used
        try:
            om = _omega_step(om, lam_k, lam_p, rho_k, rho_p)
        except (ArithmeticError, ValueError):
            om = float(_omega_step(np.float64(om), np.float64(lam_k), np.float64(lam_p),
                                   rho_k, rho_p, np.sqrt))
        omega[k] = om
        lam_p, rho_p = lam_k, rho_k
    return omega


def _omega_step(om, lam_k, lam_p, rho_k, rho_p, sqrt=math.sqrt):
    """omega_k from omega_{k-1}, for Python floats with math.sqrt and NumPy
    scalars with np.sqrt alike: both roots are IEEE's, so they round the same."""
    return om * lam_k ** 2 / (lam_p ** 2 * (1.0 + rho_k) * sqrt(1.0 + rho_p))


@np.errstate(all="ignore")
def monitor_check(trace: Trace, problem: Optional[CompositeProblem] = None,
                  rho_total_value: Optional[float] = None, *,
                  fstar: Optional[float] = None,
                  known_L: Optional[float] = None) -> MonitorReport:
    """Replay every inequality the trace's engine is supposed to maintain.

    The tolerance at k is 1e-9 * (1 + |F(x_{k-1})|), with two exceptions: the
    step condition, whose right-hand side is the constant 1, gets 1e-9; the
    growth cap and the bounds on lam_k and omega_k get 1e-12 * max(1, bound),
    or max(1, lam0) for lam_upper.
    Only traces of the branch-rule engines are accepted; other engines carry
    no such guarantees. A known_L that is not positive and finite, an
    fstar that is not finite, or a trace whose lambda0 is not positive and
    finite or not the k=0 record's lambda (run writes the two equal), is a
    UsageError.

    The replay runs under one np.errstate that ignores every floating-point
    error: an overflow, a NaN or a root of a negative shows in the report,
    as an inf or NaN figure or a failed check, not as a NumPy warning.
    """
    if trace.engine not in MONITORED_ENGINES:
        raise UsageError(
            f"monitor covers engines {MONITORED_ENGINES}, got {trace.engine!r}")
    known_L, fstar = monitor_constants(problem, known_L=known_L, fstar=fstar)
    lam0 = trace.lambda0
    if not 0.0 < lam0 < math.inf or lam0 != trace.init.lam:
        raise UsageError(f"trace lambda0 must be positive, finite and the k=0 record's "
                         f"lambda, got {lam0} and {trace.init.lam}")
    have_consts = known_L is not None and rho_total_value is not None

    recs, rs = trace.records, trace.all_records()
    K = len(recs)

    def column(records, name):
        return np.fromiter(map(attrgetter(name), records), float, len(records))

    # Columns over k = 0..K, then their k-1 and k views over k = 1..K.
    lam, F, G = column(rs, "lam"), column(rs, "F_value"), column(rs, "gradmap_norm")
    lam_p, lam_k, F_p, F_k, G_p, G_k = lam[:-1], lam[1:], F[:-1], F[1:], G[:-1], G[1:]
    ks = np.arange(1, K + 1)
    tol = 1e-9 * (1.0 + np.abs(F_p))
    w = lam_p / (2.0 * lam_k ** 2)
    disp = w * (lam_k * G_k) ** 2

    report = MonitorReport()

    # (a) objective-plus-displacement descent, free of F_*.
    report.checks.append(_check(
        "fstar_free_descent", ks, F_k + disp,
        F_p + w * (lam_p * G_p) ** 2 - 0.5 * lam_p * G_p ** 2, tol))

    # (b) the step condition every emitted lambda must satisfy.
    L_k, l_k = column(recs, "L_k"), column(recs, "l_k")
    report.checks.append(_check(
        "step_condition", ks, lam_k ** 2 * L_k ** 2 + (lam_k ** 2 / lam_p) * l_k,
        1.0, 1e-9))

    # (b') the growth cap both rules take the min with, rho_{k-1} being record
    # k's rho_used. The replay forms the rules' own IEEE product, so an
    # unaltered trace meets it exactly; it needs no constants.
    cap = np.sqrt(1.0 + column(recs, "rho_used")) * lam_p
    report.checks.append(_check("growth_cap", ks, lam_k, cap, 1e-12 * np.maximum(1.0, cap)))

    # (c) two-sided step bounds; needs a certified L and the rho total P.
    if have_consts:
        report.P = rho_total_value
        lo = report.lam_lower = min(lam0, 1.0 / (2.0 * known_L))
        hi = report.lam_upper = lam0 * _safe_exp(rho_total_value / 2.0)
        # per k: the lower bound (lam_k >= lo as lhs <= rhs), then the upper
        report.checks.append(_check(
            "step_bounds", np.repeat(np.arange(K + 1), 2),
            np.column_stack((np.full(K + 1, lo), lam)).ravel(),
            np.column_stack((lam, np.full(K + 1, hi))).ravel(),
            np.tile([1e-12 * max(1.0, lo), 1e-12 * max(1.0, lam0)], K + 1)))
    else:
        report.skipped.append("step_bounds")

    # (d) Lyapunov weights.
    omega = lyapunov_weights(trace)
    if have_consts:
        try:
            om = lo ** 2 / lam0 ** 2
        except ArithmeticError:  # a square over- or underflows; lo <= lam0, so this does not
            om = (lo / lam0) ** 2
        om = report.omega_lower = om * _safe_exp(-1.5 * rho_total_value)
        report.checks.append(_check("omega_lower", ks, om, omega[1:],
                                    1e-12 * max(1.0, om)))
    else:
        report.skipped.append("omega_lower")

    # (e) Lyapunov descent and the complexity bound; needs a reference optimum.
    if fstar is not None and K >= 1:
        V0 = F[0] - fstar + 0.5 * lam0 * G[0] ** 2
        V = np.concatenate(([V0], omega[1:] * (F_k - fstar + disp)))
        report.checks.append(_check(
            "lyapunov_descent", ks, V[1:],
            V[:-1] - 0.5 * omega[1:] * lam_p * G_p ** 2, tol))
        min_gsq = np.minimum.accumulate(G_p ** 2)
        if have_consts:
            bound = np.full(K, math.inf) if om * lo == 0.0 else 2.0 * V0 / (om * lo * ks)
            report.checks.append(_check("complexity_bound", ks, min_gsq, bound, tol))
        else:
            report.skipped.append("complexity_bound")
        report.checks.append(_check(
            "complexity_bound_realized", ks, min_gsq,
            2.0 * V0 / np.cumsum(omega[1:] * lam_p), tol))
    else:
        report.skipped.extend(["lyapunov_descent", "complexity_bound",
                               "complexity_bound_realized"])

    # (f) bound on the running weighted subgradient-residual sum; needs the
    # constants above and the residuals streamed by run().
    sq = trace.residual_sq
    if fstar is not None and have_consts and K >= 1 and sq is not None:
        try:
            report.S = (math.inf if math.isinf(hi) or om == 0.0 else
                        (hi ** 2 / lo) * (2.0 * hi ** 2 / (om * lo ** 2) * V0
                                          + 2.0 * (F[0] - fstar)))
        except ArithmeticError:  # hi^2 overflows or lo^2 underflows: S is past float64
            report.S = math.inf
        report.checks.append(_check("sum_bound", ks, np.cumsum(lam_k ** 2 * sq),
                                    report.S, tol))
    else:
        report.skipped.append("sum_bound")

    return report
