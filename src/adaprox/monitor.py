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
no residuals) are reported as skipped, never silently passed, and an
observation whose margin is NaN fails its check. sum_bound's residuals are
the trace's residual_sq column: one scalar per kept step, which only a
monitored run computes, in the expanded form
||dg||^2 - 2<dg, dx>/lam_{k-1} + ||dx||^2/lam_{k-1}^2 (see solver.run), and
which a trace file holds like any other column. Its row 0 is 0.0 when the
residuals were computed and NaN when not, so a NaN residual at k >= 1 fails
sum_bound while a trace without residuals skips it.

The replay, live or over a read trace, takes the records in fixed blocks and
carries the recursions and running sums from one block to the next, so its
working memory does not grow with the trace and its report does not depend
on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """The inequality lhs <= rhs + tol at every k, in array order; k is an
    array and each of lhs, rhs and tol an array of its length or a scalar.
    A margin that is not <= 0, NaN included, is a failure; the max of the
    margins propagates NaN, so only a check that fails searches for its first
    failure."""
    margin = lhs - (rhs + tol)
    worst = float(margin.max()) if margin.size else -math.inf
    first = None
    if not worst <= 0.0:
        i = int((~(margin <= 0.0)).argmax())
        first = (int(k[i]), _at(lhs, i), _at(rhs, i))
    return CheckResult(name=name, passed=first is None, n_checked=len(k),
                       worst_slack=worst, first_failure=first)


def _at(a, i: int) -> float:
    """Observation i of an array, or the scalar every observation shares."""
    return float(a[i] if np.ndim(a) else a)


def _both(a: CheckResult, b: CheckResult) -> CheckResult:
    """Two checks over the same k reported as one, under a's name: the earliest
    first failure, a's at a tied k, and the NaN-propagating max of the two
    worst slacks."""
    first = min((c.first_failure for c in (a, b) if c.first_failure is not None),
                key=lambda f: f[0], default=None)
    return CheckResult(name=a.name, passed=first is None, n_checked=a.n_checked + b.n_checked,
                       worst_slack=float(np.maximum(a.worst_slack, b.worst_slack)),
                       first_failure=first)


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


def lyapunov_weights(lam: np.ndarray, rho: np.ndarray, omega_first: float = 1.0,
                     rho_first: float = 0.0) -> np.ndarray:
    """omega_0 = 1 and omega_k = omega_{k-1} lam_k^2 / (lam_{k-1}^2 (1 + rho_{k-1})
    sqrt(1 + rho_{k-2})), from columns over k = 0..K: lam_k = lam[k], rho_{k-1}
    = rho[k] (record k's rho_used) and rho_{-1} = 0. By the recursion: the
    product form over/underflows, and a cumprod rounds differently.

    Given columns over k = a-1..b-1 instead, with omega_first = omega_{a-1}
    and rho_first = rho_{a-2}, it gives omega_{a-1}..omega_{b-1}, bit for bit
    the entries of the whole recursion: the monitor's replay carries the
    weight from block to block so.

    The recursion runs on Python floats via memoryviews. Where IEEE arithmetic
    overflows or divides by zero, or a rho below -1 has no square root, Python
    floats raise instead; that step is then taken in NumPy scalars, which give
    the IEEE inf or NaN (with NumPy's warning, outside monitor_check)."""
    lams, rhos = memoryview(lam), memoryview(rho)
    omega = np.empty(len(lams))
    out = memoryview(omega)
    om = out[0] = omega_first
    lam_p, rho_p = lams[0], rho_first
    for k, lam_k, rho_k in zip(range(1, len(lams)), lams[1:], rhos[1:]):
        try:
            om = _omega_step(om, lam_k, lam_p, rho_k, rho_p)
        except (ArithmeticError, ValueError):
            om = float(_omega_step(np.float64(om), np.float64(lam_k), np.float64(lam_p),
                                   rho_k, rho_p, np.sqrt))
        out[k] = om
        lam_p, rho_p = lam_k, rho_k
    return omega


def _omega_step(om, lam_k, lam_p, rho_k, rho_p, sqrt=math.sqrt):
    """omega_k from omega_{k-1}, for Python floats with math.sqrt and NumPy
    scalars with np.sqrt alike: both roots are IEEE's, so they round the same."""
    return om * lam_k ** 2 / (lam_p ** 2 * (1.0 + rho_k) * sqrt(1.0 + rho_p))


#: Records replayed at a time: the replay's arrays are at most this long,
#: whatever the trace's length.
_BLOCK_ROWS = 1024


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
    fstar that is not finite, a rho_total_value that is NaN or negative
    (+inf is accepted: the bounds it enters are then vacuous), or a trace
    whose lambda0 is not positive and finite or not the k=0 record's lambda
    (run writes the two equal), is a UsageError.

    The records are replayed in blocks of _BLOCK_ROWS, so the replay's
    working memory does not grow with the trace. Each block carries on the
    state of the one before it: omega's recursion, V_{k-1}, the running
    min ||G||^2 and the two running sums. These are sequential, as is each
    check's merge of its blocks (_both), so the report is the same, bit for
    bit, at any block size.

    The replay runs under one np.errstate that ignores every floating-point
    error: an overflow, a NaN or a root of a negative shows in the report,
    as an inf or NaN figure or a failed check, not as a NumPy warning.
    """
    if trace.engine not in MONITORED_ENGINES:
        raise UsageError(
            f"monitor covers engines {MONITORED_ENGINES}, got {trace.engine!r}")
    known_L, fstar = monitor_constants(problem, known_L=known_L, fstar=fstar)
    if rho_total_value is not None and not rho_total_value >= 0.0:
        raise UsageError(f"rho_total_value must be nonnegative, got {rho_total_value}")
    rows, lam0, K = trace.rows, trace.lambda0, trace.iterations
    if not 0.0 < lam0 < math.inf or lam0 != rows["lam"][0]:
        raise UsageError(f"trace lambda0 must be positive, finite and the k=0 record's "
                         f"lambda, got {lam0} and {rows['lam'][0]}")
    have_consts = known_L is not None and rho_total_value is not None
    # (e) needs a reference optimum; (f) also the constants and the residuals
    # computed by run(), which mark row 0
    lyapunov = fstar is not None and K >= 1
    sums = lyapunov and have_consts and not math.isnan(rows["residual_sq"][0])

    report = MonitorReport()
    if not have_consts:
        report.skipped += ["step_bounds", "omega_lower"]
    if not lyapunov:
        report.skipped += ["lyapunov_descent", "complexity_bound", "complexity_bound_realized"]
    elif not have_consts:
        report.skipped.append("complexity_bound")
    if not sums:
        report.skipped.append("sum_bound")
    if have_consts:
        report.P = rho_total_value
        lo = report.lam_lower = min(lam0, 1.0 / (2.0 * known_L))
        hi = report.lam_upper = lam0 * _safe_exp(rho_total_value / 2.0)
        try:
            om = lo ** 2 / lam0 ** 2
        except ArithmeticError:  # a square over- or underflows; lo <= lam0, so this does not
            om = (lo / lam0) ** 2
        om = report.omega_lower = om * _safe_exp(-1.5 * rho_total_value)
    if lyapunov:
        F0, G0 = rows["F_value"][0], rows["gradmap_norm"][0]
        V0 = V_p = F0 - fstar + 0.5 * lam0 * G0 ** 2
    if sums:
        try:
            report.S = (math.inf if math.isinf(hi) or om == 0.0 else
                        (hi ** 2 / lo) * (2.0 * hi ** 2 / (om * lo ** 2) * V0
                                          + 2.0 * (F0 - fstar)))
        except ArithmeticError:  # hi^2 overflows or lo^2 underflows: S is past float64
            report.S = math.inf

    # The state carried from block to block: omega_{a-1}, V_{a-1} (set above),
    # the min of ||G||^2 so far and the two running sums, which start at -0.0,
    # the one float whose sum with x is x bit for bit.
    omega_p, min_gsq_p, weight_sum, residual_sum = 1.0, math.inf, -0.0, -0.0
    checks = None
    for a in range(1, max(K, 1) + 1, _BLOCK_ROWS):
        # records a-1..b-1: the k-1 and k views over k = a..b-1; at K = 0, one
        # block of record 0 alone
        b = min(a + _BLOCK_ROWS, K + 1)
        block = rows[a - 1:b]
        lam, F, G = block["lam"], block["F_value"], block["gradmap_norm"]
        lam_p, lam_k, F_p, F_k, G_p, G_k = lam[:-1], lam[1:], F[:-1], F[1:], G[:-1], G[1:]
        ks = np.arange(a, b)
        tol = 1e-9 * (1.0 + np.abs(F_p))
        w = lam_p / (2.0 * lam_k ** 2)
        disp = w * (lam_k * G_k) ** 2

        # (a) objective-plus-displacement descent, free of F_*.
        out = [_check("fstar_free_descent", ks, F_k + disp,
                      F_p + w * (lam_p * G_p) ** 2 - 0.5 * lam_p * G_p ** 2, tol)]

        # (b) the step condition every emitted lambda must satisfy.
        L_k, l_k = block["L_k"][1:], block["l_k"][1:]
        out.append(_check("step_condition", ks,
                          lam_k ** 2 * L_k ** 2 + (lam_k ** 2 / lam_p) * l_k, 1.0, 1e-9))

        # (b') the growth cap both rules take the min with, rho_{k-1} being
        # record k's rho_used. The replay forms the rules' own IEEE product, so
        # an unaltered trace meets it exactly; it needs no constants.
        rho = block["rho_used"]
        cap = np.sqrt(1.0 + rho[1:]) * lam_p
        out.append(_check("growth_cap", ks, lam_k, cap, 1e-12 * np.maximum(1.0, cap)))

        # (c) two-sided step bounds over k = 0..K, the first block taking k = 0;
        # per k, lam_k >= lo (as lhs <= rhs), reported first at a tied k, and
        # lam_k <= hi.
        if have_consts:
            kk, lam_c = (np.arange(b), lam) if a == 1 else (ks, lam_k)
            out.append(_both(
                _check("step_bounds", kk, lo, lam_c, 1e-12 * max(1.0, lo)),
                _check("step_bounds", kk, lam_c, hi, 1e-12 * max(1.0, lam0))))

        # (d) Lyapunov weights over k = a-1..b-1, computed only for the checks
        # below that read them; rho_{a-2} is record a-1's rho_used, but rho_{-1} = 0.
        if have_consts or fstar is not None:
            omega = lyapunov_weights(lam, rho, omega_p, 0.0 if a == 1 else float(rho[0]))
            omega_p = float(omega[-1])
            omega = omega[1:]
        if have_consts:
            out.append(_check("omega_lower", ks, om, omega, 1e-12 * max(1.0, om)))

        # (e) Lyapunov descent and the complexity bound.
        if lyapunov:
            V = np.empty(b - a + 1)
            V[0] = V_p
            np.multiply(omega, F_k - fstar + disp, out=V[1:])
            V_p = V[-1]
            out.append(_check("lyapunov_descent", ks, V[1:],
                              V[:-1] - 0.5 * omega * lam_p * G_p ** 2, tol))
            min_gsq = G_p ** 2
            min_gsq[0] = np.minimum(min_gsq[0], min_gsq_p)
            np.minimum.accumulate(min_gsq, out=min_gsq)
            min_gsq_p = min_gsq[-1]
            if have_consts:
                bound = np.full(b - a, math.inf) if om * lo == 0.0 else 2.0 * V0 / (om * lo * ks)
                out.append(_check("complexity_bound", ks, min_gsq, bound, tol))
            weights = omega * lam_p
            weights[0] += weight_sum
            np.cumsum(weights, out=weights)
            weight_sum = weights[-1]
            out.append(_check("complexity_bound_realized", ks, min_gsq,
                              2.0 * V0 / weights, tol))

        # (f) bound on the running weighted subgradient-residual sum.
        if sums:
            terms = lam_k ** 2 * block["residual_sq"][1:]
            terms[0] += residual_sum
            np.cumsum(terms, out=terms)
            residual_sum = terms[-1]
            out.append(_check("sum_bound", ks, terms, report.S, tol))

        checks = out if checks is None else list(map(_both, checks, out))

    report.checks = checks
    return report
