"""Step-size engines and curvature estimation.

Index convention: at iteration k an engine consumes rho_{k-1}; rho_k is only
generated after lambda_k is known, so the ratio-capped sequence can use
lambda_k / lambda_{k-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LineSearchFailed, NonconvexDetected, UsageError, Vector

#: Relative threshold below which ||x_cur - x_prev|| makes the secant
#: estimators meaningless and the run is declared stationary.
DEGENERACY_REL = 1e-15

#: Below this relative magnitude the lower-curvature estimate is pure
#: cancellation noise and is snapped to 0 (the convex branch is the limit).
L_LOWER_SNAP = 1e-12

#: The l_k numerator is a difference of O(|f|) quantities; once it drops below
#: this multiple of their magnitudes it is double-precision round-off, and
#: dividing it by a vanishing ||dx||^2 would fabricate arbitrary curvature.
L_NUMERATOR_SNAP = 1e-13

ARMIJO_BASE = 1e-3
ARMIJO_MAX_HALVINGS = 60


@dataclass(frozen=True)
class CurvaturePair:
    """Local secant estimates: L_k of the Lipschitz constant, l_k of the
    lower curvature (negative where local convexity is strict)."""

    L_k: float
    l_k: float


def degenerate(nd: float, x_cur: Vector) -> bool:
    """True when nd = ||x_cur - x_prev|| is below the stationarity threshold."""
    return nd <= DEGENERACY_REL * (1.0 + float(np.linalg.norm(x_cur)))


def estimate_curvature(dx: Vector, nd: float, dg: Vector, grad_cur: Vector,
                       f_prev: float, f_cur: float, lambda_prev: float) -> CurvaturePair:
    """Secant curvature estimates from dx = x_cur - x_prev, nd = ||dx|| and
    dg = grad_cur - grad_prev.

    L_k = ||dg|| / nd;  l_k = 2 (f_cur - f_prev + <grad_cur, -dx>) / nd^2.
    """
    L_k = float(np.linalg.norm(dg)) / nd
    inner = float(np.dot(grad_cur, -dx))
    num = f_cur - f_prev + inner
    cancel_scale = abs(f_cur) + abs(f_prev) + abs(inner)
    if abs(num) < L_NUMERATOR_SNAP * cancel_scale:
        num = 0.0
    l_k = 2.0 * num / nd**2
    if abs(l_k) < L_LOWER_SNAP * max(1.0, L_k**2 * lambda_prev):
        l_k = 0.0
    return CurvaturePair(L_k=L_k, l_k=l_k)


def _check_step_inputs(lambda_prev: float, rho_used: float) -> None:
    if not (lambda_prev > 0.0 and math.isfinite(lambda_prev)):
        raise UsageError(f"lambda_prev must be positive and finite, got {lambda_prev}")
    if not (rho_used >= 0.0 and math.isfinite(rho_used)):
        raise UsageError(f"rho must be nonnegative and finite, got {rho_used}")


def adapgnc_step(lambda_prev: float, rho_used: float, curv: CurvaturePair) -> float:
    """Branching step rule: aggressive 1/L_k where local convexity holds,
    conservative otherwise. c/0 = +inf, so a zero estimate leaves the growth
    cap binding."""
    _check_step_inputs(lambda_prev, rho_used)
    cap = math.sqrt(1.0 + rho_used) * lambda_prev
    if curv.l_k <= 0.0:
        inv_L = math.inf if curv.L_k == 0.0 else 1.0 / curv.L_k
        return min(cap, inv_L)
    inv_sqrt2_L = math.inf if curv.L_k == 0.0 else 1.0 / (math.sqrt(2.0) * curv.L_k)
    return min(cap, inv_sqrt2_L, math.sqrt(lambda_prev / (2.0 * curv.l_k)))


def relaxed_step(lambda_prev: float, rho_used: float, curv: CurvaturePair) -> float:
    """Relaxed rule: lambda = min{cap, ([L_k^2 + l_k/lambda_prev]_+)^(-1/2)}."""
    _check_step_inputs(lambda_prev, rho_used)
    cap = math.sqrt(1.0 + rho_used) * lambda_prev
    u = max(curv.L_k**2 + curv.l_k / lambda_prev, 0.0)
    return min(cap, math.inf if u == 0.0 else 1.0 / math.sqrt(u))


def bb_step(lambda_prev: float, rho_used: float, dx: Vector, dg: Vector) -> float:
    """Short Barzilai-Borwein step under the growth cap, for a nondegenerate
    dx. Convex-setting only: a nonpositive secant product is reported, not
    papered over."""
    _check_step_inputs(lambda_prev, rho_used)
    cap = math.sqrt(1.0 + rho_used) * lambda_prev
    dg_sq = float(np.dot(dg, dg))
    if dg_sq == 0.0:
        return cap
    num = float(np.dot(dg, dx))
    if num <= 0.0:
        raise NonconvexDetected(f"<dg, dx> = {num} <= 0 with ||dg|| > 0")
    return min(cap, num / dg_sq)


def adgd_step(lambda_prev: float, lambda_prevprev: float, curv: CurvaturePair) -> float:
    """Baseline ratio-capped rule: min{sqrt(1 + lam_prev/lam_prevprev) lam_prev, 1/(2 L_k)}."""
    if not (lambda_prev > 0.0 and lambda_prevprev > 0.0):
        raise UsageError("both previous step sizes must be positive")
    theta = lambda_prev / lambda_prevprev
    inv_2L = math.inf if curv.L_k == 0.0 else 1.0 / (2.0 * curv.L_k)
    return min(math.sqrt(1.0 + theta) * lambda_prev, inv_2L)


def armijo_search(value: Callable[[Vector], float], x: Vector, grad: Vector,
                  f_x: Optional[float] = None):
    """Backtracking on f = ``value``: smallest m >= 0 with
    f(x - 1e-3 2^-m grad) <= f(x) - 1e-3 2^-(m+1) ||grad||^2.

    Returns (step, m). A cap of 60 halvings (step ~1e-21, below the double
    resolution of the decrease test) raises LineSearchFailed.
    """
    g_sq = float(np.dot(grad, grad))
    if g_sq == 0.0:
        raise UsageError("armijo_search requires a nonzero gradient")
    if f_x is None:
        f_x = float(value(x))
    for m in range(ARMIJO_MAX_HALVINGS + 1):
        step = ARMIJO_BASE * 2.0**-m
        if float(value(x - step * grad)) <= f_x - 0.5 * step * g_sq:
            return step, m
    raise LineSearchFailed(f"no sufficient decrease within {ARMIJO_MAX_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# Growth-control sequences

#: Built-in sequences, each named after its ``RhoSequence`` factory.
RHO_NAMES = ("rho1", "rho2", "zero")


@dataclass(frozen=True)
class RhoSequence:
    """Nonnegative summable sequence regulating step growth.

    kind: "rho1" | "rho2" | "zero" | "custom".  rho1/rho2 follow the
    100 (ln(k+1))^4 / (k+1)^1.1 profile for k >= 1, rho1 additionally capped
    by the realized step ratio. "custom" takes its values verbatim from
    ``table`` (zero beyond it), including index 0.
    """

    kind: str
    rho0: float = 1e10
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in RHO_NAMES + ("custom",):
            raise UsageError(f"unknown rho kind {self.kind!r}")
        if not 0.0 <= self.rho0 < math.inf:
            raise UsageError(f"rho0 must be nonnegative and finite, got {self.rho0}")
        if self.kind == "custom":
            if self.table is None:
                raise UsageError("custom rho sequence needs a table")
            tab = tuple(float(v) for v in self.table)
            if not all(0.0 <= v < math.inf for v in tab):
                raise UsageError("rho values must be nonnegative and finite")
            object.__setattr__(self, "table", tab)

    @staticmethod
    def rho1(rho0: float = 1e10) -> "RhoSequence":
        return RhoSequence("rho1", rho0=rho0)

    @staticmethod
    def rho2(rho0: float = 1e10) -> "RhoSequence":
        return RhoSequence("rho2", rho0=rho0)

    @staticmethod
    def zero(rho0: float = 0.0) -> "RhoSequence":
        return RhoSequence("zero", rho0=rho0)

    @staticmethod
    def custom(values) -> "RhoSequence":
        values = tuple(float(v) for v in values)
        return RhoSequence("custom", rho0=values[0] if values else 0.0, table=values)


def _rho2_term(k: int) -> float:
    return 100.0 * math.log(k + 1) ** 4 / (k + 1) ** 1.1


def rho_value(seq: RhoSequence, k: int, lambda_ratio: Optional[float] = None) -> float:
    """Value rho_k; rho1 for k >= 1 needs the realized ratio lambda_k/lambda_{k-1}."""
    if k < 0:
        raise UsageError("k must be nonnegative")
    if seq.kind == "custom":
        return seq.table[k] if k < len(seq.table) else 0.0
    if k == 0:
        return seq.rho0
    if seq.kind == "zero":
        return 0.0
    if seq.kind == "rho2":
        return _rho2_term(k)
    if lambda_ratio is None:
        raise UsageError("rho1 requires lambda_ratio = lambda_k / lambda_{k-1} for k >= 1")
    if not lambda_ratio > 0.0:
        raise UsageError("lambda_ratio must be positive")
    return min(lambda_ratio, _rho2_term(k))


#: Upper bound on sum_{k>=1} of the rho2 terms: the partial sum over
#: 1 <= k <= 100000, added small terms first, plus the integral tail bound
#: 1e7 * Gamma(5, 0.1 ln(100001)) (with u = ln(x+1) the tail integral becomes
#: 1e7 * Integral s^4 exp(-s) ds; the summand decreases from k ~ 40 on, so
#: the integral dominates the tail).
RHO2_SERIES_UPPER = 240000003.00234416


def rho_total(seq: RhoSequence) -> float:
    """Upper bound on P = sum_k rho_k.

    For rho1 the realized sum is data dependent; the rho2 total bounds it
    from above (each rho1 term is capped by the rho2 term).
    """
    if seq.kind == "zero":
        return seq.rho0
    if seq.kind == "custom":
        return float(sum(seq.table))
    return seq.rho0 + RHO2_SERIES_UPPER
