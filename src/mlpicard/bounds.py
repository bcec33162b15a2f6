"""Computable a-priori error bounds, regularity bounds, and cost accounting.

Everything here is deterministic arithmetic: regularity bounds for the exact
solution derived from the problem's Lipschitz data, the L2 error bound for
the depth-n estimator, the exact recursion counting scalar draws, its closed
geometric bound, and a schedule solver inverting the error bound.

Exponent convention: this module uses the *density* exponent
alpha in (0, 1), i.e. time fractions with density (1-alpha) b^(-alpha)
(CDF b^(1-alpha)).  The sampler's CDF exponent is e = 1 - alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .integrals import HypothesisViolated

__all__ = [
    "RegularityData",
    "ErrorBoundInput",
    "Overflow",
    "AdmissibilityViolated",
    "NoFeasibleDepth",
    "gradient_bound",
    "solution_moment_bound",
    "error_bound",
    "cost_rv",
    "cost_bound_closed",
    "schedule",
]

# Largest exact cost honored before declaring the count out of contract:
# counts are kept within signed 128-bit integer range so they stay portable
# to fixed-width accumulators.
_COST_LIMIT = 2**127 - 1

MAX_SCHEDULE_DEPTH = 50


class Overflow(OverflowError):
    """A cost exceeded the 128-bit accounting contract."""


class AdmissibilityViolated(ValueError):
    """Schedule M-rule exponent outside the admissible range for alpha."""


class NoFeasibleDepth(RuntimeError):
    """No depth n <= MAX_SCHEDULE_DEPTH meets the accuracy target."""


@dataclass(frozen=True)
class RegularityData:
    """Lipschitz constants and moment norms feeding the bounds.

    ``l0``: Lipschitz constant of f in the value argument y.
    ``l``: d-vector of Lipschitz constants of f in the gradient argument z.
    ``frak_l``: d-vector of Lipschitz constants of f in x.  When only the
    combined space constant of the problem is known, passing K here is the
    conservative default.
    ``k``: d-vector of Lipschitz constants of g in x.
    ``g_moment``: sup over s in [0, T] of || g(xi + sqrt(s) Z) ||_{L^q}.
    ``f0_moment``: sup over times of || f(t, xi + sqrt(s) Z, 0, 0) ||_{L^q}.
    ``q``: the moment order of the two norms, > 2.  The error bound at p
    needs q >= 2p/(p-2); a higher order still gives an upper bound, since
    L^q norms grow with q.
    """

    l0: float
    l: tuple[float, ...]
    frak_l: tuple[float, ...]
    k: tuple[float, ...]
    g_moment: float
    f0_moment: float
    q: float

    def __post_init__(self):
        for name in ("l", "frak_l", "k"):
            if any(c < 0 for c in getattr(self, name)):
                raise ValueError(f"{name} entries must be nonnegative")
        if self.l0 < 0 or self.g_moment < 0 or self.f0_moment < 0:
            raise ValueError("scalar regularity inputs must be nonnegative")
        if not self.q > 2.0:
            raise ValueError(f"moment order q must exceed 2, got {self.q}")
        if not (len(self.l) == len(self.frak_l) == len(self.k)):
            raise ValueError("l, frak_l, k must share the dimension d")


def gradient_bound(reg: RegularityData, horizon: float, t: float) -> np.ndarray:
    """Pointwise bound on |du/dx_i|: e^(l0 (T-t)) (K_i + (T-t) frak_l_i)."""
    if not 0.0 <= t <= horizon:
        raise ValueError(f"need 0 <= t <= horizon, got t={t}, T={horizon}")
    tau = horizon - t
    k = np.asarray(reg.k, dtype=float)
    fl = np.asarray(reg.frak_l, dtype=float)
    return math.exp(reg.l0 * tau) * (k + tau * fl)


def solution_moment_bound(reg: RegularityData, horizon: float) -> float:
    """Uniform L^q moment bound on the solution along Brownian paths.

    e^(l0 T) [ g_moment + T f0_moment
               + T e^(l0 T) sum_j l_j (K_j + T frak_l_j) ].
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    grad_term = sum(
        lj * (kj + horizon * flj)
        for lj, kj, flj in zip(reg.l, reg.k, reg.frak_l)
    )
    e_l0t = math.exp(reg.l0 * horizon)
    return e_l0t * (
        reg.g_moment + horizon * reg.f0_moment + horizon * e_l0t * grad_term
    )


@dataclass(frozen=True)
class ErrorBoundInput:
    """Inputs of the L2 error bound.

    Hypotheses: p >= 2, ``reg.q`` >= 2p/(p-2) (infinite at p = 2) and
    alpha in ((p-2)/(2(p-1)), p/(2(p-1))); then
    beta = alpha/2 - (1-alpha)(p-2)/(2p) is positive.  ``u_moment_override``,
    when given, replaces the regularity-derived bound on
    sup_s max_i ||u_i(s, x + W_s - W_t)||_{L^q} with a known exact norm
    (benchmarks with manufactured solutions use this).
    """

    p: float
    alpha: float
    n: int
    base: int
    horizon: float
    t: float
    reg: RegularityData
    u_moment_override: float | None = None

    @property
    def beta(self) -> float:
        return self.alpha / 2.0 - (1.0 - self.alpha) * (self.p - 2.0) / (2.0 * self.p)

    def check(self) -> None:
        if not self.p >= 2.0:
            raise HypothesisViolated(f"p must be >= 2, got {self.p}")
        need = math.inf if self.p == 2.0 else 2.0 * self.p / (self.p - 2.0)
        if self.reg.q < need:
            raise HypothesisViolated(
                f"norms of order q={self.reg.q} are too low for p={self.p}: "
                f"need q >= 2p/(p-2) = {need:.6g}")
        lo = (self.p - 2.0) / (2.0 * (self.p - 1.0))
        hi = self.p / (2.0 * (self.p - 1.0))
        if not lo < self.alpha < hi:
            raise HypothesisViolated(
                f"alpha must lie in ({lo:.6g}, {hi:.6g}) for p={self.p}, "
                f"got {self.alpha}")
        if self.n < 1 or self.base < 1:
            raise HypothesisViolated("need n >= 1 and base M >= 1")
        if not 0.0 <= self.t < self.horizon:
            raise HypothesisViolated(
                f"need 0 <= t < horizon, got t={self.t}, T={self.horizon}")


def _error_constant(inp: ErrorBoundInput) -> float:
    """The recursion constant C of the error bound."""
    tau = inp.horizon - inp.t
    p = inp.p
    l1 = inp.reg.l0 + sum(inp.reg.l)
    base = (
        2.0
        * math.sqrt(tau)
        * math.exp(gammaln(p / 2.0) / p)
        * (1.0 - inp.alpha) ** (1.0 / p - 1.0)
        * max(1.0, l1)
        * max(math.sqrt(tau),
              math.sqrt(2.0) * math.exp(gammaln((p + 1.0) / 2.0) / p)
              * math.pi ** (-1.0 / (2.0 * p)))
    )
    return max(1.0, base)


def error_bound(inp: ErrorBoundInput) -> float:
    """L2 error bound, per coordinate, for the depth-n estimator.

        (1/4) (1 + pn/2)^(1/8) M^(-n/2) (2C)^n exp(1/8 + beta M^(1/(2 beta)))
        * [ 2 C^(-1) sqrt(max(T-t, 3)) ||K||_1 + f0_moment + sqrt(M) u_term ]

    where u_term bounds sup_s max_i ||u_i(s, x + W_s - W_t)||_{L^q}: either
    the supplied override or max(solution_moment_bound, max gradient_bound).
    Evaluated in log space; returns ``inf`` instead of overflowing (the
    exponential factor explodes in M by design).  Returns exactly 0.0 for
    all-zero data.
    """
    inp.check()
    c = _error_constant(inp)
    beta = inp.beta
    tau = inp.horizon - inp.t
    if inp.u_moment_override is not None:
        if inp.u_moment_override < 0:
            raise ValueError("u_moment_override must be nonnegative")
        u_term = inp.u_moment_override
    else:
        u_term = max(
            solution_moment_bound(inp.reg, inp.horizon),
            float(np.max(gradient_bound(inp.reg, inp.horizon, inp.t))),
        )
    bracket = (
        2.0 / c * math.sqrt(max(tau, 3.0)) * sum(inp.reg.k)
        + inp.reg.f0_moment
        + math.sqrt(inp.base) * u_term
    )
    if bracket == 0.0:
        return 0.0
    log_bound = (
        math.log(0.25)
        + math.log1p(inp.p * inp.n / 2.0) / 8.0
        - (inp.n / 2.0) * math.log(inp.base)
        + inp.n * math.log(2.0 * c)
        + 0.125
        + beta * inp.base ** (1.0 / (2.0 * beta))
        + math.log(bracket)
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def cost_rv(d: int, n: int, base: int) -> int:
    """Exact number of scalar draws consumed by one depth-n evaluation.

    RV(d, 0, M) = 0 and, for n >= 1,

        RV(d, n, M) = d M^n
            + sum_{l=0}^{n-1} M^(n-l) (d + 1 + RV(d, l, M) + [l >= 1] RV(d, l-1, M)).

    The engine's ledger is required to meet this exactly.  RV grows with n,
    so the table stops at the first depth past the 128-bit limit: the
    ``Overflow`` is immediate at any n.
    """
    if d < 1 or base < 1 or n < 0:
        raise ValueError("need d >= 1, M >= 1, n >= 0")
    table = [0]  # table[l] = RV(d, l, M)
    for m in range(1, n + 1):
        total = d * base**m
        for l in range(m):
            inner = d + 1 + table[l]
            if l >= 1:
                inner += table[l - 1]
            total += base ** (m - l) * inner
        if total > _COST_LIMIT:
            raise Overflow(f"cost of depth {n} exceeds 128-bit accounting "
                           f"(depth {m} already costs {total})")
        table.append(total)
    return table[n]


def cost_bound_closed(d: int, n: int, base: int) -> int:
    """Closed geometric cost bound d (5M)^n; dominates cost_rv."""
    if d < 1 or base < 1 or n < 0:
        raise ValueError("need d >= 1, M >= 1, n >= 0")
    value = d * (5 * base) ** n
    if value > _COST_LIMIT:
        raise Overflow(f"cost bound {value} exceeds 128-bit accounting")
    return value


def _thm_rule_range(alpha: float) -> tuple[float, float]:
    # Admissible M-rule exponents q for M = floor(n^q), expressed in the
    # density convention: q in (max{(2 alpha - 1)/alpha, 0}, alpha).
    return max((2.0 * alpha - 1.0) / alpha, 0.0), alpha


def schedule(
    target_eps: float,
    d: int,
    reg: RegularityData,
    p: float,
    alpha: float,
    m_rule_exponent: float,
    horizon: float,
    t: float = 0.0,
    u_moment_override: float | None = None,
) -> tuple[int, int, int]:
    """Smallest depth meeting ``target_eps``, with M = max(1, floor(n^q)).

    Returns (N, M_N, predicted_cost) where predicted_cost = cost_rv(d, N, M_N).
    The rule exponent must lie in the admissible range
    (max{(2 alpha - 1)/alpha, 0}, alpha) — the growth window within which
    the bound eventually decreases while the cost stays polynomial in the
    accuracy.  Raises :class:`NoFeasibleDepth` when no n <= 50 suffices.
    """
    if target_eps <= 0.0:
        raise ValueError("target accuracy must be positive")
    lo, hi = _thm_rule_range(alpha)
    if not lo < m_rule_exponent < hi:
        raise AdmissibilityViolated(
            f"M-rule exponent {m_rule_exponent} outside admissible "
            f"({lo:.6g}, {hi:.6g}) for alpha={alpha}")
    for n in range(1, MAX_SCHEDULE_DEPTH + 1):
        base = max(1, math.floor(n**m_rule_exponent))
        bound = error_bound(ErrorBoundInput(
            p=p, alpha=alpha, n=n, base=base, horizon=horizon, t=t,
            reg=reg, u_moment_override=u_moment_override))
        if bound <= target_eps:
            return n, base, cost_rv(d, n, base)
    raise NoFeasibleDepth(
        f"no depth n <= {MAX_SCHEDULE_DEPTH} reaches accuracy {target_eps}")
