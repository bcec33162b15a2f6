"""Recursive multilevel Picard evaluation of (u, grad u) at a query point.

The depth-n estimate at (t, x) is built from three ingredients, all driven
by path-addressed streams (:mod:`mlpicard.sampler`):

* a terminal block of M**n samples of g(x + sqrt(T - t) Z), differenced
  against g(x) for variance reduction and paired with the Gaussian score
  Z / sqrt(T - t) for the gradient coordinates;
* for each level l = 0..n-1, a block of M**(n-l) time-space samples
  (r, Z) with r following the CDF b**e, the sample point being
  s = t + (T - t) r, xi = x + sqrt((T - t) r) Z, weighted by the
  importance factor (T - t) r**(1-e) / e;
* at levels l >= 1, a *difference* of the nonlinearity evaluated on two
  independent sub-estimates of depths l and l-1 at (s, xi), recursively
  produced from extended stream paths.  At level 0 the nonlinearity is
  evaluated at the zero field.

Both sub-estimates of a level sample share that sample's (r, Z); the
depth-l branch extends the path with (l, i), the depth-(l-1) branch with
(-l, i), so their internal randomness is disjoint.  The terminal block
uses suffixes (0, -i), which cannot collide with the level-0 block's
(0, i).  Every scalar draw is counted in a ledger, and the total for a
depth-n evaluation equals :func:`mlpicard.bounds.cost_rv` exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bounds import cost_rv
from .core import (
    Convention,
    FieldEstimate,
    InvalidProblem,
    MlpConfig,
    PdeProblem,
    ThetaPath,
    Violation,
    validate_problem,
)
from .sampler import DrawLedger, block_uniforms

__all__ = [
    "QueryAtTerminalTime",
    "DepthCostGuard",
    "EmptySample",
    "InvalidConvention",
    "RmseReport",
    "evaluate",
    "replicate",
    "rmse",
    "resolve_budget",
]

BUDGET_ENV_VAR = "MLPICARD_COST_BUDGET"
DEFAULT_COST_BUDGET = 1_000_000_000


class QueryAtTerminalTime(ValueError):
    """Query time at or beyond the horizon; there the field is (g(x), 0)
    analytically and the estimator's 1/sqrt(T - t) factors are singular."""


class DepthCostGuard(RuntimeError):
    """Predicted draw cost of one evaluation exceeds the allowed budget."""


class EmptySample(ValueError):
    """Statistics requested over zero estimates."""


class InvalidConvention(ValueError):
    """Problem passed to the engine in a non-canonical convention."""


def resolve_budget(budget: int | None = None) -> int:
    """Effective draw budget: explicit argument, else the environment
    variable ``MLPICARD_COST_BUDGET``, else one billion draws."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(float(env))
    return DEFAULT_COST_BUDGET


def _time_weight(r: np.ndarray, tau: float, e: float) -> np.ndarray:
    """Importance weight (T - t) r**(1-e) / e for time fractions drawn from
    the CDF b**e.  Module-level so tests can fault-inject it."""
    return tau * r ** (1.0 - e) / e


def evaluate(
    problem: PdeProblem,
    config: MlpConfig,
    t: float,
    x: np.ndarray,
    theta: ThetaPath = (0,),
    budget: int | None = None,
) -> FieldEstimate:
    """Single depth-``config.depth`` estimate of (u(t, x), grad u(t, x)).

    The problem must be in canonical backward form (run
    :func:`mlpicard.core.to_canonical` first).  ``theta`` names the
    replication; distinct values give independent estimates.  Raises
    :class:`QueryAtTerminalTime` for t >= horizon, :class:`DepthCostGuard`
    when the exact predicted cost exceeds the budget (see
    :func:`resolve_budget`), and :class:`~mlpicard.core.InvalidProblem`
    on malformed inputs.
    """
    validate_problem(problem, config)
    if problem.convention is not Convention.BACKWARD_HALF_LAPLACIAN:
        raise InvalidConvention(
            "evaluate requires the canonical backward form; "
            "convert with to_canonical() first")
    d = problem.dimension
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"query point must have shape ({d},), got {x.shape}")
    if not np.all(np.isfinite(x)) or not math.isfinite(t):
        raise ValueError("query point and time must be finite")
    if t < 0.0:
        raise ValueError(f"query time must be nonnegative, got {t}")
    if t >= problem.horizon:
        raise QueryAtTerminalTime(
            f"t={t} >= horizon {problem.horizon}; at the horizon the field "
            "is (g(x), 0) exactly and needs no estimation")
    allowed = resolve_budget(budget)
    predicted = cost_rv(d, config.depth, config.base)
    if predicted > allowed:
        raise DepthCostGuard(
            f"depth {config.depth} with base {config.base} in dimension {d} "
            f"costs {predicted} draws > budget {allowed}")

    ledger = DrawLedger()
    vec = _recurse(problem, config, config.depth, tuple(theta), t, x, ledger)
    return FieldEstimate(
        value=float(vec[0]), gradient=vec[1:].copy(), draws=ledger.scalar_draws
    )


def _recurse(
    problem: PdeProblem,
    config: MlpConfig,
    depth: int,
    theta: ThetaPath,
    t: float,
    x: np.ndarray,
    ledger: DrawLedger,
) -> np.ndarray:
    """The (1+d)-vector estimate at depth ``depth``; zero for depth <= 0."""
    d = problem.dimension
    out = np.zeros(1 + d)
    if depth <= 0:
        return out
    g = problem.terminal_data
    f = problem.nonlinearity
    base = config.base
    e = config.time_cdf_exponent
    seed = config.root_seed
    tau = problem.horizon - t
    sqrt_tau = math.sqrt(tau)

    # Terminal block: M**depth differenced samples of g.
    m = base**depth
    u = block_uniforms(seed, theta, [(0, -i) for i in range(1, m + 1)], d, ledger)
    z = ndtri(u)
    g_at_x = float(g(x[None, :])[0])
    dg = g(x[None, :] + sqrt_tau * z) - g_at_x
    out[0] = g_at_x + dg.mean()
    out[1:] = (dg[:, None] * z).mean(axis=0) / sqrt_tau

    # Level blocks: M**(depth-l) weighted nonlinearity differences.
    for level in range(depth):
        m = base ** (depth - level)
        u = block_uniforms(
            seed, theta, [(level, i) for i in range(1, m + 1)], 1 + d, ledger
        )
        r = u[:, 0] ** (1.0 / e)
        z = ndtri(u[:, 1:])
        s = t + tau * r
        root = np.sqrt(tau * r)
        xi = x[None, :] + root[:, None] * z
        if level == 0:
            fv = f(s, xi, np.zeros(m), np.zeros((m, d)))
        else:
            hi = np.empty((m, 1 + d))
            lo = np.empty((m, 1 + d))
            for i in range(m):
                hi[i] = _recurse(problem, config, level,
                                 theta + (level, i + 1), s[i], xi[i], ledger)
                lo[i] = _recurse(problem, config, level - 1,
                                 theta + (-level, i + 1), s[i], xi[i], ledger)
            fv = (f(s, xi, hi[:, 0], hi[:, 1:])
                  - f(s, xi, lo[:, 0], lo[:, 1:]))
        w = _time_weight(r, tau, e) * np.asarray(fv, dtype=float)
        out[0] += w.mean()
        out[1:] += ((w / root)[:, None] * z).mean(axis=0)
    return out


def replicate(
    problem: PdeProblem,
    config: MlpConfig,
    t: float,
    x: np.ndarray,
    replications: int = 100,
    budget: int | None = None,
) -> list[FieldEstimate]:
    """``replications`` independent estimates in replication order,
    replication k using the stream family rooted at path (k,).  Fewer
    than one replication raises :class:`~mlpicard.core.InvalidProblem`."""
    if replications < 1:
        raise InvalidProblem([Violation(
            "replications", "NonpositiveReplications",
            f"replications must be >= 1, got {replications}")])
    return [evaluate(problem, config, t, x, theta=(k,), budget=budget)
            for k in range(1, replications + 1)]


@dataclass(frozen=True)
class RmseReport:
    """Root-mean-square errors of a replication batch against a reference."""

    rmse_value: float
    rmse_gradient_max: float
    combined: float  # sqrt(mean value sq err + mean of per-coordinate means)
    samples: int


def rmse(
    estimates: list[FieldEstimate],
    reference_value: float,
    reference_gradient: np.ndarray,
) -> RmseReport:
    """RMSE of the value coordinate and the worst gradient coordinate.

    ``combined`` aggregates value and gradient mean-square errors into one
    number: sqrt(MSE_value + max_i MSE_gradient_i).
    """
    if not estimates:
        raise EmptySample("rmse needs at least one estimate")
    ref_g = np.asarray(reference_gradient, dtype=float)
    values = np.array([est.value for est in estimates])
    grads = np.stack([est.gradient for est in estimates])
    mse_value = float(np.mean((values - reference_value) ** 2))
    mse_grad = np.mean((grads - ref_g[None, :]) ** 2, axis=0)
    worst = float(np.max(mse_grad))
    return RmseReport(
        rmse_value=math.sqrt(mse_value),
        rmse_gradient_max=math.sqrt(worst),
        combined=math.sqrt(mse_value + worst),
        samples=len(estimates),
    )
