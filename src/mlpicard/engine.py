"""Multilevel Picard evaluation of (u, grad u) at a query point.

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

The tree is evaluated one group at a time, not one node at a time.  A
group is the set of K nodes that share a depth and a tree position, such
as the depth-l sub-estimates of all samples of the level-l blocks of one
parent group; it is held as arrays of stream paths ``(K, L)``, times
``(K,)`` and points ``(K, d)``.  For the whole group, each terminal and
level block costs one :func:`~mlpicard.sampler.block_uniforms` call, one
``ndtri`` call and one ``g`` or ``f`` call, and the children of a level
block form two groups of ``K M**(depth-l)`` nodes.  Python therefore
recurses over levels only: an n = M = 5 tree takes 78 block calls, where
a node-by-node walk takes 14,026.  Each node keeps its own draws and its own means over
its own samples, so the estimates are bit for bit those of a node-by-node
recursion.  A group of K nodes at depth l has K M**l <= M**n, so every
block has at most M**n rows; with at most n groups alive along the
recursion, peak working memory is O(n M**n (1+d)) doubles.

Every ``g`` and ``f`` output is checked at the boundary: it must have one
finite value per row, else :class:`CallbackContractError` names the stream
path of the first offending row.
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
    "CallbackContractError",
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


class CallbackContractError(ValueError):
    """A ``g`` or ``f`` callback returned an array of the wrong shape or a
    non-finite value; the message names the stream path of the row."""


def resolve_budget(budget: int | None = None) -> int:
    """Effective draw budget: explicit argument, else the environment
    variable ``MLPICARD_COST_BUDGET``, else one billion draws."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(float(env))
    return DEFAULT_COST_BUDGET


def _time_weight(r: np.ndarray, tau: np.ndarray, e: float) -> np.ndarray:
    """Importance weight (T - t) r**(1-e) / e for time fractions drawn from
    the CDF b**e; ``tau`` broadcasts against ``r``.  Module-level so tests
    can fault-inject it."""
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
    :func:`resolve_budget`), :class:`~mlpicard.core.InvalidProblem`
    on malformed inputs, and :class:`CallbackContractError` when ``g`` or
    ``f`` returns a misshapen or non-finite array.
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
    vec = _batch(problem, config, config.depth,
                 np.array([tuple(theta)], dtype=np.int64),
                 np.array([t], dtype=float), x[None, :], ledger)[0]
    return FieldEstimate(
        value=float(vec[0]), gradient=vec[1:].copy(), draws=ledger.scalar_draws
    )


def _rows(paths: np.ndarray, a: int, m: int, sign: int):
    """Base paths and suffixes ``(a, sign * i)``, i = 1..m, of the m sample
    streams of every node in a group: node k owns rows k*m .. k*m + m-1."""
    suffixes = np.empty((len(paths), m, 2), dtype=np.int64)
    suffixes[:, :, 0] = a
    suffixes[:, :, 1] = np.arange(sign, sign * (m + 1), sign)
    return paths.repeat(m, axis=0), suffixes.reshape(-1, 2)


def _path(paths: np.ndarray, j: int, suffixes: np.ndarray | None = None):
    """Stream path of row ``j``: ``paths[j]``, extended by ``suffixes[j]``."""
    tail = () if suffixes is None else tuple(suffixes[j].tolist())
    return tuple(paths[j].tolist()) + tail


def _checked(name: str, values, count: int, path_of) -> np.ndarray:
    """Callback output as a float array, if it has shape ``(count,)`` and is
    finite; otherwise :class:`CallbackContractError` naming the stream path
    ``path_of(j)`` of the first offending row j."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count,):
        raise CallbackContractError(
            f"{name} returned shape {values.shape}, expected ({count},); "
            f"first row at stream path {path_of(0)}")
    finite = np.isfinite(values)
    if not finite.all():
        j = int(np.argmin(finite))
        raise CallbackContractError(
            f"{name} returned non-finite value {values[j]} (shape "
            f"{values.shape}, expected ({count},)) at stream path "
            f"{path_of(j)}")
    return values


def _batch(
    problem: PdeProblem,
    config: MlpConfig,
    depth: int,
    paths: np.ndarray,
    t: np.ndarray,
    x: np.ndarray,
    ledger: DrawLedger,
) -> np.ndarray:
    """The ``(K, 1+d)`` depth-``depth`` estimates of K nodes; zero for
    depth <= 0.  Node k sits at stream path ``paths[k]`` (a ``(K, L)`` int64
    array), time ``t[k]`` and point ``x[k]``."""
    k, d = x.shape
    out = np.zeros((k, 1 + d))
    if depth <= 0:
        return out
    g = problem.terminal_data
    f = problem.nonlinearity
    base = config.base
    e = config.time_cdf_exponent
    seed = config.root_seed
    tau = (problem.horizon - t)[:, None]
    sqrt_tau = np.sqrt(tau)

    # Terminal block: M**depth samples of g per node, differenced against
    # g(x); one g call takes the K query points followed by the samples.
    m = base**depth
    rows, suffixes = _rows(paths, 0, m, -1)
    z = ndtri(block_uniforms(seed, rows, suffixes, d, ledger).reshape(k, m, d))
    points = np.concatenate(
        [x, (x[:, None, :] + sqrt_tau[:, :, None] * z).reshape(-1, d)])
    gv = _checked("g", g(points), k + k * m,
                  lambda j: _path(paths, j) if j < k
                  else _path(rows, j - k, suffixes))
    g_at_x = gv[:k]
    dg = gv[k:].reshape(k, m) - g_at_x[:, None]
    # Means as sum / m: np.mean's own arithmetic, without its call overhead.
    out[:, 0] = g_at_x + dg.sum(axis=1) / m
    out[:, 1:] = (dg[:, :, None] * z).sum(axis=1) / m / sqrt_tau
    del rows, suffixes, z, points, gv, dg

    # Level blocks: M**(depth-l) weighted nonlinearity differences per node.
    for level in range(depth):
        m = base ** (depth - level)
        rows, suffixes = _rows(paths, level, m, 1)
        u = block_uniforms(seed, rows, suffixes, 1 + d, ledger).reshape(
            k, m, 1 + d)
        r = u[:, :, 0] ** (1.0 / e)
        z = ndtri(u[:, :, 1:])
        del u
        s = (t[:, None] + tau * r).reshape(-1)
        root = np.sqrt(tau * r)
        xi = (x[:, None, :] + root[:, :, None] * z).reshape(-1, d)
        count = k * m
        if level == 0:
            fv = _checked("f", f(s, xi, np.zeros(count), np.zeros((count, d))),
                          count, lambda j: _path(rows, j, suffixes))
        else:
            hi_paths = np.concatenate([rows, suffixes], axis=1)
            lo_paths = hi_paths.copy()
            lo_paths[:, -2] = -level
            # One f call takes the rows at the depth-l field, then the same
            # rows at the depth-(l-1) field.
            field = np.concatenate([
                _batch(problem, config, level, hi_paths, s, xi, ledger),
                _batch(problem, config, level - 1, lo_paths, s, xi, ledger)])
            fv = _checked("f", f(np.concatenate([s, s]),
                                 np.concatenate([xi, xi]),
                                 field[:, 0], field[:, 1:]),
                          2 * count, lambda j: _path(rows, j % count, suffixes))
            fv = fv[:count] - fv[count:]
            del field
        w = _time_weight(r, tau, e) * fv.reshape(k, m)
        out[:, 0] += w.sum(axis=1) / m
        # w / root -> 0 where r underflowed to 0 (e near 0): the integrand's
        # limit for e < 1/2, instead of 0/0.
        ratio = np.divide(w, root, out=np.zeros(w.shape), where=root > 0)
        out[:, 1:] += (ratio[:, :, None] * z).sum(axis=1) / m
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
