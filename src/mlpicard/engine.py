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
a node-by-node walk takes 14,026.  Each node keeps its own draws and its
own means over its own samples, so the estimates are bit for bit those of
a node-by-node recursion.

Every group runs in three phases: (1) draw its level blocks l >= 1, the
ones with children, in level order; (2) evaluate its child groups (l, hi)
and (l-1, lo); (3) call g on the terminal block, then, level by level, f
on each level block (the level-0 block, the largest, is drawn only here)
and add its weighted mean into the running sums, in the same order as
ever, so every sum keeps its bits.  Below the root, phase 2 runs on
demand inside phase 3, on the calling thread.  At the root of an estimate
that costs at least ``FANOUT_MIN_DRAWS`` draws, phase 2 fans out: the
child groups' nodes are cut into one job per CPU the process may run on,
balanced by their exact predicted draws (:func:`_plan`); the calling
thread runs one job and threads started for this call run the others.
Nodes are independent and their streams disjoint, so the split changes no
bit; each job counts its draws in a ledger of its own, added in job order.
Phase 3 reads the jobs' results level by level and calls level l's f
before it looks at level l+1, and replays a failed level on the calling
thread, so a callback error is the one a one-thread run raises.

A group of K nodes at depth l has K M**l <= M**n, so every block has at
most M**n rows; with at most n groups alive along the recursion, working
memory is O(n M**n (1+d)) doubles per thread, about one subtree per
worker under the fan-out.

Every ``g`` and ``f`` output is checked at the boundary: it must have one
finite value per row, else :class:`CallbackContractError` names the stream
path of the first offending row.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
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
from .sampler import DrawLedger, block_uniforms, path_array

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
# Predicted draws from which an estimate spreads its root's child groups
# over the process's CPUs (see the module docstring).
FANOUT_MIN_DRAWS = 1 << 18


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
    variable ``MLPICARD_COST_BUDGET``, else one billion draws.  An argument
    or a variable that is not a finite number raises ``ValueError`` naming
    it."""
    name = "budget"
    if budget is None:
        budget = os.environ.get(BUDGET_ENV_VAR)
        if budget is None:
            return DEFAULT_COST_BUDGET
        name = BUDGET_ENV_VAR
    if isinstance(budget, numbers.Integral):
        return int(budget)
    try:
        value = float(budget)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}={budget!r} is not a finite number of draws")
    return int(value)


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
    replication, a tuple of integers in int64 (anything else raises
    ``ValueError``); distinct values give independent estimates.  Raises
    :class:`QueryAtTerminalTime` for t >= horizon, :class:`DepthCostGuard`
    when the exact predicted cost exceeds the budget (see
    :func:`resolve_budget`), :class:`~mlpicard.core.InvalidProblem`
    on malformed inputs, and :class:`CallbackContractError` when ``g`` or
    ``f`` returns a misshapen or non-finite array.

    An estimate that costs at least ``FANOUT_MIN_DRAWS`` draws runs on as
    many threads as the process has CPUs, with the same bits and errors as
    on one: ``g`` and ``f`` may then be called at the same time from
    several threads, on disjoint rows.  Pure array functions, such as the
    builtin cases, are safe; a callback that changes shared state is not.
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
    paths = path_array(theta, "theta")
    allowed = resolve_budget(budget)
    predicted = cost_rv(d, config.depth, config.base)
    if predicted > allowed:
        raise DepthCostGuard(
            f"depth {config.depth} with base {config.base} in dimension {d} "
            f"costs {predicted} draws > budget {allowed}")

    ledger = DrawLedger()
    workers = _workers() if predicted >= FANOUT_MIN_DRAWS else 1
    vec = _batch(problem, config, config.depth, paths,
                 np.array([t], dtype=float), x[None, :], ledger, workers)[0]
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
    workers: int = 1,
) -> np.ndarray:
    """The ``(K, 1+d)`` depth-``depth`` estimates of K nodes; zero for
    depth <= 0.  Node k sits at stream path ``paths[k]`` (a ``(K, L)`` int64
    array), time ``t[k]`` and point ``x[k]``.  With ``workers`` > 1 the
    child groups are spread over that many threads (see :func:`_plan`)."""
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

    # Phase 1: the level blocks that have children, l = 1..depth-1, in
    # level order.  The level-0 block, the largest, is drawn when phase 3
    # reaches it, so that it is never alive together with the others.
    blocks = [None] + [
        _level_block(seed, paths, t, x, tau, e, level,
                     base ** (depth - level), ledger)
        for level in range(1, depth)]

    # Phase 2: the child groups (l, hi) and (l-1, lo), l = 1..depth-1, at
    # the level-l samples; group 2l-2 is (l, hi), group 2l-1 is (l-1, lo).
    # Job 0, all of them unless this group fans out, is evaluated on this
    # thread as phase 3 reaches each level; the other jobs start now, on
    # threads of their own.
    groups = []
    for level in range(1, depth):
        _, rows, suffixes, _, _, s, _, xi = blocks[level]
        hi_paths = np.concatenate([rows, suffixes], axis=1)
        lo_paths = hi_paths.copy()
        lo_paths[:, -2] = -level
        groups += [(level, hi_paths, s, xi), (level - 1, lo_paths, s, xi)]
    jobs = [[(i, 0, len(group[1])) for i, group in enumerate(groups)]]
    if workers > 1 and groups:
        jobs = _plan(groups, d, base, k * cost_rv(d, depth, base), workers)
    pool = ThreadPoolExecutor(len(jobs) - 1) if len(jobs) > 1 else None
    try:
        futures = [pool.submit(copy_context().run, _job, problem, config,
                               groups, job) for job in jobs[1:]]

        # Phase 3, in the order of a serial walk: g, then level by level
        # the child estimates, f and the running sums.
        # Terminal block: M**depth samples of g per node, differenced
        # against g(x); one g call takes the K query points followed by the
        # samples.
        m = base**depth
        rows, suffixes = _rows(paths, 0, m, -1)
        z = ndtri(block_uniforms(seed, rows, suffixes, d, ledger).reshape(
            k, m, d))
        points = np.concatenate(
            [x, (x[:, None, :] + sqrt_tau[:, :, None] * z).reshape(-1, d)])
        gv = _checked("g", g(points), k + k * m,
                      lambda j: _path(paths, j) if j < k
                      else _path(rows, j - k, suffixes))
        g_at_x = gv[:k]
        dg = gv[k:].reshape(k, m) - g_at_x[:, None]
        # Means as sum / m: np.mean's own arithmetic, without its call
        # overhead.
        out[:, 0] = g_at_x + dg.sum(axis=1) / m
        out[:, 1:] = (dg[:, :, None] * z).sum(axis=1) / m / sqrt_tau
        del rows, suffixes, z, points, gv, dg

        for level in range(depth):
            m, rows, suffixes, r, z, s, root, xi = (
                blocks[level] if level else _level_block(
                    seed, paths, t, x, tau, e, 0, base**depth, ledger))
            count = k * m
            if level == 0:
                fv = _checked("f", f(s, xi, np.zeros(count),
                                     np.zeros((count, d))),
                              count, lambda j: _path(rows, j, suffixes))
            else:
                pair = (2 * level - 2, 2 * level - 1)
                try:
                    field = _field(problem, config, groups, jobs, futures,
                                   pair, ledger)
                except Exception:
                    if futures:
                        # A split group hands g and f fewer rows per call:
                        # replay this level whole here, so that the error
                        # raised is the one-thread error, shape, row and
                        # stream path alike.
                        for i in pair:
                            _batch(problem, config, *groups[i], DrawLedger())
                    raise
                # One f call takes the rows at the depth-l field, then the
                # same rows at the depth-(l-1) field.
                fv = _checked("f", f(np.concatenate([s, s]),
                                     np.concatenate([xi, xi]),
                                     field[:, 0], field[:, 1:]),
                              2 * count,
                              lambda j: _path(rows, j % count, suffixes))
                fv = fv[:count] - fv[count:]
                del field
            w = _time_weight(r, tau, e) * fv.reshape(k, m)
            out[:, 0] += w.sum(axis=1) / m
            # w / root -> 0 where r underflowed to 0 (e near 0): the
            # integrand's limit for e < 1/2, instead of 0/0.
            ratio = np.divide(w, root, out=np.zeros(w.shape), where=root > 0)
            out[:, 1:] += (ratio[:, :, None] * z).sum(axis=1) / m
            # Free the block before the next level's children recurse: the
            # largest blocks come first, the deepest subtrees last.
            blocks[level] = None
        for future in futures:
            ledger.add(future.result()[1].scalar_draws)
    finally:
        if pool is not None:
            pool.shutdown()
    return out


def _level_block(seed, paths, t, x, tau, e, level, m, ledger):
    """Level-``level`` block of a group: m samples (r, Z) per node, with
    their stream rows and suffixes, times s, sqrt((T - t) r) and points xi.
    """
    k, d = x.shape
    rows, suffixes = _rows(paths, level, m, 1)
    u = block_uniforms(seed, rows, suffixes, 1 + d, ledger).reshape(
        k, m, 1 + d)
    r = u[:, :, 0] ** (1.0 / e)
    z = ndtri(u[:, :, 1:])
    s = (t[:, None] + tau * r).reshape(-1)
    root = np.sqrt(tau * r)
    xi = (x[:, None, :] + root[:, :, None] * z).reshape(-1, d)
    return m, rows, suffixes, r, z, s, root, xi


def _workers() -> int:
    """CPUs this process may run on: the threads an estimate of at least
    FANOUT_MIN_DRAWS draws uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan(groups: list, d: int, base: int, total: int, workers: int) -> list:
    """Jobs of near-equal predicted draws over the child ``groups`` of a
    parent group whose estimate costs ``total`` draws.

    A job is a list of pieces ``(i, a, b)``, nodes a..b-1 of group i, in
    group order.  The nodes of all groups are laid out from the cheapest to
    the dearest (a depth-l node costs ``cost_rv(d, l, M)`` draws), after
    the parent's own blocks, which the calling thread draws, and cut at the
    node boundaries nearest to ``workers`` equal shares of ``total``.  So
    only the groups a cut falls in are split, and job 0, the calling
    thread's, holds the shallowest nodes."""
    counts = [len(paths) for _, paths, _, _ in groups]
    order = sorted(range(len(groups)), key=lambda i: groups[i][0])
    per_node = {depth: float(cost_rv(d, depth, base))
                for depth, _, _, _ in groups}
    cost = np.repeat([per_node[groups[i][0]] for i in order],
                     [counts[i] for i in order])
    ends = np.cumsum(cost)
    ends += total - ends[-1]
    cuts = np.searchsorted(ends - cost / 2,
                           total * np.arange(1, workers) / workers).tolist()
    starts = np.cumsum([0] + [counts[i] for i in order]).tolist()
    jobs = []
    for lo, hi in zip([0, *cuts], [*cuts, len(cost)]):
        job = sorted((i, max(lo, s) - s, min(hi, s + counts[i]) - s)
                     for i, s in zip(order, starts)
                     if max(lo, s) < min(hi, s + counts[i]))
        if job:
            jobs.append(job)
    return jobs


def _piece(problem, config, groups, piece, ledger) -> np.ndarray:
    """Estimates of nodes a..b-1 of group i, for ``piece = (i, a, b)``."""
    i, a, b = piece
    depth, paths, t, x = groups[i]
    return _batch(problem, config, depth, paths[a:b], t[a:b], x[a:b], ledger)


def _job(problem, config, groups, pieces):
    """A worker thread's job: its pieces in group order, on a ledger of its
    own.  Stops at the first failure and returns it with the results before
    it, for phase 3 to raise when it reaches that piece's level."""
    ledger = DrawLedger()
    done = []
    try:
        for piece in pieces:
            done.append(_piece(problem, config, groups, piece, ledger))
    except Exception as exc:  # handed to the calling thread, as by a future
        return done, ledger, exc
    return done, ledger, None


def _field(problem, config, groups, jobs, futures, pair, ledger):
    """Estimates of the nodes of the two groups in ``pair``, in group and
    node order.  This thread's own pieces (job 0) are evaluated first, then
    the other jobs' are read from their futures."""
    refs = [(j, p) for i in pair for j, job in enumerate(jobs)
            for p, piece in enumerate(job) if piece[0] == i]
    own = {p: _piece(problem, config, groups, jobs[0][p], ledger)
           for j, p in refs if j == 0}
    parts = []
    for j, p in refs:
        if j == 0:
            parts.append(own[p])
            continue
        done, _, exc = futures[j - 1].result()
        if p >= len(done):
            raise exc
        parts.append(done[p])
    return np.concatenate(parts)


def replicate(
    problem: PdeProblem,
    config: MlpConfig,
    t: float,
    x: np.ndarray,
    replications: int = 100,
) -> list[FieldEstimate]:
    """``replications`` independent estimates in replication order,
    replication k using the stream family rooted at path (k,), each under
    the default draw budget (see :func:`resolve_budget`).  Fewer than one
    replication raises :class:`~mlpicard.core.InvalidProblem`."""
    if replications < 1:
        raise InvalidProblem([Violation(
            "replications", "NonpositiveReplications",
            f"replications must be >= 1, got {replications}")])
    return [evaluate(problem, config, t, x, theta=(k,))
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
