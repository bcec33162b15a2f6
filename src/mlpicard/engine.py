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
group is a set of K nodes of one depth, held as arrays of stream paths
``(K, L)``, times ``(K,)`` and points ``(K, d)``.  For the whole group,
each terminal and level block costs one
:func:`~mlpicard.sampler.block_uniforms` call, one ``ndtri`` call and one
``g`` or ``f`` call.  The block call takes the K node paths and one
suffix per sample row, so no path is repeated per row; only the level
blocks l >= 1 build their children's full paths.  The two gradient sums
of a block, over each node's m samples of weight times score, take one
``einsum`` pass for d >= 2 (:func:`_weighted_sum`), with the bits of
numpy's broadcast-and-sum.  At d = 1 numpy sums the length-1 axis
pairwise and einsum does not, so the broadcast sum stays there.  A
depth-n group has one child group per depth j =
1..n-1: the depth-j "hi" children of its level-j samples, followed by the
depth-j "lo" children of its level-(j+1) samples (the lo children of level
1 have depth 0 and are the zero field).  Python therefore recurses over
depths only: a depth-n estimate walks 2**(n-1) groups, and n = M = 5 takes
47 block calls, where a node-by-node walk takes 14,026.  Each node keeps
its own draws and its own means over its own samples, so the estimates are
bit for bit those of a node-by-node recursion.

Every group evaluates in one order: (1) draw its level blocks l >= 1, the
ones with children, and form its child groups; (2) call g on the terminal
block; (3) draw the level-0 block, the largest, call f on it at the zero
field, add it into the running sums and free it; (4) evaluate the child
groups in depth order; (5) for l = 1..n-1 in level order, call f at the
children's estimates, the hi rows from group l and the lo rows from group
l-1, and add into the running sums.  Step 5 reads level l's times and
points from the head of group l, their only copy, and keeps only (r, Z,
sqrt((T - t) r)) of each level block from step 1.  Each node's sums take
g, then level 0, 1, .., n-1, the order of a node-by-node walk, so every
sum keeps its bits.  At the root of an estimate that costs at least
``FANOUT_MIN_DRAWS`` draws, step 4 fans out over up to one thread per CPU
the process may run on.  The child groups wait in one queue, the dearest
first, and each thread takes the next whenever it is free: the others
from before step 2, the calling thread once step 3 is done.  Only a group
dearer than an equal share of the draws is cut, into node ranges at the
node boundaries below one, two, .. shares (:func:`_pieces`).  The
dearest group, depth n-1, holds 41-49% of the draws of every shape with
d <= 1000 and n, M <= 11 that fans out within the default budget, so at
two workers no subtree is drawn twice: a d = 3, n = M = 5 estimate takes
its 47 block calls on two threads as on one, whichever thread draws which
group.  Nodes are independent and their streams disjoint, so that choice
changes no bit; each thread counts its draws in a ledger of its own.  If
anything raises under the fan-out, a stop flag is set that every thread
checks before each block, the threads are joined, and the whole estimate
is replayed on the calling thread, so the error raised is the one a
one-thread run raises.

:func:`_estimates` evaluates K root nodes, each with its own time, point
and stream path, as root groups of at most ``CHUNK_MAX_DRAWS`` predicted
draws; :func:`evaluate` is its one-node case.  Below K depth-n roots a
child group holds up to (1 + 1/M) times the nodes of one depth, so a block
has at most K M**n (1 + 1/M)**((n-1)//2) rows; the recursion is at most n
groups deep, so working memory is O(n K M**n (1 + 1/M)**((n-1)//2) (1+d))
doubles.  Under glibc, block arrays of up to 2 MiB are reused from the
heap, not mapped and faulted in afresh on every block (see the allocator
warm-up below).

Every array ``g`` and ``f`` get is a C-order float64 array: a row sum's
bits depend on the layout of its rows.  Every ``g`` and ``f`` output is
checked at the boundary: it must have one finite value per row, else
:class:`CallbackContractError` names the stream path of the first
offending row.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass
from functools import lru_cache

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
    is_int64,
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
# Most predicted draws per _batch call of _estimates, bounding its memory.
CHUNK_MAX_DRAWS = 1 << 22
# Rows up to which a block's stream suffixes are built once per shape and
# shared: the cache holds at most 64 arrays of 4 KiB, whatever the estimate.
_CACHED_SUFFIX_ROWS = 256

# glibc's malloc serves chunks above its mmap threshold (128 KiB at start)
# with mmap and unmaps them on free, so each block's arrays would be faulted
# in afresh.  Freeing one mmapped chunk raises the threshold to its size
# (mallopt(3), M_MMAP_THRESHOLD): after this 2 MiB array, allocated and
# freed at once, block arrays and the callbacks' temporaries are reused
# from the heap.  Other allocators ignore it.
np.empty(1 << 21, dtype=np.uint8)


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
    non-finite value; ``path``, a tuple of ints, is the stream path of the
    row, which the message names."""

    def __init__(self, message: str, path: ThetaPath):
        super().__init__(message)
        self.path = path


class _Stopped(Exception):
    """A fan-out thread stopped: another thread of its estimate raised."""


def resolve_budget() -> int:
    """Effective draw budget: the environment variable
    ``MLPICARD_COST_BUDGET``, else one billion draws.  A variable that is
    not a finite number raises ``ValueError`` naming it."""
    budget = os.environ.get(BUDGET_ENV_VAR)
    if budget is None:
        return DEFAULT_COST_BUDGET
    try:
        value = float(budget)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"{BUDGET_ENV_VAR}={budget!r} is not a finite number of draws")
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

    An estimate that costs at least ``FANOUT_MIN_DRAWS`` draws runs on up
    to as many threads as the process has CPUs, with the same bits and
    errors as on one: ``g`` and ``f`` may then be called at the same time
    from several threads, on disjoint rows.  Pure array functions, such as
    the builtin cases, are safe; a callback that changes shared state is
    not.

    Callbacks run under the caller's numpy error state with underflow
    ignored: u**(1/e) underflows to 0 for small e, where the limit is taken.
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
    vec, draws = _estimates(problem, config, np.array([t], dtype=float),
                            x[None, :], path_array(theta, "theta"))
    return FieldEstimate(value=float(vec[0, 0]), gradient=vec[0, 1:].copy(),
                         draws=draws)


def _estimates(problem, config, t, x, paths):
    """``(K, 1+d)`` estimates and their total draws: row k is
    ``evaluate(problem, config, t[k], x[k], paths[k])`` bit for bit,
    without its query checks.  :func:`_batch` takes the nodes in chunks of
    at most ``CHUNK_MAX_DRAWS`` predicted draws (one node where one costs
    more), fanned out when all K cost at least ``FANOUT_MIN_DRAWS``."""
    allowed = resolve_budget()
    predicted = cost_rv(problem.dimension, config.depth, config.base)
    if predicted > allowed:
        raise DepthCostGuard(
            f"depth {config.depth} with base {config.base} in dimension "
            f"{problem.dimension} costs {predicted} draws > budget {allowed}")
    ledger = DrawLedger()
    k = len(paths)
    workers = _workers() if k * predicted >= FANOUT_MIN_DRAWS else 1
    step = max(1, CHUNK_MAX_DRAWS // max(predicted, 1))
    # Fan-out threads inherit the errstate through copy_context.
    with np.errstate(under="ignore"):
        chunks = [_batch(problem, config, config.depth, paths[a:a + step],
                         t[a:a + step], x[a:a + step], ledger, workers)
                  for a in range(0, k, step)]
    out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return out, ledger.scalar_draws


def _suffixes(k: int, a: int, m: int, sign: int) -> np.ndarray:
    """Suffixes ``(a, sign * i)``, i = 1..m, of the m sample streams of each
    of k nodes: node k owns rows k*m .. k*m + m-1, as a read-only array.
    A block of at most ``_CACHED_SUFFIX_ROWS`` rows shares one array per
    shape.  Table-shallow, whose blocks are tiny, makes 4.6% more estimates
    per second so (``BENCH_node_keys.json``)."""
    if k * m <= _CACHED_SUFFIX_ROWS:
        return _shared_suffixes(k, a, m, sign)
    return _shared_suffixes.__wrapped__(k, a, m, sign)


@lru_cache(maxsize=64)
def _shared_suffixes(k: int, a: int, m: int, sign: int) -> np.ndarray:
    suffixes = np.empty((k, m, 2), dtype=np.int64)
    suffixes[:, :, 0] = a
    suffixes[:, :, 1] = np.arange(sign, sign * (m + 1), sign)
    suffixes.flags.writeable = False
    return suffixes.reshape(-1, 2)


def _path(paths: np.ndarray, j: int, suffixes: np.ndarray | None = None):
    """Stream path of row ``j``: ``paths[j]``, or, for a block of m rows per
    node of ``paths``, node ``j // m``'s path extended by ``suffixes[j]``."""
    if suffixes is None:
        return tuple(paths[j].tolist())
    m = len(suffixes) // len(paths)
    return tuple(paths[j // m].tolist()) + tuple(suffixes[j].tolist())


def _weighted_sum(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(w[:, :, None] * z).sum(axis=1)`` for ``(K, m)`` weights and ``(K,
    m, d)`` scores, bit for bit.  For d >= 2 one einsum pass gives the
    reduction's bits (a tier-1 test checks this), without its ``(K, m, d)``
    temporary and its inner loops only d long.  At d = 1 numpy sums the
    length-1 inner axis pairwise and einsum does not, so the broadcast sum
    stays.

    The d >= 2 equality holds while einsum's sum-of-products kernel rounds
    each product before adding it; it was checked with numpy 2.4.6 on
    x86-64.  A numpy whose einsum fuses multiply and add (its SIMD kernel on
    aarch64, or a build whose baseline includes FMA3) changes the bits of
    every d >= 2 gradient, and
    ``test_weighted_sum_keeps_the_broadcast_sums_bits`` fails."""
    if z.shape[2] == 1:
        return (w[:, :, None] * z).sum(axis=1)
    return np.einsum("km,kmd->kd", w, z)


def _checked(name: str, values, count: int, path_of) -> np.ndarray:
    """Callback output as a float array, if it has shape ``(count,)`` and is
    finite; otherwise :class:`CallbackContractError` naming the stream path
    ``path_of(j)`` of the first offending row j."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count,):
        path = path_of(0)
        raise CallbackContractError(
            f"{name} returned shape {values.shape}, expected ({count},); "
            f"first row at stream path {path}", path)
    finite = np.isfinite(values)
    if not finite.all():
        j = int(np.argmin(finite))
        path = path_of(j)
        raise CallbackContractError(
            f"{name} returned non-finite value {values[j]} (shape "
            f"{values.shape}, expected ({count},)) at stream path "
            f"{path}", path)
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
    stop: threading.Event | None = None,
) -> np.ndarray:
    """The ``(K, 1+d)`` depth-``depth`` estimates of K nodes; zero for
    depth <= 0.  Node k sits at stream path ``paths[k]`` (a ``(K, L)`` int64
    array), time ``t[k]`` and point ``x[k]``.  With ``workers`` > 1 the
    child groups are spread over up to that many threads (:func:`_drain`).
    Once ``stop`` is set, the call raises :class:`_Stopped` before its next
    block."""
    k, d = x.shape
    out = np.zeros((k, 1 + d))
    if depth <= 0:
        return out
    base = config.base
    e = config.time_cdf_exponent
    seed = config.root_seed
    tau = (problem.horizon - t)[:, None]

    # 1. The level blocks l = 1..depth-1, whose samples have children, and
    # one child group per depth j = 1..depth-1: the (j, hi) children of
    # level j's samples, then the (j, lo) children of level j+1's.  Level
    # l's times and points stay only in the head of group l (and the tail
    # of group l-1), where step 5 reads them.
    blocks = []
    for level in range(1, depth):
        _check_stop(stop)
        blocks.append(_level_block(seed, paths, t, x, tau, e, level,
                                   base ** (depth - level), ledger))
    groups = []
    for j in range(1, depth):
        parts = [(np.concatenate([paths.repeat(len(s) // k, axis=0), suffixes],
                                 axis=1), s, xi)
                 for _, s, xi, suffixes in blocks[j - 1:j + 1]]
        child_paths, s, xi = (np.concatenate(a) for a in zip(*parts))
        child_paths[len(parts[0][1]):, -2] = -(j + 1)
        groups.append((j, child_paths, s, xi))
    blocks = [weights for weights, _, _, _ in blocks]
    pieces = (_pieces(groups, d, base, k * cost_rv(d, depth, base), workers)
              if workers > 1 else [])
    threads = min(workers, len(pieces)) - 1
    pool = ThreadPoolExecutor(threads) if threads > 0 else None
    if pool is not None:
        stop = threading.Event()
        pieces = deque(pieces)
        # Each piece's estimates land at its nodes' rows, whichever thread
        # drew them.
        fields = [np.empty((len(p), 1 + d)) for _, p, _, _ in groups]
    try:
        futures = [pool.submit(copy_context().run, _drain, problem, config,
                               groups, pieces, fields, stop)
                   for _ in range(threads)]
        # 2. g on the terminal block; 3. the level-0 block, the largest,
        # drawn, used and freed before any child group is evaluated.
        _check_stop(stop)
        _terminal(out, problem.terminal_data, seed, paths, x, tau,
                  base**depth, ledger)
        _check_stop(stop)
        _add_level(out, problem.nonlinearity, paths, tau, e, *_level_block(
            seed, paths, t, x, tau, e, 0, base**depth, ledger))
        # 4. The child groups, in group order, or under the fan-out in
        # queue order, the calling thread joining in.
        if pool is None:
            fields = [_batch(problem, config, *group, ledger, 1, stop)
                      for group in groups]
        else:
            ledger.add(_drain(problem, config, groups, pieces, fields, stop))
            for future in futures:
                ledger.add(future.result())
        # 5. f at the child estimates, level by level: level l's hi rows
        # head group l, its lo rows trail group l-1 (the zero field at l = 1).
        # The sample at row j of level l >= 1 has its hi child's path, row j
        # of group l.
        lo = np.zeros((k * base ** (depth - 1), 1 + d)) if blocks else None
        for weights, (_, child_paths, s, xi), field in zip(blocks, groups,
                                                          fields):
            count = weights[0].size
            _check_stop(stop)
            _add_level(out, problem.nonlinearity, child_paths, tau, e,
                       weights, s[:count], xi[:count], None,
                       (field[:count], lo))
            lo = field[count:]
    except Exception:
        if pool is None:
            raise
        # Threads fail in any order, and a split group hands g and f fewer
        # rows per call: stop the other threads at their next block and
        # replay the estimate here, so that the error raised is the
        # one-thread error, shape, row and stream path alike.
        stop.set()
        pool.shutdown()
        _batch(problem, config, depth, paths, t, x, DrawLedger())
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    return out


def _terminal(out, g, seed, paths, x, tau, m, ledger):
    """Set the running sums ``out`` to the terminal block's estimates: m
    samples of g per node, differenced against g(x); one g call takes the K
    query points followed by the samples."""
    k, d = x.shape
    sqrt_tau = np.sqrt(tau)
    suffixes = _suffixes(k, 0, m, -1)
    z = ndtri(block_uniforms(seed, paths, suffixes, d, ledger).reshape(
        k, m, d))
    # The K query points, then the samples x + sqrt(T - t) Z, written in
    # place.
    points = np.empty((k + k * m, d))
    points[:k] = x
    samples = points[k:].reshape(k, m, d)
    np.multiply(sqrt_tau[:, :, None], z, out=samples)
    samples += x[:, None, :]
    gv = _checked("g", g(points), k + k * m,
                  lambda j: _path(paths, j) if j < k
                  else _path(paths, j - k, suffixes))
    g_at_x = gv[:k]
    dg = gv[k:].reshape(k, m) - g_at_x[:, None]
    # Means as sum / m: np.mean's own arithmetic, without its call overhead.
    out[:, 0] = g_at_x + dg.sum(axis=1) / m
    # The score Z / sqrt(T - t) -> 0 where a node sits at the horizon
    # (a sample time that rounded onto T), instead of 0/0: its exact
    # gradient is 0 there.
    np.divide(_weighted_sum(dg, z) / m, sqrt_tau, out=out[:, 1:],
              where=sqrt_tau > 0)


def _add_level(out, f, paths, tau, e, weights, s, xi, suffixes, field=None):
    """Add a level block's weighted means of f into the running sums
    ``out``.  ``weights`` is the block's ``(r, z, root)``, ``s`` and ``xi``
    its sample times and points, and sample row j has stream path
    ``_path(paths, j, suffixes)``.  Without ``field`` (level 0) f is called
    at the zero field; else ``field`` is the pair of ``(count, 1+d)``
    depth-l and depth-(l-1) estimates at the block's rows, one f call takes
    the rows at the first, then the same rows at the second, and the
    difference is used.  f gets C-order arrays."""
    r, z, root = weights
    count = r.size
    if field is None:
        fv = _checked("f", f(s, xi, np.zeros(count),
                             np.zeros((count, xi.shape[1]))),
                      count, lambda j: _path(paths, j, suffixes))
    else:
        hi, lo = field
        fv = _checked("f", f(np.concatenate([s, s]), np.concatenate([xi, xi]),
                             np.concatenate([hi[:, 0], lo[:, 0]]),
                             np.concatenate([hi[:, 1:], lo[:, 1:]])),
                      2 * count, lambda j: _path(paths, j % count, suffixes))
        fv = fv[:count] - fv[count:]
    w = _time_weight(r, tau, e) * fv.reshape(r.shape)
    m = r.shape[1]
    out[:, 0] += w.sum(axis=1) / m
    # w / root -> 0 where r underflowed to 0 (e near 0): the integrand's
    # limit for e < 1/2, instead of 0/0.
    ratio = np.divide(w, root, out=np.zeros(w.shape), where=root > 0)
    out[:, 1:] += _weighted_sum(ratio, z) / m


def _level_block(seed, paths, t, x, tau, e, level, m, ledger):
    """Level-``level`` block of a group, m samples (r, Z) per node: its
    ``(r, z, root)`` for :func:`_add_level`, with root = sqrt((T - t) r),
    its sample times s and points xi, and its stream suffixes."""
    k, d = x.shape
    suffixes = _suffixes(k, level, m, 1)
    u = block_uniforms(seed, paths, suffixes, 1 + d, ledger).reshape(
        k, m, 1 + d)
    r = u[:, :, 0] ** (1.0 / e)
    z = ndtri(u[:, :, 1:])
    tau_r = tau * r
    s = (t[:, None] + tau_r).reshape(-1)
    root = np.sqrt(tau_r)
    xi = root[:, :, None] * z
    xi += x[:, None, :]
    return (r, z, root), s, xi.reshape(-1, d), suffixes


def _workers() -> int:
    """CPUs this process may run on: the most threads an estimate of at
    least FANOUT_MIN_DRAWS draws uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pieces(groups: list, d: int, base: int, total: int, workers: int):
    """The fan-out's pieces ``(i, a, b)``, nodes a..b-1 of group i, over
    the child ``groups`` of a parent group whose estimate costs ``total``
    draws, the dearest first (a depth-l node costs ``cost_rv(d, l, M)``
    draws; pieces of equal cost stay in group and node order).  A group
    stays whole unless it is dearer than an equal share, total / workers:
    then it is cut at the node boundaries below 1, 2, .. shares, the
    remainder last.  So a group is drawn by more than one thread only when
    it is dearer than a share, and the cuts add fewer than ``workers``
    pieces."""
    pieces = []
    for i, (depth, paths, _, _) in enumerate(groups):
        count = len(paths)
        per_node = cost_rv(d, depth, base)
        cuts = -(-count * per_node * workers // total)
        bounds = [q * total // (workers * per_node)
                  for q in range(cuts)] + [count]
        pieces += [((b - a) * per_node, i, a, b)
                   for a, b in zip(bounds, bounds[1:]) if a < b]
    pieces.sort(key=lambda piece: -piece[0])
    return [piece[1:] for piece in pieces]


def _drain(problem, config, groups, pieces, fields, stop):
    """A fan-out thread's work: take pieces (i, a, b), nodes a..b-1 of
    group i, from the shared deque ``pieces`` until it is empty, and write
    their estimates to ``fields[i][a:b]``; return the draws they took.  It
    stops at its next block once ``stop`` is set, and sets ``stop`` when
    it raises."""
    ledger = DrawLedger()
    try:
        while True:
            try:
                i, a, b = pieces.popleft()
            except IndexError:
                return ledger.scalar_draws
            depth, paths, t, x = groups[i]
            fields[i][a:b] = _batch(problem, config, depth, paths[a:b],
                                    t[a:b], x[a:b], ledger, 1, stop)
    except BaseException:
        stop.set()
        raise


def _check_stop(stop: threading.Event | None) -> None:
    """Raise :class:`_Stopped` once ``stop`` is set: another fan-out thread
    of the estimate has raised."""
    if stop is not None and stop.is_set():
        raise _Stopped


def replicate(
    problem: PdeProblem,
    config: MlpConfig,
    t: float,
    x: np.ndarray,
    replications: int = 100,
) -> list[FieldEstimate]:
    """``replications`` independent estimates in replication order,
    replication k using the stream family rooted at path (k,), each under
    the draw budget (see :func:`resolve_budget`).  A count that is
    not an int64 integer (a ``bool`` is not), or is below one, raises
    :class:`~mlpicard.core.InvalidProblem` naming ``replications``."""
    if not is_int64(replications):
        raise InvalidProblem([Violation(
            "replications", "ReplicationsNotInt64",
            f"replications must be an int64 integer, got {replications!r}")])
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
    combined: float  # sqrt(value MSE + worst per-coordinate gradient MSE)
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
    sq, gsq = _squared_errors(estimates, reference_value, reference_gradient)
    mse_value = float(np.mean(sq))
    worst = float(np.max(np.mean(gsq, axis=0)))
    return RmseReport(
        rmse_value=math.sqrt(mse_value),
        rmse_gradient_max=math.sqrt(worst),
        combined=math.sqrt(mse_value + worst),
        samples=len(estimates),
    )


def _squared_errors(estimates, reference_value, reference_gradient):
    """Squared errors of the estimates' values (N,) and gradients (N, d);
    ``ValueError`` naming ``reference_gradient`` unless it has shape
    (d,)."""
    ref_g = np.asarray(reference_gradient, dtype=float)
    values = np.array([est.value for est in estimates])
    grads = np.stack([est.gradient for est in estimates])
    if ref_g.shape != grads.shape[1:]:
        raise ValueError(f"reference_gradient must have shape "
                         f"{grads.shape[1:]}, got {ref_g.shape}")
    return (values - reference_value) ** 2, (grads - ref_g[None, :]) ** 2
