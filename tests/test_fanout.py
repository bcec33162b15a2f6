"""The root fan-out: estimates spread over threads keep every bit and every
error of the one-thread walk."""

import hashlib
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import ndtri

from mlpicard import (
    CallbackContractError,
    MlpConfig,
    builtin_case,
    cost_rv,
    evaluate,
    replicate,
    stream_uniforms,
    to_canonical,
)
from mlpicard import engine

# (value.hex(), sha256 of gradient bytes, draws) of grad-dependent-sine at
# n = M = 5, t = 0.25, x = linspace(-0.4, 0.6, d), recorded with the
# one-thread engine before the fan-out existed.
KNOWN = {
    (3, 0): ["-0x1.7e00fabf0df69p-3",
             "9c41f10b6bd7473843d87490817bdc1db4a53e47e9f2fbeac7c517e467a49b16",
             427695],
    (3, 7): ["0x1.6046f813b3103p-5",
             "f4855add7bc108f9d32a21e61aaa873ead8c31a4c247d85edc8a2335af6ae336",
             427695],
    (10, 0): ["0x1.da67a096c6bdbp-2",
              "e62883366764bb84838276306ac7ba48a2be52e550ed383807076b3cee738b23",
              1277005],
    (10, 7): ["-0x1.598c7812b0e90p-3",
              "12837c00b048b254e8866c7b1877c6553426de76407c4688426267a021c6be22",
              1277005],
}


@lru_cache(maxsize=None)
def _sine(d):
    return to_canonical(builtin_case("grad-dependent-sine",
                                     dimension=d).problem)[0]


def _recording(problem, seen):
    """``problem`` with g and f recording (thread id, errstate['over'])."""
    g, f = problem.terminal_data, problem.nonlinearity

    def g_rec(x):
        seen.add((threading.get_ident(), np.geterr()["over"]))
        return g(x)

    def f_rec(t, x, y, z):
        seen.add((threading.get_ident(), np.geterr()["over"]))
        return f(t, x, y, z)

    return replace(problem, terminal_data=g_rec, nonlinearity=f_rec)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fanout_reproduces_one_thread_bits(monkeypatch, workers):
    monkeypatch.setattr(engine, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    # More threads than the machine may have cores, and frequent switches
    # between them, for the three-worker run.
    if workers == 3:
        sys.setswitchinterval(1e-5)
    try:
        for (d, seed), known in KNOWN.items():
            assert cost_rv(d, 5, 5) >= engine.FANOUT_MIN_DRAWS
            seen = set()
            with np.errstate(over="raise"):
                est = evaluate(_recording(_sine(d), seen),
                               MlpConfig(depth=5, base=5, root_seed=seed),
                               0.25, np.linspace(-0.4, 0.6, d))
            assert [est.value.hex(),
                    hashlib.sha256(est.gradient.tobytes()).hexdigest(),
                    est.draws] == known, (d, seed)
            assert est.draws == cost_rv(d, 5, 5)
            # Callbacks ran on `workers` threads, under the caller's errstate.
            assert len({ident for ident, _ in seen}) == workers
            assert {over for _, over in seen} == {"raise"}
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_group_of_roots_reproduces_replicate(monkeypatch, workers):
    # Three roots at (k,), k = 1..3, in chunks of two nodes, against one
    # evaluate each.
    problem, config = _sine(3), MlpConfig(depth=5, base=5, root_seed=7)
    x0 = np.linspace(-0.4, 0.6, 3)
    cost = cost_rv(3, 5, 5)
    assert cost >= engine.FANOUT_MIN_DRAWS
    expected = replicate(problem, config, 0.25, x0, 3)
    monkeypatch.setattr(engine, "_workers", lambda: workers)
    monkeypatch.setattr(engine, "CHUNK_MAX_DRAWS", 2 * cost + 1)
    chunks = []
    batch = engine._batch

    def counting(problem, config, depth, paths, *rest):
        if depth == config.depth:
            chunks.append(len(paths))
        return batch(problem, config, depth, paths, *rest)

    monkeypatch.setattr(engine, "_batch", counting)
    rows, draws = engine._estimates(problem, config, np.full(3, 0.25),
                                    np.tile(x0, (3, 1)),
                                    np.arange(1, 4).reshape(-1, 1))
    assert chunks == [2, 1]
    assert draws == 3 * cost
    for row, est in zip(rows, expected):
        assert float(row[0]).hex() == est.value.hex()
        assert row[1:].tobytes() == est.gradient.tobytes()


def _replay(seed, theta, t, x, horizon, e, pairs):
    """(t, x) of the row reached from the root (t, x) through the suffix
    ``pairs`` of a stream path, rebuilt from ``stream_uniforms`` with the
    engine's arithmetic: each pair (a, i) moves to sample i of the parent's
    level-|a| block, drawn at ``parent path + (|a|, i)``."""
    t, x, path = np.array([t]), x[None, :], tuple(theta)
    for a, i in pairs:
        u = stream_uniforms(seed, path + (abs(a), i), 1 + x.shape[1])[None]
        tau = (horizon - t)[:, None]
        r = u[:, :1] ** (1.0 / e)
        root = np.sqrt(tau * r)
        t = (t[:, None] + tau * r).reshape(-1)
        x = x + root * ndtri(u[:, 1:])
        path += (a, i)
    return t[0], x[0]


@pytest.mark.parametrize("case, workers", [
    pytest.param("deep-f", 2, id="2"),
    pytest.param("deep-f", 3, id="3"),
    pytest.param("root-g", 2, id="root-g-2"),
    pytest.param("root-g", 3, id="root-g-3"),
    pytest.param("two-rows", 2, id="two-rows-2"),
    pytest.param("two-rows", 3, id="two-rows-3"),
])
def test_fanout_error_names_the_one_thread_row(monkeypatch, case, workers):
    # deep-f: f fails at one deep row: sample 2 of the level-1 block of the
    # node reached by (4, 3) then (2, 1), under node 2 of the root's depth-4
    # group, the dearest.  Two workers draw that group whole, on whichever
    # thread takes it; three cut it into two pieces, nodes 0-2 and 3-4.
    # root-g: g fails at the root's terminal sample 3, on the calling
    # thread while the other threads run.
    # two-rows: f fails at the deep row and at the root's level-1 sample 2;
    # a one-thread run calls f on the root's level-1 block after every
    # child group, so it names the deep row.
    # The error under fan-out is the one-thread error, its stream path
    # replays the row, and no worker thread outlives the call.
    d, seed, theta = 3, 5, (0,)
    problem, config = _sine(d), MlpConfig(depth=5, base=5, root_seed=seed)
    x0 = np.linspace(-0.4, 0.6, d)
    deep = ((4, 3), (2, 1), (1, 2))
    g, f = problem.terminal_data, problem.nonlinearity
    if case == "root-g":
        x_bad = x0 + np.sqrt(problem.horizon - 0.25) * ndtri(
            stream_uniforms(seed, theta + (0, -3), d))
        problem = replace(problem, terminal_data=lambda x: np.where(
            np.all(x == x_bad, axis=1), np.nan, g(x)))
        expected = theta + (0, -3)
    else:
        bad = [_replay(seed, theta, 0.25, x0, problem.horizon,
                       config.time_cdf_exponent, pairs)
               for pairs in ([deep] if case == "deep-f"
                             else [deep, ((1, 2),)])]

        def faulty(t, x, y, z):
            hit = np.zeros(len(t), dtype=bool)
            for s_bad, x_bad in bad:
                hit |= (t == s_bad) & np.all(x == x_bad, axis=1)
            return np.where(hit, np.nan, f(t, x, y, z))

        problem = replace(problem, nonlinearity=faulty)
        expected = theta + sum(deep, ())
    threads = set(threading.enumerate())
    messages = []
    for count in (1, workers):
        monkeypatch.setattr(engine, "_workers", lambda: count)
        with pytest.raises(CallbackContractError) as excinfo:
            evaluate(problem, config, 0.25, x0, theta=theta)
        messages.append(str(excinfo.value))
        assert excinfo.value.path == expected
        assert all(type(v) is int for v in excinfo.value.path)
        assert set(threading.enumerate()) == threads
    assert messages[1] == messages[0]
    assert f"stream path {expected}" in messages[0]
    callback = "g" if case == "root-g" else "f"
    assert messages[0].startswith(f"{callback} returned non-finite value nan")


@pytest.mark.parametrize("workers", [2, 3])
def test_fanout_stops_the_other_jobs_after_an_error(monkeypatch, workers):
    # g fails at the root's terminal sample 3, on the calling thread, while
    # the other threads run their child groups.  They stop at their next
    # block, so each worker thread makes at most one callback call after
    # the failing g call: one it may have begun before the failure was
    # seen.
    d, seed, theta = 3, 5, (0,)
    problem, config = _sine(d), MlpConfig(depth=5, base=5, root_seed=seed)
    x0 = np.linspace(-0.4, 0.6, d)
    x_bad = x0 + np.sqrt(problem.horizon - 0.25) * ndtri(
        stream_uniforms(seed, theta + (0, -3), d))
    g, f = problem.terminal_data, problem.nonlinearity
    calls = []

    def g_rec(x):
        calls.append(threading.get_ident())
        hit = np.all(x == x_bad, axis=1)
        values = np.where(hit, np.nan, g(x))
        if hit.any():
            calls.append("failed")
        return values

    def f_rec(t, x, y, z):
        calls.append(threading.get_ident())
        return f(t, x, y, z)

    monkeypatch.setattr(engine, "_workers", lambda: workers)
    main = threading.get_ident()
    with pytest.raises(CallbackContractError, match=r"\(0, 0, -3\)"):
        evaluate(replace(problem, terminal_data=g_rec, nonlinearity=f_rec),
                 config, 0.25, x0, theta=theta)
    after = calls[calls.index("failed") + 1:]
    for ident in set(after) - {main, "failed"}:
        assert after.count(ident) <= 1


@pytest.mark.parametrize("callback", ["g", "f"])
def test_error_names_a_later_node_of_a_child_group(monkeypatch, callback):
    # g fails at terminal sample 3 of the node reached by (3, 2) then
    # (-2, 4), node 758 of its depth-1 group; f fails at level-0 sample 2
    # of the node reached by (1, 4), node 3 of the root's depth-1 group.
    # A block row j belongs to node j // m, so the path named is that
    # node's path + (0, -i) for g and + (0, i) for f, on one thread and
    # under the fan-out alike.
    d, seed, theta = 3, 5, (0,)
    problem, config = _sine(d), MlpConfig(depth=5, base=5, root_seed=seed)
    x0 = np.linspace(-0.4, 0.6, d)
    e = config.time_cdf_exponent
    g, f = problem.terminal_data, problem.nonlinearity
    if callback == "g":
        node = ((3, 2), (-2, 4))
        expected = theta + sum(node, ()) + (0, -3)
        t_node, x_node = _replay(seed, theta, 0.25, x0, problem.horizon, e,
                                 node)
        x_bad = x_node + np.sqrt(problem.horizon - t_node) * ndtri(
            stream_uniforms(seed, expected, d))
        problem = replace(problem, terminal_data=lambda x: np.where(
            np.all(x == x_bad, axis=1), np.nan, g(x)))
    else:
        node = ((1, 4),)
        expected = theta + sum(node, ()) + (0, 2)
        s_bad, x_bad = _replay(seed, theta, 0.25, x0, problem.horizon, e,
                               node + ((0, 2),))
        problem = replace(problem, nonlinearity=lambda t, x, y, z: np.where(
            (t == s_bad) & np.all(x == x_bad, axis=1), np.nan, f(t, x, y, z)))
    assert cost_rv(d, 5, 5) >= engine.FANOUT_MIN_DRAWS
    for workers in (1, 2, 3):
        monkeypatch.setattr(engine, "_workers", lambda: workers)
        with pytest.raises(CallbackContractError) as excinfo:
            evaluate(problem, config, 0.25, x0, theta=theta)
        assert excinfo.value.path == expected, workers
        message = str(excinfo.value)
        assert message.startswith(f"{callback} returned non-finite value nan")
        assert f"at stream path {expected}" in message, workers


def _root_groups(n, base):
    """The child groups ``_batch`` forms under one depth-n root: group j
    (index j - 1) holds the depth-j hi children of level j's samples, then
    the depth-j lo children of level j+1's."""
    groups = []
    for j in range(1, n):
        count = base ** (n - j) + (base ** (n - j - 1) if j < n - 1 else 0)
        groups.append((j, np.zeros((count, 1)), None, None))
    return groups


def test_pieces_cut_only_groups_dearer_than_a_share():
    # The root's children at d = 10, n = M = 5: groups of 750, 150, 30 and
    # 5 nodes of depths 1..4, holding 6.2%, 13.0%, 27.3% and 47.7% of the
    # draws; the root's own blocks hold 5.8%.  At one and two workers no
    # group exceeds a share, so the pieces are the whole groups, the
    # dearest first.  At three workers only the depth-4 group exceeds a
    # share and is cut at the node boundary below one share: nodes 0-2
    # (28.6%) and the remainder, 3-4 (19.1%).
    groups = _root_groups(5, 5)
    total = cost_rv(10, 5, 5)
    whole = [(i, 0, len(group[1])) for i, group in enumerate(groups)]
    for workers in (1, 2):
        assert engine._pieces(groups, 10, 5, total, workers) == whole[::-1]
    assert engine._pieces(groups, 10, 5, total, 3) == [
        (3, 0, 3), (2, 0, 30), (3, 3, 5), (1, 0, 150), (0, 0, 750)]
    for workers in (2, 3, 4, 7, 50):
        pieces = engine._pieces(groups, 10, 5, total, workers)
        costs = [(b - a) * cost_rv(10, groups[i][0], 5) for i, a, b in pieces]
        assert costs == sorted(costs, reverse=True)
        # Every node in exactly one piece, only a group dearer than an equal
        # share is cut, and the cuts add fewer than `workers` pieces.
        covered = {}
        for i, a, b in sorted(pieces):
            assert a == covered.get(i, 0) < b
            covered[i] = b
        assert covered == {i: b for i, _, b in whole}
        for i, (depth, paths, _, _) in enumerate(groups):
            cut = sum(piece[0] == i for piece in pieces) > 1
            assert cut == (len(paths) * cost_rv(10, depth, 5) * workers
                           > total)
        assert len(pieces) - len(groups) <= workers - 1
    # At d = 10, n = 3, M = 2 and three workers the depth-2 group (43.9%)
    # is cut in two.
    assert engine._pieces(_root_groups(3, 2), 10, 2, cost_rv(10, 3, 2),
                          3) == [(0, 0, 6), (1, 0, 1), (1, 1, 2)]


@pytest.mark.parametrize("workers", [1, 2])
def test_fanout_draws_each_group_in_one_job(monkeypatch, workers):
    # A d = 3, n = M = 5 estimate walks 2**4 groups in 47 blocks.  At two
    # workers no child group exceeds an equal share, so none is cut and no
    # subtree is drawn twice: 47 block calls there as well.
    problem, config = _sine(3), MlpConfig(depth=5, base=5, root_seed=0)
    calls = []
    block_uniforms = engine.block_uniforms

    def counting(*args):
        calls.append(threading.get_ident())
        return block_uniforms(*args)

    monkeypatch.setattr(engine, "block_uniforms", counting)
    monkeypatch.setattr(engine, "_workers", lambda: workers)
    est = evaluate(problem, config, 0.25, np.linspace(-0.4, 0.6, 3))
    assert len(calls) == 47
    assert len(set(calls)) == workers
    assert [est.value.hex(),
            hashlib.sha256(est.gradient.tobytes()).hexdigest(),
            est.draws] == KNOWN[3, 0]


def _terminal_nodes(tally):
    """The root's child nodes (stream paths of three entries) whose
    terminal block was drawn, with how often each was."""
    return Counter(tuple(row) for _, paths, suffixes in tally
                   if paths.shape[1] == 3 and tuple(suffixes[0]) == (0, -1)
                   for row in paths.tolist())


@pytest.mark.parametrize("workers", [2, 3])
def test_slow_worker_threads_keep_every_bit(monkeypatch, workers):
    # Worker threads that draw every block 2 ms late may leave more pieces
    # to the calling thread, but each piece is still drawn once: the bits, the draw count and, at two workers, the 47
    # block calls of a one-thread run; at three, where the depth-4 group is
    # cut in two, every node of the root's child groups is drawn exactly
    # once, on one thread.
    problem, config = _sine(3), MlpConfig(depth=5, base=5, root_seed=0)
    x0 = np.linspace(-0.4, 0.6, 3)
    tally = []
    block_uniforms = engine.block_uniforms

    def slow(seed, paths, suffixes, *rest):
        tally.append((threading.get_ident(), paths, suffixes))
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.002)
        return block_uniforms(seed, paths, suffixes, *rest)

    monkeypatch.setattr(engine, "block_uniforms", slow)
    monkeypatch.setattr(engine, "_workers", lambda: 1)
    evaluate(problem, config, 0.25, x0)
    one_thread = _terminal_nodes(tally)
    assert len(one_thread) == 750 + 150 + 30 + 5
    tally.clear()
    monkeypatch.setattr(engine, "_workers", lambda: workers)
    est = evaluate(problem, config, 0.25, x0)
    assert [est.value.hex(),
            hashlib.sha256(est.gradient.tobytes()).hexdigest(),
            est.draws] == KNOWN[3, 0]
    if workers == 2:
        assert len(tally) == 47
    assert _terminal_nodes(tally) == one_thread
    assert set(one_thread.values()) == {1}
    # Each node's subtree is drawn on the thread that drew the node.
    thread_of = {tuple(row): ident for ident, paths, _ in tally
                 if paths.shape[1] == 3 for row in paths.tolist()}
    assert all(thread_of[tuple(row[:3])] == ident
               for ident, paths, _ in tally if paths.shape[1] > 3
               for row in paths.tolist())
