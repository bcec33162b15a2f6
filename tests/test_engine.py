"""Estimator evaluation: moments, draw accounting, determinism, guards."""

import hashlib
import json
import math
import threading
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpicard import (
    CallbackContractError,
    DepthCostGuard,
    EmptySample,
    FieldEstimate,
    InvalidConvention,
    InvalidProblem,
    MlpConfig,
    Overflow,
    PdeProblem,
    QueryAtTerminalTime,
    builtin_case,
    cost_rv,
    evaluate,
    replicate,
    rmse,
    to_canonical,
)
from mlpicard import engine
from mlpicard.engine import BUDGET_ENV_VAR, DEFAULT_COST_BUDGET, resolve_budget
from mlpicard.cases import BUILTIN_CASES


def linear_problem(slope=1.5, dimension=1):
    a = np.full(dimension, slope)
    return PdeProblem(
        dimension=dimension,
        horizon=1.0,
        terminal_data=lambda x: x @ a,
        nonlinearity=lambda t, x, y, z: np.zeros_like(np.asarray(t,
                                                                 dtype=float)),
        lipschitz_solution=(0.0,) * (dimension + 1),
        lipschitz_space=tuple(a),
    )


def quadratic_problem(dimension=1):
    return PdeProblem(
        dimension=dimension,
        horizon=1.0,
        terminal_data=lambda x: (x**2).sum(axis=1),
        nonlinearity=lambda t, x, y, z: np.zeros_like(np.asarray(t,
                                                                 dtype=float)),
        lipschitz_solution=(0.0,) * (dimension + 1),
        lipschitz_space=(8.0,) * dimension,
    )


def test_depth_zero_returns_zero_field_with_no_draws():
    est = evaluate(linear_problem(), MlpConfig(depth=0, base=3), 0.2,
                   np.array([0.7]))
    assert est.value == 0.0
    assert np.array_equal(est.gradient, [0.0])
    assert est.draws == 0


def test_single_step_single_sample_draw_count():
    # n = 1, M = 1, d = 1: one terminal Gaussian plus one (time, Gaussian)
    # pair for the level-0 block.
    est = evaluate(linear_problem(), MlpConfig(depth=1, base=1), 0.0,
                   np.array([0.0]))
    assert est.draws == 3 == cost_rv(1, 1, 1)


def test_one_step_mean_matches_gaussian_moments():
    # For f = 0 and linear g = a.x the estimate is (g(x + sqrt(tau) Z),
    # a Z Z^T row sums / ...): its expectation is (a.x, a).
    slope = 1.5
    prob = linear_problem(slope=slope, dimension=2)
    t, x = 0.3, np.array([0.4, -1.1])
    config = MlpConfig(depth=1, base=1, root_seed=3)
    vectors = np.stack([est.as_vector()
                        for est in replicate(prob, config, t, x, 10_000)])
    mean = vectors.mean(axis=0)
    se = vectors.std(axis=0, ddof=1) / math.sqrt(len(vectors))
    target = np.array([slope * x.sum(), slope, slope])
    assert np.all(np.abs(mean - target) <= 3.0 * se)


def test_one_step_rmse_matches_direct_monte_carlo():
    # Same one-step estimator; its exact error distribution is simulated
    # directly with an unrelated generator, and the replication RMSE must
    # match that oracle within 10%.
    slope = 1.5
    prob = linear_problem(slope=slope)
    t, x = 0.3, np.array([0.4])
    tau = 1.0 - t
    config = MlpConfig(depth=1, base=1, root_seed=11)
    estimates = replicate(prob, config, t, x, 10_000)
    report = rmse(estimates, slope * x[0], np.array([slope]))

    rng = np.random.default_rng(2024)
    z = rng.standard_normal(1_000_000)
    value_err = slope * math.sqrt(tau) * z
    grad_err = slope * (z**2 - 1.0)
    oracle_value = math.sqrt(np.mean(value_err**2))
    oracle_grad = math.sqrt(np.mean(grad_err**2))
    assert report.rmse_value == pytest.approx(oracle_value, rel=0.1)
    assert report.rmse_gradient_max == pytest.approx(oracle_grad, rel=0.1)
    assert report.samples == 10_000


def test_draw_ledger_matches_cost_recursion_on_grid():
    for d in (1, 3):
        case = builtin_case("grad-dependent-sine", dimension=d)
        canonical, _ = to_canonical(case.problem)
        x = np.zeros(d)
        for n in (0, 1, 2, 3):
            for base in (1, 2, 3):
                est = evaluate(canonical, MlpConfig(depth=n, base=base),
                               0.0, x)
                assert est.draws == cost_rv(d, n, base), (d, n, base)


@lru_cache(maxsize=None)
def _sine_problem(d):
    return to_canonical(builtin_case("grad-dependent-sine",
                                     dimension=d).problem)[0]


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(0, 3), base=st.integers(1, 3),
       seed=st.integers(-2**63, 2**63 - 1),
       theta=st.lists(st.integers(-2**63, 2**63 - 1), max_size=3).map(tuple))
def test_ledger_matches_cost_and_estimate_is_finite(d, n, base, seed, theta):
    est = evaluate(_sine_problem(d), MlpConfig(depth=n, base=base,
                                               root_seed=seed),
                   0.25, np.linspace(-0.4, 0.6, d), theta=theta)
    assert est.draws == cost_rv(d, n, base)
    assert math.isfinite(est.value)
    assert np.all(np.isfinite(est.gradient))


def _rows_g(n, base):
    """g rows of one depth-n estimate: the query point, M^n terminal
    samples and, per level-l sample, the hi and lo children's rows."""
    return 0 if n == 0 else 1 + base**n + sum(
        base ** (n - level) * (_rows_g(level, base) + _rows_g(level - 1, base))
        for level in range(1, n))


def _rows_f(n, base):
    """f rows of one depth-n estimate: M^n at level 0 and, per level-l
    sample, one row at each child plus the children's own rows."""
    return 0 if n == 0 else base**n + sum(
        base ** (n - level)
        * (2 + _rows_f(level, base) + _rows_f(level - 1, base))
        for level in range(1, n))


@pytest.mark.parametrize("n, base", [(1, 3), (2, 2), (3, 3), (4, 2), (5, 5)])
def test_one_group_per_depth_call_counts(monkeypatch, n, base):
    # On one thread a depth-n group has one child group per depth 1..n-1,
    # so an estimate walks 2^(n-1) groups, calls g once per group and f
    # once per group and level: 2^n - 1 times.  Rows do not depend on how
    # nodes are grouped.
    monkeypatch.setattr(engine, "_workers", lambda: 1)
    batch = engine._batch
    groups = []

    def counted(problem, config, depth, *args):
        if depth > 0:
            groups.append(depth)
        return batch(problem, config, depth, *args)

    monkeypatch.setattr(engine, "_batch", counted)
    calls = {"g": [], "f": []}
    problem = _sine_problem(3)
    g, f = problem.terminal_data, problem.nonlinearity

    def g_counted(x):
        calls["g"].append(len(x))
        return g(x)

    def f_counted(t, x, y, z):
        calls["f"].append(len(t))
        return f(t, x, y, z)

    problem = replace(problem, terminal_data=g_counted,
                      nonlinearity=f_counted)
    est = evaluate(problem, MlpConfig(depth=n, base=base), 0.25,
                   np.linspace(-0.4, 0.6, 3))
    assert est.draws == cost_rv(3, n, base)
    assert len(groups) == len(calls["g"]) == 2 ** (n - 1)
    assert len(calls["f"]) == 2**n - 1
    assert sum(calls["g"]) == _rows_g(n, base)
    assert sum(calls["f"]) == _rows_f(n, base)


def test_row_recursions_known_values():
    assert (_rows_g(5, 5), _rows_f(5, 5)) == (64_286, 69_785)


def test_depth_invariance_when_nonlinearity_vanishes():
    # With f = 0 every level block contributes exactly zero and, at M = 1,
    # the terminal block reuses the same single stream at every depth, so
    # estimates are bit-identical across n.
    prob = quadratic_problem(dimension=2)
    x = np.array([0.3, -0.6])
    reference = evaluate(prob, MlpConfig(depth=1, base=1), 0.1, x)
    for n in (2, 3, 4):
        est = evaluate(prob, MlpConfig(depth=n, base=1), 0.1, x)
        assert est.value == reference.value
        assert np.array_equal(est.gradient, reference.gradient)
        assert est.draws == cost_rv(2, n, 1)


def test_constant_terminal_data_estimated_exactly():
    prob = PdeProblem(
        dimension=1,
        horizon=1.0,
        terminal_data=lambda x: np.full(x.shape[0], 4.25),
        nonlinearity=lambda t, x, y, z: np.zeros_like(
            np.asarray(t, dtype=float)),
        lipschitz_solution=(0.0, 0.0),
        lipschitz_space=(0.0,),
    )
    est = evaluate(prob, MlpConfig(depth=3, base=2), 0.0, np.array([1.0]))
    assert est.value == 4.25
    assert np.array_equal(est.gradient, [0.0])


def test_evaluate_known_answers():
    # Estimates of the node-by-node recursive engine that the group-batched
    # engine replaced, stored as (value.hex(), sha256 of gradient bytes,
    # draws).  Batching must not change a single bit; a change here changes
    # every estimate the package produces.
    known = json.loads(
        (Path(__file__).parent / "engine_known_answers.json").read_text())

    def answer(est):
        return [est.value.hex(),
                hashlib.sha256(est.gradient.tobytes()).hexdigest(),
                est.draws]

    for name in BUILTIN_CASES:
        for d in (1, 3):
            canonical, _ = to_canonical(
                builtin_case(name, dimension=d).problem)
            x = np.linspace(-0.4, 0.6, d)
            for n, base in ((0, 2), (1, 1), (2, 2), (3, 2), (2, 3)):
                for seed in (0, 7):
                    config = MlpConfig(depth=n, base=base, root_seed=seed)
                    est = evaluate(canonical, config, 0.25, x)
                    assert answer(est) == known[
                        f"{name} {d} {n} {base} {seed}"], (name, d, n, base,
                                                           seed)
    canonical, _ = to_canonical(
        builtin_case("grad-dependent-sine", dimension=3).problem)
    est = evaluate(canonical, MlpConfig(depth=3, base=2, root_seed=7), 0.25,
                   np.linspace(-0.4, 0.6, 3), theta=(9, -4, 2))
    assert answer(est) == known["theta"]


def test_weighted_sum_keeps_the_broadcast_sums_bits():
    # The gradient sums take einsum for d >= 2 and the broadcast sum at
    # d = 1, where numpy sums the length-1 axis pairwise and einsum does
    # not.  A numpy whose einsum adds in another order or fuses the
    # multiply-add fails here, not only as a known-answer mismatch.
    rng = np.random.default_rng(17)
    for k in (1, 4):
        for m in (1, 8, 3125):
            for d in (1, 2, 10, 100):
                w = rng.standard_normal((k, m))
                z = rng.standard_normal((k, m, d))
                expected = (w[:, :, None] * z).sum(axis=1)
                assert engine._weighted_sum(w, z).tobytes() == \
                    expected.tobytes(), (k, m, d)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_callbacks_get_c_order_float64_arrays(monkeypatch, d, workers):
    # A row sum's bits depend on the layout of its rows, and the blocks are
    # drawn through transposed arrays: every array g and f get is C-order
    # float64, on one thread and fanned out over two.
    monkeypatch.setattr(engine, "_workers", lambda: workers)
    monkeypatch.setattr(engine, "FANOUT_MIN_DRAWS", 1)
    problem = _sine_problem(d)
    g, f = problem.terminal_data, problem.nonlinearity
    seen = []

    def g_rec(x):
        seen.append((threading.get_ident(), x))
        return g(x)

    def f_rec(t, x, y, z):
        seen.append((threading.get_ident(), t, x, y, z))
        return f(t, x, y, z)

    evaluate(replace(problem, terminal_data=g_rec, nonlinearity=f_rec),
             MlpConfig(depth=5, base=5), 0.25, np.linspace(-0.4, 0.6, d))
    assert len({call[0] for call in seen}) == workers
    for call in seen:
        for array in call[1:]:
            assert array.dtype == np.float64
            assert array.flags.c_contiguous


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_small_time_exponent_gives_finite_estimates():
    # At e = 0.01, r = u**(1/e) underflows to 0 for some level samples, so
    # root = sqrt(tau r) = 0 and w / root would be 0/0; the gradient weight
    # takes its limit 0 there instead (replication 136 hits this).
    case = builtin_case("grad-dependent-sine", dimension=2)
    canonical, _ = to_canonical(case.problem)
    config = MlpConfig(depth=2, base=2, root_seed=0, time_cdf_exponent=0.01)
    for est in replicate(canonical, config, 0.0, np.zeros(2), 300):
        assert math.isfinite(est.value)
        assert np.all(np.isfinite(est.gradient))


def test_sample_time_rounded_onto_horizon_gives_finite_estimate():
    # One float below T, a level-1 sample time s = t + (T - t) r rounds onto
    # T, so the child node there has T - s = 0; its terminal score
    # Z / sqrt(T - s) takes its limit 0 (the exact field there is (g, 0))
    # instead of handing f a 0/0 NaN at stream path (0, 1, 1).
    config = MlpConfig(depth=2, base=2, root_seed=3, time_cdf_exponent=0.5)
    with np.errstate(all="raise"):
        est = evaluate(_sine_problem(2), config, math.nextafter(1.0, 0.0),
                       np.array([0.3, 0.3]))
    assert math.isfinite(est.value)
    assert np.all(np.isfinite(est.gradient))
    assert est.draws == cost_rv(2, 2, 2)


@lru_cache(maxsize=None)
def _canonical_case(name, d):
    return to_canonical(builtin_case(name, dimension=d).problem)[0]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUILTIN_CASES), d=st.integers(1, 3),
       t=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.integers(1, 64).map(lambda k: 1.0 - k * 2.0**-53)),
       e=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       x=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       n=st.integers(0, 3), base=st.integers(1, 3),
       seed=st.integers(-2**63, 2**63 - 1))
def test_admissible_queries_give_finite_estimates(name, d, t, e, x, n, base,
                                                  seed):
    # Every builtin case has canonical horizon 1.  No division by zero, no
    # overflow and no invalid operation anywhere in the recursion, up to
    # the last floats below the horizon.  evaluate ignores underflow
    # itself: r = u**(1/e) underflows to 0 for small e, and the engine
    # takes the limit.
    problem = _canonical_case(name, d)
    assert problem.horizon == 1.0
    config = MlpConfig(depth=n, base=base, root_seed=seed,
                       time_cdf_exponent=e)
    with np.errstate(all="raise"):
        est = evaluate(problem, config, t, np.array(x[:d]))
    assert math.isfinite(est.value)
    assert np.all(np.isfinite(est.gradient))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUILTIN_CASES), d=st.integers(1, 3),
       n=st.integers(0, 3), base=st.integers(1, 3),
       seed=st.integers(-2**63, 2**63 - 1), k=st.integers(1, 6),
       length=st.integers(1, 3), cap=st.sampled_from([1, 100, 1 << 22]),
       data=st.data())
def test_group_estimates_equal_one_node_estimates(name, d, n, base, seed, k,
                                                  length, cap, data):
    # Row j of one group call is evaluate(t_j, x_j, theta_j), bit for bit,
    # whatever the chunk cap splits the K nodes into.
    t = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=k, max_size=k))
    x = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                    max_size=d), min_size=k, max_size=k))
    thetas = data.draw(st.lists(
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=length,
                 max_size=length), min_size=k, max_size=k))
    problem = _canonical_case(name, d)
    config = MlpConfig(depth=n, base=base, root_seed=seed)
    with patch.object(engine, "CHUNK_MAX_DRAWS", cap):
        rows, draws = engine._estimates(problem, config, np.array(t),
                                        np.array(x), np.array(thetas))
    singles = [evaluate(problem, config, t[j], np.array(x[j]),
                        tuple(thetas[j])) for j in range(k)]
    assert rows.shape == (k, 1 + d)
    assert draws == sum(est.draws for est in singles)
    for row, est in zip(rows, singles):
        assert float(row[0]).hex() == est.value.hex()
        assert row[1:].tobytes() == est.gradient.tobytes()


def test_misshapen_callback_output_rejected():
    # An f returning (m, 1) would broadcast the (m,) time weight to (m, m).
    prob = replace(linear_problem(),
                   nonlinearity=lambda t, x, y, z: np.zeros((len(t), 1)))
    with pytest.raises(CallbackContractError) as excinfo:
        evaluate(prob, MlpConfig(depth=1, base=3), 0.0, np.array([0.5]),
                 theta=(4,))
    message = str(excinfo.value)
    assert message.startswith("f returned shape (3, 1), expected (3,)")
    assert "stream path (4, 0, 1)" in message


def test_non_finite_callback_output_names_stream_path():
    # g is finite at the query point only, so the first offending row is
    # the first terminal sample of the root, at path theta + (0, -1).
    x0 = np.array([0.5, -0.5])
    prob = replace(linear_problem(dimension=2),
                   terminal_data=lambda x: np.where(np.all(x == x0, axis=1),
                                                    1.0, np.nan))
    with pytest.raises(CallbackContractError) as excinfo:
        evaluate(prob, MlpConfig(depth=2, base=2), 0.0, x0, theta=(3, 1))
    message = str(excinfo.value)
    assert message.startswith("g returned non-finite value nan")
    assert "stream path (3, 1, 0, -1)" in message


def test_replicate_is_deterministic():
    case = builtin_case("grad-dependent-sine", dimension=1)
    canonical, _ = to_canonical(case.problem)
    config = MlpConfig(depth=2, base=2, root_seed=9)
    x = np.array([0.5])
    first = replicate(canonical, config, 0.0, x, 8)
    second = replicate(canonical, config, 0.0, x, 8)
    for a, b in zip(first, second):
        assert a.value == b.value
        assert np.array_equal(a.gradient, b.gradient)
        assert a.draws == b.draws


def test_replicate_rejects_nonpositive_count():
    for count in (0, -3):
        with pytest.raises(InvalidProblem) as excinfo:
            replicate(linear_problem(), MlpConfig(depth=1, base=1), 0.0,
                      np.array([0.0]), count)
        assert [v.code for v in excinfo.value.violations] == [
            "NonpositiveReplications"]
        assert f"replications must be >= 1, got {count}" in str(excinfo.value)


@pytest.mark.parametrize("count", [True, 2.5, "3", None, 1 << 63])
def test_replicate_rejects_a_count_that_is_not_an_int64(count):
    with pytest.raises(InvalidProblem) as excinfo:
        replicate(linear_problem(), MlpConfig(depth=1, base=1), 0.0,
                  np.array([0.0]), count)
    assert [v.code for v in excinfo.value.violations] == [
        "ReplicationsNotInt64"]
    assert (f"replications must be an int64 integer, got {count!r}"
            in str(excinfo.value))


def test_replications_use_distinct_streams():
    config = MlpConfig(depth=1, base=1)
    values = [est.value
              for est in replicate(linear_problem(), config, 0.0,
                                   np.array([0.0]), 20)]
    assert len(set(values)) == len(values)


def test_explicit_theta_matches_replication_index():
    case = builtin_case("grad-free-exponential", dimension=1)
    canonical, _ = to_canonical(case.problem)
    config = MlpConfig(depth=2, base=2, root_seed=1)
    x = np.array([0.2])
    batch = replicate(canonical, config, 0.0, x, 3)
    for k, est in enumerate(batch, start=1):
        single = evaluate(canonical, config, 0.0, x, theta=(k,))
        assert single.value == est.value
        assert np.array_equal(single.gradient, est.gradient)


def test_query_time_validation():
    prob = linear_problem()
    config = MlpConfig(depth=1, base=1)
    with pytest.raises(QueryAtTerminalTime):
        evaluate(prob, config, 1.0, np.array([0.0]))
    with pytest.raises(QueryAtTerminalTime):
        evaluate(prob, config, 1.5, np.array([0.0]))
    with pytest.raises(ValueError):
        evaluate(prob, config, -0.1, np.array([0.0]))
    with pytest.raises(ValueError):
        evaluate(prob, config, math.nan, np.array([0.0]))


def test_query_point_validation():
    prob = linear_problem()
    config = MlpConfig(depth=1, base=1)
    with pytest.raises(ValueError):
        evaluate(prob, config, 0.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate(prob, config, 0.0, np.array([math.inf]))


def test_forward_convention_rejected_without_adapter():
    case = builtin_case("forward-heat", dimension=1)
    with pytest.raises(InvalidConvention):
        evaluate(case.problem, MlpConfig(depth=1, base=1), 0.0,
                 np.array([0.0]))


def test_invalid_problem_rejected():
    prob = linear_problem()
    with pytest.raises(InvalidProblem):
        evaluate(prob, MlpConfig(depth=-1, base=1), 0.0, np.array([0.0]))


def test_cost_guard_blocks_oversized_runs(monkeypatch):
    prob = linear_problem()
    config = MlpConfig(depth=2, base=2)  # costs 28 draws
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(DepthCostGuard):
        evaluate(prob, config, 0.0, np.array([0.0]))
    monkeypatch.setenv(BUDGET_ENV_VAR, "28")
    est = evaluate(prob, config, 0.0, np.array([0.0]))
    assert est.draws == 28


def test_overflowing_depth_fails_at_once():
    # cost_rv stops at the first depth past 128-bit accounting, so a huge
    # depth is refused without building its cost table.
    with pytest.raises(Overflow, match="depth 100 already costs"):
        evaluate(linear_problem(), MlpConfig(depth=2000, base=1), 0.0,
                 np.array([0.0]))


def test_resolve_budget_precedence(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_budget() == DEFAULT_COST_BUDGET
    monkeypatch.setenv(BUDGET_ENV_VAR, "5e6")
    assert resolve_budget() == 5_000_000


@pytest.mark.parametrize("theta", [(1.5,), (True,), (np.bool_(True),),
                                   (2**63,), (0, -2**63 - 1)])
def test_non_integer_theta_rejected(theta):
    # int64 conversion would truncate 1.5 (and True) to 1, so the estimate
    # would silently reuse replication (1,)'s streams.
    with pytest.raises(ValueError, match="theta"):
        evaluate(linear_problem(), MlpConfig(depth=1, base=1), 0.0,
                 np.array([0.0]), theta=theta)


def test_numpy_integer_theta_matches_python_int():
    prob = linear_problem()
    config = MlpConfig(depth=2, base=2, root_seed=3)
    a = evaluate(prob, config, 0.0, np.array([0.0]), theta=(np.int64(1),))
    b = evaluate(prob, config, 0.0, np.array([0.0]), theta=(1,))
    assert a.value == b.value and np.array_equal(a.gradient, b.gradient)


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "abc"])
def test_non_finite_budget_argument_rejected(monkeypatch, budget):
    # The variable is the budget's one setting.
    monkeypatch.setenv(BUDGET_ENV_VAR, budget)
    with pytest.raises(ValueError, match=(
            f"{BUDGET_ENV_VAR}='{budget}' is not a finite number of draws")):
        evaluate(linear_problem(), MlpConfig(depth=1, base=1), 0.0,
                 np.array([0.0]))


def test_rmse_zero_for_exact_estimates():
    estimates = [FieldEstimate(2.0, np.array([1.0, -1.0]), 5)
                 for _ in range(4)]
    report = rmse(estimates, 2.0, np.array([1.0, -1.0]))
    assert report.rmse_value == 0.0
    assert report.rmse_gradient_max == 0.0
    assert report.combined == 0.0


def test_rmse_single_offset_estimate():
    report = rmse([FieldEstimate(3.0, np.array([0.0]), 1)], 2.0,
                  np.array([0.0]))
    assert report.rmse_value == 1.0
    assert report.rmse_gradient_max == 0.0
    assert report.combined == 1.0


def test_rmse_uses_worst_gradient_coordinate():
    estimates = [
        FieldEstimate(0.0, np.array([0.0, 2.0]), 1),
        FieldEstimate(0.0, np.array([0.0, -2.0]), 1),
    ]
    report = rmse(estimates, 0.0, np.array([0.0, 0.0]))
    assert report.rmse_gradient_max == 2.0
    assert report.combined == 2.0


def test_rmse_rejects_empty_sample():
    with pytest.raises(EmptySample):
        rmse([], 0.0, np.array([0.0]))
