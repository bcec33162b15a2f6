"""Estimator evaluation: moments, draw accounting, determinism, guards."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mlpicard import (
    BUILTIN_CASES,
    CallbackContractError,
    DepthCostGuard,
    EmptySample,
    FieldEstimate,
    InvalidConvention,
    InvalidProblem,
    MlpConfig,
    PdeProblem,
    QueryAtTerminalTime,
    builtin_case,
    cost_rv,
    evaluate,
    replicate,
    resolve_budget,
    rmse,
    to_canonical,
)
from mlpicard.engine import BUDGET_ENV_VAR, DEFAULT_COST_BUDGET


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
    with pytest.raises(DepthCostGuard):
        evaluate(prob, config, 0.0, np.array([0.0]), budget=10)
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(DepthCostGuard):
        evaluate(prob, config, 0.0, np.array([0.0]))
    # An explicit budget argument outranks the environment variable.
    est = evaluate(prob, config, 0.0, np.array([0.0]), budget=28)
    assert est.draws == 28


def test_resolve_budget_precedence(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_budget() == DEFAULT_COST_BUDGET
    monkeypatch.setenv(BUDGET_ENV_VAR, "5e6")
    assert resolve_budget() == 5_000_000
    assert resolve_budget(123) == 123


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
