"""Benchmark cases, convergence tables, and the statistical test battery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from mlpicard import (
    EmptySample,
    FieldEstimate,
    ResidualCheckFailed,
    UnknownCase,
    builtin_case,
    combined_error_ucl,
    cost_rv,
    run_convergence,
    to_canonical,
    write_csv,
)
from mlpicard.cases import (
    BUILTIN_CASES,
    RESIDUAL_GATE,
    default_eval_points,
    registration_residual,
)
from mlpicard.harness import (
    CSV_COLUMNS,
    ConvergenceRow,
    run_test_battery,
    unbiasedness_gap,
    verify_integral_identities,
)


def test_builtin_cases_have_small_pde_residuals():
    for name in BUILTIN_CASES:
        for dimension in (1, 2):
            case = builtin_case(name, dimension=dimension)
            worst = registration_residual(case)
            assert worst < RESIDUAL_GATE, f"{name} d={dimension}: {worst}"


def test_unknown_case_name_rejected():
    with pytest.raises(UnknownCase):
        builtin_case("no-such-case")


def test_residual_check_detects_wrong_solution():
    case = builtin_case("linear-heat-quadratic", dimension=1)

    def broken(t, x, _exact=case.exact):
        value, grad = _exact(t, x)
        return value + 0.1 * t, grad

    corrupted = dataclasses.replace(case, exact=broken)
    assert registration_residual(corrupted) > RESIDUAL_GATE


def test_builtin_case_raises_on_failed_residual(monkeypatch):
    import mlpicard.cases as cases

    factory, horizon = cases._FACTORIES["linear-heat-quadratic"]
    good = factory(1, 1.0)

    def broken(t, x, _exact=good.exact):
        value, grad = _exact(t, x)
        return value + 0.1 * t, grad

    monkeypatch.setitem(
        cases._FACTORIES, "linear-heat-quadratic",
        (lambda d, T: dataclasses.replace(good, exact=broken),
         horizon))
    with pytest.raises(ResidualCheckFailed):
        builtin_case("linear-heat-quadratic", dimension=1)


def test_default_eval_points():
    points = default_eval_points(4)
    assert len(points) == 2
    assert np.array_equal(points[0], np.zeros(4))
    assert np.allclose(points[1], np.full(4, 0.5))
    assert np.linalg.norm(points[1]) == pytest.approx(1.0)


def test_reference_values_agree_across_conventions():
    # The forward case is the gradient case rewritten on the doubled
    # canonical horizon: references must agree exactly through the time
    # map (doubling/halving is exact in binary floating point).
    backward = builtin_case("grad-dependent-sine", dimension=3)
    forward = builtin_case("forward-heat", dimension=3)
    _, tmap = to_canonical(forward.problem)
    rng = np.random.default_rng(8)
    for t_fwd in (0.5, 0.25, 0.05, 0.37, 0.123456):
        s = tmap(t_fwd)
        for x in rng.uniform(-2.0, 2.0, size=(3, 3)):
            value_b, grad_b = backward.exact(s, x)
            value_f, grad_f = forward.exact(t_fwd, x)
            assert value_b == value_f
            assert np.array_equal(grad_b, grad_f)


def test_convergence_rows_are_consistent():
    case = builtin_case("grad-dependent-sine", dimension=1)
    rows = run_convergence(case, [(1, 1), (2, 2)], replications=20, seed=3)
    assert [row.n for row in rows] == [1, 2]
    for row in rows:
        assert row.case == "grad-dependent-sine"
        assert row.replications == 20
        assert row.draws == cost_rv(1, row.n, row.base)
        assert row.combined_error**2 == pytest.approx(
            row.rmse_value**2 + row.rmse_grad_max**2)
        assert row.error_bound > 0.0
        assert row.wall_seconds == 0.0


def test_convergence_timing_column_is_opt_in():
    case = builtin_case("linear-heat-quadratic", dimension=1)
    rows = run_convergence(case, [(1, 1)], replications=10, seed=0,
                           include_timing=True)
    assert rows[0].wall_seconds > 0.0


def test_error_bound_column_nan_without_norms():
    case = builtin_case("linear-heat-quadratic", dimension=1)
    stripped = dataclasses.replace(case, norm_overrides=None)
    rows = run_convergence(stripped, [(1, 1)], replications=5, seed=0)
    assert math.isnan(rows[0].error_bound)


def test_csv_output_is_byte_identical_across_runs(tmp_path):
    case = builtin_case("grad-dependent-sine", dimension=1)
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        rows = run_convergence(case, [(1, 1), (2, 2)], replications=20,
                               seed=5)
        write_csv(rows, str(path))
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    header = blobs[0].split(b"\r\n", 1)[0]
    assert header == (b"case,n,M,replications,rmse_value,rmse_grad_max,"
                      b"combined_error,error_bound,draws,wall_seconds")


def test_csv_columns_name_the_row_fields():
    # as_csv writes the fields in order under CSV_COLUMNS; field base is
    # column M.
    names = [field.name for field in dataclasses.fields(ConvergenceRow)]
    assert [{"base": "M"}.get(name, name) for name in names] == list(
        CSV_COLUMNS)


def test_empirical_error_sits_below_a_priori_bound():
    # Exponential benchmark with zero rate: modest depth, 400 replications;
    # 2x slack on the bound covers the confidence width of the estimate.
    case = builtin_case("grad-free-exponential", dimension=1, lam=0.0)
    rows = run_convergence(case, [(3, 2)], replications=400, seed=0)
    row = rows[0]
    assert math.isfinite(row.error_bound)
    assert row.combined_error <= 2.0 * row.error_bound


def test_combined_error_ucl_properties():
    ref_g = np.array([0.0])
    flat = [FieldEstimate(1.0, np.array([0.0]), 1) for _ in range(10)]
    # Identical estimates: no sampling noise, UCL equals the plain error.
    assert combined_error_ucl(flat, 0.0, ref_g) == pytest.approx(1.0)
    noisy = [FieldEstimate(1.0 + 0.1 * k, np.array([0.0]), 1)
             for k in range(10)]
    values = np.array([est.value for est in noisy])
    plain = math.sqrt(np.mean(values**2))
    assert combined_error_ucl(noisy, 0.0, ref_g) > plain
    with pytest.raises(EmptySample):
        combined_error_ucl(flat[:1], 0.0, ref_g)


def test_unbiasedness_gap_passes_at_modest_sizes():
    result = unbiasedness_gap(1, replications=6_000, sim_samples=12_000,
                              seed=0)
    assert result["passed"]
    assert result["lhs_mean"].shape == (2,)
    assert result["rhs_mean"].shape == (2,)
    assert np.all(result["sigma"] > 0.0)


@pytest.mark.parametrize("name, bad", [
    ("depth", 0), ("depth", -1), ("depth", 1.0), ("depth", True),
    ("replications", 1), ("replications", 0), ("replications", 2.0),
    ("sim_samples", 1), ("sim_samples", -5), ("sim_samples", None),
])
def test_unbiasedness_gap_rejects_bad_arguments(name, bad):
    # replications or sim_samples of 1 used to give sigma = [nan, nan] and
    # passed False; replications 0 failed only inside replicate.
    args = {"depth": 1, "replications": 10, "sim_samples": 10, name: bad}
    floor = 1 if name == "depth" else 2
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer >= {floor}, got "):
        unbiasedness_gap(**args)


@pytest.mark.parametrize("seed", [1.0, 2**63, 2**63 - 1_234_567, -2**63 - 1,
                                  -987_654_322, -10**9])
def test_unbiasedness_gap_rejects_seed_outside_int64(seed):
    # The inner estimator runs at seed + 1234567; a seed that takes it out
    # of int64 used to fail deep in the sampler.  The direct simulation's
    # generator takes seed + 987654321, which numpy rejects below zero.
    with pytest.raises(ValueError, match=r"^seed=.* must be >= -987654321 "
                                         r"and seed \+ 1234567 "
                                         r"must be int64$"):
        unbiasedness_gap(1, replications=2, sim_samples=2, seed=seed)


def test_unbiasedness_gap_smallest_sizes_give_finite_sigma():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for depth in (1, 2):
            result = unbiasedness_gap(depth, replications=2, sim_samples=2)
            assert np.all(np.isfinite(result["sigma"]))


def test_corrupted_time_weight_caught_by_unbiasedness_ladder(monkeypatch):
    # Fault injection: drop the r**(1-e) compensation down to r.  The
    # engine's means shift while the independently simulated expectation
    # (which carries its own weight expression) stays put.
    monkeypatch.setattr("mlpicard.engine._time_weight",
                        lambda r, tau, e: tau * r / e)
    result = unbiasedness_gap(1, replications=30_000, sim_samples=60_000,
                              seed=0)
    assert not result["passed"]
    assert float(np.max(result["gaps"] / result["sigma"])) > 4.0


def test_verify_integral_identities_structure():
    rows, ok = verify_integral_identities()
    assert ok
    assert len(rows) == 27
    for row in rows:
        assert row["ok"]
        assert row["rel_gap"] <= 1e-6
        if row["beta"] == 1.0 and row["gamma"] == 1.0:
            assert "lower" in row
            assert row["lower"] <= row["closed"] * (1.0 + 1e-12)
        if row["alpha"] * row["gamma"] <= row["beta"] <= \
                row["alpha"] * row["gamma"] + 1.0:
            assert "upper" in row
            assert row["closed"] <= row["upper"] * (1.0 + 1e-12)


def test_fast_battery_is_green():
    report = run_test_battery(seed=0, fast=True)
    assert report.passed, "\n".join(report.lines())
    assert len(report.checks) == 5
    names = [check.name for check in report.checks]
    assert names == ["sampler-laws", "integral-identities",
                     "unbiasedness-ladder", "cost-ledger",
                     "convergence-trend"]
    for line in report.lines():
        assert line.startswith("[PASS]")
