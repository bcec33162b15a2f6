"""Regularity bounds, error bound, cost recursion, and schedule solver."""

import math
import warnings

import numpy as np
import pytest

from mlpicard import (
    AdmissibilityViolated,
    ErrorBoundInput,
    HypothesisViolated,
    NoFeasibleDepth,
    Overflow,
    RegularityData,
    builtin_case,
    cost_bound_closed,
    cost_rv,
    error_bound,
    schedule,
)
from mlpicard.bounds import gradient_bound, solution_moment_bound


def make_reg(**overrides):
    kwargs = dict(l0=0.5, l=(0.2,), frak_l=(0.1,), k=(1.0,),
                  g_moment=1.0, f0_moment=0.5, q=4.0)
    kwargs.update(overrides)
    return RegularityData(**kwargs)


# ---------------------------------------------------------------------------
# Cost recursion
# ---------------------------------------------------------------------------


def test_cost_recursion_base_case():
    for d in (1, 2, 7):
        for base in (1, 3):
            assert cost_rv(d, 0, base) == 0


def test_cost_recursion_hand_unrolled_values():
    # n=1, M=1, d=1: 1 terminal draw + 1*(d + 1) = 3.
    assert cost_rv(1, 1, 1) == 3
    # n=1, M=2, d=1: 1*2 + 2*(1 + 1 + 0) = 6.
    assert cost_rv(1, 1, 2) == 6
    # n=2, M=2, d=1: 4 + 4*(2 + 0) + 2*(2 + 6 + 0) = 28.
    assert cost_rv(1, 2, 2) == 28


def test_cost_recursion_frozen_larger_values():
    assert cost_rv(1, 5, 5) == 185035
    assert cost_rv(5, 5, 5) == 670355
    assert cost_rv(10, 5, 5) == 1277005
    assert [cost_rv(2, n, n) for n in range(1, 6)] == \
        [5, 46, 648, 12444, 306365]


def test_cost_closed_bound_values_and_domination():
    assert cost_bound_closed(1, 1, 2) == 10
    assert cost_bound_closed(1, 2, 2) == 100
    assert cost_rv(1, 1, 2) <= 10
    assert cost_rv(1, 2, 2) <= 100
    for d in (1, 5):
        for n in range(1, 6):
            for base in (1, 2, 3, 4):
                assert cost_rv(d, n, base) <= cost_bound_closed(d, n, base)


def test_cost_overflow_guard():
    with pytest.raises(Overflow):
        cost_rv(1, 200, 5)
    with pytest.raises(Overflow):
        cost_bound_closed(1, 60, 10)


def test_cost_overflow_stops_at_first_depth_past_limit():
    # RV(1, n, 1) first exceeds 2**127 - 1 at n = 100: every deeper n
    # raises there, at once, instead of building its O(n**2) table.
    assert cost_rv(1, 99, 1) <= 2**127 - 1
    for n in (100, 2000):
        with pytest.raises(Overflow,
                           match=rf"depth {n} exceeds .*\(depth 100 "):
            cost_rv(1, n, 1)


def test_cost_input_validation():
    # Each error names its count.  cost_rv(2.5, 1, 1) returned 6.0.
    for bad, name in (((0, 1, 1), "d"), ((1, -1, 1), "n"), ((1, 1, 0), "M"),
                      ((2.5, 1, 1), "d"), ((True, 1, 1), "d"),
                      ((2**63, 1, 1), "d"), ((1, 2.0, 1), "n"),
                      ((1, np.float64(1), 1), "n"),
                      ((1, 1, np.bool_(True)), "M")):
        for count in (cost_rv, cost_bound_closed):
            with pytest.raises(ValueError, match=rf"^(need )?{name} "):
                count(*bad)


def test_cost_counts_numpy_integers_exactly():
    # In numpy integer arithmetic the counts wrapped: cost_rv(10, 20,
    # np.int64(10)) returned 8080227937116955962, cost_rv(1, 8,
    # np.int64(112)) a negative count, and cost_rv(np.int64(10), 20, 10)
    # raised OverflowError.
    assert cost_rv(10, 20, 10) == 1745986234671476589655172410
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell in ((10, 20, 10), (1, 8, 112), (3, 5, 5)):
            for i in range(3):
                args = list(cell)
                args[i] = np.int64(args[i])
                for count in (cost_rv, cost_bound_closed):
                    got = count(*args)
                    assert type(got) is int and got == count(*cell)


# ---------------------------------------------------------------------------
# Regularity bounds
# ---------------------------------------------------------------------------


def test_regularity_data_validation():
    with pytest.raises(ValueError):
        make_reg(q=2.0)
    with pytest.raises(ValueError):
        make_reg(l=(-0.1,))
    with pytest.raises(ValueError):
        make_reg(g_moment=-1.0)
    with pytest.raises(ValueError):
        make_reg(k=(1.0, 2.0))  # length mismatch with l, frak_l


def test_gradient_bound_linear_case_reduces_to_k():
    reg = make_reg(l0=0.0, frak_l=(0.0,), k=(1.5,))
    out = gradient_bound(reg, horizon=1.0, t=0.3)
    assert np.allclose(out, [1.5])


def test_gradient_bound_plug_in_value():
    reg = make_reg(l0=0.0, frak_l=(1.0,), k=(0.0,))
    assert np.allclose(gradient_bound(reg, horizon=2.0, t=0.0), [2.0])


def test_gradient_bound_time_validation():
    with pytest.raises(ValueError):
        gradient_bound(make_reg(), horizon=1.0, t=-0.1)
    with pytest.raises(ValueError):
        gradient_bound(make_reg(), horizon=1.0, t=1.5)


def test_gradient_bound_dominates_manufactured_gradient():
    # The sine benchmark's exact gradient is e^(lam (T-t)) cos(x_i)/d; the
    # declared constants must dominate it pointwise.
    case = builtin_case("grad-dependent-sine", dimension=3)
    reg = case.norm_overrides
    horizon = case.problem.horizon
    rng = np.random.default_rng(5)
    for t in (0.0, 0.3, 0.7, 0.99):
        bound = gradient_bound(reg, horizon, t)
        for x in rng.uniform(-3.0, 3.0, size=(10, 3)):
            _, grad = case.exact(t, x)
            assert np.all(np.abs(grad) <= bound + 1e-12)


def test_solution_moment_bound_reduces_to_g_moment():
    reg = make_reg(l0=0.0, l=(0.0,), f0_moment=0.0, g_moment=2.5)
    assert solution_moment_bound(reg, horizon=1.0) == pytest.approx(2.5)


def test_solution_moment_bound_zero_data():
    reg = make_reg(l0=0.0, l=(0.0,), frak_l=(0.0,), k=(0.0,),
                   g_moment=0.0, f0_moment=0.0)
    assert solution_moment_bound(reg, horizon=1.0) == 0.0
    with pytest.raises(ValueError):
        solution_moment_bound(reg, horizon=0.0)


def test_solution_moment_bound_dominates_quadratic_benchmark():
    # For g(x) = x^2, f = 0 in d = 1 the exact solution along a Brownian
    # path from the origin is u(t, W_t) = W_t^2 + (1 - t); its L4 norm is
    # measured by Monte Carlo and must sit below the declared bound.
    case = builtin_case("linear-heat-quadratic", dimension=1)
    bound = solution_moment_bound(case.norm_overrides, 1.0)
    rng = np.random.default_rng(17)
    z = rng.standard_normal(1_000_000)
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        u = t**0.5 * z
        norm = float(np.mean((u**2 + (1.0 - t)) ** 4) ** 0.25)
        worst = max(worst, norm)
    assert worst <= bound


# ---------------------------------------------------------------------------
# Error bound
# ---------------------------------------------------------------------------


def make_input(**overrides):
    kwargs = dict(p=4.0, alpha=0.5, n=2, base=2, horizon=1.0, t=0.0,
                  reg=make_reg())
    kwargs.update(overrides)
    return ErrorBoundInput(**kwargs)


def test_error_bound_zero_data_is_zero():
    reg = make_reg(l0=0.0, l=(0.0,), frak_l=(0.0,), k=(0.0,),
                   g_moment=0.0, f0_moment=0.0)
    assert error_bound(make_input(reg=reg)) == 0.0


def test_error_bound_hypothesis_errors():
    with pytest.raises(HypothesisViolated):
        error_bound(make_input(p=1.5))
    # For p = 4 the admissible alpha window is (1/3, 2/3).
    with pytest.raises(HypothesisViolated):
        error_bound(make_input(alpha=0.3))
    with pytest.raises(HypothesisViolated):
        error_bound(make_input(alpha=0.7))
    with pytest.raises(HypothesisViolated):
        error_bound(make_input(n=0))
    with pytest.raises(HypothesisViolated):
        error_bound(make_input(t=1.0))


def test_error_bound_needs_norms_of_order_2p_over_p_minus_2():
    # The bound at p reads L^q norms of order q = 2p/(p-2): p = 3 needs
    # q >= 6 and p = 2 needs q = inf.  A higher order is still a bound.
    for p, q in ((3.0, 4.0), (3.0, 5.9), (2.5, 9.0), (2.0, 1e6)):
        with pytest.raises(HypothesisViolated, match=r"q=.* 2p/\(p-2\)"):
            error_bound(make_input(p=p, reg=make_reg(q=q)))
    for p, q in ((3.0, 6.0), (3.0, 8.0), (2.5, 10.0), (2.0, math.inf),
                 (4.0, 4.0)):
        assert 0.0 < error_bound(make_input(p=p, reg=make_reg(q=q))) < math.inf


def test_error_bound_override_must_be_nonnegative():
    with pytest.raises(ValueError):
        error_bound(make_input(u_moment_override=-1.0))


def test_error_bound_grows_in_base():
    # The exp(beta M^(1/(2 beta))) factor dominates the M^(-n/2) decay
    # (and saturates at inf once the exponent overflows).
    values = [error_bound(make_input(base=m)) for m in range(3, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert error_bound(make_input(base=9)) == math.inf


def test_error_bound_overflows_to_inf():
    assert error_bound(make_input(base=10**6)) == math.inf


def test_error_bound_decreases_in_depth_for_large_base():
    # On a short horizon the constant C collapses to 1, so with M = 8 the
    # per-level factor 2C/sqrt(M) < 1 and the bound decays in n.
    reg = make_reg(l0=0.0, l=(0.0,), frak_l=(0.0,), k=(0.0,),
                   g_moment=0.0, f0_moment=1.0)
    values = [
        error_bound(make_input(reg=reg, horizon=0.01, n=n, base=8,
                               u_moment_override=1.0))
        for n in range(2, 9)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))
    # Per-level decay factor 2C/sqrt(8) = 1/sqrt(2), six levels deep.
    assert values[-1] < 0.2 * values[0]


def test_error_bound_beta_property():
    inp = make_input(p=4.0, alpha=0.5)
    assert inp.beta == pytest.approx(0.5 / 2.0 - 0.5 * 2.0 / 8.0)


# ---------------------------------------------------------------------------
# Schedule solver
# ---------------------------------------------------------------------------


def test_schedule_returns_first_feasible_depth():
    reg = make_reg(l0=0.0, l=(0.0,), frak_l=(0.0,), k=(0.0,),
                   g_moment=0.0, f0_moment=0.0)
    n, base, cost = schedule(0.5, 1, reg, p=4.0, alpha=0.5,
                             m_rule_exponent=0.25, horizon=1.0)
    assert (n, base) == (1, 1)
    assert cost == cost_rv(1, 1, 1)


def test_schedule_large_tolerance_is_depth_one():
    n, base, cost = schedule(1e6, 1, make_reg(), p=4.0, alpha=0.5,
                             m_rule_exponent=0.25, horizon=1.0)
    assert n == 1
    assert base == 1
    assert cost == 3


def test_schedule_monotone_in_accuracy():
    # Admissible corner where the bound genuinely decays under the
    # M = floor(n^q) rule: p slightly above 2, alpha near its upper limit,
    # a short horizon so C = 1.
    reg = make_reg(l0=0.0, l=(0.0,), frak_l=(0.0,), k=(0.0,),
                   g_moment=0.0, f0_moment=1.0, q=22.0)
    kwargs = dict(d=1, reg=reg, p=2.2, alpha=0.8, m_rule_exponent=0.78,
                  horizon=0.01, u_moment_override=0.0)
    n_coarse, _, cost_coarse = schedule(0.5, **kwargs)
    n_fine, _, cost_fine = schedule(0.25, **kwargs)
    assert n_fine >= n_coarse
    assert cost_fine >= cost_coarse


def test_schedule_rejects_inadmissible_rule_exponent():
    # For alpha = 0.8 the admissible window is (0.75, 0.8).
    for q in (0.5, 0.75, 0.8, 0.9):
        with pytest.raises(AdmissibilityViolated):
            schedule(0.1, 1, make_reg(), p=2.2, alpha=0.8,
                     m_rule_exponent=q, horizon=1.0)


def test_schedule_rejects_alpha_outside_the_unit_interval():
    # The rule-exponent window (max{(2 alpha - 1)/alpha, 0}, alpha) is only
    # meaningful for alpha in (0, 1).
    for alpha in (0.0, 1.0, 1.5, -0.5, math.nan):
        with pytest.raises(HypothesisViolated, match=r"^alpha must lie in "
                                                     r"\(0, 1\), got "):
            schedule(1.0, 1, make_reg(), p=4.0, alpha=alpha,
                     m_rule_exponent=0.25, horizon=1.0)


def test_schedule_no_feasible_depth():
    # With alpha = 1/2 and q = 1/4 the base stays tiny while (2C)^n grows,
    # so an absurd tolerance is never met within the depth cap.
    with pytest.raises(NoFeasibleDepth):
        schedule(1e-30, 1, make_reg(), p=4.0, alpha=0.5,
                 m_rule_exponent=0.25, horizon=1.0)


def test_schedule_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        schedule(0.0, 1, make_reg(), p=4.0, alpha=0.5,
                 m_rule_exponent=0.25, horizon=1.0)
