"""Closed forms, quadrature, and bound ordering for the iterated integrals."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from mlpicard.integrals import (
    HypothesisViolated,
    IteratedIntegralSpec,
    NonIntegrable,
    iterated_integral_closed,
    iterated_integral_lower_bound,
    iterated_integral_quadrature,
    iterated_integral_upper_bound,
)

GRID = [
    (j, alpha, beta, gamma)
    for j in (1, 2, 3)
    for alpha in (0.3, 0.5, 0.7)
    for (beta, gamma) in ((1.0, 1.0), (0.5, 1.0), (1.5, 2.0))
]


def spec(j, alpha, beta, gamma, horizon=1.0):
    return IteratedIntegralSpec(j=j, alpha=alpha, beta=beta, gamma=gamma,
                                horizon=horizon)


def test_single_level_closed_form_value():
    # j = 1, beta = gamma = 1: the integral reduces to (T-s0)/((1-a) a).
    assert iterated_integral_closed(spec(1, 0.5, 1.0, 1.0)) == \
        pytest.approx(4.0, rel=1e-12)
    assert iterated_integral_closed(spec(1, 0.3, 1.0, 1.0)) == \
        pytest.approx(1.0 / (0.7 * 0.3), rel=1e-12)


def test_closed_form_scales_with_interval_length():
    # The value scales as (T-s0)^(j (1+gamma-beta)); doubling the interval
    # at alpha = 1/2, beta = gamma = 1 doubles the j = 1 value to 8.
    assert iterated_integral_closed(spec(1, 0.5, 1.0, 1.0, horizon=2.0)) == \
        pytest.approx(8.0, rel=1e-12)
    for j, alpha, beta, gamma in GRID:
        one = iterated_integral_closed(spec(j, alpha, beta, gamma))
        two = iterated_integral_closed(spec(j, alpha, beta, gamma,
                                            horizon=2.0))
        assert two / one == pytest.approx(
            2.0 ** (j * (1.0 + gamma - beta)), rel=1e-10)


def test_empty_product_is_one():
    assert iterated_integral_closed(spec(0, 0.5, 1.0, 1.0)) == 1.0
    assert iterated_integral_quadrature(spec(0, 0.5, 1.0, 1.0)) == 1.0
    assert iterated_integral_upper_bound(spec(0, 0.5, 0.5, 1.0)) == 1.0


def test_beta_function_identity_backs_single_factor():
    # B(1/2, 1) = int_0^1 s^(-1/2) ds = 2; with the 1/(1-alpha) prefactor
    # the i = 0 factor of the (alpha, beta, gamma) = (1/2, 1, 1) integral
    # is 4 on a unit interval, matching the closed form.
    b_half_one = math.exp(gammaln(0.5) + gammaln(1.0) - gammaln(1.5))
    assert b_half_one == pytest.approx(2.0, rel=1e-14)
    assert b_half_one / (1.0 - 0.5) == pytest.approx(
        iterated_integral_closed(spec(1, 0.5, 1.0, 1.0)), rel=1e-12)


def test_closed_matches_quadrature_on_grid():
    for j, alpha, beta, gamma in GRID:
        closed = iterated_integral_closed(spec(j, alpha, beta, gamma))
        quad = iterated_integral_quadrature(spec(j, alpha, beta, gamma))
        assert quad == pytest.approx(closed, rel=1e-6), \
            f"(j={j}, alpha={alpha}, beta={beta}, gamma={gamma})"


def test_quadrature_handles_doubly_singular_case():
    value = iterated_integral_quadrature(spec(2, 0.5, 0.5, 1.0))
    assert value == pytest.approx(
        iterated_integral_closed(spec(2, 0.5, 0.5, 1.0)), rel=1e-6)


def test_quadrature_rejects_nonintegrable_exponent():
    with pytest.raises(NonIntegrable):
        iterated_integral_quadrature(spec(1, 0.5, 1.5, 1.0))
    with pytest.raises(NonIntegrable):
        iterated_integral_quadrature(spec(1, 0.3, 2.0, 1.0))


def test_closed_form_hypothesis_errors():
    with pytest.raises(HypothesisViolated):
        iterated_integral_closed(spec(1, 0.5, 0.0, 1.0))
    with pytest.raises(HypothesisViolated):
        iterated_integral_closed(spec(1, 0.5, 1.5, 1.0))  # beta = a*g + 1
    with pytest.raises(HypothesisViolated):
        spec(-1, 0.5, 1.0, 1.0)
    with pytest.raises(HypothesisViolated):
        spec(1, 1.0, 1.0, 1.0)
    for horizon in (0.0, -1.0):
        with pytest.raises(HypothesisViolated, match="horizon"):
            spec(1, 0.5, 1.0, 1.0, horizon=horizon)


def test_upper_bound_dominates_closed_on_admissible_grid():
    for j, alpha, beta, gamma in GRID:
        if not alpha * gamma <= beta <= alpha * gamma + 1.0:
            continue
        closed = iterated_integral_closed(spec(j, alpha, beta, gamma))
        upper = iterated_integral_upper_bound(spec(j, alpha, beta, gamma))
        assert closed <= upper * (1.0 + 1e-12), \
            f"(j={j}, alpha={alpha}, beta={beta}, gamma={gamma})"


def test_upper_bound_hypothesis_errors():
    with pytest.raises(HypothesisViolated):
        iterated_integral_upper_bound(spec(1, 0.5, 0.2, 1.0))  # beta < a*g
    with pytest.raises(HypothesisViolated):
        iterated_integral_upper_bound(spec(1, 0.5, 1.6, 1.0))  # beta > a*g+1


def test_upper_bound_tight_at_single_level_corner():
    # At j = 1, beta = alpha*gamma the bound collapses to the closed form,
    # and it varies continuously as beta moves just above that corner.
    corner = spec(1, 0.5, 0.5, 1.0)
    assert iterated_integral_upper_bound(corner) == pytest.approx(
        iterated_integral_closed(corner), rel=1e-12)
    nudged = spec(1, 0.5, 0.5 + 1e-9, 1.0)
    assert iterated_integral_upper_bound(nudged) == pytest.approx(
        iterated_integral_upper_bound(corner), rel=1e-6)


def test_lower_bound_values_and_tightness():
    # (pi T)^(j+1) / Gamma((j+3)/2)^2 at j = 0 equals pi/Gamma(3/2)^2 = 4,
    # which is exactly the alpha = 1/2 closed form of the depth-1 integral;
    # for other alpha the closed form is strictly larger.
    assert iterated_integral_lower_bound(0, 1.0) == pytest.approx(
        4.0, rel=1e-12)
    assert iterated_integral_lower_bound(0, 2.0) == pytest.approx(
        8.0, rel=1e-12)
    closed_03 = iterated_integral_closed(spec(1, 0.3, 1.0, 1.0))
    assert closed_03 == pytest.approx(4.761904761904762, rel=1e-12)
    assert iterated_integral_lower_bound(0, 1.0) <= closed_03


def test_lower_bound_below_closed_for_alpha_sweep():
    # Depth j+1 closed form vs the j-indexed lower bound, all alpha.
    for j in (0, 1, 2):
        lower = iterated_integral_lower_bound(j, 1.0)
        for alpha in np.arange(0.1, 0.95, 0.1):
            closed = iterated_integral_closed(
                spec(j + 1, float(alpha), 1.0, 1.0))
            assert lower <= closed * (1.0 + 1e-12), (j, alpha)


def test_lower_bound_input_validation():
    with pytest.raises(HypothesisViolated):
        iterated_integral_lower_bound(-1, 1.0)
    for horizon in (0.0, -1.0):
        with pytest.raises(HypothesisViolated, match="horizon"):
            iterated_integral_lower_bound(0, horizon)


def test_deep_nesting_stays_finite():
    value = iterated_integral_closed(spec(50, 0.5, 1.0, 1.0))
    assert 0.0 < value < math.inf
    upper = iterated_integral_upper_bound(spec(50, 0.5, 1.0, 1.0))
    assert value <= upper < math.inf
    quad = iterated_integral_quadrature(spec(25, 0.5, 1.0, 1.0))
    assert quad == pytest.approx(
        iterated_integral_closed(spec(25, 0.5, 1.0, 1.0)), rel=1e-5)
