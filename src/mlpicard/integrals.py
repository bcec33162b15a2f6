"""Iterated time-integral values and bounds for the error analysis.

The recursion that drives every moment estimate integrates, at each nesting
level, a kernel of the form (s - s0)^(-beta) against the density-weighted
time measure.  With the time-fraction density rho(b) = (1 - alpha) b^(-alpha)
on (0, 1) (density-convention exponent alpha in (0, 1); the sampler's CDF
exponent is e = 1 - alpha), the j-fold iterated integral

    I_j(s0) = int_{s0}^T (s1-s0)^(-beta) rho((s1-s0)/(T-s0))^(-gamma) / (T-s0)^(-gamma)
              ... int_{s_{j-1}}^T (...) ds_j ... ds_1

normalizes, factor by factor, to one-dimensional Beta-type integrals, so it
depends on (s0, T) only through the interval length T - s0, which every
function here takes as its ``horizon``.  This module provides the closed
form, an adaptive-quadrature evaluation of the factorized form, a
Gamma-ratio upper bound and a lower bound for the beta = gamma = 1 case.

Only :func:`iterated_integral_quadrature` needs ``scipy.integrate``; it
imports it when called, so importing this module (and the solver, which
uses the bounds here) loads ``scipy.special`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

__all__ = [
    "IteratedIntegralSpec",
    "HypothesisViolated",
    "NonIntegrable",
    "ToleranceNotMet",
    "iterated_integral_closed",
    "iterated_integral_quadrature",
    "iterated_integral_upper_bound",
    "iterated_integral_lower_bound",
]


class HypothesisViolated(ValueError):
    """Parameters outside the hypotheses of the requested formula."""


class NonIntegrable(ValueError):
    """The integrand's endpoint singularity is not integrable."""


class ToleranceNotMet(ArithmeticError):
    """Adaptive quadrature could not certify its relative tolerance."""


_REL_TOL, _ABS_TOL = 1e-6, 1e-8  # relative on the product, absolute per factor


@dataclass(frozen=True)
class IteratedIntegralSpec:
    """Parameters of one iterated integral.

    ``j`` is the nesting depth (j = 0 gives the empty product, value 1);
    ``alpha`` the density-convention exponent in (0, 1); ``beta`` the
    singularity exponent; ``gamma`` the density power; ``horizon`` the
    length T - s0 > 0 of the time interval.
    """

    j: int
    alpha: float
    beta: float
    gamma: float
    horizon: float

    def __post_init__(self):
        if self.j < 0:
            raise HypothesisViolated(f"nesting depth must be >= 0, got {self.j}")
        if not 0.0 < self.alpha < 1.0:
            raise HypothesisViolated(
                f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.horizon > 0.0:
            raise HypothesisViolated(
                f"horizon T - s0 must be > 0, got {self.horizon}")


def _closed_hypothesis(spec: IteratedIntegralSpec) -> None:
    if not 0.0 < spec.beta < spec.alpha * spec.gamma + 1.0:
        raise HypothesisViolated(
            f"closed form needs 0 < beta < alpha*gamma + 1; "
            f"got beta={spec.beta}, alpha*gamma+1={spec.alpha * spec.gamma + 1.0}")


def iterated_integral_closed(spec: IteratedIntegralSpec) -> float:
    """Exact value of the j-fold iterated integral.

    Requires 0 < beta < alpha*gamma + 1.  Computed as

        [(T-s0)^(1+gamma-beta) Gamma(alpha gamma - beta + 1) / (1-alpha)^gamma]^j
        * prod_{i=0}^{j-1} Gamma(i(1+gamma-beta) + 1)
                           / Gamma(alpha gamma - beta + i(1+gamma-beta) + 2)

    in log space, so deep nestings neither overflow nor lose the Gamma-ratio
    cancellation.
    """
    _closed_hypothesis(spec)
    if spec.j == 0:
        return 1.0
    c = 1.0 + spec.gamma - spec.beta
    ab = spec.alpha * spec.gamma - spec.beta
    lg = spec.j * (
        c * math.log(spec.horizon)
        + gammaln(ab + 1.0)
        - spec.gamma * math.log1p(-spec.alpha)
    )
    for i in range(spec.j):
        lg += gammaln(i * c + 1.0) - gammaln(ab + i * c + 2.0)
    return math.exp(lg)


def iterated_integral_quadrature(spec: IteratedIntegralSpec) -> float:
    """Numerical evaluation of the factorized iterated integral.

    Each nesting level contributes one factor

        (1/(1-alpha)^gamma) * int_0^1 (1-s)^(i(1+gamma-beta)) s^(alpha gamma - beta) ds,

    integrable iff alpha*gamma - beta > -1.  The endpoint singularity at
    s = 0 is removed by the substitution s = u^k with
    k = max(1, 2/(alpha gamma - beta + 1)) before handing the factor to
    adaptive quadrature.  Raises :class:`NonIntegrable` when the exponent
    hypothesis fails and :class:`ToleranceNotMet` when the quadrature error
    estimate cannot certify a relative 1e-6 on the product.
    """
    from scipy.integrate import quad

    ab = spec.alpha * spec.gamma - spec.beta
    if ab <= -1.0:
        raise NonIntegrable(
            f"factor integrand s^({ab}) is not integrable at 0 "
            f"(needs alpha*gamma - beta > -1)")
    if spec.j == 0:
        return 1.0
    c = 1.0 + spec.gamma - spec.beta
    k = max(1.0, 2.0 / (ab + 1.0))
    log_scale = spec.j * (
        c * math.log(spec.horizon)
        - spec.gamma * math.log1p(-spec.alpha)
    )
    log_prod = 0.0
    rel_err = 0.0
    for i in range(spec.j):
        a_i = i * c

        def integrand(u, a_i=a_i):
            s = u**k
            return k * u ** (k * (ab + 1.0) - 1.0) * (1.0 - s) ** a_i

        val, err = quad(integrand, 0.0, 1.0,
                        epsabs=_ABS_TOL, epsrel=_REL_TOL / 10.0, limit=200)
        if val <= 0.0:
            raise ToleranceNotMet(f"quadrature factor {i} returned {val}")
        log_prod += math.log(val)
        rel_err += err / val
    if rel_err > _REL_TOL:
        raise ToleranceNotMet(
            f"accumulated quadrature error {rel_err:.3e} exceeds "
            f"relative tolerance {_REL_TOL:.3e}")
    return math.exp(log_scale + log_prod)


def iterated_integral_upper_bound(spec: IteratedIntegralSpec) -> float:
    """Gamma-ratio upper bound on the closed form.

    Valid for alpha*gamma <= beta <= alpha*gamma + 1 (so the Wendel bound
    Gamma(x)/Gamma(x+s) <= x^(-s) ((x+s)/x)^(1-s), s in [0, 1], applies to
    every factor).  Tight at j = 1, beta = alpha*gamma.
    """
    ab = spec.alpha * spec.gamma - spec.beta
    if not -1.0 <= ab <= 0.0:
        raise HypothesisViolated(
            f"upper bound needs alpha*gamma <= beta <= alpha*gamma + 1; "
            f"got beta={spec.beta}, alpha*gamma={spec.alpha * spec.gamma}")
    if spec.j == 0:
        return 1.0
    c = 1.0 + spec.gamma - spec.beta
    lg = spec.j * (
        c * math.log(spec.horizon)
        + gammaln(ab + 1.0)
        - spec.gamma * math.log1p(-spec.alpha)
        - (ab + 1.0) * math.log(c)
    )
    lg += (-ab) * (ab + 1.0) / c * (c + math.log(c * (spec.j - 1.0) + 1.0))
    lg += (ab + 1.0) * (gammaln(1.0 / c) - gammaln(spec.j + 1.0 / c))
    return math.exp(lg)


def iterated_integral_lower_bound(j: int, horizon: float) -> float:
    """Lower bound (pi h)^(j+1) / Gamma((j+3)/2)^2 for beta = gamma = 1,
    on a time interval of length ``horizon`` h = T - s0 > 0.

    Indexing note: this bounds the iterated integral of nesting depth j+1
    (the closed form with ``IteratedIntegralSpec(j=j+1, beta=1, gamma=1)``)
    from below, for every alpha in (0, 1).  At alpha = 1/2, j = 0 the two
    sides agree exactly: both equal 4h.
    """
    if j < 0:
        raise HypothesisViolated(f"j must be >= 0, got {j}")
    if not horizon > 0.0:
        raise HypothesisViolated(f"horizon T - s0 must be > 0, got {horizon}")
    return math.exp(
        (j + 1) * math.log(math.pi * horizon)
        - 2.0 * gammaln((j + 3) / 2.0)
    )
