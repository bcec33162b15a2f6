"""Builtin benchmark cases: PDE problems with manufactured exact solutions.

The four cases cover pure terminal data, a value-only nonlinearity, a
gradient-dependent nonlinearity and the forward convention.  The last three
share one solution, u(t, x) = e^(lam (T - t)) mean_i sin x_i, built by one
function; ``forward-heat`` is ``grad-dependent-sine`` on the doubled
horizon with its nonlinearity and clock rewritten.  A factory takes only
what its case reads: ``lam`` the sine cases, ``c`` the last two.

Each case carries its exact (value, gradient) and the exact moment norms of
its canonical form for the error bound.  Building a case evaluates none of
its callbacks, so it costs O(d); the test suite checks each claimed
solution against its PDE by finite differences.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import RegularityData
from .core import Convention, PdeProblem, is_int64

__all__ = [
    "BenchmarkCase",
    "UnknownCase",
    "BUILTIN_CASES",
    "builtin_case",
]

DEFAULT_LAMBDA = 0.25
DEFAULT_COEFF = 0.5


class UnknownCase(KeyError):
    """No builtin benchmark case under the requested name."""


@dataclass(frozen=True)
class BenchmarkCase:
    """A PDE problem bundled with its manufactured exact solution.

    ``exact(t, x)`` returns (value, gradient) in the problem's own
    convention and clock.  ``norm_overrides`` holds the Lipschitz constants
    and exact moment norms of the *canonical form* of the problem for the
    error bound and :func:`~mlpicard.bounds.audit_lipschitz`;
    ``u_moment_override`` is the exact bound on
    sup_s max_i ||u_i(s, x + W_s - W_t)||_{L^q} over the standard
    evaluation points.
    """

    name: str
    problem: PdeProblem
    exact: Callable[[float, np.ndarray], tuple[float, np.ndarray]]
    norm_overrides: RegularityData
    u_moment_override: float


def _quadratic_case(d: int, T: float) -> BenchmarkCase:
    # g(x) = |x|^2, f = 0; u(t, x) = |x|^2 + d (T - t), grad u = 2x.
    def g(x):
        return (x**2).sum(axis=1)

    def f(t, x, y, z):
        return np.zeros_like(np.asarray(t, dtype=float))

    def exact(t, x):
        x = np.asarray(x, dtype=float)
        return float(x @ x) + d * (T - t), 2.0 * x

    # g is only locally Lipschitz; these constants cover the ball the
    # estimator actually visits from the standard points (|xi_i| <= 1 plus
    # three standard deviations of the driving noise).
    k_eff = 2.0 * (1.0 + 3.0 * math.sqrt(T))
    # Exact L4 norm of g along the path from xi: with s = T and
    # noncentrality lam = |xi|^2 / s <= 1/T, the fourth raw moment of the
    # noncentral chi-square gives ||g||_L4 = s * m4(d, lam)^(1/4), which is
    # increasing in s and in |xi|.
    lam_nc = 1.0 / T
    m4 = (
        (d + lam_nc) ** 4
        + 12.0 * (d + lam_nc) ** 2 * (d + 2.0 * lam_nc)
        + 12.0 * (d + 2.0 * lam_nc) ** 2
        + 32.0 * (d + lam_nc) * (d + 3.0 * lam_nc)
        + 48.0 * (d + 4.0 * lam_nc)
    )
    g_moment = T * m4**0.25
    grad_norm = 2.0 * (1.0 + 3.0**0.25 * math.sqrt(T))
    reg = RegularityData(l0=0.0, l=(0.0,) * d, frak_l=(0.0,) * d,
                         k=(k_eff,) * d, g_moment=g_moment, f0_moment=0.0,
                         q=4.0)
    problem = PdeProblem(dimension=d, horizon=T, terminal_data=g,
                         nonlinearity=f)
    return BenchmarkCase("linear-heat-quadratic", problem, exact, reg,
                         max(g_moment + d * T, grad_norm))


def _sine(name: str, d: int, T: float, lam: float, c: float, k: float,
          f) -> BenchmarkCase:
    """u(t, x) = e^(lam (T - t)) mean_i sin(x_i) with nonlinearity ``f``,
    whose Lipschitz constants are |lam + 1/2| in y and |c| in each z_i; k
    is the regularity data's constant of g in each x_i."""

    def g(x):
        # sum / d is np.mean's arithmetic, without its per-call wrapper.
        return np.sin(x).sum(axis=1) / x.shape[1]

    def exact(t, x):
        x = np.asarray(x, dtype=float)
        amp = math.exp(lam * (T - t))
        return amp * float(np.mean(np.sin(x))), amp * np.cos(x) / d

    if lam * T > math.log(np.finfo(float).max):
        raise ValueError(f"lam={lam!r} overflows e^(lam T) on the canonical "
                         f"horizon T={T!r}")
    # The amplitude's sup over [0, T]: e^(lam T) at t = 0 for lam >= 0, 1 at
    # t = T otherwise.
    amp = math.exp(max(lam, 0.0) * T)
    reg = RegularityData(l0=abs(lam + 0.5), l=(abs(c),) * d,
                         frak_l=(abs(c) * amp / d,) * d, k=(k,) * d,
                         g_moment=1.0, f0_moment=abs(c) * amp, q=4.0)
    problem = PdeProblem(dimension=d, horizon=T, terminal_data=g,
                         nonlinearity=f)
    return BenchmarkCase(name, problem, exact, reg, amp)


def _exponential_case(d: int, T: float,
                      lam: float = DEFAULT_LAMBDA) -> BenchmarkCase:
    def f(t, x, y, z):
        return (lam + 0.5) * y

    return _sine("grad-free-exponential", d, T, lam, 0.0, 1.0 / d, f)


def _gradient_case(d: int, T: float, lam: float = DEFAULT_LAMBDA,
                   c: float = DEFAULT_COEFF) -> BenchmarkCase:
    # The c (sum_i z_i - sum_i du/dx_i) term vanishes at the true solution
    # but forces the estimator to carry correct gradients through the
    # recursion.
    def f(t, x, y, z):
        trig = np.exp(lam * (T - np.asarray(t, dtype=float)))
        return (lam + 0.5) * y + c * (
            z.sum(axis=1) - trig * (np.cos(x).sum(axis=1) / x.shape[1]))

    return _sine("grad-dependent-sine", d, T, lam, c, (abs(lam) + 1.0) / d, f)


def _forward_case(d: int, tf: float, lam: float = DEFAULT_LAMBDA,
                  c: float = DEFAULT_COEFF) -> BenchmarkCase:
    # w(t, x) = u(2 (T_f - t), x) solves dw/dt = Lap w + f4(t, x, w, grad w)
    # with f4(t, ...) = 2 f3(2 (T_f - t), ...), where u and f3 are the
    # gradient case's on horizon 2 T_f, whose norms this case shares.
    # Doubling/halving is exact in floating point, so the canonical form
    # reproduces f3 up to one ulp in the time argument.
    base = _gradient_case(d, 2.0 * tf, lam, c)
    f3 = base.problem.nonlinearity

    def f4(t, x, y, z):
        return 2.0 * f3(2.0 * (tf - np.asarray(t, dtype=float)), x, y, z)

    def exact(t, x):
        return base.exact(2.0 * (tf - t), x)

    problem = dataclasses.replace(
        base.problem, horizon=tf, nonlinearity=f4,
        convention=Convention.FORWARD_FULL_LAPLACIAN)
    return dataclasses.replace(base, name="forward-heat", problem=problem,
                               exact=exact)


# name -> (factory, default horizon)
_FACTORIES = {
    "linear-heat-quadratic": (_quadratic_case, 1.0),
    "grad-free-exponential": (_exponential_case, 1.0),
    "grad-dependent-sine": (_gradient_case, 1.0),
    "forward-heat": (_forward_case, 0.5),
}
BUILTIN_CASES = tuple(_FACTORIES)


def builtin_case(
    name: str,
    dimension: int = 1,
    horizon: float | None = None,
    lam: float | None = None,
    c: float | None = None,
) -> BenchmarkCase:
    """Construct a builtin case; none of its callbacks is evaluated.

    ``horizon`` defaults to 1.0, except for the forward case where it is the
    forward horizon and defaults to 0.5 (so the canonical horizon is 1.0).
    ``lam`` and ``c`` default to the case's own values.  Raises
    ``ValueError`` unless ``dimension`` is an integer >= 1, ``horizon``
    finite and > 0 and ``lam`` and ``c`` finite and taken by the case's
    factory, or when a sine case's amplitude e^(lam T) overflows on its
    canonical horizon T; and :class:`UnknownCase` for a name outside
    :data:`BUILTIN_CASES`.
    """
    if name not in _FACTORIES:
        raise UnknownCase(
            f"unknown case {name!r}; builtin cases: {', '.join(BUILTIN_CASES)}")
    factory, default_horizon = _FACTORIES[name]
    if not (is_int64(dimension) and dimension >= 1):
        raise ValueError(
            f"dimension must be an integer >= 1, got {dimension!r}")
    if horizon is None:
        horizon = default_horizon
    elif not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    given = {k: v for k, v in dict(lam=lam, c=c).items() if v is not None}
    for arg, value in given.items():
        if arg not in inspect.signature(factory).parameters:
            raise ValueError(f"case {name} does not read {arg}")
        if not math.isfinite(value):
            raise ValueError(f"{arg} must be finite, got {value!r}")
    return factory(dimension, horizon, **given)
