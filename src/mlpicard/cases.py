"""Builtin benchmark cases: PDE problems with manufactured exact solutions.

The four cases cover pure terminal data, a value-only nonlinearity, a
gradient-dependent nonlinearity and the forward convention.  The last three
share one solution, u(t, x) = e^(lam (T - t)) mean_i sin x_i, built by one
function; ``forward-heat`` is ``grad-dependent-sine`` on the doubled
horizon with its nonlinearity and clock rewritten.  A factory takes only
what its case reads: ``lam`` the sine cases, ``c`` the last two.

Each case carries its exact (value, gradient) and the exact moment norms of
its canonical form for the error bound.  :func:`builtin_case` runs a
finite-difference PDE residual check before handing a case out, so a typo
in either the PDE data or the claimed solution cannot slip through.
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
    "ResidualCheckFailed",
    "UnknownCase",
    "BUILTIN_CASES",
    "builtin_case",
    "registration_residual",
    "default_eval_points",
]

RESIDUAL_GATE = 1e-6
DEFAULT_LAMBDA = 0.25
DEFAULT_COEFF = 0.5


class ResidualCheckFailed(ValueError):
    """Claimed exact solution does not satisfy the case's PDE."""


class UnknownCase(KeyError):
    """No builtin benchmark case under the requested name."""


@dataclass(frozen=True)
class BenchmarkCase:
    """A PDE problem bundled with its manufactured exact solution.

    ``exact(t, x)`` returns (value, gradient) in the problem's own
    convention and clock.  ``norm_overrides`` holds the exact moment norms
    of the *canonical form* of the problem for the error bound;
    ``u_moment_override`` is the exact bound on
    sup_s max_i ||u_i(s, x + W_s - W_t)||_{L^q} over the standard
    evaluation points.
    """

    name: str
    problem: PdeProblem
    exact: Callable[[float, np.ndarray], tuple[float, np.ndarray]]
    norm_overrides: RegularityData | None = None
    u_moment_override: float | None = None


def default_eval_points(dimension: int) -> list[np.ndarray]:
    """The two standard query points: the origin and (1,...,1)/sqrt(d).

    The second point breaks coordinate symmetry so that bugs masked by
    even/odd cancellation at the origin still surface.
    """
    return [
        np.zeros(dimension),
        np.full(dimension, 1.0 / math.sqrt(dimension)),
    ]


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
                         nonlinearity=f, lipschitz_solution=(0.0,) * (d + 1),
                         lipschitz_space=(k_eff,) * d)
    return BenchmarkCase("linear-heat-quadratic", problem, exact, reg,
                         max(g_moment + d * T, grad_norm))


def _sine(name: str, d: int, T: float, lam: float, c: float, k: float,
          f) -> BenchmarkCase:
    """u(t, x) = e^(lam (T - t)) mean_i sin(x_i) with nonlinearity ``f``,
    whose Lipschitz constants are lam + 1/2 in y, c in each z_i and k in
    each x_i."""

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
    amp0 = math.exp(lam * T)
    reg = RegularityData(l0=lam + 0.5, l=(c,) * d, frak_l=(c * amp0 / d,) * d,
                         k=(k,) * d, g_moment=1.0, f0_moment=c * amp0, q=4.0)
    problem = PdeProblem(dimension=d, horizon=T, terminal_data=g,
                         nonlinearity=f,
                         lipschitz_solution=(lam + 0.5,) + (c,) * d,
                         lipschitz_space=(k,) * d)
    return BenchmarkCase(name, problem, exact, reg, amp0)


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
        lipschitz_solution=tuple(2.0 * v for v in
                                 base.problem.lipschitz_solution),
        lipschitz_space=tuple(2.0 * v for v in base.problem.lipschitz_space),
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


def registration_residual(case: BenchmarkCase) -> float:
    """Max finite-difference PDE residual of the claimed exact solution.

    Backward cases check |d_t u + (1/2) Lap u + f(t, x, u, grad u)|, forward
    cases |d_t w - Lap w - f(t, x, w, grad w)|, on a fixed random grid of
    25 points (t, x).  The time derivative is a central difference, step
    1e-4, of the exact value; the Laplacian is a central difference of the
    exact (analytic) gradient, so the check is sensitive to errors in the
    gradient as well.  A NaN residual at any point makes the result NaN.
    """
    h = 1e-4
    rng = np.random.default_rng(12345)
    prob = case.problem
    d = prob.dimension
    T = prob.horizon
    ts = rng.uniform(h, T - h, size=25)
    xs = rng.uniform(-2.0, 2.0, size=(25, d))
    residuals = []
    eye = np.eye(d)
    forward = prob.convention is Convention.FORWARD_FULL_LAPLACIAN
    for t, x in zip(ts, xs):
        value, grad = case.exact(t, x)
        dt = (case.exact(t + h, x)[0] - case.exact(t - h, x)[0]) / (2.0 * h)
        lap = sum(
            (case.exact(t, x + h * eye[i])[1][i]
             - case.exact(t, x - h * eye[i])[1][i]) / (2.0 * h)
            for i in range(d)
        )
        fv = float(prob.nonlinearity(
            np.array([t]), x[None, :], np.array([value]), grad[None, :])[0])
        residuals.append(dt - lap - fv if forward else dt + 0.5 * lap + fv)
    # Unlike the builtin max, np.max propagates a NaN.
    return float(np.max(np.abs(residuals)))


def builtin_case(
    name: str,
    dimension: int = 1,
    horizon: float | None = None,
    lam: float | None = None,
    c: float | None = None,
) -> BenchmarkCase:
    """Construct a builtin case and run its registration residual check.

    ``horizon`` defaults to 1.0, except for the forward case where it is the
    forward horizon and defaults to 0.5 (so the canonical horizon is 1.0).
    ``lam`` and ``c`` default to the case's own values.  Raises
    ``ValueError`` unless ``dimension`` is an integer >= 1, ``horizon``
    finite and > 0 and ``lam`` and ``c`` finite and taken by the case's
    factory, or when a sine case's amplitude e^(lam T) overflows on its
    canonical horizon T; :class:`UnknownCase` for a name outside
    :data:`BUILTIN_CASES`; and :class:`ResidualCheckFailed` if the claimed
    solution misses the PDE by more than the finite-difference gate.
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
    case = factory(dimension, horizon, **given)
    worst = registration_residual(case)
    if not worst < RESIDUAL_GATE:
        raise ResidualCheckFailed(
            f"case {name}: max PDE residual {worst:.3e} >= {RESIDUAL_GATE}")
    return case
