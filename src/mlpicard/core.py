"""Problem and configuration types, validation, and the convention adapter.

Two ways of writing a semilinear heat equation are supported:

* ``BACKWARD_HALF_LAPLACIAN`` (canonical): find u on [0, T] x R^d with

      du/dt + (1/2) Lap u + f(t, x, u, grad u) = 0,   u(T, .) = g.

* ``FORWARD_FULL_LAPLACIAN``: find w on [0, T] x R^d with

      dw/dt = Lap w + f(t, x, w, grad w),   w(0, .) = g.

The solver itself works only on the canonical form; :func:`to_canonical`
rewrites a forward problem into it via the substitution
u(s, x) = w(T - s/2, x) on the doubled horizon 2T, which halves the
nonlinearity and reverses/stretches time.  The returned :class:`TimeMap`
converts query times of the original problem into canonical times.

Callable contract
-----------------
Terminal data and nonlinearity are evaluated on batches:

* ``g(x)`` with ``x`` of shape (m, d) returns shape (m,);
* ``f(t, x, y, z)`` with ``t, y`` of shape (m,) and ``x, z`` of shape (m, d)
  returns shape (m,).

The ``t, x`` arguments are always in the problem's own convention (the
adapter rewires them).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Convention",
    "PdeProblem",
    "MlpConfig",
    "FieldEstimate",
    "Violation",
    "InvalidProblem",
    "validate_problem",
    "TimeMap",
    "to_canonical",
]

ThetaPath = tuple[int, ...]


def is_int64(value) -> bool:
    """An int or numpy integer (not a ``bool``) within int64, as a depth,
    a base, a root seed or a stream-path entry must be."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool)
            and -(1 << 63) <= value < (1 << 63))


class Convention(enum.Enum):
    """How the PDE is written; see the module docstring."""

    BACKWARD_HALF_LAPLACIAN = "backward-half-laplacian"
    FORWARD_FULL_LAPLACIAN = "forward-full-laplacian"


@dataclass(frozen=True)
class PdeProblem:
    """A semilinear heat equation posed in one of the two conventions.

    Parameters
    ----------
    dimension:
        Spatial dimension d >= 1.
    horizon:
        Final time T > 0.
    terminal_data:
        g, the data at t = T (backward) or t = 0 (forward); batched callable.
    nonlinearity:
        f(t, x, y, z); batched callable, arguments in this problem's
        convention.  For an estimate of at least
        ``engine.FANOUT_MIN_DRAWS`` draws, g and f may be called at the
        same time from several threads, on disjoint rows: pure array
        functions are safe, callbacks that change shared state are not.
    convention:
        Which form the fields above are written in.
    """

    dimension: int
    horizon: float
    terminal_data: Callable[[np.ndarray], np.ndarray]
    nonlinearity: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    convention: Convention = Convention.BACKWARD_HALF_LAPLACIAN


@dataclass(frozen=True)
class MlpConfig:
    """Estimator parameters.

    ``depth`` is the recursion depth n >= 0 (n = 0 is the zero estimate),
    ``base`` the per-level branching factor M >= 1, ``time_cdf_exponent``
    the e of the time-fraction law P(r <= b) = b**e, and ``root_seed`` the
    stream seed.
    """

    depth: int
    base: int
    time_cdf_exponent: float = 0.5
    root_seed: int = 0


@dataclass(frozen=True)
class FieldEstimate:
    """Joint estimate of (u, grad u) at one query point plus its draw cost."""

    value: float
    gradient: np.ndarray
    draws: int

    def as_vector(self) -> np.ndarray:
        """The (1+d)-vector (value, gradient...)."""
        return np.concatenate(([self.value], self.gradient))


@dataclass(frozen=True)
class Violation:
    """One failed type invariant: which field, which named constraint, why."""

    field: str
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.field}: {self.code}: {self.message}"


class InvalidProblem(ValueError):
    """Raised by :func:`validate_problem`; carries the violation list."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in violations))


def validate_problem(problem: PdeProblem, config: MlpConfig) -> None:
    """Raise :class:`InvalidProblem` listing every violated invariant of
    the pair; return ``None`` when it is valid."""
    out: list[Violation] = []
    if not is_int64(problem.dimension):
        out.append(Violation("dimension", "NonIntegerDimension",
                             f"dimension must be an int64 integer, "
                             f"got {problem.dimension!r}"))
    elif problem.dimension < 1:
        out.append(Violation("dimension", "ZeroDimension",
                             f"dimension must be >= 1, got {problem.dimension}"))
    if not problem.horizon > 0.0:
        out.append(Violation("horizon", "NonpositiveHorizon",
                             f"horizon must be > 0, got {problem.horizon}"))
    elif not math.isfinite(problem.horizon):
        out.append(Violation("horizon", "NonfiniteHorizon",
                             f"horizon must be finite, got {problem.horizon}"))
    if not is_int64(config.depth):
        out.append(Violation("depth", "NonIntegerDepth",
                             f"depth must be an int64 integer, "
                             f"got {config.depth!r}"))
    elif config.depth < 0:
        out.append(Violation("depth", "NegativeDepth",
                             f"depth must be >= 0, got {config.depth}"))
    if not is_int64(config.base):
        out.append(Violation("base", "NonIntegerBase",
                             f"base must be an int64 integer, "
                             f"got {config.base!r}"))
    elif config.base < 1:
        out.append(Violation("base", "NonpositiveBase",
                             f"base must be >= 1, got {config.base}"))
    if not is_int64(config.root_seed):
        out.append(Violation(
            "root_seed", "SeedNotInt64",
            f"root seed must be an int64 integer, got {config.root_seed!r}"))
    if not 0.0 < config.time_cdf_exponent < 1.0:
        out.append(Violation(
            "time_cdf_exponent", "ExponentOutOfRange",
            f"time CDF exponent must lie strictly in (0, 1), "
            f"got {config.time_cdf_exponent}"))
    if out:
        raise InvalidProblem(out)


@dataclass(frozen=True)
class TimeMap:
    """Affine map from original-problem time to canonical time.

    canonical_time = offset + slope * t.  Identity for problems already in
    canonical form; for forward problems s = 2(T - t).
    """

    slope: float
    offset: float

    def __call__(self, t: float) -> float:
        return self.offset + self.slope * t

    def inverse(self, s: float) -> float:
        return (s - self.offset) / self.slope


_IDENTITY = TimeMap(slope=1.0, offset=0.0)


def to_canonical(problem: PdeProblem) -> tuple[PdeProblem, TimeMap]:
    """Rewrite ``problem`` in the canonical backward form.

    Canonical input is returned as-is with the identity map (idempotent).
    A forward problem on horizon T becomes a backward one on horizon 2T:
    with u(s, x) = w(T - s/2, x), the forward equation
    dw/dt = Lap w + f(t, x, w, grad w) turns into
    du/ds + (1/2) Lap u + f(T - s/2, x, u, grad u)/2 = 0 with u(2T, .) = g,
    so the nonlinearity is halved and evaluated at the mapped time.
    """
    if problem.convention is Convention.BACKWARD_HALF_LAPLACIAN:
        return problem, _IDENTITY
    horizon = problem.horizon
    fwd_f = problem.nonlinearity

    def canonical_f(t, x, y, z):
        return fwd_f(horizon - t / 2.0, x, y, z) / 2.0

    canonical = replace(
        problem,
        horizon=2.0 * horizon,
        nonlinearity=canonical_f,
        convention=Convention.BACKWARD_HALF_LAPLACIAN,
    )
    return canonical, TimeMap(slope=-2.0, offset=2.0 * horizon)
