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
    "audit_lipschitz",
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
    lipschitz_solution:
        (d+1)-vector of Lipschitz constants of f in (y, z_1, ..., z_d).
    lipschitz_space:
        d-vector of Lipschitz constants in x (covering both g and f's
        x-dependence, coordinatewise).
    convention:
        Which form the fields above are written in.
    """

    dimension: int
    horizon: float
    terminal_data: Callable[[np.ndarray], np.ndarray]
    nonlinearity: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_solution: tuple[float, ...]
    lipschitz_space: tuple[float, ...]
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
    if problem.dimension < 1:
        out.append(Violation("dimension", "ZeroDimension",
                             f"dimension must be >= 1, got {problem.dimension}"))
    if not problem.horizon > 0.0:
        out.append(Violation("horizon", "NonpositiveHorizon",
                             f"horizon must be > 0, got {problem.horizon}"))
    elif not math.isfinite(problem.horizon):
        out.append(Violation("horizon", "NonfiniteHorizon",
                             f"horizon must be finite, got {problem.horizon}"))
    if problem.dimension >= 1:
        if len(problem.lipschitz_solution) != problem.dimension + 1:
            out.append(Violation(
                "lipschitz_solution", "BadLength",
                f"expected d+1 = {problem.dimension + 1} constants, "
                f"got {len(problem.lipschitz_solution)}"))
        if len(problem.lipschitz_space) != problem.dimension:
            out.append(Violation(
                "lipschitz_space", "BadLength",
                f"expected d = {problem.dimension} constants, "
                f"got {len(problem.lipschitz_space)}"))
    for name in ("lipschitz_solution", "lipschitz_space"):
        if any(c < 0 for c in getattr(problem, name)):
            out.append(Violation(name, "NegativeLipschitz",
                                 "Lipschitz constants must be nonnegative"))
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
    so the nonlinearity is halved and evaluated at the mapped time.  The
    solution-Lipschitz constants halve along with f; the space constants
    are kept (g is unchanged and f's x-constants only shrink).
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
        lipschitz_solution=tuple(c / 2.0 for c in problem.lipschitz_solution),
        convention=Convention.BACKWARD_HALF_LAPLACIAN,
    )
    return canonical, TimeMap(slope=-2.0, offset=2.0 * horizon)


def audit_lipschitz(problem: PdeProblem) -> list[str]:
    """Sampled check of the declared Lipschitz constants.

    Draws 256 random argument pairs, each coordinate in [-2, 2]
    (times in [0, horizon]), from a fixed seed and checks

        max(|f(t,x,y,z) - f(t,xx,yy,zz)|, |g(x) - g(xx)|)
            <= sum_i L_i |(y,z)_i - (yy,zz)_i| + sum_i K_i |x_i - xx_i|

    up to a slack of 1e-9, for the declared constants L
    (``lipschitz_solution``) and K (``lipschitz_space``).  Returns
    human-readable descriptions of observed breaches (empty when none
    found).  A sampled audit can only ever find counterexamples, not
    certify the constants.
    """
    radius = 2.0
    n_pairs = 256
    rng = np.random.default_rng(0)
    d = problem.dimension
    L = np.asarray(problem.lipschitz_solution, dtype=float)
    K = np.asarray(problem.lipschitz_space, dtype=float)
    breaches: list[str] = []
    t = rng.uniform(0.0, problem.horizon, size=n_pairs)
    x1 = rng.uniform(-radius, radius, size=(n_pairs, d))
    x2 = rng.uniform(-radius, radius, size=(n_pairs, d))
    u1 = rng.uniform(-radius, radius, size=(n_pairs, d + 1))
    u2 = rng.uniform(-radius, radius, size=(n_pairs, d + 1))
    f = problem.nonlinearity
    g = problem.terminal_data
    f_gap = np.abs(
        f(t, x1, u1[:, 0], u1[:, 1:]) - f(t, x2, u2[:, 0], u2[:, 1:])
    )
    g_gap = np.abs(g(x1) - g(x2))
    allowed = np.abs(u1 - u2) @ L + np.abs(x1 - x2) @ K
    bad = np.maximum(f_gap, g_gap) > allowed + 1e-9
    for idx in np.nonzero(bad)[0][:5]:
        breaches.append(
            f"pair {idx}: |f gap|={f_gap[idx]:.6g}, |g gap|={g_gap[idx]:.6g} "
            f"exceed allowance {allowed[idx]:.6g}"
        )
    return breaches
