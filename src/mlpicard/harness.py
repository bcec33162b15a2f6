"""Convergence studies and the statistical test battery.

:func:`run_convergence` turns replicated estimates of a builtin case (see
:mod:`mlpicard.cases`) into error tables with an a-priori bound column,
written by :func:`write_csv` under a fixed CSV schema.
:func:`unbiasedness_gap` compares the estimator's mean with an independent
direct simulation of its defining expectation, in two group calls of the
engine (:func:`mlpicard.engine._estimates`), and
:func:`verify_integral_identities` checks the iterated-integral closed forms
against quadrature.  The ``check_*`` functions turn these, the sampler laws
and the cost ledger into pass/fail entries, which :func:`run_test_battery`
aggregates into one report.

``scipy.stats`` is imported inside :func:`check_sampler_laws`, the one
function that runs a KS test, so :func:`run_convergence` does not pay for
loading it.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .bounds import ErrorBoundInput, cost_bound_closed, cost_rv, error_bound
from .cases import BUILTIN_CASES, BenchmarkCase, builtin_case
from .core import (FieldEstimate, MlpConfig, PdeProblem, is_int64,
                   to_canonical)
from .engine import (EmptySample, _estimates, _squared_errors, evaluate,
                     replicate, rmse)
from .integrals import (
    HypothesisViolated,
    IteratedIntegralSpec,
    iterated_integral_closed,
    iterated_integral_lower_bound,
    iterated_integral_quadrature,
    iterated_integral_upper_bound,
)
from .sampler import stream_uniforms

__all__ = [
    "ConvergenceRow",
    "CSV_COLUMNS",
    "run_convergence",
    "write_csv",
    "combined_error_ucl",
    "unbiasedness_gap",
    "verify_integral_identities",
    "CheckResult",
    "check_sampler_laws",
    "check_integral_identities",
    "check_unbiasedness_ladder",
    "check_cost_ledger",
    "check_convergence_trend",
    "BatteryReport",
    "run_test_battery",
]

# KS two-sided critical value at the 1% level is about 1.628 / sqrt(n).
KS_CRITICAL_1PCT = 1.628


# ---------------------------------------------------------------------------
# Convergence studies and CSV reporting
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "case",
    "n",
    "M",
    "replications",
    "rmse_value",
    "rmse_grad_max",
    "combined_error",
    "error_bound",
    "draws",
    "wall_seconds",
)


@dataclass(frozen=True)
class ConvergenceRow:
    """One (n, M) line of a convergence table; see CSV_COLUMNS."""

    case: str
    n: int
    base: int
    replications: int
    rmse_value: float
    rmse_grad_max: float
    combined_error: float
    error_bound: float
    draws: int
    wall_seconds: float

    def as_csv(self) -> list[str]:
        """The cells in field order, which is ``CSV_COLUMNS``' order:
        ``repr`` of the float fields, ``str`` of the others."""
        return [(repr if field.type == "float" else str)(
            getattr(self, field.name)) for field in fields(self)]


def _row_error_bound(
    case: BenchmarkCase,
    canonical: PdeProblem,
    config: MlpConfig,
    s: float,
) -> float:
    """A-priori bound column; NaN when no norms are supplied or the
    (p, alpha) hypotheses exclude the configuration."""
    if case.norm_overrides is None or config.depth < 1:
        return math.nan
    try:
        return error_bound(ErrorBoundInput(
            p=4.0,
            alpha=1.0 - config.time_cdf_exponent,
            n=config.depth,
            base=config.base,
            horizon=canonical.horizon,
            t=s,
            reg=case.norm_overrides,
            u_moment_override=case.u_moment_override,
        ))
    except HypothesisViolated:
        return math.nan


def run_convergence(
    case: BenchmarkCase,
    schedule: Sequence[tuple[int, int]],
    replications: int = 100,
    seed: int = 0,
    t: float | None = None,
    x: np.ndarray | None = None,
    include_timing: bool = False,
) -> list[ConvergenceRow]:
    """Replicated error table over a schedule of (n, M) pairs, at the
    default time CDF exponent, under the draw budget of the cost guard.

    ``t`` is in the case's own clock (``None`` means canonical time 0, i.e.
    the start of the backward interval — the forward horizon for forward
    cases); ``x`` defaults to the origin.  With ``include_timing`` false
    (the default) the wall_seconds column is written as 0.0 so tables are
    reproducible byte-for-byte; pass true to record real timings.
    """
    canonical, tmap = to_canonical(case.problem)
    s = 0.0 if t is None else tmap(t)
    if x is None:
        x = np.zeros(canonical.dimension)
    t_own = tmap.inverse(s)
    ref_value, ref_gradient = case.exact(t_own, np.asarray(x, dtype=float))
    rows: list[ConvergenceRow] = []
    for n, base in schedule:
        config = MlpConfig(depth=n, base=base, root_seed=seed)
        started = time.perf_counter()
        estimates = replicate(canonical, config, s, x, replications)
        elapsed = time.perf_counter() - started
        report = rmse(estimates, ref_value, ref_gradient)
        rows.append(ConvergenceRow(
            case=case.name,
            n=n,
            base=base,
            replications=replications,
            rmse_value=report.rmse_value,
            rmse_grad_max=report.rmse_gradient_max,
            combined_error=report.combined,
            error_bound=_row_error_bound(case, canonical, config, s),
            draws=estimates[0].draws,
            wall_seconds=elapsed if include_timing else 0.0,
        ))
    return rows


def write_csv(rows: Sequence[ConvergenceRow], path: str) -> None:
    """Write rows under the fixed schema; floats via repr for stability."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())


def combined_error_ucl(
    estimates: Sequence[FieldEstimate],
    reference_value: float,
    reference_gradient: np.ndarray,
) -> float:
    """One-sided 95% upper confidence limit of the combined error.

    The combined error is sqrt(MSE_value + max_i MSE_gradient_i); the UCL
    applies a normal-approximation upper limit to the mean of the summed
    squared errors at the worst gradient coordinate.
    """
    if len(estimates) < 2:
        raise EmptySample("confidence limit needs at least two estimates")
    sq, gsq = _squared_errors(estimates, reference_value, reference_gradient)
    worst = int(np.argmax(gsq.mean(axis=0)))
    w = sq + gsq[:, worst]
    ucl = w.mean() + 1.645 * w.std(ddof=1) / math.sqrt(len(w))
    return math.sqrt(max(ucl, 0.0))


# ---------------------------------------------------------------------------
# Feynman-Kac unbiasedness ladder
# ---------------------------------------------------------------------------


def unbiasedness_gap(
    depth: int, replications: int, sim_samples: int, seed: int = 0
) -> dict:
    """Engine mean of U_n versus an independently simulated expectation.

    The case is grad-dependent-sine in d = 1, the estimator has base M = 2
    and time CDF exponent e = 0.5, and the depth-n estimator's mean must
    match

        E[g(x + W) (1, W / (T - t))]
        + E[(1/rho(R)) f(R, xi_R, U_{n-1}(R, xi_R)) (1, W_R / (R - t))]

    where R has density rho proportional to the time-fraction law and the
    U_{n-1} factor is itself an (independent) estimator — the tower property
    makes one inner sample per outer draw sufficient.  The right-hand side
    is simulated with an unrelated generator (numpy's) so only the
    expectation, not the stream mechanics, is shared with the engine.
    Raises ``ValueError`` unless ``depth`` is an integer >= 1,
    ``replications`` and ``sim_samples`` integers >= 2, ``seed`` an integer
    >= -987654321 (``seed + 987654321`` seeds the direct simulation) and
    ``seed + 1234567`` (the inner estimator's seed) an int64 integer.

    Returns a dict with the two mean vectors, per-coordinate gaps, the
    combined standard errors, and ``passed`` (all gaps within 4 sigma).
    """
    if not (is_int64(depth) and depth >= 1):
        raise ValueError(f"depth must be an integer >= 1, got {depth!r}")
    for name, count in (("replications", replications),
                        ("sim_samples", sim_samples)):
        if not (is_int64(count) and count >= 2):
            raise ValueError(f"{name} must be an integer >= 2, got {count!r}")
    if not (is_int64(seed) and seed >= -987_654_321
            and is_int64(int(seed) + 1_234_567)):
        raise ValueError(f"seed={seed!r} must be >= -987654321 and "
                         f"seed + 1234567 must be int64")
    canonical, _ = to_canonical(builtin_case("grad-dependent-sine").problem)
    d = canonical.dimension
    t = 0.0
    x = np.full(d, 1.0 / math.sqrt(d))
    e = 0.5
    tau = canonical.horizon - t

    # Left side: engine replications, replication k at root path (k,).
    config = MlpConfig(depth=depth, base=2, time_cdf_exponent=e,
                       root_seed=seed)
    lhs, _ = _estimates(canonical, config, np.full(replications, t),
                        np.tile(x, (replications, 1)),
                        np.arange(1, replications + 1).reshape(-1, 1))
    lhs_mean = lhs.mean(axis=0)
    lhs_se = lhs.std(axis=0, ddof=1) / math.sqrt(replications)

    # Right side: direct simulation of the one-step expectation.
    rng = np.random.default_rng(seed + 987_654_321)
    zg = rng.standard_normal((sim_samples, d))
    gv = canonical.terminal_data(x[None, :] + math.sqrt(tau) * zg)
    g_terms = np.column_stack([gv, gv[:, None] * zg / math.sqrt(tau)])

    u = rng.uniform(size=sim_samples)
    r = u ** (1.0 / e)
    zf = rng.standard_normal((sim_samples, d))
    s_times = t + tau * r
    root = np.sqrt(tau * r)
    xi = x[None, :] + root[:, None] * zf
    # The depth-(n-1) field at sample k, on root path (k,); zero at n = 1.
    sub_config = MlpConfig(depth=depth - 1, base=2, time_cdf_exponent=e,
                           root_seed=seed + 1_234_567)
    field, _ = _estimates(canonical, sub_config, s_times, xi,
                          np.arange(sim_samples).reshape(-1, 1))
    fv = canonical.nonlinearity(s_times, xi, field[:, 0], field[:, 1:])
    weight = tau * r ** (1.0 - e) / e
    f_terms = np.column_stack([weight * fv,
                               (weight * fv / root)[:, None] * zf])

    rhs_mean = g_terms.mean(axis=0) + f_terms.mean(axis=0)
    rhs_se = np.sqrt(
        g_terms.var(axis=0, ddof=1) / sim_samples
        + f_terms.var(axis=0, ddof=1) / sim_samples
    )
    sigma = np.sqrt(lhs_se**2 + rhs_se**2)
    gaps = np.abs(lhs_mean - rhs_mean)
    return {
        "depth": depth,
        "lhs_mean": lhs_mean,
        "rhs_mean": rhs_mean,
        "gaps": gaps,
        "sigma": sigma,
        "passed": bool(np.all(gaps <= 4.0 * sigma)),
    }


# ---------------------------------------------------------------------------
# Integral identity grid
# ---------------------------------------------------------------------------

_IDENTITY_GRID = tuple(
    (j, alpha, beta, gamma)
    for j in (1, 2, 3)
    for alpha in (0.3, 0.5, 0.7)
    for (beta, gamma) in ((1.0, 1.0), (0.5, 1.0), (1.5, 2.0))
)


def verify_integral_identities() -> tuple[list[dict], bool]:
    """Closed form vs quadrature on the standard grid (horizon 1), within
    relative 1e-6, plus bound ordering.

    Returns (rows, all_ok); each row records the grid point, both integral
    values, the relative gap, and — where the bounds' hypotheses admit the
    point — the lower/upper bounds with their ordering status.
    """
    rel_tol = 1e-6
    rows: list[dict] = []
    all_ok = True
    for j, alpha, beta, gamma in _IDENTITY_GRID:
        spec = IteratedIntegralSpec(
            j=j, alpha=alpha, beta=beta, gamma=gamma, horizon=1.0)
        closed = iterated_integral_closed(spec)
        quad = iterated_integral_quadrature(spec)
        gap = abs(closed - quad) / abs(closed)
        ok = gap <= rel_tol
        row = {
            "j": j, "alpha": alpha, "beta": beta, "gamma": gamma,
            "closed": closed, "quadrature": quad, "rel_gap": gap, "ok": ok,
        }
        # Upper bound needs alpha*gamma <= beta <= alpha*gamma + 1.
        if alpha * gamma <= beta <= alpha * gamma + 1.0:
            upper = iterated_integral_upper_bound(spec)
            row["upper"] = upper
            ok = ok and closed <= upper * (1.0 + 1e-12)
        if beta == 1.0 and gamma == 1.0:
            lower = iterated_integral_lower_bound(j - 1, 1.0)
            row["lower"] = lower
            ok = ok and lower <= closed * (1.0 + 1e-12)
        row["ok"] = ok
        all_ok = all_ok and ok
        rows.append(row)
    return rows, all_ok


# ---------------------------------------------------------------------------
# Test battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One battery entry: a named check, its verdict, and a measurement."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class BatteryReport:
    """Structured result of :func:`run_test_battery`."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def check_sampler_laws(
    ks_samples: int,
    moment_samples: int,
    ks_path: tuple[int, ...],
    seed: int = 0,
) -> CheckResult:
    """Time-fraction law and one-step variance of the sampler.

    For e in (0.3, 0.5, 0.7) the draws u**(1/e) of the stream at
    ``ks_path + (idx,)`` must pass a KS test against the CDF b**e at the 1%
    level.  The empirical second moment of one gradient coordinate of the
    one-step kernel at (T, d, e) = (1, 1, 1/2), from ``moment_samples``
    pairs of the stream at path ``(0,)``, must lie strictly within three
    exact standard errors of T/(e(1-e)) = 4.
    """
    from scipy.stats import kstest

    critical = KS_CRITICAL_1PCT / math.sqrt(ks_samples)
    worst_ks = 0.0
    for idx, e in enumerate((0.3, 0.5, 0.7)):
        draws = stream_uniforms(seed, ks_path + (idx,), ks_samples) ** (1.0 / e)
        stat = kstest(draws, lambda b, _e=e: np.asarray(b) ** _e).statistic
        worst_ks = max(worst_ks, float(stat))

    # The kernel is U = w(r) Z / sqrt(T r) with weight w(r) = T r^(1-e) / e,
    # r = u^(1/e) and Z = ndtri(u'), from row pairs (u, u') of stream (0,).
    u = stream_uniforms(seed, (0,), 2 * moment_samples).reshape(-1, 2)
    r = u[:, 0] ** 2.0
    w = r ** 0.5 / 0.5
    got = float(np.mean((w / np.sqrt(r) * ndtri(u[:, 1])) ** 2))
    # E[U^2] = T / (e (1 - e)) = 4 and E[U^4] = 3 T^2 / (e^3 (2 - 3e)) = 48
    # give the exact standard error of the second moment.
    width = 3.0 * (math.sqrt(48.0 - 16.0) / math.sqrt(moment_samples))
    gap = abs(got - 4.0)
    return CheckResult(
        "sampler-laws", worst_ks < critical and gap < width,
        f"worst KS {worst_ks:.5f} < {critical:.5f}; second moment "
        f"|{got:.4f} - 4.0000| = {gap:.5f} < {width:.5f}")


def check_integral_identities() -> CheckResult:
    """Closed form vs quadrature within relative 1e-6 on all 27 cells of the
    standard grid (3 depths x 3 alphas x 3 (beta, gamma) pairs), bounds
    ordered; see :func:`verify_integral_identities`."""
    rows, ok = verify_integral_identities()
    worst = max(row["rel_gap"] for row in rows)
    return CheckResult(
        "integral-identities", ok and len(rows) == 27,
        f"{len(rows)} grid cells (27 expected), worst relative gap "
        f"{worst:.2e} (tol 1e-6), bounds ordered")


def check_unbiasedness_ladder(
    replications: int, sim_samples: int, seed: int = 0
) -> CheckResult:
    """:func:`unbiasedness_gap` at depths 1 and 2, every gap within
    4 sigma (time CDF exponent 0.5)."""
    details = []
    ok = True
    for depth in (1, 2):
        result = unbiasedness_gap(depth, replications=replications,
                                  sim_samples=sim_samples, seed=seed)
        ok = ok and result["passed"]
        worst = float(np.max(result["gaps"] / result["sigma"]))
        details.append(f"n={depth} worst |gap|/sigma {worst:.2f}")
    return CheckResult(
        "unbiasedness-ladder", ok,
        "; ".join(details) + f" (gate 4.0; {replications} replications vs "
        f"{sim_samples} direct simulations)")


def check_cost_ledger(seed: int = 0) -> CheckResult:
    """Draw ledger == :func:`cost_rv` <= d(5M)^n on the grid
    grad-dependent-sine x d in {1, 3} x n in {1, 2, 3} x M in {1, 2, 3}."""
    mismatches = 0
    cells = 0
    for d in (1, 3):
        case = builtin_case("grad-dependent-sine", dimension=d)
        canonical, _ = to_canonical(case.problem)
        x = np.zeros(d)
        for n in (1, 2, 3):
            for base in (1, 2, 3):
                config = MlpConfig(depth=n, base=base, root_seed=seed)
                est = evaluate(canonical, config, 0.0, x)
                predicted = cost_rv(d, n, base)
                if est.draws != predicted or \
                        predicted > cost_bound_closed(d, n, base):
                    mismatches += 1
                cells += 1
    return CheckResult(
        "cost-ledger", mismatches == 0,
        f"{cells} (d, n, M) cells, {mismatches} mismatches "
        f"(ledger == recursion <= d(5M)^n)")


def check_convergence_trend(
    case_names: Sequence[str],
    dimensions: Sequence[int],
    n_max: int,
    replications: int,
    seed: int = 0,
) -> CheckResult:
    """Combined error along the M = n schedule at x = (1,...,1)/sqrt(d):
    every step ratio error(n+1) / error(n) must be at most 1.5.

    The M = n coupling of depth and base is what makes the error shrink;
    at frozen M each added level contributes unaveraged variance and the
    error can grow (matching the M^(-n/2) (2C)^n shape of the bound).
    """
    slack = 1.5
    schedule = [(n, n) for n in range(1, n_max + 1)]
    details = []
    ok = True
    for name in case_names:
        for d in dimensions:
            case = builtin_case(name, dimension=d)
            x = np.full(d, 1.0 / math.sqrt(d))
            rows = run_convergence(case, schedule, replications=replications,
                                   seed=seed, x=x)
            errors = [row.combined_error for row in rows]
            ratios = [errors[k + 1] / errors[k] if errors[k] > 0 else math.inf
                      for k in range(len(errors) - 1)]
            ok = ok and all(r <= slack for r in ratios)
            details.append(f"{name} d={d} worst ratio {max(ratios):.3f}")
    return CheckResult(
        "convergence-trend", ok, "; ".join(details) + f" (gate {slack})")


def run_test_battery(seed: int = 0, fast: bool = False) -> BatteryReport:
    """Aggregate statistical and structural checks of the whole stack.

    Runs the same ``check_*`` functions as the acceptance tests, at the
    battery's own sample sizes; ``fast`` trims them for quick smoke runs.
    Failures are report entries, never exceptions.
    """
    checks = (
        check_sampler_laws(20_000 if fast else 100_000,
                           100_000 if fast else 1_000_000,
                           seed=seed, ks_path=(90,)),
        check_integral_identities(),
        check_unbiasedness_ladder(8_000 if fast else 30_000,
                                  16_000 if fast else 60_000, seed=seed),
        check_cost_ledger(seed),
        check_convergence_trend(BUILTIN_CASES, (2,), 3 if fast else 4,
                                60 if fast else 100, seed=seed),
    )
    return BatteryReport(checks=checks)
