"""Acceptance battery: nine end-to-end gates, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED line
per criterion, or add ``-s`` to see the ``[PASS]``/``[FAIL]`` detail lines.
Criteria 1, 3, 4, 5 and 7 call the ``check_*`` gate functions of
:mod:`mlpicard.harness` (the same ones ``run_test_battery`` runs at its own
sizes); their sample sizes and stream paths are stated at the call and
their bounds in the function docstrings.  The other criteria state every
tolerance inline next to the assertion it guards.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from mlpicard import (
    ErrorBoundInput,
    MlpConfig,
    builtin_case,
    combined_error_ucl,
    error_bound,
    replicate,
    run_convergence,
    to_canonical,
    write_csv,
)
from mlpicard.cases import default_eval_points
from mlpicard.harness import (
    CheckResult,
    check_convergence_trend,
    check_cost_ledger,
    check_integral_identities,
    check_sampler_laws,
    check_unbiasedness_ladder,
)
from mlpicard.integrals import (
    IteratedIntegralSpec,
    iterated_integral_closed,
    iterated_integral_lower_bound,
    iterated_integral_upper_bound,
)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _gate(criterion: str, check: CheckResult) -> None:
    _verdict(criterion, check.passed, check.detail)


def test_criterion_1_closed_form_matches_quadrature():
    # 27 grid cells, worst relative gap <= 1e-6.
    _gate("criterion 1 (closed form vs quadrature)",
          check_integral_identities())


def test_criterion_2_bound_ordering_and_gamma_ratio():
    slack = 1.0 + 1e-12
    checks = 0
    ok = True
    # Lower bound of nesting depth j-1 sits under the closed value at
    # depth j (unit final exponents).
    for j in (1, 2, 3):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            value = iterated_integral_closed(IteratedIntegralSpec(
                j=j, alpha=alpha, beta=1.0, gamma=1.0, horizon=1.0))
            ok &= iterated_integral_lower_bound(j - 1, 1.0) <= value * slack
            checks += 1
            # Closed value sits under the product upper bound across the
            # admissible window alpha*gamma <= beta < alpha*gamma + 1.
            for beta in (alpha, alpha + 0.5, alpha + 0.999):
                spec = IteratedIntegralSpec(
                    j=j, alpha=alpha, beta=beta, gamma=1.0, horizon=1.0)
                ok &= iterated_integral_closed(spec) <= \
                    iterated_integral_upper_bound(spec) * slack
                checks += 1
    # Two-sided Gamma-ratio estimate used by the bounds, with equality at
    # the integer endpoints: x(x+s)^(s-1) <= Gamma(x+s)/Gamma(x) <= x^s.
    for x in (0.5, 1.0, 5.0):
        for s in (0.0, 0.5, 1.0):
            ratio = math.exp(gammaln(x + s) - gammaln(x))
            upper = x**s
            lower = x * (x + s) ** (s - 1.0)
            ok &= lower * (1.0 - 1e-12) <= ratio <= upper * slack
            checks += 1
            if s in (0.0, 1.0):
                ok &= math.isclose(ratio, upper, rel_tol=1e-12)
                ok &= math.isclose(ratio, lower, rel_tol=1e-12)
    _verdict("criterion 2 (bound ordering + Gamma-ratio estimate)", ok,
             f"{checks} ordering checks, endpoint equalities at rel 1e-12")


def test_criterion_3_sampler_laws():
    # KS at 1e5 draws on streams (50, 0..2) of root seed 0; E[U^2] = 4 at
    # (T, e) = (1, 1/2) from 1e6 samples within 3 sigma = 3 sqrt(32) / 1000.
    _gate("criterion 3 (time-fraction law + one-step variance)",
          check_sampler_laws(100_000, 10**6, seed=0, ks_path=(50,)))


def test_criterion_4_unbiasedness_ladder():
    # Depths 1-2, 1e5 replications vs 1e5 direct simulations, gate 4 sigma.
    _gate("criterion 4 (telescoped expectation, depths 1-2)",
          check_unbiasedness_ladder(10**5, 10**5, seed=0))


def test_criterion_5_cost_ledger_matches_recursion():
    _gate("criterion 5 (draw ledger == cost recursion <= closed bound)",
          check_cost_ledger(seed=0))


def test_criterion_6_error_bound_dominates_measured_error():
    worst_ratio = 0.0
    cells = 0
    ok = True
    for name in ("linear-heat-quadratic", "grad-free-exponential",
                 "grad-dependent-sine"):
        for d in (1, 5):
            case = builtin_case(name, dimension=d)
            problem = case.problem
            points = default_eval_points(d)
            for n in (1, 2, 3, 4):
                for base in (1, 2):
                    bound = error_bound(ErrorBoundInput(
                        p=4.0, alpha=0.5, n=n, base=base,
                        horizon=problem.horizon, t=0.0,
                        reg=case.norm_overrides,
                        u_moment_override=case.u_moment_override))
                    config = MlpConfig(depth=n, base=base, root_seed=0)
                    for x in points:
                        ref_value, ref_grad = case.exact(0.0, x)
                        estimates = replicate(problem, config, 0.0, x, 100)
                        ucl = combined_error_ucl(estimates, ref_value,
                                                 ref_grad)
                        ratio = ucl / bound
                        worst_ratio = max(worst_ratio, ratio)
                        ok &= ratio <= 2.0
                        cells += 1
    _verdict("criterion 6 (95% UCL of combined error <= 2x a-priori bound)",
             ok, f"{cells} cells (3 cases x d in {{1,5}} x n<=4 x M<=2 "
             f"x 2 points), worst UCL/bound = {worst_ratio:.3f}")


def test_criterion_7_error_decays_along_depth_schedule():
    # grad-dependent-sine, d in {1, 5, 10}, M = n for n = 1..5, 100
    # replications; every step ratio of the combined error <= 1.5.
    _gate("criterion 7 (non-divergent error along M=n schedule)",
          check_convergence_trend(["grad-dependent-sine"], (1, 5, 10),
                                  n_max=5, replications=100, seed=0))


def test_criterion_8_byte_identical_reproducibility(tmp_path):
    case = builtin_case("grad-dependent-sine", dimension=1)
    schedule = [(1, 1), (2, 2)]
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        rows = run_convergence(case, schedule, replications=20, seed=11)
        write_csv(rows, str(path))
    blobs = [path.read_bytes() for path in paths]
    _verdict("criterion 8 (same-seed determinism)", blobs[0] == blobs[1],
             f"two CSVs, {len(blobs[0])} bytes each, byte-identical")


def test_criterion_9_convention_equivalence():
    backward = builtin_case("grad-dependent-sine", dimension=3)
    forward = builtin_case("forward-heat", dimension=3)
    _, tmap = to_canonical(forward.problem)
    rng = np.random.default_rng(8)
    refs_equal = True
    for t_fwd in (0.5, 0.25, 0.05, 0.37, 0.123456):
        s = tmap(t_fwd)
        for x in rng.uniform(-2.0, 2.0, size=(3, 3)):
            vb, gb = backward.exact(s, x)
            vf, gf = forward.exact(t_fwd, x)
            refs_equal &= vb == vf and bool(np.array_equal(gb, gf))
    schedule = [(1, 1), (2, 2), (3, 2)]
    rows_b = run_convergence(backward, schedule, replications=50, seed=0)
    rows_f = run_convergence(forward, schedule, replications=50, seed=0)
    tables_close = True
    worst = 0.0
    for rb, rf in zip(rows_b, rows_f):
        tables_close &= rb.draws == rf.draws
        for field in ("rmse_value", "rmse_grad_max", "combined_error",
                      "error_bound"):
            a, b = getattr(rb, field), getattr(rf, field)
            tables_close &= bool(np.isclose(a, b, rtol=1e-9, atol=0.0))
            if b != 0.0:
                worst = max(worst, abs(a - b) / abs(b))
    _verdict("criterion 9 (forward and backward conventions agree)",
             refs_equal and tables_close,
             f"references bitwise at 5 times x 3 points; error tables "
             f"within rel {worst:.2e} (tol 1e-9)")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
