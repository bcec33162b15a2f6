"""Command-line front end: solve, converge, verify-integrals, cost,
schedule, battery.

Benchmark cases are named builtins (``--case grad-dependent-sine``) with
``--d``, ``--horizon``, ``--lambda`` and ``--c``; a case refuses a value it
does not read.  A run's arguments can be kept in a file, one per line, and
read with ``@file``.  User-defined PDEs enter only through the library API.
The draw budget of the cost guard can be set with the MLPICARD_COST_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bounds import (
    AdmissibilityViolated,
    NoFeasibleDepth,
    Overflow,
    cost_bound_closed,
    cost_rv,
    schedule as solve_schedule,
)
from .core import InvalidProblem, MlpConfig, to_canonical
from .engine import DepthCostGuard, QueryAtTerminalTime, replicate, rmse
from .cases import BUILTIN_CASES, BenchmarkCase, UnknownCase, builtin_case
from .harness import (
    run_convergence,
    run_test_battery,
    verify_integral_identities,
    write_csv,
)

__all__ = ["main"]


def _case(args: argparse.Namespace) -> BenchmarkCase:
    return builtin_case(args.case, args.d, args.horizon, args.lam, args.c)


def _parse_point(text: str | None, dimension: int) -> np.ndarray:
    if text is None:
        return np.zeros(dimension)
    try:
        parts = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise SystemExit(
            f"error: --x needs comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, parts)):
        raise SystemExit(f"error: --x needs finite numbers, got {text!r}")
    if len(parts) == 1:
        return np.full(dimension, parts[0])
    if len(parts) != dimension:
        raise SystemExit(
            f"error: --x needs 1 or {dimension} comma-separated numbers, "
            f"got {len(parts)}")
    return np.array(parts)


def _parse_m_rule(text: str, n_max: int) -> list[tuple[int, int]]:
    """The schedule (n, M), n = 1..n_max, of ``fixed:M`` with an integer
    M >= 1 or of ``floor-n^q`` with a finite exponent q; any other M, a q
    that is not finite, or an n**q past the float range, exits naming
    ``--m-rule``."""
    depths = range(1, n_max + 1)
    if text.startswith("fixed:"):
        try:
            m = int(text[len("fixed:"):])
        except ValueError:
            m = 0
        if m < 1:
            raise SystemExit(
                f"error: --m-rule 'fixed:M' needs an integer M >= 1, "
                f"got {text!r}")
        return [(n, m) for n in depths]
    if not text.startswith("floor-n^"):
        raise SystemExit(
            f"error: --m-rule must be 'floor-n^q' or 'fixed:M', got {text!r}")
    try:
        q = float(text[len("floor-n^"):])
        if not math.isfinite(q):
            raise ValueError
        return [(n, max(1, math.floor(n**q))) for n in depths]
    except (ValueError, OverflowError):
        raise SystemExit(
            f"error: --m-rule needs a finite q with n^q in the float range "
            f"for n <= {n_max}, got {text!r}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    case = _case(args)
    canonical, tmap = to_canonical(case.problem)
    s = tmap(args.t) if args.t is not None else 0.0
    if not 0.0 <= s < canonical.horizon:
        raise SystemExit(
            f"error: query time maps to canonical {s}, outside "
            f"[0, {canonical.horizon})")
    x = _parse_point(args.x, canonical.dimension)
    config = MlpConfig(depth=args.n, base=args.M, root_seed=args.seed)
    estimates = replicate(canonical, config, s, x, args.reps)
    vectors = np.stack([est.as_vector() for est in estimates])
    mean = vectors.mean(axis=0)
    se = vectors.std(axis=0, ddof=1) / math.sqrt(len(estimates)) \
        if len(estimates) > 1 else np.zeros_like(mean)
    print(f"case: {case.name}")
    print(f"query: t={float(tmap.inverse(s))!r} x={x.tolist()!r}")
    print(f"replications: {len(estimates)}  draws/estimate: "
          f"{estimates[0].draws}")
    print(f"value: {float(mean[0])!r} (stderr {se[0]:.3e})")
    for i in range(canonical.dimension):
        print(f"grad[{i}]: {float(mean[1 + i])!r} (stderr {se[1 + i]:.3e})")
    ref_value, ref_gradient = case.exact(tmap.inverse(s), x)
    report = rmse(estimates, ref_value, ref_gradient)
    print(f"exact value: {float(ref_value)!r}")
    print(f"rmse_value: {float(report.rmse_value)!r}  "
          f"rmse_grad_max: {float(report.rmse_gradient_max)!r}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    case = _case(args)
    schedule = _parse_m_rule(args.m_rule, args.n_max)
    rows = run_convergence(
        case, schedule, replications=args.reps, seed=args.seed,
        t=args.t, x=_parse_point(args.x, to_canonical(case.problem)[0].dimension),
        include_timing=args.timing)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    for row in rows:
        print(f"n={row.n} M={row.base} combined={row.combined_error:.6g} "
              f"bound={row.error_bound:.6g} draws={row.draws}")
    return 0


def _cmd_verify_integrals(args: argparse.Namespace) -> int:
    rows, ok = verify_integral_identities()
    header = (f"{'j':>2} {'alpha':>6} {'beta':>5} {'gamma':>5} "
              f"{'closed':>14} {'quadrature':>14} {'rel_gap':>10} ok")
    print(header)
    for row in rows:
        print(f"{row['j']:>2} {row['alpha']:>6.2f} {row['beta']:>5.2f} "
              f"{row['gamma']:>5.2f} {row['closed']:>14.8g} "
              f"{row['quadrature']:>14.8g} {row['rel_gap']:>10.2e} "
              f"{'yes' if row['ok'] else 'NO'}")
    print(f"all identities hold: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_cost(args: argparse.Namespace) -> int:
    exact = cost_rv(args.d, args.n, args.M)
    closed = cost_bound_closed(args.d, args.n, args.M)
    print(f"draws(d={args.d}, n={args.n}, M={args.M}) = {exact}")
    print(f"closed bound d(5M)^n = {closed}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    case = _case(args)
    if case.norm_overrides is None:
        raise SystemExit(f"error: case {case.name} carries no norm data")
    canonical, _ = to_canonical(case.problem)
    try:
        n, base, cost = solve_schedule(
            args.eps, canonical.dimension, case.norm_overrides,
            p=args.p, alpha=args.alpha, m_rule_exponent=args.q,
            horizon=canonical.horizon, t=0.0,
            u_moment_override=case.u_moment_override)
    except AdmissibilityViolated as exc:
        raise SystemExit(f"error: {exc}")
    except NoFeasibleDepth as exc:
        print(f"infeasible: {exc}")
        return 2
    print(f"case: {case.name}  target accuracy: {args.eps}")
    print(f"depth n = {n}, base M = {base}, predicted draws = {cost}")
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    report = run_test_battery(seed=args.seed, fast=args.fast)
    for line in report.lines():
        print(line)
    print(f"battery: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description=(
            "Full-history recursive multilevel Picard solver for semilinear "
            "heat equations: joint (value, gradient) estimates at a point "
            "with exact draw-cost accounting."),
        epilog="An argument @FILE stands for the arguments in FILE, one "
               "per line.",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = (  # skip an @FILE's blank lines
        lambda line: [line] if line.strip() else [])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case(p, with_point=True):
        p.add_argument("--case", required=True,
                       help=f"builtin name: {', '.join(BUILTIN_CASES)}")
        p.add_argument("--d", type=int, default=1,
                       help="dimension (default 1)")
        p.add_argument("--horizon", type=float, default=None,
                       help="horizon (default: the case's own)")
        p.add_argument("--lambda", dest="lam", metavar="LAMBDA", type=float,
                       help="sine growth rate (default: the case's own)")
        p.add_argument("--c", type=float,
                       help="gradient coupling (default: the case's own)")
        if with_point:
            p.add_argument("--t", type=float, default=None,
                           help="query time in the case's own clock "
                                "(default: start of the backward interval)")
            p.add_argument("--x", type=str, default=None,
                           help="comma-separated query point "
                                "(scalar broadcasts; default origin)")

    p_solve = sub.add_parser("solve", help="replicated estimate at a point")
    add_case(p_solve)
    p_solve.add_argument("--n", type=int, required=True, help="depth")
    p_solve.add_argument("--M", type=int, required=True, help="base")
    p_solve.add_argument("--reps", type=int, default=100)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.set_defaults(fn=_cmd_solve)

    p_conv = sub.add_parser("converge", help="error table over depths")
    add_case(p_conv)
    p_conv.add_argument("--n-max", type=int, required=True)
    p_conv.add_argument("--m-rule", type=str, default="floor-n^0.25",
                        help="'floor-n^q' or 'fixed:M' (default floor-n^0.25)")
    p_conv.add_argument("--reps", type=int, default=100)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", type=str, required=True, help="CSV path")
    p_conv.add_argument("--timing", action="store_true",
                        help="record real wall_seconds (breaks byte-identical "
                             "reproducibility)")
    p_conv.set_defaults(fn=_cmd_converge)

    p_verify = sub.add_parser("verify-integrals",
                              help="closed form vs quadrature vs bounds")
    p_verify.set_defaults(fn=_cmd_verify_integrals)

    p_cost = sub.add_parser("cost", help="exact draw count and closed bound")
    p_cost.add_argument("--d", type=int, required=True)
    p_cost.add_argument("--n", type=int, required=True)
    p_cost.add_argument("--M", type=int, required=True)
    p_cost.set_defaults(fn=_cmd_cost)

    p_sched = sub.add_parser("schedule",
                             help="smallest depth meeting a target accuracy")
    add_case(p_sched, with_point=False)
    p_sched.add_argument("--eps", type=float, required=True)
    p_sched.add_argument("--p", type=float, default=4.0)
    p_sched.add_argument("--alpha", type=float, default=0.5)
    p_sched.add_argument("--q", type=float, default=0.25,
                         help="growth exponent of M = floor(n^q)")
    p_sched.set_defaults(fn=_cmd_schedule)

    p_batt = sub.add_parser("battery", help="statistical test battery")
    p_batt.add_argument("--seed", type=int, default=0)
    p_batt.add_argument("--fast", action="store_true",
                        help="trimmed sample counts")
    p_batt.set_defaults(fn=_cmd_battery)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidProblem, UnknownCase, QueryAtTerminalTime,
            DepthCostGuard, Overflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
