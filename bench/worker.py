"""One benchmark process: set up a workload, run it as a closed loop, check it.

Started by ``bench/run.py`` with ``src`` on ``PYTHONPATH``; it prints one
JSON object as its last line of output.  In ``setup`` mode it stops after
the warm-up op.  All inputs — query points, root seeds and replication
paths — come from ``--seed``; the package receives only those inputs.

An op fails when it raises, returns a non-finite value or gradient, reports
a draw count other than ``cost_rv``, or does not replay bitwise.  Failed ops
are counted and never abort the run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import replace
from time import perf_counter

import numpy as np
import scipy

import mlpicard
from mlpicard import core, engine, harness
from mlpicard.bounds import ErrorBoundInput, cost_rv

from tracing import Tracer

# Workload cells.  ``toy`` sizes keep the smoke test fast; they are never
# used for the reported numbers.
SPECS = {
    "point-deep": dict(case="grad-dependent-sine", d=10, n=5, base=5),
    "point-wide": dict(case="grad-dependent-sine", d=1000, n=3, base=3),
    "table-shallow": dict(cases=harness.BUILTIN_CASES, d=2,
                          schedule=((1, 1), (2, 2), (3, 3)), reps=200),
}
TOY_SPECS = {
    "point-deep": dict(case="grad-dependent-sine", d=3, n=2, base=2),
    "point-wide": dict(case="grad-dependent-sine", d=20, n=2, base=2),
    "table-shallow": dict(cases=harness.BUILTIN_CASES, d=2,
                          schedule=((1, 1), (2, 2)), reps=50),
}

# Statistical gate on point workloads: the mean error may exceed zero by
# Z_GATE standard errors plus BIAS_GATE standard deviations.  A finite-depth
# estimate is biased against the exact solution, by about 0.01 to 0.1
# standard deviations on the full-size cells and 0.3 on the toy ones, so a
# plain z-test would fail more often the longer the run.
Z_GATE = 6.0
BIAS_GATE = 0.5
# Criterion 7's gate: combined error may not grow by more than this factor
# from one row of the M = n schedule to the next.
DECAY_GATE = 1.5


def _inputs(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def _root(rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
    return int(rng.integers(0, 2**62)), (int(rng.integers(1, 2**31)),)


def _wrap_callbacks(case, tracer: Tracer):
    return replace(case, problem=tracer.wrap_problem(case.problem))


class PointWorkload:
    """One ``evaluate`` per op at the run's query point (t, x).

    Ops differ in root seed and replication path; the gate compares their
    spread against the manufactured exact solution at (t, x).
    """

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.case = harness.builtin_case(spec["case"], dimension=spec["d"])
        rng = _inputs(seed, 0)
        self.t = float(rng.uniform(0.0, 0.5))
        self.x = rng.uniform(-1.0, 1.0, spec["d"])
        self.draws = cost_rv(spec["d"], spec["n"], spec["base"])
        self.estimates_per_op = 1

    def cell(self) -> dict:
        s = self.spec
        return dict(case=s["case"], d=s["d"], n=s["n"], M=s["base"], reps=1,
                    t=self.t)

    def traced(self, tracer: Tracer) -> None:
        self.case = _wrap_callbacks(self.case, tracer)

    def boundary(self, k: int) -> bool:
        return True

    def kind(self, k: int) -> int:
        return 0

    def inputs(self, k: int):
        root_seed, theta = _root(_inputs(self.seed, k + 1))
        config = core.MlpConfig(depth=self.spec["n"], base=self.spec["base"],
                                root_seed=root_seed)
        return self.case.problem, config, self.t, self.x, theta

    @staticmethod
    def op(problem, config, t, x, theta):
        return engine.evaluate(problem, config, t, x, theta=theta)

    def check(self, k: int, est) -> str | None:
        if not (math.isfinite(est.value) and np.all(np.isfinite(est.gradient))):
            return "non-finite value or gradient"
        if est.draws != self.draws:
            return f"draws {est.draws} != cost_rv {self.draws}"
        return None

    def op_draws(self, k: int) -> int:
        return self.draws

    @staticmethod
    def same(a, b) -> bool:
        return (a.value.hex() == b.value.hex() and a.draws == b.draws
                and a.gradient.tobytes() == b.gradient.tobytes())

    def gate(self, outputs: dict) -> tuple[bool, str]:
        ests = list(outputs.values())
        if len(ests) < 3:
            return True, f"skipped: {len(ests)} estimates"
        ref_value, ref_grad = self.case.exact(self.t, self.x)
        report = engine.rmse(ests, ref_value, ref_grad)
        bound = harness.error_bound(ErrorBoundInput(
            p=4.0, alpha=0.5, n=self.spec["n"], base=self.spec["base"],
            horizon=self.case.problem.horizon, t=self.t,
            reg=self.case.norm_overrides,
            u_moment_override=self.case.u_moment_override))
        err_value = np.array([e.value for e in ests]) - ref_value
        err_grad = np.array([np.mean(e.gradient - ref_grad) for e in ests])
        # Mean error over its allowance: Z_GATE SE + BIAS_GATE SD.
        excess = [abs(err.mean()) / (err.std(ddof=1) * (
                      Z_GATE / math.sqrt(len(err)) + BIAS_GATE))
                  for err in (err_value, err_grad)]
        ok = bool(report.combined <= bound and max(excess) <= 1.0)
        return ok, (f"{len(ests)} estimates: rmse combined "
                    f"{report.combined:.4g} <= bound {bound:.4g}; mean error "
                    f"over allowance: value {excess[0]:.3f}, mean gradient "
                    f"{excess[1]:.3f} <= 1")


class TableWorkload:
    """One ``run_convergence`` row per op; a table is every (case, n) row.

    Each table has its own query point and root seed.  The loop stops only
    at a table boundary, so every table in the run is complete.
    """

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.cases = [harness.builtin_case(name, dimension=spec["d"])
                      for name in spec["cases"]]
        self.rows = [(c, nm) for c in range(len(self.cases))
                     for nm in spec["schedule"]]
        self.estimates_per_op = spec["reps"]

    def cell(self) -> dict:
        s = self.spec
        return dict(cases=list(s["cases"]), d=s["d"],
                    schedule=[list(nm) for nm in s["schedule"]],
                    reps=s["reps"])

    def traced(self, tracer: Tracer) -> None:
        self.cases = [_wrap_callbacks(c, tracer) for c in self.cases]

    def boundary(self, k: int) -> bool:
        return k % len(self.rows) == 0

    def kind(self, k: int) -> int:
        return k % len(self.rows)

    def inputs(self, k: int):
        table, j = divmod(k, len(self.rows))
        c, schedule_row = self.rows[j]
        case = self.cases[c]
        rng = _inputs(self.seed, table + 1)
        s = float(rng.uniform(0.0, 0.5))
        x = rng.uniform(-1.0, 1.0, self.spec["d"])
        root_seed, _ = _root(rng)
        # s is canonical time; the forward case takes its own clock.
        t_own = core.to_canonical(case.problem)[1].inverse(s)
        return case, schedule_row, root_seed, t_own, x

    def op(self, case, schedule_row, root_seed, t, x):
        return harness.run_convergence(case, [schedule_row],
                                       replications=self.spec["reps"],
                                       seed=root_seed, t=t, x=x)[0]

    def op_draws(self, k: int) -> int:
        n, base = self.rows[k % len(self.rows)][1]
        return self.spec["reps"] * cost_rv(self.spec["d"], n, base)

    def check(self, k: int, row) -> str | None:
        values = (row.rmse_value, row.rmse_grad_max, row.combined_error)
        if not all(math.isfinite(v) for v in values):
            return "non-finite error statistic"
        n, base = self.rows[k % len(self.rows)][1]
        expected = cost_rv(self.spec["d"], n, base)
        if row.draws != expected:
            return f"draws {row.draws} != cost_rv {expected}"
        return None

    @staticmethod
    def same(a, b) -> bool:
        return a.as_csv() == b.as_csv()

    def gate(self, outputs: dict) -> tuple[bool, str]:
        """Each row's combined error is within its a-priori bound, and along
        each (table, case) schedule the error never grows by more than
        DECAY_GATE (acceptance criteria 6 and 7)."""
        worst_bound = worst_decay = 0.0
        ok = True
        per = len(self.spec["schedule"])
        series: dict[int, list[float]] = {}
        for k, row in sorted(outputs.items()):
            ratio = row.combined_error / row.error_bound
            worst_bound = max(worst_bound, ratio)
            ok &= ratio <= 1.0
            series.setdefault(k // per, []).append(row.combined_error)
        for errors in series.values():
            if len(errors) == per:
                for a, b in zip(errors, errors[1:]):
                    worst_decay = max(worst_decay, b / a)
                    ok &= b / a <= DECAY_GATE
        return ok, (f"{len(outputs)} rows: worst error/bound "
                    f"{worst_bound:.4g} <= 1; worst decay ratio "
                    f"{worst_decay:.3f} <= {DECAY_GATE}")


def make_workload(name: str, seed: int, toy: bool = False):
    spec = (TOY_SPECS if toy else SPECS)[name]
    cls = TableWorkload if "cases" in spec else PointWorkload
    return cls(spec, seed)


class Loop:
    """Closed loop with one client: the next op starts when the last ends."""

    def __init__(self, workload):
        self.wl = workload
        self.k = 0
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self.outputs: dict[int, object] = {}

    def one(self) -> float:
        """Run op ``k``, check it, and return its wall seconds."""
        k = self.k
        self.k += 1
        self.attempted += 1
        args = self.wl.inputs(k)
        start = perf_counter()
        try:
            out, reason = self.wl.op(*args), None
        except Exception as exc:  # a failed op is counted, never fatal
            out, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if reason is None:
            reason = self.wl.check(k, out)
        if reason is None:
            self.outputs[k] = out
        else:
            self.failures.append((k, reason))
        return elapsed

    def run(self, seconds: float) -> dict:
        """Ops until ``seconds`` have passed and a boundary is reached."""
        ops = []  # (k, seconds, succeeded)
        start = perf_counter()
        while True:
            k = self.k
            ops.append((k, self.one(), k in self.outputs))
            if (perf_counter() - start >= seconds
                    and self.wl.boundary(self.k)):
                break
        return dict(ops=ops, wall_s=perf_counter() - start)

    def replay(self) -> None:
        """Re-run the first op and require a bitwise-identical output."""
        first = self.outputs.get(0)
        if first is None:
            return
        try:
            again = self.wl.op(*self.wl.inputs(0))
        except Exception as exc:  # a failed replay is counted, never fatal
            reason = f"replay raised {type(exc).__name__}: {exc}"
        else:
            reason = None if self.wl.same(first, again) else "replay mismatch"
        if reason is not None:
            del self.outputs[0]
            self.failures.append((0, reason))


def _tail(durations: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest sample (the largest when there are fewer than eleven)."""
    xs = sorted(durations)
    n = len(xs)
    idx = n - 11 if n > 10 else n - 1
    return dict(op_s_tail=xs[idx], tail_pct=100.0 * (idx + 1) / n,
                tail_beyond=n - idx - 1, samples=n)


def _phase(loop: Loop, seconds: float) -> dict:
    """Timed ops, their median and tail seconds, and their throughput.

    Medians are taken per kind of op (a table row has one kind per
    schedule row and case; a point op has one kind).  ``op_s_p50`` is the
    mean of the kinds' medians, and throughput is the work of one op of
    every kind over the sum of the kinds' medians, times the share of ops
    that succeeded.  On a shared machine this is steadier than work over
    wall time, which is recorded beside it, and than one median over a mix
    of kinds whose speeds differ several-fold.
    """
    wl = loop.wl
    res = loop.run(seconds)
    ops = res["ops"]
    out = _tail([dt for _, dt, _ in ops])
    by_kind: dict[int, list[float]] = {}
    first: dict[int, int] = {}
    for k, dt, _ in ops:
        by_kind.setdefault(wl.kind(k), []).append(dt)
        first.setdefault(wl.kind(k), k)
    cycle_s = sum(float(np.median(v)) for v in by_kind.values())
    ok = sum(succeeded for _, _, succeeded in ops) / len(ops)
    done = [k for k, _, succeeded in ops if succeeded]
    wall = res["wall_s"]
    out.update(
        op_s_p50=cycle_s / len(by_kind),
        op_s_p50_all=float(np.median([dt for _, dt, _ in ops])),
        wall_s=wall,
        estimates_per_s=ok * wl.estimates_per_op * len(first) / cycle_s,
        draws_per_s=ok * sum(wl.op_draws(k) for k in first.values()) / cycle_s,
        estimates_per_wall_s=wl.estimates_per_op * len(done) / wall,
        draws_per_wall_s=sum(wl.op_draws(k) for k in done) / wall,
    )
    return out


def measure(loop: Loop, seconds: float, tracer: Tracer | None = None) -> dict:
    """Timed ops for ``seconds``, then the statistical gate and the replay.

    With a tracer, the first half of the time runs untraced and the second
    half traced, so the result also gives the tracing overhead.
    """
    wl = loop.wl
    if tracer:
        untraced = _phase(loop, seconds / 2)
        wl.traced(tracer)
        tracer.install()
        timed = _phase(loop, seconds / 2)
    else:
        timed = _phase(loop, seconds)
    gate_ok, gate_detail = wl.gate(loop.outputs)
    loop.replay()
    result = dict(timed=timed, gate_ok=gate_ok, gate=gate_detail,
                  attempted=loop.attempted, failed=len(loop.failures),
                  failures=loop.failures[:10],
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.overhead_frac"] = (
            1.0 - timed["draws_per_s"] / untraced["draws_per_s"])
        expected = sum(count * cost_rv(*cell)
                       for cell, count in tracer.evaluate_cells.items())
        result.update(untraced=untraced, layers=layers, absent=tracer.absent,
                      words_expected=expected,
                      words_ok=layers["sampler.words"] == expected)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = make_workload(args.workload, args.seed, args.toy)
    if tracer:
        tracer.uninstall()
    loop = Loop(wl)
    loop.one()  # warm-up op
    result = dict(setup_s=time.monotonic() - args.t0, cell=wl.cell(),
                  mlpicard_file=mlpicard.__file__,
                  versions=dict(numpy=np.__version__,
                                scipy=scipy.__version__))
    if args.mode == "run":
        result.update(measure(loop, args.seconds, tracer))
        if tracer and args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
