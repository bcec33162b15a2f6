"""Benchmark of the mlpicard solver: one workload, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload point-deep --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every layer wrapped in spans and prints the per-layer
metrics.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its full result, with the environment it ran in, under
``.bench_out/``.  See ``bench/NOTES.md`` for the workloads and metrics.

Set-up time is measured from process start to the first timed op, over
SETUP_SAMPLES fresh processes, and reported as their median.  This script
uses only the standard library; the measured work happens in
``bench/worker.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# point-wide runs by hand only; BENCHMARK.json leaves it out (see NOTES.md).
WORKLOADS = ("point-deep", "point-wide", "table-shallow")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BUDGET_VAR = "MLPICARD_COST_BUDGET"

END_TO_END = (
    ("setup_s", "s"),
    ("estimates_per_s", "1/s"),
    ("draws_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_frac", "frac"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(versions: dict) -> dict:
    """Machine facts, read without changing anything, plus the library
    versions the worker imported."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if Path(base).exists() else ():
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    return dict(nproc=_nproc(), cpu_count=os.cpu_count(), cpu_model=model,
                caches=caches, python=platform.python_version(), **versions)


def child_env() -> tuple[dict, dict]:
    """Environment for workers: source tree first on the path, the cost
    budget unset, BLAS thread counts at most nproc.  Returns the environment
    and the settings to record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = _nproc()
    budget = env.pop(BUDGET_VAR, None)
    record = {BUDGET_VAR: "unset" if budget is None
              else f"unset (was {budget!r})"}
    for var in BLAS_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            env[var] = str(nproc)
        record[var] = env[var]
    return env, record


def worker(args, mode: str, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--t0", repr(time.monotonic())]
    if args.toy:
        cmd.append("--toy")
    if args.trace and mode == "run":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-"
                                     f"seed{args.seed}.npz")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s "
                         "deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    result = json.loads(lines[-1])
    origin = Path(result["mlpicard_file"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"mlpicard was imported from {origin}, not {SRC}")
    return result


def end_to_end(setups: list[float], run: dict) -> dict:
    timed = run["timed"]
    return {
        "setup_s": statistics.median(setups),
        "estimates_per_s": timed["estimates_per_s"],
        "draws_per_s": timed["draws_per_s"],
        "op_s_p50": timed["op_s_p50"],
        "op_s_tail": timed["op_s_tail"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_failed_frac": run["failed"] / run["attempted"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny problem sizes, for the smoke test only")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "mlpicard" / "__init__.py").is_file():
        print(f"bench: no mlpicard source under {SRC}", file=sys.stderr)
        return 2
    env, settings = child_env()
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(worker(args, "setup", env, deadline)["setup_s"])
        run = worker(args, "run", env, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    correct = (run["failed"] == 0 and run["gate_ok"]
               and run.get("words_ok", True))
    timed = run["timed"]
    report = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, toy=args.toy,
                  cell=run["cell"], environment=environment(run["versions"]),
                  settings=settings, correct=correct, gate=run["gate"],
                  failures=run["failures"], setups_s=setups, timed=timed)
    lines = [f"workload {args.workload} seed {args.seed} cell {run['cell']}",
             f"gate: {run['gate']}"]
    if args.trace:
        layers = run["layers"]
        report.update(layers=layers, absent=run["absent"],
                      untraced=run["untraced"],
                      words_expected=run["words_expected"])
        lines.append(f"trace: sampler.words {layers['sampler.words']} == "
                     f"sum cost_rv {run['words_expected']}: "
                     f"{run['words_ok']}; absent names: {run['absent']}")
        lines += [f"  {name:34s} {value!r}" for name, value in layers.items()]
        metrics = json_metrics("per_layer", layers)
    else:
        e2e = end_to_end(setups, run)
        report["metrics"] = e2e
        for name, unit in END_TO_END:
            line = f"  {name:16s} {e2e[name]!r} {unit}"
            if name == "setup_s":
                line += f" (median of {len(setups)} set-ups)"
            elif name == "op_s_tail":
                line += (f" (p{timed['tail_pct']:.1f} of {timed['samples']}"
                         f" ops, {timed['tail_beyond']} beyond)")
            elif name == "ops_failed_frac":
                line += f" ({run['failed']} of {run['attempted']} ops)"
            lines.append(line)
        metrics = json_metrics("end_to_end", e2e)
    lines.append(f"environment: {report['environment']} {settings}")
    for failure in run["failures"]:
        lines.append(f"failed op {failure[0]}: {failure[1]}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(dict(correct=correct, attempted=run["attempted"],
                          failed=run["failed"], metrics=metrics)))
    return 0


def json_metrics(kind: str, values: dict) -> dict:
    """The ``kind`` metrics that BENCHMARK.json names, with their units.

    The report prints more: ``ops_failed_frac``, which the JSON line
    carries as ``failed`` and ``attempted`` because it is 0 on a healthy
    run, and layer times that are 0 on some workload.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: dict(value=values[m["name"]], unit=m["unit"])
            for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
