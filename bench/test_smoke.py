"""Smoke test of the benchmark itself, at toy problem sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from mlpicard import engine  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Layers printed by a traced run beyond the JSON line's per-layer metrics:
# they are zero on some workloads, so the JSON line leaves them out.
REPORT_ONLY = ("sampler.level3.self_s", "sampler.level4.self_s",
               "engine.replicate.s", "harness.run_convergence.s")


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    plain = _bench(workload, 0)
    assert plain.returncode == 0, plain.stderr
    lines = plain.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    for name, unit in run.END_TO_END:
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines), name

    traced = _bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    lines = traced.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(REPORT_ONLY) <= printed
    assert any("sampler.words" in line and ": True;" in line
               for line in lines)


def test_nan_callback_counts_as_failed_op():
    wl = worker.make_workload("point-deep", seed=3, toy=True)
    problem = wl.case.problem
    g = problem.terminal_data
    wl.case = replace(wl.case, problem=replace(
        problem, terminal_data=lambda x: g(x) * np.nan))
    loop = worker.Loop(wl)
    loop.one()
    result = worker.measure(loop, 0.2)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert "non-finite" in result["failures"][0][1]
    assert run.end_to_end([1.0], result)["ops_failed_frac"] == 1.0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("point-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_removed_name_reported_absent(monkeypatch):
    monkeypatch.delattr(engine, "ndtri")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["mlpicard.engine.ndtri"]
    assert tracer.metrics()["engine.ndtri.calls"] == 0
