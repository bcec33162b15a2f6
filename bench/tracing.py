"""In-process span tracer for the benchmark's traced run.

The tracer replaces module-level names of the ``mlpicard`` package with
wrappers that record one span per call: a span id, the id of the enclosing
wrapped call (its parent), start and end times, and a work count (words,
values or rows).  No source file of the package changes; the originals are
put back by :meth:`Tracer.uninstall`.

Self time of a span is its duration minus the durations of its direct
child spans.  Spans stay in memory and are written once, at exit, by
:meth:`Tracer.write`.  A name that a later refactor removes is listed in
``Tracer.absent`` instead of raising.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

LEVELS = 5


def _block_label(seed, path, suffixes, width, *rest, **kwargs):
    # Terminal blocks use suffixes (0, -i); level-l blocks use (l, i).
    a, b = suffixes[0]
    return "sampler.terminal" if b < 0 else f"sampler.level{a}"


def _block_work(seed, path, suffixes, width, *rest, **kwargs):
    return len(suffixes), len(suffixes) * width


def _ndtri_work(u, *rest, **kwargs):
    return 0, int(np.size(u))


def _g_rows(x, *rest, **kwargs):
    return int(np.shape(x)[0]), 0


def _f_rows(t, x, *rest, **kwargs):
    return int(np.shape(x)[0]), 0


# Span name -> module attributes it replaces, label and work functions.
# Every module that imported a name keeps its own reference, so each one is
# patched with the same wrapper.
TARGETS = (
    ("sampler.block_uniforms", ("mlpicard.sampler.block_uniforms",
                                "mlpicard.engine.block_uniforms"),
     _block_label, _block_work),
    ("engine.ndtri", ("mlpicard.engine.ndtri",), None, _ndtri_work),
    ("engine.evaluate", ("mlpicard.engine.evaluate",
                         "mlpicard.harness.evaluate"), None, None),
    ("engine.replicate", ("mlpicard.engine.replicate",
                          "mlpicard.harness.replicate"), None, None),
    ("engine.rmse", ("mlpicard.engine.rmse", "mlpicard.harness.rmse"),
     None, None),
    ("core.validate_problem", ("mlpicard.core.validate_problem",
                               "mlpicard.engine.validate_problem"),
     None, None),
    ("bounds.cost_rv", ("mlpicard.bounds.cost_rv", "mlpicard.engine.cost_rv",
                        "mlpicard.harness.cost_rv"), None, None),
    ("bounds.error_bound", ("mlpicard.bounds.error_bound",
                            "mlpicard.harness.error_bound"), None, None),
    ("harness.run_convergence", ("mlpicard.harness.run_convergence",),
     None, None),
    ("harness.builtin_case", ("mlpicard.harness.builtin_case",), None, None),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    words: int = 0


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        # (dimension, depth, base) of every traced ``evaluate`` call.
        self.evaluate_cells: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.spans = {
            "id": array("q"), "parent": array("q"), "name": array("i"),
            "start": array("d"), "end": array("d"), "work": array("q"),
        }

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return idx

    def wrap(self, name, fn, label=None, work=None):
        """``fn`` wrapped so that each call records one span."""
        fixed_id = self._name_id(name)
        stack = self._stack
        spans = self.spans
        stats = self.stats
        names = self.names
        cells = self.evaluate_cells if name == "engine.evaluate" else None

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                name_id = (self._name_id(label(*args, **kwargs))
                           if label else fixed_id)
                stat = stats[names[name_id]]
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                rows, words = work(*args, **kwargs) if work else (0, 0)
                stat.rows += rows
                stat.words += words
                if cells is not None:
                    problem, config = args[0], args[1]
                    cells[(problem.dimension, config.depth, config.base)] += 1
                spans["id"].append(sid)
                spans["parent"].append(parent)
                spans["name"].append(name_id)
                spans["start"].append(start)
                spans["end"].append(end)
                spans["work"].append(words or rows)

        traced.__wrapped__ = fn
        return traced

    def wrap_problem(self, problem):
        """``problem`` with its g and f callbacks traced."""
        return replace(
            problem,
            terminal_data=self.wrap("harness.g", problem.terminal_data,
                                    work=_g_rows),
            nonlinearity=self.wrap("harness.f", problem.nonlinearity,
                                   work=_f_rows),
        )

    def install(self) -> None:
        """Replace every target name that exists; list the rest as absent."""
        for name, attrs, label, work in TARGETS:
            wrappers: dict[int, object] = {}
            for dotted in attrs:
                module_name, _, attr = dotted.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    if dotted not in self.absent:
                        self.absent.append(dotted)
                    continue
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self.wrap(
                        name, original, label, work)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every replaced name back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write the recorded spans as arrays to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 **{k: np.asarray(v) for k, v in self.spans.items()})

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the aggregated spans."""
        def get(name):
            return self.stats.get(name, Stat())

        blocks = [v for k, v in self.stats.items() if k.startswith("sampler.")]
        calls = sum(s.calls for s in blocks)
        rows = sum(s.rows for s in blocks)
        words = sum(s.words for s in blocks)
        terminal = get("sampler.terminal")
        ndtri, evaluate = get("engine.ndtri"), get("engine.evaluate")
        g, f = get("harness.g"), get("harness.f")
        out = {
            "sampler.block_uniforms.calls": calls,
            "sampler.block_uniforms.self_s": sum(s.self_s for s in blocks),
            "sampler.rows_per_call": rows / calls if calls else 0.0,
            "sampler.words": words,
            "sampler.bytes_computed": 8 * words,
        }
        for lvl in [f"level{i}" for i in range(LEVELS)] + ["terminal"]:
            stat = get(f"sampler.{lvl}")
            out[f"sampler.{lvl}.draws"] = stat.words
            out[f"sampler.{lvl}.self_s"] = stat.self_s
        out.update({
            "engine.ndtri.calls": ndtri.calls,
            "engine.ndtri.values": ndtri.words,
            "engine.ndtri.self_s": ndtri.self_s,
            "engine.evaluate.calls": evaluate.calls,
            "engine.self_s": evaluate.self_s,
            "engine.nodes": terminal.calls,
            "engine.draws_per_node":
                words / terminal.calls if terminal.calls else 0.0,
            "harness.g.calls": g.calls,
            "harness.g.rows": g.rows,
            "harness.g.self_s": g.self_s,
            "harness.f.calls": f.calls,
            "harness.f.rows": f.rows,
            "harness.f.self_s": f.self_s,
            "harness.rows_per_callback":
                (g.rows + f.rows) / (g.calls + f.calls)
                if g.calls + f.calls else 0.0,
            "core.validate_problem.calls": get("core.validate_problem").calls,
            "core.validate_problem.self_s": get("core.validate_problem").self_s,
            "bounds.cost_rv.calls": get("bounds.cost_rv").calls,
            "bounds.cost_rv.self_s": get("bounds.cost_rv").self_s,
            "engine.replicate.calls": get("engine.replicate").calls,
            "engine.replicate.s": get("engine.replicate").total_s,
            "engine.rmse.self_s": get("engine.rmse").self_s,
            "bounds.error_bound.self_s": get("bounds.error_bound").self_s,
            "harness.run_convergence.calls":
                get("harness.run_convergence").calls,
            "harness.run_convergence.s": get("harness.run_convergence").total_s,
            "harness.builtin_case.s": get("harness.builtin_case").total_s,
        })
        return out
