"""Source hygiene: no module imports a name it never uses, no private
helper or method of the package is left without a caller outside the
tests, no public function keeps a defaulted parameter that only the tests
set or that every call sets to its default, no function leaves a
parameter unread, the solver reads every field of ``PdeProblem``, no
subcommand leaves a flag unread, and the public surface is the one the
README documents.

No linter is configured for the project, so this scans the package and the
test modules with the standard library's ``ast``.  ``from __future__``
imports and names re-exported through ``__all__`` are exempt.
"""

import argparse
import ast
import importlib
import importlib.util
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import mlpicard
from mlpicard import (
    MlpConfig,
    builtin_case,
    cli,
    cost_rv,
    engine,
    harness,
    to_canonical,
)

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mlpicard").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` and never read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Sequence\n"
              "from json import dumps as to_json, loads\n"
              "__all__ = ['loads']\n"
              "def f(x: Sequence) -> str:\n    return to_json(os.sep)\n")
    assert unused_imports(source) == ["math (line 2)"]


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused
             for path in SOURCES
             if (unused := unused_imports(path.read_text()))}
    assert found == {}


def _ref_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    return Counter(getattr(ref, "id", None) or getattr(ref, "attr", None)
                   or ref.name for ref in ast.walk(tree)
                   if isinstance(ref, (ast.Name, ast.Attribute, ast.alias)))


def dead_helpers(package: dict[str, str],
                 readers: dict[str, str] | None = None) -> list[str]:
    """Module-level private functions and classes of ``package`` (module
    name -> source), and the methods and properties of its module-level
    classes (dunders exempt), that no code in ``package`` or ``readers``
    references outside the definition itself.  Tests are not readers: a
    method that only a test calls counts as dead."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    refs = sum((_ref_names(tree) for tree in trees.values()), Counter())
    refs += sum((_ref_names(ast.parse(source))
                 for source in (readers or {}).values()), Counter())

    def unread(node: ast.AST) -> bool:
        return refs[node.name] == _ref_names(node)[node.name]

    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (node.name.startswith("_") and not node.name.startswith("__")
                    and unread(node)):
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead.extend(
                    f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))
                    and unread(item))
    return dead


def test_dead_helper_scanner_flags_only_uncalled_helpers():
    sources = {"a": ("def _used(n):\n    return _used(n - 1) if n else 0\n"
                     "def _self_only(n):\n    return _self_only(n - 1)\n"
                     "class _Unused:\n    pass\n"
                     "def __getattr__(name):\n    return name\n"
                     "class Kept:\n"
                     "    def __repr__(self):\n        return 'k'\n"
                     "    def used(self):\n        return self.shown\n"
                     "    @property\n    def shown(self):\n        return 1\n"
                     "    def for_bench(self):\n        return 2\n"
                     "    def for_tests(self):\n        return 3\n"),
               "b": "from a import _used, Kept\nKept().used()\n"}
    # A test calling Kept().for_tests() is not passed: only src/ and bench/
    # keep a method alive.
    bench = {"worker": "import a\na.Kept().for_bench()\n"}
    assert dead_helpers(sources, bench) == [
        "a._self_only", "a._Unused", "a.Kept.for_tests"]
    assert dead_helpers(sources)[-2:] == ["a.Kept.for_bench",
                                          "a.Kept.for_tests"]


def test_no_dead_private_helpers():
    package = ROOT / "src" / "mlpicard"
    bench = ROOT / "bench"
    assert dead_helpers(
        {path.stem: path.read_text() for path in package.glob("*.py")},
        {path.stem: path.read_text() for path in bench.glob("*.py")}) == []


def _default_passes(package: dict[str, str],
                    callers: dict[str, str] | None) -> dict:
    """``module.function(name=)`` -> (default, arguments) for each
    defaulted parameter of the module-level public functions of
    ``package`` (module name -> source): the argument of each call in
    ``package`` or ``callers`` that passes it, by position or by keyword,
    and ``...`` for a ``*args`` or ``**kwargs`` argument that could reach
    it.  A call names a function directly, through an import alias or as
    an attribute."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    params = {}  # (function, parameter) -> (module, position, default)
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(
                    zip(positional[first:], args.defaults), first):
                params[node.name, arg.arg] = (module, i, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    params[node.name, arg.arg] = (module, None, default)
    passed = {key: [] for key in params}
    for tree in [*trees.values(), *map(ast.parse, (callers or {}).values())]:
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (aliases.get(func.id, func.id) if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            keywords = {keyword.arg: keyword.value
                        for keyword in call.keywords}
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            for (function, param), (_, position, _) in params.items():
                if function != name:
                    continue
                if param in keywords:
                    passed[function, param].append(keywords[param])
                elif position is not None and position < len(call.args) \
                        and not starred:
                    passed[function, param].append(call.args[position])
                elif None in keywords or position is not None and starred:
                    passed[function, param].append(...)
    return {f"{module}.{function}({param}=)": (default, passed[function, param])
            for (function, param), (module, _, default) in params.items()}


def unpassed_defaults(package: dict[str, str],
                      callers: dict[str, str] | None = None) -> list[str]:
    """Defaulted parameters of the module-level public functions of
    ``package`` (module name -> source) that no call in ``package`` or
    ``callers`` passes, as ``module.function(name=)``.  Tests are not
    callers: a parameter only a test sets counts as unused."""
    return sorted(name for name, (_, args)
                  in _default_passes(package, callers).items() if not args)


def default_literal_passes(package: dict[str, str],
                           callers: dict[str, str] | None = None
                           ) -> list[str]:
    """Defaulted parameters of the module-level public functions of
    ``package`` that some call in ``package`` or ``callers`` passes, and
    every such call with the default's own literal (``0.0`` is not ``0``),
    as ``module.function(name=)``: the parameter never takes another
    value.  An argument that is not a literal, or a ``*args`` or
    ``**kwargs`` one that could reach the parameter, keeps it."""
    def literal(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return ...
        return type(value), value

    return sorted(name for name, (default, args)
                  in _default_passes(package, callers).items()
                  if args and all(literal(arg) == literal(default) != ...
                                  for arg in args))


def test_unpassed_default_scanner_flags_only_unset_parameters():
    sources = {"a": ("def solve(x, tol=1e-6, *, steps=10, log=None):\n"
                     "    return x\n"
                     "def scale(x, by=2):\n    return x * by\n"
                     "def _private(x, unused=0):\n    return x\n"
                     "def spread(x, a=0, b=0, c=0):\n    return x\n"),
               "b": ("from a import solve as run, spread\n"
                     "run(1, 1e-3)\nspread(*[1, 2])\nspread(1, **{})\n")}
    # No call passes scale's `by` or solve's `log`; only bench/ passes
    # solve's `steps`.
    bench = {"worker": "import a\na.solve(1, steps=5)\n"}
    assert unpassed_defaults(sources, bench) == [
        "a.scale(by=)", "a.solve(log=)"]
    assert unpassed_defaults(sources)[-1] == "a.solve(steps=)"


def test_no_parameter_only_tests_set():
    package = ROOT / "src" / "mlpicard"
    bench = ROOT / "bench"
    unpassed = unpassed_defaults(
        {path.stem: path.read_text() for path in package.glob("*.py")},
        {path.stem: path.read_text() for path in bench.glob("*.py")})
    # The console script calls main() bare, to parse sys.argv; argv is
    # for callers that parse a list of their own.
    assert [name for name in unpassed if name != "cli.main(argv=)"] == []


def test_default_literal_scanner_flags_only_parameters_fixed_at_default():
    sources = {"a": ("def solve(x, t=0.0, tol=1e-6, *, steps=10, log=None):\n"
                     "    return x\n"
                     "def scale(x, by=2):\n    return x * by\n"
                     "def shift(x, by=-1):\n    return x + by\n"
                     "def spread(x, a=0, b=0):\n    return x\n"
                     "def _private(x, unused=0):\n    return x\n"),
               "b": ("from a import solve as run, scale, shift, spread\n"
                     "run(1, 0.0, steps=10)\nrun(2, t=0.0, tol=1e-3)\n"
                     "scale(1, 2)\nscale(1, by=2.0)\nshift(1, -1)\n"
                     "spread(1, *[2])\nspread(1, a=0)\n_private(1, 0)\n")}
    # t is 0.0 and steps 10 at every call that passes them; 2.0 is not
    # the literal 2; *[2] could reach a and b; no call passes log, which
    # unpassed_defaults reports.  Only bench/ passes t another value.
    bench = {"worker": "import a\na.solve(1, t=0.5)\n"}
    assert default_literal_passes(sources, bench) == [
        "a.shift(by=)", "a.solve(steps=)"]
    assert default_literal_passes(sources) == [
        "a.shift(by=)", "a.solve(steps=)", "a.solve(t=)"]


def test_no_parameter_fixed_at_its_default():
    package = ROOT / "src" / "mlpicard"
    bench = ROOT / "bench"
    assert default_literal_passes(
        {path.stem: path.read_text() for path in package.glob("*.py")},
        {path.stem: path.read_text() for path in bench.glob("*.py")}) == []


def unused_parameters(package: dict[str, str]) -> list[str]:
    """Parameters of the module-level functions and methods of ``package``
    (module name -> source) that their body never reads, nested functions
    included.  Nested functions are not scanned themselves, since
    ``PdeProblem`` fixes the signatures of the g, f and exact callbacks, and
    neither are the CLI's ``_cmd_*`` handlers, whose call ``args.fn(args)``
    fixes theirs."""
    unused = []
    for module, source in package.items():
        for top in ast.parse(source).body:
            owner, functions = ((f"{top.name}.", top.body)
                                if isinstance(top, ast.ClassDef)
                                else ("", [top]))
            for node in functions:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_cmd_")):
                    continue
                args = node.args
                params = [arg.arg for arg in (
                    *args.posonlyargs, *args.args, args.vararg,
                    *args.kwonlyargs, args.kwarg) if arg is not None]
                read = {ref.id for ref in ast.walk(node)
                        if isinstance(ref, ast.Name)
                        and isinstance(ref.ctx, ast.Load)}
                unused.extend(f"{module}.{owner}{node.name}({param})"
                              for param in params if param not in read)
    return unused


def test_unused_parameter_scanner_flags_only_unread_parameters():
    source = ("def scale(x, by, *rest, **opts):\n"
              "    by = 2\n    return x * len(opts)\n"
              "def outer(n, m):\n"
              "    def inner(t, y):\n        return n * y\n"
              "    return inner\n"
              "def _cmd_run(args):\n    return 0\n"
              "class Box:\n"
              "    def put(self, item):\n        return self\n")
    # Assigning by is not reading it; inner's unread t is a fixed callback
    # signature; outer's n is read inside inner.
    assert unused_parameters({"a": source}) == [
        "a.scale(by)", "a.scale(rest)", "a.outer(m)", "a.Box.put(item)"]


def test_every_parameter_is_read():
    package = ROOT / "src" / "mlpicard"
    assert unused_parameters(
        {path.stem: path.read_text() for path in package.glob("*.py")}) == []


def unread_fields(source: str, name: str, reader: str) -> list[str]:
    """Fields of the class ``name`` of ``source`` that ``reader`` never
    reads as an attribute."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    read = {ref.attr for ref in ast.walk(ast.parse(reader))
            if isinstance(ref, ast.Attribute)
            and isinstance(ref.ctx, ast.Load)}
    return [item.target.id for item in cls.body
            if isinstance(item, ast.AnnAssign) and item.target.id not in read]


def test_unread_field_scanner_flags_only_unread_fields():
    source = ("class Problem:\n    size: int\n    rate: float\n"
              "    tag: str = ''\n    def scaled(self):\n"
              "        return self.tag\n")
    # Storing p.rate is not reading it, and the class's own methods are
    # not the reader.
    reader = "def run(p):\n    p.rate = 2.0\n    return p.size\n"
    assert unread_fields(source, "Problem", reader) == ["rate", "tag"]


def test_solver_reads_every_problem_field():
    # Data the solver never reads, such as constants only an error
    # analysis needs, belongs beside the bounds (RegularityData), not on
    # the problem every estimate takes.
    package = ROOT / "src" / "mlpicard"
    assert unread_fields((package / "core.py").read_text(), "PdeProblem",
                         (package / "engine.py").read_text()) == []


def unread_flags(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """``subcommand --flag`` for each flag of a subcommand of ``parser``
    whose handler, the subcommand's ``fn`` default and a function of
    ``source``, never reads it as ``args.<dest>``: not in its own body and
    not in a function of ``source`` that it hands ``args`` to."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name: str, position: int) -> set[str]:
        node = functions[name]
        param = node.args.args[position].arg
        read = set()
        for ref in ast.walk(node):
            if (isinstance(ref, ast.Attribute)
                    and isinstance(ref.value, ast.Name)
                    and ref.value.id == param):
                read.add(ref.attr)
            elif (isinstance(ref, ast.Call) and isinstance(ref.func, ast.Name)
                  and ref.func.id in functions and ref.func.id != name):
                read.update(*(reads(ref.func.id, i)
                              for i, arg in enumerate(ref.args)
                              if isinstance(arg, ast.Name)
                              and arg.id == param))
        return read

    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, sub in commands.items():
        read = reads(sub.get_default("fn").__name__, 0)
        unread.extend(f"{command} {action.option_strings[0]}"
                      for action in sub._actions
                      if action.option_strings and action.dest != "help"
                      and action.dest not in read)
    return unread


def test_unread_flag_scanner_flags_only_unread_flags():
    source = ("import argparse\n"
              "def _load(args):\n    return args.name\n"
              "def _cmd_run(args):\n    return _load(args) + args.size\n"
              "def _cmd_idle(args):\n    return 0\n"
              "def build():\n"
              "    p = argparse.ArgumentParser()\n"
              "    sub = p.add_subparsers()\n"
              "    run = sub.add_parser('run')\n"
              "    for flag in ('--name', '--size', '--seed'):\n"
              "        run.add_argument(flag)\n"
              "    run.set_defaults(fn=_cmd_run)\n"
              "    idle = sub.add_parser('idle')\n"
              "    idle.add_argument('--seed')\n"
              "    idle.set_defaults(fn=_cmd_idle)\n"
              "    return p\n")
    namespace = {}
    exec(source, namespace)
    assert unread_flags(namespace["build"](), source) == [
        "run --seed", "idle --seed"]


def test_every_flag_is_read_by_its_handler():
    source = (ROOT / "src" / "mlpicard" / "cli.py").read_text()
    assert unread_flags(cli._build_parser(), source) == []


# The README's functions for library use, and the classes and exceptions
# they take, return or raise (README, "Public interface").
PUBLIC = sorted([
    "evaluate", "replicate", "rmse", "combined_error_ucl", "cost_rv",
    "cost_bound_closed", "error_bound", "schedule", "to_canonical",
    "audit_lipschitz", "stream_uniforms", "builtin_case", "run_convergence",
    "write_csv",
    "PdeProblem", "MlpConfig", "Convention", "FieldEstimate", "RmseReport",
    "TimeMap", "ErrorBoundInput", "RegularityData", "BenchmarkCase",
    "ConvergenceRow",
    "InvalidProblem", "Violation", "InvalidConvention", "QueryAtTerminalTime",
    "DepthCostGuard", "CallbackContractError", "EmptySample", "Overflow",
    "AdmissibilityViolated", "NoFeasibleDepth", "HypothesisViolated",
    "UnknownCase",
])


def test_top_level_exports_the_documented_interface():
    assert sorted(mlpicard.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(mlpicard, name)] == []
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Public interface", 1)[1].split("\n## ", 1)[0]
    assert [name for name in PUBLIC if f"`{name}`" not in section] == []


def test_readme_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and node.module.partition(".")[0] == "mlpicard"]
    assert imports
    missing = [f"{node.module}.{alias.name}"
               for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_readme_command_lines_parse(tmp_path, monkeypatch, capsys):
    # Every mlpicard command line of the README's Command line section, in
    # its shell block or in prose, parses without running, so the docs name
    # no flag the parser lacks.  Its @file example reads the file written
    # from the section's plain block.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = dict(re.findall(r"^```(\w*)\n(.*?)^```", section,
                             flags=re.M | re.S))
    lines = [line for line in blocks["sh"].replace("\\\n", " ").splitlines()
             if line.startswith("mlpicard ")]
    lines += re.findall(r"`(mlpicard [^`]*)`", section)
    (tmp_path / "case.args").write_text(blocks[""])
    monkeypatch.chdir(tmp_path)
    parser = cli._build_parser()
    failed, parsed = [], {}
    for line in lines:
        try:
            parsed[line] = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            failed.append((line, capsys.readouterr().err))
    assert failed == []
    from_file = [args for line, args in parsed.items() if "@case.args" in line]
    assert len(lines) >= 9 and from_file
    assert all(args.case == "grad-dependent-sine" and args.d == 8
               for args in from_file)


def test_traced_names_exist(monkeypatch):
    # The benchmark's tracer patches these attributes; a missing one would
    # make a traced run report it absent and lose its spans.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    absent = []
    for _, attrs, _, _ in tracing.TARGETS:
        for dotted in attrs:
            module, _, attr = dotted.rpartition(".")
            if not hasattr(importlib.import_module(module), attr):
                absent.append(dotted)
    assert absent == []


def test_benchmark_reads_resolve():
    # The benchmark reads package names that the tracer does not patch,
    # such as harness.BUILTIN_CASES; a move that dropped one would stop it
    # at start.  Every name bench/worker.py and bench/test_smoke.py import
    # from the package, and every attribute they read of a package module,
    # must resolve.
    absent = []
    for script in ("worker.py", "test_smoke.py"):
        tree = ast.parse((ROOT / "bench" / script).read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name)
                               for alias in node.names
                               if alias.name.partition(".")[0] == "mlpicard")
            elif (isinstance(node, ast.ImportFrom)
                  and node.module.partition(".")[0] == "mlpicard"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(module, alias.name, None)
                    if value is None:
                        absent.append(f"{node.module}.{alias.name}")
                    elif isinstance(value, type(module)):
                        modules[alias.asname or alias.name] = value.__name__
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = importlib.import_module(modules[node.value.id])
                if not hasattr(module, node.attr):
                    absent.append(f"{module.__name__}.{node.attr}")
    assert absent == []


def test_traced_draws_equal_cost_of_traced_evaluates(monkeypatch):
    # The benchmark's traced check: the draws of a traced run equal
    # cost_rv summed over its engine.evaluate calls.  A path that draws
    # without evaluate, such as a batched replicate, fails it.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    problem = to_canonical(builtin_case("grad-dependent-sine",
                                        dimension=2).problem)[0]
    config = MlpConfig(depth=5, base=5)
    assert cost_rv(2, 5, 5) >= engine.FANOUT_MIN_DRAWS
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_convergence(builtin_case("forward-heat", dimension=2),
                                [(2, 2)], replications=5)
        # Through the module attribute, which the tracer patches.
        engine.evaluate(problem, config, 0.0, np.zeros(2))
    finally:
        tracer.uninstall()
    assert tracer.evaluate_cells == {(2, 2, 2): 5, (2, 5, 5): 1}
    expected = sum(count * cost_rv(*cell)
                   for cell, count in tracer.evaluate_cells.items())
    assert tracer.metrics()["sampler.words"] == expected
