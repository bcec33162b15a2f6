"""Source hygiene: no module imports a name it never uses.

No linter is configured for the project, so this scans the package and the
test modules with the standard library's ``ast``.  ``from __future__``
imports and names re-exported through ``__all__`` are exempt.
"""

import ast
from pathlib import Path

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
