"""Source hygiene over ``src/``, with the stdlib ``ast`` only.

* Every name a module imports is used in it: as a name, inside a string
  annotation, or in ``__all__`` (a re-export).
* Every function or method defined in ``src/`` is named somewhere besides its
  own ``def`` in ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``.
  Dunder methods are exempt: the language calls them.
* No module under ``src/repro/runtime/`` imports ``re``: the runtime routes by
  the islands' parses, never by the query text.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier ``tree`` uses, including those in string constants
    that parse as expressions (string annotations, ``__all__`` entries)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def test_no_unused_imports():
    unused = []
    for path, tree in SOURCES.items():
        used = _names(tree)
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    if (alias.asname or alias.name).split(".")[0] not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_function_is_named_somewhere_else():
    corpus = Counter()
    for folder in ("src", "tests", "examples", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            corpus.update(re.findall(r"\w+", path.read_text()))
    defs = [(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
            for path, tree in SOURCES.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defined = Counter(name for name, _ in defs)
    unnamed = sorted(f"{where} {name}" for name, where in defs
                     if not (name.startswith("__") and name.endswith("__"))
                     and corpus[name] <= defined[name])
    assert not unnamed, "functions nothing names:\n" + "\n".join(unnamed)


def test_the_runtime_does_not_read_query_text():
    """The runtime routes, journals and fails over by the statement its
    island parsed, and the planner finds and renames WITH bindings on that
    parse: neither matches patterns in the query text."""
    planner = ROOT / "src" / "repro" / "core" / "query" / "planner.py"
    importers = []
    for path, tree in SOURCES.items():
        if (ROOT / "src" / "repro" / "runtime") not in path.parents and path != planner:
            continue
        for node in ast.walk(tree):
            modules = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if "re" in modules:
                importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not importers, "runtime or planner modules importing re:\n" + "\n".join(importers)
