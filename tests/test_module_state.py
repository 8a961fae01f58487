"""Module state: no module binds a module-level name to an empty mutable
container, the usual start of a cache that outlives what it describes.
Memos live on the immutable object they describe and die with it.

Read with the standard library's ast only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ulmkit"
MODULES = sorted(SRC.glob("*.py"))


def _empty_container(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        if name in ("dict", "list", "set"):
            return not (node.args or node.keywords)
        return name.endswith("Dictionary") or name == "defaultdict"
    return False


def module_caches(source: str) -> list[str]:
    """Module-level names bound to an empty dict, list, set, defaultdict or
    weakref dictionary, outside function and class bodies."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{ast.unparse(t)} (line {node.lineno})" for t in targets]
            continue
        todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    return found


def test_checker_finds_module_level_caches():
    source = (
        "import weakref\n"
        "_embed_cache: dict = {}\n"
        "_invariants_memo = weakref.WeakKeyDictionary()\n"
        "a = b = set()\n"
        "if True:\n"
        "    seen = []\n"
        "TABLE = {'any': (0, 1)}\n"
        "ZERO = dict(n=0)\n"
        "def f():\n"
        "    memo = {}\n"
        "class C:\n"
        "    memo = {}\n"
    )
    assert module_caches(source) == [
        "_embed_cache (line 2)",
        "_invariants_memo (line 3)",
        "a (line 4)",
        "b (line 4)",
        "seen (line 6)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert module_caches(path.read_text(encoding="utf-8")) == []
