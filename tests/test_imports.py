"""Import hygiene: every name a module imports is used in that module, and
importing the package leaves the cross-checks in ``verify`` unloaded.

Read with the standard library's ast only. ``__init__.py`` is exempt: it
imports names to re-export them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ulmkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    nodes = list(ast.walk(ast.parse(source)))
    imported: dict[str, int] = {}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    # quoted annotations such as "GroupTree" name their types too
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, ast.FunctionDef)]
    for a in filter(None, annotations):
        for n in ast.walk(a):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]
    assert unused_imports('from a import T\nx: "T" = 1\n') == []
    assert unused_imports('from a import T\ndef f() -> list["T"]: pass\n') == []
    assert unused_imports('from a import T\n"T"\n') == ["T (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_import_skips_verify():
    # verify.py holds the exhaustive cross-checks; only `ulmkit check` and
    # the tests need them, so a CLI process or a plain import does not
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, ulmkit; print(sorted(m for m in sys.modules if m.startswith('ulmkit')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    loaded = done.stdout.decode()
    assert "'ulmkit.pgroup'" in loaded
    assert "'ulmkit.verify'" not in loaded
