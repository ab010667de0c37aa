"""No dead names in the package or the cache check.

Every import in ``src/acl_dqn/*.py`` and ``scripts/verify_cache.py`` is
read somewhere in its file, and so is every module-level private name (a
function, class or assigned name starting with one underscore). A name
left behind by a deletion fails here, naming its file and line.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FILES = [*sorted((REPO / "src" / "acl_dqn").glob("*.py")), REPO / "scripts" / "verify_cache.py"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def bindings(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, kind, name) of each import and each module-level private name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((node.lineno, "import", name))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        found += [(node.lineno, "private name", name) for name in names if _private(name)]
    return sorted(found)


def unused(source: str, where: str) -> list[str]:
    """One line per import or module-level private name that the source never reads."""
    tree = ast.parse(source, filename=where)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{where}:{line}: unused {kind} {name!r}"
            for line, kind, name in bindings(tree) if name not in read]


def test_the_scan_names_each_unused_import_and_private_name():
    source = ("import os\nimport sys\nfrom typing import Any as Thing\n\n"
              "_KEPT = 1\n_DEAD, __dunder__ = sys.argv, 2\n\n\n"
              "def _helper() -> Thing:\n    from json import dumps\n    return _KEPT\n")
    assert unused(source, "module.py") == [
        "module.py:1: unused import 'os'",
        "module.py:6: unused private name '_DEAD'",
        "module.py:9: unused private name '_helper'",
        "module.py:10: unused import 'dumps'",
    ]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(REPO)) for p in FILES])
def test_no_unused_import_or_private_name(path):
    assert unused(path.read_text(encoding="utf-8"), str(path.relative_to(REPO))) == []
