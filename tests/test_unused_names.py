"""No dead names in the package or the cache check.

Every import in ``src/acl_dqn/*.py`` and ``scripts/verify_cache.py`` is
read somewhere in its file, and so is every module-level private name (a
function, class or assigned name starting with one underscore). Every
public name of the package, a module-level function, class or assigned
name or a class's method, is read by the package, ``scripts/verify_cache.py``
or ``perfbench/*.py``: code that only tests read does not belong in the
package. A string constant equal to the name counts as a read, since
perfbench patches attributes by name. A name left behind by a deletion
fails here, naming its file and line. No package module reads another
package module's private name: a name that crosses modules is public.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = sorted((REPO / "src" / "acl_dqn").glob("*.py"))
FILES = [*PACKAGE, REPO / "scripts" / "verify_cache.py"]
READERS = [*FILES, *sorted((REPO / "perfbench").glob("*.py"))]


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


def public_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each public module-level function, class and assigned
    name, and of each public method, as ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return sorted((line, name) for line, name in found
                  if not name.rpartition(".")[2].startswith("_"))


def reads(tree: ast.Module) -> set[str]:
    """The names a tree reads: loaded names and attributes, imported names
    and string constants."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread(modules: dict[str, str], readers: list[str]) -> list[str]:
    """One line per public name of the modules (where -> source) that no reader source reads."""
    read = set().union(*(reads(ast.parse(source)) for source in readers))
    return [f"{where}:{line}: public name {name!r} is read only by tests"
            for where, source in modules.items()
            for line, name in public_names(ast.parse(source, filename=where))
            if name.rpartition(".")[2] not in read]


def test_the_scan_names_each_public_name_no_reader_reads():
    module = ("import numpy as np\n\nLIMIT = 3\nDEAD: int = 4\n\n\n"
              "def used():\n    return LIMIT\n\n\n"
              "def dead():\n    return np.zeros(LIMIT)\n\n\n"
              "class Net:\n    def forward(self):\n        return used()\n\n"
              "    def only_tested(self):\n        return self._helper()\n\n"
              "    def _helper(self):\n        return 1\n\n"
              "    def patched(self):\n        return 2\n")
    reader = "from module import Net\n\nNet().forward()\nsetattr(Net, 'patched', None)\n"
    assert unread({"module.py": module}, [module, reader]) == [
        "module.py:4: public name 'DEAD' is read only by tests",
        "module.py:11: public name 'dead' is read only by tests",
        "module.py:19: public name 'Net.only_tested' is read only by tests",
    ]


def test_every_public_name_is_read_outside_the_tests():
    assert unread({str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
                   for path in PACKAGE},
                  [path.read_text(encoding="utf-8") for path in READERS]) == []



def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from`` import takes its names from: "" for the
    package itself, None for anything outside the package."""
    if node.level:
        return node.module or ""
    if node.module and (node.module + ".").startswith("acl_dqn."):
        return node.module.removeprefix("acl_dqn").lstrip(".")
    return None


def foreign_private_reads(source: str, where: str) -> list[str]:
    """One line per read of another package module's private name, as
    ``module._name`` or ``from .module import _name``."""
    tree = ast.parse(source, filename=where)
    imports = [(node, _source_module(node)) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    modules = {alias.asname or alias.name for node, module in imports if module == ""
               for alias in node.names}
    found = [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and _private(node.attr)]
    found += [(node.lineno, f"{module}.{alias.name}") for node, module in imports if module
              for alias in node.names if _private(alias.name)]
    return [f"{where}:{line}: reads private name {name!r}" for line, name in sorted(found)]


def test_the_scan_names_each_read_of_another_modules_private_name():
    source = ("import os\nfrom . import orchestrator, domain as d\n"
              "from .replay import _ring_array, ReplayBuffer\n"
              "from acl_dqn.neural import _td_targets\nfrom json import _default_decoder\n\n"
              "orchestrator._write_csv(d.TIERS, os._exit, ReplayBuffer._fields)\n"
              "d._read_records(orchestrator.write_csv)\n")
    assert foreign_private_reads(source, "module.py") == [
        "module.py:3: reads private name 'replay._ring_array'",
        "module.py:4: reads private name 'neural._td_targets'",
        "module.py:7: reads private name 'orchestrator._write_csv'",
        "module.py:8: reads private name 'd._read_records'",
    ]


def test_no_module_reads_another_modules_private_name():
    assert [line for path in PACKAGE for line in foreign_private_reads(
        path.read_text(encoding="utf-8"), str(path.relative_to(REPO)))] == []
