"""The docs name live code.

Every backticked ``module.attr`` or ``module.Class.attr`` in README.md and
docs/decisions.md, with ``module`` one of the package's modules, must
resolve, and so must every backticked ``Class.attr`` whose class a package
module defines: as a class attribute, a dataclass field or an attribute
the class's source assigns on ``self``. A rename or a deletion that leaves
a doc naming the old name fails here. A file name such as
``orchestrator.py`` or ``student.qfn`` is no reference, and neither is a
path such as ``src/acl_dqn/orchestrator.py``.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import acl_dqn

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(acl_dqn.__path__))
# The module of each class the package defines, by class name.
CLASSES = {name: module for module in MODULES if not module.startswith("__")
           for name, value in vars(importlib.import_module(f"acl_dqn.{module}")).items()
           if isinstance(value, type) and value.__module__ == f"acl_dqn.{module}"}
FILE_SUFFIXES = {"py", "qfn", "csv", "json", "md", "npz", "sh", "txt"}
REFERENCE = re.compile(r"(?<![\w./])(?:acl_dqn\.)?(%s)\.(\w+)(?:\.(\w+))?" % "|".join(MODULES))
CLASS_REFERENCE = re.compile(r"(?<![\w./])(%s)\.(\w+)" % "|".join(CLASSES))


def references(text: str) -> list[tuple[str, ...]]:
    """The (module, attr[, attr]) references in a markdown text's inline code."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    found = []
    for span in re.findall(r"`([^`]+)`", text):
        for module, *attrs in REFERENCE.findall(span):
            if attrs[0] not in FILE_SUFFIXES:
                found.append((module, *filter(None, attrs)))
        found.extend((CLASSES[cls], cls, attr) for cls, attr in CLASS_REFERENCE.findall(span))
    return found


def instance_attributes(cls: type) -> set[str]:
    """The dataclass fields of ``cls`` and the attributes its source assigns on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    assigned = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return assigned | fields


def resolves(module: str, *attrs: str) -> bool:
    owner = importlib.import_module(f"acl_dqn.{module}")
    for attr in attrs:
        if not hasattr(owner, attr):
            return isinstance(owner, type) and attr in instance_attributes(owner)
        owner = getattr(owner, attr)
    return True


def test_references_are_found_in_inline_code_only():
    text = ("`orchestrator.run_training` and `float(user_sim.MAX_TURNS)`, not\n"
            "`orchestrator.py`, `runs/c1/student.qfn` or `src/acl_dqn/orchestrator.py`;\n"
            "`neural.QFunction.load`, and plain student.epsilon_at.\n"
            "`len(PhaseMachine.window)`, not `x.QFunction.load`, `MyQFunction.load`,\n"
            "`Path.name` or plain ReplayBuffer.sample.\n"
            "```sh\nacl-dqn eval --checkpoint student.bogus\n```\n")
    assert references(text) == [("orchestrator", "run_training"), ("user_sim", "MAX_TURNS"),
                                ("neural", "QFunction", "load"),
                                ("curriculum", "PhaseMachine", "window")]


@pytest.mark.parametrize("ref, found", [
    (("neural", "QFunction", "td_train_steps"), True),  # a method
    (("orchestrator", "RunResult", "seed"), True),  # a dataclass field without a default
    (("curriculum", "PhaseMachine", "window"), True),  # assigned on self
    (("orchestrator", "_Evaluations", "last_epoch"), True),  # one of a tuple of targets
    (("neural", "QFunction", "td_loss"), False),
    (("curriculum", "PhaseMachine", "alpha_window"), False),
], ids=["method", "dataclass_field", "self_attribute", "tuple_target",
        "missing_method", "missing_attribute"])
def test_class_attributes_resolve_three_ways(ref, found):
    assert resolves(*ref) is found


@pytest.mark.parametrize("doc", ["README.md", "docs/decisions.md"])
def test_every_code_reference_in_the_docs_resolves(doc):
    refs = references((REPO / doc).read_text(encoding="utf-8"))
    assert refs, f"{doc} names no module attribute; the pattern has gone stale"
    missing = [".".join(ref) for ref in refs if not resolves(*ref)]
    assert not missing, f"{doc} names code that does not exist: {', '.join(missing)}"
