"""The docs name live code.

Every backticked ``module.attr`` or ``module.Class.attr`` in README.md and
docs/decisions.md, with ``module`` one of the package's modules, must
resolve: a rename or a deletion that leaves a doc naming the old name
fails here. A file name such as ``orchestrator.py`` or ``student.qfn`` is
no reference, and neither is a path such as ``src/acl_dqn/orchestrator.py``.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import acl_dqn

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(acl_dqn.__path__))
FILE_SUFFIXES = {"py", "qfn", "csv", "json", "md", "npz", "sh", "txt"}
REFERENCE = re.compile(r"(?<![\w./])(?:acl_dqn\.)?(%s)\.(\w+)(?:\.(\w+))?" % "|".join(MODULES))


def references(text: str) -> list[tuple[str, ...]]:
    """The (module, attr[, attr]) references in a markdown text's inline code."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    found = []
    for span in re.findall(r"`([^`]+)`", text):
        for module, *attrs in REFERENCE.findall(span):
            if attrs[0] not in FILE_SUFFIXES:
                found.append((module, *filter(None, attrs)))
    return found


def resolves(module: str, *attrs: str) -> bool:
    owner = importlib.import_module(f"acl_dqn.{module}")
    for attr in attrs:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_references_are_found_in_inline_code_only():
    text = ("`orchestrator.run_training` and `float(user_sim.MAX_TURNS)`, not\n"
            "`orchestrator.py`, `runs/c1/student.qfn` or `src/acl_dqn/orchestrator.py`;\n"
            "`neural.QFunction.load`, and plain student.epsilon_at.\n"
            "```sh\nacl-dqn eval --checkpoint student.bogus\n```\n")
    assert references(text) == [("orchestrator", "run_training"), ("user_sim", "MAX_TURNS"),
                                ("neural", "QFunction", "load")]


@pytest.mark.parametrize("doc", ["README.md", "docs/decisions.md"])
def test_every_code_reference_in_the_docs_resolves(doc):
    refs = references((REPO / doc).read_text(encoding="utf-8"))
    assert refs, f"{doc} names no module attribute; the pattern has gone stale"
    missing = [".".join(ref) for ref in refs if not resolves(*ref)]
    assert not missing, f"{doc} names code that does not exist: {', '.join(missing)}"
