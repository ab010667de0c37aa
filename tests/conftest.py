import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acl_dqn
from acl_dqn.domain import generate_corpus, generate_kb_rows
from acl_dqn.user_sim import KnowledgeBase

REPO = Path(__file__).resolve().parent.parent
# The directory this suite imports acl_dqn from: src/ of the checkout, or
# site-packages when the package is installed.
PACKAGE_ROOT = Path(acl_dqn.__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def kb_rows():
    return generate_kb_rows(1)


@pytest.fixture(scope="session")
def kb(kb_rows):
    return KnowledgeBase(kb_rows)


@pytest.fixture(scope="session")
def corpus(kb_rows):
    return generate_corpus(1, kb_rows=kb_rows)


@pytest.fixture
def usable_cores(monkeypatch):
    """Pins the number of usable cores the run pool sizes itself by: with 1 a
    comparison's runs train in this process, with 2 or more in forked workers."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return pin


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def run_cli():
    """Run `python -m acl_dqn ARGS` against the package this suite imports.

    The child starts in the repo root with PACKAGE_ROOT put first on
    PYTHONPATH, so it runs the same code as the in-process tests whatever
    directory pytest was started from and whether or not the package is
    installed.  `env` defaults to this process's environment; any other
    keyword goes to `subprocess.run`.
    """
    def run(*args, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "acl_dqn", *args],
                              cwd=REPO, env=env, capture_output=True,
                              text=True, **kwargs)
    return run
