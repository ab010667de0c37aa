"""scripts/verify_cache.py on a one-run matrix: dqn seed 1 over 5 epochs."""

import hashlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from acl_dqn.orchestrator import ACCEPTANCE_PROFILE

REPO = Path(__file__).resolve().parent.parent
CACHE = REPO / "results" / "acceptance"
CSVS = [f"{kind}_dqn_seed1.csv" for kind in ("metrics", "teacher_log", "phase_log")]


@pytest.fixture
def script(monkeypatch, tmp_path):
    """The script as a fresh module, its matrix cut to one short run and its
    cache moved to an empty directory under tmp_path."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("verify_cache",
                                                  REPO / "scripts" / "verify_cache.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.CACHE = tmp_path / "acceptance"
    module.ACCEPTANCE_AGENTS = ("dqn",)
    module.ACCEPTANCE_SEEDS = (1,)
    module.ACCEPTANCE_PROFILE = {**ACCEPTANCE_PROFILE, "num_epochs": 5}
    return module


def _copy_committed_run(cache: Path) -> None:
    cache.mkdir()
    for name in ["manifest.json", *CSVS]:
        shutil.copy(CACHE / name, cache)


def _snapshot(cache: Path) -> dict:
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in cache.iterdir()}


def test_a_prefix_of_the_committed_cache_matches(script, capsys):
    """Each run's line gives the sha256 of its final student weights."""
    _copy_committed_run(script.CACHE)
    runs = []
    iter_runs = script.iter_runs

    def recorded(*args):
        for run in iter_runs(*args):
            runs.append(run)
            yield run

    script.iter_runs = recorded
    assert script.main([]) == 0
    [run] = runs
    digest = hashlib.sha256(run.student_q.online_flat.tobytes()).hexdigest()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"dqn_seed1: ok, final weights sha256 {digest}"


def test_without_a_manifest_it_writes_the_cache_then_checks_it(script, capsys):
    assert script.main([]) == 0
    assert "dqn_seed1: written" in capsys.readouterr().out
    assert sorted(path.name for path in script.CACHE.iterdir()) == sorted(
        ["manifest.json", *CSVS])
    assert json.loads((script.CACHE / "manifest.json").read_text()) == {
        "profile": script.ACCEPTANCE_PROFILE, "seeds": [1], "agents": ["dqn"], "env_seed": 1}
    written = _snapshot(script.CACHE)
    assert script.main([]) == 0
    assert "dqn_seed1: ok" in capsys.readouterr().out
    assert _snapshot(script.CACHE) == written


def test_a_planted_digit_exits_1_naming_the_file_and_line(script, capsys):
    _copy_committed_run(script.CACHE)
    path = script.CACHE / "teacher_log_dqn_seed1.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    body = lines[2].rstrip(b"\r\n")
    lines[2] = body[:-1] + str((int(body[-1:]) + 1) % 10).encode() + lines[2][len(body):]
    path.write_bytes(b"".join(lines))
    assert script.main([]) == 1
    assert "MISMATCH run dqn_seed1: teacher_log_dqn_seed1.csv line 3\n" in \
        capsys.readouterr().err


def test_a_deleted_csv_exits_1_naming_the_file(script, capsys):
    _copy_committed_run(script.CACHE)
    (script.CACHE / "phase_log_dqn_seed1.csv").unlink()
    assert script.main([]) == 1
    assert "phase_log_dqn_seed1.csv is missing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--epochs", "3"], ["--agent", "dqn"], ["--seed", "1"]],
                         ids=["epochs", "agent", "seed"])
def test_a_partial_write_exits_2_before_training(script, capsys, argv):
    script.iter_runs = lambda *args: pytest.fail("trained a run")
    with pytest.raises(SystemExit) as exit_info:
        script.main(argv)
    assert exit_info.value.code == 2
    assert "the whole cache is written" in capsys.readouterr().err
    assert not script.CACHE.exists()
