"""Fresh short runs against the head of the cached acceptance runs.

Training is deterministic in (config, seed), so the first epochs of a run
under the acceptance profile must reproduce the cached CSVs in
results/acceptance/ line for line.  A refactor is checked here in seconds
instead of by regenerating the 20-run cache.
"""

import json
from pathlib import Path

import pytest

from acl_dqn.orchestrator import (
    ACCEPTANCE_PROFILE,
    TrainConfig,
    default_environment,
    run_training,
    write_metrics_csv,
    write_phase_log_csv,
    write_teacher_log_csv,
)

CACHE = Path(__file__).resolve().parent.parent / "results" / "acceptance"


def test_manifest_records_the_acceptance_profile():
    manifest = json.loads((CACHE / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["profile"] == ACCEPTANCE_PROFILE


# acl-c seed 5 passes its mastery gate at epoch 28, so its prefix also
# covers a phase change and the ORP counter reset that follows it.
# acl-a-noorp is the one agent whose teacher runs without the ORP penalty.
@pytest.mark.parametrize("agent, seed, epochs", [("acl-c", 5, 30), ("dqn", 2, 25),
                                                 ("acl-a-noorp", 4, 25)])
def test_fresh_prefix_matches_cached_run(agent, seed, epochs, tmp_path):
    config = TrainConfig(agent_kind=agent, **{**ACCEPTANCE_PROFILE,
                                              "num_epochs": epochs,
                                              "eval_every": epochs})
    corpus, kb = default_environment(1)
    metrics = run_training(config, seed, corpus, kb).metrics

    def lines(kind, writer):
        writer(metrics, tmp_path / f"{kind}.csv")
        fresh = (tmp_path / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
        cached = (CACHE / f"{kind}_{agent}_seed{seed}.csv").read_text(
            encoding="utf-8").splitlines()
        return fresh, cached

    fresh, cached = lines("teacher_log", write_teacher_log_csv)
    assert fresh == cached[:epochs + 1]
    fresh, cached = lines("phase_log", write_phase_log_csv)
    assert fresh == cached[:1] + [r for r in cached[1:] if int(r.split(",")[0]) <= epochs]
    fresh, cached = lines("metrics", write_metrics_csv)
    assert fresh == cached[:1] + [r for r in cached[1:] if r.split(",")[0] == str(epochs)]
