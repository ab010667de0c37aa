"""Fresh short runs against the head of the cached acceptance runs.

Training is deterministic in (config, seed), so the first epochs of a run
under the acceptance profile must reproduce the cached CSVs in
results/acceptance/ byte for byte.  A refactor is checked here in seconds
instead of by regenerating the 20-run cache.
"""

import json
from pathlib import Path

import pytest

from acl_dqn.orchestrator import (
    ACCEPTANCE_AGENTS,
    ACCEPTANCE_ENV_SEED,
    ACCEPTANCE_PROFILE,
    ACCEPTANCE_SEEDS,
    TrainConfig,
    cache_difference,
    default_environment,
    run_training,
)

CACHE = Path(__file__).resolve().parent.parent / "results" / "acceptance"


def test_manifest_records_the_acceptance_profile():
    manifest = json.loads((CACHE / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"profile": ACCEPTANCE_PROFILE, "seeds": list(ACCEPTANCE_SEEDS),
                        "agents": list(ACCEPTANCE_AGENTS), "env_seed": ACCEPTANCE_ENV_SEED}


# acl-c seed 5 passes its mastery gate at epoch 28, so its prefix also
# covers a phase change and the ORP counter reset that follows it.
# acl-a-noorp is the one agent whose teacher runs without the ORP penalty.
@pytest.mark.parametrize("agent, seed, epochs", [("acl-c", 5, 30), ("dqn", 2, 25),
                                                 ("acl-a-noorp", 4, 25)])
def test_fresh_prefix_matches_cached_run(agent, seed, epochs):
    config = TrainConfig(agent_kind=agent, **{**ACCEPTANCE_PROFILE,
                                              "num_epochs": epochs,
                                              "eval_every": epochs})
    corpus, kb = default_environment(ACCEPTANCE_ENV_SEED)
    assert cache_difference(run_training(config, seed, corpus, kb), CACHE) is None


def test_overlapped_evaluations_match_cached_run(usable_cores, forks):
    # At the profile's eval_every of 5 on two usable cores, the evaluations
    # of epochs 5, 10 and 15 run in forked children while training goes on.
    usable_cores(2)
    config = TrainConfig(agent_kind="acl-c", **{**ACCEPTANCE_PROFILE, "num_epochs": 20})
    corpus, kb = default_environment(ACCEPTANCE_ENV_SEED)
    assert cache_difference(run_training(config, 3, corpus, kb), CACHE) is None
    assert len(forks) == 3
