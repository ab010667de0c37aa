#!/usr/bin/env python3
"""Run the full comparison behind the acceptance suite and cache the logs.

Trains dqn, acl-a, acl-a-noorp, and acl-c on the default synthetic corpus
for 5 seeds x 500 epochs and writes per-run metrics / teacher logs / phase
logs under results/acceptance/.  tests/test_acceptance.py reads this cache
when present and re-runs the experiment itself (slowly) when it is absent,
so this script exists to front-load the training: about 12.5 minutes for
the 20 runs on a 2-core Intel Xeon host (Python 3.11.7, numpy 2.4.6), as
measured by scripts/verify_cache.py, which retrains the same runs.
"""

import json
import time
from pathlib import Path

from acl_dqn.orchestrator import (
    ACCEPTANCE_PROFILE,
    TrainConfig,
    default_environment,
    run_training,
    write_metrics_csv,
    write_phase_log_csv,
    write_teacher_log_csv,
)

AGENTS = ("dqn", "acl-a", "acl-a-noorp", "acl-c")
SEEDS = (1, 2, 3, 4, 5)


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "results" / "acceptance"
    out.mkdir(parents=True, exist_ok=True)
    corpus, kb = default_environment(1)
    manifest = {"profile": ACCEPTANCE_PROFILE, "seeds": list(SEEDS),
                "agents": list(AGENTS), "env_seed": 1}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for agent in AGENTS:
        config = TrainConfig(agent_kind=agent, **ACCEPTANCE_PROFILE)
        for seed in SEEDS:
            tag = f"{agent}_seed{seed}"
            t0 = time.time()
            result = run_training(config, seed, corpus, kb)
            write_metrics_csv(result.metrics, out / f"metrics_{tag}.csv")
            write_teacher_log_csv(result.metrics, out / f"teacher_log_{tag}.csv")
            write_phase_log_csv(result.metrics, out / f"phase_log_{tag}.csv")
            final = result.metrics.eval_rows[-1][1]
            print(f"{tag}: final success {final:.3f} "
                  f"({time.time() - t0:.0f}s)", flush=True)
    print(f"done; artifacts in {out}")


if __name__ == "__main__":
    main()
