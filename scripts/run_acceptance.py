#!/usr/bin/env python3
"""Retrain the acceptance runs and cache their logs under results/acceptance/.

Trains the 20 runs of orchestrator.acceptance_runs() (4 agents x 5 seeds x
500 epochs) in a pool of forked workers, one per usable core, and writes
each run's three CSVs, in the matrix's order, and the manifest.
tests/test_acceptance.py reads this cache, and retrains the runs itself,
slowly, when it is absent. The 20 runs take about 300 s on a 2-core Intel
Xeon host (Python 3.11.7, numpy 2.4.6), as scripts/verify_cache.py measures.
The package is imported from this checkout's src/.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from acl_dqn.orchestrator import (  # noqa: E402
    ACCEPTANCE_AGENTS,
    ACCEPTANCE_ENV_SEED,
    ACCEPTANCE_PROFILE,
    ACCEPTANCE_SEEDS,
    acceptance_runs,
    write_run_logs,
)


def main() -> None:
    out = ROOT / "results" / "acceptance"
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"profile": ACCEPTANCE_PROFILE, "seeds": list(ACCEPTANCE_SEEDS),
                "agents": list(ACCEPTANCE_AGENTS), "env_seed": ACCEPTANCE_ENV_SEED}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    t0 = time.time()
    for run in acceptance_runs():
        write_run_logs(run.metrics, out, f"_{run.tag}")
        print(f"{run.tag}: final success {run.metrics.eval_rows[-1][1]:.3f}", flush=True)
    print(f"done in {time.time() - t0:.0f} s; artifacts in {out}")


if __name__ == "__main__":
    main()
