#!/usr/bin/env python3
"""Check the acceptance cache against a retrain, or write it when it is absent.

With results/acceptance/manifest.json present, retrains the cache's (agent,
seed) runs (all 20 by default) for their first --epochs epochs (all 500 by
default) and compares each run's metrics, teacher-log and phase-log CSVs
line for line, line endings included, with the cached files cut to that
prefix (orchestrator.cache_difference), writing nothing. At the first
mismatch or missing file it names the run, the file and the line, and
exits 1. Without the manifest, it trains all 20 runs at full length and
writes each run's three CSVs as the run arrives and the manifest last, so
an interrupted write leaves no manifest and the next call writes again;
--agent, --seed or a shorter --epochs exit 2 there, since the cache is
only written whole. To regenerate the cache, remove it first.

The runs train in a pool of forked workers, one per usable core, and
arrive in the cache's order; a single run trains in this process and
evaluates in forked children while it trains on (orchestrator.run_training).
Each run is printed as it arrives, with the sha256 of its final student
weights (student_q.online_flat), and the total wall time and the number of
workers at the end. The CSVs cannot show a last-bit change to the weights,
so compare these digests to check that a change keeps the weights bit for
bit: run two checkouts on one machine and diff their output. The digests
are not cached, because they differ between BLAS kernels.

    python3 scripts/verify_cache.py
    python3 scripts/verify_cache.py --agent acl-c --seed 3 --epochs 50

The package is imported from this checkout's src/. The script is not part
of the test suite: by default it trains all 20 runs at full length.
"""

import argparse
import contextlib
import hashlib
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
    TrainConfig,
    cache_difference,
    default_environment,
    iter_runs,
    worker_count,
    write_run_logs,
)

CACHE = ROOT / "results" / "acceptance"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--agent", choices=ACCEPTANCE_AGENTS, help="check only this agent")
    parser.add_argument("--seed", type=int, choices=ACCEPTANCE_SEEDS,
                        help="check only this seed")
    parser.add_argument("--epochs", type=int, default=ACCEPTANCE_PROFILE["num_epochs"],
                        help="check each run's first EPOCHS epochs")
    args = parser.parse_args(argv)
    full = ACCEPTANCE_PROFILE["num_epochs"]
    if not 1 <= args.epochs <= full:
        parser.error(f"--epochs must be in [1, {full}], got {args.epochs}")
    manifest = CACHE / "manifest.json"
    writing = not manifest.exists()
    if writing and (args.agent or args.seed is not None or args.epochs < full):
        parser.error(f"{manifest} is absent, so the whole cache is written: "
                     "--agent, --seed and --epochs only pick runs to check")
    configs = [TrainConfig(agent_kind=agent, **{**ACCEPTANCE_PROFILE, "num_epochs": args.epochs})
               for agent in ([args.agent] if args.agent else ACCEPTANCE_AGENTS)]
    seeds = [args.seed] if args.seed is not None else list(ACCEPTANCE_SEEDS)

    started = time.perf_counter()
    CACHE.mkdir(parents=True, exist_ok=True)
    runs = iter_runs(configs, seeds, *default_environment(ACCEPTANCE_ENV_SEED))
    with contextlib.closing(runs):
        for run in runs:
            if writing:
                write_run_logs(run.metrics, CACHE, f"_{run.tag}")
            elif (difference := cache_difference(run, CACHE)) is not None:
                print(f"MISMATCH run {run.tag}: {difference}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(run.student_q.online_flat.tobytes()).hexdigest()
            print(f"{run.tag}: {'written' if writing else 'ok'}, final weights sha256 {digest}",
                  flush=True)
    if writing:
        manifest.write_text(json.dumps({
            "profile": ACCEPTANCE_PROFILE, "seeds": list(ACCEPTANCE_SEEDS),
            "agents": list(ACCEPTANCE_AGENTS), "env_seed": ACCEPTANCE_ENV_SEED}, indent=2) + "\n")
    n_runs = len(configs) * len(seeds)
    print(f"all {n_runs} runs {'written to' if writing else 'match'} {CACHE} over their first "
          f"{args.epochs} epochs; total {time.perf_counter() - started:.1f} s, "
          f"workers: {worker_count(n_runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
