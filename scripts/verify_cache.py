#!/usr/bin/env python3
"""Retrain the cached acceptance runs and diff them against the cache.

Retrains the (agent, seed) runs of results/acceptance/ (all 20 by default)
for their first --epochs epochs (all 500 by default) and compares each
run's metrics, teacher-log and phase-log CSVs line for line, line endings
included, with the cached files cut to that prefix
(orchestrator.cache_difference). The runs train in a pool of forked
workers, one per usable core, and are checked in the cache's order. The
script stops at the first mismatch, naming the run, the file and the line,
and exits 1. It prints each run that matches and, at the end, the total
wall time and the number of workers.

    python3 scripts/verify_cache.py
    python3 scripts/verify_cache.py --agent acl-c --seed 3 --epochs 50

The package is imported from this checkout's src/. The script is not part
of the test suite: by default it trains all 20 runs at full length.
"""

import argparse
import contextlib
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
    if not 1 <= args.epochs <= ACCEPTANCE_PROFILE["num_epochs"]:
        parser.error(f"--epochs must be in [1, {ACCEPTANCE_PROFILE['num_epochs']}], "
                     f"got {args.epochs}")
    configs = [TrainConfig(agent_kind=agent, **{**ACCEPTANCE_PROFILE, "num_epochs": args.epochs})
               for agent in ([args.agent] if args.agent else ACCEPTANCE_AGENTS)]
    seeds = [args.seed] if args.seed is not None else list(ACCEPTANCE_SEEDS)

    started = time.perf_counter()
    runs = iter_runs(configs, seeds, *default_environment(ACCEPTANCE_ENV_SEED))
    with contextlib.closing(runs):
        for run in runs:
            difference = cache_difference(run, CACHE)
            if difference is not None:
                print(f"MISMATCH run {run.tag}: {difference}", file=sys.stderr)
                return 1
            print(f"{run.tag}: ok", flush=True)
    n_runs = len(configs) * len(seeds)
    print(f"all {n_runs} runs match results/acceptance/ line for line over their first "
          f"{args.epochs} epochs; total {time.perf_counter() - started:.1f} s, "
          f"workers: {worker_count(n_runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
