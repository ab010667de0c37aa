#!/usr/bin/env python3
"""Retrain every cached acceptance run and diff it against the cache.

Retrains each (agent, seed) run of orchestrator.acceptance_runs() and
compares its metrics, teacher-log and phase-log CSVs line for line, line
endings included, with the cached files (orchestrator.cache_difference).
It stops at the first mismatch, naming the run, the file and the line, and
exits 1. Each run's wall time and the total are printed.

    python3 scripts/verify_cache.py

The package is imported from this checkout's src/. The script is not part
of the test suite: it trains all 20 runs at full length.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from acl_dqn.orchestrator import acceptance_runs, cache_difference  # noqa: E402

CACHE = ROOT / "results" / "acceptance"


def main() -> int:
    started = run_start = time.perf_counter()
    for runs, run in enumerate(acceptance_runs(), start=1):
        difference = cache_difference(run, CACHE)
        if difference is not None:
            print(f"MISMATCH run {run.tag}: {difference}", file=sys.stderr)
            return 1
        now = time.perf_counter()
        print(f"{run.tag}: ok, {now - run_start:.1f} s", flush=True)
        run_start = now
    print(f"all {runs} runs match results/acceptance/ line for line; "
          f"total {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
