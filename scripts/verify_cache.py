#!/usr/bin/env python3
"""Retrain every cached acceptance run and diff it against the cache.

Reads results/acceptance/manifest.json, retrains each (agent, seed) run
under the recorded profile on the recorded environment seed, writes its
metrics, teacher-log and phase-log CSVs through the package's writers and
compares them line for line, line endings included, with the cached files.
It stops at the first mismatch, naming the run, the file and the line, and
exits 1. Each run's wall time and the total are printed.

    python3 scripts/verify_cache.py

The package is imported from this checkout's src/. The script is not part
of the test suite: it trains all 20 runs at full length.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from acl_dqn.orchestrator import (  # noqa: E402
    TrainConfig,
    default_environment,
    run_training,
    write_metrics_csv,
    write_phase_log_csv,
    write_teacher_log_csv,
)

CACHE = ROOT / "results" / "acceptance"
WRITERS = (("metrics", write_metrics_csv), ("teacher_log", write_teacher_log_csv),
           ("phase_log", write_phase_log_csv))


def first_difference(fresh: list[bytes], cached: list[bytes]) -> int | None:
    """1-based number of the first line that differs, or None."""
    for number, (a, b) in enumerate(zip(fresh, cached), start=1):
        if a != b:
            return number
    if len(fresh) != len(cached):
        return min(len(fresh), len(cached)) + 1
    return None


def shown(lines: list[bytes], number: int) -> str:
    return repr(lines[number - 1]) if number <= len(lines) else "<end of file>"


def main() -> int:
    manifest = json.loads((CACHE / "manifest.json").read_text(encoding="utf-8"))
    corpus, kb = default_environment(manifest["env_seed"])
    started = time.perf_counter()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for agent in manifest["agents"]:
            config = TrainConfig(agent_kind=agent, **manifest["profile"])
            for seed in manifest["seeds"]:
                tag = f"{agent}_seed{seed}"
                run_start = time.perf_counter()
                metrics = run_training(config, seed, corpus, kb).metrics
                for kind, write in WRITERS:
                    name = f"{kind}_{tag}.csv"
                    write(metrics, Path(tmp) / name)
                    fresh = (Path(tmp) / name).read_bytes().splitlines(keepends=True)
                    cached = (CACHE / name).read_bytes().splitlines(keepends=True)
                    line = first_difference(fresh, cached)
                    if line is not None:
                        print(f"MISMATCH run {tag}: {name} line {line}\n"
                              f"  cached: {shown(cached, line)}\n  fresh:  {shown(fresh, line)}",
                              file=sys.stderr)
                        return 1
                runs += 1
                print(f"{tag}: ok, {time.perf_counter() - run_start:.1f} s", flush=True)
    print(f"all {runs} runs match results/acceptance/ line for line; "
          f"total {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
