#!/usr/bin/env python3
"""Self-test of the training benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once at a tiny length (5 epochs on two cached seeds),
untraced and traced, and checks that the result line names exactly the
metrics BENCHMARK.json lists, each printed with its unit, and that no run
failed. Then checks that the benchmark refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def tiny_workloads() -> dict:
    return {name: replace(w, epochs=5, eval_every=w.eval_every and 5, seeds=w.seeds[:2])
            for name, w in run.WORKLOADS.items()}


def check_result(text: str, expected: dict[str, str], label: str) -> None:
    result = json.loads(text.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']} of {result['attempted']} runs failed")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == expected, f"{label}: metrics {units} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")
        check(f"{name} = {m['value']!r} {m['unit']}" in text,
              f"{label}: {name} is not printed with its unit")
    check("failed_frac = 0/" in text, f"{label}: failed_frac is not printed")


def check_refuses_bare_directory(spec_path: Path) -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(spec_path, tmp)
        shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "acceptance-acl-c",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0, "the benchmark ran without a source tree")
    check('"correct"' not in done.stdout, "the benchmark printed a result without a source tree")


def main() -> int:
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json and run.py name different workloads")
    workloads = tiny_workloads()
    for name in workloads:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                                 "--trace", str(trace)], workloads=workloads)
            check(code == 0, f"{name} trace {trace}: exit code {code}")
            check_result(out.getvalue(), expected[trace], f"{name} trace {trace}")
            print(f"ok {name} trace {trace}")
    run.OUT.mkdir(parents=True, exist_ok=True)
    check_refuses_bare_directory(spec_path)
    print("ok refuses a directory without the source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
