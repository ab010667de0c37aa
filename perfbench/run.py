#!/usr/bin/env python3
"""Training benchmark for acl-dqn, checked against the cached acceptance runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance-acl-c --seed 1 --seconds 50 --trace 0

Every run trains under the profile recorded in
``results/acceptance/manifest.json`` (the profile the cached runs were made
with) on its environment seed, driving the package in one process the way
``acl-dqn train`` and ``acl-dqn compare`` do. The benchmark never edits the
package: it times runs through wrappers installed on the package's module
attributes.

A *pass* trains every agent of the workload on the same cached training
seeds, each for the workload's first ``epochs`` epochs. ``--seed`` only picks
the order of those seeds. A single training seed changes the cost of an
epoch by about 10% and the greedy success by a factor of three, so a run
whose work followed the seed could not tell a regression from a different
seed; with every run doing the same work, run-to-run spread is the machine's
alone, and every run can be compared bit for bit with the cached prefix.

After one untimed warm-up run, passes repeat until another one would end
past ``--seconds`` (at least one runs). Each pass is timed with clock reads
at run entry, around a reference kernel at each epoch start (when the loop
asks for its epsilon) and at run exit. The reads travel with each run's
result, so runs made on other threads or in forked worker processes are
timed too.

The shared host this benchmark was written on changes speed by up to 40%
over tens of seconds, for a fixed kernel as much as for the program, so
raw times of the same code spread by more than any useful bound. Every
time a pass reports is therefore rescaled to one host speed: multiplied by
``REFERENCE_S`` over the median duration of a fixed reference kernel
sampled before, during and after the pass (for an epoch, of the samples
nearest it). The reference time itself is
left out of every interval. The raw figures are printed beside the
rescaled ones.

``--trace 1`` instead makes one pass in which every run is made twice in a
row, untraced and then traced; the spans give the per-layer metrics and
the pairs give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from threading import get_ident
from time import perf_counter

import numpy as np

from spans import Patch, SpanRecorder, instrument

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "results" / "acceptance"
OUT = Path(__file__).resolve().parent / "out"

# Three of the five cached training seeds: a pass takes 15 to 25 seconds,
# so that a 50-second run times each epoch in two or three passes.
SEEDS = (1, 2, 3)
WARMUP_EPOCHS = 5
# Attribute of a RunResult that carries its clock reads.
TIMES = "_perfbench_times"
# Times are reported at the host speed at which reference() takes this long.
REFERENCE_S = 0.004
# Reference samples taken before and after each pass, outside its wall time.
BRACKET_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    agents: tuple[str, ...]
    epochs: int
    # None keeps the package's evaluation cadence; otherwise the interval.
    eval_every: int | None = None
    # Through run_comparison (one call per pass) instead of run_training.
    compare: bool = False
    seeds: tuple[int, ...] = SEEDS

    def config(self, agent: str, profile: dict):
        from acl_dqn.orchestrator import TrainConfig

        extra = {} if self.eval_every is None else {"eval_every": self.eval_every}
        return TrainConfig(agent_kind=agent, **{**profile, "num_epochs": self.epochs}, **extra)


# Why each workload is here:
# - acceptance-acl-c: greedy evaluation (100 dialogues every 5 epochs) is
#   most of the time, so KB queries, featurize, single-row forwards and
#   simulator steps dominate; the teacher and ORP run.
# - train-only-acl-a: one evaluation at the end (`acl-dqn train --eval-every
#   N`), so the 120 TD steps per epoch and the teacher step dominate; KB and
#   evaluation changes should leave it unchanged. Its runs go through
#   run_comparison, as `acl-dqn compare` makes them, so it is also where a
#   pool of runs can show; acceptance-acl-c, run by run, is that pool's bypass.
WORKLOADS = {w.name: w for w in (
    Workload("acceptance-acl-c", ("acl-c",), epochs=20),
    Workload("train-only-acl-a", ("acl-a",), epochs=60, eval_every=60, compare=True),
)}

# Layers whose calls and self time the traced pass reports.
LAYERS = (
    "user_sim.kb_query", "user_sim.session_step", "user_sim.session_reset",
    "student.featurize", "student.materialize", "student.run_episode",
    "neural.forward_row", "neural.forward_batch",
    "student.train_step", "teacher.train_step", "replay.sample", "replay.push",
    "teacher.teacher_act", "teacher.state_build", "curriculum.on_episode",
    "domain.corpus_lookup", "replay.rbs_prefill", "domain.generate",
    "orchestrator.evaluate_policy",
)


class BenchmarkError(Exception):
    pass


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((16, 120))
_REF_Y = _REF_RNG.standard_normal(16)
_REF_W1 = _REF_RNG.standard_normal((80, 120)) * 0.1
_REF_W2 = _REF_RNG.standard_normal((30, 80)) * 0.1


def reference() -> float:
    """Run the fixed reference kernel; return its duration in seconds.

    Half interpreted integer arithmetic, half the numpy of a 16-row TD step
    through a one-hidden-layer network (forward, backward, clipped
    gradient), about 4 ms on a 2-core x86 host. Of the kernels tried
    (these two, small-matrix tanh chains, dict filtering like a KB query,
    single-row forwards), this pair's time tracked the program's epoch
    times across host slow-downs with a slope closest to 1 on both the
    evaluation-heavy and the update-heavy workload.
    """
    start = perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    for _ in range(25):
        h = np.tanh(_REF_X @ _REF_W1.T)
        q = h @ _REF_W2.T
        grad_q = np.zeros_like(q)
        grad_q[:, 0] = (q[:, 0] - _REF_Y) / len(_REF_Y)
        grad_h = (grad_q @ _REF_W2) * (1 - h * h)
        np.clip(grad_h.T @ _REF_X, -1, 1)
    return perf_counter() - start


class HostSpeed:
    """Reference samples of the benchmark process.

    A sample is taken only where no other run of the program is in flight
    (in this process, on one thread), so that the program's own use of
    more cores cannot pass for a slower host; under a worker pool only
    the samples around each pass remain.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.running = 0
        self.samples: list[float] = []

    def alone(self) -> bool:
        return os.getpid() == self.pid and self.running == 1

    def sample(self, n: int = 1) -> None:
        self.samples.extend(reference() for _ in range(n))


@dataclass
class RunTimes:
    entry: float
    # Per epoch: the clock read when the epoch is asked for (the end of the
    # previous epoch or of set-up), and the read after the reference sample.
    stops: list[float]
    marks: list[float]
    exit: float = math.nan
    # In a traced pass, the untraced twin of this run.
    untraced: RunTimes | None = None

    @property
    def setup_s(self) -> float:
        return self.stops[0] - self.entry

    def epoch_s(self) -> list[float]:
        return [end - start for start, end in zip(self.marks, self.stops[1:] + [self.exit])]

    @property
    def loop_s(self) -> float:
        """Epoch-loop time, reference samples left out."""
        return sum(self.epoch_s())

    def reference_s(self) -> list[float]:
        return [mark - stop for stop, mark in zip(self.stops, self.marks)]

    def sampled(self) -> bool:
        """Whether a reference sample was taken at every epoch start."""
        return min(self.reference_s()) > REFERENCE_S / 10

    def factor(self) -> float:
        """REFERENCE_S over the median of this run's own samples (1 if it took none)."""
        return REFERENCE_S / statistics.median(self.reference_s()) if self.sampled() else 1.0

    def epoch_factors(self, fallback: float) -> list[float]:
        """Per epoch, REFERENCE_S over the median of the samples taken at the
        starts of the epochs around it, from two before to two after the
        next one, so that a one-second evaluation epoch is rescaled by the
        host's speed just before and after it; ``fallback`` for every epoch
        of a run that took no samples."""
        refs = self.reference_s()
        if not self.sampled():
            return [fallback] * len(refs)
        return [REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 4])
                for i in range(len(refs))]


def install_clock(patch: Patch, speed: HostSpeed) -> None:
    """Read the clock at run entry, at each epoch start and at run exit, and
    attach the reads to the run's result.

    ``run_training`` asks ``epsilon_at`` for the epoch's exploration rate
    exactly once per epoch, before any of the epoch's work; there the clock
    is read before and after a reference sample. Reads are kept per thread;
    a forked worker inherits the wrappers and sends its reads back with the
    result. ``perf_counter`` is one system-wide clock on Linux.
    """
    from acl_dqn import orchestrator

    run_training = patch.current(orchestrator, "run_training")
    epsilon_at = patch.current(orchestrator, "epsilon_at")
    current: dict[int, RunTimes] = {}

    def timed_run(*args, **kwargs):
        speed.running += 1
        try:
            times = current[get_ident()] = RunTimes(perf_counter(), [], [])
            result = run_training(*args, **kwargs)
            times.exit = perf_counter()
        finally:
            speed.running -= 1
        setattr(result, TIMES, times)
        return result

    def timed_epsilon(*args, **kwargs):
        times = current[get_ident()]
        times.stops.append(perf_counter())
        if speed.alone():
            speed.sample()
        times.marks.append(perf_counter())
        return epsilon_at(*args, **kwargs)

    patch.set(orchestrator, "run_training", timed_run)
    patch.set(orchestrator, "epsilon_at", timed_epsilon)


def times_of(result) -> RunTimes:
    times = getattr(result, TIMES, None)
    name = f"{result.config.agent_kind} seed {result.seed}"
    if times is None:
        raise BenchmarkError(
            f"run {name} carries no clock reads: the benchmark times runs through "
            "orchestrator.run_training in this process, its threads or forked workers")
    if len(times.marks) != len(result.metrics.teacher_log):
        raise BenchmarkError(f"run {name}: {len(times.marks)} epoch clock reads for "
                             f"{len(result.metrics.teacher_log)} epochs")
    return times


def covered_s(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@dataclass
class Pass:
    # Raw wall time, reference samples during the runs included.
    wall_s: float
    env_s: float
    runs: list[RunTimes]
    # Epochs completed: teacher-log rows over the pass's results.
    epochs: int
    # Greedy success of every evaluation row of the pass, in run order.
    successes: list[float]
    # Every reference sample of the pass, the ones around it included.
    references: list[float]

    def factor(self) -> float:
        """Host-speed factor that rescales the pass's times to REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.references)

    def epoch_times(self, rescale: bool) -> list[float]:
        """Every epoch's time, in run order; rescaled by its local factor or raw."""
        return [e * (f if rescale else 1.0) for run in self.runs
                for e, f in zip(run.epoch_s(), run.epoch_factors(self.factor()))]

    def setup_times(self) -> list[float]:
        """Environment generation plus each run's own set-up."""
        return [self.env_s + run.setup_s for run in self.runs]

    def wall_free_s(self) -> float:
        """Wall time less the reference samples. Under a run pool the
        samples overlap as the runs do, so their sum is scaled by the runs'
        overlap (1 for runs made one after another)."""
        spans = [(run.entry, run.exit) for run in self.runs]
        overlap = covered_s(spans) / sum(end - start for start, end in spans)
        return self.wall_s - overlap * sum(sum(run.reference_s()) for run in self.runs)

    def epochs_per_s(self) -> float:
        """Epochs per wall second after set-up: per second in which some run
        was in its epoch loop, reference samples left out. For runs made
        one after another this is the sum of their epoch times."""
        spans = [(run.marks[0], run.exit) for run in self.runs]
        free = sum(run.loop_s for run in self.runs) / sum(end - start for start, end in spans)
        return self.epochs / (covered_s(spans) * free)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return max(50, min(99, math.floor(100 - 1000 / n)))


# --- correctness -----------------------------------------------------------

def _csv_lines(write, metrics, tmp: Path) -> list[str]:
    path = tmp / "out.csv"
    write(metrics, path)
    return path.read_text(encoding="utf-8").splitlines()


def check_run(result, tmp: Path) -> tuple[str, list[str]]:
    """Fingerprint one run and compare it with the cached prefix.

    Returns the sha256 of the run's metrics, teacher-log and phase-log CSVs
    and a list of problems (empty when the run passes).
    """
    from acl_dqn import orchestrator

    config = result.config
    lines = {
        "metrics": _csv_lines(orchestrator.write_metrics_csv, result.metrics, tmp),
        "teacher_log": _csv_lines(orchestrator.write_teacher_log_csv, result.metrics, tmp),
        "phase_log": _csv_lines(orchestrator.write_phase_log_csv, result.metrics, tmp),
    }
    digest = hashlib.sha256()
    for kind in ("metrics", "teacher_log", "phase_log"):
        digest.update("\n".join(lines[kind]).encode() + b"\n")

    problems = []
    values = [float(x) for row in lines["metrics"][1:] + lines["teacher_log"][1:]
              for x in row.split(",")]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value in metrics or teacher log")
    if not all(np.isfinite(p).all() for p in result.student_q.online.values()):
        problems.append("non-finite student parameters")

    tag = f"{config.agent_kind}_seed{result.seed}"
    if not (GOLDEN / f"metrics_{tag}.csv").is_file():
        print(f"golden {tag}: not cached, finiteness checked only")
        return digest.hexdigest(), problems

    n = config.num_epochs
    golden = {kind: (GOLDEN / f"{kind}_{tag}.csv").read_text(encoding="utf-8").splitlines()
              for kind in lines}
    by_epoch = {row.split(",", 1)[0]: row for row in golden["metrics"][1:]}
    expected = {
        "metrics": golden["metrics"][:1] + [by_epoch.get(row.split(",", 1)[0], "<absent>")
                                            for row in lines["metrics"][1:]],
        "teacher_log": golden["teacher_log"][:n + 1],
        "phase_log": golden["phase_log"][:1] + [row for row in golden["phase_log"][1:]
                                                if int(row.split(",", 1)[0]) <= n],
    }
    if len(lines["metrics"]) != 1 + n // config.eval_every:
        problems.append(f"{len(lines['metrics']) - 1} eval rows, expected {n // config.eval_every}")
    for kind, want in expected.items():
        got = lines[kind]
        if got != want:
            bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                       min(len(got), len(want)))
            problems.append(f"{kind} differs from the cached prefix at line {bad + 1}")
    return digest.hexdigest(), problems


class Checker:
    """Counts attempted and failed runs and keeps each run's fingerprint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[tuple, str] = {}

    def check(self, results) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for result in results:
                key = (result.config.agent_kind, result.seed, result.config.num_epochs,
                       result.config.eval_every)
                digest, problems = check_run(result, Path(tmp))
                seen = self.fingerprints.setdefault(key, digest)
                if seen != digest:
                    problems.append(f"fingerprint {digest} differs from earlier {seen}")
                self.attempted += 1
                self.failed += bool(problems)
                name = f"{key[0]} seed {key[1]} epochs {key[2]}"
                print(f"fingerprint {name}: {digest} {'; '.join(problems) or 'golden ok'}")

    def fail(self, planned: int) -> None:
        self.attempted += planned
        self.failed += planned


# --- measurement -----------------------------------------------------------

class Bench:
    def __init__(self, workload: Workload, seeds: list[int]):
        from acl_dqn import orchestrator

        manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
        self.orchestrator = orchestrator
        self.env_seed = manifest["env_seed"]
        self.profile = {k: v for k, v in manifest["profile"].items() if k != "num_epochs"}
        self.workload = workload
        self.seeds = seeds
        self.checker = Checker()
        self.speed = HostSpeed()

    def run_pass(self, workload: Workload, seeds: list[int]) -> tuple[float, float, list]:
        """Wall time, environment-generation time and results of one pass."""
        orch = self.orchestrator
        start = perf_counter()
        corpus, kb = orch.default_environment(self.env_seed)
        env_s = perf_counter() - start
        configs = [workload.config(agent, self.profile) for agent in workload.agents]
        if workload.compare:
            results = orch.run_comparison(configs, seeds, corpus, kb).runs
        else:
            results = [orch.run_training(c, s, corpus, kb) for c in configs for s in seeds]
        return perf_counter() - start, env_s, results

    def checked_pass(self, workload: Workload, seeds: list[int]) -> Pass:
        # Reference samples around the pass, outside its wall time.
        first = len(self.speed.samples)
        self.speed.sample(BRACKET_SAMPLES)
        try:
            wall_s, env_s, results = self.run_pass(workload, seeds)
        except Exception:
            traceback.print_exc()
            self.checker.fail(len(workload.agents) * len(seeds))
            raise BenchmarkError(f"a run of {workload.name} raised") from None
        self.speed.sample(BRACKET_SAMPLES)
        self.checker.check(results)
        return Pass(wall_s, env_s, [times_of(r) for r in results],
                    sum(len(r.metrics.teacher_log) for r in results),
                    [row[1] for r in results for row in r.metrics.eval_rows],
                    self.speed.samples[first:])

    def warm_up(self) -> None:
        """One untimed run of the workload's first agent on its first seed."""
        patch = Patch()
        install_clock(patch, self.speed)
        try:
            self.checked_pass(replace(self.workload, agents=self.workload.agents[:1],
                                      epochs=WARMUP_EPOCHS, compare=False,
                                      eval_every=self.workload.eval_every and WARMUP_EPOCHS),
                              self.seeds[:1])
        finally:
            patch.undo()

    def measure(self, seconds: float) -> list[Pass]:
        """Untraced passes until another one would end past ``seconds``."""
        patch = Patch()
        install_clock(patch, self.speed)
        try:
            passes = []
            start = perf_counter()
            while True:
                passes.append(self.checked_pass(self.workload, self.seeds))
                if perf_counter() - start + passes[-1].wall_s > seconds:
                    return passes
        finally:
            patch.undo()

    def traced_pass(self) -> tuple[Pass, SpanRecorder]:
        """One pass in which each run is made twice in a row, untraced then traced.

        Pairing the runs keeps the host's drift in speed, which lasts
        seconds, out of the tracing overhead. The pass holds the traced
        runs' times, each with its untraced twin's.
        """
        orch = self.orchestrator
        recorder = SpanRecorder()
        patch = Patch()
        install_clock(patch, self.speed)
        timed_run = patch.current(orch, "run_training")
        traced_run = recorder.wrap(timed_run, "orchestrator.run_training")
        layers = Patch()

        def paired_run(*args, **kwargs):
            layers.undo()
            untraced = times_of(timed_run(*args, **kwargs))
            instrument(recorder, layers)
            result = traced_run(*args, **kwargs)
            times_of(result).untraced = untraced
            return result

        patch.set(orch, "run_training", paired_run)
        instrument(recorder, layers)
        try:
            return self.checked_pass(self.workload, self.seeds), recorder
        finally:
            layers.undo()
            patch.undo()


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any worker it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def timings(passes: list[Pass], rescale: bool) -> dict[str, float]:
    """Timings of the passes, rescaled to REFERENCE_S or raw.

    Every pass makes the same runs in the same order, so each epoch is
    timed once per pass: p50 and tail are taken over each epoch's median
    across passes, which drops a host hiccup that hit one pass. Epochs are
    rescaled by the samples around them, the per-pass totals by the
    pass's factor, and the totals are medians over passes.
    """
    factors = [p.factor() if rescale else 1.0 for p in passes]
    epochs = np.median(np.array([p.epoch_times(rescale) for p in passes]) * 1e3, axis=0)
    return {
        "epochs_per_s": statistics.median(p.epochs_per_s() / f for p, f in zip(passes, factors)),
        "epoch_ms_p50": float(np.median(epochs)),
        "epoch_ms_tail": float(np.percentile(epochs, tail_percentile(len(epochs)))),
        "wall_s": statistics.median(p.wall_free_s() * f for p, f in zip(passes, factors)),
        "setup_s": statistics.median(
            s * f for p, f in zip(passes, factors) for s in p.setup_times()),
    }


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    values = timings(passes, rescale=True)
    values["peak_rss_mb"] = peak_rss_mb()
    values["eval_success"] = statistics.median(
        sum(p.successes) / len(p.successes) for p in passes)
    n = len(passes[-1].epoch_times(rescale=False))
    raw = timings(passes, rescale=False)
    notes = [
        f"epoch_ms_tail is p{tail_percentile(n)} of {n} epochs, each the median of "
        f"{len(passes)} pass(es)",
        "host-speed factor per pass: " + ", ".join(f"{p.factor():.4f}" for p in passes)
        + f" (median reference {1e3 * REFERENCE_S / passes[0].factor():.3f} ms"
        f" in pass 1, nominal {1e3 * REFERENCE_S:g} ms)",
        "raw, not rescaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return values, notes


E2E_UNITS = {
    "setup_s": "s", "epochs_per_s": "epochs/s", "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms", "wall_s": "s", "peak_rss_mb": "MB", "eval_success": "fraction",
}


def layer_metrics(recorder: SpanRecorder, traced: Pass) -> dict:
    totals = recorder.layer_totals()
    counts = recorder.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for layer in LAYERS:
        t = totals.get(layer, empty)
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
    loop_s = sum(run.loop_s for run in traced.runs)
    # Each twin rescaled by its own reference samples: they run seconds apart.
    overhead = 1 - (sum(run.untraced.loop_s * run.untraced.factor() for run in traced.runs)
                    / sum(run.loop_s * run.factor() for run in traced.runs))
    # Both twins of every run over the pass's wall time after environment
    # generation: 1 for runs made one after another, more for a run pool.
    run_s = sum(run.exit - run.untraced.entry for run in traced.runs)
    turns = counts.get("student.turns", 0)
    attempts = counts.get("replay.sample.attempts", 0)
    evaluate = totals.get("orchestrator.evaluate_policy", empty)
    updates = (totals.get("student.train_step", empty)["total_s"]
               + totals.get("teacher.train_step", empty)["total_s"])
    metrics.update({
        "user_sim.kb_query.per_turn": (
            totals.get("user_sim.kb_query", empty)["calls"] / turns if turns else 0.0,
            "calls/turn"),
        "student.turns": (turns, "count"),
        "neural.forward_batch.rows": (counts.get("neural.forward_batch.rows", 0), "count"),
        "replay.sample.underfull_frac": (
            counts.get("replay.sample.underfull", 0) / attempts if attempts else 0.0,
            "fraction"),
        "curriculum.on_episode.transitions": (
            counts.get("curriculum.on_episode.transitions", 0), "count"),
        "replay.rbs_prefill.dialogues": (counts.get("replay.rbs_prefill.dialogues", 0), "count"),
        "orchestrator.evaluate_policy.dialogues_per_s": (
            counts.get("orchestrator.evaluate_policy.dialogues", 0) / evaluate["total_s"]
            if evaluate["total_s"] else 0.0, "1/s"),
        "orchestrator.eval_share": (evaluate["total_s"] / loop_s, "fraction"),
        "orchestrator.update_share": (updates / loop_s, "fraction"),
        "orchestrator.runs_in_flight": (run_s / (traced.wall_s - traced.env_s), "runs"),
        "trace.overhead": (overhead, "fraction"),
    })
    return metrics


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "default",
    }


def rotated(seeds: tuple[int, ...], seed: int) -> list[int]:
    k = (seed - 1) % len(seeds)
    return list(seeds[k:] + seeds[:k])


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "acl_dqn" / "__init__.py").is_file() \
            or not (GOLDEN / "manifest.json").is_file():
        print(f"error: {ROOT} holds no acl-dqn source tree with cached acceptance runs",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads[args.workload]
    bench = Bench(workload, rotated(workload.seeds, args.seed))
    facts = machine_facts()
    print("machine " + json.dumps(facts))
    print(f"workload {workload.name}: agents {','.join(workload.agents)}, "
          f"seeds {bench.seeds}, {workload.epochs} epochs each")
    metrics: dict[str, tuple[float, str]] = {}
    try:
        bench.warm_up()
        if args.trace:
            traced, recorder = bench.traced_pass()
            metrics = layer_metrics(recorder, traced)
            OUT.mkdir(parents=True, exist_ok=True)
            stem = OUT / f"trace_{workload.name}_seed{args.seed}"
            recorder.save(stem.with_suffix(".npz"))
            stem.with_suffix(".json").write_text(json.dumps(
                {"machine": facts, "layers": recorder.layer_totals(),
                 "counts": recorder.counts}, indent=1) + "\n", encoding="utf-8")
            print(f"spans written to {stem.with_suffix('.npz').relative_to(ROOT)}")
        else:
            values, notes = end_to_end(bench.measure(args.seconds))
            metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
            print("\n".join(notes))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)

    checker = bench.checker
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {checker.failed}/{checker.attempted} runs")
    correct = checker.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
