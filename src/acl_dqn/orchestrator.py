"""Full training loop, evaluation, and comparisons."""

from __future__ import annotations

import csv
import logging
import os
import pickle
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .curriculum import PhaseMachine, PhaseTransition
from .domain import GoalCorpus, generate_corpus, generate_kb_rows
# The teacher's goal pick under its own name: perfbench traces it as its own layer.
from .neural import NeuralError, QFunction, epsilon_greedy as teacher_act
from .replay import ReplayBuffer, STUDENT_CAPACITY, TEACHER_CAPACITY, Transition
# One TD update under two names: perfbench traces each net's updates as its own layer.
from .replay import train_step as student_train_step, train_step as teacher_train_step
from .student import (
    FAILURE_PENALTY,
    N_ACTIONS,
    STATE_DIM,
    epsilon_at,
    epsilon_policy,
    rbs_prefill,
    run_episode,
    run_greedy_episodes,
)
from .teacher import TEACHER_STATE_DIM, TeacherStateBuilder
from .user_sim import KnowledgeBase

log = logging.getLogger("acl_dqn")

# Each agent kind: (curriculum schedule, whether a teacher picks the goal
# rather than a uniform draw, whether the teacher reward carries the ORP).
AGENTS = {
    "dqn": ("A", False, False),
    "acl-a": ("A", True, True),
    "acl-b": ("B", True, True),
    "acl-c": ("C", True, True),
    "acl-a-noorp": ("A", True, False),
}
AGENT_KINDS = tuple(AGENTS)


# The settings the cached comparison in results/acceptance/ was trained
# under, as its manifest records them. They are the package defaults, but
# for 100 evaluation dialogues where the default is 50.
ACCEPTANCE_PROFILE = dict(
    num_epochs=500,
    epoch_size=256,
    updates_per_epoch=120,
    epsilon_end=0.1,
    epsilon_decay_epochs=300,
    eval_dialogues=100,
)
# The cached comparison's runs, as recorded in results/acceptance/manifest.json.
ACCEPTANCE_AGENTS = ("dqn", "acl-a", "acl-a-noorp", "acl-c")
ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)
ACCEPTANCE_ENV_SEED = 1


class ConfigError(Exception):
    pass


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings; refused with ConfigError when built, replace() included."""
    agent_kind: str = "dqn"
    num_epochs: int = 500
    epoch_size: int = 256  # sizes schedule B/C phase budgets
    alpha: float = 0.5
    eval_every: int = 5
    eval_dialogues: int = 50
    # The student's minibatch steps per epoch, taken after the episode, so
    # gradient work does not depend on episode length.
    updates_per_epoch: int = 120
    epsilon_end: float = 0.1
    epsilon_decay_epochs: int = 300

    def __post_init__(self) -> None:
        if self.agent_kind not in AGENT_KINDS:
            raise ConfigError(
                f"unknown agent kind {self.agent_kind!r}; valid: {', '.join(AGENT_KINDS)}")
        for name in ("num_epochs", "epoch_size", "eval_every", "eval_dialogues",
                     "updates_per_epoch", "epsilon_decay_epochs"):
            _check_count(name, getattr(self, name))
        for name in ("alpha", "epsilon_end"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")

    @property
    def schedule(self) -> str:
        return AGENTS[self.agent_kind][0]

    @property
    def uses_teacher(self) -> bool:
        return AGENTS[self.agent_kind][1]

    @property
    def uses_orp(self) -> bool:
        return AGENTS[self.agent_kind][2]


class TeacherLogRow(NamedTuple):
    epoch: int
    goal_id: int
    og: int
    r_or: float
    x_now: float
    x_prev: float
    r: float


@dataclass
class MetricsSeries:
    eval_rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    teacher_log: list[TeacherLogRow] = field(default_factory=list)
    phase_log: list[PhaseTransition] = field(default_factory=list)


@dataclass
class RunResult:
    config: TrainConfig
    seed: int
    metrics: MetricsSeries
    student_q: QFunction

    @property
    def tag(self) -> str:
        return f"{self.config.agent_kind}_seed{self.seed}"


def default_environment(seed: int) -> tuple[GoalCorpus, KnowledgeBase]:
    rows = generate_kb_rows(seed)
    return generate_corpus(seed, rows), KnowledgeBase(rows)


def evaluate_policy(q: QFunction, corpus: GoalCorpus, kb: KnowledgeBase,
                    eval_dialogues: int, rng: np.random.Generator) -> tuple[float, float, float]:
    """Greedy rollouts on uniformly drawn goals; no learning, no buffers.

    The dialogues run in lockstep (``run_greedy_episodes``), one stacked
    forward per turn. That is exact: the goals are drawn lazily, so each
    draw still comes just before its dialogue's reset, the resets are the
    only other draws, and the stacked forward equals each row's own
    forward bit for bit. Means are summed in dialogue order.
    """
    _check_count("eval_dialogues", eval_dialogues)
    n = len(corpus.goals)
    goals = (corpus.goals[int(rng.integers(n))] for _ in range(eval_dialogues))
    results = run_greedy_episodes(q, goals, kb, rng)
    successes = sum(r.success for r in results)
    rewards = sum(r.total_reward for r in results)
    turns = sum(r.turns for r in results)
    return successes / eval_dialogues, rewards / eval_dialogues, turns / eval_dialogues


class _Evaluations:
    """A run's greedy evaluations, each row appended to ``rows`` in epoch order.

    With more than one usable core, outside a pool worker (the pool fills
    every core), an evaluation before the last epoch runs in a forked
    child while the run trains on. The fork is the student's snapshot: the
    child evaluates the parameters as they stood when it was forked and
    pickles back only its result over a pipe. It leaves with ``os._exit``,
    so none of the parent's ``finally`` blocks, atexit hooks or stdio
    flushes run in it.
    """

    def __init__(self, config: TrainConfig, seed: int, student_q: QFunction,
                 corpus: GoalCorpus, kb: KnowledgeBase, rows: list) -> None:
        self.seed, self.last_epoch, self.rows = seed, config.num_epochs, rows
        self.args = (student_q, corpus, kb, config.eval_dialogues)
        self.pid: int | None = None  # the child in flight; start sets its epoch and pipe

    def start(self, epoch: int) -> None:
        """Join the child in flight, then evaluate the student as it stands at ``epoch``."""
        self.join()
        args = (*self.args, np.random.default_rng([self.seed, 6, epoch]))
        if _worker_environment is not None or usable_cores() < 2 or epoch == self.last_epoch:
            self.rows.append((epoch, *evaluate_policy(*args)))
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    outcome = evaluate_policy(*args)
                except Exception as exc:
                    outcome = exc
                data = pickle.dumps(outcome)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.epoch, self.pid, self.pipe = epoch, pid, os.fdopen(read_fd, "rb")

    def join(self) -> None:
        """Append the row of the child in flight, if any; its exception re-raises here."""
        if self.pid is None:
            return
        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not data:
            raise RuntimeError(f"the evaluation of epoch {self.epoch} sent no result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        outcome = pickle.loads(data)
        if isinstance(outcome, Exception):
            raise outcome
        self.rows.append((self.epoch, *outcome))

    def kill(self) -> None:
        """Stop and reap the child in flight, if any."""
        if self.pid is not None:
            # Imported here: the module adds about 0.1 MB to the peak RSS of
            # every process, and only a failed run gets here.
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            self.pipe.close()


def _train(net: str, epoch: int, q: QFunction, *args) -> None:
    """One update stage of a net: its TD steps through its module attribute, read
    when called, then a check that its parameters are still finite. A NeuralError
    the steps raise is raised again naming the net and the epoch."""
    try:
        (student_train_step if net == "student" else teacher_train_step)(q, *args)
    except NeuralError as exc:
        raise NeuralError(f"{net} TD update in epoch {epoch}: {exc}") from None
    if not np.isfinite(q.online_flat).all():
        raise NeuralError(f"{net} parameters became non-finite in epoch {epoch}")


def run_training(config: TrainConfig, seed: int, corpus: GoalCorpus,
                 kb: KnowledgeBase) -> RunResult:
    """One full training run on the given corpus and KB, deterministic in (config, seed).

    Every ``eval_every`` epochs the student is evaluated, perhaps in a
    forked child while the next epochs train (``_Evaluations``). That is
    exact: an evaluation draws only from its own generator, reads only
    the student's parameters, corpus and KB, and training never reads the
    eval rows. However the run ends, no child is left behind.
    """
    if len(corpus) == 0:
        raise ConfigError("cannot train on an empty corpus")
    if len(kb) == 0:
        raise ConfigError("cannot train on an empty knowledge base")

    init_rng, sim_rng, student_rng, teacher_rng, prefill_rng = (
        np.random.default_rng([seed, k]) for k in range(1, 6))

    student_q = QFunction(STATE_DIM, N_ACTIONS, rng=init_rng)
    teacher_q = QFunction(TEACHER_STATE_DIM, len(corpus), rng=init_rng)
    d_student = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
    d_teacher = ReplayBuffer(TEACHER_CAPACITY, TEACHER_STATE_DIM)

    rbs_prefill(d_student, corpus, kb, prefill_rng)
    log.info("warm start done: %d transitions in the student buffer", len(d_student))

    machine = PhaseMachine(config.schedule, corpus, config.epoch_size, alpha=config.alpha)
    x_last: dict[int, float] = {}  # last episode total reward per sampled goal
    state_builder = TeacherStateBuilder(n_goals=len(corpus))
    metrics = MetricsSeries()
    teacher_state = state_builder.build()

    evaluations = _Evaluations(config, seed, student_q, corpus, kb, metrics.eval_rows)
    try:
        for epoch in range(1, config.num_epochs + 1):
            student_q.sync_target()
            teacher_q.sync_target()
            eps = epsilon_at(epoch - 1, config.epsilon_end, config.epsilon_decay_epochs)

            active = machine.active_goal_ids()
            if config.uses_teacher:
                goal_id = teacher_act(teacher_q, teacher_state, eps, teacher_rng, active)
            else:
                goal_id = active[int(teacher_rng.integers(len(active)))]
            raw_r_or = machine.on_goal_sampled(goal_id)
            r_or = raw_r_or if config.uses_orp else 0.0

            goal = corpus.goal(goal_id)
            result = run_episode(goal, kb, epsilon_policy(student_q, eps, student_rng),
                                 sim_rng, on_transition=d_student.push)
            _train("student", epoch, student_q, d_student, student_rng,
                   config.updates_per_epoch)

            x_now = result.total_reward
            x_prev = x_last.get(goal_id, FAILURE_PENALTY)
            x_last[goal_id] = x_now
            # Teacher reward r = r_or + x_now - x_prev: ORP plus learning progress on the goal.
            r = r_or + x_now - x_prev
            metrics.teacher_log.append(TeacherLogRow(
                epoch, goal_id, machine.og[goal_id], r_or, x_now, x_prev, r))

            state_builder.record_episode(goal_id, corpus.tier_of(goal_id),
                                         result.success, x_now, student_q.param_scalar())
            next_teacher_state = state_builder.build()
            if config.uses_teacher:
                d_teacher.push(Transition(teacher_state, goal_id, r,
                                          next_teacher_state, False))
                _train("teacher", epoch, teacher_q, d_teacher, teacher_rng)
            teacher_state = next_teacher_state

            moved = machine.on_episode(epoch, result.success)
            if moved is not None:
                metrics.phase_log.append(moved)
                log.info("phase %s -> %s at epoch %d (%s)",
                         moved.old_phase, moved.new_phase, epoch, moved.trigger)

            if epoch % config.eval_every == 0:
                evaluations.start(epoch)
        evaluations.join()
    finally:
        evaluations.kill()

    return RunResult(config, seed, metrics, student_q)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(metrics: MetricsSeries, path) -> None:
    write_csv(path, ["epoch", "success", "reward", "turns"], metrics.eval_rows)


def write_teacher_log_csv(metrics: MetricsSeries, path) -> None:
    write_csv(path, TeacherLogRow._fields, metrics.teacher_log)


def write_phase_log_csv(metrics: MetricsSeries, path) -> None:
    write_csv(path, ["epoch", "from", "to", "trigger"], metrics.phase_log)


def write_run_logs(metrics: MetricsSeries, out_dir, suffix: str = "") -> dict[str, Path]:
    """Write a run's metrics, teacher-log and phase-log CSVs as ``{kind}{suffix}.csv``."""
    paths = {}
    for kind, write in (("metrics", write_metrics_csv), ("teacher_log", write_teacher_log_csv),
                        ("phase_log", write_phase_log_csv)):
        paths[kind] = Path(out_dir) / f"{kind}{suffix}.csv"
        write(metrics, paths[kind])
    return paths


def _in_prefix(line: bytes, n: int, step: int) -> bool:
    """Whether a cached CSV line falls in a run of ``n`` epochs that logs every
    ``step``-th epoch. A line whose first field is no epoch is kept, so that
    it shows as a difference."""
    field = line.split(b",", 1)[0]
    if not field.isdigit():
        return True
    epoch = int(field)
    return epoch <= n and epoch % step == 0


def cache_difference(run: RunResult, cache_dir) -> str | None:
    """The first line at which a run's logs differ from the cached run's, or None.

    The cached run of the same agent and seed is cut to the run's
    ``num_epochs`` and, for the metrics, its ``eval_every``. Lines are
    compared as bytes, line endings included; a missing file or a missing
    or extra line is a difference. Line numbers count the compared lines.
    """
    n, every = run.config.num_epochs, run.config.eval_every
    with tempfile.TemporaryDirectory() as tmp:
        for kind, path in write_run_logs(run.metrics, tmp, f"_{run.tag}").items():
            step = every if kind == "metrics" else 1
            fresh = path.read_bytes().splitlines(keepends=True)
            cached_path = Path(cache_dir) / path.name
            if not cached_path.is_file():
                return f"{path.name} is missing from {cache_dir}"
            cached = cached_path.read_bytes().splitlines(keepends=True)
            cached = cached[:1] + [line for line in cached[1:] if _in_prefix(line, n, step)]
            if fresh != cached:
                i = next((i for i, (a, b) in enumerate(zip(fresh, cached)) if a != b),
                         min(len(fresh), len(cached)))
                shown = [repr(f[i]) if i < len(f) else "<end of file>" for f in (cached, fresh)]
                return f"{path.name} line {i + 1}\n  cached: {shown[0]}\n  fresh:  {shown[1]}"
    return None


def selection_counts(metrics: MetricsSeries, n_goals: int) -> np.ndarray:
    return np.bincount([row.goal_id for row in metrics.teacher_log], minlength=n_goals)


def curve(series: list[MetricsSeries]) -> list[tuple[int, float, float, float, float]]:
    """Per-epoch (epoch, mean success, var success, mean reward, mean turns)
    over the runs' evaluation rows, in the order given; the variance is the
    population one (ddof 0). The one statistic over seeds."""
    out = []
    for i, (epoch, *_) in enumerate(series[0].eval_rows):
        sr, rew, trn = (np.array([m.eval_rows[i][k] for m in series]) for k in (1, 2, 3))
        out.append((epoch, float(sr.mean()), float(sr.var()),
                    float(rew.mean()), float(trn.mean())))
    return out


@dataclass
class ComparisonReport:
    runs: list[RunResult]

    def curve(self, config: TrainConfig) -> list[tuple[int, float, float, float, float]]:
        """``curve`` over the seeds of the runs trained under ``config``."""
        return curve([run.metrics for run in self.runs if run.config == config])


# A pool worker's corpus and KB, set once by the pool's initializer.
_worker_environment: tuple[GoalCorpus, KnowledgeBase] | None = None


def _set_worker_environment(corpus: GoalCorpus, kb: KnowledgeBase) -> None:
    global _worker_environment
    _worker_environment = corpus, kb


def _train_in_worker(config: TrainConfig, seed: int) -> RunResult:
    """One run in a pool worker, through the module's ``run_training`` as it
    stood when the worker was forked."""
    log.info("run: agent=%s seed=%d", config.agent_kind, seed)
    return run_training(config, seed, *_worker_environment)


def usable_cores() -> int:
    """The size of this process's CPU affinity mask, the one knob for how
    many processes a comparison and a run use; 1 on a platform without
    ``os.sched_getaffinity``, so everything there runs in one process."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def worker_count(n_runs: int) -> int:
    """Pool workers for ``n_runs`` independent runs: one per usable core, never
    more than the runs."""
    return min(usable_cores(), n_runs)


def iter_runs(configs, seeds, corpus: GoalCorpus, kb: KnowledgeBase) -> Iterator[RunResult]:
    """Every (config, seed) pair, configs in the outer loop, yielded in that order.

    The runs share no state, so they train in a pool of forked worker
    processes, as many as ``worker_count`` gives. With one worker they
    train here, one at a time, each when the previous one has been taken;
    ``taskset -c 0`` gives that path to a profiler. Forked workers see the
    module's attributes as the caller left them, patched ones included;
    corpus and KB are inherited, not pickled. A run's exception re-raises
    here. However the generator ends, pending runs are cancelled and every
    worker is joined.
    """
    matrix = [(config, seed) for config in configs for seed in seeds]
    workers = worker_count(len(matrix))
    if workers <= 1:
        for config, seed in matrix:
            log.info("run: agent=%s seed=%d", config.agent_kind, seed)
            yield run_training(config, seed, corpus, kb)
        return
    # Imported here: the two packages add about 1.2 MB to the peak RSS of a
    # process that never pools, such as a single training run.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_environment, initargs=(corpus, kb))
    try:
        yield from pool.map(_train_in_worker, *zip(*matrix))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_comparison(configs, seeds, corpus: GoalCorpus,
                   kb: KnowledgeBase) -> ComparisonReport:
    """Every (config, seed) pair on one corpus and KB (see ``iter_runs``);
    deterministic merge order."""
    return ComparisonReport(list(iter_runs(configs, seeds, corpus, kb)))


def write_curve_csv(report: ComparisonReport, config: TrainConfig, path) -> None:
    write_csv(path, ["epoch", "mean_success", "var_success", "mean_reward", "mean_turns"],
              report.curve(config))
