import argparse
import concurrent.futures
import dataclasses
import errno
import multiprocessing
import os
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from acl_dqn import cli, orchestrator
from acl_dqn.cli import _config_from_args
from acl_dqn.curriculum import orp_penalty
from acl_dqn.neural import NeuralError, QFunction
from acl_dqn.orchestrator import (
    ACCEPTANCE_ENV_SEED,
    ACCEPTANCE_PROFILE,
    AGENT_KINDS,
    AGENTS,
    ComparisonReport,
    ConfigError,
    MetricsSeries,
    RunResult,
    TeacherLogRow,
    TrainConfig,
    cache_difference,
    curve,
    default_environment,
    evaluate_policy,
    iter_runs,
    run_comparison,
    run_training,
    selection_counts,
    write_curve_csv,
    write_metrics_csv,
    write_phase_log_csv,
    write_teacher_log_csv,
)
from acl_dqn.replay import BATCH_SIZE
from acl_dqn.student import N_ACTIONS, STATE_DIM, epsilon_policy, run_episode, run_greedy_episodes
from acl_dqn.user_sim import KnowledgeBase

REPO = Path(__file__).resolve().parent.parent
CACHE = REPO / "results" / "acceptance"
SMALL = TrainConfig(num_epochs=30, eval_every=5, eval_dialogues=5, updates_per_epoch=30)


@pytest.fixture(scope="module")
def small_runs(corpus, kb):
    return {kind: run_training(dataclasses.replace(SMALL, agent_kind=kind), 1,
                               corpus, kb)
            for kind in AGENT_KINDS}


class TestConfig:
    def test_defaults_are_valid(self):
        TrainConfig()

    def test_unknown_agent_rejected(self):
        with pytest.raises(ConfigError, match="unknown agent kind"):
            TrainConfig(agent_kind="sarsa")

    def test_nonpositive_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(num_epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("epoch_size", 0), ("epoch_size", None), ("updates_per_epoch", 0),
        ("updates_per_epoch", -3), ("updates_per_epoch", None), ("alpha", -1.0),
        ("alpha", 2.0), ("alpha", float("nan")), ("alpha", None), ("alpha", "0.5"),
        ("alpha", True), ("epsilon_end", 1.5), ("epsilon_end", None), ("epsilon_end", "0.5"),
        ("num_epochs", None), ("num_epochs", 2.5), ("num_epochs", True), ("eval_every", 2.5),
        ("eval_dialogues", "5"), ("epsilon_decay_epochs", None), ("epsilon_decay_epochs", 0),
        ("epsilon_decay_epochs", False)])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epoch_size", 1), ("updates_per_epoch", 1), ("alpha", 0.0), ("alpha", 1.0),
        ("alpha", 1), ("alpha", np.float32(0.25)), ("epsilon_end", 0.0), ("epsilon_end", 1.0),
        ("epsilon_decay_epochs", 1)])
    def test_range_bounds_are_accepted(self, field, value):
        TrainConfig(**{field: value})

    def test_replace_checks_the_new_value(self):
        with pytest.raises(ConfigError, match="alpha"):
            dataclasses.replace(TrainConfig(agent_kind="acl-c"), alpha=1.5)
        with pytest.raises(ConfigError, match="unknown agent kind"):
            dataclasses.replace(TrainConfig(), agent_kind="sarsa")

    def test_every_field_is_set_by_a_caller(self):
        """A value that neither the acceptance profile nor a CLI flag sets is a constant."""
        args = argparse.Namespace(epochs=7, eval_every=3, eval_dialogues=9, alpha=0.65)
        from_cli = _config_from_args(args, "acl-c")
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        set_by_cli = {name for name in fields
                      if getattr(from_cli, name) != getattr(TrainConfig(), name)}
        assert fields - set(ACCEPTANCE_PROFILE) - set_by_cli == set()

    def test_schedule_and_flags_per_agent(self):
        table = {
            "dqn": ("A", False, False),
            "acl-a": ("A", True, True),
            "acl-a-noorp": ("A", True, False),
            "acl-b": ("B", True, True),
            "acl-c": ("C", True, True),
        }
        for kind, (schedule, teacher, orp) in table.items():
            config = TrainConfig(agent_kind=kind)
            assert (config.schedule, config.uses_teacher, config.uses_orp) == (
                schedule, teacher, orp)

    def test_readme_agent_table_matches_agents(self):
        """The agent table at the top of README.md: every kind once, with its flags."""
        lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| agent | goal set | teacher | ORP |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            agent, _, teacher, orp = (cell.strip() for cell in line.strip("|").split("|"))
            assert {teacher, orp} <= {"yes", "no"}
            rows.append((agent.strip("`"), teacher == "yes", orp == "yes"))
        assert sorted(agent for agent, *_ in rows) == sorted(AGENT_KINDS)
        for agent, teacher, orp in rows:
            assert AGENTS[agent][1:] == (teacher, orp), agent


class TestRunTraining:
    def test_eval_row_cadence(self, small_runs):
        rows = small_runs["dqn"].metrics.eval_rows
        assert [r[0] for r in rows] == list(range(5, 31, 5))

    def test_one_teacher_log_row_per_epoch(self, small_runs):
        for kind in AGENT_KINDS:
            assert len(small_runs[kind].metrics.teacher_log) == 30

    def test_reward_identity_holds_bitwise_in_the_logs(self, small_runs):
        for kind in AGENT_KINDS:
            for row in small_runs[kind].metrics.teacher_log:
                assert row.r == row.r_or + row.x_now - row.x_prev

    def test_x_prev_is_the_goals_last_x_now_or_the_failure_floor(self, small_runs):
        for kind in AGENT_KINDS:
            last = {}
            for row in small_runs[kind].metrics.teacher_log:
                assert row.x_prev == last.get(row.goal_id, -40.0)
                last[row.goal_id] = row.x_now

    def test_r_or_matches_the_penalty_of_the_logged_count(self, small_runs):
        for kind in AGENT_KINDS:
            orp_active = kind not in ("dqn", "acl-a-noorp")
            for row in small_runs[kind].metrics.teacher_log:
                assert row.og >= 1
                expected = orp_penalty(row.og - 1) if orp_active else 0.0
                assert row.r_or == expected

    def test_schedule_a_agents_have_no_phase_transitions(self, small_runs):
        for kind in ("dqn", "acl-a", "acl-a-noorp"):
            assert small_runs[kind].metrics.phase_log == []

    def test_phased_agents_only_sample_in_phase_goals(self, corpus, kb):
        result = run_training(
            dataclasses.replace(SMALL, agent_kind="acl-b", epoch_size=30), 1,
            corpus, kb)
        boundaries = {t.epoch: t.new_phase for t in result.metrics.phase_log}
        assert len(boundaries) == 2
        active, seen = set(corpus.simple), set()
        for row in result.metrics.teacher_log:
            assert row.goal_id in active
            # the ORP counts restart with each phase: a goal's first pick in it is free
            if row.goal_id not in seen:
                assert row.og == 1 and row.r_or == 0.0
            seen.add(row.goal_id)
            if row.epoch in boundaries:
                active, seen = set(corpus.tier_ids(boundaries[row.epoch])), set()

    def test_selection_counts_total_the_epochs(self, small_runs, corpus):
        counts = selection_counts(small_runs["acl-a"].metrics, len(corpus))
        assert counts.sum() == 30

    def test_empty_corpus_rejected(self, kb):
        from acl_dqn.domain import GoalCorpus
        empty = GoalCorpus(())
        with pytest.raises(ConfigError):
            run_training(SMALL, 1, empty, kb)

    def test_empty_knowledge_base_rejected(self, corpus):
        with pytest.raises(ConfigError, match="empty knowledge base"):
            run_training(SMALL, 1, corpus, KnowledgeBase(()))

    def test_same_seed_reproduces_the_metrics_exactly(self, corpus, kb):
        a = run_training(SMALL, 3, corpus, kb)
        b = run_training(SMALL, 3, corpus, kb)
        assert a.metrics.eval_rows == b.metrics.eval_rows
        assert a.metrics.teacher_log == b.metrics.teacher_log

    def test_poisoned_student_parameters_stop_the_run(self, corpus, kb, monkeypatch):
        steps_asked = []

        def poisoned_step(q, buffer, rng, steps=1):
            steps_asked.append(steps)
            q.online["b1"][0] = np.nan
            return None

        monkeypatch.setattr(orchestrator, "student_train_step", poisoned_step)
        with pytest.raises(NeuralError, match="student") as err:
            run_training(SMALL, 1, corpus, kb)
        assert "epoch 1" in str(err.value)
        assert steps_asked == [SMALL.updates_per_epoch]

    @pytest.mark.parametrize("net, agent_kind, epoch", [
        ("student", "dqn", 3),
        ("teacher", "acl-c", 18),
    ], ids=["student", "teacher"])
    def test_non_finite_td_loss_names_the_net_and_the_epoch(self, corpus, kb, monkeypatch,
                                                            net, agent_kind, epoch):
        """A NaN poisoned into the net before its third TD update from a full
        minibatch makes that update's loss non-finite. The student updates
        once per epoch from its prefilled buffer; the teacher's buffer holds
        one transition per epoch, so its third update is in epoch 18."""
        real_step = getattr(orchestrator, f"{net}_train_step")
        updates = []

        def poisoning_step(q, buffer, rng, steps=1):
            if len(buffer) >= BATCH_SIZE:
                updates.append(steps)
                if len(updates) == 3:
                    q.online["b1"][0] = np.nan
            return real_step(q, buffer, rng, steps)

        monkeypatch.setattr(orchestrator, f"{net}_train_step", poisoning_step)
        with pytest.raises(NeuralError) as err:
            run_training(dataclasses.replace(SMALL, agent_kind=agent_kind), 1, corpus, kb)
        assert str(err.value) == f"{net} TD update in epoch {epoch}: non-finite TD loss nan"
        assert len(updates) == 3

    def test_different_seeds_differ(self, corpus, kb):
        a = run_training(SMALL, 3, corpus, kb)
        b = run_training(SMALL, 4, corpus, kb)
        assert a.metrics.teacher_log != b.metrics.teacher_log


class TestEvaluate:
    def test_evaluation_does_not_mutate_the_network(self, small_runs, corpus, kb):
        q = small_runs["dqn"].student_q
        before = {k: v.copy() for k, v in q.online.items()}
        evaluate_policy(q, corpus, kb, 10, np.random.default_rng(0))
        for k, v in q.online.items():
            np.testing.assert_array_equal(v, before[k])

    @pytest.mark.parametrize("n", [0, -2, 2.5, None])
    def test_fewer_than_one_dialogue_refused_before_drawing(self, small_runs, corpus, kb, n):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"eval_dialogues must be an integer >= 1, got {n!r}"):
            evaluate_policy(small_runs["dqn"].student_q, corpus, kb, n, rng)
        assert rng.bit_generator.state == before

    @staticmethod
    def _one_by_one(q, corpus, kb, n, rng):
        """Greedy dialogues played one at a time, each goal drawn just before its reset."""
        return [run_episode(corpus.goals[int(rng.integers(len(corpus.goals)))], kb,
                            epsilon_policy(q, 0.0, rng), rng) for _ in range(n)]

    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize("net", ["fresh", "trained"])
    def test_lockstep_equals_one_by_one(self, small_runs, corpus, kb, net, n):
        q = (small_runs["dqn"].student_q if net == "trained"
             else QFunction(STATE_DIM, N_ACTIONS, rng=np.random.default_rng(2)))
        rng, ref_rng = np.random.default_rng([1, 6, n]), np.random.default_rng([1, 6, n])
        goals = (corpus.goals[int(rng.integers(len(corpus.goals)))] for _ in range(n))
        results = run_greedy_episodes(q, goals, kb, rng)
        reference = self._one_by_one(q, corpus, kb, n, ref_rng)
        assert len(results) == n
        for got, want in zip(results, reference):
            assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_means_are_summed_in_dialogue_order(self, small_runs, corpus, kb):
        q = small_runs["dqn"].student_q
        reference = self._one_by_one(q, corpus, kb, 100, np.random.default_rng(9))
        sums = [0, 0.0, 0]
        for r in reference:
            sums[0] += r.success
            sums[1] += r.total_reward
            sums[2] += r.turns
        assert evaluate_policy(q, corpus, kb, 100, np.random.default_rng(9)) == \
            tuple(total / 100 for total in sums)

    def test_evaluation_deterministic_in_rng(self, small_runs, corpus, kb):
        q = small_runs["dqn"].student_q
        r1 = evaluate_policy(q, corpus, kb, 20, np.random.default_rng(5))
        r2 = evaluate_policy(q, corpus, kb, 20, np.random.default_rng(5))
        assert r1 == r2


class TestCsvOutput:
    def test_metrics_csv_bytes_are_reproducible(self, corpus, kb, tmp_path):
        paths = []
        for i in range(2):
            result = run_training(SMALL, 5, corpus, kb)
            path = tmp_path / f"metrics{i}.csv"
            write_metrics_csv(result.metrics, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_headers_are_pinned(self, small_runs, tmp_path):
        metrics = small_runs["acl-c"].metrics
        write_metrics_csv(metrics, tmp_path / "m.csv")
        write_teacher_log_csv(metrics, tmp_path / "t.csv")
        write_phase_log_csv(metrics, tmp_path / "p.csv")
        assert (tmp_path / "m.csv").read_text().splitlines()[0] == \
            "epoch,success,reward,turns"
        assert (tmp_path / "t.csv").read_text().splitlines()[0] == \
            "epoch,goal_id,og,r_or,x_now,x_prev,r"
        assert (tmp_path / "p.csv").read_text().splitlines()[0] == \
            "epoch,from,to,trigger"

    def test_numpy_scalars_write_the_bytes_of_python_numbers(self, tmp_path):
        eval_rows = [(5, 0.25, -12.5, 17.3), (10, 1 / 3, 0.1, 40.0)]
        log = [(1, 3, 0, -0.0, 70.0, -40.0, 110.0),
               (2, 3, 1, -40 / 11, -41.0, 70.0, -114.63636363636364)]
        python = MetricsSeries(eval_rows=eval_rows,
                               teacher_log=[TeacherLogRow(*row) for row in log])
        numpy = MetricsSeries(
            eval_rows=[(np.int64(row[0]), *map(np.float64, row[1:])) for row in eval_rows],
            teacher_log=[TeacherLogRow(*map(np.int64, row[:3]), *map(np.float64, row[3:]))
                         for row in log])
        for write in (write_metrics_csv, write_teacher_log_csv):
            write(python, tmp_path / "python.csv")
            write(numpy, tmp_path / "numpy.csv")
            assert (tmp_path / "numpy.csv").read_bytes() == \
                (tmp_path / "python.csv").read_bytes()
        assert (tmp_path / "python.csv").read_text().splitlines()[2] == \
            "2,3,1,-3.6363636363636362,-41.0,70.0,-114.63636363636364"

    def test_metrics_row_count(self, small_runs, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(small_runs["dqn"].metrics, path)
        assert len(path.read_text().splitlines()) == 1 + 6


class TestComparisonAndSweep:
    def test_comparison_groups_and_curves(self, small_runs, tmp_path):
        report = ComparisonReport(list(small_runs.values()))
        for run in small_runs.values():
            # One seed per config: its curve is its own eval rows, with no variance.
            assert report.curve(run.config) == [(epoch, success, 0.0, reward, turns)
                                                for epoch, success, reward, turns
                                                in run.metrics.eval_rows]
        config = small_runs["dqn"].config
        assert [row[0] for row in report.curve(config)] == list(range(5, 31, 5))
        # Three seeds worked by hand, on binary-exact values: per epoch the mean
        # and the population variance (ddof 0; ddof 1 gives 0.1875 and 0.25).
        series = [MetricsSeries([(5, s5, reward, turns), (10, s10, reward, turns)])
                  for s5, s10, reward, turns in [(0.0, 0.0, -10.0, 10.0),
                                                 (0.0, 0.5, 20.0, 12.0),
                                                 (0.75, 1.0, 50.0, 20.0)]]
        expected = [(5, 0.25, 0.125, 20.0, 14.0), (10, 0.5, 1 / 6, 20.0, 14.0)]
        assert curve(series) == expected
        # A report's curve is ``curve`` of that config's runs, in run order,
        # with another config's run between them.
        runs = [dataclasses.replace(small_runs["dqn"], seed=seed, metrics=metrics)
                for seed, metrics in enumerate(series, 1)]
        runs.insert(1, small_runs["acl-c"])
        mixed = ComparisonReport(runs)
        for kind in ("dqn", "acl-c"):
            kind_config = small_runs[kind].config
            assert mixed.curve(kind_config) == \
                curve([run.metrics for run in runs if run.config == kind_config])
        assert mixed.curve(config) == expected
        write_curve_csv(report, config, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_text().splitlines()[0] == \
            "epoch,mean_success,var_success,mean_reward,mean_turns"

    def test_sweep_produces_one_report_per_alpha(self, tmp_path, monkeypatch):
        # The alpha sweep is the CLI's sweep-alpha: one run_comparison over every
        # alpha, whose runs are split into one curve per alpha.
        reports = []

        def recording(*args):
            reports.append(run_comparison(*args))
            return reports[-1]

        monkeypatch.setattr(orchestrator, "run_comparison", recording)
        assert cli.main(["sweep-alpha", "--alphas", "0.3,0.7", "--seeds", "1,2",
                         "--epochs", "10", "--eval-every", "5", "--eval-dialogues", "5",
                         "--out", str(tmp_path)]) == 0
        (report,) = reports
        assert [(run.config.agent_kind, run.config.alpha, run.seed) for run in report.runs] \
            == [("acl-c", alpha, seed) for alpha in (0.3, 0.7) for seed in (1, 2)]
        assert all(len(run.metrics.eval_rows) == 2 for run in report.runs)
        (tmp_path / "expected").mkdir()
        for alpha in (0.3, 0.7):
            expected = tmp_path / "expected" / f"{alpha}.csv"
            runs = [run for run in report.runs if run.config.alpha == alpha]
            write_curve_csv(ComparisonReport(runs), runs[0].config, expected)
            assert (tmp_path / f"curve_alpha_{alpha}.csv").read_bytes() == expected.read_bytes()


class TestRunLoop:
    CONFIGS = [TrainConfig(agent_kind="acl-c"), TrainConfig(agent_kind="dqn")]
    TAGS = ["acl-c_seed3", "acl-c_seed1", "dqn_seed3", "dqn_seed1"]

    @pytest.fixture
    def stub_runs(self, monkeypatch, tmp_path):
        """run_training replaced by a stub that records each (agent, seed) it is asked
        for in a file of its own, so that calls made in forked pool workers are seen
        too. Seed 3 finishes last, so a pool completes its runs out of order. Returns
        a function listing the calls in the order they started."""
        def run(config, seed, corpus, kb):
            (tmp_path / f"{time.monotonic_ns():020d},{config.agent_kind},{seed}").touch()
            if seed == 3:
                time.sleep(0.1)
            return RunResult(config, seed, MetricsSeries(), None)

        monkeypatch.setattr(orchestrator, "run_training", run)

        def started():
            calls = sorted(p.name.split(",") for p in tmp_path.iterdir())
            return [(agent, int(seed)) for _, agent, seed in calls]
        return started

    def test_iter_runs_yields_each_run_in_run_comparisons_order(self, stub_runs, corpus, kb,
                                                                usable_cores):
        usable_cores(1)
        runs = iter_runs(self.CONFIGS, [3, 1], corpus, kb)
        assert next(runs).tag == "acl-c_seed3"
        assert stub_runs() == [("acl-c", 3)]
        streamed = ["acl-c_seed3"] + [run.tag for run in runs]
        assert streamed == self.TAGS
        usable_cores(2)
        assert [run.tag for run in run_comparison(self.CONFIGS, [3, 1], corpus, kb).runs] \
            == streamed

    def test_pooled_runs_are_yielded_in_matrix_order(self, stub_runs, corpus, kb,
                                                     usable_cores):
        usable_cores(2)
        assert [run.tag for run in iter_runs(self.CONFIGS, [3, 1], corpus, kb)] == self.TAGS
        assert sorted(stub_runs()) == sorted(
            (c.agent_kind, s) for c in self.CONFIGS for s in (3, 1))

    @pytest.mark.parametrize("cores, seeds, workers", [
        (2, [1, 2, 3], 2), (8, [1, 2, 3], 3), (8, [1], None), (1, [1, 2], None),
    ], ids=["cores", "runs", "one-run", "one-core"])
    def test_worker_count(self, stub_runs, corpus, kb, monkeypatch, usable_cores, cores,
                          seeds, workers):
        """The pool's size is min(usable cores, runs); one worker trains here.
        The pool is a stand-in that runs each job in this process."""
        pools = []

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                assert mp_context.get_start_method() == "fork"
                pools.append(max_workers)
                initializer(*initargs)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait, cancel_futures):
                assert wait and cancel_futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(orchestrator, "_worker_environment", None)
        usable_cores(cores)
        runs = iter_runs([TrainConfig()], seeds, corpus, kb)
        assert [run.seed for run in runs] == seeds
        assert pools == ([] if workers is None else [workers])

    def test_without_an_affinity_mask_the_runs_train_here(self, stub_runs, corpus, kb,
                                                          monkeypatch):
        """A platform without os.sched_getaffinity (macOS, Windows) counts one core
        and so never asks for a fork pool."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert orchestrator.worker_count(5) == 1
        runs = iter_runs(self.CONFIGS, [3, 1], corpus, kb)
        assert next(runs).tag == "acl-c_seed3"
        assert stub_runs() == [("acl-c", 3)]
        assert [run.tag for run in runs] == self.TAGS[1:]
        assert multiprocessing.active_children() == []


class TestRunPool:
    """Forked workers: every path out of iter_runs joins them."""

    @pytest.fixture(autouse=True)
    def two_cores(self, usable_cores):
        usable_cores(2)

    def test_no_worker_outlives_run_comparison(self, corpus, kb):
        config = TrainConfig(num_epochs=2, eval_every=2, eval_dialogues=2)
        report = run_comparison([config], [1, 2], corpus, kb)
        assert [run.tag for run in report.runs] == ["dqn_seed1", "dqn_seed2"]
        assert multiprocessing.active_children() == []

    def test_closing_after_the_first_run_cancels_the_rest(self, corpus, kb, monkeypatch,
                                                          tmp_path):
        def run(config, seed, corpus, kb):
            (tmp_path / str(seed)).touch()
            time.sleep(0.05)
            return RunResult(config, seed, MetricsSeries(), None)

        monkeypatch.setattr(orchestrator, "run_training", run)
        seeds = list(range(20))
        runs = iter_runs([TrainConfig()], seeds, corpus, kb)
        assert next(runs).seed == 0
        runs.close()
        assert multiprocessing.active_children() == []
        assert len(list(tmp_path.iterdir())) < len(seeds)

    def test_a_raising_run_re_raises_here_with_its_type_and_message(self, corpus, kb,
                                                                    monkeypatch):
        def run(config, seed, corpus, kb):
            if seed == 2:
                raise NeuralError("student parameters became non-finite in epoch 7")
            return RunResult(config, seed, MetricsSeries(), None)

        monkeypatch.setattr(orchestrator, "run_training", run)
        runs = iter_runs([TrainConfig()], [1, 2, 3], corpus, kb)
        assert next(runs).seed == 1
        with pytest.raises(NeuralError) as err:
            next(runs)
        assert str(err.value) == "student parameters became non-finite in epoch 7"
        assert multiprocessing.active_children() == []

    def test_pooled_runs_equal_in_process_runs(self, corpus, kb, usable_cores):
        configs = [dataclasses.replace(SMALL, agent_kind=kind) for kind in ("dqn", "acl-c")]
        pooled = run_comparison(configs, [1, 2], corpus, kb).runs
        usable_cores(1)
        here = run_comparison(configs, [1, 2], corpus, kb).runs
        for a, b in zip(here, pooled, strict=True):
            assert (a.tag, a.metrics) == (b.tag, b.metrics)
            for name in ("online_flat", "target_flat", "_adam_m", "_adam_v"):
                np.testing.assert_array_equal(getattr(a.student_q, name),
                                              getattr(b.student_q, name))


class TestOverlappedEvaluation:
    """With two usable cores a run's evaluations but the last run in forked
    children while it trains on; every path out of run_training reaps them."""

    CONFIG = TrainConfig(agent_kind="acl-c", num_epochs=16, eval_every=5, eval_dialogues=10,
                         updates_per_epoch=30)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_overlapped_run_writes_the_bytes_of_an_in_process_run(self, corpus, kb, tmp_path,
                                                                   usable_cores, forks):
        written = []
        for cores in (1, 2):
            usable_cores(cores)
            run = run_training(self.CONFIG, 1, corpus, kb)
            out = tmp_path / str(cores)
            out.mkdir()
            orchestrator.write_run_logs(run.metrics, out)
            run.student_q.save(out / "student.qfn")
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        # The evaluations of epochs 5, 10 and 15 were forked; the one at 15
        # is joined after the last epoch.
        assert len(forks) == 3
        assert [row[0] for row in run.metrics.eval_rows] == [5, 10, 15]
        assert written[0] == written[1]
        self.assert_no_child_left()

    def test_a_childs_exception_re_raises_here_with_its_message(self, corpus, kb, monkeypatch,
                                                               usable_cores):
        usable_cores(2)
        parent = os.getpid()

        def failing(*args):
            raise ValueError(f"evaluated in a child: {os.getpid() != parent}")

        monkeypatch.setattr(orchestrator, "run_greedy_episodes", failing)
        with pytest.raises(ValueError) as err:
            run_training(dataclasses.replace(self.CONFIG, num_epochs=7), 1, corpus, kb)
        assert str(err.value) == "evaluated in a child: True"
        self.assert_no_child_left()

    def test_a_child_that_dies_without_a_result_names_its_epoch(self, corpus, kb, monkeypatch,
                                                                 usable_cores):
        usable_cores(2)
        monkeypatch.setattr(orchestrator, "run_greedy_episodes", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError) as err:
            run_training(dataclasses.replace(self.CONFIG, num_epochs=7), 1, corpus, kb)
        assert str(err.value) == "the evaluation of epoch 5 sent no result (exit code 3)"
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [NeuralError("student parameters became non-finite"),
                                       KeyboardInterrupt()],
                             ids=["NeuralError", "KeyboardInterrupt"])
    def test_a_failed_run_leaves_no_child(self, corpus, kb, monkeypatch, usable_cores, forks,
                                          error):
        usable_cores(2)
        greedy = orchestrator.run_greedy_episodes

        def slow(*args):
            time.sleep(10)  # still evaluating when training fails
            return greedy(*args)

        calls = []
        student_step = orchestrator.student_train_step

        def fail_at_epoch_7(*args):
            calls.append(None)
            if len(calls) == 7:  # the student trains once per epoch
                raise error
            return student_step(*args)

        monkeypatch.setattr(orchestrator, "run_greedy_episodes", slow)
        monkeypatch.setattr(orchestrator, "student_train_step", fail_at_epoch_7)
        start = time.monotonic()
        with pytest.raises(type(error)):
            run_training(self.CONFIG, 1, corpus, kb)
        assert len(forks) == 1
        assert time.monotonic() - start < 5
        self.assert_no_child_left()

    def test_an_interrupt_while_waiting_at_a_join_leaves_no_child(self, corpus, kb,
                                                                 monkeypatch, usable_cores,
                                                                 forks):
        usable_cores(2)
        greedy = orchestrator.run_greedy_episodes
        landed = []

        def slow(*args):
            time.sleep(10)  # the epoch-10 join waits on this child
            return greedy(*args)

        def interrupt(signum, frame):
            landed.append(frame.f_code.co_name)
            raise KeyboardInterrupt

        monkeypatch.setattr(orchestrator, "run_greedy_episodes", slow)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_training(self.CONFIG, 1, corpus, kb)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert landed == ["join"]
        assert len(forks) == 1
        assert time.monotonic() - start < 5
        self.assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_leaves_no_open_pipe(self, corpus, kb, monkeypatch, usable_cores):
        def failing():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        usable_cores(2)
        monkeypatch.setattr(os, "fork", failing)
        before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as err:
            run_training(self.CONFIG, 1, corpus, kb)
        assert err.value.errno == errno.EAGAIN
        assert set(os.listdir("/proc/self/fd")) == before

    def test_one_core_or_a_pool_worker_never_forks(self, corpus, kb, monkeypatch, usable_cores):
        def refused():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refused)
        usable_cores(1)
        here = run_training(self.CONFIG, 1, corpus, kb)
        usable_cores(2)
        monkeypatch.setattr(orchestrator, "_worker_environment", (corpus, kb))
        in_worker = run_training(self.CONFIG, 1, corpus, kb)
        assert here.metrics == in_worker.metrics
        assert [row[0] for row in here.metrics.eval_rows] == [5, 10, 15]


def _bump_last_digit(line: bytes) -> bytes:
    body = line.rstrip(b"\r\n")
    assert body[-1:].isdigit()
    return body[:-1] + str((int(body[-1:]) + 1) % 10).encode() + line[len(body):]


class TestCacheDifference:
    """A 10-epoch dqn seed-1 run against copies of its cached logs."""

    @pytest.fixture(scope="class")
    def run(self):
        config = TrainConfig(agent_kind="dqn", **{**ACCEPTANCE_PROFILE, "num_epochs": 10})
        return run_training(config, 1, *default_environment(ACCEPTANCE_ENV_SEED))

    @pytest.fixture
    def cache(self, tmp_path):
        for kind in ("metrics", "teacher_log", "phase_log"):
            shutil.copy(CACHE / f"{kind}_dqn_seed1.csv", tmp_path)
        return tmp_path

    def test_the_cached_prefix_matches(self, run, cache):
        assert cache_difference(run, cache) is None

    @pytest.mark.parametrize("kind, index, edit", [
        ("teacher_log", 4, _bump_last_digit),
        ("metrics", 2, lambda line: b""),  # the row of epoch 10, the run's last
        ("phase_log", 1, lambda line: b"3,1,2,mastery\r\n" + line),
        ("teacher_log", 6, lambda line: line.replace(b"\r\n", b"\n")),
        ("teacher_log", 5, lambda line: line.replace(b",", b";", 1)),
    ], ids=["changed-digit", "missing-row", "extra-row", "line-ending", "no-epoch-field"])
    def test_a_planted_difference_names_file_and_line(self, run, cache, kind, index, edit):
        path = cache / f"{kind}_dqn_seed1.csv"
        lines = path.read_bytes().splitlines(keepends=True) + [b""]
        lines[index] = edit(lines[index])
        path.write_bytes(b"".join(lines))
        difference = cache_difference(run, cache)
        assert difference is not None
        assert difference.startswith(f"{path.name} line {index + 1}\n  cached: ")
        assert "\n  fresh:  " in difference

    def test_a_missing_file_is_a_difference(self, run, cache):
        (cache / "phase_log_dqn_seed1.csv").unlink()
        assert cache_difference(run, cache) == f"phase_log_dqn_seed1.csv is missing from {cache}"


class TestDefaultEnvironment:
    def test_deterministic_and_consistent(self):
        c1, kb1 = default_environment(2)
        c2, kb2 = default_environment(2)
        assert c1 == c2
        assert kb1.rows == kb2.rows
        assert len(c1) == 128
