import csv
import dataclasses
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from acl_dqn import cli
from acl_dqn.cli import main, render_act, run_chat_session
from acl_dqn.domain import ActType, DialogueAct, inform_act, request_act
from acl_dqn.neural import QFunction
from acl_dqn.orchestrator import (ACCEPTANCE_AGENTS, ACCEPTANCE_ENV_SEED, ACCEPTANCE_PROFILE,
                                  ACCEPTANCE_SEEDS, TrainConfig)
from acl_dqn.student import N_ACTIONS, STATE_DIM
from acl_dqn.user_sim import designated_row

REPO = Path(__file__).resolve().parent.parent
FAST = ["--epochs", "12", "--eval-every", "4", "--eval-dialogues", "4"]


WARM_START_ERROR = \
    "error: warm start: none of 120 rule-agent dialogues succeeded on this corpus\n"


def _goals_nowhere_in_the_kb(tmp_path):
    """The default corpus with every inform value set to one no KB row holds."""
    main(["gen-goals", "--seed", "1", "--out", str(tmp_path)])
    records = [json.loads(line) for line in
               (tmp_path / "goals.jsonl").read_text().splitlines()]
    goals = tmp_path / "nowhere.jsonl"
    goals.write_text("".join(
        json.dumps(dict(r, inform_slots=dict.fromkeys(r["inform_slots"], "nowhere")))
        + "\n" for r in records))
    return goals


@pytest.fixture
def few_updates(monkeypatch):
    """CLI runs train 30 student TD steps per epoch, not 120, as SMALL does in
    test_orchestrator.py: for runs checked for files, bytes or exit codes."""
    config_from_args = cli._config_from_args
    monkeypatch.setattr(cli, "_config_from_args", lambda args, agent: dataclasses.replace(
        config_from_args(args, agent), updates_per_epoch=30))


def _train(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["train", "--agent", "dqn", "--seed", "1",
                 "--out", str(out), *FAST, *extra])
    assert code == 0
    return out


class TestGeneration:
    def test_gen_goals_writes_128_lines(self, tmp_path, capsys):
        assert main(["gen-goals", "--seed", "2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "goals.jsonl").read_text().splitlines()
        assert len(lines) == 128
        assert "128 goals" in capsys.readouterr().out

    def test_gen_goals_custom_sizes(self, tmp_path):
        assert main(["gen-goals", "--sizes", "4,6,2",
                     "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "goals.jsonl").read_text().splitlines()) == 12

    def test_gen_goals_bad_sizes_exits_2(self, tmp_path, capsys):
        assert main(["gen-goals", "--sizes", "4,6", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_gen_goals_non_numeric_sizes_exits_2(self, tmp_path, capsys):
        assert main(["gen-goals", "--sizes", "a,b,c", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: --sizes expects int values, got 'a,b,c'\n"

    @pytest.mark.parametrize("sizes", ["0,5,5", "5,-3,5"])
    def test_gen_goals_sizes_below_one_exit_2(self, tmp_path, capsys, sizes):
        assert main(["gen-goals", "--sizes", sizes, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --sizes must all be >= 1, got {sizes!r}\n"
        assert not (tmp_path / "goals.jsonl").exists()

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_gen_kb_rows_below_one_exit_2(self, tmp_path, capsys, rows):
        assert main(["gen-kb", "--rows", rows, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --rows must be >= 1, got {rows}\n"
        assert not (tmp_path / "kb.jsonl").exists()

    def test_gen_kb_writes_rows(self, tmp_path):
        assert main(["gen-kb", "--rows", "50", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "kb.jsonl").read_text().splitlines()) == 50

    def test_outputs_are_deterministic_in_seed(self, tmp_path):
        for sub in ("a", "b"):
            main(["gen-goals", "--seed", "3", "--out", str(tmp_path / sub)])
        assert (tmp_path / "a" / "goals.jsonl").read_bytes() == \
            (tmp_path / "b" / "goals.jsonl").read_bytes()


class TestTrain:
    @pytest.mark.usefixtures("few_updates")
    def test_writes_expected_artifacts(self, tmp_path):
        out = _train(tmp_path)
        for name in ("metrics.csv", "teacher_log.csv", "phase_log.csv",
                     "student.qfn"):
            assert (out / name).exists(), name
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 12 // 4

    @pytest.mark.usefixtures("few_updates")
    def test_no_writes_outside_out_dir(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        _train(tmp_path)
        assert list(cwd.iterdir()) == []

    @pytest.mark.usefixtures("few_updates")
    def test_repeat_run_is_byte_identical(self, tmp_path):
        a = _train(tmp_path / "a")
        b = _train(tmp_path / "b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "teacher_log.csv").read_bytes() == \
            (b / "teacher_log.csv").read_bytes()

    def test_zero_epochs_exits_2(self, tmp_path, capsys):
        code = main(["train", "--epochs", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "num_epochs" in capsys.readouterr().err

    def test_unknown_agent_exits_2(self, tmp_path, capsys):
        code = main(["train", "--agent", "reinforce", "--out", str(tmp_path),
                     *FAST])
        assert code == 2
        assert "unknown agent kind" in capsys.readouterr().err

    @pytest.mark.usefixtures("few_updates")
    def test_explicit_corpus_and_kb_files(self, tmp_path):
        main(["gen-goals", "--seed", "1", "--out", str(tmp_path)])
        main(["gen-kb", "--seed", "1", "--out", str(tmp_path)])
        out = _train(tmp_path, "--goals", str(tmp_path / "goals.jsonl"),
                     "--kb", str(tmp_path / "kb.jsonl"))
        assert (out / "metrics.csv").exists()

    def test_kb_missing_slot_exits_1(self, tmp_path, capsys):
        main(["gen-kb", "--seed", "1", "--out", str(tmp_path)])
        rows = [json.loads(line) for line in
                (tmp_path / "kb.jsonl").read_text().splitlines()]
        kb = tmp_path / "short_kb.jsonl"
        kb.write_text("".join(
            json.dumps({s: v for s, v in r.items() if s != "price"}) + "\n"
            for r in rows))
        capsys.readouterr()
        code = main(["train", "--kb", str(kb), "--out", str(tmp_path / "run"), *FAST])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1: missing slot 'price'\n"

    def test_missing_goals_file_exits_1(self, tmp_path, capsys):
        code = main(["train", "--goals", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path), *FAST])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("informs, requested", [({"town": "x"}, "date"),
                                                    ({"city": "x"}, "town"),
                                                    ({"town": "x"}, "venue")],
                             ids=["inform", "request", "both"])
    def test_goal_with_unknown_slot_names_line(self, tmp_path, capsys, informs, requested):
        goals = tmp_path / "goals.jsonl"
        goals.write_text(json.dumps(
            {"id": 0, "inform_slots": informs, "request_slots": [requested]}) + "\n")
        code = main(["train", "--goals", str(goals), "--out", str(tmp_path / "run"), *FAST])
        assert code == 1
        assert capsys.readouterr().err == "error: line 1: slot 'town' not in ontology\n"

    def test_warm_start_without_a_success_exits_1(self, tmp_path, capsys):
        goals = _goals_nowhere_in_the_kb(tmp_path)
        capsys.readouterr()
        out = tmp_path / "run"
        code = main(["train", "--agent", "dqn", "--epochs", "2", "--eval-every", "1",
                     "--goals", str(goals), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == WARM_START_ERROR
        assert not out.exists()

    def test_empty_kb_file_exits_1(self, tmp_path, capsys):
        kb = tmp_path / "empty_kb.jsonl"
        kb.write_text("")
        code = main(["train", "--kb", str(kb), "--out", str(tmp_path / "run"), *FAST])
        assert code == 1
        assert capsys.readouterr().err == f"error: {kb} holds no rows\n"


class TestEval:
    @pytest.mark.usefixtures("few_updates")
    def test_eval_prints_metrics_and_leaves_checkpoint_untouched(
            self, tmp_path, capsys):
        out = _train(tmp_path)
        checkpoint = out / "student.qfn"
        before = checkpoint.read_bytes()
        code = main(["eval", "--checkpoint", str(checkpoint), "--seed", "1",
                     "--eval-dialogues", "10"])
        assert code == 0
        assert "success=" in capsys.readouterr().out
        assert checkpoint.read_bytes() == before

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "no.qfn")])
        assert code == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_eval_dialogues_below_one_exits_2(self, tmp_path, capsys, count):
        checkpoint = tmp_path / "student.qfn"
        TestChat._net().save(checkpoint)
        code = main(["eval", "--checkpoint", str(checkpoint),
                     "--eval-dialogues", count])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: eval_dialogues must be an integer >= 1, got {count}\n"
        assert captured.out == ""

    def test_eval_dialogues_below_one_is_the_error_train_prints(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
        checkpoint = tmp_path / "student.qfn"
        TestChat._net().save(checkpoint)
        errors = []
        for argv in (["train", "--out", str(tmp_path / "out")],
                     ["eval", "--checkpoint", str(checkpoint)]):
            assert main([*argv, "--eval-dialogues", "0"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: eval_dialogues must be an integer >= 1, got 0\n"] * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "chat"])
    def test_empty_goals_file_exits_1(self, tmp_path, capsys, command):
        checkpoint = tmp_path / "student.qfn"
        TestChat._net().save(checkpoint)
        goals = tmp_path / "empty_goals.jsonl"
        goals.write_text("")
        out = ["--out", str(tmp_path / "out")] if command == "chat" else []
        code = main([command, "--checkpoint", str(checkpoint), "--goals", str(goals), *out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {goals} holds no goals\n"
        assert not (tmp_path / "out").exists()

    def test_bad_checkpoint_header_exits_1(self, tmp_path, capsys):
        checkpoint = tmp_path / "bad.qfn"
        checkpoint.write_text("not-a-checkpoint\n")
        code = main(["eval", "--checkpoint", str(checkpoint)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {checkpoint} line 1: unrecognized checkpoint header 'not-a-checkpoint'\n"

    @pytest.mark.parametrize("command", ["eval", "chat"])
    @pytest.mark.parametrize("case", ["30 outputs", "nan weight", "negative dim",
                                      "word for a dim", "typo in a weight",
                                      "nan learning rate", "negative learning rate",
                                      "nan clip norm", "-inf clip norm"])
    def test_checkpoint_it_cannot_run_exits_1(self, tmp_path, capsys, command, case):
        checkpoint = tmp_path / "student.qfn"
        n_outputs = 30 if case == "30 outputs" else N_ACTIONS
        QFunction(STATE_DIM, n_outputs, hidden_dim=8,
                  rng=np.random.default_rng(0)).save(checkpoint)
        lines = checkpoint.read_text().splitlines(keepends=True)
        if case == "nan weight":
            lines[2] = "nan " + lines[2].split(" ", 1)[1]
        if case == "negative dim":
            lines[1] = "-3 4 5 0.001 1.0\n"
        if case == "word for a dim":
            lines[1] = lines[1].replace(" 8 ", " eighty ")
        if case == "typo in a weight":
            lines[2] = "0.1x " + lines[2].split(" ", 1)[1]
        hyperparameter = {"nan learning rate": (3, "nan"), "negative learning rate": (3, "-0.5"),
                          "nan clip norm": (4, "nan"), "-inf clip norm": (4, "-inf")}
        if case in hyperparameter:
            column, text = hyperparameter[case]
            fields = lines[1].split()
            fields[column] = text
            lines[1] = " ".join(fields) + "\n"
        checkpoint.write_text("".join(lines))
        message = {
            "30 outputs": f"{checkpoint} maps {STATE_DIM} inputs to 30 outputs; "
                          f"a student net maps {STATE_DIM} to {N_ACTIONS}",
            "nan weight": f"{checkpoint} line 3: online w1 holds a non-finite value",
            "negative dim": f"{checkpoint} line 2: input_dim must be >= 1, got -3",
            "word for a dim": f"{checkpoint} line 2: hidden_dim: "
                              "invalid literal for int() with base 10: 'eighty'",
            "typo in a weight": f"{checkpoint} line 3: online w1: "
                                "could not convert string to float: '0.1x'",
            "nan learning rate": f"{checkpoint} line 2: learning_rate must be finite "
                                 "and >= 0, got nan",
            "negative learning rate": f"{checkpoint} line 2: learning_rate must be finite "
                                      "and >= 0, got -0.5",
            "nan clip norm": f"{checkpoint} line 2: clip_norm must be finite and >= 0, got nan",
            "-inf clip norm": f"{checkpoint} line 2: clip_norm must be finite and >= 0, "
                              "got -inf",
        }[case]
        out = ["--out", str(tmp_path / "out")] if command == "chat" else []
        assert main([command, "--checkpoint", str(checkpoint), *out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_flag_eval_does_not_read_exits_2(self, tmp_path):
        checkpoint = tmp_path / "student.qfn"
        TestChat._net().save(checkpoint)
        assert main(["eval", "--checkpoint", str(checkpoint), "--eval-every", "3"]) == 2


class TestCompare:
    @pytest.mark.usefixtures("few_updates")
    def test_writes_one_curve_per_agent(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--agents", "dqn,acl-c", "--seeds", "1,2",
                     "--out", str(out), *FAST])
        assert code == 0
        assert (out / "curve_dqn.csv").exists()
        assert (out / "curve_acl-c.csv").exists()
        assert (out / "stability.csv").exists()
        assert (out / "selection_counts.csv").exists()
        stability = (out / "stability.csv").read_text().splitlines()
        assert stability[0] == "agent,final_mean_success,final_var_success"
        assert len(stability) == 3

    @pytest.mark.usefixtures("few_updates")
    def test_stability_values_are_the_last_curve_rows(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--agents", "dqn,acl-c", "--seeds", "1,2",
                     "--out", str(out), *FAST]) == 0
        with open(out / "stability.csv", newline="") as fh:
            stability = list(csv.reader(fh))
        assert [row[0] for row in stability[1:]] == ["dqn", "acl-c"]
        for agent, mean, var in stability[1:]:
            with open(out / f"curve_{agent}.csv", newline="") as fh:
                last = list(csv.reader(fh))[-1]
            assert last[0] == "12"
            assert (float(mean), float(var)) == (float(last[1]), float(last[2]))

    @pytest.mark.usefixtures("few_updates")
    def test_pooled_and_in_process_comparisons_write_the_same_bytes(self, tmp_path,
                                                                    usable_cores):
        argv = ["compare", "--agents", "dqn,acl-c", "--seeds", "1,2", *FAST]
        usable_cores(1)
        assert main([*argv, "--out", str(tmp_path / "here")]) == 0
        usable_cores(2)
        assert main([*argv, "--out", str(tmp_path / "pooled")]) == 0
        written = sorted(p.name for p in (tmp_path / "here").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "pooled").iterdir())
        assert len(written) == 4
        for name in written:
            assert (tmp_path / "here" / name).read_bytes() == \
                (tmp_path / "pooled" / name).read_bytes()

    @pytest.mark.usefixtures("few_updates")
    def test_seed_range_syntax(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--agents", "dqn", "--seeds", "1..2",
                     "--out", str(out), *FAST])
        assert code == 0
        counts = (out / "selection_counts.csv").read_text().splitlines()
        assert len(counts) == 3  # header + one row per (agent, seed)

    def test_unknown_agent_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--agents", "dqn,bogus",
                     "--out", str(tmp_path), *FAST])
        assert code == 2
        assert "unknown agent" in capsys.readouterr().err

    def test_eval_every_beyond_epochs_exits_2_before_training(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
        code = main(["compare", "--agents", "dqn", "--seeds", "1", "--out", str(tmp_path),
                     "--epochs", "3", "--eval-every", "5"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --eval-every 5 exceeds --epochs 3: no evaluation to compare\n"

    def test_empty_seed_range_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--agents", "dqn", "--seeds", "5..1",
                     "--out", str(tmp_path), *FAST])
        assert code == 2
        assert "error: --seeds range '5..1' is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["x", "1..x", "1,2.5"])
    def test_non_numeric_seeds_exits_2(self, tmp_path, capsys, seeds):
        code = main(["compare", "--agents", "dqn", "--seeds", seeds,
                     "--out", str(tmp_path), *FAST])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: --seeds expects int values, got {seeds!r}\n"

    @pytest.mark.parametrize("rewrite, message", [
        (lambda rs: [dict(r, id=r["id"] + 1000) for r in rs],
         "line 1: goal id 1000, expected 0"),
        (lambda rs: rs[::-1], "line 1: goal id 127, expected 0"),
    ], ids=["shifted", "reversed"])
    def test_corpus_with_ids_off_position_exits_1(self, tmp_path, capsys,
                                                  rewrite, message):
        main(["gen-goals", "--seed", "1", "--out", str(tmp_path)])
        lines = (tmp_path / "goals.jsonl").read_text().splitlines()
        records = rewrite([json.loads(line) for line in lines])
        goals = tmp_path / "rewritten.jsonl"
        goals.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        code = main(["compare", "--agents", "dqn", "--seeds", "1",
                     "--goals", str(goals), "--out", str(tmp_path / "cmp"), *FAST])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_reproduce_script_builds_the_cached_runs_configs(self):
        """scripts/reproduce.sh's comparison trains each cached agent under the
        cached run's config, on the cached run's corpus and KB. A run is
        deterministic in (config, seed), so nothing needs training here."""
        script = (REPO / "scripts" / "reproduce.sh").read_text(encoding="utf-8")
        command = next(c for c in script.replace("\\\n", " ").splitlines()
                       if c.startswith("acl-dqn compare "))
        args = cli.build_parser().parse_args(shlex.split(command)[1:])
        configs = {a: cli._config_from_args(args, a) for a in args.agents.split(",")}
        for agent in ACCEPTANCE_AGENTS:
            assert configs[agent] == TrainConfig(agent_kind=agent, **ACCEPTANCE_PROFILE)
        seeds = cli._parse_seeds(args.seeds)
        assert seeds[0] == ACCEPTANCE_ENV_SEED
        assert set(ACCEPTANCE_SEEDS) <= set(seeds)

    def test_bare_flags_build_the_default_configs(self, tmp_path, monkeypatch):
        """train, compare and sweep-alpha with no run flag train under TrainConfig's
        defaults; nothing trains here."""
        built = []

        def stop(configs, *args):
            built.append(configs)
            raise _Built

        monkeypatch.setattr(cli.orchestrator, "run_training", lambda c, *a: stop([c]))
        monkeypatch.setattr(cli.orchestrator, "run_comparison", stop)
        for command in ("train", "compare", "sweep-alpha"):
            with pytest.raises(_Built):
                main([command, "--out", str(tmp_path / command)])
        assert built == [
            [TrainConfig(agent_kind="dqn")],
            [TrainConfig(agent_kind=a) for a in ("dqn", "acl-a", "acl-b", "acl-c")],
            [TrainConfig(agent_kind="acl-c", alpha=a) for a in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]]
        assert list(tmp_path.iterdir()) == []


class TestSweepAlpha:
    @pytest.mark.usefixtures("few_updates")
    def test_one_curve_per_alpha(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--alphas", "0.3,0.7", "--seeds", "1",
                     "--out", str(out), *FAST])
        assert code == 0
        assert (out / "curve_alpha_0.3.csv").exists()
        assert (out / "curve_alpha_0.7.csv").exists()

    def test_non_numeric_alphas_exits_2(self, tmp_path, capsys):
        code = main(["sweep-alpha", "--alphas", "0.5,x", "--seeds", "1",
                     "--out", str(tmp_path), *FAST])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --alphas expects float values, got '0.5,x'\n"

    def test_eval_every_beyond_epochs_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--alphas", "0.5", "--seeds", "1", "--out", str(out),
                     "--epochs", "3", "--eval-every", "5"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --eval-every 5 exceeds --epochs 3: no evaluation to compare\n"
        assert not out.exists()


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


class _Built(Exception):
    """Raised in place of training once a command has built its configs."""


@pytest.mark.parametrize("argv", [["compare", "--agents", "dqn", "--seeds", "1"],
                                  ["sweep-alpha", "--alphas", "0.5", "--seeds", "1"],
                                  ["compare", "--agents", "dqn,acl-c", "--seeds", "1,2"],
                                  ["sweep-alpha", "--alphas", "0.5", "--seeds", "1,2"]],
                         ids=["compare", "sweep-alpha", "compare-pooled", "sweep-alpha-pooled"])
def test_failed_run_exits_1_and_makes_no_out_dir(argv, tmp_path, capsys, usable_cores):
    usable_cores(2)
    goals = _goals_nowhere_in_the_kb(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([*argv, "--epochs", "2", "--eval-every", "1", "--goals", str(goals),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == WARM_START_ERROR
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["compare", "--agents", "dqn,acl-c,dqn", "--seeds", "1"], "--agents repeats 'dqn'"),
    (["sweep-alpha", "--alphas", "0.5,0.3,0.50", "--seeds", "1"], "--alphas repeats 0.5"),
    (["compare", "--agents", "dqn", "--seeds", "1,1"], "--seeds repeats 1"),
    (["sweep-alpha", "--alphas", "0.5", "--seeds", "2,1,2"], "--seeds repeats 2"),
])
def test_repeated_list_value_exits_2_before_training(argv, message, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
    assert main([*argv, "--out", str(tmp_path), *FAST]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["train", "--alpha", "1.5"],
                                  ["sweep-alpha", "--alphas", "1.5", "--seeds", "1"],
                                  ["sweep-alpha", "--alphas", "0.5,1.5", "--seeds", "1"]])
def test_alpha_outside_unit_interval_exits_2_before_training(argv, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), *FAST]) == 2
    assert "alpha must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gen-kb", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gen-goals", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["chat", "--checkpoint", "student.qfn", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["compare", "--agents", "dqn", "--seeds=-1,2"], "--seeds must all be >= 0, got '-1,2'"),
    (["compare", "--agents", "dqn", "--seeds=-2..1"], "--seeds must all be >= 0, got '-2..1'"),
    (["sweep-alpha", "--alphas", "0.5", "--seeds=-1,2"],
     "--seeds must all be >= 0, got '-1,2'"),
], ids=["train", "gen-kb", "gen-goals", "chat", "compare", "compare-range", "sweep-alpha"])
def test_negative_seed_exits_2_before_anything_is_made(argv, message, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli.orchestrator, "run_training", _no_training)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_eval_seed_exits_2(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "student.qfn"), "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")


class TestChat:
    @staticmethod
    def _net():
        return QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8,
                         rng=np.random.default_rng(0))

    def test_early_quit_is_a_failed_dialogue(self, corpus, kb):
        record = run_chat_session(
            self._net(), corpus.goals[0], kb, np.random.default_rng(1),
            stdin=io.StringIO("quit\n"), stdout=io.StringIO())
        assert record["success"] is False
        assert record["score"] is None
        assert record["transcript"][0][0] == "user"

    def test_eof_ends_the_dialogue(self, corpus, kb):
        record = run_chat_session(
            self._net(), corpus.goals[0], kb, np.random.default_rng(1),
            stdin=io.StringIO(""), stdout=io.StringIO())
        assert record["success"] is False

    def test_menu_accepts_typed_acts(self, corpus, kb):
        stdin = io.StringIO("thanks\nquit\n")
        record = run_chat_session(
            self._net(), corpus.goals[0], kb, np.random.default_rng(1),
            stdin=stdin, stdout=io.StringIO())
        acts = [turn[1] for turn in record["transcript"] if turn[0] == "user"]
        assert "thanks" in acts

    def test_mistyped_input_is_asked_again(self, corpus, kb):
        stdout = io.StringIO()
        record = run_chat_session(
            self._net(), corpus.goals[0], kb, np.random.default_rng(1),
            stdin=io.StringIO("hello\nrequest\nnosuchslot\nquit\n"), stdout=stdout)
        assert record["success"] is False
        assert [turn[0] for turn in record["transcript"]] == ["user", "system"]
        text = stdout.getvalue()
        assert "'hello' is not a valid ActType" in text
        assert "slot 'nosuchslot' not in ontology" in text
        assert text.count("your act") == 3

    @pytest.mark.parametrize("line", ["city", "city=", "city=UNK"])
    def test_malformed_inform_is_asked_again(self, corpus, kb, line):
        stdout = io.StringIO()
        record = run_chat_session(
            self._net(), corpus.goals[0], kb, np.random.default_rng(1),
            stdin=io.StringIO(f"inform\n{line}\nthanks\nquit\n"), stdout=stdout)
        assert [turn[1] for turn in record["transcript"] if turn[0] == "user"][1:] \
            == ["thanks"]
        assert "not understood" in stdout.getvalue()

    @pytest.mark.parametrize("line, score", [
        ("0", None), ("1", 1), ("10", 10), ("11", None), ("42", None),
        ("x", None), ("\u00b2", None)])
    def test_score_is_kept_only_from_1_to_10(self, corpus, kb, monkeypatch, line, score):
        goal = corpus.goals[0]
        row = designated_row(kb, goal)
        script = [inform_act(**{s: row[s]}) for s in goal.request_slots]
        script.append(DialogueAct(ActType.BOOK))
        acts = iter(script)
        monkeypatch.setattr(cli, "materialize", lambda action, ctx: next(acts))
        record = run_chat_session(
            self._net(), goal, kb, np.random.default_rng(1),
            stdin=io.StringIO("thanks\n" * len(script) + line + "\n"),
            stdout=io.StringIO())
        assert record["success"] is True
        assert record["score"] == score

    def test_chat_subcommand_logs_and_is_pure_inference(self, tmp_path,
                                                        run_cli):
        out = _train(tmp_path)
        checkpoint = out / "student.qfn"
        before = checkpoint.read_bytes()
        proc = run_cli("chat", "--checkpoint", str(checkpoint), "--seed", "1",
                       "--out", str(tmp_path / "chat"),
                       input="quit\n", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "failed" in proc.stdout
        assert checkpoint.read_bytes() == before
        log_lines = (tmp_path / "chat" / "chat_log.jsonl").read_text().splitlines()
        record = json.loads(log_lines[-1])
        assert record["success"] is False


class TestRendering:
    def test_request_and_inform_templates(self):
        assert render_act(request_act("city")) == "May I ask: what city?"
        assert "city=boston" in render_act(inform_act(city="boston"))

    def test_every_act_type_renders(self):
        for act_type in (ActType.THANKS, ActType.CLOSING, ActType.GREETING,
                         ActType.NOT_SURE, ActType.BOOK):
            text = render_act(DialogueAct(act_type))
            assert isinstance(text, str) and text


class TestLogging:
    def test_log_level_env_var_enables_info_logs(self, tmp_path, run_cli):
        proc = run_cli("train", "--out", str(tmp_path / "run"), *FAST,
                       env={"ACLDQN_LOG": "INFO", "PATH": "/usr/bin:/bin"},
                       timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "warm start done" in proc.stderr
