"""The benchmark's wrappers still find every attribute they patch.

perfbench/ times and traces the package from outside, by replacing module
and class attributes, so a renamed attribute passes every other test and
fails only when the benchmark runs. This test imports perfbench's own
modules unchanged, installs its clock and its span wrappers, and makes one
short comparison through them. The package must reach the wrapped functions
through the attributes perfbench patches: a function bound to another name
at import time escapes the trace, which the call-count checks below catch
for evaluation.
"""

import importlib
import sys
from pathlib import Path

from acl_dqn import curriculum, domain, neural, orchestrator, replay, student, teacher, user_sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Every owner whose attributes perfbench replaces.
PATCHED = (orchestrator, student, user_sim, neural.QFunction, replay.ReplayBuffer,
           teacher.TeacherStateBuilder, curriculum.PhaseMachine, domain.GoalCorpus)


def test_benchmark_hooks_record_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    bench = importlib.import_module("run")
    before = [dict(vars(owner)) for owner in PATCHED]

    recorder, patch = spans.SpanRecorder(), spans.Patch()
    bench.install_clock(patch, bench.HostSpeed())
    spans.instrument(recorder, patch)
    try:
        corpus, kb = orchestrator.default_environment(1)
        config = orchestrator.TrainConfig(agent_kind="acl-c", **{
            **orchestrator.ACCEPTANCE_PROFILE, "num_epochs": 2, "eval_every": 2})
        [run] = orchestrator.run_comparison([config], [1], corpus, kb).runs
    finally:
        patch.undo()
        for name in ("spans", "run"):
            sys.modules.pop(name, None)

    totals = recorder.layer_totals()
    assert [layer for layer in bench.LAYERS if totals.get(layer, {}).get("calls", 0) == 0] == []
    # The evaluation's dialogues are traced too: every dialogue is reset and
    # every turn stepped through the wrapped simulator (the evaluation's turns
    # are its mean turns times its dialogues), each step follows a wrapped
    # featurize, and the first lockstep turn stacks every dialogue.
    calls = {layer: totals[layer]["calls"] for layer in bench.LAYERS}
    assert calls["user_sim.session_reset"] == (recorder.counts["replay.rbs_prefill.dialogues"]
                                               + config.num_epochs + config.eval_dialogues)
    eval_turns = sum(round(row[3] * config.eval_dialogues) for row in run.metrics.eval_rows)
    assert calls["user_sim.session_step"] == recorder.counts["student.turns"] + eval_turns
    assert calls["student.featurize"] >= calls["user_sim.session_step"]
    assert recorder.counts["neural.forward_batch.rows"] >= config.eval_dialogues
    # The teacher picks one goal per epoch through orchestrator.teacher_act;
    # the student's picks go through the same function under another name.
    assert calls["teacher.teacher_act"] == config.num_epochs
    # Every train step samples once, and an underfull buffer answers None:
    # the teacher's, which holds one transition per epoch, in both epochs.
    assert recorder.counts["replay.sample.attempts"] == (calls["student.train_step"]
                                                         + calls["teacher.train_step"])
    assert recorder.counts["replay.sample.underfull"] == config.num_epochs
    assert len(bench.times_of(run).marks) == 2
    for owner, saved in zip(PATCHED, before):
        assert [attr for attr, value in saved.items() if vars(owner).get(attr) is not value] == []


def test_benchmark_clock_times_pooled_runs(monkeypatch, usable_cores):
    """The pool's forked workers call run_training through the module attribute
    perfbench replaced, and send the clock reads back with each result."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    bench = importlib.import_module("run")

    usable_cores(2)
    patch = spans.Patch()
    bench.install_clock(patch, bench.HostSpeed())
    try:
        config = orchestrator.TrainConfig(agent_kind="acl-c", **{
            **orchestrator.ACCEPTANCE_PROFILE, "num_epochs": 3, "eval_every": 3})
        runs = orchestrator.run_comparison([config], [1, 2],
                                           *orchestrator.default_environment(1)).runs
    finally:
        patch.undo()
        for name in ("spans", "run"):
            sys.modules.pop(name, None)

    assert [run.seed for run in runs] == [1, 2]
    assert [len(bench.times_of(run).marks) for run in runs] == [config.num_epochs] * 2
