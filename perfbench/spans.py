"""In-memory span recorder that instruments acl-dqn from outside the package.

Each wrapped call records one span: a layer name, start and end times, and
the index of the enclosing span. Spans live in flat arrays until the run
ends, when they are written out and reduced to per-layer call counts and
self times (a span's duration minus the durations of its direct children).

Wrappers are installed at the attribute the caller looks up, because the
package binds most functions into the calling module with ``from ... import``:
``orchestrator.run_episode`` is what the training loop calls, while
``student.run_episode`` is what the rule-agent warm start calls.

The recorder keeps one stack of open spans, so it assumes the traced runs
are made on one thread; spans made in worker processes are not seen.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # vars() keeps a class attribute as stored (a plain function), not
        # as the bound form that getattr would hand back.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def current(self, owner, attr: str):
        return vars(owner)[attr]

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """Flat span store: name id, start, end and parent index per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        # Named counts recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, name_of=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name_of(args)`` may pick the span name per call; ``after(args,
        result)`` records counts from the call's arguments and result.
        """
        fixed = self.name_id(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed if name_of is None else self.name_id(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        inclusive = np.bincount(a["name_id"], weights=dur, minlength=n)
        exclusive = np.bincount(a["name_id"], weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(inclusive[i]),
                       "self_s": float(exclusive[i])}
                for i, name in enumerate(self.names)}


def instrument(recorder: SpanRecorder, patch: Patch) -> None:
    """Install span wrappers on every layer the benchmark reports.

    ``orchestrator.run_training`` is left to the caller, which decides
    which runs are traced.
    """
    from acl_dqn import curriculum, domain, neural, orchestrator, replay, student, teacher, user_sim

    def wrap(owner, attr, name, **kw):
        patch.set(owner, attr, recorder.wrap(patch.current(owner, attr), name, **kw))

    def count_turns(args, result):
        recorder.count("student.turns", result.turns)

    def forward_kind(args):
        return "neural.forward_row" if np.ndim(args[1]) == 1 else "neural.forward_batch"

    def count_forward(args, result):
        if np.ndim(args[1]) != 1:
            recorder.count("neural.forward_batch.rows", np.shape(args[1])[0])

    def count_sample(args, result):
        recorder.count("replay.sample.attempts")
        if result is None:
            recorder.count("replay.sample.underfull")

    def count_transition(args, result):
        if result is not None:
            recorder.count("curriculum.on_episode.transitions")

    wrap(orchestrator, "evaluate_policy", "orchestrator.evaluate_policy",
         after=lambda args, result: recorder.count("orchestrator.evaluate_policy.dialogues",
                                                   args[3]))
    wrap(orchestrator, "generate_kb_rows", "domain.generate")
    wrap(orchestrator, "generate_corpus", "domain.generate")
    wrap(orchestrator, "rbs_prefill", "replay.rbs_prefill",
         after=lambda args, result: recorder.count("replay.rbs_prefill.dialogues", result))
    wrap(orchestrator, "student_train_step", "student.train_step")
    wrap(orchestrator, "teacher_train_step", "teacher.train_step")
    wrap(orchestrator, "teacher_act", "teacher.teacher_act")
    wrap(orchestrator, "run_episode", "student.run_episode", after=count_turns)
    # rbs_prefill reaches run_episode through student.run_rule_episode.
    wrap(student, "run_episode", "student.run_episode", after=count_turns)
    wrap(student, "featurize", "student.featurize")
    wrap(student, "materialize", "student.materialize")
    wrap(student, "session_step", "user_sim.session_step")
    wrap(student, "session_reset", "user_sim.session_reset")
    # DialogueContext.kb_state and designated_row both resolve this name.
    wrap(user_sim, "kb_query", "user_sim.kb_query")
    wrap(neural.QFunction, "forward", "neural.forward_row", name_of=forward_kind,
         after=count_forward)
    wrap(replay.ReplayBuffer, "sample", "replay.sample", after=count_sample)
    wrap(replay.ReplayBuffer, "push", "replay.push")
    wrap(teacher.TeacherStateBuilder, "build", "teacher.state_build")
    wrap(curriculum.PhaseMachine, "on_episode", "curriculum.on_episode",
         after=count_transition)
    wrap(domain.GoalCorpus, "goal", "domain.corpus_lookup")
    wrap(domain.GoalCorpus, "tier_of", "domain.corpus_lookup")
