"""Bounded FIFO experience stores, the TD update that samples them, and the
rule-agent warm start."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .neural import Minibatch, QFunction

STUDENT_CAPACITY = 5000
TEACHER_CAPACITY = 2000


class ReplayError(Exception):
    pass


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class ReplayBuffer:
    """FIFO store with uniform with-replacement sampling."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ReplayError("capacity must be >= 1")
        self.capacity = capacity
        self.dim = dim
        self.items: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.items)

    def push(self, t: Transition) -> None:
        if len(t.state) != self.dim or len(t.next_state) != self.dim:
            raise ReplayError(
                f"transition dim {len(t.state)} != buffer dim {self.dim}")
        self.items.append(t)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Minibatch | None:
        """None when underfull: the caller skips training this step."""
        if len(self.items) < batch_size:
            return None
        idx = rng.integers(0, len(self.items), size=batch_size)
        picks = [self.items[int(i)] for i in idx]
        return Minibatch(
            states=np.stack([t.state for t in picks]),
            actions=np.array([t.action for t in picks], dtype=int),
            rewards=np.array([t.reward for t in picks], dtype=float),
            next_states=np.stack([t.next_state for t in picks]),
            terminal=np.array([t.terminal for t in picks], dtype=bool),
        )


def train_step(q: QFunction, buffer: ReplayBuffer, rng: np.random.Generator,
               gamma: float = 0.9, batch_size: int = 16) -> float | None:
    """One minibatch TD update from buffer; None when it is underfull."""
    batch = buffer.sample(batch_size, rng)
    if batch is None:
        return None
    return q.td_train_step(batch, gamma)


def rbs_prefill(buffer: ReplayBuffer, corpus, kb, rng: np.random.Generator,
                n_dialogues: int = 100, max_retries: int = 20) -> int:
    """Replay Buffer Spiking: prefill with rule-agent dialogues.

    Runs n_dialogues episodes on uniformly drawn goals and pushes every
    student transition.  If no success-terminal transition landed in the
    buffer, up to max_retries extra episodes are run on fresh goals until
    one does.  Returns the number of dialogues actually played.
    """
    from .student import rule_policy, run_episode  # deferred: replay is below student

    if n_dialogues == 0:
        return 0
    goals = corpus.goals
    policy = rule_policy()
    played = 0
    any_success = False
    while played < n_dialogues + (0 if any_success else max_retries):
        goal = goals[int(rng.integers(len(goals)))]
        result = run_episode(goal, kb, policy, rng)
        for t in result.transitions:
            buffer.push(t)
        any_success = any_success or result.success
        played += 1
    if not any_success:
        raise ReplayError("warm start produced no successful dialogue")
    return played
