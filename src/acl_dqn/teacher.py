"""The teacher agent: a goal-selection MDP over the user-goal corpus.

The teacher's Q-head has one output per corpus goal; curriculum phases
restrict selection by masking, so values learned in earlier phases carry
over.  This module builds the teacher's state and picks its goal; the
run loop computes its reward (orchestrator.run_training).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .domain import GoalCorpus, TIERS
from .neural import QFunction
from .student import SUCCESS_BONUS

# Fixed-size window of recent student episodes summarized in the state.
SUMMARY_WINDOW = 20

# [success rate, mean reward / SUCCESS_BONUS] + 2 * [goal id norm + tier one-hot] + 2 scalars
TEACHER_STATE_DIM = 2 + 2 * (1 + len(TIERS)) + 2


class TeacherError(Exception):
    pass


@dataclass
class GoalSnapshot:
    goal_id: int
    tier: str
    param_scalar: float


@dataclass
class TeacherStateBuilder:
    """Assembles the teacher state vector from recent student outcomes."""

    n_goals: int
    recent: deque = field(default_factory=lambda: deque(maxlen=SUMMARY_WINDOW))
    current: GoalSnapshot | None = None
    previous: GoalSnapshot | None = None

    def record_episode(self, goal_id: int, tier: str, success: bool,
                       total_reward: float, param_scalar: float) -> None:
        self.recent.append((success, total_reward))
        self.previous = self.current
        self.current = GoalSnapshot(goal_id, tier, param_scalar)

    def _goal_block(self, vec: np.ndarray, offset: int,
                    snap: GoalSnapshot | None) -> None:
        if snap is None:
            return
        denom = max(self.n_goals - 1, 1)
        vec[offset] = snap.goal_id / denom
        vec[offset + 1 + TIERS.index(snap.tier)] = 1.0

    def build(self) -> np.ndarray:
        vec = np.zeros(TEACHER_STATE_DIM)
        if self.recent:
            succ = [s for s, _ in self.recent]
            rewards = [r for _, r in self.recent]
            vec[0] = sum(succ) / len(succ)
            vec[1] = float(np.mean(rewards)) / SUCCESS_BONUS
        block = 1 + len(TIERS)
        self._goal_block(vec, 2, self.current)
        self._goal_block(vec, 2 + block, self.previous)
        if self.current is not None:
            vec[2 + 2 * block] = self.current.param_scalar
        if self.previous is not None:
            vec[2 + 2 * block + 1] = self.previous.param_scalar
        return vec


def teacher_act(q: QFunction, state: np.ndarray, goal_ids,
                epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the Q-head restricted to the active goal set."""
    ids = list(goal_ids)
    if not ids:
        raise TeacherError("empty goal set")
    if epsilon > 0.0 and rng.random() < epsilon:
        return ids[int(rng.integers(len(ids)))]
    values = q.forward(state)
    masked = values[ids]
    return ids[int(np.argmax(masked))]


def make_teacher_q(corpus: GoalCorpus, rng: np.random.Generator) -> QFunction:
    return QFunction(TEACHER_STATE_DIM, len(corpus), rng=rng)
