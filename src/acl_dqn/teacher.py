"""The teacher agent's state: recent student outcomes and the last two goals.

The teacher's Q-head has one output per corpus goal and picks through
``neural.epsilon_greedy`` over the curriculum's active goals; the run loop
builds it and computes its reward (orchestrator.run_training).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .domain import TIERS
from .student import SUCCESS_BONUS

# Fixed-size window of recent student episodes summarized in the state.
SUMMARY_WINDOW = 20

# [success rate, mean reward / SUCCESS_BONUS] + 2 * [goal id norm + tier one-hot] + 2 scalars
TEACHER_STATE_DIM = 2 + 2 * (1 + len(TIERS)) + 2


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

