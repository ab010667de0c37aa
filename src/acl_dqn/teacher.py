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
class TeacherStateBuilder:
    """Assembles the teacher state vector from recent student outcomes.

    ``goals`` holds the last two episodes' ``(goal_id, tier, param_scalar)``,
    newest first; each fills its goal block and its param scalar.
    """

    n_goals: int
    recent: deque = field(default_factory=lambda: deque(maxlen=SUMMARY_WINDOW))
    goals: deque = field(default_factory=lambda: deque(maxlen=2))

    def record_episode(self, goal_id: int, tier: str, success: bool,
                       total_reward: float, param_scalar: float) -> None:
        self.recent.append((success, total_reward))
        self.goals.appendleft((goal_id, tier, param_scalar))

    def build(self) -> np.ndarray:
        vec = np.zeros(TEACHER_STATE_DIM)
        if self.recent:
            succ = [s for s, _ in self.recent]
            rewards = [r for _, r in self.recent]
            vec[0] = sum(succ) / len(succ)
            vec[1] = float(np.mean(rewards)) / SUCCESS_BONUS
        block = 1 + len(TIERS)
        denom = max(self.n_goals - 1, 1)
        for k, (goal_id, tier, param_scalar) in enumerate(self.goals):
            vec[2 + k * block] = goal_id / denom
            vec[2 + k * block + 1 + TIERS.index(tier)] = 1.0
            vec[2 + 2 * block + k] = param_scalar
        return vec
