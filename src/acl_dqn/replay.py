"""Bounded FIFO experience stores and the TD update that samples them."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .neural import Minibatch, QFunction

STUDENT_CAPACITY = 5000
TEACHER_CAPACITY = 2000
GAMMA = 0.9
BATCH_SIZE = 16


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


def train_step(q: QFunction, buffer: ReplayBuffer, rng: np.random.Generator) -> float | None:
    """One minibatch TD update from buffer; None when it is underfull."""
    batch = buffer.sample(BATCH_SIZE, rng)
    if batch is None:
        return None
    return q.td_train_step(batch, GAMMA)
