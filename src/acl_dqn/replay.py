"""Bounded FIFO experience stores and the TD update that samples them."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .neural import QFunction

STUDENT_CAPACITY = 5000
TEACHER_CAPACITY = 2000
GAMMA = 0.9
BATCH_SIZE = 16
# The ring grows by this many rows at a time up to its capacity, so a
# buffer that never fills never holds the memory of a full one.
GROW_ROWS = 512


class ReplayError(Exception):
    pass


class Transition(NamedTuple):
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class ReplayBuffer:
    """FIFO store with uniform with-replacement sampling.

    Transitions live in a ring of per-field arrays, one row each. Until the
    ring is full row i is the i-th oldest transition; after that each push
    overwrites the oldest row, at ``head``.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ReplayError("capacity must be >= 1")
        self.capacity = capacity
        self.dim = dim
        self.states = np.empty((0, dim))
        self.next_states = np.empty((0, dim))
        self.actions = np.empty(0, dtype=int)
        self.rewards = np.empty(0)
        self.terminal = np.empty(0, dtype=bool)
        self.head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        rows = min(self.capacity, len(self.rewards) + GROW_ROWS)
        # In place: the arrays never hand out views, and a resize does not
        # hold the old and the new block at once as a copy would.
        for matrix in (self.states, self.next_states):
            matrix.resize((rows, self.dim), refcheck=False)
        for column in (self.actions, self.rewards, self.terminal):
            column.resize(rows, refcheck=False)

    def push(self, t: Transition) -> None:
        """Store a copy of t, over the oldest row once the ring is full."""
        if len(t.state) != self.dim or len(t.next_state) != self.dim:
            raise ReplayError(
                f"transition dim {len(t.state)} != buffer dim {self.dim}")
        if self._size < self.capacity:
            row = self._size
            if row == len(self.rewards):
                self._grow()
            self._size += 1
        else:
            row = self.head
            self.head = (row + 1) % self.capacity
        self.states[row] = t.state
        self.next_states[row] = t.next_state
        self.actions[row] = t.action
        self.rewards[row] = t.reward
        self.terminal[row] = t.terminal

    def rows(self, ages: np.ndarray) -> Transition:
        """Copies of the transitions at the given ages (0 is the oldest), one
        array per field."""
        idx = (ages + self.head) % self.capacity if self.head else ages
        return Transition(self.states[idx], self.actions[idx], self.rewards[idx],
                          self.next_states[idx], self.terminal[idx])

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transition | None:
        """None when underfull: the caller skips training this step."""
        if self._size < batch_size:
            return None
        return self.rows(rng.integers(0, self._size, size=batch_size))


def train_step(q: QFunction, buffer: ReplayBuffer, rng: np.random.Generator) -> float | None:
    """One minibatch TD update from buffer; None when it is underfull."""
    batch = buffer.sample(BATCH_SIZE, rng)
    if batch is None:
        return None
    return q.td_train_step(batch, GAMMA)
