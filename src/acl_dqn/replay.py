"""Bounded FIFO experience stores and the TD update that samples them."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .neural import Minibatch, QFunction

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

    Transitions live in a ring of per-field arrays. Until the ring is full
    row i is the i-th oldest transition; after that each push overwrites
    the oldest row, at ``head``. A row's state is the next state of the row
    before it, except at the rows in ``first_states``: a dialogue's first
    transition, and the oldest row once its predecessor is gone.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ReplayError("capacity must be >= 1")
        self.capacity = capacity
        self.dim = dim
        self.next_states = np.empty((0, dim))
        self.actions = np.empty(0, dtype=int)
        self.rewards = np.empty(0)
        self.terminal = np.empty(0, dtype=bool)
        self.first_states: dict[int, np.ndarray] = {}
        self.head = 0
        self._size = 0
        self._last_next_state = None

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        rows = min(self.capacity, len(self.rewards) + GROW_ROWS)
        # In place: the arrays never hand out views, and a resize does not
        # hold the old and the new block at once as a copy would.
        self.next_states.resize((rows, self.dim), refcheck=False)
        for column in (self.actions, self.rewards, self.terminal):
            column.resize(rows, refcheck=False)

    def push(self, t: Transition) -> None:
        """Store t; a state that is the previous push's next-state object is
        stored once."""
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
            self.first_states.pop(row, None)
            if self.head not in self.first_states:
                self.first_states[self.head] = self.next_states[row].copy()
        if t.state is not self._last_next_state:
            self.first_states[row] = np.array(t.state, dtype=float)
        self._last_next_state = t.next_state
        self.next_states[row] = t.next_state
        self.actions[row] = t.action
        self.rewards[row] = t.reward
        self.terminal[row] = t.terminal

    def rows(self, ages: np.ndarray) -> Minibatch:
        """Copies of the transitions at the given ages (0 is the oldest)."""
        idx = (ages + self.head) % self.capacity if self.head else ages
        states = self.next_states[idx - 1]
        first = self.first_states
        for k, row in enumerate(idx.tolist()):
            if row in first:
                states[k] = first[row]
        return Minibatch(states, self.actions[idx], self.rewards[idx],
                         self.next_states[idx], self.terminal[idx])

    def sample(self, batch_size: int, rng: np.random.Generator) -> Minibatch | None:
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
