"""Bounded FIFO experience stores and the TD update that samples them."""

from __future__ import annotations

import mmap
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .neural import QFunction

STUDENT_CAPACITY = 5000
TEACHER_CAPACITY = 2000
GAMMA = 0.9
BATCH_SIZE = 16
# Steps per block of a replay draw. A block's two state stacks are
# [8, 16, dim], 115 KB each for the student, gathered when it is read.
BLOCK_STEPS = 8


class ReplayError(Exception):
    pass


class Transition(NamedTuple):
    """One transition, typed as annotated, when it is pushed. In a minibatch
    each field is an array over its B transitions, states [B, dim] and the
    rest [B]; in a block of k minibatches, [k, B, dim] and [k, B]."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


def _ring_array(*shape: int, dtype=float) -> np.ndarray:
    """A zeroed array on an anonymous mmap, committed 4 KiB at a time as rows are first
    written, where numpy advises huge pages for 4 MiB and up. The mapping is shared on
    POSIX: a forked child that never touches it costs the parent no copy-on-write faults."""
    nbytes = np.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


class ReplayBuffer:
    """FIFO store with uniform with-replacement sampling.

    Transitions live in a ring of per-field arrays, one row each. Until the
    ring is full row i is the i-th oldest transition; after that each push
    overwrites the oldest row, at ``head``. The arrays never move.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ReplayError("capacity and dim must be >= 1")
        self.capacity = capacity
        self.dim = dim
        self.states = _ring_array(capacity, dim)
        self.next_states = _ring_array(capacity, dim)
        self.actions = _ring_array(capacity, dtype=int)
        self.rewards = _ring_array(capacity)
        self.terminal = _ring_array(capacity, dtype=bool)
        self.head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        """Store a copy of t, over the oldest row once the ring is full."""
        if len(t.state) != self.dim or len(t.next_state) != self.dim:
            raise ReplayError(
                f"transition dim {len(t.state)} != buffer dim {self.dim}")
        if self._size < self.capacity:
            row = self._size
            self._size += 1
        else:
            row = self.head
            self.head = (row + 1) % self.capacity
        self.states[row] = t.state
        self.next_states[row] = t.next_state
        self.actions[row] = t.action
        self.rewards[row] = t.reward
        self.terminal[row] = t.terminal

    def _row_index(self, ages: np.ndarray) -> np.ndarray:
        return (ages + self.head) % self.capacity if self.head else ages

    def rows(self, ages: np.ndarray) -> Transition:
        """Copies of the transitions at the given ages (0 is the oldest), one
        array per field, shaped as ``ages``; states add a trailing dim."""
        idx = self._row_index(ages)
        return Transition(self.states[idx], self.actions[idx], self.rewards[idx],
                          self.next_states[idx], self.terminal[idx])

    def sample(self, batch_size: int, rng: np.random.Generator,
               steps: int = 1) -> Iterator[Transition] | None:
        """``steps`` minibatches from one uniform draw of [steps, batch_size]
        ages, with replacement, in blocks of up to BLOCK_STEPS steps; None,
        drawing nothing, when underfull.

        A block is a ``Transition`` of [k, batch_size] arrays, its states
        [k, batch_size, dim]: row i is one step's minibatch. Each block is
        gathered when the iterator reaches it, so the whole draw's rows are
        never held at once. Read the blocks before the next push.
        """
        if self._size < batch_size:
            return None
        ages = rng.integers(0, self._size, size=(steps, batch_size))
        return map(self.rows, np.split(ages, range(BLOCK_STEPS, steps, BLOCK_STEPS)))


def train_step(q: QFunction, buffer: ReplayBuffer, rng: np.random.Generator,
               steps: int = 1) -> tuple[np.ndarray, np.ndarray] | None:
    """``steps`` minibatch TD updates from one replay draw; each step's loss
    and pre-clip gradient norm, or None when the buffer is underfull."""
    batches = buffer.sample(BATCH_SIZE, rng, steps)
    if batches is None:
        return None
    return q.td_train_steps(batches, GAMMA)
