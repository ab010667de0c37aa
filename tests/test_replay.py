from collections import deque

import numpy as np
import pytest

from acl_dqn.replay import (
    GROW_ROWS,
    STUDENT_CAPACITY,
    TEACHER_CAPACITY,
    ReplayBuffer,
    ReplayError,
    Transition,
)
from acl_dqn.student import STATE_DIM, rbs_prefill


def _transition(tag, dim=3, terminal=False, reward=0.0):
    state = np.full(dim, float(tag))
    return Transition(state, 0, reward, state + 0.5, terminal)


class TestReplayBuffer:
    def test_default_capacities(self):
        assert STUDENT_CAPACITY == 5000
        assert TEACHER_CAPACITY == 2000

    def test_fifo_eviction_matches_list_oracle(self):
        buf = ReplayBuffer(capacity=4, dim=3)
        oracle = []
        for tag in range(10):
            buf.push(_transition(tag))
            oracle.append(tag)
            oracle = oracle[-4:]
            in_age_order = buf.rows(np.arange(len(buf)))
            assert [int(s[0]) for s in in_age_order.state] == oracle

    def test_underfull_sample_returns_none(self, rng):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(5):
            buf.push(_transition(tag))
        assert buf.sample(6, rng) is None
        assert buf.sample(5, rng) is not None

    def test_sample_shapes_and_membership(self, rng):
        buf = ReplayBuffer(capacity=50, dim=3)
        for tag in range(20):
            buf.push(_transition(tag, reward=float(tag), terminal=tag % 2 == 0))
        batch = buf.sample(16, rng)
        assert batch.state.shape == (16, 3)
        assert batch.next_state.shape == (16, 3)
        assert batch.action.shape == (16,)
        for i in range(16):
            tag = int(batch.state[i, 0])
            assert 0 <= tag < 20
            assert batch.reward[i] == float(tag)
            assert bool(batch.terminal[i]) == (tag % 2 == 0)

    def test_sampling_is_with_replacement(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        batch = buf.sample(10, np.random.default_rng(0))
        tags = [int(s[0]) for s in batch.state]
        assert len(set(tags)) < len(tags)

    def test_sampling_is_deterministic_in_rng(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        b1 = buf.sample(4, np.random.default_rng(3))
        b2 = buf.sample(4, np.random.default_rng(3))
        np.testing.assert_array_equal(b1.state, b2.state)
        np.testing.assert_array_equal(b1.action, b2.action)

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        with pytest.raises(ReplayError):
            buf.push(_transition(0, dim=4))

    def test_wrong_dim_next_state_rejected(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        with pytest.raises(ReplayError):
            buf.push(Transition(np.zeros(3), 0, 0.0, np.zeros(4), False))
        assert len(buf) == 0

    @pytest.mark.parametrize("capacity", [1, 2, 7, GROW_ROWS, GROW_ROWS + 3,
                                          2 * GROW_ROWS + 5])
    def test_sample_matches_deque_oracle_through_growth_and_eviction(self, capacity):
        """Same rng, same rows as the deque the ring replaced, at every size."""
        dim = 3
        buf = ReplayBuffer(capacity=capacity, dim=dim)
        oracle: deque[Transition] = deque(maxlen=capacity)
        data_rng = np.random.default_rng(11)
        checkpoints = {1, 2, 15, 16, GROW_ROWS - 1, GROW_ROWS, GROW_ROWS + 1,
                       capacity - 1, capacity, capacity + 1, 2 * capacity + 3,
                       3 * capacity + 16}
        state = data_rng.normal(size=dim)
        for pushed in range(1, 3 * capacity + 17):
            if data_rng.random() < 0.2:
                state = data_rng.normal(size=dim)
            t = Transition(state, int(data_rng.integers(5)), float(data_rng.normal()),
                           data_rng.normal(size=dim), bool(data_rng.random() < 0.3))
            buf.push(t)
            oracle.append(t)
            state = t.next_state
            if pushed not in checkpoints:
                continue
            assert len(buf) == len(oracle)
            held = buf.rows(np.arange(len(buf)))
            np.testing.assert_array_equal(held.state, np.stack([o.state for o in oracle]))
            np.testing.assert_array_equal(held.next_state,
                                          np.stack([o.next_state for o in oracle]))
            batch = buf.sample(16, np.random.default_rng(pushed))
            if len(oracle) < 16:
                assert batch is None
                continue
            idx = np.random.default_rng(pushed).integers(0, len(oracle), size=16)
            picks = [oracle[int(i)] for i in idx]
            np.testing.assert_array_equal(batch.state, np.stack([p.state for p in picks]))
            np.testing.assert_array_equal(batch.next_state,
                                          np.stack([p.next_state for p in picks]))
            assert batch.action.tolist() == [p.action for p in picks]
            assert batch.reward.tolist() == [p.reward for p in picks]
            assert batch.terminal.tolist() == [p.terminal for p in picks]

    def test_a_reused_next_state_array_is_copied_on_push(self):
        """A caller may refill its next-state array in place between pushes:
        each row keeps the values it was pushed with."""
        buf = ReplayBuffer(capacity=10, dim=3)
        a, b = np.zeros(3), np.ones(3)
        buf.push(Transition(a, 0, 0.0, b, False))
        b[...] = 7.0
        buf.push(Transition(b, 1, 0.0, np.full(3, 8.0), True))
        held = buf.rows(np.arange(2))
        np.testing.assert_array_equal(held.next_state[0], np.ones(3))
        np.testing.assert_array_equal(held.state[1], np.full(3, 7.0))

    def test_ring_grows_in_chunks_up_to_capacity(self):
        capacity = GROW_ROWS + 10
        buf = ReplayBuffer(capacity=capacity, dim=2)
        assert len(buf.rewards) == 0
        buf.push(_transition(0, dim=2))
        assert len(buf.rewards) == GROW_ROWS
        assert buf.states.shape == buf.next_states.shape == (GROW_ROWS, 2)
        for tag in range(1, 3 * capacity):
            buf.push(_transition(tag, dim=2))
        assert buf.states.shape == buf.next_states.shape == (capacity, 2)
        assert len(buf) == capacity

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ReplayError):
            ReplayBuffer(capacity=0, dim=3)


class TestRbsPrefill:
    def test_prefill_contains_a_success_terminal(self, corpus, kb):
        buf = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
        played = rbs_prefill(buf, corpus, kb, np.random.default_rng(2))
        assert played >= 100
        assert len(buf) > 0
        held = buf.rows(np.arange(len(buf)))
        assert np.any(held.terminal & (held.reward > 0))

    def test_prefill_is_deterministic_in_rng(self, corpus, kb):
        lens = []
        firsts = []
        for _ in range(2):
            buf = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
            rbs_prefill(buf, corpus, kb, np.random.default_rng(7))
            lens.append(len(buf))
            firsts.append(buf.rows(np.arange(1)).state[0])
        assert lens[0] == lens[1]
        np.testing.assert_array_equal(firsts[0], firsts[1])
