import numpy as np
import pytest

from acl_dqn.replay import (
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
            assert [int(t.state[0]) for t in buf.items] == oracle

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
        assert batch.states.shape == (16, 3)
        assert batch.next_states.shape == (16, 3)
        assert batch.actions.shape == (16,)
        for i in range(16):
            tag = int(batch.states[i, 0])
            assert 0 <= tag < 20
            assert batch.rewards[i] == float(tag)
            assert bool(batch.terminal[i]) == (tag % 2 == 0)

    def test_sampling_is_with_replacement(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        batch = buf.sample(10, np.random.default_rng(0))
        tags = [int(s[0]) for s in batch.states]
        assert len(set(tags)) < len(tags)

    def test_sampling_is_deterministic_in_rng(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        b1 = buf.sample(4, np.random.default_rng(3))
        b2 = buf.sample(4, np.random.default_rng(3))
        np.testing.assert_array_equal(b1.states, b2.states)
        np.testing.assert_array_equal(b1.actions, b2.actions)

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        with pytest.raises(ReplayError):
            buf.push(_transition(0, dim=4))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ReplayError):
            ReplayBuffer(capacity=0, dim=3)


class TestRbsPrefill:
    def test_prefill_contains_a_success_terminal(self, corpus, kb):
        buf = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
        played = rbs_prefill(buf, corpus, kb, np.random.default_rng(2))
        assert played >= 100
        assert len(buf) > 0
        assert any(t.terminal and t.reward > 0 for t in buf.items)

    def test_prefill_is_deterministic_in_rng(self, corpus, kb):
        lens = []
        firsts = []
        for _ in range(2):
            buf = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
            rbs_prefill(buf, corpus, kb, np.random.default_rng(7))
            lens.append(len(buf))
            firsts.append(buf.items[0].state.copy())
        assert lens[0] == lens[1]
        np.testing.assert_array_equal(firsts[0], firsts[1])
