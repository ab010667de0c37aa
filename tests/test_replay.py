from collections import deque

import hashlib
import pickle

import numpy as np
import pytest

from acl_dqn.neural import QFunction
from acl_dqn.replay import (
    BATCH_SIZE,
    BLOCK_STEPS,
    GAMMA,
    STUDENT_CAPACITY,
    TEACHER_CAPACITY,
    ReplayBuffer,
    ReplayError,
    Transition,
    train_step,
)
from acl_dqn.orchestrator import default_environment
from acl_dqn.student import N_ACTIONS, STATE_DIM, rbs_prefill
from td_oracle import reference_step


def _transition(tag, dim=3, terminal=False, reward=0.0):
    state = np.full(dim, float(tag))
    return Transition(state, 0, reward, state + 0.5, terminal)


def _minibatches(blocks):
    """Each step's minibatch of sampled blocks, in step order."""
    return [Transition(*fields) for block in blocks for fields in zip(*block)]


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
        """One minibatch per step, of [16] arrays; its rows are whole transitions."""
        buf = ReplayBuffer(capacity=50, dim=3)
        for tag in range(20):
            buf.push(_transition(tag, reward=float(tag), terminal=tag % 2 == 0))
        batches = _minibatches(buf.sample(16, rng, steps=3))
        assert len(batches) == 3
        for batch in batches:
            assert batch.state.shape == batch.next_state.shape == (16, 3)
            assert batch.action.shape == batch.reward.shape == batch.terminal.shape == (16,)
            for i in range(16):
                tag = int(batch.state[i, 0])
                assert 0 <= tag < 20
                assert batch.next_state[i, 0] == tag + 0.5
                assert batch.reward[i] == float(tag)
                assert bool(batch.terminal[i]) == (tag % 2 == 0)

    def test_sampling_is_with_replacement(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        [batch] = _minibatches(buf.sample(10, np.random.default_rng(0)))
        tags = [int(s[0]) for s in batch.state]
        assert len(set(tags)) < len(tags)

    def test_sampling_is_deterministic_in_rng(self):
        buf = ReplayBuffer(capacity=10, dim=3)
        for tag in range(10):
            buf.push(_transition(tag))
        [b1] = buf.sample(4, np.random.default_rng(3))
        [b2] = buf.sample(4, np.random.default_rng(3))
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

    @pytest.mark.parametrize("capacity", [1, 2, 7, 512, 515, 1029])
    def test_sample_matches_deque_oracle_through_growth_and_eviction(self, capacity):
        """Same rng, same rows as the deque the ring replaced, at every size."""
        dim = 3
        buf = ReplayBuffer(capacity=capacity, dim=dim)
        oracle: deque[Transition] = deque(maxlen=capacity)
        data_rng = np.random.default_rng(11)
        checkpoints = {1, 2, 15, 16, 511, 512, 513,
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
            batches = buf.sample(16, np.random.default_rng(pushed))
            if len(oracle) < 16:
                assert batches is None
                continue
            [batch] = _minibatches(batches)
            idx = np.random.default_rng(pushed).integers(0, len(oracle), size=16)
            picks = [oracle[int(i)] for i in idx]
            np.testing.assert_array_equal(batch.state, np.stack([p.state for p in picks]))
            np.testing.assert_array_equal(batch.next_state,
                                          np.stack([p.next_state for p in picks]))
            assert batch.action.tolist() == [p.action for p in picks]
            assert batch.reward.tolist() == [p.reward for p in picks]
            assert batch.terminal.tolist() == [p.terminal for p in picks]

    def test_sample_yields_blocks_of_up_to_eight_steps(self, rng):
        """13 steps come as blocks of 8 and 5, each row the step's rows of one
        draw of [13, 16] ages."""
        buf = _random_buffer(capacity=300, pushes=470)
        state = rng.bit_generator.state
        blocks = list(buf.sample(BATCH_SIZE, rng, steps=13))
        assert BLOCK_STEPS == 8
        assert [block.state.shape for block in blocks] == [(8, 16, STATE_DIM),
                                                          (5, 16, STATE_DIM)]
        assert [block.action.shape for block in blocks] == [(8, 16), (5, 16)]
        rng.bit_generator.state = state
        expected = buf.rows(rng.integers(0, len(buf), size=(13, BATCH_SIZE)))
        for field, got in zip(expected, zip(*blocks)):
            np.testing.assert_array_equal(np.concatenate(got), field)

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

    def test_the_ring_holds_capacity_rows_from_the_start_and_never_moves(self):
        buf = ReplayBuffer(capacity=515, dim=2)

        def fields():
            return buf.states, buf.next_states, buf.actions, buf.rewards, buf.terminal

        assert [f.shape for f in fields()] == [(515, 2), (515, 2), (515,), (515,), (515,)]
        addresses = [f.ctypes.data for f in fields()]
        for tag in range(3 * 515 + 7):
            buf.push(_transition(tag, dim=2))
        assert buf.head == 7 and buf.states[6, 0] == 3 * 515 + 6
        assert [f.ctypes.data for f in fields()] == addresses

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ReplayError):
            ReplayBuffer(capacity=0, dim=3)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ReplayError):
            ReplayBuffer(capacity=10, dim=0)


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

    def test_warm_start_of_the_default_environment_is_pinned(self):
        """The warm start run_training makes for seed 1, byte for byte.

        The digest covers the buffer's five columns in Transition order, as
        little-endian float64, int64, float64, float64 and bool. Filling the
        buffer takes no BLAS call, so it holds on any machine."""
        corpus, kb = default_environment(1)
        buf = ReplayBuffer(STUDENT_CAPACITY, STATE_DIM)
        assert rbs_prefill(buf, corpus, kb, np.random.default_rng([1, 5])) == 100
        held = buf.rows(np.arange(len(buf)))
        digest = hashlib.sha256(b"".join(
            np.ascontiguousarray(column, dtype=dtype).tobytes()
            for column, dtype in zip(held, ("<f8", "<i8", "<f8", "<f8", "|b1"))))
        assert len(buf) == 447
        assert digest.hexdigest() == \
            "f3274504048864b42dd3cd306e353bdfb7198c1aa58a6f654530b08bfb3ce84b"


def _random_buffer(capacity, pushes, seed=0):
    data = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity, STATE_DIM)
    for _ in range(pushes):
        buf.push(Transition(data.random(STATE_DIM), int(data.integers(N_ACTIONS)),
                            float(data.normal()), data.random(STATE_DIM),
                            bool(data.random() < 0.2)))
    return buf


def _assert_trains_as_the_reference(q, buf, steps):
    """train_step(steps) on q equals, bit for bit, ``steps`` reference steps
    on a copy of q, each drawing its 16 ages on its own."""
    ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
    ref = pickle.loads(pickle.dumps(q))
    expected = [reference_step(ref, buf.rows(ref_rng.integers(0, len(buf), size=BATCH_SIZE)),
                               GAMMA) for _ in range(steps)]
    losses, norms = train_step(q, buf, rng, steps=steps)
    assert losses.tolist() == [loss for loss, _ in expected]
    assert norms.tolist() == [norm for _, norm in expected]
    for name in ("online_flat", "target_flat", "_adam_m", "_adam_v"):
        assert getattr(q, name).tobytes() == getattr(ref, name).tobytes(), name
    assert q._adam_t == ref._adam_t
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _trained_net(buf, clip_norm=1.0, adam_t=0):
    """A net whose target is behind online, its Adam moments under way from
    step ``adam_t``."""
    q = QFunction(STATE_DIM, N_ACTIONS, clip_norm=clip_norm, rng=np.random.default_rng(1))
    q._adam_t = adam_t
    train_step(q, buf, np.random.default_rng(2), steps=7)
    q.sync_target()
    train_step(q, buf, np.random.default_rng(3), steps=3)
    return q


class TestTrainSteps:
    @pytest.mark.parametrize("clip_norm", [1.0, 1e6], ids=["clipped", "unclipped"])
    def test_one_draw_of_many_steps_is_the_steps_one_at_a_time(self, clip_norm):
        """train_step(steps=120) on a wrapped buffer equals 120 reference steps
        bit for bit."""
        buf = _random_buffer(capacity=300, pushes=470)
        assert buf.head != 0
        _assert_trains_as_the_reference(_trained_net(buf, clip_norm), buf, 120)

    @pytest.mark.parametrize("steps", [120, 13])
    @pytest.mark.parametrize("adam_t", [0, 340, 400, 37_395, 40_000])
    def test_steps_past_each_exact_bias_correction_match_the_reference(self, adam_t, steps):
        """From t = 356 on 1 - 0.9**t is exactly 1.0, and from t = 37 412 on so
        is 1 - 0.999**t: the step skips each divide there, the reference never
        does. The compared steps start at adam_t + 11, so 340 and 37 395 cross
        a threshold; 13 steps end in a partial block."""
        assert (1.0 - 0.9 ** 356, 1.0 - 0.999 ** 37_412) == (1.0, 1.0)
        assert 1.0 - 0.9 ** 355 < 1.0 and 1.0 - 0.999 ** 37_411 < 1.0
        buf = _random_buffer(capacity=300, pushes=470)
        _assert_trains_as_the_reference(_trained_net(buf, adam_t=adam_t), buf, steps)

    def test_underfull_buffer_draws_and_trains_nothing(self):
        buf = _random_buffer(capacity=300, pushes=BATCH_SIZE - 1)
        q = QFunction(STATE_DIM, N_ACTIONS, rng=np.random.default_rng(1))
        before = (q.online_flat.copy(), q._adam_m.copy(), q._adam_v.copy())
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert train_step(q, buf, rng, steps=120) is None
        assert rng.bit_generator.state == state
        for now, then in zip((q.online_flat, q._adam_m, q._adam_v), before):
            np.testing.assert_array_equal(now, then)
        assert q._adam_t == 0
