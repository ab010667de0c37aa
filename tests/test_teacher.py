import numpy as np
import pytest

from acl_dqn import orchestrator
from acl_dqn.neural import QFunction, epsilon_greedy
from acl_dqn.replay import TEACHER_CAPACITY, ReplayBuffer, Transition, train_step
from acl_dqn.teacher import TEACHER_STATE_DIM, TeacherStateBuilder
from td_oracle import block_of


class TestTeacherStateBuilder:
    def test_empty_history_is_all_zero(self):
        builder = TeacherStateBuilder(n_goals=128)
        np.testing.assert_array_equal(builder.build(),
                                      np.zeros(TEACHER_STATE_DIM))

    def test_summary_window_statistics(self):
        builder = TeacherStateBuilder(n_goals=128)
        builder.record_episode(0, "simple", True, 70.0, 0.1)
        builder.record_episode(1, "medium", False, -50.0, 0.2)
        vec = builder.build()
        assert vec[0] == 0.5
        assert vec[1] == pytest.approx(10.0 / 80.0)

    def test_current_and_previous_goal_blocks(self):
        builder = TeacherStateBuilder(n_goals=128)
        builder.record_episode(127, "difficult", True, 60.0, 0.3)
        builder.record_episode(0, "simple", True, 60.0, 0.4)
        vec = builder.build()
        # current block: goal 0, simple
        assert vec[2] == 0.0
        assert vec[3] == 1.0
        # previous block: goal 127, difficult
        assert vec[6] == 1.0
        assert vec[9] == 1.0
        # the two param scalars
        assert vec[10] == pytest.approx(0.4)
        assert vec[11] == pytest.approx(0.3)

    def test_window_is_bounded_at_twenty(self):
        builder = TeacherStateBuilder(n_goals=128)
        for _ in range(30):
            builder.record_episode(0, "simple", False, -41.0, 0.0)
        for _ in range(20):
            builder.record_episode(0, "simple", True, 70.0, 0.0)
        assert builder.build()[0] == 1.0


class TestTeacherTraining:
    def test_buffer_capacity_is_two_thousand(self):
        buf = ReplayBuffer(TEACHER_CAPACITY, TEACHER_STATE_DIM)
        t = Transition(np.zeros(TEACHER_STATE_DIM), 0, 0.0,
                       np.zeros(TEACHER_STATE_DIM), False)
        for _ in range(2500):
            buf.push(t)
        assert len(buf) == 2000

    def test_underfull_buffer_skips(self, rng, corpus):
        q = QFunction(TEACHER_STATE_DIM, len(corpus), hidden_dim=6, rng=rng)
        buf = ReplayBuffer(TEACHER_CAPACITY, TEACHER_STATE_DIM)
        assert train_step(q, buf, rng) is None

    def test_gamma_zero_targets_equal_stored_rewards(self, rng, corpus):
        q = QFunction(TEACHER_STATE_DIM, len(corpus), hidden_dim=6, rng=rng)
        batch = Transition(
            state=rng.normal(size=(4, TEACHER_STATE_DIM)),
            action=np.array([0, 1, 2, 3]),
            reward=np.array([1.0, -2.0, 0.5, 3.0]),
            next_state=rng.normal(size=(4, TEACHER_STATE_DIM)),
            terminal=np.zeros(4, dtype=bool),
        )
        q_sel = q.forward(batch.state)[np.arange(4), batch.action]
        expected = float(np.mean((q_sel - batch.reward) ** 2))
        [loss], _ = q.td_train_steps([block_of(batch)], 0.0)
        assert loss == pytest.approx(expected, abs=1e-6)

    def test_lr_zero_leaves_parameters_bit_identical(self, rng, corpus):
        q = QFunction(TEACHER_STATE_DIM, len(corpus), hidden_dim=6,
                      learning_rate=0.0, rng=rng)
        buf = ReplayBuffer(TEACHER_CAPACITY, TEACHER_STATE_DIM)
        for i in range(16):
            buf.push(Transition(rng.normal(size=TEACHER_STATE_DIM), i % 3,
                                float(i), rng.normal(size=TEACHER_STATE_DIM),
                                False))
        before = {k: v.copy() for k, v in q.online.items()}
        train_step(q, buf, rng)
        for k, v in q.online.items():
            np.testing.assert_array_equal(v, before[k])

    def test_output_head_matches_corpus_size(self, corpus, kb, monkeypatch):
        """The net a run's teacher picks with has one output per corpus goal."""
        nets = []

        def pick(q, *args):
            nets.append(q)
            return epsilon_greedy(q, *args)

        monkeypatch.setattr(orchestrator, "teacher_act", pick)
        orchestrator.run_training(orchestrator.TrainConfig(
            agent_kind="acl-a", num_epochs=2, eval_every=2, eval_dialogues=1), 1, corpus, kb)
        assert len(nets) == 2 and nets[0] is nets[1]
        assert nets[0].output_dim == len(corpus) == 128
        assert nets[0].input_dim == TEACHER_STATE_DIM
