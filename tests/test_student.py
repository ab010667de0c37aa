import numpy as np
import pytest

from acl_dqn import student
from acl_dqn.domain import ONTOLOGY, ActType, DialogueAct, inform_act, request_act
from acl_dqn.neural import QFunction
from acl_dqn.replay import ReplayBuffer, train_step
from acl_dqn.student import (
    ACTION_INDEX,
    EPSILON_START,
    FAILURE_PENALTY,
    N_ACTIONS,
    STATE_DIM,
    SUCCESS_BONUS,
    SYSTEM_ACTIONS,
    epsilon_at,
    epsilon_policy,
    featurize,
    materialize,
    rule_policy,
    run_episode,
    run_greedy_episodes,
    step_reward,
)
from acl_dqn.user_sim import (
    MAX_TURNS,
    ONGOING,
    SUCCESS,
    DialogueContext,
    session_reset,
    session_step,
)


class TestActionSet:
    def test_dimensions(self):
        assert N_ACTIONS == 23
        assert STATE_DIM == 112
        assert len(SYSTEM_ACTIONS) == len(set(SYSTEM_ACTIONS))

    def test_materialize_gives_each_index_its_act_type_and_slot(self, kb):
        ctx = DialogueContext(kb=kb)
        for index, (act_type, slot) in enumerate(SYSTEM_ACTIONS):
            assert ACTION_INDEX[act_type, slot] == index
            act = materialize(index, ctx)
            assert act.act_type is act_type
            assert act.slots == (() if slot is None else (slot,))
            if act_type is ActType.INFORM:
                assert act.payload == ((slot, kb.rows[0][slot]),)

    def test_every_act_played_equals_a_freshly_built_act(self, corpus, kb, monkeypatch):
        """Each act materialize returns for every index, with and without a KB
        row, and each user act of rule-agent and random dialogues on every goal,
        equals the act built and checked anew from its type and payload."""
        played = []

        def recorded(function):
            def call(*args):
                result = function(*args)
                played.append(result[1] if function is session_reset else result[0])
                return result
            return call

        monkeypatch.setattr(student, "session_reset", recorded(session_reset))
        monkeypatch.setattr(student, "session_step", recorded(session_step))
        rng = np.random.default_rng(3)
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8, rng=rng)
        for goal in corpus.goals:
            for policy in (rule_policy(), epsilon_policy(q, 1.0, rng)):
                run_episode(goal, kb, policy, rng)
        assert {act.act_type for act in played} == {
            ActType.REQUEST, ActType.INFORM, ActType.THANKS, ActType.DENY, ActType.CLOSING,
            ActType.CONFIRM_ANSWER, ActType.NOT_SURE}
        with_row = DialogueContext(kb=kb)
        without_row = DialogueContext(kb=kb)
        without_row.observe_user(inform_act(city="nowhere"))
        for index in range(N_ACTIONS):
            played += [materialize(index, with_row), materialize(index, without_row)]
        for act in played:
            fresh = DialogueAct(act.act_type, act.payload)
            assert act == fresh and hash(act) == hash(fresh)
            assert act.slots == fresh.slots and act.columns == fresh.columns

    def test_inform_without_matching_row_degrades_to_not_sure(self, kb):
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(inform_act(city="nowhere"))
        inform_index = ACTION_INDEX[ActType.INFORM, ONTOLOGY[0]]
        act = materialize(inform_index, ctx)
        assert act.act_type is ActType.NOT_SURE


class TestFeaturize:
    def test_shape_range_and_determinism(self, kb):
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(request_act(ONTOLOGY[0]))
        v1 = featurize(ctx)
        v2 = featurize(ctx)
        assert v1.shape == (STATE_DIM,)
        assert np.all(v1 >= 0.0) and np.all(v1 <= 1.0)
        np.testing.assert_array_equal(v1, v2)

    def test_out_row_is_overwritten_and_returned(self, corpus, kb):
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(inform_act(**dict(corpus.goals[0].inform_slots)))
        ctx.observe_user(request_act(ONTOLOGY[2]))
        stack = np.full((2, 1, STATE_DIM), 7.0)  # stale values in every entry
        row = stack[1, 0]
        assert featurize(ctx, out=row) is row
        np.testing.assert_array_equal(row, featurize(ctx))
        np.testing.assert_array_equal(stack[0, 0], 7.0)

    def test_distinct_contexts_yield_distinct_states(self, kb):
        a = DialogueContext(kb=kb)
        b = DialogueContext(kb=kb)
        b.observe_user(request_act(ONTOLOGY[2]))
        assert not np.array_equal(featurize(a), featurize(b))

    @staticmethod
    def _reference(ctx):
        """The feature vector spelled out slot by slot, act blocks by ActType position."""
        act_types = list(ActType)
        n_slots = len(ONTOLOGY)
        block = len(act_types) + n_slots
        vec = np.zeros(STATE_DIM)
        for offset, act in ((0, ctx.last_user_act), (block, ctx.last_system_act)):
            if act is not None:
                vec[offset + act_types.index(act.act_type)] = 1.0
                for slot in act.slots:
                    vec[offset + len(act_types) + ONTOLOGY.index(slot)] = 1.0
        base = 2 * block
        for i, slot in enumerate(ONTOLOGY):
            if slot in ctx.known_constraints:
                vec[base + i] = 1.0
            if slot in ctx.open_requests:
                vec[base + n_slots + i] = 1.0
            if slot in ctx.answered_requests:
                vec[base + 2 * n_slots + i] = 1.0
        base += 3 * n_slots
        vec[base] = 1.0 if ctx.open_requests else 0.0
        vec[base + 1] = 1.0 if not ctx.open_requests and ctx.answered_requests else 0.0
        vec[base + 2] = len(ctx.open_requests) / n_slots
        base += 3
        turn = min(ctx.turn, MAX_TURNS)
        vec[base] = turn / MAX_TURNS
        vec[base + turn] = 1.0
        vec[base + 1 + MAX_TURNS] = min(ctx.kb_count / len(ctx.kb), 1.0)
        return vec

    def test_matches_per_slot_reference_on_every_dialogue_state(self, corpus, kb):
        """Each state of rule-agent and epsilon=0.5 dialogues, terminal ones included."""
        rng = np.random.default_rng(21)
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8, rng=rng)
        seen = {"ctx": None, "states": 0}

        def checked(policy):
            def act(state, ctx):
                seen["ctx"] = ctx
                np.testing.assert_array_equal(state, self._reference(ctx))
                seen["states"] += 1
                return policy(state, ctx)
            return act

        def check_next(transition):
            np.testing.assert_array_equal(transition.next_state, self._reference(seen["ctx"]))

        for policy in (rule_policy(), epsilon_policy(q, 0.5, rng)):
            for tier in ("simple", "medium", "difficult"):
                for goal_id in corpus.tier_ids(tier)[:2]:
                    run_episode(corpus.goal(goal_id), kb, checked(policy), rng,
                                on_transition=check_next)
        assert seen["states"] >= 12


class TestRewards:
    def test_step_reward_table(self):
        assert step_reward(ONGOING) == -1.0
        assert step_reward(SUCCESS) == -1.0 + SUCCESS_BONUS
        assert step_reward("failure") == -1.0 + FAILURE_PENALTY
        assert SUCCESS_BONUS == 2 * MAX_TURNS == 80.0
        assert FAILURE_PENALTY == -40.0

    def test_episode_total_reward_accounting(self, corpus, kb):
        """total == -turns + (80 on success | -40 on failure), 1000 episodes."""
        rng = np.random.default_rng(13)
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8, rng=rng)
        policies = [rule_policy(), epsilon_policy(q, 0.5, rng)]
        checked = 0
        while checked < 1000:
            goal = corpus.goals[int(rng.integers(len(corpus)))]
            seen = []
            result = run_episode(goal, kb, policies[checked % 2], rng,
                                 on_transition=seen.append)
            bonus = 80.0 if result.success else -40.0
            assert result.total_reward == -result.turns + bonus
            assert len(seen) == result.turns
            assert seen[-1].terminal
            assert not any(t.terminal for t in seen[:-1])
            assert sum(t.reward for t in seen) == result.total_reward
            checked += 1


class TestEpsilonSchedule:
    def test_linear_decay_then_floor(self):
        assert EPSILON_START == 0.3
        assert epsilon_at(0, 0.01, 200) == 0.3
        assert epsilon_at(100, 0.01, 200) == pytest.approx(0.155)
        assert epsilon_at(200, 0.01, 200) == 0.01
        assert epsilon_at(10_000, 0.01, 200) == 0.01
        assert epsilon_at(150, 0.1, 300) == pytest.approx(0.2)

    def test_monotone_nonincreasing(self):
        values = [epsilon_at(e, 0.01, 200) for e in range(300)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestEpisodes:
    def test_rule_episode_matches_direct_simulation(self, corpus, kb):
        goal = corpus.goals[corpus.simple[0]]
        r1 = run_episode(goal, kb, rule_policy(), np.random.default_rng(4))
        r2 = run_episode(goal, kb, rule_policy(), np.random.default_rng(4))
        assert (r1.success, r1.turns, r1.total_reward) == (
            r2.success, r2.turns, r2.total_reward)

    def test_on_transition_callback_sees_every_transition(self, corpus, kb):
        seen = []
        result = run_rule_episode_with_callback(corpus, kb, seen)
        assert len(seen) == result.turns
        assert seen[-1].terminal and not any(t.terminal for t in seen[:-1])

    def test_greedy_policy_is_deterministic(self, corpus, kb, rng):
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8, rng=rng)
        goal = corpus.goals[corpus.simple[0]]
        t1, t2 = [], []
        r1 = run_episode(goal, kb, epsilon_policy(q, 0.0, rng), np.random.default_rng(6),
                         on_transition=t1.append)
        r2 = run_episode(goal, kb, epsilon_policy(q, 0.0, rng), np.random.default_rng(6),
                         on_transition=t2.append)
        assert r1.turns == r2.turns
        assert [t.action for t in t1] == [t.action for t in t2]


class TestGreedyEpisodes:
    def test_lockstep_plays_each_goal_as_run_episode_does(self, corpus, kb):
        q = QFunction(STATE_DIM, N_ACTIONS, rng=np.random.default_rng(3))
        goals = [corpus.goal(g) for tier in ("simple", "medium", "difficult")
                 for g in corpus.tier_ids(tier)[:4]]
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        results = run_greedy_episodes(q, goals, kb, rng)
        assert results == [run_episode(g, kb, epsilon_policy(q, 0.0, ref_rng), ref_rng) for g in goals]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len({r.turns for r in results}) > 1  # dialogues ended on different turns

    def test_no_goals_no_results(self, kb, rng):
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=8, rng=rng)
        assert run_greedy_episodes(q, [], kb, rng) == []


def run_rule_episode_with_callback(corpus, kb, seen):
    from acl_dqn.student import run_episode, rule_policy
    goal = corpus.goals[corpus.medium[0]]
    return run_episode(goal, kb, rule_policy(), np.random.default_rng(5),
                       on_transition=seen.append)


class TestTrainStep:
    def test_underfull_buffer_skips_update(self, rng):
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=4, rng=rng)
        buf = ReplayBuffer(100, STATE_DIM)
        before = {k: v.copy() for k, v in q.online.items()}
        assert train_step(q, buf, rng) is None
        for k, v in q.online.items():
            np.testing.assert_array_equal(v, before[k])

    def test_full_buffer_trains(self, corpus, kb, rng):
        q = QFunction(STATE_DIM, N_ACTIONS, hidden_dim=4, rng=rng)
        buf = ReplayBuffer(100, STATE_DIM)
        while len(buf) < 16:
            run_episode(corpus.goals[0], kb, rule_policy(), rng, on_transition=buf.push)
        losses, norms = train_step(q, buf, rng)
        assert losses.shape == norms.shape == (1,)
        assert losses[0] >= 0.0 and norms[0] >= 0.0
