import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acl_dqn import student, user_sim
from acl_dqn.domain import (
    ONTOLOGY,
    VALUE_POOLS,
    ActType,
    DialogueAct,
    inform_act,
    make_goal,
    request_act,
)
from acl_dqn.user_sim import (
    FAILURE,
    MAX_TURNS,
    ONGOING,
    SUCCESS,
    DialogueContext,
    KnowledgeBase,
    SessionError,
    designated_row,
    kb_query,
    reveal_probability,
    session_reset,
    session_step,
)
from acl_dqn.student import rule_policy, run_episode


def _run_scripted_oracle(goal, kb, rng):
    """Omniscient policy: ask every constraint, answer every question, book."""
    session, user_act = session_reset(goal, kb, rng)
    row = designated_row(kb, goal)
    for slot, _ in goal.inform_slots:
        if session.status != ONGOING:
            break
        user_act, _ = session_step(session, request_act(slot))
    for slot in goal.request_slots:
        if session.status != ONGOING:
            break
        user_act, _ = session_step(session, inform_act(**{slot: row[slot]}))
    if session.status == ONGOING:
        session_step(session, DialogueAct(ActType.BOOK))
    return session


class TestKbQuery:
    def test_empty_constraints_match_everything(self, kb, kb_rows):
        count, first = kb_query(kb, {})
        assert count == len(kb_rows)
        assert first == kb_rows[0]

    def test_no_match_returns_zero_and_none(self, kb):
        assert kb_query(kb, {"city": "nowhere"}) == (0, None)

    def test_empty_kb_matches_nothing(self):
        empty = KnowledgeBase(())
        assert kb_query(empty, {}) == (0, None)
        assert kb_query(empty, {"city": "seattle"}) == (0, None)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        # Up to 300 rows crosses several 64-row word edges. Small value
        # pools give multi-row matches, copied rows give duplicates, some
        # rows lack slots, and "absent" occurs in no row.
        n_rows = data.draw(st.integers(0, 300), label="n_rows")
        pool_size = data.draw(st.integers(1, 3), label="pool_size")
        p_missing = data.draw(st.sampled_from([0.0, 0.1, 0.5]), label="p_missing")
        p_copy = data.draw(st.sampled_from([0.0, 0.2, 0.8]), label="p_copy")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows: list[dict[str, str]] = []
        for _ in range(n_rows):
            if rows and gen.random() < p_copy:
                rows.append(dict(rows[int(gen.integers(len(rows)))]))
            else:
                rows.append({s: VALUE_POOLS[s][int(gen.integers(pool_size))]
                             for s in ONTOLOGY if gen.random() >= p_missing})
        kb = KnowledgeBase(tuple(rows))
        constraints = {
            s: data.draw(st.sampled_from([*VALUE_POOLS[s][:pool_size], "absent"]))
            for s in data.draw(st.lists(st.sampled_from(ONTOLOGY),
                                        max_size=4, unique=True))}
        matches = [r for r in rows
                   if all(r.get(s) == v for s, v in constraints.items())]
        count, first = kb_query(kb, constraints)
        assert count == len(matches)
        # identity, not equality: of equal duplicate rows the first must come back
        assert first is (matches[0] if matches else None)

    def test_every_lookup_goes_through_the_module_attribute(self, corpus, kb, monkeypatch):
        """The benchmark's user_sim.kb_query layer wraps this attribute.

        The context's construction, each user inform and the BOOK must look
        the KB up through it, or the layer would quietly count nothing.
        """
        events = []
        real_query = user_sim.kb_query
        real_reset, real_step = student.session_reset, student.session_step

        def query(kb_, constraints):
            events.append(("query", dict(constraints)))
            return real_query(kb_, constraints)

        def reset(goal, kb_, rng):
            session, act = real_reset(goal, kb_, rng)
            events.append(("user", act))
            return session, act

        def step(session, system_act):
            events.append(("system", system_act))
            user_act, status = real_step(session, system_act)
            events.append(("user", user_act))
            return user_act, status

        monkeypatch.setattr(user_sim, "kb_query", query)
        monkeypatch.setattr(student, "session_reset", reset)
        monkeypatch.setattr(student, "session_step", step)
        rng = np.random.default_rng(0)
        for goal_id in corpus.simple:
            goal = corpus.goals[goal_id]
            events.clear()
            result = run_episode(goal, kb, rule_policy(), rng)
            acts = [e[1] for e in events if e[0] != "query"]
            if result.success and acts[0].act_type is ActType.INFORM:
                break
        else:
            pytest.fail("no rule-agent dialogue informed first and booked")

        expected, known, built = [], {}, False
        for kind, act in (e for e in events if e[0] != "query"):
            expected.append((kind, act))
            if kind == "system" and act.act_type is ActType.BOOK:
                # the booking check looks up the goal's designated row
                expected.append(("query", goal.inform_dict))
            if kind == "user":
                if not built:
                    expected.append(("query", {}))
                    built = True
                if act.act_type is ActType.INFORM:
                    known.update(act.payload)
                    expected.append(("query", dict(known)))
        assert events == expected
        assert sum(e[0] == "query" for e in events) >= 3


class TestRevealProbability:
    def test_two_slot_goal_gets_the_maximum(self):
        goal = make_goal(0, {ONTOLOGY[0]: "x"}, [ONTOLOGY[1]])
        assert reveal_probability(goal) == pytest.approx(0.8)

    def test_probability_decreases_with_goal_size_down_to_a_floor(self):
        probs = []
        for n in range(2, 10):
            goal = make_goal(0, {s: "x" for s in ONTOLOGY[:n - 1]}, [ONTOLOGY[n - 1]])
            probs.append(reveal_probability(goal))
        assert probs == sorted(probs, reverse=True)
        assert min(probs) == pytest.approx(0.1)


class TestSession:
    def test_reset_is_deterministic_in_rng(self, corpus, kb):
        goal = corpus.goals[corpus.medium[0]]
        s1, a1 = session_reset(goal, kb, np.random.default_rng(3))
        s2, a2 = session_reset(goal, kb, np.random.default_rng(3))
        assert a1 == a2
        assert s1.agenda == s2.agenda

    def test_request_known_slot_is_answered(self, kb, rng):
        goal = make_goal(0, designated_row(kb, make_goal(0, {}, [ONTOLOGY[0]]))
                         and {ONTOLOGY[0]: kb.rows[0][ONTOLOGY[0]]},
                         [ONTOLOGY[1]])
        session, _ = session_reset(goal, kb, rng)
        user_act, status = session_step(session, request_act(ONTOLOGY[0]))
        assert user_act == inform_act(**{ONTOLOGY[0]: kb.rows[0][ONTOLOGY[0]]})
        assert status == ONGOING

    def test_request_unknown_slot_yields_agenda_or_not_sure(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[1]])
        session, first = session_reset(goal, kb, rng)
        assert first == request_act(ONTOLOGY[1])
        user_act, _ = session_step(session, request_act(ONTOLOGY[5]))
        assert user_act.act_type is ActType.NOT_SURE

    def test_inform_fills_matching_request_slot(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        session_step(session, inform_act(**{ONTOLOGY[0]: "whatever"}))
        assert session.filled_requests == {ONTOLOGY[0]: "whatever"}

    def test_valid_booking_succeeds_with_thanks(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        row = designated_row(kb, goal)
        session, _ = session_reset(goal, kb, rng)
        session_step(session, inform_act(**{ONTOLOGY[0]: row[ONTOLOGY[0]]}))
        user_act, status = session_step(session, DialogueAct(ActType.BOOK))
        assert status == SUCCESS
        assert user_act.act_type is ActType.THANKS
        assert session.filled_requests[ONTOLOGY[0]] == designated_row(kb, goal)[ONTOLOGY[0]]

    def test_premature_booking_fails_terminally(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        user_act, status = session_step(session, DialogueAct(ActType.BOOK))
        assert status == FAILURE
        assert user_act.act_type is ActType.DENY

    def test_wrong_answer_booking_fails(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        row = designated_row(kb, goal)
        wrong = next(v for v in VALUE_POOLS[ONTOLOGY[0]] if v != row[ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        session_step(session, inform_act(**{ONTOLOGY[0]: wrong}))
        _, status = session_step(session, DialogueAct(ActType.BOOK))
        assert status == FAILURE

    def test_closing_act_fails_the_dialogue(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        _, status = session_step(session, DialogueAct(ActType.CLOSING))
        assert status == FAILURE

    def test_turn_cap_at_forty(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        status = ONGOING
        steps = 0
        while status == ONGOING:
            _, status = session_step(session, DialogueAct(ActType.GREETING))
            steps += 1
        assert status == FAILURE
        assert steps == MAX_TURNS
        assert session.turn == MAX_TURNS

    def test_stepping_a_terminal_session_raises(self, kb, rng):
        goal = make_goal(0, {}, [ONTOLOGY[0]])
        session, _ = session_reset(goal, kb, rng)
        session_step(session, DialogueAct(ActType.BOOK))
        with pytest.raises(SessionError):
            session_step(session, DialogueAct(ActType.GREETING))

    def test_scripted_oracle_succeeds_on_every_goal(self, corpus, kb):
        rng = np.random.default_rng(11)
        for goal in corpus.goals:
            session = _run_scripted_oracle(goal, kb, rng)
            assert session.status == SUCCESS, goal
            assert session.turn <= MAX_TURNS


class TestDialogueContext:
    def test_reasked_slot_reopens(self, kb):
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(request_act(ONTOLOGY[0]))
        ctx.observe_system(inform_act(**{ONTOLOGY[0]: "x"}))
        assert ctx.answered_requests == {ONTOLOGY[0]}
        ctx.observe_user(request_act(ONTOLOGY[0]))
        assert ctx.open_requests == [ONTOLOGY[0]]
        assert ctx.answered_requests == set()

    def test_kb_match_tracks_user_constraints(self, kb, kb_rows):
        ctx = DialogueContext(kb=kb)
        assert (ctx.kb_count, ctx.kb_row) == (len(kb_rows), kb_rows[0])
        value = kb_rows[0][ONTOLOGY[0]]
        ctx.observe_user(inform_act(**{ONTOLOGY[0]: value}))
        expected = [r for r in kb_rows if r[ONTOLOGY[0]] == value]
        assert ctx.kb_count == len(expected)
        assert ctx.kb_row == expected[0]

    def test_reinformed_slot_and_unmatched_value_refresh_kb_match(self, kb, kb_rows):
        slot = ONTOLOGY[0]
        first, other = kb_rows[0][slot], next(
            r[slot] for r in kb_rows if r[slot] != kb_rows[0][slot])
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(inform_act(**{slot: first}))
        ctx.observe_user(inform_act(**{slot: other}))
        assert ctx.known_constraints == {slot: other}
        assert (ctx.kb_count, ctx.kb_row) == kb_query(kb, {slot: other})
        assert ctx.kb_row[slot] == other
        ctx.observe_user(inform_act(**{slot: "no such value"}))
        assert (ctx.kb_count, ctx.kb_row) == (0, None)

    def test_non_inform_acts_keep_kb_match(self, kb):
        ctx = DialogueContext(kb=kb)
        ctx.observe_user(inform_act(**{ONTOLOGY[0]: kb.rows[3][ONTOLOGY[0]]}))
        before = (ctx.kb_count, ctx.kb_row)
        ctx.observe_user(request_act(ONTOLOGY[1]))
        ctx.observe_system(inform_act(**{ONTOLOGY[1]: "x"}))
        assert (ctx.kb_count, ctx.kb_row) == before


class TestRuleAgent:
    def test_simple_tier_success_rate_in_band(self, corpus, kb):
        rng = np.random.default_rng(5)
        n, wins = 0, 0
        for _ in range(10):
            for goal_id in corpus.simple:
                result = run_episode(corpus.goals[goal_id], kb, rule_policy(), rng)
                n += 1
                wins += result.success
        rate = wins / n
        assert 0.2 <= rate <= 0.9, rate

    def test_harder_tiers_are_no_easier(self, corpus, kb):
        rates = []
        for ids in (corpus.simple, corpus.medium, corpus.difficult):
            rng = np.random.default_rng(5)
            wins = sum(
                run_episode(corpus.goals[i], kb, rule_policy(), rng).success
                for _ in range(5) for i in ids)
            rates.append(wins / (5 * len(ids)))
        assert rates[0] >= rates[1] >= rates[2]

    def test_episodes_terminate_within_cap(self, corpus, kb):
        rng = np.random.default_rng(9)
        for goal in corpus.goals:
            result = run_episode(goal, kb, rule_policy(), rng)
            assert 1 <= result.turns <= MAX_TURNS
