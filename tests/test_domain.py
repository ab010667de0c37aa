import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acl_dqn import domain
from acl_dqn.domain import (
    ONTOLOGY,
    PLAIN_ACTS,
    TIER_BANDS,
    VALUE_POOLS,
    ActType,
    CorpusFormatError,
    DialogueAct,
    DomainError,
    GoalCorpus,
    generate_corpus,
    generate_kb_rows,
    inform_act,
    inform_slot_act,
    load_corpus,
    load_kb_rows,
    make_goal,
    request_act,
    save_corpus,
    save_kb_rows,
)


def _goal(goal_id, n_informs, n_requests):
    informs = {ONTOLOGY[i]: "x" for i in range(n_informs)}
    requests = [ONTOLOGY[n_informs + i] for i in range(n_requests)]
    return make_goal(goal_id, informs, requests)


class TestDialogueAct:
    def test_eleven_act_types(self):
        assert len(ActType) == 11

    def test_request_acts_carry_only_unk(self):
        act = request_act("city")
        assert act.payload == (("city", "UNK"),)
        with pytest.raises(DomainError):
            DialogueAct(ActType.REQUEST, (("city", "boston"),))

    def test_inform_acts_carry_only_concrete_values(self):
        act = inform_act(city="boston")
        assert act.payload == (("city", "boston"),)
        with pytest.raises(DomainError):
            DialogueAct(ActType.INFORM, (("city", "UNK"),))

    def test_slot_must_be_in_ontology(self):
        with pytest.raises(DomainError):
            inform_act(color="red")

    def test_act_type_must_be_an_act_type(self):
        with pytest.raises(DomainError, match="not an ActType"):
            DialogueAct("inform", (("city", "boston"),))

    def test_an_invalid_act_raises_on_every_build(self):
        """A refused act is never shared, so asking again raises again."""
        for _ in range(2):
            with pytest.raises(DomainError):
                inform_act(color="red")
            with pytest.raises(DomainError):
                request_act("color")
            with pytest.raises(DomainError):
                inform_act(city="UNK")

    def test_stored_slots_and_columns_follow_the_payload(self):
        act = inform_act(rating="R", city="boston")
        assert act.payload == (("city", "boston"), ("rating", "R"))
        assert act.slots == ("city", "rating")
        types = list(ActType)
        assert act.columns == (types.index(ActType.INFORM),
                               len(types) + ONTOLOGY.index("city"),
                               len(types) + ONTOLOGY.index("rating"))
        assert DialogueAct(ActType.THANKS).columns == (types.index(ActType.THANKS),)

    def test_equality_hash_and_repr_ignore_stored_fields(self):
        act = request_act("city")
        fresh = DialogueAct(ActType.REQUEST, (("city", "UNK"),))
        assert act == fresh and hash(act) == hash(fresh)
        assert repr(act) == "DialogueAct(act_type=<ActType.REQUEST: 'request'>, " \
                            "payload=(('city', 'UNK'),))"

    def test_request_and_inform_acts_are_shared(self):
        assert request_act("city") is request_act("city")
        assert inform_act(city="boston", rating="R") is inform_act(rating="R", city="boston")
        assert inform_act(city="boston") is not inform_act(city="austin")

    def test_a_one_pair_inform_is_one_act_in_every_form(self):
        """A one pair inform skips the sort: its kwargs, dict and slot forms
        are one shared act. More pairs still take ontology order, and an
        unknown slot is refused in every form."""
        assert inform_act(**{"city": "boston"}) is inform_act(city="boston")
        for slot in ONTOLOGY:
            assert inform_slot_act(slot, "x") is inform_act(**{slot: "x"})
        act = inform_act(**{slot: "x" for slot in reversed(ONTOLOGY)})
        assert act.slots == tuple(ONTOLOGY)
        for build in (lambda: inform_act(color="red", city="boston"),
                      lambda: inform_slot_act("color", "red")):
            with pytest.raises(DomainError, match="slot 'color' not in ontology"):
                build()

    def test_past_the_bound_the_least_recently_used_act_is_dropped(self):
        """Each kind keeps SHARED_ACTS acts; one more drops the least recently
        used, and the act built anew for it equals the one dropped."""
        for shared in (request_act, domain._inform_act):
            assert shared.cache_info().maxsize == domain.SHARED_ACTS
        first = inform_act(movie_name="past the bound 0")
        for i in range(1, domain.SHARED_ACTS + 1):
            assert inform_act(movie_name=f"past the bound {i}") is \
                inform_act(movie_name=f"past the bound {i}")
        assert domain._inform_act.cache_info().currsize == domain.SHARED_ACTS
        again = inform_act(movie_name="past the bound 0")
        assert again is not first
        assert again == first and hash(again) == hash(first)
        assert again.slots == first.slots and again.columns == first.columns

    def test_each_plain_act_is_the_payload_free_act_of_its_type(self):
        assert list(PLAIN_ACTS) == list(ActType)
        for act_type, act in PLAIN_ACTS.items():
            assert act == DialogueAct(act_type) and act.payload == ()


class TestUserGoal:
    def test_difficulty_is_component_sum(self):
        assert _goal(0, 3, 2).difficulty == 5
        assert _goal(0, 0, 1).difficulty == 1
        assert _goal(0, 6, 3).difficulty == 9

    def test_overlapping_slots_rejected(self):
        with pytest.raises(DomainError):
            make_goal(0, {"city": "boston"}, ["city"])

    def test_empty_requests_rejected(self):
        with pytest.raises(DomainError):
            make_goal(0, {"city": "boston"}, [])

    def test_negative_id_rejected(self):
        with pytest.raises(DomainError):
            make_goal(-1, {}, ["city"])


class TestPartition:
    """A goal's tier is its difficulty band; ids within a tier ascend by (difficulty, id)."""

    def test_default_sizes(self, corpus):
        assert len(corpus.simple) == 30
        assert len(corpus.medium) == 72
        assert len(corpus.difficult) == 26
        assert len(corpus) == 128

    def test_one_goal_per_tier(self):
        c = GoalCorpus((_goal(0, 6, 3), _goal(1, 3, 2), _goal(2, 1, 1)))
        assert c.simple == (2,)
        assert c.medium == (1,)
        assert c.difficult == (0,)

    def test_ties_broken_by_ascending_id(self):
        c = GoalCorpus((_goal(0, 2, 1), _goal(1, 1, 1), _goal(2, 2, 1), _goal(3, 1, 1)))
        assert c.simple == (1, 3, 0, 2)
        assert c.medium == c.difficult == ()

    def test_difficulty_one_goal_lands_in_simple(self):
        c = GoalCorpus((_goal(0, 0, 1),))
        assert c.simple == (0,)
        assert c.tier_of(0) == "simple"

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_partition_matches_stable_sort_oracle(self, shapes):
        goals = tuple(_goal(i, min(n_i, len(ONTOLOGY) - n_r), n_r)
                      for i, (n_i, n_r) in enumerate(shapes))
        c = GoalCorpus(goals)
        oracle = sorted(goals, key=lambda g: (g.difficulty, g.id))
        lo = 1  # the lowest tier also takes difficulties below its band
        for tier, (_, hi) in TIER_BANDS.items():
            assert c.tier_ids(tier) == tuple(g.id for g in oracle if lo <= g.difficulty <= hi)
            lo = hi + 1

    def test_partition_respects_difficulty_order(self, corpus):
        by_id = {g.id: g for g in corpus.goals}
        simple_max = max(by_id[i].difficulty for i in corpus.simple)
        medium_min = min(by_id[i].difficulty for i in corpus.medium)
        medium_max = max(by_id[i].difficulty for i in corpus.medium)
        difficult_min = min(by_id[i].difficulty for i in corpus.difficult)
        assert simple_max <= medium_min
        assert medium_max <= difficult_min

    def test_partition_must_cover_all_goals(self):
        goals = tuple(_goal(i, i, 1) for i in range(len(ONTOLOGY)))  # difficulties 1..9
        c = GoalCorpus(goals)
        assert sorted(c.simple + c.medium + c.difficult) == list(range(len(goals)))

    def test_partition_stores_goals_in_id_order(self):
        c = GoalCorpus(tuple(_goal(i, 2 - i // 2, 1) for i in range(4)))
        assert c.simple == (2, 3, 0, 1)
        assert [g.id for g in c.goals] == [0, 1, 2, 3]
        assert all(c.goal(i).id == i for i in range(4))

    @pytest.mark.parametrize("ids, position", [((1, 0, 2), 0), ((0, 2, 3), 1),
                                               ((0, 1, 1), 2)])
    def test_goal_out_of_position_rejected(self, ids, position):
        goals = tuple(_goal(i, 1, 1) for i in ids)
        with pytest.raises(DomainError, match=f"position {position} has id {ids[position]}"):
            GoalCorpus(goals)

    def test_tier_of_agrees_with_tier_membership(self, corpus):
        for tier in ("simple", "medium", "difficult"):
            for goal_id in corpus.tier_ids(tier):
                assert corpus.tier_of(goal_id) == tier

    @pytest.mark.parametrize("lookup", ["goal", "tier_of"])
    @pytest.mark.parametrize("goal_id", [-1, 128, 1000])
    def test_id_outside_the_corpus_refused(self, corpus, lookup, goal_id):
        with pytest.raises(DomainError, match=f"^goal {goal_id} not in corpus$"):
            getattr(corpus, lookup)(goal_id)


class TestGeneration:
    def test_deterministic_in_seed(self, kb_rows):
        assert generate_corpus(7, kb_rows) == generate_corpus(7, kb_rows)
        assert generate_corpus(7, kb_rows) != generate_corpus(8, kb_rows)

    def test_difficulties_within_tier_bands(self, corpus):
        by_id = {g.id: g for g in corpus.goals}
        for tier, ids in (("simple", corpus.simple), ("medium", corpus.medium),
                          ("difficult", corpus.difficult)):
            lo, hi = TIER_BANDS[tier]
            for i in ids:
                assert lo <= by_id[i].difficulty <= hi

    def test_goals_satisfiable_against_kb(self, corpus, kb_rows):
        for g in corpus.goals:
            informs = g.inform_dict
            assert any(all(row[s] == v for s, v in informs.items())
                       for row in kb_rows)

    def test_kb_rows_deterministic_and_complete(self):
        rows = generate_kb_rows(1)
        assert rows == generate_kb_rows(1)
        assert len(rows) == 200
        for row in rows:
            assert set(row) == set(ONTOLOGY)

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_kb_rows_equal_one_draw_per_value(self, seed, n_rows):
        """The one bounded call equals a scalar draw per value, row by row;
        a numpy whose bounded draws stop sharing one stream fails here. No
        rows is the empty table."""
        rng = np.random.default_rng([seed, 101])
        oracle = tuple({s: VALUE_POOLS[s][int(rng.integers(len(VALUE_POOLS[s])))]
                        for s in ONTOLOGY} for _ in range(n_rows))
        assert generate_kb_rows(seed, n_rows) == oracle

    def test_sorted_output_has_nondecreasing_difficulty(self, kb_rows):
        c = generate_corpus(7, kb_rows, (30, 72, 26))
        by_id = {g.id: g for g in c.goals}
        diffs = [by_id[i].difficulty
                 for i in list(c.simple) + list(c.medium) + list(c.difficult)]
        assert diffs == sorted(diffs)

    @pytest.mark.parametrize("sizes", [(0, 5, 5), (5, -1, 5), (5, 5, 0)])
    def test_size_below_one_rejected(self, kb_rows, sizes):
        with pytest.raises(DomainError, match="each tier size must be >= 1"):
            generate_corpus(1, kb_rows, sizes)


class TestCorpusIO:
    def test_round_trip_with_inferred_sizes(self, corpus, tmp_path):
        path = tmp_path / "goals.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_file_has_expected_fields(self, corpus, tmp_path):
        path = tmp_path / "goals.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 128
        record = json.loads(lines[0])
        assert set(record) == {"id", "inform_slots", "request_slots"}

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "goals.jsonl"
        record = json.dumps({"id": 0, "inform_slots": {}, "request_slots": ["city"]})
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(CorpusFormatError, match="line 2.*duplicate goal id"):
            load_corpus(path)

    @pytest.mark.parametrize("ids, line, expected", [((0, 2), 2, 1), ((1, 0), 1, 0)])
    def test_sparse_or_out_of_order_id_names_line(self, tmp_path, ids, line, expected):
        path = tmp_path / "goals.jsonl"
        path.write_text("".join(
            json.dumps({"id": i, "inform_slots": {}, "request_slots": ["city"]}) + "\n"
            for i in ids))
        with pytest.raises(CorpusFormatError,
                           match=f"line {line}: goal id {ids[line - 1]}, expected {expected}"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "goals.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_reserved_goal_value_names_slot_and_line(self, tmp_path):
        path = tmp_path / "goals.jsonl"
        path.write_text(json.dumps(
            {"id": 0, "inform_slots": {"city": "UNK"}, "request_slots": ["date"]}) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="line 1: inform slot 'city' holds the reserved value 'UNK'"):
            load_corpus(path)

    def test_numeric_goal_values_read_as_kb_values(self, corpus, tmp_path):
        path = tmp_path / "goals.jsonl"
        save_corpus(corpus, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        numeric = 0
        for record in records:
            if "num_tickets" in record["inform_slots"]:
                record["inform_slots"]["num_tickets"] = int(record["inform_slots"]["num_tickets"])
                numeric += 1
        assert numeric > 0
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("goal_id", ["0.9", "0.0", '"0"', "true", "null"])
    def test_non_integer_goal_id_names_line(self, tmp_path, goal_id):
        path = tmp_path / "goals.jsonl"
        path.write_text(f'{{"id": {goal_id}, "inform_slots": {{}}, "request_slots": ["city"]}}\n')
        with pytest.raises(CorpusFormatError, match="line 1: goal id .* is not an integer"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [None, True, {"a": 1}, [1]])
    def test_non_scalar_goal_value_names_slot_and_line(self, tmp_path, value):
        path = tmp_path / "goals.jsonl"
        path.write_text(json.dumps(
            {"id": 0, "inform_slots": {"city": value}, "request_slots": ["date"]}) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="line 1: inform slot 'city' holds .*, not a string or number"):
            load_corpus(path)

    @pytest.mark.parametrize("requests", [[None], [True], [1], ["city", None], "city",
                                          None, {"city": "x"}])
    def test_request_slots_not_a_list_of_strings_names_value_and_line(self, tmp_path,
                                                                       requests):
        path = tmp_path / "goals.jsonl"
        path.write_text(json.dumps(
            {"id": 0, "inform_slots": {}, "request_slots": requests}) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert str(err.value) == (f"line 1: request_slots holds {json.dumps(requests)}, "
                                  "not a list of strings")

    @pytest.mark.parametrize("slots", [[["price", "$8"], ["price", "zzz"]], [], "city", None])
    def test_inform_slots_not_an_object_names_value_and_line(self, tmp_path, slots):
        path = tmp_path / "goals.jsonl"
        record = json.dumps({"id": 0, "inform_slots": {}, "request_slots": ["city"]})
        path.write_text(record + "\n" + json.dumps(
            {"id": 1, "inform_slots": slots, "request_slots": ["date"]}) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert str(err.value) == (f"line 2: inform_slots holds {json.dumps(slots)}, "
                                  "not a JSON object")

    @pytest.mark.parametrize("line, key", [
        ('{"id": 0, "inform_slots": {}, "request_slots": ["city"], "request_slots": ["date"]}',
         "request_slots"),
        ('{"id": 0, "inform_slots": {"price": "$8", "price": "zzz"}, "request_slots": ["city"]}',
         "price"),
    ], ids=["record", "inform_slots"])
    def test_repeated_goal_key_names_key_and_line(self, tmp_path, line, key):
        path = tmp_path / "goals.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert str(err.value) == f"line 2: repeated key {key!r}"

    def test_file_with_an_empty_tier_refused(self, tmp_path):
        path = tmp_path / "goals.jsonl"
        save_corpus(GoalCorpus((_goal(0, 1, 1), _goal(1, 6, 3))), path)
        with pytest.raises(CorpusFormatError, match="no goal in tier medium: cannot infer "
                                                    "a non-empty three-way partition"):
            load_corpus(path)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "goals.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_kb_round_trip(self, kb_rows, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb_rows(kb_rows, path)
        assert load_kb_rows(path) == kb_rows

    def test_kb_unknown_slot_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps({"color": "red"}) + "\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_kb_rows(path)

    def test_kb_missing_slot_names_slot_and_line(self, kb_rows, tmp_path):
        path = tmp_path / "kb.jsonl"
        short = {s: v for s, v in kb_rows[1].items() if s != "price"}
        path.write_text(json.dumps(kb_rows[0]) + "\n" + json.dumps(short) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2: missing slot 'price'"):
            load_kb_rows(path)

    def test_kb_reserved_value_names_slot_and_line(self, kb_rows, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps(kb_rows[0]) + "\n"
                        + json.dumps({**kb_rows[1], "city": "UNK"}) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="line 2: slot 'city' holds the reserved value 'UNK'"):
            load_kb_rows(path)

    def test_kb_repeated_key_names_key_and_line(self, kb_rows, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps(kb_rows[0]) + "\n"
                        + json.dumps(kb_rows[1])[:-1] + ', "city": "nowhere"}\n')
        with pytest.raises(CorpusFormatError) as err:
            load_kb_rows(path)
        assert str(err.value) == "line 2: repeated key 'city'"

    @pytest.mark.parametrize("record", ["5", "[]", '"movie_name"'])
    def test_kb_non_object_record_names_line(self, tmp_path, record):
        path = tmp_path / "kb.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(CorpusFormatError, match="line 1: record is not a JSON object"):
            load_kb_rows(path)

    @pytest.mark.parametrize("record", ["[1]", "5", '"x"', "null"])
    @pytest.mark.parametrize("load", [load_corpus, load_kb_rows])
    def test_non_object_record_refused_by_both_loaders(self, tmp_path, load, record):
        path = tmp_path / "records.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load(path)
        assert str(err.value) == "line 1: record is not a JSON object"

    @pytest.mark.parametrize("value", [None, True, {"a": 1}, [1]])
    def test_kb_non_scalar_value_names_slot_and_line(self, kb_rows, tmp_path, value):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps(kb_rows[0]) + "\n"
                        + json.dumps({**kb_rows[1], "city": value}) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="line 2: slot 'city' holds .*, not a string or number"):
            load_kb_rows(path)

    @pytest.mark.parametrize("value, text", [(3, "3"), (9.5, "9.5")])
    def test_kb_numbers_read_as_strings(self, kb_rows, tmp_path, value, text):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps({**kb_rows[0], "num_tickets": value}) + "\n")
        assert load_kb_rows(path)[0]["num_tickets"] == text
