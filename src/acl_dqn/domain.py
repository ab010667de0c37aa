"""Core vocabulary of the movie-booking dialogue task.

Slots, dialogue acts, user goals, the goal corpus and its difficulty
tiers, and line-delimited corpus/KB file I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

# Informable/requestable slots of the movie-booking ontology.
ONTOLOGY: tuple[str, ...] = (
    "movie_name",
    "theater",
    "city",
    "date",
    "start_time",
    "num_tickets",
    "price",
    "genre",
    "rating",
)
SLOT_INDEX: dict[str, int] = {slot: i for i, slot in enumerate(ONTOLOGY)}
N_SLOTS = len(ONTOLOGY)

UNK = "UNK"

# Value pools used for synthetic KB rows and goal constraints.
VALUE_POOLS: dict[str, tuple[str, ...]] = {
    "movie_name": tuple(f"movie_{i:02d}" for i in range(25)),
    "theater": tuple(f"theater_{i}" for i in range(8)),
    "city": ("seattle", "boston", "chicago", "austin", "denver", "portland"),
    "date": tuple(f"2026-09-{d:02d}" for d in range(1, 11)),
    "start_time": tuple(f"{h}:{m:02d}" for h in (10, 12, 14, 16, 18, 20) for m in (0, 30)),
    "num_tickets": tuple(str(i) for i in range(1, 7)),
    "price": tuple(f"${p}" for p in (8, 9, 10, 11, 12, 13, 14, 15)),
    "genre": ("action", "comedy", "drama", "horror", "sci-fi", "romance", "thriller", "animation"),
    "rating": ("G", "PG", "PG-13", "R", "NC-17"),
}

# A goal's tier is its difficulty band, where difficulty is
# |inform_slots| + |request_slots|: the first tier whose upper bound it does
# not exceed.  The generator draws each tier's difficulties inside its band.
TIER_BANDS: dict[str, tuple[int, int]] = {
    "simple": (2, 3),
    "medium": (4, 6),
    "difficult": (7, 9),
}

TIERS: tuple[str, ...] = tuple(TIER_BANDS)

# The generated environment's size: goals per tier, in TIERS order, and KB rows.
TIER_SIZES: tuple[int, int, int] = (30, 72, 26)
KB_ROWS = 200


class DomainError(Exception):
    """Invalid goal, act, or corpus construction."""


class CorpusFormatError(DomainError):
    """Malformed corpus/KB file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ActType(str, Enum):
    REQUEST = "request"
    INFORM = "inform"
    CONFIRM_QUESTION = "confirm_question"
    CONFIRM_ANSWER = "confirm_answer"
    DENY = "deny"
    THANKS = "thanks"
    CLOSING = "closing"
    GREETING = "greeting"
    NOT_SURE = "not_sure"
    MULTIPLE_CHOICE = "multiple_choice"
    BOOK = "book"


ACT_BLOCK = len(ActType) + N_SLOTS


@dataclass(frozen=True)
class DialogueAct:
    """A typed act with a slot-value payload; UNK marks requested slots.

    Checked once, when built. ``slots`` and ``columns`` are stored beside
    the payload and take no part in equality, hashing or repr; ``columns``
    are the act's one-hot positions in its featurizer block, ACT_BLOCK wide:
    its ActType member position, then len(ActType) plus each slot's position.
    """

    act_type: ActType
    payload: tuple[tuple[str, str], ...] = ()
    slots: tuple[str, ...] = field(init=False, repr=False, compare=False)
    columns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.act_type, ActType):
            raise DomainError(f"act type {self.act_type!r} is not an ActType")
        for slot, value in self.payload:
            if slot not in SLOT_INDEX:
                raise DomainError(f"slot {slot!r} not in ontology")
            if self.act_type is ActType.REQUEST and value != UNK:
                raise DomainError(f"request slot {slot!r} carries {value!r}, not {UNK!r}")
            if self.act_type is ActType.INFORM and value == UNK:
                raise DomainError(f"inform slot {slot!r} carries {UNK!r}, not a value")
        slots = tuple(s for s, _ in self.payload)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "columns", (
            tuple(ActType).index(self.act_type),
            *(len(ActType) + SLOT_INDEX[s] for s in slots)))


def _slot_order(slot: str) -> int:
    """Ontology position; an unknown slot sorts last, so the type's own check names it."""
    return SLOT_INDEX.get(slot, N_SLOTS)


# Every act the dialogue reuses is built, and so checked, once. PLAIN_ACTS
# holds the payload-free act of each type. Request and inform acts are
# shared by payload: the SHARED_ACTS most recently used of each kind are
# kept, far more than a generated environment makes. A refused payload is
# never kept, so it raises on every call.
PLAIN_ACTS: dict[ActType, DialogueAct] = {act_type: DialogueAct(act_type) for act_type in ActType}
SHARED_ACTS = 4096


@lru_cache(maxsize=SHARED_ACTS)
def request_act(*slots: str) -> DialogueAct:
    return DialogueAct(ActType.REQUEST, tuple((s, UNK) for s in slots))


def inform_act(**values: str) -> DialogueAct:
    payload = tuple(values.items())
    if len(payload) > 1:  # one pair is in ontology order as it stands
        payload = tuple(sorted(payload, key=lambda kv: _slot_order(kv[0])))
    return _inform_act(payload)


def inform_slot_act(slot: str, value: str) -> DialogueAct:
    """``inform_act(**{slot: value})``, the same shared act, with no dict built."""
    return _inform_act(((slot, value),))


@lru_cache(maxsize=SHARED_ACTS)
def _inform_act(payload: tuple[tuple[str, str], ...]) -> DialogueAct:
    return DialogueAct(ActType.INFORM, payload)


@dataclass(frozen=True)
class UserGoal:
    """Inform-slot constraints plus request slots; the teacher's action unit."""

    id: int
    inform_slots: tuple[tuple[str, str], ...]
    request_slots: tuple[str, ...]
    # The constraints as a dict, built once; like the goal, it is read-only.
    inform_dict: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.id < 0:
            raise DomainError("goal id must be non-negative")
        informed = {s for s, _ in self.inform_slots}
        if len(informed) != len(self.inform_slots):
            raise DomainError("duplicate inform slot")
        if not self.request_slots:
            raise DomainError("request_slots must be non-empty")
        if len(set(self.request_slots)) != len(self.request_slots):
            raise DomainError("duplicate request slot")
        for s in [s for s, _ in self.inform_slots] + list(self.request_slots):
            if s not in SLOT_INDEX:
                raise DomainError(f"slot {s!r} not in ontology")
        for s, v in self.inform_slots:
            if v == UNK:
                raise DomainError(f"inform slot {s!r} holds the reserved value {UNK!r}")
        if informed & set(self.request_slots):
            raise DomainError("inform and request slots must be disjoint")
        object.__setattr__(self, "inform_dict", dict(self.inform_slots))

    @property
    def difficulty(self) -> int:
        """Total slot count n = n_i + n_r."""
        return len(self.inform_slots) + len(self.request_slots)


def make_goal(goal_id: int, inform_slots: Mapping[str, str], request_slots: Iterable[str]) -> UserGoal:
    informs = tuple(sorted(inform_slots.items(), key=lambda kv: _slot_order(kv[0])))
    requests = tuple(sorted(request_slots, key=_slot_order))
    return UserGoal(goal_id, informs, requests)


def _band_of(difficulty: int) -> str:
    """The first tier whose band's upper bound the difficulty does not exceed."""
    return next(tier for tier, (_, hi) in TIER_BANDS.items() if difficulty <= hi)


@dataclass(frozen=True)
class GoalCorpus:
    """Goals in id order: a goal's id is its position and its teacher output index.

    Each tier holds the ids of the goals in its difficulty band, ascending
    by (difficulty, id).
    """

    goals: tuple[UserGoal, ...]
    simple: tuple[int, ...] = field(init=False)
    medium: tuple[int, ...] = field(init=False)
    difficult: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        for i, g in enumerate(self.goals):
            if g.id != i:
                raise DomainError(f"goal at position {i} has id {g.id}, expected {i}")
        tiers: dict[str, list[int]] = {tier: [] for tier in TIERS}
        for g in sorted(self.goals, key=lambda g: (g.difficulty, g.id)):
            tiers[_band_of(g.difficulty)].append(g.id)
        for tier, ids in tiers.items():
            object.__setattr__(self, tier, tuple(ids))

    def __len__(self) -> int:
        return len(self.goals)

    def _position(self, goal_id: int) -> int:
        if not 0 <= goal_id < len(self.goals):
            raise DomainError(f"goal {goal_id} not in corpus")
        return goal_id

    def goal(self, goal_id: int) -> UserGoal:
        return self.goals[self._position(goal_id)]

    def tier_ids(self, tier: str) -> tuple[int, ...]:
        return getattr(self, tier)

    def tier_of(self, goal_id: int) -> str:
        return _band_of(self.goals[self._position(goal_id)].difficulty)

    def all_ids(self) -> tuple[int, ...]:
        return tuple(g.id for g in self.goals)


def generate_kb_rows(seed: int, n_rows: int = KB_ROWS) -> tuple[dict[str, str], ...]:
    """Synthetic movie/showtime table; deterministic in seed."""
    rng = np.random.default_rng([seed, 101])
    rows = []
    for _ in range(n_rows):
        rows.append({s: VALUE_POOLS[s][int(rng.integers(len(VALUE_POOLS[s])))] for s in ONTOLOGY})
    return tuple(rows)


def generate_corpus(seed: int, kb_rows: Sequence[Mapping[str, str]],
                    sizes: tuple[int, int, int] = TIER_SIZES) -> GoalCorpus:
    """Deterministic synthetic goal corpus, satisfiable against the KB.

    Each tier's goals draw their difficulties inside its band, so tier t
    holds sizes[t] goals.  Each goal's inform constraints are copied from a
    sampled KB row, so every goal matches at least that row.  The same seed
    and rows always yield a bit-identical corpus.
    """
    if any(s < 1 for s in sizes):
        raise DomainError("each tier size must be >= 1")
    rng = np.random.default_rng([seed, 202])
    difficulties = [int(rng.integers(lo, hi + 1))
                    for (lo, hi), size in zip(TIER_BANDS.values(), sizes) for _ in range(size)]
    goals = []
    for goal_id, n in enumerate(difficulties):
        row = kb_rows[int(rng.integers(len(kb_rows)))]
        slots = list(rng.choice(len(ONTOLOGY), size=n, replace=False))
        chosen = [ONTOLOGY[i] for i in sorted(slots)]
        # Constraint count grows faster than request count, so harder goals
        # hide more constraints and demand more slot discovery.
        n_r = 1 + n // 3
        n_i = max(n - n_r, 0)
        inf_idx = rng.choice(n, size=n_i, replace=False)
        inform_names = {chosen[i] for i in inf_idx}
        requests = [s for s in chosen if s not in inform_names]
        informs = {s: row[s] for s in inform_names}
        goals.append(make_goal(goal_id, informs, requests))
    return GoalCorpus(tuple(goals))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    record = {}
    for key, value in pairs:
        if key in record:
            raise CorpusFormatError(f"repeated key {key!r}")
        record[key] = value
    return record


def _read_records(path) -> Iterator[tuple[int, Any]]:
    """(line number, decoded record) for each non-blank line of a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid record: {exc.msg}", lineno) from exc
            except CorpusFormatError as exc:
                raise CorpusFormatError(str(exc), lineno) from None
            yield lineno, record


def _write_records(path, records: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _slot_value(value, where: str, lineno: int) -> str:
    """A slot value read from a file: a JSON string, or a number read as str() of it."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CorpusFormatError(f"{where} holds {json.dumps(value)}, not a string or number",
                                lineno)
    if str(value) == UNK:
        raise CorpusFormatError(f"{where} holds the reserved value {UNK!r}", lineno)
    return str(value)


def save_corpus(corpus: GoalCorpus, path) -> None:
    _write_records(path, ({"id": g.id, "inform_slots": g.inform_dict,
                           "request_slots": list(g.request_slots)} for g in corpus.goals))


def load_corpus(path) -> GoalCorpus:
    """Load a line-delimited corpus; each goal's tier is its difficulty band."""
    goals: list[UserGoal] = []
    for lineno, record in _read_records(path):
        try:
            goal_id = record["id"]
            slots = record["inform_slots"]
            requests = record["request_slots"]
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(f"missing or malformed field: {exc}", lineno) from exc
        if not isinstance(slots, dict):
            raise CorpusFormatError(
                f"inform_slots holds {json.dumps(slots)}, not a JSON object", lineno)
        # values read as load_kb_rows reads them, so they can match a row
        informs = {s: _slot_value(v, f"inform slot {s!r}", lineno) for s, v in slots.items()}
        if not isinstance(requests, list) or not all(isinstance(s, str) for s in requests):
            raise CorpusFormatError(
                f"request_slots holds {json.dumps(requests)}, not a list of strings", lineno)
        if isinstance(goal_id, bool) or not isinstance(goal_id, int):
            raise CorpusFormatError(f"goal id {json.dumps(goal_id)} is not an integer", lineno)
        if 0 <= goal_id < len(goals):
            raise CorpusFormatError(f"duplicate goal id {goal_id}", lineno)
        if goal_id != len(goals):
            raise CorpusFormatError(f"goal id {goal_id}, expected {len(goals)}", lineno)
        try:
            goals.append(make_goal(goal_id, informs, requests))
        except DomainError as exc:
            raise CorpusFormatError(str(exc), lineno) from exc
    corpus = GoalCorpus(tuple(goals))
    empty = [tier for tier in TIERS if not corpus.tier_ids(tier)]
    if goals and empty:
        raise CorpusFormatError(
            f"no goal in tier {', '.join(empty)}: cannot infer a non-empty three-way partition")
    return corpus


def save_kb_rows(rows: Sequence[Mapping[str, str]], path) -> None:
    _write_records(path, (dict(row) for row in rows))


def load_kb_rows(path) -> tuple[dict[str, str], ...]:
    rows = []
    for lineno, record in _read_records(path):
        if not isinstance(record, dict):
            raise CorpusFormatError("record is not a JSON object", lineno)
        for slot in record:
            if slot not in SLOT_INDEX:
                raise CorpusFormatError(f"unknown slot {slot!r}", lineno)
        for slot in ONTOLOGY:
            if slot not in record:
                raise CorpusFormatError(f"missing slot {slot!r}", lineno)
        rows.append({s: _slot_value(v, f"slot {s!r}", lineno) for s, v in record.items()})
    return tuple(rows)
