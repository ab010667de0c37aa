"""Core vocabulary of the movie-booking dialogue task.

Slots, dialogue acts, user goals, the difficulty-partitioned goal corpus,
and line-delimited corpus/KB file I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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

# Difficulty bands used by the synthetic generator: a goal's difficulty is
# |inform_slots| + |request_slots|.  Tiers must have strictly increasing
# boundaries so the size-based partition lines up with the bands.
TIER_BANDS: dict[str, tuple[int, int]] = {
    "simple": (2, 3),
    "medium": (4, 6),
    "difficult": (7, 9),
}

TIERS: tuple[str, ...] = ("simple", "medium", "difficult")


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


@dataclass(frozen=True)
class DialogueAct:
    """A typed act with a slot-value payload; UNK marks requested slots."""

    act_type: ActType
    payload: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for slot, value in self.payload:
            if slot not in SLOT_INDEX:
                raise DomainError(f"slot {slot!r} not in ontology")
            if self.act_type is ActType.REQUEST and value != UNK:
                raise DomainError(f"request slot {slot!r} carries {value!r}, not {UNK!r}")
            if self.act_type is ActType.INFORM and value == UNK:
                raise DomainError(f"inform slot {slot!r} carries {UNK!r}, not a value")

    @property
    def slots(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.payload)


def _slot_order(slot: str) -> int:
    """Ontology position; an unknown slot sorts last, so the type's own check names it."""
    return SLOT_INDEX.get(slot, N_SLOTS)


def request_act(*slots: str) -> DialogueAct:
    return DialogueAct(ActType.REQUEST, tuple((s, UNK) for s in slots))


def inform_act(**values: str) -> DialogueAct:
    payload = tuple(sorted(values.items(), key=lambda kv: _slot_order(kv[0])))
    return DialogueAct(ActType.INFORM, payload)


@dataclass(frozen=True)
class UserGoal:
    """Inform-slot constraints plus request slots; the teacher's action unit."""

    id: int
    inform_slots: tuple[tuple[str, str], ...]
    request_slots: tuple[str, ...]

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

    @property
    def inform_dict(self) -> dict[str, str]:
        return dict(self.inform_slots)

    @property
    def difficulty(self) -> int:
        """Total slot count n = n_i + n_r."""
        return len(self.inform_slots) + len(self.request_slots)


def make_goal(goal_id: int, inform_slots: Mapping[str, str], request_slots: Iterable[str]) -> UserGoal:
    informs = tuple(sorted(inform_slots.items(), key=lambda kv: _slot_order(kv[0])))
    requests = tuple(sorted(request_slots, key=_slot_order))
    return UserGoal(goal_id, informs, requests)


@dataclass(frozen=True)
class GoalCorpus:
    """Goals in id order: a goal's id is its position and its teacher output index."""

    goals: tuple[UserGoal, ...]
    simple: tuple[int, ...] = field(default=())
    medium: tuple[int, ...] = field(default=())
    difficult: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for i, g in enumerate(self.goals):
            if g.id != i:
                raise DomainError(f"goal at position {i} has id {g.id}, expected {i}")
        covered = list(self.simple) + list(self.medium) + list(self.difficult)
        if sorted(covered) != list(range(len(self.goals))):
            raise DomainError("partition must cover all goals exactly once")

    def __len__(self) -> int:
        return len(self.goals)

    def goal(self, goal_id: int) -> UserGoal:
        return self.goals[goal_id]

    def tier_ids(self, tier: str) -> tuple[int, ...]:
        return getattr(self, tier)

    def tier_of(self, goal_id: int) -> str:
        for tier in TIERS:
            if goal_id in self.tier_ids(tier):
                return tier
        raise DomainError(f"goal {goal_id} not in corpus")

    def all_ids(self) -> tuple[int, ...]:
        return tuple(g.id for g in self.goals)


def partition_corpus(goals: Sequence[UserGoal], sizes: tuple[int, int, int]) -> GoalCorpus:
    """Sort goals ascending by (difficulty, id) and slice into three tiers."""
    if any(s < 1 for s in sizes):
        raise DomainError("each tier size must be >= 1")
    if sum(sizes) != len(goals):
        raise DomainError(f"tier sizes {sizes} do not sum to corpus size {len(goals)}")
    ordered = sorted(goals, key=lambda g: (g.difficulty, g.id))
    n_simple, n_medium, _ = sizes
    simple = tuple(g.id for g in ordered[:n_simple])
    medium = tuple(g.id for g in ordered[n_simple:n_simple + n_medium])
    difficult = tuple(g.id for g in ordered[n_simple + n_medium:])
    return GoalCorpus(tuple(sorted(goals, key=lambda g: g.id)), simple, medium, difficult)


def generate_kb_rows(seed: int, n_rows: int = 200) -> tuple[dict[str, str], ...]:
    """Synthetic movie/showtime table; deterministic in seed."""
    rng = np.random.default_rng([seed, 101])
    rows = []
    for _ in range(n_rows):
        rows.append({s: VALUE_POOLS[s][int(rng.integers(len(VALUE_POOLS[s])))] for s in ONTOLOGY})
    return tuple(rows)


def _tier_plan(sizes: tuple[int, int, int], rng: np.random.Generator) -> list[int]:
    """Per-goal difficulty list realizing the tier bands, tier by tier."""
    difficulties: list[int] = []
    for tier, size in zip(TIERS, sizes):
        lo, hi = TIER_BANDS[tier]
        difficulties.extend(int(rng.integers(lo, hi + 1)) for _ in range(size))
    return difficulties


def generate_corpus(seed: int, sizes: tuple[int, int, int] = (30, 72, 26),
                    kb_rows: Sequence[Mapping[str, str]] | None = None) -> GoalCorpus:
    """Deterministic synthetic goal corpus, satisfiable against the KB.

    Each goal's inform constraints are copied from a sampled KB row, so
    every goal matches at least that row.  The same seed always yields a
    bit-identical corpus.
    """
    if kb_rows is None:
        kb_rows = generate_kb_rows(seed)
    rng = np.random.default_rng([seed, 202])
    difficulties = _tier_plan(sizes, rng)
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
    return partition_corpus(goals, sizes)


def infer_sizes(goals: Sequence[UserGoal]) -> tuple[int, int, int]:
    """Tier sizes from the difficulty bands (used when loading files)."""
    simple_max, medium_max = TIER_BANDS["simple"][1], TIER_BANDS["medium"][1]
    n_simple = sum(g.difficulty <= simple_max for g in goals)
    n_medium = sum(simple_max < g.difficulty <= medium_max for g in goals)
    return n_simple, n_medium, len(goals) - n_simple - n_medium


def save_corpus(corpus: GoalCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in corpus.goals:
            record = {
                "id": g.id,
                "inform_slots": g.inform_dict,
                "request_slots": list(g.request_slots),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_corpus(path) -> GoalCorpus:
    """Load a line-delimited corpus; partition by the difficulty bands."""
    goals: list[UserGoal] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid record: {exc.msg}", lineno) from exc
            try:
                goal_id = int(record["id"])
                # values read as load_kb_rows reads them, so they can match a row
                informs = {s: str(v) for s, v in dict(record["inform_slots"]).items()}
                requests = [str(s) for s in record["request_slots"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"missing or malformed field: {exc}", lineno) from exc
            if 0 <= goal_id < len(goals):
                raise CorpusFormatError(f"duplicate goal id {goal_id}", lineno)
            if goal_id != len(goals):
                raise CorpusFormatError(f"goal id {goal_id}, expected {len(goals)}", lineno)
            try:
                goals.append(make_goal(goal_id, informs, requests))
            except DomainError as exc:
                raise CorpusFormatError(str(exc), lineno) from exc
    if not goals:
        return GoalCorpus(())
    sizes = infer_sizes(goals)
    if 0 in sizes:
        raise CorpusFormatError("cannot infer a non-empty three-way partition")
    return partition_corpus(goals, sizes)


def save_kb_rows(rows: Sequence[Mapping[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(row), sort_keys=True) + "\n")


def load_kb_rows(path) -> tuple[dict[str, str], ...]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid record: {exc.msg}", lineno) from exc
            if not isinstance(record, dict):
                raise CorpusFormatError("record is not a JSON object", lineno)
            for slot in record:
                if slot not in SLOT_INDEX:
                    raise CorpusFormatError(f"unknown slot {slot!r}", lineno)
            for slot in ONTOLOGY:
                if slot not in record:
                    raise CorpusFormatError(f"missing slot {slot!r}", lineno)
                if str(record[slot]) == UNK:
                    raise CorpusFormatError(f"slot {slot!r} holds the reserved value {UNK!r}", lineno)
            rows.append({s: str(v) for s, v in record.items()})
    return tuple(rows)
