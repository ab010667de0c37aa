"""Agenda-based user simulator for the movie-booking task.

The simulator plays one user goal against a system agent at dialogue-act
level.  It is fully deterministic given (goal, rng seed, system acts): the
user reveals a seeded subset of constraints up front, answers requests
about constrained slots, tracks which of its request slots the system has
answered, and accepts a booking only when every answer matches the KB row
consistent with the full goal constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .domain import (
    ActType,
    DialogueAct,
    UserGoal,
    inform_act,
    request_act,
)

MAX_TURNS = 40

# Probability that each inform constraint is stated in the opening agenda.
# Users with small goals state their constraints up front; the more slots a
# goal spans, the more of its constraints stay hidden until asked for.
REVEAL_P_MAX = 0.8
REVEAL_P_MIN = 0.1
REVEAL_P_SLOPE = 0.15


def reveal_probability(goal: UserGoal) -> float:
    return max(REVEAL_P_MIN, REVEAL_P_MAX - REVEAL_P_SLOPE * (goal.difficulty - 2))


ONGOING = "ongoing"
SUCCESS = "success"
FAILURE = "failure"


class SessionError(Exception):
    """Stepping a terminated session, or other usage errors."""


@dataclass(frozen=True)
class KnowledgeBase:
    """The KB rows in a fixed order, with a row index for ``kb_query``.

    The index maps each ``(slot, value)`` pair to a bitmask of the rows that
    hold it (bit i is ``rows[i]``).  It is built from the rows once, at
    construction, so the rows are read-only afterwards: editing a row dict
    would leave the index answering for the old contents.
    """

    rows: tuple[dict[str, str], ...]
    index: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[tuple[str, str], int] = {}
        for i, row in enumerate(self.rows):
            for pair in row.items():
                index[pair] = index.get(pair, 0) | (1 << i)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.rows)


def kb_query(kb: KnowledgeBase, constraints: Mapping[str, str]) -> tuple[int, dict[str, str] | None]:
    """Count rows matching all constraints; first match in stable order."""
    mask = (1 << len(kb.rows)) - 1
    for pair in constraints.items():
        mask &= kb.index.get(pair, 0)
    if not mask:
        return 0, None
    return mask.bit_count(), kb.rows[(mask & -mask).bit_length() - 1]


def designated_row(kb: KnowledgeBase, goal: UserGoal) -> dict[str, str] | None:
    """The KB row a successful booking must agree with."""
    _, row = kb_query(kb, goal.inform_dict)
    return row


@dataclass
class SimulatorSession:
    goal: UserGoal
    kb: KnowledgeBase
    agenda: list[DialogueAct] = field(default_factory=list)
    turn: int = 0
    filled_requests: dict[str, str] = field(default_factory=dict)
    status: str = ONGOING


def session_reset(goal: UserGoal, kb: KnowledgeBase,
                  rng: np.random.Generator) -> tuple[SimulatorSession, DialogueAct]:
    """Build the opening agenda and pop the first user act.

    The agenda is a stack: request acts at the bottom, a seeded subset of
    inform constraints on top, so the user states (some) constraints first
    and asks its questions afterwards.
    """
    session = SimulatorSession(goal=goal, kb=kb)
    for slot in reversed(goal.request_slots):
        session.agenda.append(request_act(slot))
    p_reveal = reveal_probability(goal)
    informs = {s: v for s, v in goal.inform_slots if rng.random() < p_reveal}
    if informs:
        session.agenda.append(inform_act(**informs))
    session.turn = 1
    first = session.agenda.pop()
    return session, first


def _pop_agenda(session: SimulatorSession) -> DialogueAct | None:
    while session.agenda:
        act = session.agenda.pop()
        if act.act_type is ActType.REQUEST and all(
                s in session.filled_requests for s in act.slots):
            continue  # already answered out of turn
        return act
    return None


def _booking_valid(session: SimulatorSession) -> bool:
    goal = session.goal
    if any(s not in session.filled_requests for s in goal.request_slots):
        return False
    row = designated_row(session.kb, goal)
    if row is None:
        return False
    return all(session.filled_requests[s] == row[s] for s in goal.request_slots)


def session_step(session: SimulatorSession,
                 system_act: DialogueAct) -> tuple[DialogueAct, str]:
    """Advance one exchange: system act in, user act and status out."""
    if session.status != ONGOING:
        raise SessionError("session_step after terminal status")

    goal = session.goal
    user_act: DialogueAct | None = None

    if system_act.act_type is ActType.REQUEST:
        known = {s: goal.inform_dict[s] for s in system_act.slots if s in goal.inform_dict}
        if known:
            user_act = inform_act(**known)
        else:
            # Can't answer; pursue own agenda instead of stalling.
            user_act = _pop_agenda(session) or DialogueAct(ActType.NOT_SURE)
    elif system_act.act_type is ActType.INFORM:
        for slot, value in system_act.payload:
            if slot in goal.request_slots:
                session.filled_requests[slot] = value
        user_act = _pop_agenda(session) or DialogueAct(ActType.CONFIRM_ANSWER)
    elif system_act.act_type is ActType.BOOK:
        if _booking_valid(session):
            session.status = SUCCESS
            user_act = DialogueAct(ActType.THANKS)
        else:
            # A booking that contradicts the goal or leaves questions
            # unanswered ends the dialogue: the user walks away.
            session.status = FAILURE
            user_act = DialogueAct(ActType.DENY)
    elif system_act.act_type is ActType.CLOSING:
        session.status = FAILURE
        user_act = DialogueAct(ActType.CLOSING)
    else:
        user_act = _pop_agenda(session) or DialogueAct(ActType.NOT_SURE)

    if session.status == ONGOING:
        if session.turn >= MAX_TURNS:
            session.status = FAILURE
        else:
            session.turn += 1
    return user_act, session.status


@dataclass
class DialogueContext:
    """The system side's running view of one dialogue.

    Tracks constraints the user has stated, the user's open and answered
    request slots, the last act from each side, and the KB match of the
    known constraints (refreshed only when the user informs).  Shared by the
    rule agent and the student featurizer.
    """

    kb: KnowledgeBase
    known_constraints: dict[str, str] = field(default_factory=dict)
    open_requests: list[str] = field(default_factory=list)
    answered_requests: set[str] = field(default_factory=set)
    requested_by_system: set[str] = field(default_factory=set)
    last_user_act: DialogueAct | None = None
    last_system_act: DialogueAct | None = None
    turn: int = 1
    kb_count: int = field(init=False)
    kb_row: dict[str, str] | None = field(init=False)

    def __post_init__(self) -> None:
        self.kb_count, self.kb_row = kb_query(self.kb, self.known_constraints)

    def observe_user(self, act: DialogueAct) -> None:
        self.last_user_act = act
        if act.act_type is ActType.INFORM:
            for slot, value in act.payload:
                self.known_constraints[slot] = value
            self.kb_count, self.kb_row = kb_query(self.kb, self.known_constraints)
        elif act.act_type is ActType.REQUEST:
            for slot in act.slots:
                # a re-asked slot re-opens even if it was answered before
                self.answered_requests.discard(slot)
                if slot not in self.open_requests:
                    self.open_requests.append(slot)

    def observe_system(self, act: DialogueAct) -> None:
        self.last_system_act = act
        if act.act_type is ActType.REQUEST:
            self.requested_by_system.update(act.slots)
        elif act.act_type is ActType.INFORM:
            for slot in act.slots:
                if slot in self.open_requests:
                    self.open_requests.remove(slot)
                    self.answered_requests.add(slot)
