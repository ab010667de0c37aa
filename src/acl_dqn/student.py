"""The student dialogue agent: featurization, action set, rewards, episodes,
and the rule-agent warm start."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .domain import (N_SLOTS, ONTOLOGY, SLOT_INDEX, ActType, DialogueAct, UserGoal,
                     inform_act, request_act)
from .neural import QFunction, epsilon_greedy
from .replay import ReplayBuffer, ReplayError, Transition
from .user_sim import (
    DialogueContext,
    KnowledgeBase,
    MAX_TURNS,
    ONGOING,
    SUCCESS,
    SimulatorSession,
    session_reset,
    session_step,
)

# Reward constants: success bonus 2L, failure penalty -L, -1 each turn.
TURN_PENALTY = -1.0
SUCCESS_BONUS = 2.0 * MAX_TURNS
FAILURE_PENALTY = -float(MAX_TURNS)

# Replay Buffer Spiking: rule-agent dialogues played before training, and
# the extra ones allowed when none of them succeeds.
RBS_DIALOGUES = 100
RBS_MAX_RETRIES = 20

# Exploration rate at epoch 0, from which epsilon_at decays.
EPSILON_START = 0.3


# Fixed-order system actions (act type, slot or None); index = Q-output index.
SYSTEM_ACTIONS: tuple[tuple[ActType, str | None], ...] = (
    *((ActType.REQUEST, slot) for slot in ONTOLOGY),
    *((ActType.INFORM, slot) for slot in ONTOLOGY),
    *((act_type, None) for act_type in (ActType.CONFIRM_QUESTION, ActType.CONFIRM_ANSWER,
                                        ActType.BOOK, ActType.CLOSING, ActType.GREETING)),
)
ACTION_INDEX = {action: i for i, action in enumerate(SYSTEM_ACTIONS)}
N_ACTIONS = len(SYSTEM_ACTIONS)

# Feature layout: user act block (11 + 9), system act block (11 + 9),
# per-slot belief flags (constraint known / request open / request answered)
# plus three belief summaries (any open, all answered, open fraction),
# turn scalar + one-hot over 40 buckets, KB count scalar.  Act types take
# their ActType member position, slots their ontology position.
_ACT_POSITION = {act_type: i for i, act_type in enumerate(ActType)}
_ACT_BLOCK = len(ActType) + N_SLOTS
STATE_DIM = 2 * _ACT_BLOCK + 3 * N_SLOTS + 3 + 1 + MAX_TURNS + 1


def _act_block(vec: np.ndarray, offset: int, act: DialogueAct | None) -> None:
    if act is None:
        return
    vec[offset + _ACT_POSITION[act.act_type]] = 1.0
    for slot in act.slots:
        vec[offset + len(ActType) + SLOT_INDEX[slot]] = 1.0


def featurize(ctx: DialogueContext, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic fixed-dimension state vector, entries in [0, 1];
    written over the whole of ``out`` when one is given."""
    if out is None:
        vec = np.zeros(STATE_DIM)
    else:
        vec = out
        vec.fill(0.0)
    _act_block(vec, 0, ctx.last_user_act)
    _act_block(vec, _ACT_BLOCK, ctx.last_system_act)
    base = 2 * _ACT_BLOCK
    for slot in ctx.known_constraints:
        vec[base + SLOT_INDEX[slot]] = 1.0
    for slot in ctx.open_requests:
        vec[base + N_SLOTS + SLOT_INDEX[slot]] = 1.0
    for slot in ctx.answered_requests:
        vec[base + 2 * N_SLOTS + SLOT_INDEX[slot]] = 1.0
    base += 3 * N_SLOTS
    vec[base] = 1.0 if ctx.open_requests else 0.0
    vec[base + 1] = 1.0 if not ctx.open_requests and ctx.answered_requests else 0.0
    vec[base + 2] = len(ctx.open_requests) / N_SLOTS
    base += 3
    turn = min(ctx.turn, MAX_TURNS)
    vec[base] = turn / MAX_TURNS
    vec[base + 1 + (turn - 1)] = 1.0
    vec[base + 1 + MAX_TURNS] = min(ctx.kb_count / len(ctx.kb), 1.0)
    return vec


def materialize(action_index: int, ctx: DialogueContext) -> DialogueAct:
    """Turn an action index into a concrete system act.

    inform(slot) draws its value from the first KB row matching the known
    constraints; with no matching row it degrades to not_sure.
    """
    act_type, slot = SYSTEM_ACTIONS[action_index]
    if act_type is ActType.REQUEST:
        return request_act(slot)
    if act_type is ActType.INFORM:
        if ctx.kb_row is None:
            return DialogueAct(ActType.NOT_SURE)
        return inform_act(**{slot: ctx.kb_row[slot]})
    return DialogueAct(act_type)


def step_reward(status: str) -> float:
    """-1 per turn, plus the terminal bonus/penalty on the final turn."""
    r = TURN_PENALTY
    if status == SUCCESS:
        r += SUCCESS_BONUS
    elif status != ONGOING:
        r += FAILURE_PENALTY
    return r


def epsilon_at(epoch: int, end: float, decay_epochs: int) -> float:
    """Linear decay from EPSILON_START to end over decay_epochs epochs, then end."""
    if epoch >= decay_epochs:
        return end
    frac = epoch / decay_epochs
    return EPSILON_START + (end - EPSILON_START) * frac


@dataclass
class EpisodeResult:
    success: bool
    turns: int
    total_reward: float


Policy = Callable[[np.ndarray, DialogueContext], int]


# A dialogue's start and one turn, for run_episode and run_greedy_episodes;
# chat starts its dialogues with start_dialogue too. They look up materialize
# and the simulator as module globals, which perfbench's wrappers replace.
def start_dialogue(goal: UserGoal, kb: KnowledgeBase,
                   rng: np.random.Generator) -> tuple[SimulatorSession, DialogueContext]:
    session, user_act = session_reset(goal, kb, rng)
    ctx = DialogueContext(kb=kb)
    ctx.observe_user(user_act)
    ctx.turn = session.turn
    return session, ctx


def _turn(session: SimulatorSession, ctx: DialogueContext, action: int) -> str:
    """Play the system act of an action index; returns the dialogue status."""
    system_act = materialize(action, ctx)
    ctx.observe_system(system_act)
    user_act, status = session_step(session, system_act)
    ctx.observe_user(user_act)
    ctx.turn = session.turn
    return status


def run_episode(goal: UserGoal, kb: KnowledgeBase, policy: Policy,
                rng: np.random.Generator,
                on_transition: Callable[[Transition], None] | None = None) -> EpisodeResult:
    """Play one dialogue under the given policy.

    Each turn's transition goes to on_transition, and is built only when
    one is given.
    """
    session, ctx = start_dialogue(goal, kb, rng)
    total = 0.0
    # ctx does not change between turns: a turn's next_state is the next turn's state.
    state = featurize(ctx)
    while True:
        action = policy(state, ctx)
        status = _turn(session, ctx, action)
        reward = step_reward(status)
        next_state = featurize(ctx)
        total += reward
        if on_transition is not None:
            on_transition(Transition(state, action, reward, next_state, status != ONGOING))
        if status != ONGOING:
            return EpisodeResult(status == SUCCESS, session.turn, total)
        state = next_state


def run_greedy_episodes(q: QFunction, goals: Iterable[UserGoal], kb: KnowledgeBase,
                        rng: np.random.Generator) -> list[EpisodeResult]:
    """One greedy dialogue per goal, all stepped together; results in goal order.

    Every dialogue is started first, in goal order: a lazy ``goals`` draws
    from ``rng`` between the resets, as playing them one by one would, and
    nothing draws after. Each turn takes one forward over the live states
    stacked as [n_live, 1, STATE_DIM], equal to their row forwards bit for
    bit, so each result is the one ``run_episode`` plays under
    ``epsilon_policy(q, 0.0, rng)``.
    """
    games = [start_dialogue(goal, kb, rng) for goal in goals]
    states = np.empty((len(games), 1, STATE_DIM))
    totals = [0.0] * len(games)
    results: list = [None] * len(games)
    live = list(range(len(games)))
    while live:
        for row, i in zip(states, live):
            featurize(games[i][1], out=row[0])
        actions = q.forward(states[:len(live)]).argmax(axis=-1)[:, 0]
        still = []
        for i, action in zip(live, actions):
            session, ctx = games[i]
            status = _turn(session, ctx, int(action))
            totals[i] += step_reward(status)
            if status == ONGOING:
                still.append(i)
            else:
                results[i] = EpisodeResult(status == SUCCESS, session.turn, totals[i])
        live = still
    return results


def epsilon_policy(q: QFunction, epsilon: float, rng: np.random.Generator) -> Policy:
    """Epsilon-greedy over all system acts; epsilon 0 is the greedy policy."""
    return lambda state, ctx: epsilon_greedy(q, state, epsilon, rng)


# The hand-written warm-start policy only ever asks about this slot prefix;
# constraints on the remaining slots go unlearned, which is what keeps it
# "naive but occasionally successful".
RULE_AGENT_SLOTS: tuple[str, ...] = ONTOLOGY[:2]


def rule_policy() -> Policy:
    """Fixed warm-start policy: gather constraints, answer, book once."""
    def act(state: np.ndarray, ctx: DialogueContext) -> int:
        askable = [s for s in RULE_AGENT_SLOTS
                   if s not in ctx.known_constraints
                   and s not in ctx.requested_by_system
                   and s not in ctx.open_requests
                   and s not in ctx.answered_requests]
        if askable and ctx.kb_count > 2:
            return ACTION_INDEX[ActType.REQUEST, askable[0]]
        if ctx.open_requests:
            return ACTION_INDEX[ActType.INFORM, ctx.open_requests[0]]
        return ACTION_INDEX[ActType.BOOK, None]
    return act


def rbs_prefill(buffer: ReplayBuffer, corpus, kb: KnowledgeBase,
                rng: np.random.Generator) -> int:
    """Replay Buffer Spiking: prefill with rule-agent dialogues.

    Runs RBS_DIALOGUES episodes on uniformly drawn goals and pushes every
    student transition.  If no success-terminal transition landed in the
    buffer, up to RBS_MAX_RETRIES extra episodes are run on fresh goals
    until one does.  Returns the number of dialogues actually played.
    """
    goals = corpus.goals
    policy = rule_policy()
    played = 0
    any_success = False
    while played < RBS_DIALOGUES + (0 if any_success else RBS_MAX_RETRIES):
        goal = goals[int(rng.integers(len(goals)))]
        result = run_episode(goal, kb, policy, rng, on_transition=buffer.push)
        any_success = any_success or result.success
        played += 1
    if not any_success:
        raise ReplayError(f"warm start: none of {played} rule-agent dialogues "
                          "succeeded on this corpus")
    return played
