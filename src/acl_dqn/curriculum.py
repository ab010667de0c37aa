"""Curriculum schedules A/B/C, the over-repetition penalty, and mastery.

Schedule A leaves the full goal set open forever.  Schedule B walks the
difficulty tiers on a proportional episode budget.  Schedule C advances
early once the in-phase success rate clears the mastery threshold for T
consecutive snapshots, with B's budget kept as a force-advance ceiling so
an unmasterable tier cannot stall the run.  The phase machine also counts
each goal's samples within the current phase, which the over-repetition
penalty reads; a phase move starts the counts of its goal set at zero.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .domain import GoalCorpus, TIERS
from .user_sim import MAX_TURNS

# ORP asymptote L, the reward scale: the turn cap, as in the failure penalty.
L_MAX = float(MAX_TURNS)
ORP_K = 10.0
# Schedule C's mastery window T: consecutive in-phase success-rate snapshots >= alpha.
MASTERY_WINDOW = 5

SCHEDULES = ("A", "B", "C")
PHASE_ALL = "all"


class CurriculumError(Exception):
    pass


def orp_penalty(og: int) -> float:
    """Saturating penalty -L * og / (og + K); 0 at og=0, asymptote -L."""
    if og < 0:
        raise CurriculumError("sample count must be non-negative")
    return -L_MAX * og / (og + ORP_K)


def schedule_b_budgets(tier_sizes: tuple[int, int, int], epoch_size: int) -> tuple[int, int]:
    """Episode budgets of the simple and medium phases; difficult absorbs the rest."""
    total = sum(tier_sizes)
    return (tier_sizes[0] * epoch_size // total,
            tier_sizes[1] * epoch_size // total)


class PhaseTransition(NamedTuple):
    epoch: int
    old_phase: str
    new_phase: str
    trigger: str  # "budget" or "mastery"


class PhaseMachine:
    """Monotone phase state machine shared by the three schedules.

    A phase's counts start together in ``_enter``: the episodes and
    successes seen in it, ``window``, its last ``MASTERY_WINDOW`` cumulative
    success rates (read by schedule C's gate), and ``og``, each active
    goal's samples for the over-repetition penalty; ``og``'s keys are the
    active goal set.
    """

    def __init__(self, schedule: str, corpus: GoalCorpus, epoch_size: int,
                 alpha: float = 0.5):
        if schedule not in SCHEDULES:
            raise CurriculumError(f"unknown schedule {schedule!r}")
        self.schedule = schedule
        self.corpus = corpus
        self.alpha = alpha
        sizes = tuple(len(corpus.tier_ids(t)) for t in TIERS)
        self.budgets = dict(zip(TIERS[:2], schedule_b_budgets(sizes, epoch_size)))
        self._enter(PHASE_ALL if schedule == "A" else TIERS[0])

    def _enter(self, phase: str) -> None:
        self.phase = phase
        self.episodes_in_phase = 0
        self.successes_in_phase = 0
        self.window: deque[float] = deque(maxlen=MASTERY_WINDOW)
        self.og = dict.fromkeys(self.active_goal_ids(), 0)

    def active_goal_ids(self) -> tuple[int, ...]:
        if self.phase == PHASE_ALL:
            return self.corpus.all_ids()
        return self.corpus.tier_ids(self.phase)

    def mastered(self) -> bool:
        """The last MASTERY_WINDOW in-phase success rates all reach alpha."""
        return (len(self.window) == MASTERY_WINDOW
                and all(p >= self.alpha for p in self.window))

    def _advance(self, epoch: int, trigger: str) -> PhaseTransition:
        old = self.phase
        self._enter(TIERS[TIERS.index(old) + 1])
        return PhaseTransition(epoch, old, self.phase, trigger)

    def on_goal_sampled(self, goal_id: int) -> float:
        """Penalty on the pre-increment count: a first sample is free."""
        if goal_id not in self.og:
            raise CurriculumError(f"goal {goal_id} outside active set")
        r_or = orp_penalty(self.og[goal_id])
        self.og[goal_id] += 1
        return r_or

    def on_episode(self, epoch: int, success: bool) -> PhaseTransition | None:
        """Advance decision after one completed episode; None if staying."""
        if self.schedule == "A":
            return None
        self.episodes_in_phase += 1
        self.successes_in_phase += bool(success)
        self.window.append(self.successes_in_phase / self.episodes_in_phase)
        if self.phase == TIERS[-1]:
            return None
        if self.schedule == "C" and self.mastered():
            return self._advance(epoch, "mastery")
        if self.episodes_in_phase >= self.budgets[self.phase]:
            return self._advance(epoch, "budget")
        return None
